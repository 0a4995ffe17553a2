"""Output value types shared by the geometry modules and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional


class FloatRangeError(ValueError):
    """A number to be reported as a float lies beyond the float range: it
    overflows, or it is nonzero and rounds to 0."""


def to_float(num, den: int = 1, what: str = "a value") -> float:
    """The exact number num / den (an int or a Fraction over a nonzero int)
    rounded once, never -0.0; FloatRangeError names `what` when it
    overflows a float, or when it is nonzero and rounds to 0."""
    try:
        value = float(num / den)
    except OverflowError:
        value = 0.0
    if num and not value:
        raise FloatRangeError(f"{what} lies beyond the float range")
    return value + 0.0


@dataclass(frozen=True)
class IsoDescriptor:
    """Isometry group of a finite-volume quotient, as an extension.

    identity_component is a tag from a fixed vocabulary ("S1", "T2", "T3",
    "trivial", "SO3xS1", ...).  circle_factor describes the closed subgroup
    C of S1 in 1 -> C -> Iso -> F -> 1 when that sequence is the natural
    presentation ("S1", an integer k for Z_k, or None when not applicable).
    finite_part collects the data of F (order, structure label, generators).
    """

    geometry: str
    identity_component: str
    finite_part: Optional[dict] = None
    circle_factor: Optional[object] = None
    total_order: Optional[int] = None
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        out = {
            "geometry": self.geometry,
            "identity_component": self.identity_component,
            "finite_part": self.finite_part,
        }
        if self.circle_factor is not None:
            out["circle_factor"] = self.circle_factor
        if self.total_order is not None:
            out["total_order"] = self.total_order
        if self.notes:
            out["notes"] = list(self.notes)
        return out


FACTORS_THROUGH_FINITE = "FactorsThroughFinite"
POSSIBLE_INFINITE_ACTION = "PossibleInfiniteIsometricAction"


@dataclass(frozen=True)
class Verdict:
    """Decision for a higher-rank lattice action, with rule citations."""

    tag: str
    reasons: tuple[dict, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.tag not in (FACTORS_THROUGH_FINITE, POSSIBLE_INFINITE_ACTION):
            raise ValueError(f"unknown verdict tag {self.tag!r}")
        if not self.reasons:
            raise ValueError("a verdict must cite at least one rule")
        for r in self.reasons:
            if not r.get("rule") or not r.get("citation"):
                raise ValueError("each reason needs a rule id and a citation")

    def to_json_dict(self) -> dict:
        return {"tag": self.tag, "reasons": list(self.reasons)}


# The longest integer an output may hold, in decimal digits: CPython's
# default limit for int -> str conversion.  Values are measured against it
# before any conversion, so a huge exact answer is a domain error that
# names the limit.
OUTPUT_DIGIT_LIMIT = 4300
_OUTPUT_INT_BOUND = 10 ** OUTPUT_DIGIT_LIMIT


def check_output_size(obj) -> None:
    """Raise ValueError if an int or Fraction anywhere in obj (nested
    dicts, lists and tuples) has more than OUTPUT_DIGIT_LIMIT digits."""
    if isinstance(obj, dict):
        for value in obj.values():
            check_output_size(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            check_output_size(value)
    elif isinstance(obj, Fraction):
        check_output_size((obj.numerator, obj.denominator))
    elif isinstance(obj, int) and abs(obj) >= _OUTPUT_INT_BOUND:
        raise ValueError(
            f"exact answer has {obj.bit_length()} bits, more than the "
            f"{OUTPUT_DIGIT_LIMIT}-digit output limit for one integer")


def canonical_json(obj) -> str:
    """Deterministic JSON rendering used for golden files and CLI output.

    NaN and infinity have no JSON form and raise ValueError; a point at
    infinity is written as the string "inf"."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
