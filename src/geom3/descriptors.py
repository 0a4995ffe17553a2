"""Output value types shared by the geometry modules and the CLI, and the
static spherical and S^2 x R lookup tables."""

from __future__ import annotations

import json
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


class _Frozen:
    """Base of the immutable value classes.

    A subclass stores its constructor's arguments in its own __init__,
    through `_setattr` or slot setters, and names them, in order, in
    `_fields`.  The base refuses assignment and deletion, shows
    `Name(field=value!r, ...)`, compares (only with the same class) and
    hashes as the tuple of the fields, and copies and pickles by calling
    the constructor on them.  The classes that products and searches
    build write __eq__ and __hash__ out in place of the loop over
    `_fields`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __reduce__(self):
        return self.__class__, self._values()


_setattr = object.__setattr__


class IsoDescriptor(_Frozen):
    """Isometry group of a finite-volume quotient, as an extension.

    identity_component is a tag from a fixed vocabulary ("S1", "T2", "T3",
    "trivial", "SO3xS1", ...).  circle_factor describes the closed subgroup
    C of S1 in 1 -> C -> Iso -> F -> 1 when that sequence is the natural
    presentation ("S1", an integer k for Z_k, or None when not applicable).
    finite_part collects the data of F (order, structure label, generators).
    """

    _fields = ("geometry", "identity_component", "finite_part",
               "circle_factor", "total_order", "notes")

    def __init__(self, geometry: str, identity_component: str,
                 finite_part: Optional[dict] = None,
                 circle_factor: Optional[object] = None,
                 total_order: Optional[int] = None,
                 notes: tuple[str, ...] = ()):
        _setattr(self, "geometry", geometry)
        _setattr(self, "identity_component", identity_component)
        _setattr(self, "finite_part", finite_part)
        _setattr(self, "circle_factor", circle_factor)
        _setattr(self, "total_order", total_order)
        _setattr(self, "notes", notes)

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


class Verdict(_Frozen):
    """Decision for a higher-rank lattice action, with rule citations."""

    _fields = ("tag", "reasons")

    def __init__(self, tag: str, reasons: tuple[dict, ...] = ()):
        if tag not in (FACTORS_THROUGH_FINITE, POSSIBLE_INFINITE_ACTION):
            raise ValueError(f"unknown verdict tag {tag!r}")
        if not reasons:
            raise ValueError("a verdict must cite at least one rule")
        for r in reasons:
            if not r.get("rule") or not r.get("citation"):
                raise ValueError("each reason needs a rule id and a citation")
        _setattr(self, "tag", tag)
        _setattr(self, "reasons", reasons)

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


def brief(x) -> str:
    """An int or a Fraction as an error message names it: as str() writes
    it when no integer in it has more than 40 digits, and otherwise each
    longer one by its first 20 digits and its size, "12345678901234567890...
    (3001 digits)", so that a message stays short and no integer past the
    4300-digit conversion limit is converted."""
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{brief(x.numerator)}/{brief(x.denominator)}"
    size = abs(int(x))
    if size < 10 ** 40:
        return str(x)
    # 1233 / 4096 < log10(2): a lower bound on the digits, raised to the count
    digits = ((size.bit_length() - 1) * 1233 >> 12) + 1
    while 10 ** digits <= size:
        digits += 1
    head = size // 10 ** (digits - 20)
    return f"{'-' if x < 0 else ''}{head}... ({digits} digits)"


def brief_text(text) -> str:
    """repr(text) as an error message echoes an input, except that a
    string of more than 40 characters is its first 20 and its length,
    "'77777777777777777777'... (2050 characters)"."""
    if isinstance(text, str) and len(text) > 40:
        return f"{text[:20]!r}... ({len(text)} characters)"
    return repr(text)


def canonical_json(obj) -> str:
    """Deterministic JSON rendering used for golden files and CLI output.

    NaN and infinity have no JSON form and raise ValueError; a point at
    infinity is written as the string "inf"."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


# -- spherical and S^2 x R lookup data ----------------------------------------

def _load_table() -> dict:
    from importlib import resources
    text = resources.files("geom3").joinpath(
        "data/spherical_components.json").read_text()
    return json.loads(text)


def spherical_components_lookup(query: str) -> list[dict]:
    """Static classification rows; query a family tag or "all"."""
    table = _load_table()
    families = table["families"]
    if query == "all":
        return [row for rows in families.values() for row in rows]
    if query not in families:
        raise ValueError(f"unknown lookup family {brief_text(query)}")
    return list(families[query])


def lookup_table_version() -> int:
    return _load_table()["version"]
