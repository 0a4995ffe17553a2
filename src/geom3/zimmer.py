"""Higher-rank lattice dichotomy: real ranks, isotypic tests, verdicts.

The engine evaluates which finite-volume geometric quotients can carry an
infinite isometric action of a higher-rank lattice.  Non-uniform lattices
never can; uniform ones only when the quotient's isometry group contains
a copy of SO(3) and the ambient group is isotypic of the matching type.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .descriptors import (
    FACTORS_THROUGH_FINITE,
    POSSIBLE_INFINITE_ACTION,
    IsoDescriptor,
    Verdict,
    _Frozen,
    _setattr,
)

if TYPE_CHECKING:
    from .algebra import Scalar

# Each family's complexified algebra ("sl", "so", "sp" or an exceptional
# type), kind of real form, least size m and error for a smaller m.  A
# split form is written R and a complex one C, as in SL(n,R) and SL(n,C);
# a family without parameters has the one size `least` and no message.
_SPLIT, _COMPLEX, _PQ, _COMPACT = "R", "C", "p,q", "compact"
_RealForm = namedtuple("_RealForm", "algebra kind least message",
                       defaults=(None,))
_REAL_FORMS = {
    "SL(n,R)": _RealForm("sl", _SPLIT, 2, "SL needs n >= 2"),
    "SU(p,q)": _RealForm("sl", _PQ, 2, "SU(p,q) needs p + q >= 2"),
    "SL(n,C)": _RealForm("sl", _COMPLEX, 2, "SL needs n >= 2"),
    "SO(p,q)": _RealForm("so", _PQ, 3, "SO(p,q) needs p + q >= 3"),
    "SO(n,C)": _RealForm("so", _COMPLEX, 3, "SO(n,C) needs n >= 3"),
    "Sp(2n,R)": _RealForm("sp", _SPLIT, 1, "Sp needs n >= 1"),
    "Sp(p,q)": _RealForm("sp", _PQ, 1, "Sp(p,q) needs p + q >= 1"),
    "Sp(2n,C)": _RealForm("sp", _COMPLEX, 1, "Sp needs n >= 1"),
    **{name: _RealForm(name, _COMPLEX, int(name[1]))    # m is the rank
       for name in ("G2", "F4", "E6", "E7", "E8")},
    "SO(3)": _RealForm("so", _COMPACT, 3),
    "SO(4)": _RealForm("so", _COMPACT, 4),
}


class SimpleFactor(_Frozen):
    """One simple factor of a semisimple group, e.g. SL(3,R) or SO(2,2)."""

    _fields = ("family", "params")

    def __init__(self, family: str, params: tuple[int, ...] = ()):
        _setattr(self, "family", family)
        _setattr(self, "params", params)
        form = _REAL_FORMS.get(family)
        if form is None:
            raise ValueError(f"unknown family {family!r}")
        p = params
        if form.message is None:
            if p:
                raise ValueError(f"{family} takes no parameters")
            return
        if any(type(x) is not int for x in p):   # bool is not an int here
            raise ValueError(f"{family} parameters must be integers")
        if form.kind == _PQ:
            if len(p) != 2 or p[0] < p[1] or p[1] < 0:
                raise ValueError(f"{family} needs p >= q >= 0")
        elif len(p) != 1:
            raise ValueError(form.message)
        if sum(p) < form.least:
            raise ValueError(form.message)

    def __str__(self):
        form = _REAL_FORMS[self.family]
        if form.message is None:
            return self.family
        head = self.family.split("(")[0]
        if form.kind == _PQ:
            return f"{head}({self.params[0]},{self.params[1]})"
        n = 2 * self.params[0] if form.algebra == "sp" else self.params[0]
        return f"{head}({n},{form.kind})"


def _size(f: SimpleFactor) -> int:
    """n, p + q, or the one size of a family without parameters."""
    return sum(f.params) if f.params else _REAL_FORMS[f.family].least


def _complex_rank(algebra: str, m: int) -> int:
    return {"sl": m - 1, "so": m // 2}.get(algebra, m)


def real_rank(f: SimpleFactor) -> int:
    """Real rank per the standard table; compact groups have rank 0."""
    form = _REAL_FORMS[f.family]
    if form.kind == _COMPACT:
        return 0
    if form.kind == _PQ:
        return min(f.params)
    return _complex_rank(form.algebra, _size(f))


# so(3) = sp(1) = sl(2), so(4) = sl(2) + sl(2), sp(2) = so(5), so(6) = sl(4)
_SMALL_RANK = {"B1": ("A1",), "C1": ("A1",), "D2": ("A1", "A1"),
               "C2": ("B2",), "D3": ("A3",)}


def _simple_types(algebra: str, m: int) -> tuple[str, ...]:
    """Simple types of the complex algebra, e.g. so(5) -> B2."""
    letter = {"sl": "A", "so": "DB"[m % 2], "sp": "C"}.get(algebra)
    if letter is None:
        return (algebra,)
    label = f"{letter}{_complex_rank(algebra, m)}"
    return _SMALL_RANK.get(label, (label,))


def complex_type(f: SimpleFactor) -> tuple[str, ...]:
    """Simple types of the complexified Lie algebra, as a sorted multiset.

    A complex group viewed as a real group complexifies to two copies of
    itself, so its types are doubled.
    """
    form = _REAL_FORMS[f.family]
    types = _simple_types(form.algebra, _size(f))
    if form.kind == _COMPLEX:
        types *= 2
    return tuple(sorted(types))


def is_isotypic(factors: Sequence[SimpleFactor]) -> bool:
    """All simple factors of the complexification share one type."""
    if not factors:
        raise ValueError("nonempty factor list required")
    types = set()
    for f in factors:
        types.update(complex_type(f))
    return len(types) == 1


class LatticeSpec(_Frozen):
    _fields = ("factors", "uniform")

    def __init__(self, factors: tuple[SimpleFactor, ...], uniform: bool):
        if not factors:
            raise ValueError("nonempty factor list required")
        _setattr(self, "factors", factors)
        _setattr(self, "uniform", uniform)

    def rank(self) -> int:
        return sum(real_rank(f) for f in self.factors)

    def __str__(self):
        tag = "uniform" if self.uniform else "nonuniform"
        return " x ".join(str(f) for f in self.factors) + f" ({tag})"


_FACTOR_RE = re.compile(
    r"^\s*(SL|SU|SO|Sp)\s*\(\s*(\d+)\s*,\s*(\d+|R|C)\s*\)\s*$|"
    r"^\s*(G2|F4|E6|E7|E8)\s*$|^\s*SO\s*\(\s*([34])\s*\)\s*$")


# (head, kind) -> the family with parameters, e.g. ("Sp", "R") -> "Sp(2n,R)"
_BY_HEAD = {(family.split("(")[0], form.kind): family
            for family, form in _REAL_FORMS.items() if form.message}


def parse_factor(text: str) -> SimpleFactor:
    """Parse "SL(3,R)", "SO(2,2)", "Sp(4,R)", "SO(4)", "G2" and friends."""
    m = _FACTOR_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse factor {text!r}")
    if m.group(4) or m.group(5):
        return SimpleFactor(m.group(4) or f"SO({m.group(5)})")
    head, first, second = m.group(1), int(m.group(2)), m.group(3)
    if second in (_SPLIT, _COMPLEX):
        family = _BY_HEAD.get((head, second))
        if family is None:
            raise ValueError(f"{head}(n,{second}) is not in the table")
        if _REAL_FORMS[family].algebra == "sp":
            if first % 2:
                raise ValueError(f"{family} needs an even first parameter")
            first //= 2
        return SimpleFactor(family, (first,))
    q = int(second)
    p, q = max(first, q), min(first, q)
    if q == 0 and f"{head}({p})" in _REAL_FORMS:     # SO(3,0) is SO(3)
        return SimpleFactor(f"{head}({p})")
    if (head, _PQ) not in _BY_HEAD:
        raise ValueError(f"cannot parse factor {text!r}")
    return SimpleFactor(_BY_HEAD[head, _PQ], (p, q))


# "x" joins two factors with or without spaces, but is no separator inside
# a word; a separator with no factor on one side is an error
_SEPARATOR_RE = re.compile(r"\s*(?:\*|×|(?<![A-Za-z])x)\s*")


def parse_spec(text: str, uniform: bool) -> LatticeSpec:
    parts = _SEPARATOR_RE.split(text) if text.strip() else []
    return LatticeSpec(tuple(parse_factor(p) for p in parts), uniform)


_SO3_BEARING = {"SO(3)", "SO(4)", "O(4)", "SO3xS1"}


def identity_component_contains_so3(tag: str) -> bool:
    return tag in _SO3_BEARING


_SO3_FACTOR = SimpleFactor("SO(3)")


def zimmer_verdict(quotient: Union[IsoDescriptor, str],
                   spec: LatticeSpec) -> Verdict:
    """Dichotomy for a higher-rank lattice acting on a geometric quotient.

    quotient is an IsoDescriptor produced by a geometry module (or just
    its identity-component tag).  Requires total real rank >= 2.
    """
    if spec.rank() < 2:
        raise ValueError("the dichotomy needs real rank >= 2")
    tag = quotient.identity_component \
        if isinstance(quotient, IsoDescriptor) else str(quotient)
    reasons = []
    if not spec.uniform:
        reasons.append({
            "rule": "nonuniform-excluded",
            "citation": "an infinite-image isometric action would give a "
                        "dense image in a compact group, which forces an "
                        "isotypic pairing with a cocompact lattice; the "
                        "compactness criterion rules out non-uniform ones",
        })
        return Verdict(FACTORS_THROUGH_FINITE, tuple(reasons))
    so3 = identity_component_contains_so3(tag)
    isotypic = is_isotypic(tuple(spec.factors) + (_SO3_FACTOR,))
    if so3 and isotypic:
        reasons.append({
            "rule": "so3-isotypic-uniform",
            "citation": "the quotient's isometry group contains SO(3) and "
                        "the ambient group is isotypic of type A1 with a "
                        "uniform lattice: dense isometric images exist",
        })
        return Verdict(POSSIBLE_INFINITE_ACTION, tuple(reasons))
    if not so3:
        reasons.append({
            "rule": "iso-lacks-so3",
            "citation": f"the identity component {tag!r} of the quotient's "
                        "isometry group contains no copy of SO(3), so every "
                        "compact image closure is too small for an "
                        "isotypic pairing",
        })
    if not isotypic:
        reasons.append({
            "rule": "not-isotypic-with-so3",
            "citation": "the ambient group is not isotypic of type A1, so "
                        "no dense image in a group built from SO(3) exists",
        })
    return Verdict(FACTORS_THROUGH_FINITE, tuple(reasons))


def aspherical_check(r: int, n: int) -> Optional[Verdict]:
    """Isometric actions of rank-(r-1) integral lattices on closed
    aspherical n-manifolds factor through finite groups when n < r."""
    if r < 3:
        raise ValueError("r >= 3 required")
    if n < r:
        return Verdict(FACTORS_THROUGH_FINITE, ({
            "rule": "aspherical-dimension-bound",
            "citation": f"closed aspherical {n}-manifolds admit no infinite "
                        f"isometric action of the integral special linear "
                        f"lattice of degree {r} when {n} < {r}",
        },))
    return None


def max_isometry_dim(n: int) -> int:
    """Dimension bound n(n+1)/2 for the isometry group of an n-space."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return n * (n + 1) // 2


# -- restriction of scalars demo ----------------------------------------------
# Only this demo computes over Q(sqrt(2)), so only its functions import
# algebra and intmat: the other zimmer actions load neither.

def _twist_form() -> tuple:
    from .algebra import QuadRat
    root2, z, one = QuadRat(0, 1, 2), Fraction(0), Fraction(1)
    return ((one, z, z, z), (z, one, z, z),
            (z, z, -root2, z), (z, z, z, -root2))


def galois_twist_pair(g) -> dict:
    """Pair (g, sigma(g)) with form-preservation for the quadratic form
    x^2 + y^2 - sqrt(2) z^2 - sqrt(2) t^2 and its Galois twist."""
    from .algebra import galois_conjugate
    from .intmat import matmul, transpose
    mat = tuple(tuple(_as_q2(v) for v in row) for row in g)
    if len(mat) != 4 or any(len(r) != 4 for r in mat):
        raise ValueError("4x4 matrix required")
    q = _twist_form()
    sigma_mat = tuple(tuple(galois_conjugate(v) for v in row) for row in mat)
    sigma_q = tuple(tuple(galois_conjugate(v) for v in row) for row in q)
    first = matmul(transpose(mat), matmul(q, mat)) == q
    second = matmul(transpose(sigma_mat),
                    matmul(sigma_q, sigma_mat)) == sigma_q
    return {"matrix": mat, "conjugate": sigma_mat,
            "preserves_form": bool(first),
            "conjugate_preserves_twisted_form": bool(second)}


def _as_q2(v) -> Scalar:
    """v in its one exact form, refused unless it lies in Q(sqrt(2))."""
    from .algebra import QuadRat, frac
    if not isinstance(v, QuadRat):
        return frac(v)
    if v.q and v.d != 2:
        raise ValueError("entries must lie in Q(sqrt(2))")
    return v if v.q else v.a


def galois_twist_example() -> tuple:
    """A nontrivial form-preserving rotation in the (x, z) plane.

    a = 3 + 2 sqrt(2) and c = 2 + 2 sqrt(2) solve a^2 - sqrt(2) c^2 = 1
    (smallest solution found by searching Z[sqrt(2)] coefficients).
    """
    from .algebra import QuadRat
    a = QuadRat(3, 2, 2)
    c = QuadRat(2, 2, 2)
    root2 = QuadRat(0, 1, 2)
    z, one = Fraction(0), Fraction(1)
    return ((a, z, root2 * c, z),
            (z, one, z, z),
            (c, z, a, z),
            (z, z, z, one))


# -- top level dispatch --------------------------------------------------------

GEOMETRIES = ("nil", "sol", "h3", "euclid", "s3", "s2xr", "h2xr", "sl2r")

# The identity components a tag may name: the rows of
# data/spherical_components.json for s3, and what
# fibered.s2r_quotient_identity_component returns for s2xr.  Kept here so
# that a verdict on a tag loads neither euclid nor fibered.
IDENTITY_COMPONENTS = {
    "s3": ("O(2)", "O(2)xO(2)", "O(4)", "S1", "S1 x_Z2 S1", "S1xS1",
           "SO(3)", "SO(4)", "trivial"),
    "s2xr": ("S1", "S1xS1", "SO3xS1"),
}


def _known_component(geometry: str, tag: str) -> str:
    if tag not in IDENTITY_COMPONENTS[geometry]:
        raise ValueError(f"unknown {geometry} identity component {tag!r}; "
                         "expected one of "
                         + ", ".join(map(repr, IDENTITY_COMPONENTS[geometry])))
    return tag


def quotient_isometry_summary(geometry: str, descriptor=None,
                              extra=None) -> IsoDescriptor:
    """Route a quotient description to the geometry that computes it.

    Each branch imports its geometry, so a verdict loads only that one."""
    if geometry == "nil":
        from . import nil
        return nil.nil_quotient_isometry(descriptor, extra=extra)
    if geometry == "sol":
        from . import sol
        return sol.sol_quotient_isometry(descriptor)
    if geometry == "h3":
        from . import hyperbolic
        fact = hyperbolic.hn_quotient_isometry_verdict(3)
        return IsoDescriptor(geometry="h3", identity_component="trivial",
                             finite_part={"structure": "finite group",
                                          "order": None,
                                          "order_formula":
                                              fact["order_formula"]})
    if geometry == "euclid":
        from . import euclid
        return euclid.euclid_quotient_isometry(descriptor)
    if geometry == "s3":
        tag = descriptor if isinstance(descriptor, str) \
            else descriptor.get("identity_component")
        if tag is None:
            raise ValueError("supply a lookup row or identity component tag")
        return IsoDescriptor(geometry="s3",
                             identity_component=_known_component("s3", tag),
                             finite_part={"structure":
                                          "closed subgroup of O(4)"})
    if geometry == "s2xr":
        if isinstance(descriptor, str):
            tag = _known_component("s2xr", descriptor)
        else:
            from . import fibered
            tag = fibered.s2r_quotient_identity_component(descriptor)
        return IsoDescriptor(geometry="s2xr", identity_component=tag,
                             finite_part={"structure":
                                          "closed subgroup of SO(3) x S1, "
                                          "up to finite index"})
    if geometry in ("h2xr", "sl2r"):
        from . import fibered
        return fibered.psl2_quotient_isometry(geometry)
    raise ValueError(f"unknown geometry tag {geometry!r}")
