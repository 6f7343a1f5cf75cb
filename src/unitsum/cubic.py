"""Exact arithmetic in the cyclic cubic orders Z[alpha] with
alpha^3 = (a-1) alpha^2 + (a+2) alpha + 1, one order per integer a.

All three roots of the defining polynomial are real and irrational; the
largest is taken as alpha.  alpha and its conjugate -1 - 1/alpha generate
enough units that three of their monomials sum to 3, and feeding that
identity to the generic rewrite engine turns any element into a unit sum
with every coefficient at most 2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from . import engine
from .engine import Interval, Representation, UnitGroupBasis, UnitRelation
from .errors import ParamsMismatch, RelationBroken, document_ints, exact_int


@dataclass(frozen=True)
class CubicParams:
    """The integer parameter selecting one order of the family; a value
    that is not an integer raises ValueError, as for coordinates."""

    a: int

    def __post_init__(self):
        object.__setattr__(self, "a", exact_int(self.a, "parameter"))


@dataclass(frozen=True, eq=False)
class CubicElement:
    """c0 + c1 alpha + c2 alpha^2, an element of the order Z[alpha].

    Coordinates are ints; any other value must convert to an int exactly
    (Fraction(4, 2) is stored as 2; Fraction(1, 2), 2.5, inf and nan raise
    ValueError).  Compares equal to plain numbers when c1 = c2 = 0.
    """

    params: CubicParams
    c0: int
    c1: int
    c2: int

    def __eq__(self, other):
        if isinstance(other, CubicElement):
            if other.params != self.params:
                return NotImplemented
            return self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return self.c1 == 0 and self.c2 == 0 and self.c0 == other
        return NotImplemented

    def __hash__(self):
        if self.c1 == 0 and self.c2 == 0:
            return hash(self.c0)
        return hash((self.params.a, self.coords))

    def __post_init__(self):
        for name in ("c0", "c1", "c2"):
            c = getattr(self, name)
            if type(c) is not int:
                object.__setattr__(self, name, exact_int(c, "coordinate"))

    def _coerce(self, other) -> "CubicElement":
        if isinstance(other, CubicElement):
            if other.params != self.params:
                raise ParamsMismatch(
                    f"cannot combine a = {self.params.a} with a = {other.params.a}"
                )
            return other
        if isinstance(other, int):
            return CubicElement(self.params, other, 0, 0)
        return NotImplemented

    @property
    def coords(self):
        return (self.c0, self.c1, self.c2)

    def __bool__(self) -> bool:
        return any(self.coords)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CubicElement(
            self.params, self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2
        )

    __radd__ = __add__

    def __neg__(self):
        return CubicElement(self.params, -self.c0, -self.c1, -self.c2)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CubicElement(
                self.params, self.c0 * other, self.c1 * other, self.c2 * other
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CubicElement(self.params, *_mul_coords(self.coords, other.coords, self.params.a))

    __rmul__ = __mul__

    def inverse(self) -> "CubicElement":
        """Inverse of a unit from its Galois conjugates.

        The norm N(u) = u sigma(u) sigma^2(u) is a rational integer, and
        u is a unit exactly when N(u) = +-1; then u^-1 = N(u) sigma(u)
        sigma^2(u).  Zero raises ZeroDivisionError, any other non-unit
        ValueError.
        """
        if not self:
            raise ZeroDivisionError("zero has no inverse")
        a = self.params.a
        s1 = _conjugate(self.coords, a)
        rest = _mul_coords(s1, _conjugate(s1, a), a)
        norm = _mul_coords(self.coords, rest, a)[0]
        if norm not in (1, -1):
            raise ValueError(f"{self!r} is not a unit: its norm is {norm}")
        return CubicElement(self.params, *(norm * c for c in rest))

    def __pow__(self, e: int) -> "CubicElement":
        if e < 0:
            return self.inverse() ** (-e)
        return CubicElement(self.params, *_pow_coords(self.coords, e, self.params.a))

    def __repr__(self):
        return f"CubicElement(a={self.params.a}, {self.c0}, {self.c1}, {self.c2})"


def _mul_coords(u, v, a: int):
    """Product of two coordinate triples in the order with parameter a."""
    c0, c1, c2 = u
    d0, d1, d2 = v
    e0 = c0 * d0
    e1 = c0 * d1 + c1 * d0
    e2 = c0 * d2 + c1 * d1 + c2 * d0
    e3 = c1 * d2 + c2 * d1
    e4 = c2 * d2
    k1 = a - 1
    k2 = a + 2
    # alpha^3 = k1 alpha^2 + k2 alpha + 1, alpha^4 follows by one more pass
    return (
        e0 + e3 + e4 * k1,
        e1 + e3 * k2 + e4 * (k1 * k2 + 1),
        e2 + e3 * k1 + e4 * (k1 * k1 + k2),
    )


def _pow_coords(g, e: int, a: int):
    """g^e for a coordinate triple g and e >= 0, by square-and-multiply."""
    result = (1, 0, 0)
    while e:
        if e & 1:
            result = _mul_coords(result, g, a)
        e >>= 1
        if e:
            g = _mul_coords(g, g, a)
    return result


def _conjugate(u, a: int):
    """sigma(u) = c0 + c1 alpha2 + c2 alpha2^2 for the Galois map sigma:
    alpha -> alpha2 = -1 - 1/alpha, whose coordinates are (a+1, a-1, -1)."""
    s1 = (a + 1, a - 1, -1)
    s2 = _mul_coords(s1, s1, a)
    return tuple(u[0] * e + u[1] * x + u[2] * y for e, x, y in zip((1, 0, 0), s1, s2))


def one(params: CubicParams) -> CubicElement:
    return CubicElement(params, 1, 0, 0)


def alpha(params: CubicParams) -> CubicElement:
    return CubicElement(params, 0, 1, 0)


def _alpha_inverse(params: CubicParams) -> CubicElement:
    # constant term -1 makes this exact: alpha * (alpha^2 - (a-1) alpha - (a+2)) = 1
    a = params.a
    return CubicElement(params, -(a + 2), -(a - 1), 1)


def alpha2(params: CubicParams) -> CubicElement:
    """The conjugate -1 - 1/alpha, with integer coordinates (a+1, a-1, -1)."""
    a = params.a
    return CubicElement(params, a + 1, a - 1, -1)


def _alpha2_inverse(params: CubicParams) -> CubicElement:
    # f(x) = (x+1)(x^2 - a x - 2) + 1 gives 1/(alpha+1) = -(alpha^2 - a alpha - 2),
    # so (-1 - 1/alpha)^-1 = -alpha/(alpha+1) = -alpha^2 + a alpha + 1
    return CubicElement(params, 1, params.a, -1)


# a cubic-units bench round fills 31,269 entries, criteria 7 and 8 together 41,939
@functools.lru_cache(maxsize=1 << 16)
def unit_monomial(i: int, j: int, params: CubicParams) -> CubicElement:
    """alpha^i * conjugate^j for any integer exponents; always integral.

    Powers are taken on integer coordinate triples; the inverses used for
    negative exponents have closed integer forms, so every product stays
    integral.  The last 2^16 monomials are cached.
    """
    a = params.a
    g1 = alpha(params) if i >= 0 else _alpha_inverse(params)
    g2 = alpha2(params) if j >= 0 else _alpha2_inverse(params)
    out = _mul_coords(_pow_coords(g1.coords, abs(i), a), _pow_coords(g2.coords, abs(j), a), a)
    return CubicElement(params, *out)


_THREE = UnitRelation(n=3, terms=((0, (1, 2)), (0, (-2, -1)), (0, (1, -1))))


def three_relation(params: CubicParams) -> UnitRelation:
    """The identity u1 + u2 + u3 = 3 over the unit monomials with
    exponents (1,2), (-2,-1), (1,-1); checked exactly on every call.

    The three units are alpha^2 + (2-a) alpha - a,
    -2 alpha^2 + (2a-1) alpha + (a+4) and alpha^2 - (a+1) alpha - 1;
    their coordinates cancel columnwise to (3, 0, 0) for every a.
    """
    a = params.a
    got = tuple(unit_monomial(i, j, params).coords for _, (i, j) in _THREE.terms)
    expected = ((-a, 2 - a, 1), (a + 4, 2 * a - 1, -2), (-1, -a - 1, 1))
    if got != expected or tuple(map(sum, zip(*got))) != (3, 0, 0):
        raise RelationBroken(f"three-unit identity failed for a = {a}")
    return _THREE


def _poly_at(a: int, x, s: int = 1):
    """s^3 f(x/s) for the defining polynomial f: the sign of f(x/s)."""
    return ((x - (a - 1) * s) * x - (a + 2) * s * s) * x - s * s * s


def _isolate(a: int) -> Tuple[Tuple[int, int], ...]:
    """Integer brackets of the three roots, ascending, for every a: with
    f the defining polynomial, f(-1) = 1 and f(0) = -1, and Cauchy's bound
    puts every root within 1 + max(|a - 1|, |a + 2|, 1) <= |a| + 3 of 0."""
    b = abs(a) + 3
    return ((-b, -1), (-1, 0), (0, b))


def _bisect(a: int, bracket: Tuple[int, int], bits: int) -> Interval:
    """Bisect an integer bracket to width exactly 2^-bits, on integers over
    2^bits.  The root is irrational, so this ends in the one grid cell that
    holds it, whatever the bracket; a wider one costs log2(width) halvings."""
    s = 1 << bits
    lo, hi = bracket[0] * s, bracket[1] * s
    neg_at_lo = _poly_at(a, lo, s) < 0
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if (_poly_at(a, mid, s) < 0) == neg_at_lo:
            lo = mid
        else:
            hi = mid
    return (Fraction(lo, s), Fraction(hi, s))


def real_roots(params: CubicParams, precision_bits: int = 64) -> Tuple[Interval, Interval, Interval]:
    """Three disjoint rational enclosures of the roots, ascending; the
    last one is alpha.  Each has width exactly 2^-precision_bits and is
    computed afresh, so equal calls give equal enclosures."""
    a = params.a
    return tuple(_bisect(a, bracket, precision_bits) for bracket in _isolate(a))


def cubic_basis(params: CubicParams) -> UnitGroupBasis:
    """Engine basis with units (alpha, conjugate) over this order.

    The conjugate's absolute value is derived from an alpha enclosure
    through |conjugate| = 1 + 1/alpha, so only alpha's bracket is ever
    bisected.  Bases built for equal parameters compare equal.
    """

    def alpha_iv(bits: int) -> Interval:
        bracket = _isolate(params.a)[-1]
        lo, hi = _bisect(params.a, bracket, bits)
        while lo <= 0:
            bits += 16
            lo, hi = _bisect(params.a, bracket, bits)
        return (lo, hi)

    def abs_conj(bits: int) -> Interval:
        lo, hi = alpha_iv(bits + 32)
        return (1 + 1 / hi, 1 + 1 / lo)

    return UnitGroupBasis(
        etas=(one(params),),
        epsilons=(alpha(params), alpha2(params)),
        abs_val=(alpha_iv, abs_conj),
    )


def cubic_evaluator(params: CubicParams):
    """Evaluation hook for engine.evaluate over a cubic basis."""

    def ev(k: int, ell: int, x) -> CubicElement:
        value = unit_monomial(x[0], x[1], params)
        return -value if k else value

    return ev


def represent_unit_sums(beta: CubicElement, policy: Optional[engine.ReductionPolicy] = None) -> Representation:
    """Unit-sum representation of beta with every coefficient at most 2.

    Coordinates seed the sign layers at exponents (0,0), (1,0), (2,0),
    which are themselves unit monomials, and the three-unit relation
    drives the rewrite.  Round-trip evaluation is exact.
    """
    params = beta.params
    # a zero coordinate seeds nothing: Representation drops zero coefficients
    seeds = {(0 if c > 0 else 1, 1, (t, 0)): abs(c) for t, c in enumerate(beta.coords)}
    rep = Representation(cubic_basis(params), seeds)
    return engine.reduce(rep, three_relation(params), policy)


def element_to_json(elem: CubicElement) -> dict:
    return {
        "a": str(elem.params.a),
        "coords": [str(c) for c in elem.coords],
    }


def element_from_json(data: dict) -> CubicElement:
    """Inverse of element_to_json; a field that is not a JSON integer or
    a decimal string raises ValueError."""
    (a,) = document_ints([data["a"]], "a")
    c0, c1, c2 = document_ints(data["coords"], "coordinate")
    return CubicElement(CubicParams(a), c0, c1, c2)
