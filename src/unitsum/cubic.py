"""Exact arithmetic in the cyclic cubic orders Z[alpha] with
alpha^3 = (a-1) alpha^2 + (a+2) alpha + 1, one order per integer a.

All three roots of the defining polynomial are real and irrational; the
largest is taken as alpha.  alpha and its conjugate -1 - 1/alpha generate
enough units that three of their monomials sum to 3, and feeding that
identity to the generic rewrite engine turns any element into a unit sum
with every coefficient at most 2.
"""

from __future__ import annotations

import bisect
import functools
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from . import engine
from .engine import Interval, Representation, UnitGroupBasis, UnitRelation
from .errors import (
    ParamsMismatch,
    RelationBroken,
    VerificationFailed,
    exact_int,
)


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
            object.__setattr__(self, name, exact_int(getattr(self, name), "coordinate"))

    def _coerce(self, other) -> "CubicElement":
        if isinstance(other, CubicElement):
            if other.params is not self.params and other.params != self.params:
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
        return _element(self.params, self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.params, -self.c0, -self.c1, -self.c2)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return _element(self.params, self.c0 * other, self.c1 * other, self.c2 * other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _element(self.params, *_mul_coords(self.coords, other.coords, _order(self.params.a).rows))

    __rmul__ = __mul__

    def inverse(self) -> "CubicElement":
        """Inverse of a unit (see _unit_inverse).  Zero raises
        ZeroDivisionError, any other non-unit ValueError."""
        if not self:
            raise ZeroDivisionError("zero has no inverse")
        return _element(self.params, *_unit_inverse(self.coords, self.params.a))

    def __pow__(self, e: int) -> "CubicElement":
        e = exact_int(e, "exponent")
        if e < 0:
            return self.inverse() ** (-e)
        return CubicElement(self.params, *_pow_coords(self.coords, e, self.params.a))

    def __repr__(self):
        return f"CubicElement(a={self.params.a}, {self.c0}, {self.c1}, {self.c2})"


_new = object.__new__
_set = object.__setattr__


def _element(params: CubicParams, c0: int, c1: int, c2: int) -> CubicElement:
    """CubicElement from coordinates that are ints already, without the
    checks of __post_init__.  The fields are set one by one, in the order
    __init__ sets them, so instances keep sharing their dict keys."""
    elem = _new(CubicElement)
    _set(elem, "params", params)
    _set(elem, "c0", c0)
    _set(elem, "c1", c1)
    _set(elem, "c2", c2)
    return elem


class _Order(NamedTuple):
    rows: tuple  # alpha^3 and alpha^4 as triples, which a product reduces by
    images: tuple  # sigma(alpha) and sigma(alpha^2)


@functools.lru_cache(maxsize=1 << 8)  # like cubic_basis, a function of a alone
def _order(a) -> _Order:
    """The record for a, from f's coefficients and sigma(alpha), each written once."""
    f0, f1, f2 = cube = (1, a + 2, a - 1)  # alpha^3 = f2 alpha^2 + f1 alpha + f0
    rows = (cube, (f2 * f0, f0 + f2 * f1, f1 + f2 * f2))  # alpha^4 = alpha alpha^3
    s1 = (a + 1, a - 1, -1)  # sigma(alpha) = -1 - 1/alpha
    return _Order(rows, (s1, _mul_coords(s1, s1, rows)))


def _mul_coords(u, v, rows):
    """Product of two coordinate triples, reduced by an order's rows."""
    c0, c1, c2 = u
    d0, d1, d2 = v
    (t0, t1, t2), (q0, q1, q2) = rows
    e3 = c1 * d2 + c2 * d1
    e4 = c2 * d2
    return (
        c0 * d0 + e3 * t0 + e4 * q0,
        c0 * d1 + c1 * d0 + e3 * t1 + e4 * q1,
        c0 * d2 + c1 * d1 + c2 * d0 + e3 * t2 + e4 * q2,
    )


def _pow_coords(g, e: int, a: int):
    """g^e for a coordinate triple g and e >= 0, by square-and-multiply."""
    rows = _order(a).rows
    result = (1, 0, 0)
    while e:
        if e & 1:
            result = _mul_coords(result, g, rows)
        e >>= 1
        if e:
            g = _mul_coords(g, g, rows)
    return result


def _conjugate(u, order: _Order):
    """sigma(u) = c0 + c1 sigma(alpha) + c2 sigma(alpha^2), from the order's images."""
    s1, s2 = order.images
    return tuple(u[0] * e + u[1] * x + u[2] * y for e, x, y in zip((1, 0, 0), s1, s2))


def _unit_inverse(u, a: int):
    """Coordinates of u^-1 for a unit u, from its Galois conjugates: the
    norm N(u) = u sigma(u) sigma^2(u) is a rational integer, u is a unit
    exactly when N(u) = +-1, and then u^-1 = N(u) sigma(u) sigma^2(u).
    A nonzero u of any other norm raises ValueError."""
    order = _order(a)
    s1 = _conjugate(u, order)
    rest = _mul_coords(s1, _conjugate(s1, order), order.rows)
    norm = _mul_coords(u, rest, order.rows)[0]
    if norm not in (1, -1):
        raise ValueError(f"{u} is not a unit for a = {a}: its norm is {norm}")
    return tuple(norm * c for c in rest)


def one(params: CubicParams) -> CubicElement:
    return CubicElement(params, 1, 0, 0)


def alpha(params: CubicParams) -> CubicElement:
    return CubicElement(params, 0, 1, 0)


def alpha2(params: CubicParams) -> CubicElement:
    """The conjugate -1 - 1/alpha, with integer coordinates (a+1, a-1, -1)."""
    return CubicElement(params, *_order(params.a).images[0])


# one cubic-units bench round fills about 1,600 entries
@functools.lru_cache(maxsize=1 << 12)
def _generator_power(conjugate: bool, e: int, a: int):
    """Coordinates of alpha^e, or of the conjugate's e-th power, for any
    integer e: square-and-multiply on the generator, or on its inverse
    when e < 0, so a cold exponent costs O(log |e|) products.  The last
    2^12 powers are cached, of exponents |e| <= 2^8 only (see _power).
    """
    e = exact_int(e, "exponent")
    g = _order(a).images[0] if conjugate else (0, 1, 0)
    if e < 0:
        g = _unit_inverse(g, a)
    return _pow_coords(g, abs(e), a)


# piles reach exponents of about 95 (90 in S(10^4), plus the coordinate
# shift).  A power's coordinates hold about |e| log2(|a| + 3) bits each,
# so at a = 1000 a cached entry holds at most about 1 KB, where one of
# e = 10^5 held about 400 KB
_CACHED_EXPONENT = 1 << 8


def _power(conjugate: bool, e: int, a: int):
    """_generator_power(conjugate, e, a), through its cache for an int
    |e| <= 2^8 and computed afresh for any other e."""
    if type(e) is int and -_CACHED_EXPONENT <= e <= _CACHED_EXPONENT:
        return _generator_power(conjugate, e, a)
    return _generator_power.__wrapped__(conjugate, e, a)


def unit_monomial(i: int, j: int, params: CubicParams) -> CubicElement:
    """alpha^i * conjugate^j for any integer exponents; always integral.

    The generators are units, so their inverses are integral too and
    every product stays integral.  The element is one product of two
    generator powers (see _power) and carries the caller's params.
    """
    a = params.a
    return _element(params, *_mul_coords(_power(False, i, a), _power(True, j, a), _order(a).rows))


_THREE = UnitRelation(n=3, terms=((0, (1, 2)), (0, (-2, -1)), (0, (1, -1))))
THREE_RELATION_DEGREE = 52  # D, derived in three_relation


def three_relation(params: CubicParams) -> UnitRelation:
    """The identity u1 + u2 + u3 = 3 over the unit monomials with
    exponents (1,2), (-2,-1), (1,-1); checked exactly on every call.

    The units' coordinates, expected below, cancel columnwise to
    (3, 0, 0) for every a.  Those computed have degree at most D in a, so
    D + 1 values of a prove the identity for every a.  No branch reads a
    (_unit_inverse tests the generators' norm, 1).  In the degrees d of
    triples, _order's rows have 1 and 2, sigma(alpha) 1 and sigma(alpha^2)
    4, so a product has d(u) + d(v) + 2, _conjugate d + 4, an inverse
    2 d + 14, a first power d + 2, a square 2 d + 4: alpha^1, alpha^-2,
    alpha2^2 and alpha2^-1 have 2, 32, 6 and 18, the monomials 10, 52
    and 22.  Run over Z[a], none passes 2."""
    a = params.a
    got = tuple(unit_monomial(i, j, params).coords for _, (i, j) in _THREE.terms)
    expected = ((-a, 2 - a, 1), (a + 4, 2 * a - 1, -2), (-1, -a - 1, 1))
    if got != expected:
        raise RelationBroken(f"three-unit identity failed for a = {a}")
    return _THREE


def _poly_at(g, x):
    """x^3 - g2 x^2 - g1 x - g0 for g = (g0, g1, g2); see _root_cell."""
    return ((x - g[2]) * x - g[1]) * x - g[0]


def _isolate(a: int) -> Tuple[Tuple[int, int], ...]:
    """Integer brackets of the three roots, ascending, for every a: with
    f the defining polynomial, f(-1) = 1 and f(0) = -1, and Cauchy's bound
    puts every root within 1 + max(|a - 1|, |a + 2|, 1) <= |a| + 3 of 0."""
    b = abs(a) + 3
    return ((-b, -1), (-1, 0), (0, b))


def _root_cell(a: int, bracket: Tuple[int, int], bits: int) -> Interval:
    """Narrow an integer bracket to width exactly 2^-bits, on integers over
    2^bits.  The root is irrational, so this ends in the one grid cell that
    holds it, whatever the bracket.

    Safeguarded integer Newton: each point is the Newton point from the
    end evaluated last, clamped strictly inside the bracket it keeps, or
    the midpoint where that tangent points out of the bracket; the first
    is the shorter of the ends' inward steps.  Near the root each step
    about doubles the correct bits, so a cell costs O(log bits) steps
    after at most about log2(width) halvings."""
    s = 1 << bits
    lo, hi = bracket[0] * s, bracket[1] * s
    f0, f1, f2 = _order(a).rows[0]
    g = (f0 * s * s * s, f1 * s * s, f2 * s)  # g(x) = s^3 f(x/s), by _poly_at

    def newton(x, fx):
        # x - s f(x/s) / f'(x/s), rounded away from the end x; None where
        # it leaves [lo, hi]
        d = (3 * x - 2 * g[2]) * x - g[1]
        if d:
            n = x - fx // d if x == hi else x + -fx // d
            if lo <= n <= hi:
                return n
        return None

    f_lo, f_hi = _poly_at(g, lo), _poly_at(g, hi)
    neg_at_lo = f_lo < 0
    n_lo, n_hi = newton(lo, f_lo), newton(hi, f_hi)
    nx = n_hi if n_lo is None or (n_hi is not None and hi - n_hi < n_lo - lo) else n_lo
    while hi - lo > 1:
        x = (lo + hi) >> 1 if nx is None else min(max(nx, lo + 1), hi - 1)
        fx = _poly_at(g, x)
        if (fx < 0) == neg_at_lo:
            lo = x
        else:
            hi = x
        nx = newton(x, fx)
    return (Fraction(lo, s), Fraction(hi, s))


def real_roots(params: CubicParams, precision_bits: int = 64) -> Tuple[Interval, Interval, Interval]:
    """Three disjoint rational enclosures of the roots, ascending; the
    last one is alpha.  Each has width exactly 2^-precision_bits and is
    computed afresh, so equal calls give equal enclosures."""
    precision_bits = exact_int(precision_bits, "precision_bits", 0)
    a = params.a
    return tuple(_root_cell(a, bracket, precision_bits) for bracket in _isolate(a))


# a basis is a function of a alone; the last 2^8 are kept, so a call
# whose piles are all cached does not rebuild it
@functools.lru_cache(maxsize=1 << 8)
def cubic_basis(params: CubicParams) -> UnitGroupBasis:
    """Engine basis with units (alpha, conjugate) over this order.

    The conjugate's absolute value is derived from an alpha enclosure
    through |conjugate| = 1 + 1/alpha, so only alpha's bracket is ever
    narrowed.  Equal parameters give the same, frozen basis.
    """

    def alpha_iv(bits: int) -> Interval:
        bracket = _isolate(params.a)[-1]
        lo, hi = _root_cell(params.a, bracket, bits)
        while lo <= 0:
            bits += 16
            lo, hi = _root_cell(params.a, bracket, bits)
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
    """Evaluation hook for engine.evaluate over a cubic basis.

    Terms are grouped by the conjugate's exponent j: each row sums
    +-a alpha^i on coordinate triples and is multiplied once by the
    conjugate's j-th power, so a representation costs one product per
    row and one element in all.  Each distinct power is read once per
    call (see _power).
    """
    order = _order(params.a)

    def ev(items) -> CubicElement:
        rows = {}
        powers = {}
        for (k, _, (i, j)), c in items:
            if k:
                c = -c
            u = powers.get(i)
            if u is None:
                u = powers[i] = _power(False, i, params.a)
            u0, u1, u2 = u
            row = rows.get(j)
            if row is None:
                rows[j] = [c * u0, c * u1, c * u2]
            else:
                row[0] += c * u0
                row[1] += c * u1
                row[2] += c * u2
        t0 = t1 = t2 = 0
        for j, row in rows.items():
            s0, s1, s2 = _mul_coords(row, _power(True, j, params.a), order.rows)
            t0 += s0
            t1 += s1
            t2 += s2
        return _element(params, t0, t1, t2)

    return ev


class _PileCache:
    """The stable piles S(n) of represent_unit_sums, keyed by the
    magnitude n alone, with at most max_sites stored sites; the least
    recently used pile goes first.  S(n) keeps the weight n (the relation
    has I = n) and a count of at most 2 stands for at most 6 sites, so it
    stores at least ceil(n / 12) representatives: 2^18 sites hold at most
    2,502 piles, as ceil(1 / 12) + ... + ceil(2503 / 12) > 2^18.

    A pile is (steps, pile): its orbit representatives (see
    _fold) as the map {(0, 1, (i, j)): c} that
    engine._stabilize returned, with the seed at (0, 0); nothing changes
    a pile once it is stored.  By tracemalloc, a site costs about 42
    bytes in a pile continued from the one below it, whose unchanged keys
    it shares, and about 160 to 180 in a cold pile: at most about 11 or
    48 MB in all.  A lock keeps the sorted magnitudes and the dict in step.
    """

    def __init__(self, max_sites: int):
        self.max_sites = max_sites
        self._lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        with self._lock:
            self.piles = {}  # n -> (steps, pile), least recently used first
            self.sizes = []  # the same magnitudes, ascending
            self.sites = 0

    def floor(self, n: int):
        """(m, steps, pile) for the largest cached m <= n, or the empty
        pile (0, 0, {})."""
        with self._lock:
            k = bisect.bisect_right(self.sizes, n)
            if not k:
                return 0, 0, {}
            m = self.sizes[k - 1]
            steps, pile = self.piles[m] = self.piles.pop(m)
            return m, steps, pile

    def store(self, n: int, steps: int, pile: dict) -> None:
        with self._lock:
            # a pile larger than the site bound on its own is not kept
            if n in self.piles or len(pile) > self.max_sites:
                return
            self.piles[n] = (steps, pile)
            bisect.insort(self.sizes, n)
            self.sites += len(pile)
            while self.sites > self.max_sites:
                old = next(iter(self.piles))
                self.sites -= len(self.piles.pop(old)[1])
                del self.sizes[bisect.bisect_left(self.sizes, old)]


# a cubic-units bench round stores about 7,400 orbit representatives
# (about 0.48 MB), and the 500 elements of acceptance criterion 7 about
# 47,000; see _PileCache for what a site costs
_PILES = _PileCache(max_sites=1 << 18)


def _fold(x):
    """(y, s): the one point y of x's orbit under the group generated by
    sigma(i, j) = (-j, i - j) and tau(i, j) = (-j, -i) that lies in F,
    and the orbit's size s, for engine._stabilize.  F is (0, 0), the
    only point sigma fixes, and i >= 1, j >= 1, i <= 2 j, j <= 2 i.
    sigma first brings x to i >= 1 and j >= 0, where tau sigma^2 sends
    i > 2 j to (i, i - j) and tau sigma sends j > 2 i to (j - i, j).
    An orbit holds 6 points, 3 when it meets the mirror rays i = 2 j and
    j = 2 i, the edges of F, and the origin is its own."""
    i, j = x
    for _ in range(3):
        if i >= 1 and j >= 0:
            break
        i, j = -j, i - j
    else:
        return (0, 0), 1
    if i > 2 * j:
        j = i - j
    elif j > 2 * i:
        i = j - i
    return (i, j), 3 if i == 2 * j or j == 2 * i else 6


def _place(out: dict, pile: dict, t: int, k: int) -> None:
    """Add a pile, moved from (0, 0) to (t, 0), to out on sign layer k:
    each stored (i, j) stands for its orbit, the sigma-orbit (i, j),
    (-j, i - j), (j - i, -i) and its image under tau, (-j, -i),
    (j - i, j), (i, i - j).  On a mirror ray and at the origin the two
    are one, so the second line rewrites keys already in out, with the
    same count and in the order they hold."""
    for (_, _, (i, j)), c in pile.items():
        out[(k, 1, (i + t, j))] = out[(k, 1, (t - j, i - j))] = out[(k, 1, (j - i + t, -i))] = c
        out[(k, 1, (t - j, -i))] = out[(k, 1, (j - i + t, j))] = out[(k, 1, (i + t, i - j))] = c


def represent_unit_sums(beta: CubicElement, policy: Optional[engine.ReductionPolicy] = None) -> Representation:
    """Unit-sum representation of beta with every coefficient at most 2.

    Coordinates seed the sign layers at exponents (0,0), (1,0), (2,0),
    which are themselves unit monomials, and the three-unit relation
    drives the rewrite.  Round-trip evaluation is exact.  The relation
    is checked on every call; policy.max_steps caps the total step
    count as in engine.reduce, with the same error and message.

    Why the coordinates are reduced apart, once per magnitude, and on
    a twelfth of the plane:

    - *Cosets.*  The relation's offsets (1,2), (-2,-1), (1,-1) all have
      i + j = 0 (mod 3) and sit on sign layer 0, so a firing never moves
      chips off the coset i + j (mod 3) or off their sign layer.
      Coordinate t's chips start at (t, 0) and stay on the coset
      i + j = t: the three coordinates never meet.  The output is the
      disjoint union of three single-coordinate piles S(|c_t|), each
      moved by (t, 0) onto the sign layer of c_t, and the steps are the
      sum of the piles' steps.  None of it depends on a.
    - *Continuation.*  Every firing that stabilizes m chips at (0, 0)
      stays legal with n >= m chips there, so by the abelian property
      of chip-firing (Dhar 1990; Bjorner, Lovasz and Shor 1991),
      S(n) = stab(S(m) + (n - m) chips at (0, 0)), and the steps add.
      So a pile's steps only grow with n.
    - *Symmetry.*  sigma(i, j) = (-j, i - j), the Galois action on
      exponents, has order 3 and permutes the offsets: (1,2) -> (-2,-1)
      -> (1,-1) -> (1,2).  tau(i, j) = (-j, -i) swaps (1,2) and
      (-2,-1) and fixes (1,-1), and tau sigma tau = sigma^2, so the two
      generate a dihedral group of order 6 that permutes the offsets
      and fixes the seed (0, 0).  Stabilization is unique, so every
      S(n) is invariant under it, and a pile is kept and reduced as one
      count per orbit, on the orbit's point in F (see _fold and
      engine._stabilize).  An orbit holds 6 points, 3 on the
      mirror rays i = 2 j and j = 2 i, and the origin is its own; a
      firing of t at a representative counts t times its orbit's size.
    - *Invariant.*  A step at x moves three chips from x to x + r over
      the offsets r, whose sum is 0 and whose squared lengths sum to
      12, so it adds exactly 12 to sum c (i^2 + j^2).  Summed over an
      orbit of 3, i^2 + j^2 gives 4 (i^2 - i j + j^2), and over one of
      6 twice that, so a pile's steps are the sum of
      c (i^2 - i j + j^2) / 3 over its representatives, each weighted
      by its orbit's size over 3: 2, or 1 on a mirror ray.

    So each call first reads the steps of the cached S(m) with the
    largest m <= |c_t| for each coordinate (see _PileCache); a total
    above the cap raises at once.  It takes the coordinates in ascending
    magnitude, each from the cached pile read again at its turn, at least
    the one the coordinate before just stored: the cache is the only
    carry, and a repeated magnitude is reduced once.  After a refused
    store or an eviction, a smaller start reaches the same S(n) in the
    same steps (*Continuation*), so the total never passes the final one
    and the cap raises exactly when that does.  Each coordinate adds the
    missing chips at (0, 0), runs the kernel on the orbits with the steps
    the cap leaves, reads the new pile's steps from the invariant, which
    must add up to the kernel's count, stores the pile and places it.
    With policy.on_step set, the cache is neither read nor written, so
    every firing is reported.
    """
    params = beta.params
    rel = three_relation(params)
    basis = cubic_basis(params)
    policy = policy or engine.ReductionPolicy()
    coords = sorted((abs(c), t, 0 if c > 0 else 1) for t, c in enumerate(beta.coords) if c)
    if policy.on_step is not None:
        seeds = {(k, 1, (t, 0)): n for n, t, k in coords}
        return engine.reduce(Representation(basis, seeds), rel, policy)
    cap = max(policy.max_steps, 0)
    counts = [_PILES.floor(n)[1] for n, _, _ in coords]  # each start's steps
    total = sum(counts)
    out = {}
    for (n, t, k), counted in zip(coords, counts):
        m, steps, pile = _PILES.floor(n)
        total += steps - counted
        if total > cap:
            raise engine._cap_exceeded(policy.max_steps)
        if m < n:
            start = {**pile, (0, 1, (0, 0)): pile.get((0, 1, (0, 0)), 0) + n - m}
            pile, more = engine._stabilize(start, basis, rel, cap - total, None, _fold)
            if pile is None:
                raise engine._cap_exceeded(policy.max_steps)
            # Q(i, j) times the orbit's size over 3; Q(0, 0) = 0
            squares = sum(
                c * (i * i - i * j + j * j) * (1 if i == 2 * j or j == 2 * i else 2) for (_, _, (i, j)), c in pile.items()
            )
            if squares != 3 * (steps + more):
                raise VerificationFailed(f"S({n}) of {beta!r} holds {squares} / 3 steps, not {steps} + {more}")
            total += more
            _PILES.store(n, steps + more, pile)
        _place(out, pile, t, k)
    return engine._representation(basis, out, total)

