"""Base-pair relations with right-hand side 2, and modular certificates
that no such relation exists.

A plain relation writes 2 = sign * (p^x - q^y).  An extended relation
allows negative exponents, 2 = p^a q^b + sign * p^c q^d, which covers
the plain shape plus the single-base-inverse shapes 2 = (q^b -+ 1) p^-a
and its p <-> q mirror.  An obstruction certificate is a modulus whose
power residues of p and q never differ by 2 or -2, ruling every plain
relation out at once.
"""

from __future__ import annotations

import functools
from contextlib import suppress
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import TYPE_CHECKING, Optional, Tuple

from .errors import exact_int

if TYPE_CHECKING:  # pragma: no cover
    from .double_base import BasePair

MAX_EXP = 64  # the converters' exponent bound and the finders' default
MAX_MODULUS = 1000  # find_obstruction's default modulus bound

# The finders walk their powers up to this exponent at most, and an
# obstruction orbit holds at most this many residues.  A walk is quadratic
# in its bound: one form over (97, 89) walks to 10^4 in about 0.09 s, and
# over bases near 10^12 in about 0.5 s (2-core x86, Python 3.11), where
# 10^6 would take hours.  A search that needs a larger max_exp raises
# ValueError instead; one that ends below it is exact.
MAX_WALK_EXP = 10_000


def _relation_cache(finder):
    """finder behind a cache of its last 256 results, frozen and safe to share (a sweep-small bench
    run asks about 55 base pairs); max_exp is read by exact_int before it is hashed, as 64 for 64.0."""
    cached = functools.lru_cache(maxsize=256)(finder)

    def find(base: "BasePair", max_exp: int = MAX_EXP):
        return cached(base, exact_int(max_exp, "max_exp", 1))

    find.cache_info, find.cache_clear = cached.cache_info, cached.cache_clear
    return functools.update_wrapper(find, finder)


class _Relation:
    """The body of both relation classes: each init field an integer (see
    errors.exact_int) named by the field, at least its metadata's least
    when it has one, and sign -1 or 1."""

    def __post_init__(self):
        for f in fields(self):
            if f.init:
                object.__setattr__(self, f.name, exact_int(getattr(self, f.name), f.name, f.metadata.get("least")))
        if self.sign not in (-1, 1):
            raise ValueError("sign must be -1 or 1")


@dataclass(frozen=True)
class PlainRelation(_Relation):
    """2 = sign * (p^x - q^y) with nonnegative integer exponents."""

    kind = "plain"
    x: int = field(metadata={"least": 0})
    y: int = field(metadata={"least": 0})
    sign: int

    @property
    def terms(self) -> Tuple[Tuple[int, int, int], ...]:
        """The two terms (i, j, s) of 2 = sum s p^i q^j, positive term first."""
        return ((self.x, 0, 1), (0, self.y, -1)) if self.sign == 1 else ((0, self.y, 1), (self.x, 0, -1))

    def as_extended(self) -> "ExtendedRelation":
        """The same relation as 2 = p^a q^b - p^c q^d, positive term first."""
        (a, b, _), (c, d, sign) = self.terms
        return ExtendedRelation(a, b, c, d, sign)


@dataclass(frozen=True)
class ExtendedRelation(_Relation):
    """2 = p^a q^b + sign * p^c q^d with the positive term written first.

    form, read off the exponents, tags where the inverse powers sit:
    'plain' (none), 'p_inverse' (a power of p), 'q_inverse' (a power of q).
    Coprime bases hold them on one base at most: with both, clearing the
    denominators gives 2 p^e q^f = s p^i q^j + t p^k q^l with e, f > 0 and
    min(i, k) = min(j, l) = 0, which p and q divide only if i = j = k = l = 0,
    where the right side is at most 2.
    """

    kind = "extended"
    a: int
    b: int
    c: int
    d: int
    sign: int
    form: str = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        form = "q_inverse" if min(self.b, self.d) < 0 else "p_inverse" if min(self.a, self.c) < 0 else "plain"
        object.__setattr__(self, "form", form)

    @property
    def terms(self) -> Tuple[Tuple[int, int, int], ...]:
        """The two terms (i, j, s) of 2 = sum s p^i q^j, positive term first."""
        return ((self.a, self.b, 1), (self.c, self.d, self.sign))

    @property
    def exponent_sum(self) -> int:
        return abs(self.a) + abs(self.b) + abs(self.c) + abs(self.d)


@dataclass(frozen=True)
class ObstructionCertificate:
    """Modulus m with the full multiplicative orbits of p and q mod m
    (exponents >= 1) whose pairwise differences avoid 2 and -2 mod m.
    The orbits are read off (p, q, m), sorted, so they cannot disagree
    with the modulus.

    For bases other than 3 this proves 2 = |p^x - q^y| has no solutions
    with x, y >= 0: exponents >= 1 are blocked mod m, and a zero exponent
    would force the other base to be exactly 3.
    """

    p: int
    q: int
    modulus: int
    p_orbit: Tuple[int, ...] = field(init=False)
    q_orbit: Tuple[int, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "p_orbit", tuple(sorted(_orbit(self.p, self.modulus))))
        object.__setattr__(self, "q_orbit", tuple(sorted(_orbit(self.q, self.modulus))))

    def to_json(self) -> dict:
        from .documents import certificate_to_json  # documents imports this module
        return certificate_to_json(self)


def verify_relation(base: "BasePair", rel) -> bool:
    """Exact check that rel's two terms give 2 = sum s p^i q^j for this base
    pair, in integers: both sides times the p^e q^f that clears the negative
    exponents.  False for what is not a relation."""
    if not isinstance(rel, _Relation):
        return False
    p, q = base.p, base.q
    (a, b, s), (c, d, t) = rel.terms
    e, f = max(0, -a, -c), max(0, -b, -d)
    return s * p ** (a + e) * q ** (b + f) + t * p ** (c + e) * q ** (d + f) == 2 * p ** e * q ** f


def _first_partner(w: int, v: int, scale: int, gap: int, max_exp: int) -> Optional[Tuple[int, int, int]]:
    """First (k, e, d), in ascending k, with v^e = scale * w^k + d,
    d = +-gap and 1 <= k, e <= max_exp, or None.

    v^e walks up alongside w^k, so two powers are held and no table.  For
    coprime w, v >= 2, the least v^e >= scale * w^k - gap is the only
    power that can hit (another needs v^e (v^j - 1) < 2 gap, which only
    v^e = 2 = w^k meets), and the first hit is the least solution of its
    form:
    - plain (scale 1, gap 2, w = q, v = p): two partners of one y differ
      by 4, and p^x1 (p^(x2 - x1) - 1) = 4 forces q^y = 6.  For y1 < y2,
      p^x2 >= 2 q^y1 - 2 > q^y1 + 2 >= p^x1 once q^y1 > 4; below that,
      only q^y1 = 3, p^x1 = 5 is coprime.  So x + y grows with y.
    - inverse (scale 2, gap 1, w = u): two partners differ by 2, forcing
      2 u^a = 3.  For a1 < a2, v^b2 >= 4 u^a1 - 1 > 2 u^a1 + 1 >= v^b1.
      So 2a + b grows with a.
    No two solutions of one form tie, so the finders need no tie-break.
    """
    target, e, ve = scale, 1, v
    for k in range(1, max_exp + 1):
        target *= w
        while ve < target - gap:
            if e == max_exp:
                return None
            e, ve = e + 1, ve * v
        if abs(ve - target) == gap:
            return k, e, ve - target
    return None


@_relation_cache
def find_plain_relation(base: "BasePair", max_exp: int = MAX_EXP) -> Optional[PlainRelation]:
    """Smallest plain relation, minimizing x + y (no two tie).

    Exponents range over [1, max_exp]; zero exponents are excluded so the
    relation always mixes both bases.  Returns None when the box is empty
    of solutions.  The powers of q and p walk up together to the first
    solution, the least (_first_partner), in O(max_exp) products.  The
    walk stops at MAX_WALK_EXP: a max_exp past it raises ValueError when
    no solution lies within it.  Results are cached per (base, max_exp),
    256 entries at most.
    """
    # p^x = q^y + 2 sign
    hit = _first_partner(base.q, base.p, 1, 2, min(max_exp, MAX_WALK_EXP))
    if hit is None and max_exp > MAX_WALK_EXP:
        raise _past_walk_bound(max_exp)
    return None if hit is None else PlainRelation(hit[1], hit[0], hit[2] // 2)


@_relation_cache
def find_extended_relation(base: "BasePair", max_exp: int = MAX_EXP) -> Optional[ExtendedRelation]:
    """Best relation allowing negative exponents.

    Candidates are ranked by total absolute exponent sum, then by form
    (plain before p_inverse before q_inverse).  Each form offers its first
    solution, which is its least (_first_partner): the inverse forms solve
    v^b = 2 u^a - s for s in {1, -1} by the same walk as the plain search.
    Results are cached per (base, max_exp), 256 entries at most.

    The forms are searched up to bound = min(max_exp, MAX_EXP) first, and
    again up to min(max_exp, MAX_WALK_EXP) only if that finds nothing
    with exponent sum at most bound; if the second search fails the same
    way below max_exp, ValueError is raised.  This is exact, because
    within one form the exponent sum grows with k (_first_partner): a
    form with no solution inside a bound has its least solution at k or
    e above it, so its sum exceeds the bound and loses to a best at or
    below it (no tie).  And a best at or below the bound is its form's
    least solution overall, since one at a smaller k with its partner
    past the bound would have a sum both below the best's and above the
    bound.
    """
    for bound in (MAX_EXP, MAX_WALK_EXP):
        bound = min(max_exp, bound)
        best = _best_extended(base, bound)
        if bound == max_exp or (best is not None and best.exponent_sum <= bound):
            return best
    raise _past_walk_bound(max_exp)


def _past_walk_bound(max_exp: int) -> ValueError:
    return ValueError(
        f"max_exp {max_exp} is past the search bound of {MAX_WALK_EXP}, "
        "which the walk reached without an answer"
    )


def _best_extended(base: "BasePair", max_exp: int) -> Optional[ExtendedRelation]:
    """Least candidate of the three forms with exponents up to max_exp, by
    exponent sum; min keeps the first of equal sums, so the order the
    candidates are built in, plain, p_inverse, q_inverse, breaks ties."""
    p, q = base.p, base.q
    plain = find_plain_relation(base, max_exp)
    candidates = [] if plain is None else [plain.as_extended()]
    # 2 = s * u^-a + u^-a v^b with s = -d, positive term first
    if hit := _first_partner(p, q, 2, 1, max_exp):
        a, b, d = hit
        candidates.append(ExtendedRelation(-a, b, -a, 0, -d))
    if hit := _first_partner(q, p, 2, 1, max_exp):
        a, b, d = hit
        candidates.append(ExtendedRelation(b, -a, 0, -a, -d))
    return min(candidates, key=lambda r: r.exponent_sum, default=None)


def _orbit(g: int, m: int) -> set:
    """The set {g^x mod m : x >= 1}; ValueError past MAX_WALK_EXP residues."""
    seen, r = set(), g % m
    while r not in seen:
        if len(seen) == MAX_WALK_EXP:
            raise ValueError(f"an orbit modulo {m} is past the walk bound of {MAX_WALK_EXP} residues")
        seen.add(r)
        r = r * g % m
    return seen


def certificate_at(base: "BasePair", m: int) -> Optional[ObstructionCertificate]:
    """Certificate at a specific modulus, or None if m does not work; an
    orbit past the walk bound raises ValueError.

    Base pairs containing 3 never certify: 2 = |3^1 - q^0| is a genuine
    solution, so no modulus can rule everything out.  One pass over p's
    orbit tests the rest, as u - v = +-2 mod m exactly when v = u -+ 2.
    """
    m = exact_int(m, "modulus", 2)
    p, q = base.p, base.q
    if p == 3 or q == 3:
        return None
    p_orbit, q_orbit = _orbit(p, m), _orbit(q, m)
    if any((u - 2) % m in q_orbit or (u + 2) % m in q_orbit for u in p_orbit):
        return None
    return ObstructionCertificate(p, q, m)


def find_obstruction(base: "BasePair", max_modulus: int = MAX_MODULUS) -> Optional[ObstructionCertificate]:
    """First certificate with modulus at most max_modulus, scanning p and
    q first when they are in bounds, then 2, 3, ... upwards.

    The bases themselves come first: reducing mod p collapses the whole
    p-orbit to 0, which is the tidiest certificate when it works and the
    one matching hand calculations.  A pair with a plain relation returns
    None without a scan: the relation holds modulo every m.  The moduli
    are generated one at a time, so a huge max_modulus costs nothing
    until the scan reaches it, and a huge base is never tried beyond it.
    A modulus whose orbits pass the walk bound is skipped.
    """
    max_modulus = exact_int(max_modulus, "max_modulus")
    p, q = base.p, base.q
    if p == 3 or q == 3 or find_plain_relation(base) is not None:
        return None
    first = [m for m in (p, q) if m <= max_modulus]
    rest = (m for m in range(2, max_modulus + 1) if m != p and m != q)
    for m in chain(first, rest):
        with suppress(ValueError):  # the only one an int m >= 2 raises: an orbit past the walk bound
            if cert := certificate_at(base, m):
                return cert
    return None
