"""Signed and extended signed double-base digit expansions.

An expansion writes an integer (or a p-power-times-q-power denominator
rational) as sum d * p^i * q^j with digits d in {-1, 1} over distinct
exponent pairs.  Conversion works by seeding the p-adic digits of the
value on a grid and repeatedly trading two copies of p^i q^j for the two
terms of a base-pair relation.  That is the unit-sum rewrite with n = 2,
but signed and in a fixed firing order, so it runs in its own loop
rather than in the generic engine.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from . import relations as _relations
from .engine import UnitGroupBasis, UnitRelation
from .errors import (
    InvalidExpansion,
    NoRelationFound,
    RelationInvalid,
    document_ints,
    document_rational,
    exact_int,
)
from .relations import MAX_EXP

Term = Tuple[int, int, int]


@dataclass(frozen=True)
class BasePair:
    """Two coprime distinct integer bases, both at least 2; a base that
    is not an integer raises ValueError."""

    p: int
    q: int

    def __post_init__(self):
        object.__setattr__(self, "p", exact_int(self.p, "base"))
        object.__setattr__(self, "q", exact_int(self.q, "base"))
        if self.p < 2 or self.q < 2:
            raise ValueError("bases must be at least 2")
        if self.p == self.q:
            raise ValueError("bases must be distinct")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError("bases must be coprime")


def _canonical_terms(terms, allow_negative_exponents: bool) -> Tuple[Term, ...]:
    seen = set()
    clean = []
    for d, i, j in terms:
        if not (type(d) is int and type(i) is int and type(j) is int):
            d, i, j = exact_int(d, "digit"), exact_int(i, "exponent"), exact_int(j, "exponent")
        if d not in (-1, 1):
            raise InvalidExpansion(f"digit {d} at ({i},{j}) is not -1 or 1")
        if not allow_negative_exponents and (i < 0 or j < 0):
            raise InvalidExpansion(f"negative exponent at ({i},{j})")
        if (i, j) in seen:
            raise InvalidExpansion(f"duplicate exponent pair ({i},{j})")
        seen.add((i, j))
        clean.append((d, i, j))
    clean.sort(key=lambda t: (t[1], t[2]), reverse=True)
    return tuple(clean)


@dataclass(frozen=True)
class SignedExpansion:
    """sum d * p^i * q^j with d in {-1,1}, i, j >= 0, distinct (i, j).

    Terms are kept in descending lexicographic (i, j) order.
    """

    base: BasePair
    terms: Tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "terms", _canonical_terms(self.terms, allow_negative_exponents=False)
        )


@dataclass(frozen=True)
class ExtendedExpansion:
    """Like SignedExpansion but exponents may be any integers."""

    base: BasePair
    terms: Tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "terms", _canonical_terms(self.terms, allow_negative_exponents=True)
        )


@dataclass(frozen=True)
class PQRational:
    """A rational num / (p^a_p * q^a_q) in lowest terms over the base pair."""

    base: BasePair
    num: int
    a_p: int
    a_q: int

    def __post_init__(self):
        num = exact_int(self.num, "numerator")
        ap, aq = exact_int(self.a_p, "exponent"), exact_int(self.a_q, "exponent")
        if ap < 0 or aq < 0:
            raise ValueError("denominator exponents must be nonnegative")
        p, q = self.base.p, self.base.q
        if num == 0:
            ap = aq = 0
        while ap and num % p == 0:
            num //= p
            ap -= 1
        while aq and num % q == 0:
            num //= q
            aq -= 1
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "a_p", ap)
        object.__setattr__(self, "a_q", aq)

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.base.p ** self.a_p * self.base.q ** self.a_q)


def pq_rational(x: Fraction, base: BasePair) -> PQRational:
    """Factor a fraction's denominator into base powers.

    Raises ValueError when the denominator has a factor foreign to both
    bases.
    """
    x = Fraction(x)
    den = x.denominator
    ap = aq = 0
    while den % base.p == 0:
        den //= base.p
        ap += 1
    while den % base.q == 0:
        den //= base.q
        aq += 1
    if den != 1:
        raise ValueError(f"denominator factor {den} is not a product of base powers")
    return PQRational(base, x.numerator, ap, aq)


def p_adic_digits(n: int, p: int) -> List[int]:
    """Base-p digits of n >= 0, least significant first; 0 gives []."""
    if n < 0:
        raise ValueError("digits are defined for nonnegative integers")
    if p < 2:
        raise ValueError("base must be at least 2")
    out = []
    while n:
        n, r = divmod(n, p)
        out.append(r)
    return out


def balanced_ternary(n: int) -> List[int]:
    """Digits in {-1,0,1} with n = sum digit * 3^index, least significant
    first.  Works for either sign; 0 gives []."""
    out = []
    while n:
        r = n % 3
        if r == 2:
            out.append(-1)
            n = (n + 1) // 3
        else:
            out.append(r)
            n //= 3
    return out


def _powers_up_to(b: int, lim: int) -> List[int]:
    """[1, b, b^2, ...] up to the last power at most lim (lim >= 1)."""
    out = [1]
    while out[-1] * b <= lim:
        out.append(out[-1] * b)
    return out


def greedy_seed(v: int, base: BasePair) -> List[Term]:
    """Seed terms by repeatedly subtracting the signed base power closest
    to the remainder.

    Candidate powers are limited to at most twice the remainder; ties
    prefer the smaller power, then smaller i, then smaller j.  Repeat
    picks accumulate, so coefficients may leave {-1,1}.  Terms come out
    in first-touch order with zero nets dropped.

    The sign of the remainder r always wins, since ||r| - m| < |r| + m.
    In row i the distance ||r| - p^i q^j| falls while p^i q^j <= |r| and
    rises after, so only the two q-powers that bracket |r| / p^i can win
    the row.  That bracket only moves down as i grows, so one staircase
    walk over the rows finds each term with O(I + J) products instead of
    scanning all I * J powers.  Coprime bases make the powers distinct,
    so a tie in distance always falls to the smaller power.
    """
    p, q = base.p, base.q
    ppow = _powers_up_to(p, 2 * abs(v))
    qpow = _powers_up_to(q, 2 * abs(v))
    order: List[Tuple[int, int]] = []
    acc = {}
    r = v
    while r:
        s = 1 if r > 0 else -1
        R = abs(r)
        lim = 2 * R
        best = None
        j = bisect_right(qpow, R) - 1
        for i, pi in enumerate(ppow):
            if pi > lim:
                break
            while j >= 0:
                m = pi * qpow[j]
                if m <= R:
                    break
                j -= 1
            # j is now the largest exponent with m = p^i q^j <= R, or -1
            if j >= 0:
                cand = (R - m, m, i, j)
                if best is None or cand < best:
                    best = cand
                m *= q
            else:
                m = pi
            if m <= lim:
                cand = (m - R, m, i, j + 1)
                if best is None or cand < best:
                    best = cand
        _, m, i, j = best
        r -= s * m
        if (i, j) not in acc:
            acc[(i, j)] = 0
            order.append((i, j))
        acc[(i, j)] += s
    return [(acc[ij], ij[0], ij[1]) for ij in order if acc[ij]]


def _claim_reduce(grid: dict, credits, on_step=None) -> int:
    """Drive every grid coefficient into {-1,0,1}.

    grid maps (i, j) to a signed net coefficient.  A site with |a| >= 2 is
    fired t = |a| // 2 times at once: 2t copies move through the credit
    list ((di, dj, c) meaning a gain of c at the shifted site per fired
    pair).  Sites fire in ascending (j, i) order.  Exactly one credit must
    stay in layer (dj == 0) and the rest must raise j, which makes the
    per-layer mass drop on every fire and guarantees termination.  Returns
    the number of fired pairs.
    """
    if [dj for _, dj, _ in credits if dj <= 0] != [0]:
        raise RelationInvalid("credits must keep exactly one term in layer and raise the rest")
    steps = 0
    heap = [(j, i) for (i, j), a in grid.items() if abs(a) >= 2]
    heapq.heapify(heap)
    while heap:
        j, i = heapq.heappop(heap)
        a = grid.get((i, j), 0)
        if abs(a) < 2:
            continue
        s = 1 if a > 0 else -1
        t = abs(a) // 2
        rem = a - s * 2 * t
        if rem:
            grid[(i, j)] = rem
        else:
            del grid[(i, j)]
        steps += t
        if on_step is not None:
            on_step((i, j), t)
        for di, dj, c in credits:
            site = (i + di, j + dj)
            old = grid.get(site, 0)
            nv = old + s * c * t
            if nv:
                grid[site] = nv
            else:
                grid.pop(site, None)
            if abs(old) < 2 <= abs(nv):
                heapq.heappush(heap, (site[1], site[0]))
    return steps


def _checked(rel, base: BasePair, kind: str):
    """rel after its exact check against base: None raises
    NoRelationFound naming the kind, a false identity RelationInvalid."""
    if rel is None:
        raise NoRelationFound(f"no {kind} for ({base.p},{base.q}) with exponents up to {MAX_EXP}")
    if not _relations.verify_relation(base, rel):
        raise RelationInvalid(f"{rel} is not a valid relation for {base}")
    return rel


def _extended_credits(rel: "_relations.ExtendedRelation"):
    # 2 p^i q^j = p^(i+a) q^(j+b) + sign p^(i+c) q^(j+d)
    return ((rel.a, rel.b, 1), (rel.c, rel.d, rel.sign))


@dataclass(frozen=True)
class ExpandStats:
    """expand output plus the bookkeeping the benchmarks report; w_init
    is the base-p digit sum of |v|, the padic seed's weight, whichever
    seed was used."""

    expansion: "SignedExpansion | ExtendedExpansion"
    steps: int
    w_init: int
    relation: object = None


def _single_base_terms(v: int, b: int, axis: int) -> Optional[List[Term]]:
    # Expansions that need only one base: powers of 2 via plain binary
    # digits, powers of 3 via balanced ternary.
    if b == 2:
        digits = [(1, e) for e, d in enumerate(p_adic_digits(abs(v), 2)) if d]
        if v < 0:
            digits = [(-d, e) for d, e in digits]
    elif b == 3:
        digits = [(d, e) for e, d in enumerate(balanced_ternary(v)) if d]
    else:
        return None
    if axis == 0:
        return [(d, e, 0) for d, e in digits]
    return [(d, 0, e) for d, e in digits]


def expand_with_stats(
    v: int,
    base: BasePair,
    seed_method: str = "padic",
    on_step=None,
) -> ExpandStats:
    """expand, but also reporting steps, w_init and the relation used
    (None on the single-base paths).

    Off the single-base paths, the seed places signed digits of |v| on
    the (i, j) grid: its base-p digits on the axis j = 0 for "padic",
    the terms of greedy_seed for "greedy".  One reduction with the plain
    relation then brings every grid coefficient into {-1, 0, 1}, and
    steps counts its fired pairs.  w_init is the base-p digit sum of |v|,
    the padic seed's weight, for either seed; the padic seed fires at
    most (w^2 - w) / 2 pairs for w = w_init.
    """
    if seed_method not in ("padic", "greedy"):
        raise ValueError("seed_method must be 'padic' or 'greedy'")
    digits = p_adic_digits(abs(v), base.p)
    w_init = sum(digits)
    if v == 0:
        return ExpandStats(SignedExpansion(base, ()), 0, 0)
    for b, axis in ((base.p, 0), (base.q, 1)):
        terms = _single_base_terms(v, b, axis)
        if terms is not None:
            return ExpandStats(SignedExpansion(base, terms), 0, w_init)
    rel = _checked(_relations.find_plain_relation(base), base, "plain relation")
    if seed_method == "greedy":
        grid = {(i, j): d for d, i, j in greedy_seed(abs(v), base)}
    else:
        grid = {(i, 0): d for i, d in enumerate(digits) if d}
    steps = _claim_reduce(grid, _extended_credits(rel.as_extended()), on_step)
    sign = 1 if v > 0 else -1
    terms = [(sign * a, i, j) for (i, j), a in grid.items()]
    return ExpandStats(SignedExpansion(base, terms), steps, w_init, rel)


def expand(v: int, base: BasePair, seed_method: str = "padic") -> SignedExpansion:
    """Signed double-base expansion of any integer.

    Values of either sign are handled (negation flips every digit).  When
    one base is 2 or 3 a single-base digit expansion is used directly, in
    the order p = 2, p = 3, q = 2, q = 3; otherwise a plain base-pair
    relation with exponents up to relations.MAX_EXP drives the digit
    reduction and NoRelationFound is raised when there is none.
    """
    return expand_with_stats(v, base, seed_method).expansion


def expand_extended(x: PQRational, base: BasePair, on_step=None) -> ExtendedExpansion:
    """Extended expansion of num / (p^a_p q^a_q).

    The numerator's p-adic digits are reduced with the best relation in
    reach (plain ones first, then single-base-inverse ones); the final
    exponents are shifted down by (a_p, a_q).  Relations whose inverse
    powers live on the q side run through the p <-> q mirror image of the
    whole computation.
    """
    if x.base != base:
        raise ValueError("rational and expansion base pairs differ")
    if x.num == 0:
        return ExtendedExpansion(base, ())
    rel = _checked(_relations.find_extended_relation(base), base, "relation")
    credits = _extended_credits(rel)
    p = base.p
    mirrored = rel.form == "q_inverse"
    if mirrored:
        credits = tuple((dj, di, c) for di, dj, c in credits)
        p = base.q
    grid = {(i, 0): d for i, d in enumerate(p_adic_digits(abs(x.num), p)) if d}
    _claim_reduce(grid, credits, on_step)
    if mirrored:
        grid = {(j, i): a for (i, j), a in grid.items()}
    sign = 1 if x.num > 0 else -1
    return ExtendedExpansion(base, [(sign * a, i - x.a_p, j - x.a_q) for (i, j), a in grid.items()])


def _shifted_sum(terms, p: int, q: int) -> Tuple[int, int, int]:
    """(s, i0, j0) with sum d p^i q^j = s p^i0 q^j0 over nonempty terms
    in descending (i, j) order, i0 and j0 being the least exponents.

    Horner's rule in p over the rows i, and in q within each row, so only
    powers of the gaps between exponents are computed and no table of
    powers grows with the exponent span.
    """
    j0 = min(j for _, _, j in terms)
    s = 0  # the finished rows, in units of p^row
    row, col, r = terms[0][1], terms[0][2], 0  # r: this row, in units of q^col
    for d, i, j in terms:
        if i != row:
            s = (s + r * q ** (col - j0)) * p ** (row - i)
            row, col, r = i, j, 0
        r = r * q ** (col - j) + d
        col = j
    return s + r * q ** (col - j0), row, j0


def evaluate_expansion(exp):
    """Exact value: an int for SignedExpansion, a Fraction for
    ExtendedExpansion."""
    signed = isinstance(exp, SignedExpansion)
    if not exp.terms:
        return 0 if signed else Fraction(0)
    p, q = exp.base.p, exp.base.q
    s, i0, j0 = _shifted_sum(exp.terms, p, q)
    if signed:
        return s * p ** i0 * q ** j0
    num = s * p ** max(i0, 0) * q ** max(j0, 0)
    return Fraction(num, p ** max(-i0, 0) * q ** max(-j0, 0))


def weight(exp) -> int:
    """Number of nonzero digits."""
    return len(exp.terms)


def height(x) -> float:
    """max(log|n|, log d, 1) for x = n/d in lowest terms; height(0) = 1."""
    x = Fraction(x)
    vals = [1.0]
    if x.numerator:
        vals.append(math.log(abs(x.numerator)))
    if x.denominator > 1:
        vals.append(math.log(x.denominator))
    return max(vals)


def rational_basis(p: int, q: int) -> UnitGroupBasis:
    """Order-two-sign basis whose units are the integer bases p and q.

    abs_val hooks return exact point intervals, so downstream interval
    arithmetic degenerates to exact rational arithmetic.
    """
    base = BasePair(p, q)

    def point(v):
        return lambda bits: (Fraction(v), Fraction(v))

    return UnitGroupBasis(
        etas=(1,),
        epsilons=(base.p, base.q),
        abs_val=(point(base.p), point(base.q)),
    )


def rational_evaluator(base: BasePair) -> Callable:
    """Evaluation hook for engine.evaluate over a rational basis."""

    def ev(k: int, ell: int, x: Sequence[int]) -> Fraction:
        return (-1) ** k * Fraction(base.p) ** x[0] * Fraction(base.q) ** x[1]

    return ev


def to_unit_relation(rel, base: BasePair) -> UnitRelation:
    """Encode a plain relation as an engine relation with n = 2.

    2 = sign (p^x - q^y) becomes one term on each sign layer.  None, as
    returned when no relation exists, raises NoRelationFound.
    """
    ext = _checked(rel, base, "relation").as_extended()
    return UnitRelation(n=2, terms=((0, (ext.a, ext.b)), (1, (ext.c, ext.d))))


def expansion_to_json(exp) -> dict:
    """JSON-ready dict; big integers ride as decimal strings."""
    return {
        "kind": "signed" if isinstance(exp, SignedExpansion) else "extended",
        "p": str(exp.base.p),
        "q": str(exp.base.q),
        "value": str(evaluate_expansion(exp)),
        "terms": [{"d": d, "i": str(i), "j": str(j)} for d, i, j in exp.terms],
    }


def expansion_from_json(data: dict):
    """Parse the expansion schema back; returns (expansion, claimed value).

    Every integer field must be a JSON integer or a decimal string and the
    value an integer or an "n" or "n/d" string of decimal digits; anything
    else, a float, a boolean or "2.5e1" included, raises InvalidExpansion.
    The claimed value is whatever the document asserts, as a Fraction; it
    is not rechecked here.
    """
    try:
        kind = data["kind"]
        base = BasePair(*document_ints((data["p"], data["q"]), "base"))
        rows = data["terms"]
        terms = zip(
            document_ints([t["d"] for t in rows], "digit"),
            document_ints([t["i"] for t in rows], "exponent"),
            document_ints([t["j"] for t in rows], "exponent"),
        )
        claimed = document_rational(data["value"], "value")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidExpansion(f"malformed expansion document: {exc}") from None
    if kind == "signed":
        return (SignedExpansion(base, terms), claimed)
    if kind == "extended":
        return (ExtendedExpansion(base, terms), claimed)
    raise InvalidExpansion(f"unknown expansion kind {kind!r}")
