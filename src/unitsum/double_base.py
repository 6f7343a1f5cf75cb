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

import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, List, Optional, Tuple

from . import relations as _relations
from .engine import UnitGroupBasis, UnitRelation
from .errors import (
    InvalidExpansion,
    NoRelationFound,
    RelationInvalid,
    exact_int,
)
from .relations import MAX_EXP

Term = Tuple[int, int, int]

SEED_METHODS = ("padic", "greedy")  # expand's seeds, the default first


@dataclass(frozen=True)
class BasePair:
    """Two coprime distinct integer bases, both at least 2; a base that
    is not an integer raises ValueError."""

    p: int
    q: int

    def __post_init__(self):
        object.__setattr__(self, "p", exact_int(self.p, "base", 2))
        object.__setattr__(self, "q", exact_int(self.q, "base", 2))
        if self.p == self.q:
            raise ValueError("bases must be distinct")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError("bases must be coprime")


def _canonical_terms(terms, allow_negative_exponents: bool) -> Tuple[Term, ...]:
    seen = set()
    clean = []
    for d, i, j in terms:
        d, i, j = exact_int(d, "digit"), exact_int(i, "exponent"), exact_int(j, "exponent")
        if d not in (-1, 1):
            raise InvalidExpansion(f"digit {d} at ({i},{j}) is not -1 or 1")
        if not allow_negative_exponents and (i < 0 or j < 0):
            raise InvalidExpansion(f"negative exponent at ({i},{j})")
        if (i, j) in seen:
            raise InvalidExpansion(f"duplicate exponent pair ({i},{j})")
        seen.add((i, j))
        clean.append((d, i, j))
    return _descending(clean)


def _descending(terms: list) -> Tuple[Term, ...]:
    # descending (i, j) as two stable sorts on int keys, j then i
    terms.sort(key=itemgetter(2), reverse=True)
    terms.sort(key=itemgetter(1), reverse=True)
    return tuple(terms)


@dataclass(frozen=True)
class _Expansion:
    """The body of both expansion classes, which set kind and negative_exponents."""

    base: BasePair
    terms: Tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", _canonical_terms(self.terms, self.negative_exponents))


class SignedExpansion(_Expansion):
    """sum d * p^i * q^j with d in {-1,1}, i, j >= 0, distinct (i, j).

    Terms are kept in descending lexicographic (i, j) order.
    """

    kind, negative_exponents = "signed", False


class ExtendedExpansion(_Expansion):
    """Like SignedExpansion but exponents may be any integers."""

    kind, negative_exponents = "extended", True


def _from_rows(cls, base: BasePair, rows: dict, terms: list):
    """cls(base, terms), given the int terms also as rows {j: {i: d}}.

    When the rows hold only the digits -1 and 1, negative i or j only if
    cls allows them, and one entry per term (a repeated pair leaves
    fewer), the terms pass the constructor's checks and are only sorted.
    Otherwise the constructor runs, and raises InvalidExpansion naming
    the first faulty term in the order given."""
    digits, low, entries = set(), 0, 0
    for j, row in rows.items():
        if row:
            digits.update(row.values())
            low, entries = min(low, j, min(row)), entries + len(row)
    if entries != len(terms) or not digits <= {-1, 1} or (low < 0 and not cls.negative_exponents):
        return cls(base, terms)
    exp = object.__new__(cls)
    object.__setattr__(exp, "base", base)
    object.__setattr__(exp, "terms", _descending(terms))
    return exp


@dataclass(frozen=True)
class PQRational:
    """A rational num / (p^a_p * q^a_q) with the least exponents, over any
    coprime base pair: factors of p and q in num cancel while they can."""

    base: BasePair
    num: int
    a_p: int
    a_q: int

    def __post_init__(self):
        num = exact_int(self.num, "numerator")
        ap, aq = exact_int(self.a_p, "denominator exponent", 0), exact_int(self.a_q, "denominator exponent", 0)
        p, q = self.base.p, self.base.q
        if num == 0:
            ap = aq = 0
        # at most a_p factors of p and a_q of q cancel
        sp = min(ap, _valuation(num, p)) if ap else 0
        sq = min(aq, _valuation(num, q)) if aq else 0
        num //= p ** sp * q ** sq
        ap, aq = ap - sp, aq - sq
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "a_p", ap)
        object.__setattr__(self, "a_q", aq)


def pq_rational(x: Fraction, base: BasePair) -> PQRational:
    """x, an int or a Fraction, over the base powers that clear each base's
    share of its denominator (any coprime pair: over (9, 7), 1/3 is 3/9).

    Any other x must equal an integer exactly (errors.exact_int: 7.0
    reads as 7, while 0.1 and '7/9' raise ValueError naming the value).
    Raises ValueError naming the part of the denominator that neither
    base shares, when it is not 1.
    """
    if type(x) is not int and type(x) is not Fraction:
        x = exact_int(x, "value")
    ap, den = _base_share(x.denominator, base.p)
    aq, den = _base_share(den, base.q)
    if den != 1:
        raise ValueError(f"denominator factor {den} is not a product of base powers")
    return PQRational(base, x.numerator * (base.p ** ap * base.q ** aq // x.denominator), ap, aq)


def _base_share(n: int, b: int) -> Tuple[int, int]:
    """(e, rest) with n = g * rest, rest coprime to b and e the least
    exponent with g | b^e.  Each division of n by gcd(n, b) lowers by one
    the power of b that its share needs, so e counts them; while g =
    gcd(n, b) divides n twice the next gcd is g again, so _valuation(n, g)
    of them go at once (whole powers, for a prime b)."""
    e = 0
    while (g := math.gcd(n, b)) > 1:
        t = _valuation(n, g)
        n, e = n // g ** t, e + t
    return e, n


# up to this many bits one divmod per digit is as fast as splitting; at
# 4096 bits over p = 5 splitting is about 4x faster (2-core x86, Python 3.11)
_DIGIT_LOOP_BITS = 512


def _digits_into(out: List[int], n: int, p: int, pows: List[int], k: int) -> None:
    """Append the base-p digits of n to out, least significant first, with
    zeros up to 2^k of them: exactly 2^k when n < p^(2^k), as in every
    recursive call.  pows[i] is p^(2^i) for i < k."""
    if k == 0 or n.bit_length() <= _DIGIT_LOOP_BITS:
        start = len(out)
        while n:
            n, r = divmod(n, p)
            out.append(r)
        out.extend([0] * ((1 << k) - (len(out) - start)))
        return
    hi, lo = divmod(n, pows[k - 1])
    _digits_into(out, lo, p, pows, k - 1)
    _digits_into(out, hi, p, pows, k - 1)


def p_adic_digits(n: int, p: int) -> List[int]:
    """Base-p digits of n >= 0, least significant first; 0 gives [].

    A large n is split by divmod on p^(2^k) into two halves whose digits
    are found the same way (Brent and Zimmermann, *Modern Computer
    Arithmetic*, 2010, section 1.7), instead of dividing the whole
    number once per digit.
    """
    n, p = exact_int(n, "value", 0), exact_int(p, "base", 2)
    pows = [p]
    if n.bit_length() > _DIGIT_LOOP_BITS:
        # stop at the first p^(2^k) whose square surely exceeds n
        while 2 * pows[-1].bit_length() - 1 <= n.bit_length():
            pows.append(pows[-1] * pows[-1])
    out: List[int] = []
    _digits_into(out, n, p, pows, len(pows))
    while out and not out[-1]:
        out.pop()
    return out


def _valuation(n: int, p: int) -> int:
    """Exponent of p in n != 0: the number of low zero digits of |n| in base p.

    p, p^2, p^4, ... are divided out of |n| while they divide it, so when
    p^(2^k) first does not, p^(2^k - 1) is out and fewer than 2^k low zero
    digits are left.  Only the remainder modulo p^(2^k), which keeps them,
    is split into digits: its size follows the valuation, not n.
    """
    n, pk, e = abs(n), p, 0
    while True:
        n, r = divmod(n, pk)
        if r:
            return e + next(i for i, d in enumerate(p_adic_digits(r, p)) if d)
        e, pk = 2 * e + 1, pk * pk


def balanced_ternary(n: int) -> List[int]:
    """Digits in {-1,0,1} with n = sum digit * 3^index, least significant
    first; 0 gives [].  One carry pass over the base-3 digits of |n| turns
    each 2 or 3 into -1 or 0 and a carry; the sign of n is applied last."""
    n = exact_int(n, "value")
    out, carry = [], 0
    for d in p_adic_digits(abs(n), 3):
        d += carry
        carry = d > 1
        out.append(d - 3 * carry)
    if carry:
        out.append(1)
    return out if n >= 0 else [-d for d in out]


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
    v = exact_int(v, "value")
    p, q = base.p, base.q
    ppow = _powers_up_to(p, 2 * abs(v))
    qpow = _powers_up_to(q, 2 * abs(v))
    acc = {}  # (i, j) -> net, in first-touch order
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
        acc[(i, j)] = acc.get((i, j), 0) + s
    return [(a, i, j) for (i, j), a in acc.items() if a]


def _claim_reduce(rows: dict, credits, on_step=None) -> int:
    """Drive every coefficient into {-1,0,1}.

    rows maps a layer j to its row {i: a}, the signed net coefficient at
    p^i q^j.  A site with |a| >= 2 is fired t = |a| // 2 times at once:
    2t copies move through the credit list ((di, dj, c) meaning a gain of
    c at (i + di, j + dj) per fired pair).  There must be exactly two
    credits, both with |c| = 1: one that stays in its layer (dj == 0) and
    one that raises it (dj > 0).

    That rule guarantees termination.  Call the sum of |a| over a row
    the layer's mass.  A fired pair takes 2 from its site and puts at
    most 1 back in the layer, so each pair lowers the layer's mass by at
    least 1, and adds at most 1 to the mass of the layers above.  The
    layer's last firing, of t pairs, starts from a site holding at least
    2t, so it either lowers the mass by more than t or leaves at least t
    behind.  A layer that starts with mass M > 0 therefore fires at most
    M - 1 pairs, and finishing it lowers the total mass of the layers
    from it upwards by at least 1.  That total starts finite, so only
    finitely many layers fire, each finitely often.

    The firing order is ascending (j, i): each firing is at the least
    ready site.  No credit lowers j, so a layer is final once the layers
    below it have fired, and the layers are swept in ascending j.  Each
    row is swept in ascending i from a list of its ready sites.  Below
    the cursor every site is stable: only the in-layer credit changes
    the row, and it lands at i + di.  When di > 0 a site it makes ready
    lies ahead and joins the list in its place; when di <= 0 the site
    is at or behind the cursor and is now the least ready one, so it
    fires at once, and so on down the chain.  on_step, when given,
    receives ((i, j), t) for each firing.  Returns the number of fired
    pairs.
    """
    ok = len(credits) == 2
    if ok:
        (_, dj0, c0), (_, dj1, c1) = credits
        ok = min(dj0, dj1) == 0 < max(dj0, dj1) and abs(c0) == abs(c1) == 1
    if not ok:
        raise RelationInvalid("credits must be one unit term that stays in layer and one that raises it")
    (di, _, c), (ui, uj, uc) = credits if credits[0][1] == 0 else credits[::-1]
    layers = sorted(rows)
    steps = 0
    for j in layers:  # grows past j as firings raise new layers
        row = rows[j]
        # the ready sites negated, ascending: pop() gives the least
        todo = sorted(-i for i, a in row.items() if a >= 2 or a <= -2)
        if not todo:
            continue
        if j + uj not in rows:
            rows[j + uj] = {}
            insort(layers, j + uj)
        upper = rows[j + uj]
        while todo:
            i = -todo.pop()
            a = row.get(i, 0)
            if -2 < a < 2:
                continue
            t = abs(a) >> 1
            st = t if a > 0 else -t
            rem = a - 2 * st
            if rem:
                row[i] = rem
            else:
                del row[i]
            steps += t
            if on_step is not None:
                on_step((i, j), t)
            k = i + di
            old = row.get(k, 0)
            nv = old + c * st
            if nv:
                row[k] = nv
            else:
                row.pop(k, None)
            if -2 < old < 2 and not -2 < nv < 2:
                insort(todo, -k)  # at the end, the next to fire, when di <= 0
            k = i + ui
            nv = upper.get(k, 0) + uc * st
            if nv:
                upper[k] = nv
            else:
                upper.pop(k, None)
    return steps


def _checked(rel, base: BasePair, kind: str):
    """rel after its exact check against base: None raises NoRelationFound
    naming the kind, a false identity RelationInvalid naming rel."""
    if rel is None:
        raise NoRelationFound(f"no {kind} for ({base.p},{base.q}) with exponents up to {MAX_EXP}")
    if not _relations.verify_relation(base, rel):
        raise RelationInvalid(f"{rel} is not a valid relation for {base}")
    return rel


@dataclass(frozen=True)
class ExpandStats:
    """expand output plus the bookkeeping the benchmarks report; w_init
    is the base-p digit sum of |v|, the padic seed's weight, whichever
    seed was used."""

    expansion: SignedExpansion
    steps: int
    w_init: int


def _single_base_rows(v: int, base: BasePair) -> Optional[dict]:
    # v > 0 in one base, when p (else q) is 2 or 3: binary digits or
    # balanced ternary on that base's axis, as rows {j: {i: d}}
    b = base.p if base.p <= 3 else base.q
    if b > 3:
        return None
    digits = p_adic_digits(v, 2) if b == 2 else balanced_ternary(v)
    if b == base.p:
        return {0: {e: d for e, d in enumerate(digits) if d}}
    return {e: {0: d} for e, d in enumerate(digits) if d}


def expand_with_stats(
    v: int,
    base: BasePair,
    seed_method: str = SEED_METHODS[0],
    on_step=None,
) -> ExpandStats:
    """expand, but also reporting steps and w_init.

    v follows the package's integer rule (errors.exact_int): 7.0 expands
    as 7, and 2.5 raises ValueError.  Off the single-base paths, the seed
    places signed digits of |v| on the (i, j) grid: its base-p digits on
    the axis j = 0 for "padic", the terms of greedy_seed for "greedy".
    One reduction with the plain relation then brings every grid
    coefficient into {-1, 0, 1}, and steps counts its fired pairs.
    w_init is the base-p digit sum of |v|, the padic seed's weight, for
    either seed; the padic seed fires at most (w^2 - w) / 2 pairs for
    w = w_init.  on_step, when given, receives ((i, j), t) for each
    firing of t pairs at (i, j).
    """
    v = exact_int(v, "value")
    if seed_method not in SEED_METHODS:
        raise ValueError(f"seed_method must be {' or '.join(map(repr, SEED_METHODS))}")
    digits = p_adic_digits(abs(v), base.p)
    w_init = sum(digits)
    if v == 0:
        return ExpandStats(SignedExpansion(base, ()), 0, 0)
    rows, steps = _single_base_rows(abs(v), base), 0
    if rows is None:
        rel = _checked(_relations.find_plain_relation(base), base, "plain relation")
        if seed_method == "greedy":
            rows = {}
            for d, i, j in greedy_seed(abs(v), base):
                rows.setdefault(j, {})[i] = d
        else:
            rows = {0: {i: d for i, d in enumerate(digits) if d}}
        steps = _claim_reduce(rows, rel.terms, on_step)
    sign = 1 if v > 0 else -1
    terms = [(sign * a, i, j) for j, row in rows.items() for i, a in row.items()]
    return ExpandStats(_from_rows(SignedExpansion, base, rows, terms), steps, w_init)


def expand(v: int, base: BasePair, seed_method: str = SEED_METHODS[0]) -> SignedExpansion:
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
    if not isinstance(x, PQRational):
        raise ValueError(f"expand_extended takes a PQRational, not {type(x).__name__}; see pq_rational")
    if x.base != base:
        raise ValueError("rational and expansion base pairs differ")
    if x.num == 0:
        return ExtendedExpansion(base, ())
    rel = _checked(_relations.find_extended_relation(base), base, "relation")
    credits, p = rel.terms, base.p
    mirrored = rel.form == "q_inverse"
    if mirrored:
        credits = tuple((dj, di, c) for di, dj, c in credits)
        p = base.q
    rows = {0: {i: d for i, d in enumerate(p_adic_digits(abs(x.num), p)) if d}}
    _claim_reduce(rows, credits, on_step)
    sign = 1 if x.num > 0 else -1
    if mirrored:
        terms = [(sign * a, j - x.a_p, i - x.a_q) for j, row in rows.items() for i, a in row.items()]
    else:
        terms = [(sign * a, i - x.a_p, j - x.a_q) for j, row in rows.items() for i, a in row.items()]
    return _from_rows(ExtendedExpansion, base, rows, terms)


def _shifted_sum(terms, p: int, q: int):
    """sum d p^i q^j over terms in descending (i, j) order, where a pair
    may repeat: an int when no exponent is negative, else a Fraction.

    Horner's rule in p over the rows i, and in q within each row, gives
    s with the sum = s p^i0 q^j0 for the least exponents i0 and j0, so
    only powers of the gaps between exponents are computed and no table
    of powers grows with the exponent span.
    """
    if not terms:
        return 0
    j0 = min(j for _, _, j in terms)
    s = 0  # the finished rows, in units of p^row
    row, col, r = terms[0][1], terms[0][2], 0  # r: this row, in units of q^col
    for d, i, j in terms:
        if i != row:
            s = (s + r * q ** (col - j0)) * p ** (row - i)
            row, col, r = i, j, 0
        r = r * q ** (col - j) + d
        col = j
    s, i0 = s + r * q ** (col - j0), row
    if i0 >= 0 and j0 >= 0:
        return s * p ** i0 * q ** j0
    return Fraction(s * p ** max(i0, 0) * q ** max(j0, 0), p ** max(-i0, 0) * q ** max(-j0, 0))


def evaluate_expansion(exp):
    """Exact value: an int for SignedExpansion, a Fraction for
    ExtendedExpansion."""
    value = _shifted_sum(exp.terms, exp.base.p, exp.base.q)
    if type(value) is int and exp.negative_exponents:
        return Fraction(value)
    return value


def weight(exp) -> int:
    """Number of nonzero digits."""
    return len(exp.terms)


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
    """Evaluation hook for engine.evaluate over a rational basis: the
    signed coefficients, sorted by descending (i, j), summed by the
    Horner rule of evaluate_expansion; a Fraction."""

    p, q = base.p, base.q

    def ev(items) -> Fraction:
        # a site on both sign layers gives two terms with one (i, j)
        terms = _descending([(-a if k else a, i, j) for (k, _, (i, j)), a in items])
        return Fraction(_shifted_sum(terms, p, q))

    return ev


def to_unit_relation(rel, base: BasePair) -> UnitRelation:
    """Encode a plain or extended relation as an engine relation with n = 2.

    Its terms are the relation's own, which the converters fire, 2 =
    p^a q^b + sign p^c q^d: a term with sign +1 goes on sign layer 0,
    one with sign -1 on layer 1.  So a plain relation puts one term on
    each layer, and an extended one with a + second term puts both on
    layer 0.  None, as returned when no relation exists, raises
    NoRelationFound.
    """
    terms = _checked(rel, base, "relation").terms
    return UnitRelation(n=2, terms=tuple((0 if s == 1 else 1, (i, j)) for i, j, s in terms))


# last, as documents imports this module; the benchmark finds these two here
from .documents import expansion_from_json, expansion_to_json
