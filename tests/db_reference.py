"""Reference implementations for the double-base evaluation, greedy seed
and base-power questions.

These are the straightforward versions that unitsum ran before its Horner
evaluation, staircase greedy search, digit split and per-layer firing
loop: a power product per term, a scan of the whole (i, j) grid for every
greedy term, one division or multiplication by the base per digit, factor
or power, and one heap of (j, i) tuples over a grid keyed by (i, j).
greedy_seed_by_sorted_powers is a cheaper greedy reference, pinned to the
grid scan on small values, which bisects one sorted table of powers per
value.  least_exponents_by_trial tries the exponents of a p,q-rational in turn
instead of reading them from valuations.  The differential tests compare
the library against them term for term.
"""

import bisect
import heapq
import math
from fractions import Fraction

from unitsum.double_base import SignedExpansion


def evaluate_by_power_sums(exp):
    """sum d * p^i * q^j, each power computed from scratch; an int for a
    SignedExpansion, a Fraction for an ExtendedExpansion."""
    p, q = exp.base.p, exp.base.q
    if isinstance(exp, SignedExpansion):
        return sum(d * p ** i * q ** j for d, i, j in exp.terms)
    total = Fraction(0)
    for d, i, j in exp.terms:
        total += d * Fraction(p) ** i * Fraction(q) ** j
    return total


def greedy_seed_by_grid_scan(v, base):
    """greedy_seed by scanning every signed p^i q^j up to twice the
    remainder for every term; ties prefer the smaller power, then smaller
    i, then smaller j."""
    p, q = base.p, base.q
    order = []
    acc = {}
    r = v
    while r:
        lim = 2 * abs(r)
        best = None
        pi = 1
        i = 0
        while pi <= lim:
            m = pi
            j = 0
            while m <= lim:
                for s in (1, -1):
                    cand = (abs(r - s * m), m, i, j, s)
                    if best is None or cand[:4] < best[:4]:
                        best = cand
                m *= q
                j += 1
            pi *= p
            i += 1
        _, m, i, j, s = best
        r -= s * m
        if (i, j) not in acc:
            acc[(i, j)] = 0
            order.append((i, j))
        acc[(i, j)] += s
    return [(acc[ij], ij[0], ij[1]) for ij in order if acc[ij]]


def greedy_seed_by_sorted_powers(v, base):
    """greedy_seed from one sorted table of every p^i q^j up to 2|v|:
    each term bisects |r| in it and takes the closer neighbour, the
    smaller on a tie, with the sign of r.  Coprime bases give distinct
    powers, so the nearest power names its (i, j).  The remainder shrinks
    every term, and the power nearest |r| is at most 2|r|, so the table
    holds every power greedy_seed_by_grid_scan picks."""
    p, q = base.p, base.q
    lim = 2 * abs(v)
    table = []
    pi, i = 1, 0
    while pi <= lim:
        m, j = pi, 0
        while m <= lim:
            table.append((m, i, j))
            m *= q
            j += 1
        pi *= p
        i += 1
    table.sort()
    powers = [m for m, _, _ in table]
    order = []
    acc = {}
    r = v
    while r:
        a = abs(r)
        k = bisect.bisect_left(powers, a)  # powers[k - 1] < a <= powers[k]
        if k == len(powers) or k and a - powers[k - 1] <= powers[k] - a:
            k -= 1
        _, i, j = table[k]
        s = 1 if r > 0 else -1
        r -= s * powers[k]
        if (i, j) not in acc:
            acc[(i, j)] = 0
            order.append((i, j))
        acc[(i, j)] += s
    return [(acc[ij], ij[0], ij[1]) for ij in order if acc[ij]]


def balanced_ternary_by_division(n):
    """Digits in {-1, 0, 1} of n, either sign, least significant first:
    one division by 3 per digit, a remainder of 2 read as -1."""
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


def valuation_by_division(n, p):
    """Exponent of p in n != 0, one division by p per factor."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def lowest_terms_by_division(num, a_p, a_q, p, q):
    """PQRational's fields for num / (p^a_p q^a_q): a zero numerator drops
    the denominator, then common factors of p and of q cancel one at a
    time."""
    if num == 0:
        a_p = a_q = 0
    while a_p and num % p == 0:
        num //= p
        a_p -= 1
    while a_q and num % q == 0:
        num //= q
        a_q -= 1
    return num, a_p, a_q


def least_exponents_by_trial(x, p, q):
    """(a, b, foreign) for a Fraction x over the bases p and q.  foreign
    is what is left of x's denominator once every factor it shares with
    p * q is divided out, one gcd at a time.  When foreign is 1, (a, b)
    is the first pair, in order of a + b then a, with x * p^a * q^b an
    integer; otherwise it is (None, None)."""
    foreign = x.denominator
    while (g := math.gcd(foreign, p * q)) > 1:
        foreign //= g
    if foreign != 1:
        return None, None, foreign
    for total in range(2 * x.denominator.bit_length() + 1):
        for a in range(total + 1):
            if (x * p**a * q ** (total - a)).denominator == 1:
                return a, total - a, 1
    raise AssertionError(f"no exponents clear {x} over ({p},{q})")


def ceil_log_by_multiplication(v, b):
    """Least e >= 0 with b^e >= v, multiplying up one power at a time."""
    e, t = 0, 1
    while t < v:
        t *= b
        e += 1
    return e


def claim_reduce_by_heap(grid, credits, on_step=None):
    """_claim_reduce over grid {(i, j): a} with one heap of (j, i) tuples:
    the smallest ready site fires |a| // 2 pairs, each credit (di, dj, c)
    adds c per pair at the shifted site, and a site is pushed when it
    turns ready.  Returns the number of fired pairs."""
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
