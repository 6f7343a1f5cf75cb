"""Reference implementations for the double-base evaluation and greedy seed.

These are the straightforward versions that unitsum.double_base ran
before its Horner evaluation and staircase greedy search: a power product
per term, and a scan of the whole (i, j) grid for every greedy term.  The
differential tests compare the library against them term for term.
"""

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
