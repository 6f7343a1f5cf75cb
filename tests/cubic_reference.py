"""Reference paths for unitsum.cubic.

represent_by_one_reduce is the path represent_unit_sums ran before its
pile cache: one engine.reduce over the coordinate seed, whatever earlier
calls reduced.  bisect_cell is cubic._bisect, the plain bisection that
real_roots ran before cubic._root_cell took Newton steps.  The
differential tests compare the library against them.
"""

from fractions import Fraction

from unitsum import Representation, cubic_basis, reduce, three_relation
from unitsum.cubic import _poly_at


def represent_by_one_reduce(beta, policy=None):
    """Each coordinate c_t seeds |c_t| chips at (t, 0) on the sign layer
    of c_t; the three-unit relation stabilizes them in one reduce."""
    params = beta.params
    seeds = {(0 if c > 0 else 1, 1, (t, 0)): abs(c) for t, c in enumerate(beta.coords) if c}
    return reduce(Representation(cubic_basis(params), seeds), three_relation(params), policy)


def bisect_cell(a, bracket, bits):
    """Bisect an integer bracket to width exactly 2^-bits, on integers over
    2^bits: the one grid cell that holds the bracket's root."""
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
