"""Reference monotone quantity: the per-site Fraction loop that
engine.monotone_quantity ran before it summed each side over one
denominator.

Each site's enclosure is the product of the coordinates' powers as
Fractions, memoized per (coordinate, exponent), and each site is added
to the running Fraction sums on its own.  The differential tests check
that the library gives the same exact pair.
"""

import functools
from fractions import Fraction


def reference_monotone_quantity(rep, precision_bits=64):
    basis = rep.basis
    abs_ivs = [basis.abs_val[m](precision_bits) for m in range(basis.M)]
    for lo, hi in abs_ivs:
        if lo <= 0:
            raise ValueError("abs_val hooks must certify positivity")

    @functools.cache
    def coord_pow(m, e):
        lo, hi = abs_ivs[m]
        return (lo ** e, hi ** e) if e >= 0 else (1 / hi ** -e, 1 / lo ** -e)

    lo_total = Fraction(0)
    hi_total = Fraction(0)
    for (k, ell, x), a in rep.items():
        flo = Fraction(1)
        fhi = Fraction(1)
        for m, e in enumerate(x):
            plo, phi = coord_pow(m, 2 * e)
            flo *= plo
            fhi *= phi
        lo_total += a * flo
        hi_total += a * fhi
    return (lo_total, hi_total)
