"""Reference paths for unitsum.cubic.

represent_by_one_reduce is the path represent_unit_sums ran before its
pile cache: one engine.reduce over the coordinate seed, whatever earlier
calls reduced.  bisect_cell is cubic._bisect, the plain bisection that
real_roots ran before cubic._root_cell took Newton steps.  mul_coords and
conjugate are cubic's product and Galois map as they were before the
order's record, with the reduction and sigma(alpha) written out in a.
cubic_at is the defining polynomial written out, so that no reference
reads the library's statement of it.  place_with_mirror_branch is
cubic._place as it was when it wrote a mirror-ray orbit's tau-images
only off the mirror rays.  The differential tests compare the library
against them.
"""

from fractions import Fraction

from unitsum import Representation, cubic_basis, reduce, three_relation


def represent_by_one_reduce(beta, policy=None):
    """Each coordinate c_t seeds |c_t| chips at (t, 0) on the sign layer
    of c_t; the three-unit relation stabilizes them in one reduce."""
    params = beta.params
    seeds = {(0 if c > 0 else 1, 1, (t, 0)): abs(c) for t, c in enumerate(beta.coords) if c}
    return reduce(Representation(cubic_basis(params), seeds), three_relation(params), policy)


def cubic_at(a, x, s=1):
    """s^3 f(x/s) for f = x^3 - (a-1) x^2 - (a+2) x - 1: the sign of f(x/s)."""
    return ((x - (a - 1) * s) * x - (a + 2) * s * s) * x - s * s * s


def bisect_cell(a, bracket, bits):
    """Bisect an integer bracket to width exactly 2^-bits, on integers over
    2^bits: the one grid cell that holds the bracket's root."""
    s = 1 << bits
    lo, hi = bracket[0] * s, bracket[1] * s
    neg_at_lo = cubic_at(a, lo, s) < 0
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if (cubic_at(a, mid, s) < 0) == neg_at_lo:
            lo = mid
        else:
            hi = mid
    return (Fraction(lo, s), Fraction(hi, s))


def mul_coords(u, v, a):
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


def conjugate(u, a):
    """sigma(u) = c0 + c1 alpha2 + c2 alpha2^2 for the Galois map sigma:
    alpha -> alpha2 = -1 - 1/alpha, whose coordinates are (a+1, a-1, -1)."""
    s1 = (a + 1, a - 1, -1)
    s2 = mul_coords(s1, s1, a)
    return tuple(u[0] * e + u[1] * x + u[2] * y for e, x, y in zip((1, 0, 0), s1, s2))


def place_with_mirror_branch(out, pile, t, k):
    """Add a pile of orbit representatives, moved from (0, 0) to (t, 0),
    to out on sign layer k: the sigma-orbit of each, and its tau-images
    unless it lies on a mirror ray i = 2 j or j = 2 i."""
    for (_, _, (i, j)), c in pile.items():
        out[(k, 1, (i + t, j))] = out[(k, 1, (t - j, i - j))] = out[(k, 1, (j - i + t, -i))] = c
        if i != 2 * j and j != 2 * i:
            out[(k, 1, (t - j, -i))] = out[(k, 1, (j - i + t, j))] = out[(k, 1, (i + t, i - j))] = c
