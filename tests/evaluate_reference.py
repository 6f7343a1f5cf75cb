"""Reference evaluation: the per-term sums that engine.evaluate ran
before its hooks received the whole coefficient map.

Each term's ring element is built on its own, from zeta^k, eta_ell and
eps^x, multiplied by its coefficient and added in sorted index order.
The differential tests compare the library's evaluation hooks against
these sums.
"""

from fractions import Fraction

from unitsum.cubic import unit_monomial


def evaluate_by_terms(rep, term):
    """sum over the sorted indices of term(k, ell, x) * a; the empty
    representation gives the int 0."""
    total = None
    for key, a in sorted(rep.coeffs.items()):
        k, ell, x = key
        value = term(k, ell, x) * a
        total = value if total is None else total + value
    return 0 if total is None else total


def cubic_term(params):
    """+-alpha^i alpha2^j, one CubicElement per term."""

    def term(k, ell, x):
        value = unit_monomial(x[0], x[1], params)
        return -value if k else value

    return term


def rational_term(base):
    """(-1)^k p^i q^j as a Fraction."""

    def term(k, ell, x):
        return (-1) ** k * Fraction(base.p) ** x[0] * Fraction(base.q) ** x[1]

    return term
