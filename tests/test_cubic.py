"""Simplest cubic fields: exact ring arithmetic, units, roots, and the
coefficient-2 unit-sum representations."""

import itertools
import random
import sys
import threading
import traceback
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cubic_reference import bisect_cell, conjugate, cubic_at, mul_coords, represent_by_one_reduce
from evaluate_reference import cubic_term, evaluate_by_terms
from unitsum import (
    CubicElement,
    CubicParams,
    IterationCapExceeded,
    ParamsMismatch,
    ReductionPolicy,
    RelationBroken,
    Representation,
    VerificationFailed,
    cubic_basis,
    cubic_evaluator,
    element_from_json,
    element_to_json,
    evaluate,
    monotone_quantity,
    real_roots,
    represent_unit_sums,
    three_relation,
    unit_monomial,
)
from unitsum import cubic, engine
from unitsum.cubic import alpha, alpha2, one

P2 = CubicParams(2)

coord = st.integers(-30, 30)
small_a = st.integers(-8, 8)


def elem(params, c0, c1, c2):
    return CubicElement(params, c0, c1, c2)


# ------------------------------------------------------------- arithmetic


def test_minimal_polynomial_is_satisfied():
    for a in (-50, -3, 0, 1, 2, 17, 50):
        params = CubicParams(a)
        al = alpha(params)
        lhs = al * al * al
        rhs = (a - 1) * al * al + (a + 2) * al + one(params)
        assert lhs == rhs


@given(small_a, coord, coord, coord, coord, coord, coord)
def test_ring_laws(a, x0, x1, x2, y0, y1, y2):
    params = CubicParams(a)
    x = elem(params, x0, x1, x2)
    y = elem(params, y0, y1, y2)
    z = alpha(params)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x - x == elem(params, 0, 0, 0)


def test_scalar_mixing_with_ints_and_fractions():
    x = elem(P2, 1, 2, 3)
    assert 2 * x == x + x
    assert 1 + x == elem(P2, 2, 2, 3)
    # elements of Z[alpha] take no fractional scalars
    with pytest.raises(TypeError):
        x * Fraction(1, 2)


def test_params_mismatch_raises():
    with pytest.raises(ParamsMismatch):
        elem(P2, 1, 0, 0) + elem(CubicParams(3), 1, 0, 0)


def test_reflected_subtraction_negates():
    beta = elem(P2, 1, 2, 3)
    assert 5 - beta == -(beta - 5) == elem(P2, 4, -2, -3)


def test_foreign_operands_are_handed_back_to_python():
    # each operator returns NotImplemented for a type it does not take, so
    # Python falls back to identity for == and raises TypeError for + and -
    beta = elem(P2, 1, 2, 3)
    assert beta.__eq__("beta") is NotImplemented and beta != "beta"
    for op in (beta.__add__, beta.__sub__):
        assert op(Fraction(1, 2)) is NotImplemented
    with pytest.raises(TypeError):
        beta + Fraction(1, 2)
    with pytest.raises(TypeError):
        beta - Fraction(1, 2)


def test_alpha_inverse_closed_form():
    for a in (-20, -1, 0, 4, 33):
        params = CubicParams(a)
        inv = alpha(params).inverse()
        assert inv.coords == (-(a + 2), -(a - 1), 1)
        assert alpha(params) * inv == one(params)
        # the conjugate's inverse is -alpha^2 + a alpha + 1
        assert alpha2(params).inverse().coords == (1, a, -1)
        assert alpha2(params) * elem(params, 1, a, -1) == 1
    # inverses through the conjugates agree with the negated exponents;
    # unit monomials have norm 1, their negatives norm -1
    for a in (0, 1, -1, 1000, -1000):
        params = CubicParams(a)
        for i in range(-4, 5):
            for j in range(-4, 5):
                u = unit_monomial(i, j, params)
                assert u.inverse() == unit_monomial(-i, -j, params), (a, i, j)
                assert (-u).inverse() == -unit_monomial(-i, -j, params), (a, i, j)
    # norms 8 and 5: not units
    for c in ((2, 0, 0), (2, 1, 0)):
        with pytest.raises(ValueError):
            elem(P2, *c).inverse()
    with pytest.raises(ZeroDivisionError):
        elem(P2, 0, 0, 0).inverse()


def test_powers():
    al = alpha(P2)
    assert al**0 == one(P2)
    assert al**3 == al * al * al
    assert al**-2 == al.inverse() * al.inverse()
    assert al**5 * al**-5 == one(P2)


# ------------------------------------------------------------------- units


def test_conjugate_root_coordinates():
    assert alpha2(CubicParams(0)).coords == (1, -1, -1)
    assert alpha2(CubicParams(5)).coords == (6, 4, -1)


def test_conjugate_is_a_root_too():
    for a in (-7, 0, 2, 11):
        params = CubicParams(a)
        b = alpha2(params)
        assert b * b * b == (a - 1) * b * b + (a + 2) * b + one(params)


def test_root_product_is_one():
    # the three roots multiply to the (negated) constant term
    for a in (-5, 0, 2, 9):
        params = CubicParams(a)
        third = (alpha(params) * alpha2(params)).inverse()
        assert third * alpha(params) * alpha2(params) == one(params)
        assert all(type(c) is int for c in third.coords)


@given(small_a, st.integers(-6, 6), st.integers(-6, 6))
def test_unit_monomials_are_integral_units(a, i, j):
    params = CubicParams(a)
    u = unit_monomial(i, j, params)
    assert all(type(c) is int for c in u.coords)
    v = unit_monomial(-i, -j, params)
    assert u * v == one(params)


def test_unit_monomial_anchor():
    # alpha * alpha2^-1 expands to alpha^2 - (a+1) alpha - 1
    for a in (-3, 0, 2, 6):
        params = CubicParams(a)
        u = unit_monomial(1, -1, params)
        assert u.coords == (-1, -(a + 1), 1)
    # alpha^-1 = alpha^2 - (a-1) alpha - (a+2) and alpha2^-1 = -alpha^2 + a alpha + 1,
    # alpha^-2 = -(a+2) alpha^2 + (a^2+a-1) alpha + (a^2+3a+5)
    for a in (0, 1000):
        params = CubicParams(a)
        assert unit_monomial(-1, 0, params).coords == (-(a + 2), -(a - 1), 1)
        assert unit_monomial(0, -1, params).coords == (1, a, -1)
        assert unit_monomial(-2, 0, params).coords == (a * a + 3 * a + 5, a * a + a - 1, -(a + 2))
    for a in (0, 1, -1, 1000, -1000):
        params = CubicParams(a)
        for i in range(-6, 7):
            for j in range(-6, 7):
                assert unit_monomial(i, j, params) * unit_monomial(-i, -j, params) == 1, (a, i, j)


def test_unit_monomial_matches_object_powers(monkeypatch):
    # __wrapped__ skips the power cache, so every pair is computed afresh
    monkeypatch.setattr(cubic, "_generator_power", cubic._generator_power.__wrapped__)
    for a in (0, 1, 5, 10, 1000, -1000):
        params = CubicParams(a)
        powers1 = {i: alpha(params) ** i for i in range(-12, 13)}
        powers2 = {j: alpha2(params) ** j for j in range(-12, 13)}
        for i in range(-12, 13):
            for j in range(-12, 13):
                got = unit_monomial(i, j, params)
                assert got == powers1[i] * powers2[j], (a, i, j)
                assert all(type(c) is int for c in got.coords)


def test_unit_monomial_carries_the_callers_params():
    # the power cache is keyed by the integer a, so equal but distinct
    # params objects share its entries and each gets its own back
    first, second = CubicParams(7), CubicParams(7)
    u, v = unit_monomial(3, -2, first), unit_monomial(3, -2, second)
    assert u.params is first and v.params is second
    assert u.coords == v.coords


def test_power_caches_are_bounded():
    assert cubic._generator_power.cache_info().maxsize == 1 << 12


ORDER_AS = (0, 1, -1, 2, -2, 1000, -1000, 10**9, -(10**9))


@pytest.mark.parametrize("a", ORDER_AS)
def test_order_record_matches_the_reduction_written_out(a):
    # the product over the record's rows and the conjugate from its images
    # against cubic_reference's, which write out alpha^3 and sigma(alpha) in
    # a, on seeded random triples; and the record's images are sigma(alpha)
    # and sigma(alpha^2) by that reference
    order = cubic._order(a)
    assert order.images == (conjugate((0, 1, 0), a), conjugate((0, 0, 1), a))
    rng = random.Random(a)
    for _ in range(400):
        u, v = (tuple(rng.randint(-(10**6), 10**6) for _ in range(3)) for _ in range(2))
        assert cubic._mul_coords(u, v, order.rows) == mul_coords(u, v, a), (u, v)
        assert cubic._conjugate(u, order) == conjugate(u, a), u


def test_order_record_cache_is_bounded_and_keyed_by_the_parameter():
    assert cubic._order.cache_info().maxsize == 1 << 8
    cubic._order.cache_clear()
    try:
        for a in range(-200, 200):
            cubic._order(a)
        assert cubic._order.cache_info().currsize == 1 << 8
        assert cubic._order(5) is cubic._order(5)
        assert cubic._order(5) == cubic._order.__wrapped__(5)
    finally:
        cubic._order.cache_clear()


def test_large_exponents_bypass_the_power_cache():
    """Past |e| = 2^8 a power is computed afresh, by unit_monomial and by
    the evaluator alike: the same coordinates as the element's own
    powers, and the cache is neither read nor filled."""
    params = CubicParams(1000)
    e = (1 << 9) + 1
    before = cubic._generator_power.cache_info()
    got = unit_monomial(e, -e, params)
    rep = Representation(cubic_basis(params), {(0, 1, (e, -e)): 1})
    assert evaluate(rep, cubic_evaluator(params)) == got
    assert cubic._generator_power.cache_info() == before
    assert got == alpha(params) ** e * alpha2(params) ** -e


def _times_mod_minpoly(u, v, a):
    # Schoolbook product of two coordinate triples, then X^k is replaced by
    # (a-1) X^(k-1) + (a+2) X^(k-2) + X^(k-3) from the top degree down.
    prod = [0] * 5
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            prod[i + j] += x * y
    for k in (4, 3):
        top = prod.pop()
        prod[k - 1] += (a - 1) * top
        prod[k - 2] += (a + 2) * top
        prod[k - 3] += top
    return tuple(prod)


def test_unit_monomial_matches_polynomial_reduction(monkeypatch):
    # Independent of the rows and images in cubic._order and of
    # cubic._unit_inverse: powers are products of polynomials divided by
    # the minimal polynomial, and the inverses are the literal closed forms.
    # __wrapped__ skips the power cache, so every power is computed afresh.
    monkeypatch.setattr(cubic, "_generator_power", cubic._generator_power.__wrapped__)
    for a in (0, 1, 5, 10, 1000, -1000):
        params = CubicParams(a)

        def times(u, v):
            return _times_mod_minpoly(u, v, a)

        def powers(up, down):
            assert times(up, down) == (1, 0, 0)
            out = {0: (1, 0, 0)}
            for k in range(1, 13):
                out[k] = times(out[k - 1], up)
                out[-k] = times(out[-(k - 1)], down)
            return out

        powers1 = powers((0, 1, 0), (-(a + 2), -(a - 1), 1))
        powers2 = powers((a + 1, a - 1, -1), (1, a, -1))
        for i in range(-12, 13):
            for j in range(-12, 13):
                got = unit_monomial(i, j, params).coords
                assert got == times(powers1[i], powers2[j]), (a, i, j)


def test_three_relation_shape():
    rel = three_relation(P2)
    assert rel.n == 3
    assert rel.terms == ((0, (1, 2)), (0, (-2, -1)), (0, (1, -1)))


def test_three_relation_sums_to_three():
    for a in range(-50, 51):
        params = CubicParams(a)
        rel = three_relation(params)
        total = sum(
            (unit_monomial(r[0], r[1], params) for _, r in rel.terms),
            elem(params, 0, 0, 0),
        )
        assert total == elem(params, 3, 0, 0)


class _Poly:
    """An integer polynomial in a, by its coefficients from the constant
    up; just enough of a ring for the coordinate arithmetic in cubic."""

    def __init__(self, *coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @staticmethod
    def _of(x):
        return x.coeffs if isinstance(x, _Poly) else (x,)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        return _Poly(*(x + y for x, y in itertools.zip_longest(self.coeffs, self._of(other), fillvalue=0)))

    __radd__ = __add__

    def __neg__(self):
        return _Poly(*(-x for x in self.coeffs))

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._of(other)
        out = [0] * (len(self.coeffs) + len(other))
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other):
                out[i + j] += x * y
        return _Poly(*out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.coeffs == _Poly(*self._of(other)).coeffs


def test_three_relation_holds_over_z_a(monkeypatch):
    """The three monomials, computed as unit_monomial computes them but
    with a left an indeterminate, are the expected triples as polynomials:
    the identity holds for every integer a.  The order's record is built
    over Z[a] as well.  No coordinate that a product takes or gives, and
    no coordinate of the rows it reduces by, passes degree 2, within the
    THREE_RELATION_DEGREE that cubic-verify's D + 1 values rely on."""
    degrees = []
    mul = cubic._mul_coords

    def recorded(u, v, rows):
        out = mul(u, v, rows)
        degrees.extend(c.degree if isinstance(c, _Poly) else 0 for c in (*u, *v, *out, *rows[0], *rows[1]))
        return out

    monkeypatch.setattr(cubic, "_mul_coords", recorded)
    # __wrapped__ skips the record's and the power's caches, which cannot
    # hash a polynomial, so each record and power is built afresh over Z[a]
    monkeypatch.setattr(cubic, "_order", cubic._order.__wrapped__)
    a = _Poly(0, 1)
    power = cubic._generator_power.__wrapped__
    rows = cubic._order(a).rows
    got = tuple(recorded(power(False, i, a), power(True, j, a), rows) for _, (i, j) in three_relation(P2).terms)
    assert got == ((-a, 2 - a, 1), (a + 4, 2 * a - 1, -2), (-1, -a - 1, 1))
    assert tuple(map(sum, zip(*got))) == (3, 0, 0)
    assert max(degrees) == 2 <= cubic.THREE_RELATION_DEGREE


def test_three_relation_is_checked_on_every_call(monkeypatch):
    three_relation(P2)
    monkeypatch.setattr(cubic, "unit_monomial", lambda i, j, params: elem(params, 1, 0, 0))
    with pytest.raises(RelationBroken, match="a = 2"):
        three_relation(P2)


# ------------------------------------------------------------------- roots


def _approx(iv):
    lo, hi = iv
    return float((lo + hi) / 2)


def _fraction_scan_isolate(a):
    # Reference for cubic._isolate: scan [-bound, bound] from the left,
    # halving the step until three sign changes show; O(|a|) evaluations.
    # Grid points are rational, hence never roots.
    bound = 2 + max(abs(a - 1), abs(a + 2))
    step = Fraction(1)
    while True:
        intervals = []
        x = Fraction(-bound)
        fx = cubic_at(a, x)
        while x < bound and len(intervals) < 3:
            y = x + step
            fy = cubic_at(a, y)
            if (fx < 0) != (fy < 0):
                intervals.append((x, y))
            x, fx = y, fy
        if len(intervals) == 3:
            return intervals
        step /= 2


def _scan_isolate(a):
    # _fraction_scan_isolate's first pass, at step 1, on integers.  That
    # scan halves its step only when the pass finds fewer than three sign
    # changes, so when it finds three, as asserted, they are its answer.
    bound = 2 + max(abs(a - 1), abs(a + 2))
    intervals = []
    x, fx = -bound, cubic_at(a, -bound)
    while x < bound and len(intervals) < 3:
        fy = cubic_at(a, x + 1)
        if (fx < 0) != (fy < 0):
            intervals.append((Fraction(x), Fraction(x + 1)))
        x, fx = x + 1, fy
    assert len(intervals) == 3, a
    return intervals


def _unit_brackets(a):
    # Reference unit brackets in closed form.  f(-1) = 1 and f(0) = -1.
    # For a >= 0, f(-2) = -2a - 1; alpha lies in (a, a+1) for a >= 1, as
    # f(a) = -2a - 1 and f(a+1) = a(a+1) - 1, and in (1, 2) for a = 0.
    # For a <= -1, f(1) = -2a - 1 > 0; the smallest root lies in (a-1, a)
    # for a <= -2, as f(a-1) = 1 - a - a^2 and f(a) = -2a - 1, and in
    # (-3, -2) for a = -1.
    if a >= 1:
        lows = (-2, -1, a)
    elif a == 0:
        lows = (-2, -1, 1)
    elif a == -1:
        lows = (-3, -1, 0)
    else:
        lows = (a - 1, -1, 0)
    return [(Fraction(x), Fraction(x + 1)) for x in lows]


def test_root_brackets_match_the_grid_scan():
    for a in (*range(-200, 201), 1000, -1000):
        assert _unit_brackets(a) == _scan_isolate(a), a
        for (lo, hi), (u_lo, u_hi) in zip(cubic._isolate(a), _unit_brackets(a)):
            assert lo <= u_lo < u_hi <= hi, a


def test_integer_scan_matches_fraction_scan():
    for a in (*range(-12, 13), 37, -37, 200, -200):
        assert _scan_isolate(a) == _fraction_scan_isolate(a), a


def test_root_brackets_change_sign_for_huge_parameters():
    for a in (10**9, -(10**9)):
        brackets = cubic._isolate(a)
        assert brackets[0][1] <= brackets[1][0] and brackets[1][1] <= brackets[2][0]
        for lo, hi in brackets:
            assert (cubic_at(a, lo) < 0) != (cubic_at(a, hi) < 0)


def test_real_roots_anchor_values():
    r = real_roots(CubicParams(0), 40)
    assert [round(_approx(iv), 4) for iv in r] == [-1.8019, -0.4450, 1.2470]
    r = real_roots(CubicParams(1), 40)
    assert [round(_approx(iv), 4) for iv in r] == [-1.5321, -0.3473, 1.8794]


def test_real_roots_are_bracketing_intervals():
    for a in (-10, 0, 3, 25):
        params = CubicParams(a)
        ivs = real_roots(params, 50)
        assert len(ivs) == 3
        assert all(lo < hi for lo, hi in ivs)
        assert ivs[0][1] < ivs[1][0] < ivs[2][0]
        # largest root is positive
        assert ivs[2][0] > 0
        # Vieta: the sum of the roots is a - 1
        s_lo = sum(lo for lo, _ in ivs)
        s_hi = sum(hi for _, hi in ivs)
        assert s_lo <= a - 1 <= s_hi


def test_real_roots_refine_with_precision():
    p = CubicParams(37)
    first = real_roots(p, 20)
    fine = real_roots(p, 80)
    assert all(hi - lo == Fraction(1, 2**20) for lo, hi in first)
    assert all(hi - lo == Fraction(1, 2**80) for lo, hi in fine)
    assert all(f_lo <= lo <= hi <= f_hi for (lo, hi), (f_lo, f_hi) in zip(fine, first))
    # no state carries over from the finer call
    assert real_roots(p, 20) == first


def _fraction_bisection(a, bits):
    # Halve each reference unit bracket in Fractions until it is no wider
    # than 2^-bits; slow, so it only pins _unit_bisection on a sample.
    target = Fraction(1, 2**bits)
    out = []
    for lo, hi in _unit_brackets(a):
        neg_at_lo = cubic_at(a, lo) < 0
        while hi - lo > target:
            mid = (lo + hi) / 2
            if (cubic_at(a, mid) < 0) == neg_at_lo:
                lo = mid
            else:
                hi = mid
        out.append((lo, hi))
    return tuple(out)


def _unit_bisection(a, bits):
    # Reference for cubic._root_cell: bisect each reference unit bracket,
    # of width 1, on integers over 2^bits, down to width 2^-bits; the
    # midpoints are the Fraction bisection's, so the cells are too.
    return tuple(bisect_cell(a, (int(lo), int(hi)), bits) for lo, hi in _unit_brackets(a))


@pytest.mark.parametrize("bits", [0, 1, 2, 20, 64, 128, 160])
def test_unit_bisection_matches_fraction_bisection(bits):
    for a in (-60, -2, -1, 0, 1, 2, 37, 60, 1000, -(10**6)):
        assert _unit_bisection(a, bits) == _fraction_bisection(a, bits), a


@pytest.mark.parametrize("bits", [0, 1, 2, 20, 64, 128, 160])
def test_real_roots_match_fraction_bisection(bits):
    for a in (*range(-60, 61), 1000, -1000, 10**6, -(10**6)):
        assert real_roots(CubicParams(a), bits) == _unit_bisection(a, bits), a


NEWTON_AS = (*range(-3000, 3001, 7), 1, -1, 10**9, -(10**9))


@pytest.mark.parametrize("bits", [0, 1, 64, 128, 160, 1024])
def test_newton_cells_match_bisection(bits):
    # the reference costs bits + log2(|a| + 3) steps a root, so at 1024
    # bits it checks every 43rd a and the extremes; the cubic's signs at
    # the ends check every cell
    s = 1 << bits
    checked = set(NEWTON_AS if bits <= 160 else (*NEWTON_AS[::43], *NEWTON_AS[-4:]))
    for a in NEWTON_AS:
        for bracket in cubic._isolate(a):
            lo, hi = cubic._root_cell(a, bracket, bits)
            assert hi - lo == Fraction(1, s) and bracket[0] <= lo < hi <= bracket[1]
            ends = (cubic_at(a, int(e * s), s) < 0 for e in (lo, hi))
            assert next(ends) != next(ends), (a, bracket)
            if a in checked:
                assert (lo, hi) == bisect_cell(a, bracket, bits), (a, bracket)


def test_newton_steps_stay_logarithmic(monkeypatch):
    # a cell of 2^-4096 takes a few dozen evaluations of the cubic even at
    # a = 10^50, where bisection took 4096 + 167 for each root; at any
    # precision, a Newton point short of one grid step outside the bracket
    # must not creep along it a step at a time
    calls = []
    poly = cubic._poly_at

    def counted(*args):
        calls.append(args)
        return poly(*args)

    monkeypatch.setattr(cubic, "_poly_at", counted)
    for a in (5, -30000, 10**50, -(10**50)):
        for bits in (0, 64, 4096):
            for bracket in cubic._isolate(a):
                calls.clear()
                cubic._root_cell(a, bracket, bits)
                assert 1 < len(calls) <= 24, (a, bits, bracket, len(calls))


def test_cubic_basis_interval_hooks():
    b = cubic_basis(P2)
    a1_lo, a1_hi = b.abs_val[0](64)
    a2_lo, a2_hi = b.abs_val[1](64)
    assert 0 < a1_lo < a1_hi
    # |second root| = 1 + 1/alpha1: independent enclosures must overlap
    derived = (1 + 1 / a1_hi, 1 + 1 / a1_lo)
    assert max(a2_lo, derived[0]) <= min(a2_hi, derived[1])
    assert a2_hi - a2_lo < Fraction(1, 2**32)
    assert cubic_basis(P2) == b


def test_cubic_bases_compare_by_their_units():
    # a basis built past the cache is another object, equal by its units
    apart = cubic_basis.__wrapped__(P2)
    assert apart is not cubic_basis(P2)
    assert apart == cubic_basis(P2) and hash(apart) == hash(cubic_basis(P2))
    assert cubic_basis(P2) != cubic_basis(CubicParams(3))
    first = represent_unit_sums(elem(P2, 7, -4, 2))
    second = Representation(apart, dict(first.coeffs), first.steps)
    assert first.basis is not second.basis
    assert first == second and hash(first) == hash(second)


def test_cubic_basis_cache_is_bounded_and_keyed_by_the_parameter():
    assert cubic_basis.cache_info().maxsize == 1 << 8
    cubic_basis.cache_clear()
    try:
        for a in range(-200, 200):
            cubic_basis(CubicParams(a))
        assert cubic_basis.cache_info().currsize == 1 << 8
        # equal parameters give the same basis, equal to one built afresh
        assert cubic_basis(CubicParams(5)) is cubic_basis(CubicParams(5))
        assert cubic_basis(CubicParams(5)) == cubic_basis.__wrapped__(CubicParams(5))
        assert represent_unit_sums(elem(CubicParams(5), 9, -4, 2)).basis is cubic_basis(CubicParams(5))
    finally:
        cubic_basis.cache_clear()


def test_monotone_quantity_does_not_depend_on_earlier_calls():
    rep = represent_unit_sums(elem(CubicParams(3), 5, -4, 2))
    first = monotone_quantity(rep, 128)
    assert monotone_quantity(rep, 128) == first
    monotone_quantity(rep, 512)
    assert monotone_quantity(rep, 128) == first
    assert first[0] < first[1]


# --------------------------------------------------------- representations


def test_represent_three():
    rep = represent_unit_sums(elem(P2, 3, 0, 0))
    assert dict(rep.coeffs) == {
        (0, 1, (1, 2)): 1,
        (0, 1, (-2, -1)): 1,
        (0, 1, (1, -1)): 1,
    }


def test_represent_one_is_a_single_unit():
    rep = represent_unit_sums(elem(P2, 1, 0, 0))
    assert dict(rep.coeffs) == {(0, 1, (0, 0)): 1}


def test_represent_zero_is_empty():
    rep = represent_unit_sums(elem(P2, 0, 0, 0))
    assert not rep


def test_represent_mixed_coordinates():
    beta = elem(P2, 7, -4, 2)
    rep = represent_unit_sums(beta)
    assert max(rep.coeffs.values()) <= 2
    assert evaluate(rep, cubic_evaluator(P2)) == beta


def test_represent_rejects_non_integral_input():
    # elements of Z[alpha] cannot be built with non-integral coordinates
    with pytest.raises(ValueError):
        CubicElement(P2, Fraction(1, 2), 0, 0)
    with pytest.raises(ValueError):
        CubicElement(P2, 0, 2.5, 0)
    beta = CubicElement(P2, Fraction(4, 2), 0, 0)
    assert type(beta.c0) is int and beta.c0 == 2


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_coordinate_raises_value_error(bad):
    # int(inf) raises OverflowError; the constructor reports a ValueError
    # naming the coordinate, as for every other non-integral value
    with pytest.raises(ValueError, match="coordinate"):
        CubicElement(P2, bad, 0, 0)
    with pytest.raises(ValueError, match="coordinate"):
        CubicElement(P2, 0, 0, bad)


@pytest.mark.parametrize("bad", [2.5, Fraction(5, 2), "2", float("inf"), float("nan")])
def test_params_reject_non_integral_values(bad):
    with pytest.raises(ValueError, match="parameter"):
        CubicParams(bad)


def test_params_keep_exact_integers():
    assert CubicParams(Fraction(4, 2)) == P2
    assert type(CubicParams(Fraction(4, 2)).a) is int
    assert type(CubicParams(2.0).a) is int
    assert CubicParams(-1000).a == -1000


def test_represent_honors_policy():
    events = []
    pol = ReductionPolicy(on_step=lambda idx, t: events.append(t))
    rep = represent_unit_sums(elem(P2, 9, 0, 0), pol)
    assert sum(events) == rep.steps >= 1


@given(small_a, coord, coord, coord)
def test_represent_round_trips_with_small_coefficients(a, c0, c1, c2):
    params = CubicParams(a)
    beta = elem(params, c0, c1, c2)
    rep = represent_unit_sums(beta)
    assert all(v <= 2 for v in rep.coeffs.values())
    assert evaluate(rep, cubic_evaluator(params)) == beta


# both sign layers, negative exponents and, with up to 40 terms over 81
# values of j, several terms per conjugate exponent; the first example
# holds a term on each layer of one site
EVAL_COEFFS = st.dictionaries(
    st.tuples(st.integers(0, 1), st.just(1), st.tuples(st.integers(-40, 40), st.integers(-40, 40))),
    st.integers(1, 10**6),
    max_size=40,
)
EVAL_PARAMS = st.sampled_from([-1000, -3, 0, 2, 1000])


@settings(max_examples=200)
@given(EVAL_PARAMS, EVAL_COEFFS)
@example(2, {(0, 1, (3, -5)): 7, (1, 1, (3, -5)): 7})  # the two layers cancel
@example(-1000, {(0, 1, (40, 40)): 10**6, (1, 1, (-40, 40)): 1, (0, 1, (-40, -40)): 2})
def test_cubic_evaluator_matches_per_term_sums(a, coeffs):
    params = CubicParams(a)
    rep = Representation(cubic_basis(params), coeffs)
    got = evaluate(rep, cubic_evaluator(params))
    want = evaluate_by_terms(rep, cubic_term(params))
    assert type(got) is type(want)
    assert got == want
    if rep:
        assert got.params is params
        assert all(type(c) is int for c in got.coords)


@pytest.mark.parametrize("a", [-1000, -3, 0, 2, 1000])
def test_cubic_evaluator_gives_int_zero_on_the_empty_representation(a):
    params = CubicParams(a)
    rep = Representation(cubic_basis(params), {})
    for value in (evaluate(rep, cubic_evaluator(params)), evaluate_by_terms(rep, cubic_term(params))):
        assert type(value) is int and value == 0


# -------------------------------------------------------------------- json


def test_element_json_round_trip():
    beta = elem(P2, 7, -4, 2)
    doc = element_to_json(beta)
    assert doc == {"a": "2", "coords": ["7", "-4", "2"]}
    assert element_from_json(doc) == beta
    assert element_from_json({"a": 2, "coords": [7, "-4", 2]}) == beta


@pytest.mark.parametrize(
    "doc",
    [
        {"a": 2.5, "coords": ["1", "0", "0"]},
        {"a": True, "coords": ["1", "0", "0"]},
        {"a": None, "coords": ["1", "0", "0"]},
        {"a": "2", "coords": [1.5, "0", "0"]},
        {"a": "2", "coords": ["1", 0.0, "0"]},
        {"a": "2", "coords": ["1", "0", False]},
    ],
)
def test_element_json_rejects_non_integer_fields(doc):
    # {"a": 2.5, "coords": [1.5, 0, 0]} was read as a = 2, coordinates (1, 0, 0)
    with pytest.raises(ValueError, match="not an integer"):
        element_from_json(doc)


@pytest.mark.parametrize(
    "doc, what",
    [
        ({"a": "2", "coords": "123"}, "coords is not a JSON array"),
        ({"a": "2", "coords": {"0": "1"}}, "coords is not a JSON array"),
        ({}, "missing field 'a'"),
        ({"a": "2"}, "missing field 'coords'"),
        (None, "the document is not a JSON object"),
        (["2", ["1", "0", "0"]], "the document is not a JSON object"),
        ({"a": "2", "coords": ["1", "0"]}, "coords holds 2 values, not 3"),
        ({"a": "2", "coords": ["1", "0", "0", "0"]}, "coords holds 4 values, not 3"),
    ],
)
def test_element_json_rejects_malformed_documents(doc, what):
    # the string "123" was read as the coordinates (1, 2, 3), and the
    # other documents raised KeyError, TypeError or an unpacking error
    with pytest.raises(ValueError, match=what):
        element_from_json(doc)


# -------------------------------------------------------------- pile cache

PILE_A = st.sampled_from([-1000, -3, 0, 2, 1000])
pile_coord = st.integers(-400, 400)
pile_elements = st.lists(st.tuples(PILE_A, pile_coord, pile_coord, pile_coord), min_size=1, max_size=4)


def _outcome(call):
    """The representation and its steps, or the class and message of
    the error the call raised."""
    try:
        rep = call()
    except Exception as exc:
        return type(exc), str(exc)
    return dict(rep.coeffs), rep.steps


@given(pile_elements, st.booleans())
@example([(2, 400, -400, 400), (2, 399, 401, -400), (-1000, 0, 0, 400)], True)
def test_represent_matches_one_reduce_over_the_seed(elements, cold):
    # one call may reduce a magnitude, and a later one start from it
    if cold:
        cubic._PILES.clear()
    for a, c0, c1, c2 in elements:
        beta = elem(CubicParams(a), c0, c1, c2)
        rep = represent_unit_sums(beta)
        want = represent_by_one_reduce(beta)
        assert rep == want and rep.steps == want.steps, beta
        assert rep.basis == cubic_basis(beta.params)


CAPPED = [
    elem(P2, 300, -300, 300),  # one magnitude three times
    elem(CubicParams(-1000), 90, 80, -70),
    elem(CubicParams(3), 12, -7, 5),
    elem(CubicParams(1000), 0, 0, 401),
]


@pytest.mark.parametrize("beta", CAPPED, ids=repr)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_step_cap_raises_as_one_reduce_does(beta, warm):
    steps = represent_by_one_reduce(beta).steps
    for cap in (steps - 1, steps, steps + 1):
        cubic._PILES.clear()
        if warm:
            represent_unit_sums(beta)
        policy = ReductionPolicy(max_steps=cap)
        got = _outcome(lambda: represent_unit_sums(beta, policy))
        assert got == _outcome(lambda: represent_by_one_reduce(beta, policy)), cap
        assert (got[0] is IterationCapExceeded) == (cap < steps)


@pytest.fixture
def budgets(monkeypatch):
    """The step budget of each kernel call made after the fixture is set up."""
    seen = []
    stabilize = engine._stabilize

    def spy(coeffs, basis, rel, cap, *rest):
        seen.append(cap)
        return stabilize(coeffs, basis, rel, cap, *rest)

    monkeypatch.setattr(engine, "_stabilize", spy)
    return seen


def test_step_cap_below_a_cached_pile_raises_at_once(budgets):
    cubic._PILES.clear()
    pile = represent_unit_sums(elem(P2, 1000, 0, 0))
    budgets.clear()
    beta = elem(P2, 0, -1005, 0)
    policy = ReductionPolicy(max_steps=pile.steps - 1)
    got = _outcome(lambda: represent_unit_sums(beta, policy))
    assert budgets == []
    assert got == _outcome(lambda: represent_by_one_reduce(beta, policy))
    assert got == (IterationCapExceeded, f"reduction exceeded {pile.steps - 1} replacement steps")


def test_one_magnitude_three_times_runs_the_kernel_once(budgets):
    cubic._PILES.clear()
    beta = elem(P2, 300, -300, 300)
    rep = represent_unit_sums(beta)
    assert len(budgets) == 1
    assert rep == represent_by_one_reduce(beta) and rep.steps == 3 * represent_unit_sums(elem(P2, 300, 0, 0)).steps


def test_first_kernel_budget_counts_every_coordinates_cached_pile(budgets):
    """Each coordinate's start is read before the first kernel run, so
    that run is not handed steps that the larger coordinates' cached
    piles already spend; a capped call then stops as soon as it can."""
    cubic._PILES.clear()
    pile = represent_unit_sums(elem(P2, 3000, 0, 0))
    budgets.clear()
    cap = ReductionPolicy().max_steps
    assert 3 * pile.steps < cap
    with pytest.raises(IterationCapExceeded, match=f"exceeded {cap} replacement"):
        represent_unit_sums(elem(P2, 9000, 9100, 9200))
    assert budgets == [cap - 3 * pile.steps]


@pytest.mark.parametrize("how", ["reduce", "cold", "warm"])
def test_step_cap_error_holds_no_kernel_frame(how):
    """The kernel hands its budget back, and the caller raises, so the
    traceback keeps none of the kernel's state alive."""
    cubic._PILES.clear()
    if how == "warm":
        represent_unit_sums(elem(P2, 1000, 0, 0))
    call = represent_by_one_reduce if how == "reduce" else represent_unit_sums
    with pytest.raises(IterationCapExceeded) as info:
        call(elem(P2, 3000, 0, 0), ReductionPolicy(max_steps=10**5))
    frames = [frame.name for frame in traceback.extract_tb(info.value.__traceback__)]
    assert frames[-1] == ("reduce" if how == "reduce" else "represent_unit_sums")
    assert "_stabilize" not in frames


@pytest.mark.parametrize("cap", [0, -1, -10**6])
def test_nonpositive_cap_passes_inputs_that_never_fire(cap):
    policy = ReductionPolicy(max_steps=cap)
    for c0, c1, c2 in [(2, -2, 1), (0, 0, 0), (-1, 2, 0)]:
        beta = elem(P2, c0, c1, c2)
        rep = represent_unit_sums(beta, policy)
        assert rep == represent_by_one_reduce(beta) and rep.steps == 0
    beta = elem(P2, 3, 0, 0)
    assert _outcome(lambda: represent_unit_sums(beta, policy)) == (
        IterationCapExceeded,
        f"reduction exceeded {cap} replacement steps",
    )


def test_on_step_reports_every_firing_with_a_warm_cache():
    beta = elem(CubicParams(5), 250, -250, 120)
    represent_unit_sums(beta)
    events = []
    rep = represent_unit_sums(beta, ReductionPolicy(on_step=lambda idx, t: events.append(t)))
    assert sum(events) == rep.steps == represent_by_one_reduce(beta).steps
    assert rep == represent_by_one_reduce(beta)


def test_pile_steps_are_checked_against_the_invariant(monkeypatch):
    """A kernel that returned a pile one chip off is caught by the step
    invariant, and the pile is not stored."""
    stabilize = engine._stabilize

    def one_chip_off(*args):
        pile, more = stabilize(*args)
        site = next(key for key in pile if key[2] != (0, 0))
        return {**pile, site: pile[site] + 1}, more

    monkeypatch.setattr(cubic, "_PILES", cubic._PileCache(max_sites=400))
    monkeypatch.setattr(engine, "_stabilize", one_chip_off)
    with pytest.raises(VerificationFailed, match=r"^S\(50\) of .* holds \d+ / 3 steps, not 0 \+ \d+$"):
        represent_unit_sums(elem(P2, 50, 0, 0))
    assert cubic._PILES.piles == {}


def test_relation_is_checked_on_a_cache_hit(monkeypatch):
    beta = elem(P2, 40, 40, -40)
    represent_unit_sums(beta)
    monkeypatch.setattr(cubic, "unit_monomial", lambda i, j, params: elem(params, 1, 0, 0))
    with pytest.raises(RelationBroken, match="a = 2"):
        represent_unit_sums(beta)


@pytest.mark.parametrize("n", [941, 942, 951, 960])
def test_continuing_a_pile_unpacks_only_the_sites_that_moved(monkeypatch, n):
    """With S(940) cached, a call at n hands the kernel the orbit
    representatives of S(940) plus n - 940 chips at the seed.  Its list
    storage starts from that input and unpacks at most the I + 1 sites
    each fired orbit can change and, once more, each fired site, whose
    targets the table sends to their representatives; never the whole
    pile."""
    cubic._PILES.clear()
    represent_unit_sums(elem(P2, 940, 0, 0))
    calls, unpacked = [], []
    stabilize = engine._stabilize

    def recorded(coeffs, *rest):
        calls.append((coeffs, stabilize(coeffs, *rest)))
        return calls[-1][1]

    monkeypatch.setattr(engine, "_stabilize", recorded)
    one, many = engine._Box.unpack, engine._Box.unpacked
    monkeypatch.setattr(engine._Box, "unpack", lambda box, site: unpacked.append(1) or one(box, site))
    monkeypatch.setattr(engine._Box, "unpacked", lambda box, sites: unpacked.append(len(sites)) or many(box, sites))
    rep = represent_unit_sums(elem(P2, n, 0, 0))
    monkeypatch.undo()
    assert rep == represent_by_one_reduce(elem(P2, n, 0, 0))
    [(start, (out, _))] = calls
    # the orbits that fired, read off a plain run of the whole input
    whole, fired = {}, set()
    cubic._place(whole, start, 0, 0)
    rel = three_relation(P2)
    engine._stabilize(whole, rep.basis, rel, 10**6, lambda index, t: fired.add(cubic._fold(index[2])[0]))
    # and the output keys that are not the input's own were built for those
    given = {id(key) for key in start}
    built = sum(id(key) not in given for key in out)
    assert len(whole) > 500
    assert built <= sum(unpacked) <= (rel.I + 2) * len(fired) < len(start)


def test_each_pile_stores_a_twelfth_of_its_magnitude():
    """S(n) keeps the weight n, as the relation has as many terms as its
    right side, and a stable count of at most 2 stands for an orbit of at
    most 6 sites; so it stores at least ceil(n / 12) representatives, and
    the cache's 2^18 sites hold at most 2,502 piles."""
    piles = cubic._PILES
    piles.clear()
    for n in range(1, 601):
        represent_unit_sums(elem(P2, n, 0, 0))
        pile = piles.piles[n][1]
        sizes = [cubic._fold(x)[1] for (_, _, x) in pile]
        assert sum(c * size for c, size in zip(pile.values(), sizes)) == n
        assert max(pile.values()) <= 2 and max(sizes) <= 6
        assert len(pile) >= -(-n // 12)
    assert sum(-(-n // 12) for n in range(1, 2503)) <= 1 << 18 < sum(-(-n // 12) for n in range(1, 2504))


def test_pile_cache_bounds_hold_after_many_magnitudes():
    piles = cubic._PILES
    assert piles.max_sites == 1 << 18
    piles.clear()
    # a pile of n chips holds about 0.6 n sites, stored as about 0.11 n
    # orbit representatives, so these hold about 391,000 stored sites in
    # all, more than the site bound; each call continues from the last pile
    for n in range(1400, 3000):
        represent_unit_sums(elem(P2, n, 0, 0))
    # the site bound holds the piles to 2,502 (see the test above)
    assert len(piles.piles) <= 2502
    assert piles.sites == sum(len(pile) for _, pile in piles.piles.values()) <= piles.max_sites
    assert piles.sites > piles.max_sites - 1200
    assert piles.sizes == sorted(piles.piles)
    # the oldest piles went first
    assert 1400 not in piles.piles and 2999 in piles.piles
    # the kernel's rules of the representatives that fired stay bounded too
    gains = engine._gains.cache_info()
    assert gains.maxsize == 1 << 10 and gains.currsize <= gains.maxsize


def _line(sites):
    """A stand-in pile of the given number of sites."""
    return {(0, 1, (i, 0)): 1 for i in range(sites)}


def test_pile_cache_evicts_the_least_recently_used_pile():
    cache = cubic._PileCache(max_sites=5)
    for n in (1, 2, 3):
        cache.store(n, 0, {(0, 1, (0, 0)): n})
    assert cache.floor(2)[0] == 2  # 2 is now the most recently used
    cache.store(4, 0, _line(3))  # 6 sites: 1 goes
    assert sorted(cache.piles) == [2, 3, 4]
    assert cache.floor(1) == (0, 0, {})
    cache.store(9, 7, _line(2))  # 7 sites: 3 goes, then 2
    assert cache.sizes == [4, 9] and cache.sites == 5
    assert cache.floor(20) == (9, 7, _line(2))
    cache.store(10, 8, _line(6))  # larger than the site bound alone
    assert cache.sizes == [4, 9] and cache.sites == 5


def test_a_stored_pile_never_changes():
    """A continuation starts from a copy of the stored pile, and a repeat
    reads it on either sign and in any coordinate without writing it."""
    piles = cubic._PILES
    piles.clear()
    represent_unit_sums(elem(P2, 700, 0, 0))
    steps, pile = piles.piles[700]
    snapshot = dict(pile)
    represent_unit_sums(elem(P2, 0, 0, -731))  # continues S(700)
    assert sorted(piles.piles) == [700, 731]
    represent_unit_sums(elem(P2, -700, 0, 700))
    represent_unit_sums(elem(P2, 0, 700, -700))
    assert piles.piles[700] == (steps, snapshot) and piles.piles[700][1] is pile


def test_pile_cache_is_shared_safely_across_threads(monkeypatch):
    # a small cache, so that the threads evict each other's piles: the 52
    # magnitudes below store 317 sites, and 40 hold about five piles
    monkeypatch.setattr(cubic, "_PILES", cubic._PileCache(max_sites=40))
    rng = random.Random(7)
    elements = [
        elem(CubicParams(rng.choice([-3, 0, 2])), *(rng.randint(-60, 60) for _ in range(3))) for _ in range(40)
    ]
    want = [represent_by_one_reduce(beta) for beta in elements]
    errors = []

    def work(order):
        try:
            for k in order:
                rep = represent_unit_sums(elements[k])
                if rep != want[k] or rep.steps != want[k].steps:
                    errors.append(elements[k])
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(rng.sample(range(40), 40) * 4,)) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    piles = cubic._PILES
    assert piles.sizes == sorted(piles.piles)
    assert piles.sites == sum(len(pile) for _, pile in piles.piles.values()) <= piles.max_sites
    # every magnitude was stored once, and most of them went again
    magnitudes = {abs(c) for beta in elements for c in beta.coords if c}
    assert len(piles.piles) < len(magnitudes) == 52


@settings(max_examples=40)
@given(PILE_A, pile_coord, pile_coord, pile_coord)
def test_piles_keep_their_coset_centre_and_the_step_invariant(a, c0, c1, c2):
    beta = elem(CubicParams(a), c0, c1, c2)
    rep = represent_unit_sums(beta)
    mass = [[0, 0, 0] for _ in range(3)]  # per coset: chips, sum c*i, sum c*j
    square = 0
    for (k, _, (i, j)), c in rep.coeffs.items():
        t = (i + j) % 3
        assert k == (beta.coords[t] < 0)
        mass[t][0] += c
        mass[t][1] += c * i
        mass[t][2] += c * j
        square += c * (i * i + j * j)
    for t, c in enumerate(beta.coords):
        assert mass[t] == [abs(c), t * abs(c), 0]
    assert 12 * rep.steps == square - sum(abs(c) * t * t for t, c in enumerate(beta.coords))
    # nothing of it depends on a, or on the signs
    other = represent_unit_sums(elem(CubicParams(a + 1), abs(c0), -abs(c1), c2))
    assert other.steps == rep.steps
    assert {x: c for (_, _, x), c in other.coeffs.items()} == {x: c for (_, _, x), c in rep.coeffs.items()}


def _fired_orbits(m, n):
    """The representatives of the sites that fire when S(m) takes n - m
    more chips at (0, 0), read off a plain, uncached run."""
    pile = dict(represent_by_one_reduce(elem(P2, m, 0, 0)).coeffs) if m else {}
    pile[(0, 1, (0, 0))] = pile.get((0, 1, (0, 0)), 0) + n - m
    fired = set()
    policy = ReductionPolicy(on_step=lambda index, t: fired.add(cubic._fold(index[2])[0]))
    engine.reduce(Representation(cubic_basis(P2), pile), three_relation(P2), policy)
    return fired


# (m, n): S(n) cold when m = 0, else continued from a cached S(m)
EDGE_RUNS = [(0, 24), (20, 30)]


@pytest.mark.parametrize("m, n", EDGE_RUNS)
def test_small_runs_fire_the_origin_and_both_edges_of_the_domain(m, n):
    """The examples of the differential below fire the origin, a site
    on each mirror ray i = 2 j and j = 2 i, the edges of the domain of
    representatives, and a site between them, whose orbits hold 1, 3, 3
    and 6 sites."""
    fired = _fired_orbits(m, n)
    assert (0, 0) in fired
    assert any(i == 2 * j for i, j in fired if i)
    assert any(j == 2 * i for i, j in fired if j)
    assert any(i != 2 * j and j != 2 * i for i, j in fired)


@settings(max_examples=30, deadline=None)
@given(PILE_A, st.integers(0, 3000), st.integers(0, 3000), st.integers(0, 2), st.sampled_from([1, -1]))
@example(2, EDGE_RUNS[0][1], EDGE_RUNS[0][0], 0, 1)
@example(-3, EDGE_RUNS[1][1], EDGE_RUNS[1][0], 2, -1)
@example(2, 2805, 990, 1, 1)
@example(1000, 3000, 0, 0, -1)
def test_orbit_piles_match_one_reduce(a, n, m, t, sign):
    """A magnitude n up to 3000 on coordinate t, reduced cold (m = 0),
    continued from a cached S(m) with m < n, or read from the cache
    (m = n), gives the plain run's output and steps."""
    cubic._PILES.clear()
    m = min(m, n)
    if m:
        represent_unit_sums(elem(CubicParams(a), 0, m, 0))
    coords = [0, 0, 0]
    coords[t] = sign * n
    beta = elem(CubicParams(a), *coords)
    rep = represent_unit_sums(beta)
    want = represent_by_one_reduce(beta)
    assert rep == want and rep.steps == want.steps


@settings(max_examples=20, deadline=None)
@given(pile_elements)
def test_stored_piles_expand_to_invariant_piles_about_the_seed(elements):
    """Each cached pile holds one site per orbit, on the orbit's
    representative in F, with counts 1 and 2.  Expanded, it is invariant
    under sigma and tau, holds its n chips with centre of mass (0, 0),
    and its steps satisfy 12 steps = sum c (i^2 + j^2)."""
    for a, c0, c1, c2 in elements:
        represent_unit_sums(elem(CubicParams(a), c0, c1, c2))
    for n, (steps, stored) in cubic._PILES.piles.items():
        assert all(k == 0 and ell == 1 for k, ell, _ in stored)
        in_f = [i == j == 0 or (i >= 1 and j >= 1 and i <= 2 * j and j <= 2 * i) for _, _, (i, j) in stored]
        assert all(in_f) and set(stored.values()) <= {1, 2}
        assert len({x for _, _, x in stored}) == len(stored)
        out = {}
        cubic._place(out, stored, 0, 0)
        pile = {x: c for (_, _, x), c in out.items()}
        assert all(pile.get((-j, i - j)) == c for (i, j), c in pile.items())
        assert all(pile.get((-j, -i)) == c for (i, j), c in pile.items())
        assert sum(pile.values()) == n
        assert sum(c * i for (i, _), c in pile.items()) == sum(c * j for (_, j), c in pile.items()) == 0
        assert 12 * steps == sum(c * (i * i + j * j) for (i, j), c in pile.items())
