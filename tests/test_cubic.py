"""Simplest cubic fields: exact ring arithmetic, units, roots, and the
coefficient-2 unit-sum representations."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from unitsum import (
    CubicElement,
    CubicParams,
    ParamsMismatch,
    ReductionPolicy,
    RelationBroken,
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
from unitsum import cubic
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


def test_unit_monomial_matches_object_powers():
    # __wrapped__ skips the cache, so every pair is computed afresh
    for a in (0, 1, 5, 10, 1000, -1000):
        params = CubicParams(a)
        powers1 = {i: alpha(params) ** i for i in range(-12, 13)}
        powers2 = {j: alpha2(params) ** j for j in range(-12, 13)}
        for i in range(-12, 13):
            for j in range(-12, 13):
                got = unit_monomial.__wrapped__(i, j, params)
                assert got == powers1[i] * powers2[j], (a, i, j)
                assert all(type(c) is int for c in got.coords)


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


def test_unit_monomial_matches_polynomial_reduction():
    # Independent of the inlined reduction in cubic._mul_coords and of
    # CubicElement.inverse: powers are products of polynomials divided by
    # the minimal polynomial, and the inverses are the literal closed forms.
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
                got = unit_monomial.__wrapped__(i, j, params)
                assert got.coords == times(powers1[i], powers2[j]), (a, i, j)


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


def test_three_relation_is_checked_on_every_call(monkeypatch):
    three_relation(P2)
    monkeypatch.setattr(cubic, "unit_monomial", lambda i, j, params: elem(params, 1, 0, 0))
    with pytest.raises(RelationBroken, match="a = 2"):
        three_relation(P2)


# ------------------------------------------------------------------- roots


def _approx(iv):
    lo, hi = iv
    return float((lo + hi) / 2)


def _scan_isolate(a):
    # Reference for cubic._isolate: scan [-bound, bound] from the left,
    # halving the step until three sign changes show; O(|a|) evaluations.
    # Grid points are rational, hence never roots.
    bound = 2 + max(abs(a - 1), abs(a + 2))
    step = Fraction(1)
    while True:
        intervals = []
        x = Fraction(-bound)
        fx = cubic._poly_at(a, x)
        while x < bound and len(intervals) < 3:
            y = x + step
            fy = cubic._poly_at(a, y)
            if (fx < 0) != (fy < 0):
                intervals.append((x, y))
            x, fx = y, fy
        if len(intervals) == 3:
            return intervals
        step /= 2


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


def test_root_brackets_change_sign_for_huge_parameters():
    for a in (10**9, -(10**9)):
        brackets = cubic._isolate(a)
        assert brackets[0][1] <= brackets[1][0] and brackets[1][1] <= brackets[2][0]
        for lo, hi in brackets:
            assert (cubic._poly_at(a, lo) < 0) != (cubic._poly_at(a, hi) < 0)


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
    # Reference for cubic._bisect: halve each reference unit bracket in
    # Fractions until it is no wider than 2^-bits.
    target = Fraction(1, 2**bits)
    out = []
    for lo, hi in _unit_brackets(a):
        neg_at_lo = cubic._poly_at(a, lo) < 0
        while hi - lo > target:
            mid = (lo + hi) / 2
            if (cubic._poly_at(a, mid) < 0) == neg_at_lo:
                lo = mid
            else:
                hi = mid
        out.append((lo, hi))
    return tuple(out)


@pytest.mark.parametrize("bits", [0, 1, 2, 20, 64, 128, 160])
def test_real_roots_match_fraction_bisection(bits):
    for a in (*range(-60, 61), 1000, -1000, 10**6, -(10**6)):
        assert real_roots(CubicParams(a), bits) == _fraction_bisection(a, bits), a


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
    assert cubic_basis(P2) == cubic_basis(P2)
    assert hash(cubic_basis(P2)) == hash(cubic_basis(P2))
    assert cubic_basis(P2) != cubic_basis(CubicParams(3))
    beta = elem(P2, 7, -4, 2)
    first, second = represent_unit_sums(beta), represent_unit_sums(beta)
    assert first.basis is not second.basis
    assert first == second and hash(first) == hash(second)


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
