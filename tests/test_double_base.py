"""Signed and extended double-base expansions over integer base pairs."""

import hashlib
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from db_reference import (
    balanced_ternary_by_division,
    claim_reduce_by_heap,
    evaluate_by_power_sums,
    greedy_seed_by_grid_scan,
    least_exponents_by_trial,
    lowest_terms_by_division,
    valuation_by_division,
)

from unitsum import (
    BasePair,
    ExtendedExpansion,
    ExtendedRelation,
    PQRational,
    RelationInvalid,
    InvalidExpansion,
    NoRelationFound,
    PlainRelation,
    SignedExpansion,
    balanced_ternary,
    double_base,
    evaluate_expansion,
    expand,
    expand_extended,
    expand_with_stats,
    expansion_from_json,
    expansion_to_json,
    greedy_seed,
    p_adic_digits,
    pq_rational,
    rational_basis,
    to_unit_relation,
    weight,
)
from unitsum.double_base import _checked, _claim_reduce, _valuation
from unitsum.documents import document_ints
from unitsum.relations import find_extended_relation, find_plain_relation

B523 = BasePair(5, 23)


def test_base_pair_validation():
    with pytest.raises(ValueError):
        BasePair(5, 5)
    with pytest.raises(ValueError):
        BasePair(6, 10)  # common factor
    with pytest.raises(ValueError):
        BasePair(1, 7)


@pytest.mark.parametrize(
    "p, q", [(5.5, 23), (5, 23.9), (Fraction(11, 2), 23), ("5", 23), (float("inf"), 23), (5, float("nan"))]
)
def test_base_pair_rejects_non_integral_bases(p, q):
    # truncating would silently pick another pair: BasePair(5.5, 23.9) was (5, 23)
    with pytest.raises(ValueError, match="base"):
        BasePair(p, q)


def test_base_pair_keeps_exact_integers():
    b = BasePair(Fraction(10, 2), 23.0)
    assert b == B523
    assert type(b.p) is int and type(b.q) is int


def test_p_adic_digits():
    assert p_adic_digits(997, 5) == [2, 4, 4, 2, 1]
    assert p_adic_digits(0, 5) == []
    assert p_adic_digits(4, 5) == [4]


@given(st.integers(0, 10**12), st.sampled_from([2, 3, 5, 7, 23]))
def test_p_adic_digits_round_trip(n, p):
    ds = p_adic_digits(n, p)
    assert all(0 <= d < p for d in ds)
    assert sum(d * p**i for i, d in enumerate(ds)) == n
    if ds:
        assert ds[-1] != 0


def test_p_adic_digits_rejects_bad_input():
    with pytest.raises(ValueError, match="value must be at least 0"):
        p_adic_digits(-1, 5)
    with pytest.raises(ValueError, match="base must be at least 2"):
        p_adic_digits(7, 1)


def _digits_by_division(n, p):
    # one divmod per digit: the pin for the chunked reference below
    out = []
    while n:
        n, r = divmod(n, p)
        out.append(r)
    return out


def _digits_by_chunks(n, p):
    # one divmod by p^t, the largest power of p below 2^60, then t small
    # ones on the remainder: the digits the split must reproduce, with
    # about t times fewer divisions of the whole number than one per digit
    t, pt = 1, p
    while pt * p < 1 << 60:
        t, pt = t + 1, pt * p
    out = []
    while n:
        n, r = divmod(n, pt)
        for _ in range(t):
            r, d = divmod(r, p)
            out.append(d)
    while out and not out[-1]:
        out.pop()
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 11, 23, 10**6 + 3])
def test_p_adic_digits_match_division(p):
    # exponents around the split points p^(2^k) and the loop's bit limit,
    # then random sizes past 65536 bits
    rng = random.Random(p)
    exponents = {1, 2, 3} | {2**j + e for j in range(2, 15) for e in (-1, 0, 1)}
    exponents |= {rng.randrange(1, 1 << 14) for _ in range(8)}
    values = [p**k + d for k in sorted(exponents) if (p**k).bit_length() <= 8192 for d in (-1, 0, 1)]
    values += [rng.getrandbits(rng.randrange(1, 70_001)) for _ in range(2)] + [rng.getrandbits(70_000)]
    for n in values:
        expected = _digits_by_chunks(n, p)
        if n.bit_length() <= 8192:
            assert expected == _digits_by_division(n, p), (p, n.bit_length())
        assert p_adic_digits(n, p) == expected, (p, n.bit_length())


def test_balanced_ternary():
    assert balanced_ternary(5) == [-1, -1, 1]
    assert balanced_ternary(0) == []
    assert balanced_ternary(2) == [-1, 1]


@given(st.integers(-10**9, 10**9))
def test_balanced_ternary_round_trip(n):
    ds = balanced_ternary(n)
    assert all(d in (-1, 0, 1) for d in ds)
    assert sum(d * 3**i for i, d in enumerate(ds)) == n


@given(st.integers(-(10**40), 10**40))
@example(3**40 - 1)  # all 2s: the carry runs the whole length
@example(-(3**40 - 1) // 2)  # all 1s
def test_balanced_ternary_matches_division(n):
    assert balanced_ternary(n) == balanced_ternary_by_division(n)


@pytest.mark.parametrize("bits", [1 << 12, 1 << 16])
def test_balanced_ternary_matches_division_at_scale(bits):
    rng = random.Random(bits)
    k = int(bits / 1.585)  # 3^k has about this many bits
    # the reference takes about 0.9 s per value at 2^16 bits
    values = [-rng.getrandbits(bits)]
    if bits <= 1 << 12:
        values += [rng.getrandbits(bits), (3**k - 1) // 2, -(3**k - 1) // 2]
        values += [s * (3**k + d) for s in (1, -1) for d in (-1, 0, 1)]
    for n in values:
        assert balanced_ternary(n) == balanced_ternary_by_division(n), n.bit_length()


def _from_digits(ds, b):
    # sum d * b^i over the digit list by halves: Horner's rule is
    # quadratic at 2^18 bits
    if len(ds) <= 32:
        return sum(d * b**i for i, d in enumerate(ds))
    half = len(ds) // 2
    return _from_digits(ds[:half], b) + b**half * _from_digits(ds[half:], b)


def test_balanced_ternary_round_trip_at_2_18_bits():
    bits = 1 << 18
    n = random.Random(bits).getrandbits(bits) | 1 << (bits - 1)
    for v in (n, -n):
        ds = balanced_ternary(v)
        assert set(ds) <= {-1, 0, 1} and ds[-1] != 0
        assert _from_digits(ds, 3) == v


@given(
    st.integers(-(10**20), 10**20).filter(bool),
    st.sampled_from([2, 3, 5, 7, 23]),
    st.integers(0, 80),
)
def test_valuation_matches_division(m, p, k):
    n = m * p**k
    assert _valuation(n, p) == valuation_by_division(n, p)


@pytest.mark.parametrize("bits", [1 << 12, 1 << 16])
def test_valuation_matches_division_at_scale(bits):
    rng = random.Random(bits)
    for s, p in ((1, 2), (-1, 3), (1, 5), (-1, 23)):
        k = bits // (4 * p.bit_length())  # p^k fills about a quarter of the bits
        n = s * p**k * (rng.getrandbits(bits - k * p.bit_length()) | 1)
        assert _valuation(n, p) == valuation_by_division(n, p), (p, bits)


def test_valuation_splits_a_remainder_sized_by_the_valuation(monkeypatch):
    # the whole 65536-bit |n| was split into digits, 11 ms for 5 * m
    split = []

    def spy(n, p):
        split.append(n.bit_length())
        return p_adic_digits(n, p)

    monkeypatch.setattr("unitsum.double_base.p_adic_digits", spy)
    m = random.Random("valuation/spy").getrandbits(1 << 16) | 1 << 65535
    m += m % 5 == 0  # 5 does not divide m
    for k in (1, 3000):
        split.clear()
        x = PQRational(BasePair(5, 11), 5**k * m, k + 1, 0)
        assert (x.num, x.a_p, x.a_q) == (m, 1, 0)
        # a remainder below 5^(2k + 2), where n = 5^k * m has over 65536 bits
        assert split and max(split) <= (5 ** (2 * k + 2)).bit_length(), split


# ------------------------------------------------------------- expansions


def test_expansion_rejects_bad_digits():
    with pytest.raises(InvalidExpansion):
        SignedExpansion(B523, ((2, 0, 0),))
    with pytest.raises(InvalidExpansion):
        SignedExpansion(B523, ((1, 1, 0), (-1, 1, 0)))  # duplicate site
    with pytest.raises(InvalidExpansion):
        SignedExpansion(B523, ((1, -1, 0),))  # negative exponent


@pytest.mark.parametrize("term", [(1, 2.5, 0), (1, 2, 0.5), (1.5, 0, 0), (1, float("inf"), 0), (1, "2", 0)])
@pytest.mark.parametrize("kind", [SignedExpansion, ExtendedExpansion])
def test_expansion_rejects_non_integral_terms(kind, term):
    # (1, 2.5, 0) was stored as (1, 2, 0)
    with pytest.raises(ValueError, match="digit|exponent"):
        kind(B523, [term])


def test_expansion_keeps_exact_integral_terms():
    exp = SignedExpansion(B523, [(1.0, Fraction(4, 2), 0)])
    assert exp.terms == ((1, 2, 0),)
    assert all(type(c) is int for c in exp.terms[0])


def test_extended_expansion_allows_negative_exponents():
    e = ExtendedExpansion(BasePair(5, 11), ((1, -1, 0),))
    assert evaluate_expansion(e) == Fraction(1, 5)


def test_expand_known_value():
    exp = expand(997, B523)
    assert evaluate_expansion(exp) == 997
    assert all(d in (-1, 1) for d, _, _ in exp.terms)
    assert len({(i, j) for _, i, j in exp.terms}) == len(exp.terms)


def test_expand_zero_is_empty():
    assert expand(0, B523).terms == ()


def test_expand_negative_flips_digits():
    pos, neg = expand(997, B523), expand(-997, B523)
    assert evaluate_expansion(neg) == -997
    assert neg.terms == tuple((-d, i, j) for d, i, j in pos.terms)


def test_expand_step_stats():
    st_ = expand_with_stats(997, B523)
    assert st_.w_init == sum(p_adic_digits(997, 5))
    w = st_.w_init
    assert st_.steps <= (w * w - w) // 2


def test_expand_base_two_uses_plain_binary():
    exp = expand(100, BasePair(2, 3))
    assert evaluate_expansion(exp) == 100
    # binary digits need no subtractions
    assert all(d == 1 for d, _, _ in exp.terms)
    assert all(j == 0 for _, _, j in exp.terms)


def test_expand_base_three_uses_balanced_ternary():
    exp = expand(100, BasePair(7, 3))
    assert evaluate_expansion(exp) == 100
    assert all(i == 0 for _, i, _ in exp.terms)


def test_expand_second_base_two():
    exp = expand(77, BasePair(5, 2))
    assert evaluate_expansion(exp) == 77
    assert all(i == 0 for _, i, _ in exp.terms)


def test_expand_without_any_relation_raises():
    with pytest.raises(NoRelationFound):
        expand(10, BasePair(5, 11))


def test_expand_greedy_seed_round_trips():
    for v in (995, 997, 2, -404):
        exp = expand(v, B523, seed_method="greedy")
        assert evaluate_expansion(exp) == v
    # 404 = 23^2 - 5^3 seeds two unit digits, so nothing fires and the
    # expansion is the negated seed (the padic seed gives eight terms)
    assert expand(-404, B523, seed_method="greedy").terms == ((1, 3, 0), (-1, 0, 2))


@given(st.integers(-10**6, 10**6))
def test_expand_round_trip(v):
    st_ = expand_with_stats(v, B523)
    assert evaluate_expansion(st_.expansion) == v
    w = st_.w_init
    assert st_.steps <= (w * w - w) // 2


@given(st.integers(-10**4, 10**4))
def test_expand_round_trip_twin_pair(v):
    exp = expand(v, BasePair(5, 7))
    assert evaluate_expansion(exp) == v


def test_greedy_seed_sums_to_value():
    for v in (995, 2, 997, 10_000):
        terms = greedy_seed(v, B523)
        assert sum(c * 5**i * 23**j for c, i, j in terms) == v
        assert all(c for c, _, _ in terms)


GREEDY_PAIRS = [(5, 23), (11, 13), (5, 7), (2, 3), (3, 2)]


@pytest.mark.parametrize("p, q", GREEDY_PAIRS)
def test_greedy_seed_matches_grid_scan_on_small_values(p, q):
    b = BasePair(p, q)
    for v in range(-3000, 3001):
        assert greedy_seed(v, b) == greedy_seed_by_grid_scan(v, b), v


@pytest.mark.parametrize("p, q", GREEDY_PAIRS)
def test_greedy_seed_matches_grid_scan_on_large_values(p, q):
    rng = random.Random(f"greedy/{p}/{q}")
    b = BasePair(p, q)
    for bits in (64, 128, 256, 512):
        v = rng.getrandbits(bits) | (1 << (bits - 1))
        if rng.random() < 0.5:
            v = -v
        assert greedy_seed(v, b) == greedy_seed_by_grid_scan(v, b), v


def test_greedy_expand_is_sparse_at_1024_bits():
    v = random.Random("greedy/1024").getrandbits(1024) | (1 << 1023)
    greedy = expand_with_stats(v, B523, seed_method="greedy")
    padic = expand_with_stats(v, B523)
    assert evaluate_expansion(greedy.expansion) == v
    # weight 135 against 915 when this test was written
    assert 4 * weight(greedy.expansion) < weight(padic.expansion) <= padic.w_init


def test_padic_expand_round_trips_at_16384_bits():
    v = -(random.Random("padic/16384").getrandbits(16384) | (1 << 16383))
    assert evaluate_expansion(expand(v, B523)) == v


# ------------------------------------------------------------- evaluation

BASE_PAIRS = st.sampled_from([(5, 23), (11, 13), (5, 7), (2, 3), (3, 2), (5, 11)])
DIGIT = st.sampled_from([-1, 1])


def _terms(exponents):
    return st.dictionaries(st.tuples(exponents, exponents), DIGIT, max_size=25).map(
        lambda sites: [(d, i, j) for (i, j), d in sites.items()]
    )


@given(BASE_PAIRS, _terms(st.integers(0, 40)))
@example((5, 23), [])
@example((5, 23), [(-1, 7, 2)])
@example((5, 23), [(1, 30, 0), (-1, 30, 4), (1, 2, 1), (-1, 0, 9)])  # gaps between rows
def test_evaluate_signed_matches_power_sums(pq, terms):
    exp = SignedExpansion(BasePair(*pq), terms)
    got, want = evaluate_expansion(exp), evaluate_by_power_sums(exp)
    assert type(got) is int
    assert got == want


@given(BASE_PAIRS, _terms(st.integers(-30, 30)))
@example((5, 11), [])
@example((5, 11), [(1, -3, -2)])
@example((5, 11), [(1, 12, -5), (-1, -9, 0), (1, -9, 7)])  # gaps between rows
@example((5, 11), [(1, 4, 3), (-1, 2, 6)])  # positive least exponents
def test_evaluate_extended_matches_power_sums(pq, terms):
    exp = ExtendedExpansion(BasePair(*pq), terms)
    got, want = evaluate_expansion(exp), evaluate_by_power_sums(exp)
    assert type(got) is Fraction
    assert got == want


# ---------------------------------------------------------------- rationals


def test_pq_rational_normalizes_base_powers():
    x = pq_rational(Fraction(7, 25), BasePair(5, 11))
    assert x.num == 7 and x.a_p == 2 and x.a_q == 0
    assert Fraction(x.num, 5**x.a_p * 11**x.a_q) == Fraction(7, 25)


@pytest.mark.parametrize(
    "num, a_p, a_q", [(2.5, 0, 0), (7, 1.5, 0), (7, 0, 0.5), (float("nan"), 0, 0), ("7", 0, 0)]
)
def test_pq_rational_rejects_non_integral_fields(num, a_p, a_q):
    # PQRational(B, 2.5, 1.5, 0) was num = 2, a_p = 1
    with pytest.raises(ValueError, match="numerator|exponent"):
        PQRational(B523, num, a_p, a_q)


def test_pq_rational_keeps_exact_integral_fields():
    x = PQRational(B523, Fraction(14, 2), 2.0, 0)
    assert (x.num, x.a_p, x.a_q) == (7, 2, 0)
    assert all(type(v) is int for v in (x.num, x.a_p, x.a_q))


def test_pq_rational_rejects_foreign_denominator():
    with pytest.raises(ValueError):
        pq_rational(Fraction(1, 3), BasePair(5, 11))


@given(
    st.integers(-(10**20), 10**20),
    st.tuples(*[st.integers(0, 40)] * 4),
)
def test_pq_rational_fields_match_division(m, exps):
    # a numerator with i factors of 5 and j of 11 over 5^a_p 11^a_q
    i, j, a_p, a_q = exps
    num = m * 5**i * 11**j
    x = PQRational(BasePair(5, 11), num, a_p, a_q)
    assert (x.num, x.a_p, x.a_q) == lowest_terms_by_division(num, a_p, a_q, 5, 11)


@given(
    st.integers(-(10**20), 10**20),
    st.integers(0, 40),
    st.integers(0, 40),
    st.sampled_from([1, 3, 7 * 5**3]),
)
def test_pq_rational_matches_division(m, a, b, foreign):
    x = Fraction(m, 5**a * 11**b * foreign)
    ap, aq = valuation_by_division(x.denominator, 5), valuation_by_division(x.denominator, 11)
    rest = x.denominator // (5**ap * 11**aq)
    if rest != 1:
        with pytest.raises(ValueError, match=f"denominator factor {rest} "):
            pq_rational(x, BasePair(5, 11))
    else:
        y = pq_rational(x, BasePair(5, 11))
        assert (y.num, y.a_p, y.a_q) == (x.numerator, ap, aq)


@pytest.mark.parametrize("bits", [1 << 12, 1 << 16])
def test_pq_rational_matches_division_at_scale(bits):
    e = int(bits / 5.78)  # 5^e 11^e has about this many bits
    x = Fraction(-7, 5 ** (e + 3) * 11 ** (e - 3))
    y = pq_rational(x, BasePair(5, 11))
    den = x.denominator
    assert (y.num, y.a_p, y.a_q) == (-7, valuation_by_division(den, 5), valuation_by_division(den, 11))


def test_pq_rational_zero_and_coprime_numerators_skip_the_denominator():
    # neither forms 5^(10^9): a zero numerator drops the denominator, and
    # 7 shares no factor with it
    b = BasePair(5, 11)
    x = PQRational(b, 0, 10**9, 0)
    assert (x.num, x.a_p, x.a_q) == (0, 0, 0)
    y = PQRational(b, 7, 10**9, 0)
    assert (y.num, y.a_p, y.a_q) == (7, 10**9, 0)


PRIMES_TO_100 = [n for n in range(2, 101) if all(n % d for d in range(2, n))]


@st.composite
def pq_cases(draw):
    # a coprime pair with bases 2..60, composite ones included, and
    # m / (p^a q^b f) with f 1, a share of p or q, or a prime foreign to both
    p, q = draw(st.tuples(st.integers(2, 60), st.integers(2, 60)).filter(lambda t: t[0] != t[1] and math.gcd(*t) == 1))
    f = draw(st.one_of(
        st.just(1),
        st.sampled_from([d for d in range(2, p + 1) if p % d == 0]),
        st.sampled_from([d for d in range(2, q + 1) if q % d == 0]),
        st.sampled_from([r for r in PRIMES_TO_100 if (p * q) % r]),
    ))
    a, b, m = draw(st.integers(0, 8)), draw(st.integers(0, 8)), draw(st.integers(-(10**6), 10**6))
    return p, q, Fraction(m, p**a * q**b * f)


@settings(derandomize=True, max_examples=300)
@given(pq_cases())
@example((9, 7, Fraction(1, 3)))
@example((9, 7, Fraction(1, 15)))
@example((12, 35, Fraction(1, 2**9 * 5 * 49)))
def test_pq_rational_matches_trial_over_any_coprime_pair(case):
    # 1/3 over (9, 7) is 3 / 9, and was refused as "denominator factor 3"
    p, q, x = case
    a, b, foreign = least_exponents_by_trial(x, p, q)
    if foreign != 1:
        with pytest.raises(ValueError, match=f"^denominator factor {foreign} is not a product of base powers$"):
            pq_rational(x, BasePair(p, q))
    else:
        y = pq_rational(x, BasePair(p, q))
        assert (y.a_p, y.a_q) == (a, b)
        assert Fraction(y.num, p**a * q**b) == x


def test_expand_extended_single_inverse_power():
    b = BasePair(5, 11)
    exp = expand_extended(pq_rational(Fraction(1, 5), b), b)
    assert exp.terms == ((1, -1, 0),)


def test_expand_extended_value_seven_over_25():
    b = BasePair(5, 11)
    exp = expand_extended(pq_rational(Fraction(7, 25), b), b)
    assert evaluate_expansion(exp) == Fraction(7, 25)
    assert all(d in (-1, 1) for d, _, _ in exp.terms)


@pytest.mark.parametrize("x", [Fraction(7, 55), 7, "7/55"])
def test_expand_extended_names_the_type_it_takes(x):
    with pytest.raises(ValueError, match=r"^expand_extended takes a PQRational, not \w+; see pq_rational$"):
        expand_extended(x, BasePair(5, 11))


def test_expand_extended_mirrored_relation():
    # (11,5) only has the mirrored inverse-power relation 2 = 11/5 - 1/5
    b = BasePair(11, 5)
    for val in (Fraction(7, 5), Fraction(-3, 121), Fraction(9)):
        exp = expand_extended(pq_rational(val, b), b)
        assert evaluate_expansion(exp) == val


def test_expand_extended_rechecks_its_relation(monkeypatch):
    b = BasePair(5, 11)
    rel = find_extended_relation(b)
    wrong = ExtendedRelation(rel.a, rel.b, rel.c, rel.d, -rel.sign)
    monkeypatch.setattr("unitsum.relations.find_extended_relation", lambda *_: wrong)
    with pytest.raises(RelationInvalid):
        expand_extended(pq_rational(Fraction(7, 25), b), b)


def test_expand_extended_mirrors_by_the_exponents(monkeypatch):
    # the form is read off the exponents, so a relation with inverse
    # powers of p alone cannot send expand_extended through the mirror
    b = BasePair(5, 11)
    rel = ExtendedRelation(-1, 1, -1, 0, -1)
    assert rel.form == "p_inverse"
    want = expand_extended(pq_rational(Fraction(7, 55), b), b).terms
    monkeypatch.setattr("unitsum.relations.find_extended_relation", lambda *_: rel)
    assert expand_extended(pq_rational(Fraction(7, 55), b), b).terms == want


def test_plain_converters_recheck_their_relation(monkeypatch):
    wrong = PlainRelation(2, 1, -1)
    message = r"PlainRelation\(x=2, y=1, sign=-1\) is not a valid relation for BasePair\(p=5, q=23\)"
    with pytest.raises(RelationInvalid, match=message):
        to_unit_relation(wrong, B523)
    monkeypatch.setattr("unitsum.relations.find_plain_relation", lambda *_: wrong)
    with pytest.raises(RelationInvalid, match=message):
        expand(997, B523)


def test_missing_relations_name_the_search():
    with pytest.raises(NoRelationFound, match=r"^no plain relation for \(5,11\) with exponents up to 64$"):
        expand(10, BasePair(5, 11))
    with pytest.raises(NoRelationFound, match=r"^no relation for \(5,11\) with exponents up to 64$"):
        to_unit_relation(None, BasePair(5, 11))


@pytest.mark.parametrize("pair", [(5, 23), (23, 5), (5, 11), (11, 5)])
def test_checked_hands_back_the_relation_it_checked(pair):
    base = BasePair(*pair)
    for rel in (find_plain_relation(base), find_extended_relation(base)):
        if rel is not None:
            assert _checked(rel, base, "relation") is rel


def test_converters_build_no_relation_of_their_own(monkeypatch):
    # each conversion read the relation as an ExtendedRelation it built anew
    b511 = BasePair(5, 11)
    x = pq_rational(Fraction(7, 55), b511)
    want = (expand(500123, B523), expand_extended(x, b511))  # the finders' caches are warm from here on
    built = []
    post_init = ExtendedRelation.__post_init__
    monkeypatch.setattr(ExtendedRelation, "__post_init__", lambda rel: built.append(rel) or post_init(rel))
    assert (expand(500123, B523), expand_extended(x, b511)) == want
    assert built == []


def test_expand_extended_zero():
    b = BasePair(5, 11)
    assert expand_extended(pq_rational(Fraction(0), b), b).terms == ()


@given(st.fractions(min_value=Fraction(-500), max_value=Fraction(500)))
def test_expand_extended_round_trip(x):
    b = BasePair(5, 11)
    if x.denominator != 1:
        return  # denominators handled in the dedicated cases below
    exp = expand_extended(pq_rational(x, b), b)
    assert evaluate_expansion(exp) == x


@given(st.integers(-400, 400), st.integers(0, 3), st.integers(0, 2))
def test_expand_extended_round_trip_with_denominator(n, ap, aq):
    b = BasePair(5, 11)
    x = Fraction(n, 5**ap * 11**aq)
    exp = expand_extended(pq_rational(x, b), b)
    assert evaluate_expansion(exp) == x


@pytest.mark.parametrize(
    "left, fault",
    [
        ({0: {0: 2}}, "digit 2 at (0,0)"),
        ({0: {3: 1, 1: -3}}, "digit -3 at (1,0)"),
        ({0: {-1: 1}}, "negative exponent at (-1,0)"),
        ({-1: {0: 1}, 0: {}}, "negative exponent at (0,-1)"),
    ],
)
def test_expand_names_a_term_its_reduction_left_faulty(monkeypatch, left, fault):
    # the converters check their output from the rows, not term by term
    def stub(rows, credits, on_step=None):
        rows.clear()
        rows.update({j: dict(row) for j, row in left.items()})
        return 0

    monkeypatch.setattr(double_base, "_claim_reduce", stub)
    with pytest.raises(InvalidExpansion, match=fr"^{re.escape(fault)}"):
        expand_with_stats(997, B523)


def test_expand_extended_names_a_digit_its_reduction_left_faulty(monkeypatch):
    def stub(rows, credits, on_step=None):
        rows[0] = {0: 1, 2: 2}
        return 0

    monkeypatch.setattr(double_base, "_claim_reduce", stub)
    b = BasePair(5, 11)
    with pytest.raises(InvalidExpansion, match=r"^digit 2 at \(1,0\)"):
        expand_extended(pq_rational(Fraction(7, 5), b), b)


@settings(max_examples=60)
@given(st.integers(-(2**300), 2**300), st.sampled_from([(5, 23), (11, 13), (5, 7)]), st.sampled_from(["padic", "greedy"]))
def test_expand_terms_pass_the_public_constructor(v, pq, seed):
    terms = expand_with_stats(v, BasePair(*pq), seed).expansion.terms
    assert terms == SignedExpansion(BasePair(*pq), list(terms)).terms
    assert all(type(c) is int for term in terms for c in term)


@settings(max_examples=60)
@given(st.integers(-(2**200), 2**200).filter(bool), st.integers(0, 6), st.integers(0, 6), st.sampled_from([(5, 11), (11, 5)]))
def test_expand_extended_terms_pass_the_public_constructor(n, ap, aq, pq):
    b = BasePair(*pq)
    terms = expand_extended(pq_rational(Fraction(n, b.p**ap * b.q**aq), b), b).terms
    assert terms == ExtendedExpansion(b, list(terms)).terms
    assert all(type(c) is int for term in terms for c in term)


class ConstructorRan(Exception):
    pass


def test_valid_outputs_skip_the_per_term_constructor(monkeypatch):
    # the builder checks valid terms row by row and only sorts them; the
    # per-term constructor would cost about 1 ms more at 4096 bits
    def refuse(terms, allow_negative_exponents):
        raise ConstructorRan

    v = -(10**40 + 7)
    b511, b115 = BasePair(5, 11), BasePair(11, 5)
    signed = expand(3**2585 + 2**4095, BasePair(11, 13))
    extended = expand_extended(pq_rational(Fraction(7, 121), b115), b115)
    duplicate = _doc("signed", (1, "1", "0"), (-1, "1", "0"))
    monkeypatch.setattr(double_base, "_canonical_terms", refuse)
    for seed in ("padic", "greedy"):
        assert evaluate_expansion(expand_with_stats(v, B523, seed).expansion) == v
    for b in (BasePair(2, 7), BasePair(7, 3)):  # binary on the p axis, balanced ternary on the q axis
        assert evaluate_expansion(expand_with_stats(v, b).expansion) == v
    for b, x in ((B523, Fraction(-7)), (b511, Fraction(7, 55)), (b115, Fraction(7, 121))):
        assert evaluate_expansion(expand_extended(pq_rational(x, b), b)) == x
    for exp in (signed, extended):
        assert expansion_from_json(expansion_to_json(exp)) == (exp, evaluate_expansion(exp))
    # two terms at one pair leave one row entry, so the constructor runs
    with pytest.raises(ConstructorRan):
        expansion_from_json(duplicate)
    monkeypatch.undo()
    with pytest.raises(InvalidExpansion, match=r"^duplicate exponent pair \(1,0\)$"):
        expansion_from_json(duplicate)


# ----------------------------------------------------------------- helpers


def test_weight_counts_digits():
    assert weight(expand(0, B523)) == 0
    assert weight(expand(4, B523)) == 4  # 4 ones at distinct sites


def test_to_unit_relation_layouts():
    rel = to_unit_relation(PlainRelation(2, 1, 1), B523)
    assert rel.n == 2
    assert rel.terms == ((0, (2, 0)), (1, (0, 1)))
    twin = to_unit_relation(PlainRelation(1, 1, -1), BasePair(3, 5))
    assert twin.terms == ((0, (0, 1)), (1, (1, 0)))
    # extended relations: a - second term goes on layer 1, a + one on layer 0
    inverse = to_unit_relation(find_extended_relation(BasePair(5, 11)), BasePair(5, 11))
    assert inverse.terms == ((0, (-1, 1)), (1, (-1, 0)))  # 2 = 11/5 - 1/5
    both = to_unit_relation(find_extended_relation(BasePair(2, 7)), BasePair(2, 7))
    assert both.terms == ((0, (-2, 1)), (0, (-2, 0)))  # 2 = 7/4 + 1/4


def test_rational_basis_is_cached():
    assert rational_basis(5, 23) == rational_basis(5, 23)


# -------------------------------------------------------------------- json


def test_signed_expansion_json_round_trip():
    exp = expand(997, B523)
    doc = expansion_to_json(exp)
    assert doc["kind"] == "signed"
    assert doc["value"] == "997"
    back, claimed = expansion_from_json(doc)
    assert back == exp
    assert claimed == 997


def test_extended_expansion_json_round_trip():
    b = BasePair(5, 11)
    exp = expand_extended(pq_rational(Fraction(7, 25), b), b)
    doc = expansion_to_json(exp)
    assert doc["value"] == "7/25"
    back, claimed = expansion_from_json(doc)
    assert back == exp
    assert claimed == Fraction(7, 25)


def test_expansion_json_rejects_malformed_documents():
    good = expansion_to_json(expand(12, B523))
    bad_kind = dict(good, kind="other")
    with pytest.raises(InvalidExpansion):
        expansion_from_json(bad_kind)
    with pytest.raises(InvalidExpansion):
        expansion_from_json({"kind": "signed"})
    bad_digit = dict(good, terms=[{"d": 2, "i": "0", "j": "0"}])
    with pytest.raises(InvalidExpansion):
        expansion_from_json(bad_digit)


@pytest.mark.parametrize(
    "field, bad",
    [("p", 5.9), ("q", 23.0), ("p", True), ("q", None), ("value", 25.0), ("value", None)]
    + [(f"term.{k}", v) for k in "dij" for v in (2.7, 1.0, True, None)],
)
def test_expansion_json_rejects_non_integer_fields(field, bad):
    # "i": 2.7 was read as 2, "d": true as 1 and "p": 5.9 as 5
    doc = expansion_to_json(expand(25, B523))
    if field.startswith("term."):
        doc["terms"][0][field[5:]] = bad
    else:
        doc[field] = bad
    with pytest.raises(InvalidExpansion, match="malformed"):
        expansion_from_json(doc)


@pytest.mark.parametrize("field", ["p", "term.d", "term.i", "term.j"])
@pytest.mark.parametrize("bad", ["1_000", " 7 ", "+7", "\u0663", "", "-", "2,3"])
def test_expansion_json_rejects_loose_decimal_strings(field, bad):
    # int() reads "1_000", " 7 ", "+7" and the Arabic-Indic digit three;
    # the schema's decimal strings are -?[0-9]+ only
    doc = expansion_to_json(expand(25, B523))
    if field.startswith("term."):
        doc["terms"][0][field[5:]] = bad
    else:
        doc[field] = bad
    with pytest.raises(InvalidExpansion, match="malformed"):
        expansion_from_json(doc)


def test_document_ints_names_the_field_of_a_value_with_a_comma():
    # the joined column "1,2,3" matched, and int("2,3") then failed with
    # Python's own message
    with pytest.raises(ValueError, match="^exponent '2,3' is not an integer"):
        document_ints(["1", "2,3"], "exponent")


@pytest.mark.parametrize(
    "bad", ["2.5e1", " 25 ", "+25", "2_5", "25.0", "\u0662\u0665", "50/2.0", "25/", "1/0", "", "-"]
)
def test_expansion_json_rejects_loose_value_strings(bad):
    # Fraction() read "2.5e1", " 25 ", "+25" and "2_5" as 25
    doc = expansion_to_json(expand(25, B523))
    doc["value"] = bad
    with pytest.raises(InvalidExpansion, match="malformed"):
        expansion_from_json(doc)


@pytest.mark.parametrize("value, claimed", [("-7/25", Fraction(-7, 25)), ("50/2", 25), ("007", 7), (-3, -3)])
def test_expansion_json_reads_integer_and_fraction_values(value, claimed):
    doc = dict(expansion_to_json(expand(25, B523)), value=value)
    assert expansion_from_json(doc)[1] == claimed


def test_expansion_json_reads_integers_and_decimal_strings():
    doc = {"kind": "signed", "p": 5, "q": "23", "value": 25, "terms": [{"d": 1, "i": 2, "j": "0"}]}
    assert expansion_from_json(doc) == (SignedExpansion(B523, [(1, 2, 0)]), 25)


def _doc(kind, *terms, p="5", q="23", value="2"):
    return {"kind": kind, "p": p, "q": q, "value": value,
            "terms": [{"d": d, "i": i, "j": j} for d, i, j in terms]}


# each faulty document with its message; a document with several faults
# is named by its first faulty term
FAULTY_DOCUMENTS = [
    (_doc("signed", (2, "0", "0")), "digit 2 at (0,0) is not -1 or 1"),
    (_doc("signed", (1, "3", "0"), (1, "-1", "0")), "negative exponent at (-1,0)"),
    (_doc("signed", (1, "0", "-2")), "negative exponent at (0,-2)"),
    (_doc("signed", (1, "1", "0"), (-1, "1", "0")), "duplicate exponent pair (1,0)"),
    (_doc("signed", (1, "1", "0"), (-1, "1", "0"), (3, "2", "0")), "duplicate exponent pair (1,0)"),
    (_doc("signed", (1, "1", "0"), (0, "1", "0"), (1, "-2", "0")), "digit 0 at (1,0) is not -1 or 1"),
    (_doc("extended", (1, "-1", "-1"), (-2, "-1", "-1"), q="11"), "digit -2 at (-1,-1) is not -1 or 1"),
    (_doc("extended", (1, "-1", "-1"), (1, "-1", "-1"), q="11"), "duplicate exponent pair (-1,-1)"),
]


@pytest.mark.parametrize("doc, message", FAULTY_DOCUMENTS)
def test_expansion_json_names_the_first_faulty_term(doc, message):
    with pytest.raises(InvalidExpansion) as info:
        expansion_from_json(doc)
    assert str(info.value) == message


def test_extended_expansion_json_accepts_negative_exponents():
    doc = _doc("extended", (1, "-1", "-1"), (-1, "0", "-2"), (1, "2", "0"), p="5", q="11", value="1/55")
    exp, claimed = expansion_from_json(doc)
    assert exp == ExtendedExpansion(BasePair(5, 11), [(1, 2, 0), (-1, 0, -2), (1, -1, -1)])
    assert exp.terms == ((1, 2, 0), (-1, 0, -2), (1, -1, -1))
    assert claimed == Fraction(1, 55)


# --------------------------------------------------------- claim reduction


@pytest.mark.parametrize(
    "credits",
    [
        ((1, 1, 1), (0, 2, -1)),  # no credit stays in layer
        ((1, 0, 1), (2, 0, -1)),  # two credits stay in layer
        ((1, 0, 1), (0, -1, 1)),  # a credit lowers j
        ((1, 0, 2), (0, 1, 1)),  # a gain of 2 per fired pair
        ((1, 0, 1), (0, 1, -3)),
        ((-1, 0, -1), (0, 1, 1), (1, 2, -1)),  # two raising credits: ran past
        ((2, 0, 1), (0, 1, -1), (1, 1, 1)),  # 5,000 firings on most small grids
        ((1, 0, 1),),  # nothing raises j
    ],
)
def test_claim_reduce_rejects_credits_that_may_not_terminate(credits):
    # on {0: {0: 5}} both lists with two raising credits run past 5,000
    # firings, so a check that let them through would fail here, not hang
    rows = {0: {0: 5}}

    def on_step(site, t):
        raise AssertionError("the credits were accepted and fired")

    with pytest.raises(RelationInvalid):
        _claim_reduce(rows, credits, on_step)
    assert rows == {0: {0: 5}}


@pytest.mark.parametrize(
    "base, rel",
    [
        (B523, PlainRelation(2, 1, 1).as_extended()),
        (BasePair(23, 5), PlainRelation(1, 2, -1).as_extended()),
        (BasePair(5, 11), find_extended_relation(BasePair(5, 11))),
    ],
)
def test_claim_reduce_accepts_plain_and_p_inverse_credits(base, rel):
    assert rel.form in ("plain", "p_inverse")
    rows = {0: {0: 9}}
    steps = _claim_reduce(rows, rel.terms)
    assert steps > 0
    assert all(a in (-1, 1) for row in rows.values() for a in row.values())
    exp = ExtendedExpansion(base, [(a, i, j) for j, row in rows.items() for i, a in row.items()])
    assert evaluate_expansion(exp) == 9


def _credits(rel):
    credits = rel.terms
    if rel.kind == "extended" and rel.form == "q_inverse":  # expand_extended's mirror image
        credits = tuple((dj, di, c) for di, dj, c in credits)
    return credits


def test_claim_reduce_accepts_every_relation_the_converters_fire():
    # every plain and extended relation over bases below 60, in both
    # orders, with the credits expand_with_stats or expand_extended fires
    relations = 0
    for p in range(2, 60):
        for q in range(2, 60):
            if p == q or math.gcd(p, q) != 1:
                continue
            base = BasePair(p, q)
            for rel in (find_plain_relation(base), find_extended_relation(base)):
                if rel is None:
                    continue
                rows = {0: {0: 9}}
                assert _claim_reduce(rows, _credits(rel)) > 0
                assert all(a in (-1, 1) for row in rows.values() for a in row.values())
                relations += 1
    assert relations > 100


CREDITS = [
    _credits(find_plain_relation(B523)),  # in-layer shift 2
    _credits(find_plain_relation(BasePair(11, 13))),
    _credits(find_plain_relation(BasePair(23, 5))),  # raises j by 2
    _credits(find_extended_relation(BasePair(5, 11))),  # p_inverse: in-layer shift -1
    _credits(find_extended_relation(BasePair(5, 13))),  # q_inverse, mirrored: j by 2, i by -1
    ((0, 0, -1), (1, 1, 1)),  # in-layer shift 0
    ((0, 0, 1), (1, 1, -1)),
    ((-2, 0, 1), (1, 3, -1)),  # raises j by 3
]
# layers above the first mostly hold only -1 and 1 and fire once chips land
ROWS = st.dictionaries(
    st.integers(0, 4),
    st.dictionaries(st.integers(-4, 12), st.integers(-9, 9).filter(bool) | DIGIT, max_size=12),
    max_size=4,
)


class _Capped(Exception):
    pass


def _run_capped(kernel, state, credits, cap=20_000):
    # a firing past the cap raises out of on_step, so the comparison ends
    # even on credits that would not terminate
    calls = []

    def on_step(site, t):
        calls.append((site, t))
        if len(calls) > cap:
            raise _Capped

    try:
        return kernel(state, credits, on_step), calls
    except _Capped:
        return None, calls


@settings(max_examples=400)
@given(st.sampled_from(CREDITS), ROWS)
@example(CREDITS[0], {0: {0: 5}, 1: {0: 1, 2: -1}})  # chips land on a layer with no ready site
@example(CREDITS[3], {0: {3: 4, 0: 1}, 1: {-1: 1}, 3: {0: -7}})
@example(CREDITS[3], {0: {6: 2, 5: -1, 4: 1, 3: -1}})  # a backward chain: 6 fires, then 5, 4 and 3
@example(CREDITS[5], {0: {0: 9}})  # the credit lands on the site that fired
@example(CREDITS[0], {0: {0: 3, 2: 1}})  # a credit ahead of the row's last ready site
@example(CREDITS[0], {0: {0: 3, 1: 2, 2: 1}})  # 2, made ready ahead, waits for 1
@example(CREDITS[7], {0: {0: 5}})  # a raise by 3 and a credit behind the cursor
def test_claim_reduce_matches_heap_reference(credits, rows):
    grid = {(i, j): a for j, row in rows.items() for i, a in row.items()}
    rows = {j: dict(row) for j, row in rows.items()}
    want_steps, want_calls = _run_capped(claim_reduce_by_heap, grid, credits)
    steps, calls = _run_capped(_claim_reduce, rows, credits)
    assert calls == want_calls
    assert steps == want_steps
    assert {(i, j): a for j, row in rows.items() for i, a in row.items()} == grid


# ------------------------------------------------------------ pinned outputs

# sha256 of repr((terms, steps, w_init)) for expand_with_stats, and of
# repr((terms, on_step calls)) for expand_extended, recorded before the
# firing loop moved from one (j, i) tuple heap to per-layer rows
PINNED_EXPANSIONS = {
    ((5, 23), "padic"): "0aa18c5a31c71d027da9b30b8d8fe3402a09f118a6bc7ba77c52d6c4dbc5de0b",
    ((11, 13), "padic"): "5c86ac8fb70c56f480003856a5c3305d6ac229f6e93395341bc6c1aa46926103",
    ((5, 7), "padic"): "5a0a61e9c6db7b9fa3e513d48e8b1bc936bd0a9d0a05e994468da756c0e2d032",
    ((5, 23), "greedy"): "8978fa0b012d319d1911134d3212989b343f9c08c4d53d9bc8f45206cf360329",
    ((11, 5), "extended"): "f79b88252dc4092ec8637e32d96609175814f74dcc60ad507ed2f301f997681d",
    ((5, 11), "extended"): "a1124a15bf678f1659630003fd85d68ba81383c5c7fd767219fa75c1a1997e7f",
}


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize("pq, kind", list(PINNED_EXPANSIONS))
def test_expansion_outputs_are_pinned(pq, kind):
    p, q = pq
    b = BasePair(p, q)
    if kind == "extended":
        # q_inverse on (11, 5), so the mirrored path; p_inverse on (5, 11)
        m = random.Random(f"pin/{p},{q}/extended").getrandbits(4096) | 1
        fired = []
        exp = expand_extended(pq_rational(Fraction(-m, p**7 * q**3), b), b, lambda site, t: fired.append((site, t)))
        assert len(fired) > 1000
        got = (exp.terms, fired)
    else:
        if kind == "padic":
            v = random.Random(f"pin/{p},{q}/16384").getrandbits(16384) | (1 << 16383)
        else:
            v = -(random.Random("pin/greedy/1024").getrandbits(1024) | (1 << 1023))
        s = expand_with_stats(v, b, seed_method=kind)
        got = (s.expansion.terms, s.steps, s.w_init)
    assert _digest(got) == PINNED_EXPANSIONS[pq, kind]
