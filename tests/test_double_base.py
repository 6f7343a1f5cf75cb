"""Signed and extended double-base expansions over integer base pairs."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from db_reference import evaluate_by_power_sums, greedy_seed_by_grid_scan

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
    evaluate_expansion,
    expand,
    expand_extended,
    expand_with_stats,
    expansion_from_json,
    expansion_to_json,
    greedy_seed,
    height,
    p_adic_digits,
    pq_rational,
    rational_basis,
    to_unit_relation,
    weight,
)
from unitsum.double_base import _claim_reduce, _extended_credits
from unitsum.errors import document_ints
from unitsum.relations import find_extended_relation

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


def test_balanced_ternary():
    assert balanced_ternary(5) == [-1, -1, 1]
    assert balanced_ternary(0) == []
    assert balanced_ternary(2) == [-1, 1]


@given(st.integers(-10**9, 10**9))
def test_balanced_ternary_round_trip(n):
    ds = balanced_ternary(n)
    assert all(d in (-1, 0, 1) for d in ds)
    assert sum(d * 3**i for i, d in enumerate(ds)) == n


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
    assert x.value == Fraction(7, 25)


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


def test_expand_extended_single_inverse_power():
    b = BasePair(5, 11)
    exp = expand_extended(pq_rational(Fraction(1, 5), b), b)
    assert exp.terms == ((1, -1, 0),)


def test_expand_extended_value_seven_over_25():
    b = BasePair(5, 11)
    exp = expand_extended(pq_rational(Fraction(7, 25), b), b)
    assert evaluate_expansion(exp) == Fraction(7, 25)
    assert all(d in (-1, 1) for d, _, _ in exp.terms)


def test_expand_extended_mirrored_relation():
    # (11,5) only has the mirrored inverse-power relation 2 = 11/5 - 1/5
    b = BasePair(11, 5)
    for val in (Fraction(7, 5), Fraction(-3, 121), Fraction(9)):
        exp = expand_extended(pq_rational(val, b), b)
        assert evaluate_expansion(exp) == val


def test_expand_extended_rechecks_its_relation(monkeypatch):
    b = BasePair(5, 11)
    rel = find_extended_relation(b)
    wrong = ExtendedRelation(rel.a, rel.b, rel.c, rel.d, -rel.sign, rel.form)
    monkeypatch.setattr("unitsum.relations.find_extended_relation", lambda *_: wrong)
    with pytest.raises(RelationInvalid):
        expand_extended(pq_rational(Fraction(7, 25), b), b)


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


# ----------------------------------------------------------------- helpers


def test_weight_counts_digits():
    assert weight(expand(0, B523)) == 0
    assert weight(expand(4, B523)) == 4  # 4 ones at distinct sites


def test_height_values():
    import math

    assert height(Fraction(0)) == 1.0
    assert height(Fraction(1, 2)) == 1.0  # log 2 < 1
    assert height(Fraction(100)) == pytest.approx(math.log(100))
    assert height(Fraction(3, 100)) == pytest.approx(math.log(100))


def test_to_unit_relation_layouts():
    rel = to_unit_relation(PlainRelation(2, 1, 1), B523)
    assert rel.n == 2
    assert rel.terms == ((0, (2, 0)), (1, (0, 1)))
    twin = to_unit_relation(PlainRelation(1, 1, -1), BasePair(3, 5))
    assert twin.terms == ((0, (0, 1)), (1, (1, 0)))


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


# --------------------------------------------------------- claim reduction


@pytest.mark.parametrize(
    "credits",
    [
        ((1, 1, 1), (0, 2, -1)),  # no credit stays in layer
        ((1, 0, 1), (2, 0, -1)),  # two credits stay in layer
        ((1, 0, 1), (0, -1, 1)),  # a credit lowers j
    ],
)
def test_claim_reduce_rejects_credits_that_may_not_terminate(credits):
    grid = {(0, 0): 5}
    with pytest.raises(RelationInvalid):
        _claim_reduce(grid, credits)
    assert grid == {(0, 0): 5}


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
    grid = {(0, 0): 9}
    steps = _claim_reduce(grid, _extended_credits(rel))
    assert steps > 0
    assert all(a in (-1, 1) for a in grid.values())
    exp = ExtendedExpansion(base, [(a, i, j) for (i, j), a in grid.items()])
    assert evaluate_expansion(exp) == 9
