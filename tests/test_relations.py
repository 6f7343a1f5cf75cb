"""Relation search and modular obstruction certificates."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from relations_reference import reference_extended_relation, reference_plain_relation
from unitsum import (
    BasePair,
    ExtendedRelation,
    PlainRelation,
    certificate_at,
    find_extended_relation,
    find_obstruction,
    find_plain_relation,
    verify_relation,
)
from unitsum.relations import _plain_relation


@pytest.mark.parametrize(
    "cls, args, field",
    [
        (PlainRelation, (2.5, 1, 1), "x"),
        (PlainRelation, (2, Fraction(3, 2), 1), "y"),
        (PlainRelation, (2, 1, float("nan")), "sign"),
        (ExtendedRelation, (1.5, 0, 0, 1, -1, "plain"), "a"),
        (ExtendedRelation, (2, 0, 0, float("inf"), -1, "plain"), "d"),
    ],
)
def test_relations_reject_non_integral_fields(cls, args, field):
    # PlainRelation(2.5, 1, 1) and ExtendedRelation(1.5, ...) were kept as given
    with pytest.raises(ValueError, match=f"^{field} .* is not an integer"):
        cls(*args)


def test_relations_keep_exact_integers():
    plain = PlainRelation(2.0, Fraction(2, 2), 1.0)
    ext = ExtendedRelation(Fraction(-2, 2), 2.0, -1, 0, 1.0, "p_inverse")
    assert all(type(v) is int for v in (plain.x, plain.y, plain.sign))
    assert all(type(v) is int for v in (ext.a, ext.b, ext.c, ext.d, ext.sign))
    assert verify_relation(BasePair(5, 23), plain)


def test_plain_relation_for_5_23():
    rel = find_plain_relation(BasePair(5, 23))
    assert (rel.x, rel.y, rel.sign) == (2, 1, 1)
    assert verify_relation(BasePair(5, 23), rel)


@pytest.mark.parametrize("pair", [(3, 5), (5, 7), (11, 13), (17, 19)])
def test_twin_pairs_use_the_difference_relation(pair):
    base = BasePair(*pair)
    rel = find_plain_relation(base)
    assert (rel.x, rel.y, rel.sign) == (1, 1, -1)
    assert verify_relation(base, rel)


def test_no_plain_relation_for_5_11():
    assert find_plain_relation(BasePair(5, 11)) is None


def test_plain_search_respects_exponent_bound():
    assert find_plain_relation(BasePair(5, 23), max_exp=1) is None


def test_verify_relation_rejects_wrong_exponents():
    assert not verify_relation(BasePair(5, 23), PlainRelation(2, 2, 1))
    assert not verify_relation(BasePair(5, 23), PlainRelation(2, 1, -1))


def test_extended_relation_for_sophie_germain_pair():
    rel = find_extended_relation(BasePair(5, 11))
    assert (rel.a, rel.b, rel.c, rel.d, rel.sign) == (-1, 1, -1, 0, -1)
    assert rel.form == "p_inverse"
    assert verify_relation(BasePair(5, 11), rel)
    # 2 = 11/5 - 1/5 exactly
    assert Fraction(11, 5) - Fraction(1, 5) == 2


def test_extended_relation_mirrored_form():
    rel = find_extended_relation(BasePair(11, 5))
    assert rel.form == "q_inverse"
    assert verify_relation(BasePair(11, 5), rel)


def test_extended_search_covers_plain_relations():
    rel = find_extended_relation(BasePair(5, 23))
    assert rel.form == "plain"
    assert verify_relation(BasePair(5, 23), rel)


def test_verify_extended_relation_rejects_tampering():
    rel = find_extended_relation(BasePair(5, 11))
    flipped = ExtendedRelation(rel.a, rel.b, rel.c, rel.d, -rel.sign, rel.form)
    assert not verify_relation(BasePair(5, 11), flipped)


# -------------------------------------- differential: reference searches


def _coprime_pairs(below):
    return [
        BasePair(p, q)
        for p in range(2, below)
        for q in range(2, below)
        if p != q and gcd(p, q) == 1
    ]


def assert_same_as_reference(base, max_exp):
    assert find_plain_relation(base, max_exp) == reference_plain_relation(base, max_exp)
    assert find_extended_relation(base, max_exp) == reference_extended_relation(base, max_exp)


@pytest.mark.parametrize("max_exp", [1, 2, 5])
def test_lookup_matches_reference_on_small_bounds(max_exp):
    for base in _coprime_pairs(120):
        assert_same_as_reference(base, max_exp)


def test_lookup_matches_reference_at_the_default_bound():
    # the reference walks all 64^2 exponent pairs of a pair without a
    # relation, so this sweep stays smaller than the one above
    for base in _coprime_pairs(30):
        assert_same_as_reference(base, 64)


def test_plain_lookup_breaks_ties_by_least_x():
    # no real base pair below 120 has two plain relations with the same
    # x + y, so a made-up table stands in for p's powers: q = 5 meets
    # 7 = "p^2" at y = 1 and 27 = "p^1" at y = 2, both with x + y = 3
    assert _plain_relation({7: 2, 27: 1}, 5, 64) == PlainRelation(1, 2, 1)
    assert _plain_relation({3: 2, 23: 1}, 5, 64) == PlainRelation(1, 2, -1)


def _primes(lo, hi):
    sieve = bytearray([1]) * hi
    for n in range(2, int(hi ** 0.5) + 1):
        if sieve[n]:
            sieve[n * n :: n] = bytearray(len(range(n * n, hi, n)))
    return [n for n in range(max(lo, 2), hi) if sieve[n]]


_LARGER_PRIMES = _primes(101, 3000)


@st.composite
def larger_prime_pairs(draw):
    """A prime p above 100 and a second base that is another prime or has
    a relation with p: 2 = +-(q - p^k) or 2 = (q +- 1) p^-k."""
    p = draw(st.sampled_from(_LARGER_PRIMES))
    k = draw(st.integers(1, 4))
    q = draw(
        st.one_of(
            st.sampled_from(_LARGER_PRIMES).filter(lambda q: q != p),
            st.sampled_from([p**k + 2, p**k - 2, 2 * p**k - 1, 2 * p**k + 1]),
        )
    )
    return BasePair(q, p) if draw(st.booleans()) else BasePair(p, q)


@given(larger_prime_pairs(), st.integers(1, 64))
def test_lookup_matches_reference_on_larger_primes(base, max_exp):
    assert_same_as_reference(base, max_exp)


# ------------------------------------------------------------ obstructions


def test_obstruction_moduli():
    assert find_obstruction(BasePair(5, 11)).modulus == 5
    assert find_obstruction(BasePair(7, 13)).modulus == 7
    cert = find_obstruction(BasePair(7, 11))
    assert cert is not None and cert.modulus <= 1000


def test_certificate_orbits_are_recorded():
    cert = find_obstruction(BasePair(5, 11))
    assert cert.p_orbit == (0,)
    assert cert.q_orbit == (1,)


def test_certificate_at_alternate_modulus():
    # several moduli can certify the same pair
    assert certificate_at(BasePair(7, 13), 3) is not None
    assert certificate_at(BasePair(7, 13), 5) is None
    assert certificate_at(BasePair(7, 11), 7) is None
    assert certificate_at(BasePair(7, 11), 19) is not None


def test_certificate_at_rejects_silly_modulus():
    with pytest.raises(ValueError):
        certificate_at(BasePair(5, 11), 1)


def test_no_certificate_when_a_base_is_three():
    # 2 = |3 - 1| solves these pairs outright, so no certificate may exist
    assert find_obstruction(BasePair(3, 5)) is None
    assert certificate_at(BasePair(3, 7), 4) is None


def test_certificate_json_uses_decimal_strings():
    doc = find_obstruction(BasePair(5, 11)).to_json()
    assert doc["modulus"] == "5"
    assert doc["p_orbit"] == ["0"]
    assert isinstance(doc["q_orbit"], list)


def test_certificate_blocks_brute_force_search():
    cert = find_obstruction(BasePair(5, 11))
    m = cert.modulus
    for x in range(1, 30):
        for y in range(1, 30):
            assert (5**x - 11**y) % m not in (2 % m, (-2) % m)
            assert abs(5**x - 11**y) != 2


_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]


@given(st.sampled_from(_PRIMES), st.sampled_from(_PRIMES))
def test_relation_and_certificate_are_mutually_exclusive(p, q):
    """Soundness: a pair can never have both a plain relation and an
    obstruction certificate."""
    if p == q:
        return
    base = BasePair(p, q)
    rel = find_plain_relation(base, max_exp=12)
    cert = find_obstruction(base, max_modulus=60)
    if rel is not None:
        assert verify_relation(base, rel)
        assert cert is None


def test_obstruction_matches_a_plain_scan():
    # find_obstruction skips the scan for pairs with a plain relation;
    # the full scan over certificate_at must agree with it everywhere
    for p in range(2, 60):
        for q in range(2, 60):
            if p == q or gcd(p, q) != 1:
                continue
            base = BasePair(p, q)
            moduli = dict.fromkeys([p, q, *range(2, 61)])
            scanned = next(filter(None, (certificate_at(base, m) for m in moduli)), None)
            assert find_obstruction(base, max_modulus=60) == scanned, (p, q)


@given(st.sampled_from(_PRIMES), st.sampled_from(_PRIMES), st.integers(2, 80))
def test_certificates_imply_residue_avoidance(p, q, m):
    if p == q:
        return
    cert = certificate_at(BasePair(p, q), m)
    if cert is None:
        return
    # re-enumerate residues independently and recheck the claim
    pset = {pow(p, x, m) for x in range(1, 4 * m)}
    qset = {pow(q, y, m) for y in range(1, 4 * m)}
    assert pset == set(cert.p_orbit)
    assert qset == set(cert.q_orbit)
    for u in pset:
        for v in qset:
            assert (u - v) % m not in (2 % m, (-2) % m)
