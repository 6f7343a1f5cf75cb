"""Relation search and modular obstruction certificates."""

import dataclasses
from fractions import Fraction
from math import gcd
import time
import timeit
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from golden_corpus import SMALL_PAIRS
from relations_reference import (
    _exact_log,
    reference_extended_relation,
    reference_plain_relation,
    reference_verify_relation,
)
from unitsum import (
    BasePair,
    ExtendedRelation,
    PlainRelation,
    certificate_at,
    find_extended_relation,
    find_obstruction,
    find_plain_relation,
    to_unit_relation,
    verify_relation,
)
from unitsum import relations
from unitsum.relations import MAX_EXP, MAX_WALK_EXP, _best_extended, _first_partner


@pytest.mark.parametrize(
    "cls, args, field",
    [
        (PlainRelation, (2.5, 1, 1), "x"),
        (PlainRelation, (2, Fraction(3, 2), 1), "y"),
        (PlainRelation, (2, 1, float("nan")), "sign"),
        (ExtendedRelation, (1.5, 0, 0, 1, -1), "a"),
        (ExtendedRelation, (2, 0, 0, float("inf"), -1), "d"),
    ],
)
def test_relations_reject_non_integral_fields(cls, args, field):
    # PlainRelation(2.5, 1, 1) and ExtendedRelation(1.5, ...) were kept as given
    with pytest.raises(ValueError, match=f"^{field} .* is not an integer"):
        cls(*args)


def test_relations_keep_exact_integers():
    plain = PlainRelation(2.0, Fraction(2, 2), 1.0)
    ext = ExtendedRelation(Fraction(-2, 2), 2.0, -1, 0, 1.0)
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
    flipped = ExtendedRelation(rel.a, rel.b, rel.c, rel.d, -rel.sign)
    assert not verify_relation(BasePair(5, 11), flipped)


def test_extended_relation_takes_only_a_unit_sign():
    for sign in (0, 2, -2):
        with pytest.raises(ValueError, match="^sign must be -1 or 1$"):
            ExtendedRelation(-1, 1, -1, 0, sign)


def test_extended_relation_takes_five_values_and_reads_its_form():
    assert [f.name for f in dataclasses.fields(ExtendedRelation) if f.init] == ["a", "b", "c", "d", "sign"]
    with pytest.raises(TypeError):
        ExtendedRelation(-1, 1, -1, 0, -1, "q_inverse")
    rel = find_extended_relation(BasePair(11, 5))
    # form keeps its place in the repr, the JSON fields and equality
    assert repr(rel) == "ExtendedRelation(a=1, b=-1, c=0, d=-1, sign=-1, form='q_inverse')"
    assert list(dataclasses.asdict(rel)) == ["a", "b", "c", "d", "sign", "form"]
    assert rel == ExtendedRelation(1, -1, 0, -1, -1) and hash(rel) == hash(ExtendedRelation(1, -1, 0, -1, -1))


def test_verify_relation_rejects_what_is_not_a_relation():
    # the fields of the (5, 23) relation, but not as a relation
    assert verify_relation(BasePair(5, 23), (2, 1, 1)) is False


# ------------------------------------- one reading: kind and two terms


# about a quarter of these pairs have an inverse form as their best relation
_COPRIME_BASES = st.sampled_from(
    [BasePair(p, q) for p in range(2, 17) for q in range(2, 17) if p != q and gcd(p, q) == 1]
)
_EXPONENTS = st.integers(-6, 6)
_SIGNS = st.sampled_from([1, -1])
_DRAWN_EXTENDED = st.builds(ExtendedRelation, _EXPONENTS, _EXPONENTS, _EXPONENTS, _EXPONENTS, _SIGNS)
_DRAWN_RELATIONS = st.one_of(st.builds(PlainRelation, st.integers(0, 6), st.integers(0, 6), _SIGNS), _DRAWN_EXTENDED)


def _perturbed(rel, field: str, step: int):
    """rel with its sign flipped, or one exponent moved by step.  Either
    turns a true relation false: a moved exponent scales one term by a
    power of p or q and keeps the other, and a flipped sign negates a
    plain relation's sum, or an extended one's second term."""
    if field == "sign":
        return dataclasses.replace(rel, sign=-rel.sign)
    return dataclasses.replace(rel, **{field: getattr(rel, field) + step})


@given(_COPRIME_BASES, _DRAWN_EXTENDED)
def test_form_follows_the_exponents_and_a_relation_inverts_one_base(base, drawn):
    # q_inverse for a negative power of q, else p_inverse for one of p,
    # else plain; and no true relation over coprime bases has negative
    # powers of both (the lemma in ExtendedRelation's docstring)
    for rel in (drawn, find_extended_relation(base)):
        if rel is None:
            continue
        q_inverse, p_inverse = min(rel.b, rel.d) < 0, min(rel.a, rel.c) < 0
        assert rel.form == ("q_inverse" if q_inverse else "p_inverse" if p_inverse else "plain")
        if verify_relation(base, rel):
            assert not (p_inverse and q_inverse), (base, rel)


@given(_COPRIME_BASES, _DRAWN_RELATIONS, st.data())
def test_verify_relation_matches_exact_fraction_evaluation(base, drawn, data):
    # a drawn relation is almost always false; the finders' are true, and
    # each of them perturbed is false
    rels = [drawn]
    for rel in (find_plain_relation(base), find_extended_relation(base)):
        if rel is not None:
            fields = [f.name for f in dataclasses.fields(rel) if f.name != "form"]
            moved = _perturbed(rel, data.draw(st.sampled_from(fields)), data.draw(_SIGNS))
            assert (verify_relation(base, rel), verify_relation(base, moved)) == (True, False)
            rels += [rel, moved]
    for rel in rels:
        assert verify_relation(base, rel) is reference_verify_relation(base, rel)


@pytest.mark.parametrize(
    "pair, extended, kind, terms, layers",
    [
        ((5, 23), False, "plain", ((2, 0, 1), (0, 1, -1)), ((0, (2, 0)), (1, (0, 1)))),
        ((23, 5), False, "plain", ((0, 2, 1), (1, 0, -1)), ((0, (0, 2)), (1, (1, 0)))),
        ((5, 11), True, "extended", ((-1, 1, 1), (-1, 0, -1)), ((0, (-1, 1)), (1, (-1, 0)))),
        ((11, 5), True, "extended", ((1, -1, 1), (0, -1, -1)), ((0, (1, -1)), (1, (0, -1)))),
    ],
    ids=["plain", "plain-minus", "p_inverse", "q_inverse"],
)
def test_each_printed_relation_reads_as_its_kind_and_two_terms(pair, extended, kind, terms, layers):
    # the four relations test_stdout_is_pinned prints, in text and in JSON
    base = BasePair(*pair)
    rel = (find_extended_relation if extended else find_plain_relation)(base)
    assert (rel.kind, rel.terms) == (kind, terms)
    if kind == "plain":
        assert rel.as_extended().terms == terms
        assert rel.as_extended().kind == "extended"
    assert to_unit_relation(rel, base).terms == layers
    # kind is read off the class, not stored: fields, repr and equality are as before
    assert "kind" not in {f.name for f in dataclasses.fields(rel)} and "kind" not in repr(rel)


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


@pytest.mark.parametrize("scale, gap", [(1, 2), (2, 1)], ids=["plain", "inverse"])
def test_partners_are_unique_and_grow(scale, gap):
    # the lemma behind stopping at the first hit: every solution of
    # v^e = scale w^k +- gap with k <= 40, found by exact logarithms, has
    # one partner e per k, and e grows with k, so no two solutions tie
    found = 0
    for w in range(2, 60):
        for v in range(2, 60):
            if w == v or gcd(w, v) != 1:
                continue
            hits = []
            for k in range(1, 41):
                partners = [
                    (k, e, d)
                    for d in (-gap, gap)
                    if (e := _exact_log(scale * w**k + d, v)) is not None
                ]
                assert len(partners) <= 1, partners
                hits += partners
            assert all(a[1] < b[1] for a, b in zip(hits, hits[1:])), hits
            want = next((h for h in hits if h[1] <= 40), None)
            assert _first_partner(w, v, scale, gap, 40) == want, (w, v)
            found += len(hits)
    assert found > 0


@pytest.mark.parametrize(
    "finder, base, max_exp",
    [(find_plain_relation, BasePair(5, 23), 20000), (find_extended_relation, BasePair(7, 11), 8000)],
    ids=["plain", "extended"],
)
def test_relation_search_holds_no_power_table(finder, base, max_exp):
    # the search holds two powers, not a table of max_exp of them; tables
    # peaked at 63.7 MB and 28.3 MB on these calls
    finder.cache_clear()
    tracemalloc.start()
    try:
        finder(base, max_exp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# the least relation of (3, 3^70 + 2) is plain with x = 70, past the
# default bound; (2, 2^33 + 1) has 2 = 2^-32 (2^33 + 1) - 2^-32, found
# within the bound but with exponent sum 65 above it
BEYOND = [BasePair(3, 3**70 + 2), BasePair(3**70 + 2, 3), BasePair(2, 2**33 + 1), BasePair(2**33 + 1, 2)]


@pytest.mark.parametrize(
    "base, max_exp, form, walks",
    [
        (BasePair(5, 11), 10**9, "p_inverse", False),
        (BasePair(11, 5), 10**9, "q_inverse", False),
        *zip(BEYOND, [200] * 4, ["plain", "plain", "p_inverse", "q_inverse"], [True] * 4),
    ],
)
def test_extended_search_walks_past_the_default_bound_only_when_it_must(monkeypatch, base, max_exp, form, walks):
    """A relation with exponent sum at most MAX_EXP is found at that bound
    and no form is walked past it, so a bound of 10^9 costs nothing; a
    best with a larger sum, or none, sends the search on to max_exp."""
    bounds = []

    def recorded(w, v, scale, gap, bound):
        assert walks or bound <= MAX_EXP, "walked past the default bound"
        bounds.append(bound)
        return _first_partner(w, v, scale, gap, bound)

    find_plain_relation.cache_clear()
    find_extended_relation.cache_clear()
    monkeypatch.setattr(relations, "_first_partner", recorded)
    rel = find_extended_relation(base, max_exp)
    assert rel.form == form and verify_relation(base, rel)
    assert (max(bounds) == max_exp) == walks


def test_walk_past_its_bound_is_refused():
    base = BasePair(97, 89)
    find_plain_relation.cache_clear()
    assert find_plain_relation(base, MAX_WALK_EXP) is None
    with pytest.raises(ValueError, match=f"^max_exp {MAX_WALK_EXP + 1} is past the search bound of {MAX_WALK_EXP},"):
        find_plain_relation(base, MAX_WALK_EXP + 1)


@pytest.mark.parametrize("bound", [65, 70, 100])
def test_a_search_that_ends_below_the_walk_bound_is_exact(monkeypatch, bound):
    """A search that ends within the walk bound gives what an unbounded
    one gives, and one that has not ended there raises.  The plain search
    ends once it finds x, y <= bound, and the extended one once its best
    has exponent sum <= bound.  BEYOND's least relations have x = 70
    (plain, exponent sum 71) and exponent sum 65 (inverse forms, whose
    pairs have no plain relation)."""
    monkeypatch.setattr(relations, "MAX_WALK_EXP", bound)
    for base in BEYOND:
        for finder, reference in [
            (find_plain_relation, reference_plain_relation),
            (find_extended_relation, reference_extended_relation),
        ]:
            find_plain_relation.cache_clear()
            find_extended_relation.cache_clear()
            want = reference(base, 200)
            if want is None:
                size = float("inf")
            elif finder is find_plain_relation:
                size = max(want.x, want.y)
            else:
                size = want.exponent_sum
            if size <= bound:
                assert finder(base, 10**9) == want, base
            else:
                with pytest.raises(ValueError, match=f"past the search bound of {bound},"):
                    finder(base, 10**9)
            assert finder(base, bound) == reference(base, bound)
    find_plain_relation.cache_clear()
    find_extended_relation.cache_clear()


@pytest.mark.parametrize("max_exp", [65, 100, 200])
def test_two_step_extended_search_matches_one_search(max_exp):
    # searching at MAX_EXP first and at max_exp only when that finds
    # nothing within MAX_EXP gives what one search at max_exp gives
    for base in _coprime_pairs(60) + BEYOND:
        find_extended_relation.cache_clear()
        assert find_extended_relation(base, max_exp) == _best_extended(base, max_exp), base


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


# ----------------------------------------------------------------- caching

FINDERS = [
    (find_plain_relation, reference_plain_relation),
    (find_extended_relation, reference_extended_relation),
]


def test_relation_caches_are_bounded():
    assert find_plain_relation.cache_info().maxsize == 256
    assert find_extended_relation.cache_info().maxsize == 256


# the reference walks max_exp^2 exponent pairs, so the full bound runs
# on the smaller sweep only
@pytest.mark.parametrize("below, max_exp", [(100, 8), (30, MAX_EXP)])
@pytest.mark.parametrize("finder, reference", FINDERS, ids=["plain", "extended"])
def test_cached_relations_match_reference_cold_and_warm(finder, reference, below, max_exp):
    for base in _coprime_pairs(below):
        want = reference(base, max_exp)
        finder.cache_clear()
        assert finder(base, max_exp) == want, base
        assert finder(base, max_exp) == want, base
        info = finder.cache_info()
        assert (info.hits, info.misses) == (1, 1)


@pytest.mark.parametrize("finder", [find_plain_relation, find_extended_relation])
def test_cached_relations_still_reject_a_float_bound(finder):
    # an integral float reads as its int, cold or from the int's cache
    # entry; 2.5 raises
    finder.cache_clear()
    cold = finder(BasePair(5, 23), 64.0)
    finder.cache_clear()
    assert finder(BasePair(5, 23), 64) == cold is not None
    assert finder(BasePair(5, 23), 64.0) == finder(BasePair(5, 23), 64)
    with pytest.raises(ValueError, match="max_exp"):
        finder(BasePair(5, 23), 2.5)


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


def test_certificate_reads_its_orbits_off_its_modulus():
    # the orbits are no arguments, so they cannot disagree with the modulus
    assert [f.name for f in dataclasses.fields(relations.ObstructionCertificate) if f.init] == ["p", "q", "modulus"]
    with pytest.raises(TypeError):
        relations.ObstructionCertificate(5, 11, 5, (0,), (1,))
    for p, q in SMALL_PAIRS:
        cert = find_obstruction(BasePair(p, q))
        if cert is not None:
            m = cert.modulus
            assert cert.p_orbit == tuple(sorted(relations._orbit(p, m))), (p, q)
            assert cert.q_orbit == tuple(sorted(relations._orbit(q, m))), (p, q)


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


def test_obstruction_scan_is_lazy():
    # the first modulus tried, p = 7, certifies (7, 13), so the bound must
    # cost nothing; 10^30 comes first because a scan that listed its
    # moduli up front fails on it at once, but fills gigabytes at 10^9
    want = find_obstruction(BasePair(7, 13), 1000)
    assert want.modulus == 7
    for bound in (10**30, 10**9):
        assert find_obstruction(BasePair(7, 13), bound) == want
        seconds = min(timeit.repeat(lambda: find_obstruction(BasePair(7, 13), bound), number=1, repeat=3))
        assert seconds < 1e-3


def test_obstruction_matches_a_plain_scan():
    # find_obstruction skips the scan for pairs with a plain relation;
    # the full scan over certificate_at must agree with it everywhere,
    # also under bounds below p or q, which take those moduli out
    for bound in (60, 30, 7, 2):
        for p in range(2, 60):
            for q in range(2, 60):
                if p == q or gcd(p, q) != 1:
                    continue
                base = BasePair(p, q)
                moduli = dict.fromkeys([m for m in (p, q) if m <= bound] + list(range(2, bound + 1)))
                scanned = next(filter(None, (certificate_at(base, m) for m in moduli)), None)
                assert find_obstruction(base, max_modulus=bound) == scanned, (p, q, bound)


def test_obstruction_stays_within_its_bound():
    # (7, 13) is certified by 7 at the default bound; below 7 the scan
    # starts at 2 and 3 works, and no modulus up to 2 does
    assert find_obstruction(BasePair(7, 13), 5).modulus == 3
    assert find_obstruction(BasePair(7, 13), 2) is None
    # a huge base is not tried when it exceeds the bound: its orbit modulo
    # itself would take seconds to list, while 5 certifies at once
    base = BasePair(10**7 + 19, 5)
    seconds = min(timeit.repeat(lambda: find_obstruction(base, 10), number=1, repeat=3))
    assert find_obstruction(base, 10) == certificate_at(base, 5)
    assert seconds < 0.01


def test_obstruction_scan_skips_an_orbit_past_the_walk_bound():
    # both bases are within the bound, so each is tried first as the
    # modulus, where the other's orbit runs far past MAX_WALK_EXP residues
    # (9 s and 0.8 GB to list in full); the walk stops there, the scan goes
    # on, and 91 certifies, as under a bound of 1000
    base = BasePair(10**7 + 19, 10**7 + 79)
    start = time.perf_counter()
    cert = find_obstruction(base, 10**7 + 79)
    assert time.perf_counter() - start < 0.5
    assert cert == find_obstruction(base, 1000) == certificate_at(base, 91)


def test_certificate_at_refuses_an_orbit_past_the_walk_bound():
    # 1000033 has an orbit of 333,334 residues modulo 1000003
    base = BasePair(1000003, 1000033)
    with pytest.raises(ValueError, match=f"^an orbit modulo 1000003 is past the walk bound of {MAX_WALK_EXP} residues$"):
        certificate_at(base, 1000003)
    assert find_obstruction(base, 1000033) == find_obstruction(base, 1000) == certificate_at(base, 3)


def test_orbit_walk_bound_is_inclusive(monkeypatch):
    # 5 has the orbit {1, 3, 4, 5, 9} modulo 11, and 23 = 1 the orbit {1}
    monkeypatch.setattr(relations, "MAX_WALK_EXP", 5)
    assert certificate_at(BasePair(5, 23), 11) is None
    monkeypatch.setattr(relations, "MAX_WALK_EXP", 4)
    with pytest.raises(ValueError, match="^an orbit modulo 11 is past the walk bound of 4 residues$"):
        certificate_at(BasePair(5, 23), 11)


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
