"""End-to-end acceptance checks.

One test per numbered criterion; each prints a single summary line so a
verbose run reads as a checklist.  Workloads, seeds, and tolerances are
fixed; every comparison is exact unless the line says otherwise.
"""

import functools
import random
import time
from fractions import Fraction

from unitsum import (
    BasePair,
    BoundParams,
    CubicElement,
    CubicParams,
    PlainRelation,
    ReductionPolicy,
    Representation,
    SignedExpansion,
    bounds_f_T,
    cubic_basis,
    cubic_evaluator,
    evaluate,
    evaluate_expansion,
    expand_with_stats,
    find_extended_relation,
    find_obstruction,
    find_plain_relation,
    min_weight_bruteforce,
    monotone_quantity,
    p_adic_digits,
    replacement_step,
    represent_unit_sums,
    three_relation,
    unit_monomial,
    verify_relation,
    weight,
)

B523 = BasePair(5, 23)

# Hand-checked signed 5-23 expansions of 995..1003, one row per value.
REFERENCE_EXPANSIONS = {
    995: ((-1, 5, 0), (1, 4, 0), (1, 3, 1), (-1, 2, 0), (1, 1, 1), (1, 0, 2), (1, 0, 0)),
    996: ((-1, 3, 0), (1, 2, 1), (1, 0, 2), (-1, 1, 0), (1, 0, 1), (-1, 0, 0)),
    997: ((-1, 3, 0), (1, 2, 1), (1, 0, 2), (-1, 1, 0), (1, 0, 1)),
    998: ((1, 4, 0), (-1, 3, 0), (-1, 2, 0), (1, 0, 2), (-1, 1, 0), (-1, 0, 0)),
    999: ((1, 4, 0), (-1, 3, 0), (-1, 2, 0), (1, 0, 2), (-1, 1, 0)),
    1000: ((1, 4, 0), (-1, 3, 0), (-1, 2, 0), (1, 0, 2), (-1, 1, 0), (1, 0, 0)),
    1001: ((-1, 3, 0), (1, 2, 1), (1, 0, 2), (1, 0, 1), (-1, 0, 0)),
    1002: ((-1, 3, 0), (1, 2, 1), (1, 0, 2), (1, 0, 1)),
    1003: ((1, 4, 0), (-1, 3, 0), (-1, 2, 0), (1, 0, 2), (-1, 0, 0)),
}


def test_criterion_01_reference_expansions_evaluate_exactly():
    t0 = time.monotonic()
    checked = 0
    for value, terms in REFERENCE_EXPANSIONS.items():
        exp = SignedExpansion(B523, terms)
        assert evaluate_expansion(exp) == value
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 9
    assert elapsed < 1.0
    print(f"criterion 1 PASS: 9/9 reference expansions exact ({elapsed:.3f}s)")


def test_criterion_02_full_sweep_to_ten_thousand():
    t0 = time.monotonic()
    violations = 0
    for v in range(-10_000, 10_001):
        stats = expand_with_stats(v, B523)
        terms = stats.expansion.terms
        ok = (
            all(d in (-1, 1) for d, _, _ in terms)
            and len({(i, j) for _, i, j in terms}) == len(terms)
            and evaluate_expansion(stats.expansion) == v
            and stats.steps <= (stats.w_init**2 - stats.w_init) // 2
        )
        violations += 0 if ok else 1
    elapsed = time.monotonic() - t0
    assert violations == 0
    assert elapsed < 30.0
    print(f"criterion 2 PASS: 20001 values, 0 violations ({elapsed:.1f}s)")


def test_criterion_03_random_256_bit_inputs():
    rng = random.Random(256)
    worst = 0.0
    for _ in range(100):
        v = rng.getrandbits(256)
        t0 = time.monotonic()
        stats = expand_with_stats(v, B523)
        call = time.monotonic() - t0
        worst = max(worst, call)
        assert call < 1.0
        assert evaluate_expansion(stats.expansion) == v
        assert stats.steps <= (stats.w_init**2 - stats.w_init) // 2
    print(f"criterion 3 PASS: 100 random 256-bit inputs, worst call {worst*1000:.1f}ms")


def test_criterion_04_relation_finder_anchors():
    rel = find_plain_relation(B523)
    assert (rel.x, rel.y) == (2, 1)
    assert verify_relation(B523, rel)
    for pair in ((3, 5), (5, 7), (11, 13), (17, 19)):
        base = BasePair(*pair)
        rel = find_plain_relation(base)
        assert (rel.x, rel.y) == (1, 1)
        assert verify_relation(base, rel)
    sg = find_extended_relation(BasePair(5, 11))
    assert sg is not None and sg.form == "p_inverse"
    assert verify_relation(BasePair(5, 11), sg)
    # 2 = 11/5 - 1/5 written out
    assert Fraction(11, 5) - Fraction(1, 5) == 2
    print("criterion 4 PASS: plain anchors (2,1) and (1,1)x4, inverse-power pair found")


def _residues(g: int, m: int) -> set:
    seen = set()
    r = g % m
    while r not in seen:
        seen.add(r)
        r = (r * g) % m
    return seen


def test_criterion_05_obstruction_certificates():
    expected = {(5, 11): 5, (7, 13): 7}
    moduli = {}
    for (p, q), want in expected.items():
        cert = find_obstruction(BasePair(p, q))
        assert cert.modulus == want
        moduli[(p, q)] = cert
    cert711 = find_obstruction(BasePair(7, 11))
    assert cert711 is not None and cert711.modulus <= 1000
    moduli[(7, 11)] = cert711

    for (p, q), cert in moduli.items():
        m = cert.modulus
        # independent re-enumeration of both orbits
        pset, qset = _residues(p, m), _residues(q, m)
        assert pset == set(cert.p_orbit)
        assert qset == set(cert.q_orbit)
        for u in pset:
            for v in qset:
                assert (u - v) % m not in (2 % m, (-2) % m)
        # brute force confirms: no |p^x - q^y| = 2 with exponents to 60
        ppows = [p**x for x in range(61)]
        qpows = [q**y for y in range(61)]
        assert all(abs(u - v) != 2 for u in ppows for v in qpows)
    print(
        "criterion 5 PASS: m=5 (5,11), m=7 (7,13), m={} (7,11); re-enumeration and "
        "brute force to 60 agree".format(cert711.modulus)
    )


def test_criterion_06_cubic_identity_for_all_parameters():
    count = 0
    for a in range(-50, 51):
        params = CubicParams(a)
        u1 = unit_monomial(1, 2, params)
        u2 = unit_monomial(-2, -1, params)
        u3 = unit_monomial(1, -1, params)
        assert u1.coords == (-a, 2 - a, 1)
        assert u2.coords == (a + 4, 2 * a - 1, -2)
        assert u3.coords == (-1, -a - 1, 1)
        assert u1 + u2 + u3 == CubicElement(params, 3, 0, 0)
        rel = three_relation(params)
        assert rel.n == 3
        assert tuple(r for _, r in rel.terms) == ((1, 2), (-2, -1), (1, -1))
        count += 1
    assert count == 101
    print("criterion 6 PASS: 101/101 unit identities exact")


def _beta_workload():
    """Fixed 500-element workload shared by criteria 7 and 8."""
    rng = random.Random(991)
    for idx in range(500):
        a = idx % 11
        yield CubicParams(a), (
            rng.randint(-1000, 1000),
            rng.randint(-1000, 1000),
            rng.randint(-1000, 1000),
        )


def test_criterion_07_cubic_representations_stay_below_three():
    t0 = time.monotonic()
    failures = 0
    for params, coords in _beta_workload():
        beta = CubicElement(params, *coords)
        rep = represent_unit_sums(beta)
        value = evaluate(rep, cubic_evaluator(params))
        ok = all(v <= 2 for v in rep.coeffs.values()) and (
            value == beta if rep else not beta
        )
        failures += 0 if ok else 1
    elapsed = time.monotonic() - t0
    assert failures == 0
    assert elapsed < 60.0
    print(f"criterion 7 PASS: 500 representations, max coefficient 2 ({elapsed:.1f}s)")


def _certified_positive(params: CubicParams) -> int:
    """Certify sum_i |eps^(r_i)|^2 - 3 > 0 by an enclosure disjoint from
    zero, doubling precision from 128 bits.  Returns the bits used."""
    basis = cubic_basis(params)
    sites = Representation(
        basis, {(0, 1, (1, 2)): 1, (0, 1, (-2, -1)): 1, (0, 1, (1, -1)): 1}
    )
    bits = 128
    while True:
        lo, hi = monotone_quantity(sites, bits)
        if lo - 3 > 0:
            return bits
        assert bits <= 8192, "no positive enclosure found"
        bits *= 2


def test_criterion_08_monotone_quantity_strictly_increases():
    # rational side: replay the full criterion-2 workload and account for
    # every rewrite exactly
    gain = 5**4 + 23**2 - 2  # what one unit step adds, before the site factor
    events = 0
    for v in range(-10_000, 10_001):
        ledger = []
        stats = expand_with_stats(v, B523, on_step=lambda ij, t: ledger.append((ij, t)))
        q0 = sum(d * 5 ** (2 * i) for i, d in enumerate(p_adic_digits(abs(v), 5)))
        qf = sum(5 ** (2 * i) * 23 ** (2 * j) for _, i, j in stats.expansion.terms)
        delta = 0
        for (i, j), t in ledger:
            assert t >= 1
            step_gain = t * 5 ** (2 * i) * 23 ** (2 * j) * gain
            assert step_gain > 0
            delta += step_gain
        assert qf - q0 == delta, f"ledger mismatch at v = {v}"
        events += len(ledger)

    # cubic side: the per-step gain factors as (site monomial) * C with
    # C = |e1 e2^2|^2 + |e1^-2 e2^-1|^2 + |e1 e2^-1|^2 - 3; the site
    # factor is the square of a nonzero real unit, so one enclosure of C
    # disjoint from zero certifies every step for that parameter
    enclosure_bits = {}
    c_constant = {}
    for a in range(0, 11):
        params = CubicParams(a)
        enclosure_bits[a] = _certified_positive(params)
        c_elem = (
            unit_monomial(2, 4, params)
            + unit_monomial(-4, -2, params)
            + unit_monomial(2, -2, params)
            - 3
        )
        # C is in fact a rational integer; keep it for the exact ledger
        assert c_elem.coords[1] == 0 and c_elem.coords[2] == 0
        assert c_elem.coords[0] > 0
        c_constant[a] = c_elem

    # the ledger asks for the same monomials again and again, so it keeps
    # every one it has built
    monomial = functools.lru_cache(maxsize=None)(unit_monomial)
    cubic_steps = 0
    for params, coords in _beta_workload():
        beta = CubicElement(params, *coords)
        totals = {}
        min_t = [None]

        def record(idx, t, totals=totals, min_t=min_t):
            x = idx[2]
            totals[x] = totals.get(x, 0) + t
            if min_t[0] is None or t < min_t[0]:
                min_t[0] = t

        rep = represent_unit_sums(beta, ReductionPolicy(on_step=record))
        assert min_t[0] is None or min_t[0] >= 1
        um = lambda i, j: monomial(i, j, params)
        zero = CubicElement(params, 0, 0, 0)
        q0 = sum(
            (abs(c) * um(2 * t, 0) for t, c in enumerate(beta.coords) if c), zero
        )
        qf = sum((v * um(2 * x[0], 2 * x[1]) for (_, _, x), v in rep.coeffs.items()), zero)
        fired = sum((t * um(2 * i, 2 * j) for (i, j), t in totals.items()), zero)
        assert qf - q0 == fired * c_constant[params.a], f"ledger mismatch for {beta}"
        cubic_steps += sum(totals.values())

    # direct spot checks: a single rewrite, certified by disjoint
    # enclosures of the quantity before and after
    for a in range(0, 11):
        params = CubicParams(a)
        basis = cubic_basis(params)
        rel = three_relation(params)
        before = Representation(basis, {(0, 1, (0, 0)): 3})
        after = replacement_step(before, rel, (0, 1, (0, 0)))
        bits = 128
        while True:
            b_lo, b_hi = monotone_quantity(before, bits)
            a_lo, a_hi = monotone_quantity(after, bits)
            if b_hi < a_lo:
                break
            assert bits <= 8192
            bits *= 2
    print(
        f"criterion 8 PASS: rational ledger exact over {events} rewrites; cubic "
        f"ledger exact over {cubic_steps} unit steps with C > 0 certified at "
        f"{max(enclosure_bits.values())} bits"
    )


def test_criterion_09_oracle_never_finds_lighter_expansions():
    for v in range(-300, 301):
        stats = expand_with_stats(v, B523)
        witness = min_weight_bruteforce(v, B523, max_weight=8)
        assert witness is not None
        assert evaluate_expansion(witness.expansion) == v
        assert witness.weight <= weight(stats.expansion)
    print("criterion 9 PASS: oracle dominance holds for all |v| <= 300")


def test_criterion_10_bound_recurrences():
    for M, K, L, r in ((2, 2, 1, 2), (1, 2, 1, 1), (3, 2, 2, 4)):
        f1, T1 = bounds_f_T(BoundParams(M=M, K=K, L=L, r=r, w=1))
        assert f1 == 0
        assert T1 == K * L
        prev_f = f1
        for w in range(2, 5):
            f, T = bounds_f_T(BoundParams(M=M, K=K, L=L, r=r, w=w))
            assert T == (w + 2 * (w - 1) * prev_f) ** (M * w) * K**w * L**w
            assert f == T * r + prev_f
            prev_f = f
    print("criterion 10 PASS: base cases and recurrence hold through w = 4")
