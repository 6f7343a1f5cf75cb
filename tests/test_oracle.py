"""Brute-force minimal-weight oracle and the verification sweep."""

import dataclasses
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from unitsum import (
    BasePair,
    BudgetExceeded,
    NoRelationFound,
    SignedExpansion,
    VerificationFailed,
    WeightWitness,
    default_box,
    evaluate_expansion,
    expand,
    min_weight_bruteforce,
    sweep_verify,
    weight,
)
from db_reference import ceil_log_by_multiplication
from oracle_reference import reference_dfs, reference_min_weight
from unitsum import oracle
from unitsum.oracle import _Budget, _dfs

B523 = BasePair(5, 23)


def test_zero_has_weight_zero():
    w = min_weight_bruteforce(0, B523, 3, (6, 3))
    assert w.weight == 0
    assert w.expansion.terms == ()


def test_four_has_weight_two():
    w = min_weight_bruteforce(4, B523, 3, (6, 3))
    assert w.weight == 2
    assert evaluate_expansion(w.expansion) == 4


def test_two_has_weight_two():
    # 2 = 5^2 - 23 is the lightest way to write 2 here: no single power works
    w = min_weight_bruteforce(2, B523, 3, (6, 3))
    assert w.weight == 2
    assert evaluate_expansion(w.expansion) == 2


def test_a_witness_weighs_its_terms():
    # the weight is read off the expansion, so the two cannot disagree
    assert [f.name for f in dataclasses.fields(WeightWitness) if f.init] == ["expansion"]
    rng = random.Random(43)
    for v in [rng.randrange(-3000, 3000) for _ in range(40)]:
        w = min_weight_bruteforce(v, B523, 6)
        assert w.weight == len(w.expansion.terms)
        assert WeightWitness(w.expansion) == w
    w = min_weight_bruteforce(7, B523, 4)
    assert repr(w) == (
        "WeightWitness(weight=3, expansion=SignedExpansion(base=BasePair(p=5, q=23), "
        "terms=((1, 2, 0), (1, 1, 0), (-1, 0, 1))))"
    )
    assert list(dataclasses.asdict(w)) == ["weight", "expansion"]


def test_default_box_grows_with_the_value():
    assert default_box(1, B523) == (2, 2)
    assert default_box(997, B523) == (7, 5)
    assert default_box(-997, B523) == (7, 5)


@given(st.integers(-(10**40), 10**40), st.sampled_from([(5, 23), (2, 3), (7, 3)]))
@example(5**20, (5, 23))
@example(5**20 + 1, (5, 23))
def test_default_box_matches_multiplication(v, pq):
    want = tuple(ceil_log_by_multiplication(abs(v), b) + 2 for b in pq)
    assert default_box(v, BasePair(*pq)) == want


@pytest.mark.parametrize("bits", [1 << 12, 1 << 16])
def test_default_box_matches_multiplication_at_scale(bits):
    k = int(bits / 2.33)  # 5^k has about this many bits
    values = [5**k, 5**k + 1, -(23 ** (k // 2)) - 1, random.Random(bits).getrandbits(bits)]
    for v in values:
        want = tuple(ceil_log_by_multiplication(abs(v), b) + 2 for b in (5, 23))
        assert default_box(v, B523) == want, v.bit_length()


def test_unreachable_weight_returns_none():
    # 4 is no single power p^i q^j, so no expansion of weight 1 exists
    assert min_weight_bruteforce(4, B523, 1, (6, 3)) is None


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExceeded):
        min_weight_bruteforce(10**9, B523, 8, (14, 8), node_budget=50)


def test_slot_table_is_checked_against_the_budget_before_it_is_built():
    # a 10^5 x 10^5 box would need about 10^10 big integers; its slot count
    # alone raises, naming that count
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="10000200001 slots"):
            min_weight_bruteforce(7, B523, 8, (10**5, 10**5))
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 0.01 and peak < 1 << 20
    # an empty exponent range holds no slots, so its table fits any budget
    assert min_weight_bruteforce(7, B523, 2, (-1, 5), node_budget=0) is None
    assert min_weight_bruteforce(7, B523, 2, (5, -3), node_budget=0) is None
    # a table of exactly the budget is built and searched: the default box
    # for |v| <= 300 holds 7 x 5 = 35 slots, and the largest one is found
    # with the first node
    assert default_box(300, B523) == (6, 4)
    top = 5**6 * 23**4
    assert min_weight_bruteforce(top, B523, 1, (6, 4), node_budget=35).weight == 1
    with pytest.raises(BudgetExceeded, match="35 slots"):
        min_weight_bruteforce(top, B523, 1, (6, 4), node_budget=34)
    # the (14, 8) box holds 135 slots: with that budget the table is built
    # and the search itself runs out
    with pytest.raises(BudgetExceeded, match="node budget exhausted"):
        min_weight_bruteforce(10**9, B523, 8, (14, 8), node_budget=135)


def test_meet_in_middle_path_agrees_with_dfs_weights():
    # weight <= 4 answers must be found identically by the t >= 5 table code,
    # which only runs when the small-weight passes fail first
    for v in (2, 4, 44, 117):
        w_small = min_weight_bruteforce(v, B523, 4)
        w_large = min_weight_bruteforce(v, B523, 7)
        assert w_small is not None
        assert w_large.weight == w_small.weight


def test_oracle_witness_matches_value_with_mitm():
    # 997 has no expansion of weight <= 4, so the split-table search finds it
    w = min_weight_bruteforce(997, B523, 6)
    assert w.weight == 5
    assert w.expansion.terms == ((-1, 5, 1), (-1, 3, 0), (1, 1, 3), (-1, 1, 0), (1, 0, 3))
    assert evaluate_expansion(w.expansion) == 997


def test_a_witness_that_does_not_evaluate_back_is_refused(monkeypatch):
    # a search that returned 5^0 for 7 at weight 0
    monkeypatch.setattr(oracle, "_dfs", lambda *args: ((1, 0, 0),))
    with pytest.raises(VerificationFailed, match="^oracle witness for 7 does not evaluate back$"):
        min_weight_bruteforce(7, B523, 4)


def test_budget_runs_out_inside_meet_in_middle():
    # this budget clears every depth-first pass for 997 (weights 1..4) but
    # not the split-table search that weight 5 needs
    assert min_weight_bruteforce(997, B523, 4, node_budget=3000) is None
    with pytest.raises(BudgetExceeded):
        min_weight_bruteforce(997, B523, 6, node_budget=3000)


@settings(max_examples=25)
@given(st.integers(-200, 200))
def test_oracle_never_beats_its_own_witness(v):
    w = min_weight_bruteforce(v, B523, 6)
    assert w is not None
    assert evaluate_expansion(w.expansion) == v
    assert weight(w.expansion) == w.weight
    assert w.weight <= weight(expand(v, B523))


# ------------------------------------------- differential: reference search

DFS_BASES = [BasePair(5, 23), BasePair(11, 13), BasePair(5, 7), BasePair(2, 3)]


def _slots(base, box):
    slots = [(base.p**i * base.q**j, i, j) for i in range(box[0] + 1) for j in range(box[1] + 1)]
    return sorted(slots, reverse=True)


def assert_dfs_same_as_scan(target, slots, nodes):
    """Weights 0..4 in turn, one budget per search as min_weight_bruteforce
    keeps it: the same terms, the same nodes left after each weight, and
    BudgetExceeded at the same weight."""
    keys = [-m for m, _, _ in slots]
    ours, theirs = _Budget(nodes), _Budget(nodes)
    for t in range(5):
        try:
            got = _dfs(target, slots, t, ours, keys)
        except BudgetExceeded:
            got = BudgetExceeded
        chosen = []
        try:
            want = chosen if reference_dfs(target, slots, 0, t, chosen, theirs) else None
        except BudgetExceeded:
            want = BudgetExceeded
        assert got == want, t
        if got is BudgetExceeded:
            return
        assert ours.left == theirs.left, t


@settings(max_examples=150)
@given(
    st.sampled_from(DFS_BASES),
    st.one_of(st.integers(-3, 3), st.integers(-(10**4), 10**4)),
    st.one_of(st.none(), st.tuples(st.integers(0, 5), st.integers(0, 4))),
    st.integers(0, 3000),
)
@example(BasePair(5, 23), 0, None, 3000)
@example(BasePair(5, 23), 997, None, 3000)
@example(BasePair(5, 23), -997, (7, 5), 200)
def test_last_term_lookup_spends_what_the_scan_spends(base, target, box, nodes):
    box = default_box(target, base) if box is None else box
    assert_dfs_same_as_scan(target, _slots(base, box), nodes)


def test_last_term_lookup_takes_the_first_of_equal_magnitudes():
    # encoded slots (such as a cubic oracle's) may repeat a magnitude;
    # the first slot of that magnitude is the one a scan hits
    slots = [(25, 2, 0), (23, 0, 1), (23, 9, 9), (5, 1, 0), (1, 0, 0)]
    keys = [-m for m, _, _ in slots]
    for target, t, terms, spent in [
        (23, 1, [(1, 0, 1)], 2),
        (-23, 1, [(-1, 0, 1)], 2),
        (28, 2, [(1, 0, 1), (1, 1, 0)], 7),
        (46, 2, [(1, 0, 1), (1, 9, 9)], 5),
    ]:
        budget = _Budget(100)
        assert _dfs(target, slots, t, budget, keys) == terms
        assert 100 - budget.left == spent
        for nodes in range(12):
            assert_dfs_same_as_scan(target, slots, nodes)


@pytest.mark.parametrize(
    "v, w, nodes",
    [
        # the heaviest direct search among the certify values
        (-132, 4, 1107),
        # the heaviest meet-in-the-middle search among them
        (-282, 6, 62627),
    ],
)
def test_a_budget_of_exactly_the_nodes_spent_suffices(v, w, nodes, monkeypatch):
    budgets = []

    class Recorded(_Budget):
        def __init__(self, nodes):
            super().__init__(nodes)
            budgets.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_Budget", Recorded)
        witness = min_weight_bruteforce(v, B523, 8, node_budget=10**9)
    assert (witness.weight, 10**9 - budgets[0].left) == (w, nodes)
    assert min_weight_bruteforce(v, B523, 8, node_budget=nodes) == witness
    with pytest.raises(BudgetExceeded, match="node budget exhausted"):
        min_weight_bruteforce(v, B523, 8, node_budget=nodes - 1)


def test_direct_search_overruns_its_budget_by_less_than_one_loop():
    # the two-term loops charge their nodes when they end, so a search
    # that runs out of nodes has spent at most one such loop too many;
    # on 10^4 slots that is far fewer nodes than slots
    slots = _slots(B523, (99, 99))
    assert len(slots) == 10**4
    budget = _Budget(10**5)
    with pytest.raises(BudgetExceeded):
        _dfs(997, slots, 3, budget, [-m for m, _, _ in slots])
    assert -len(slots) <= budget.left < 0


BASES = [BasePair(5, 23), BasePair(2, 3), BasePair(5, 7), BasePair(11, 13)]

# (v, base, max_weight, box, first-half terms in the witness)
FIRST_HALF_CASES = [
    (600, BasePair(11, 13), 6, (2, 2), 3),
    (187, BasePair(11, 13), 8, (4, 3), 2),
    (-591, B523, 5, (4, 1), 2),
    (-892, B523, 6, (2, 4), 2),
    (1770, BasePair(5, 7), 8, (4, 1), 4),
    (1301, BasePair(2, 3), 7, (3, 4), 4),
    # two first-half subsets share the witness's first-half sum here, and
    # the witness takes the first of them in enumeration order
    (533, BasePair(2, 3), 8, (2, 4), 3),
    (-263, BasePair(5, 7), 8, (1, 3), 2),
]


def assert_same_as_reference(v, base, max_weight, box):
    ref = reference_min_weight(v, base, max_weight, box)
    w = min_weight_bruteforce(v, base, max_weight, box)
    if ref is None:
        assert w is None
        return None
    weight_ref, terms_ref, ta = ref
    assert w.weight == weight_ref
    assert w.expansion.terms == SignedExpansion(base, terms_ref).terms
    return ta


@settings(max_examples=40)
@given(
    st.sampled_from(BASES),
    st.integers(5, 8),
    st.one_of(
        st.tuples(st.integers(-60, 60), st.none()),
        st.tuples(
            st.integers(-2000, 2000),
            st.tuples(st.integers(1, 5), st.integers(1, 4)),
        ),
    ),
)
@example(B523, 8, (-282, None))
@example(B523, 8, (997, None))
@example(B523, 6, (997, (7, 5)))
def test_windowed_search_matches_reference(base, max_weight, value_box):
    v, box = value_box
    assert_same_as_reference(v, base, max_weight, box)


@pytest.mark.parametrize("v, base, max_weight, box, first_half", FIRST_HALF_CASES)
def test_windowed_search_matches_reference_with_first_half_terms(
    v, base, max_weight, box, first_half
):
    # every witness of the certify workload lies in the second half
    # (ta = 0); these boxes make the witness use first-half slots as well
    assert assert_same_as_reference(v, base, max_weight, box) == first_half


# ------------------------------------------------------------------ sweeps


def test_sweep_of_the_reference_window():
    rows = sweep_verify(995, 1003, B523)
    assert len(rows) == 9
    assert [row[0] for row in rows] == list(range(995, 1004))
    # (v, w_init, steps, weight), as bench-steps prints them
    for v, w_init, steps, w in rows:
        assert w == weight(expand(v, B523))
        assert steps <= (w_init * w_init - w_init) // 2


def test_sweep_symmetric_window():
    rows = sweep_verify(-100, 100, B523)
    assert len(rows) == 201
    assert [row[0] for row in rows] == list(range(-100, 101))
    assert all(len(row) == 4 for row in rows)


@pytest.mark.parametrize("fault", ["value", "steps"])
def test_sweep_rechecks_each_expansion(monkeypatch, fault):
    """An expansion of 10 that evaluates to 11, or a step count one past
    the bound, aborts the sweep at 10."""
    expand_with_stats = oracle.expand_with_stats

    def faulty(v, base):
        stats = expand_with_stats(v, base)
        if v != 10:
            return stats
        if fault == "value":
            return dataclasses.replace(stats, expansion=expand(11, base))
        return dataclasses.replace(stats, steps=(stats.w_init * stats.w_init - stats.w_init) // 2 + 1)

    monkeypatch.setattr(oracle, "expand_with_stats", faulty)
    w_init = expand_with_stats(10, B523).w_init
    bound = (w_init * w_init - w_init) // 2
    if fault == "value":
        message = "round trip failed at v = 10"
    else:
        message = f"step count {bound + 1} exceeds bound {bound} at v = 10"
    with pytest.raises(VerificationFailed, match=f"^{message}$"):
        sweep_verify(8, 12, B523)


def test_sweep_aborts_without_a_relation():
    with pytest.raises(NoRelationFound):
        sweep_verify(1, 50, BasePair(5, 11))
