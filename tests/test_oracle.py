"""Brute-force minimal-weight oracle and the verification sweep."""

import pytest
from hypothesis import given, settings, strategies as st

from unitsum import (
    BasePair,
    BudgetExceeded,
    NoRelationFound,
    default_box,
    evaluate_expansion,
    expand,
    min_weight_bruteforce,
    sweep_verify,
    weight,
)

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


def test_default_box_grows_with_the_value():
    assert default_box(1, B523) == (2, 2)
    assert default_box(997, B523) == (7, 5)
    assert default_box(-997, B523) == (7, 5)


def test_unreachable_weight_returns_none():
    # an odd number below any cancellation needs at least ... more than 1 digit
    assert min_weight_bruteforce(4, B523, 1, (6, 3)) is None


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExceeded):
        min_weight_bruteforce(10**9, B523, 8, (14, 8), node_budget=50)


def test_meet_in_middle_path_agrees_with_dfs_weights():
    # weight <= 4 answers must be found identically by the t >= 5 table code,
    # which only runs when the small-weight passes fail first
    for v in (2, 4, 44, 117):
        w_small = min_weight_bruteforce(v, B523, 4)
        w_large = min_weight_bruteforce(v, B523, 7)
        assert w_small is not None
        assert w_large.weight == w_small.weight


def test_oracle_witness_matches_value_with_mitm():
    # 997 is light enough to need the split-table search
    w = min_weight_bruteforce(997, B523, 6)
    if w is not None:
        assert evaluate_expansion(w.expansion) == 997
        assert w.weight >= 5  # DFS would have caught anything smaller


@settings(max_examples=25)
@given(st.integers(-200, 200))
def test_oracle_never_beats_its_own_witness(v):
    w = min_weight_bruteforce(v, B523, 6)
    assert w is not None
    assert evaluate_expansion(w.expansion) == v
    assert weight(w.expansion) == w.weight
    assert w.weight <= weight(expand(v, B523))


# ------------------------------------------------------------------ sweeps


def test_sweep_of_the_reference_window():
    rep = sweep_verify(995, 1003, B523)
    assert rep.count == 9
    assert all(row[1] == "ok" for row in rep.rows)


def test_sweep_symmetric_window():
    rep = sweep_verify(-100, 100, B523)
    assert rep.count == 201


def test_sweep_with_oracle_dominance():
    rep = sweep_verify(-30, 30, B523, oracle_max_weight=6)
    for v, status, w_algo, w_oracle, steps, w_init in rep.rows:
        assert status == "ok"
        assert w_oracle <= w_algo


def test_sweep_aborts_without_a_relation():
    with pytest.raises(NoRelationFound):
        sweep_verify(1, 50, BasePair(5, 11))
