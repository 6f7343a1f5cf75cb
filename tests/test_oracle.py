"""Brute-force minimal-weight oracle and the verification sweep."""

import pytest
from hypothesis import example, given, settings, strategies as st

from unitsum import (
    BasePair,
    BudgetExceeded,
    NoRelationFound,
    SignedExpansion,
    default_box,
    evaluate_expansion,
    expand,
    min_weight_bruteforce,
    sweep_verify,
    weight,
)
from oracle_reference import reference_min_weight

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
    # 4 is no single power p^i q^j, so no expansion of weight 1 exists
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
    # 997 has no expansion of weight <= 4, so the split-table search finds it
    w = min_weight_bruteforce(997, B523, 6)
    assert w.weight == 5
    assert w.expansion.terms == ((-1, 5, 1), (-1, 3, 0), (1, 1, 3), (-1, 1, 0), (1, 0, 3))
    assert evaluate_expansion(w.expansion) == 997


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
    assert all(row[1] == "ok" for row in rows)


def test_sweep_symmetric_window():
    rows = sweep_verify(-100, 100, B523)
    assert len(rows) == 201
    assert [row[0] for row in rows] == list(range(-100, 101))


def test_sweep_with_oracle_dominance():
    rows = sweep_verify(-30, 30, B523, oracle_max_weight=6)
    for v, status, w_algo, w_oracle, steps, w_init in rows:
        assert status == "ok"
        assert w_oracle <= w_algo


def test_sweep_aborts_without_a_relation():
    with pytest.raises(NoRelationFound):
        sweep_verify(1, 50, BasePair(5, 11))
