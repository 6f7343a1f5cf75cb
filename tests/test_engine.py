"""Core rewrite engine: representations, the replacement step, reduce,
and the certified numeric helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from heap_reference import heap_reduce, shuffled_reduce
from unitsum import (
    BasisMismatch,
    BoundParams,
    CubicParams,
    IterationCapExceeded,
    PlainRelation,
    ReductionPolicy,
    Representation,
    TargetTooSmall,
    UnitGroupBasis,
    UnitRelation,
    bounds_f_T,
    cubic_basis,
    evaluate,
    monotone_quantity,
    rational_basis,
    rational_evaluator,
    reduce,
    replacement_step,
    three_relation,
    to_unit_relation,
    total_weight,
)
from unitsum.double_base import BasePair

BASE = rational_basis(5, 23)
PAIR = BasePair(5, 23)
REL = to_unit_relation(PlainRelation(2, 1, 1), PAIR)
EVAL = rational_evaluator(PAIR)


def rep_of(coeffs):
    return Representation(BASE, coeffs)


def _point(value):
    return lambda bits: (Fraction(value), Fraction(value))


# two torsion generators and three exponents: the shape no basis in the
# package has, where reduce takes its generic path
WIDE = UnitGroupBasis(
    etas=(1, 2),
    epsilons=(5, 23, 7),
    abs_val=(_point(5), _point(23), _point(7)),
)
WIDE_REL = UnitRelation(n=2, terms=((0, (2, 0, 1)), (1, (0, 1, 0))))
CUBIC_PARAMS = [CubicParams(a) for a in (*range(11), 1000, -1000)]


def seeds(ells, coord, dims, most):
    return st.dictionaries(
        st.tuples(
            st.integers(0, 1),
            st.integers(1, ells),
            st.tuples(*[st.integers(-coord, coord)] * dims),
        ),
        st.integers(1, most),
        max_size=8,
    )


def assert_agrees_with(reference, rep, rel):
    """reduce gives the reference's (coefficients, steps, odometer); its
    odometer is the per-index sums of the on_step multiplicities."""
    odometer = {}

    def record(idx, t):
        odometer[idx] = odometer.get(idx, 0) + t

    out = reduce(rep, rel, ReductionPolicy(on_step=record))
    assert (dict(out.coeffs), out.steps, odometer) == reference


# ---------------------------------------------------------------- basics


def test_basis_shape():
    assert BASE.K == 2
    assert BASE.L == 1
    assert BASE.M == 2


def test_relation_shape():
    assert REL.n == 2
    assert REL.I == 2
    assert REL.r_max == 2


def test_relation_rejects_underdetermined():
    with pytest.raises(ValueError):
        UnitRelation(n=1, terms=((0, (1, 0)), (1, (0, 1))))
    with pytest.raises(ValueError):
        UnitRelation(n=2, terms=((0, (1, 0)),))
    # more terms than n is not a valid replacement
    with pytest.raises(ValueError):
        UnitRelation(n=2, terms=((0, (1, 0)), (0, (0, 1)), (1, (1, 1))))


@pytest.mark.parametrize(
    "n, terms, field",
    [
        (3.7, ((0, (1, 0)), (1, (0, 1))), "right-hand side"),
        (Fraction(7, 2), ((0, (1, 0)), (1, (0, 1))), "right-hand side"),
        (2, ((0, (1.5, 0)), (1, (0, 1))), "exponent"),
        (2, ((0.5, (1, 0)), (1, (0, 1))), "sign layer"),
    ],
)
def test_relation_rejects_non_integral_fields(n, terms, field):
    # n = 3.7 and n = 7/2 were read as 3, an exponent 1.5 as 1
    with pytest.raises(ValueError, match=f"{field} .* is not an integer"):
        UnitRelation(n=n, terms=terms)


def test_relation_keeps_exact_integers():
    rel = UnitRelation(n=Fraction(4, 2), terms=((0.0, (2.0, 0)), (1, (0, 1))))
    assert (rel.n, rel.terms) == (2, ((0, (2, 0)), (1, (0, 1))))
    assert all(type(v) is int for v in (rel.n, rel.terms[0][0], *rel.terms[0][1]))


def test_relation_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        UnitRelation(n=2, terms=((0, (1, 0)), (1, (0, 1, 0))))


def test_representation_validates_indices():
    with pytest.raises(ValueError):
        rep_of({(2, 1, (0, 0)): 1})  # k out of range
    with pytest.raises(ValueError):
        rep_of({(0, 0, (0, 0)): 1})  # ell out of range
    with pytest.raises(ValueError):
        rep_of({(0, 1, (0,)): 1})  # wrong exponent arity
    with pytest.raises(ValueError):
        rep_of({(0, 1, (0, 0)): -1})


@pytest.mark.parametrize(
    "coeffs, field",
    [
        ({(0, 1, (0, 0)): 2.5}, "coefficient"),
        ({(0, 1, (0, 0)): float("inf")}, "coefficient"),
        ({(0, 1, (1.5, 0)): 1}, "exponent"),
        ({(0, 1, (0, float("inf"))): 1}, "exponent"),
        ({(0.5, 1, (0, 0)): 1}, "sign layer"),
        ({(0, 1.5, (0, 0)): 1}, "generator"),
    ],
)
def test_representation_rejects_non_integral_entries(coeffs, field):
    # 2.5 was stored as 2, an exponent 1.5 as 1, and inf raised OverflowError
    with pytest.raises(ValueError, match=f"{field} .* is not an integer"):
        rep_of(coeffs)


def test_representation_keeps_exact_integers():
    r = rep_of({(0.0, Fraction(2, 2), (Fraction(4, 2), 3.0)): 2.0})
    assert dict(r.coeffs) == {(0, 1, (2, 3)): 2}
    ((k, ell, x), a), = r.items()
    assert all(type(v) is int for v in (k, ell, *x, a))


def test_representation_drops_zeros_and_is_readonly():
    r = rep_of({(0, 1, (0, 0)): 1, (0, 1, (1, 0)): 0})
    assert len(r) == 1
    with pytest.raises(TypeError):
        r.coeffs[(0, 1, (0, 0))] = 5


def test_representation_equality_ignores_step_counter():
    a = Representation(BASE, {(0, 1, (0, 0)): 1}, steps=0)
    b = Representation(BASE, {(0, 1, (0, 0)): 1}, steps=7)
    assert a == b
    assert hash(a) == hash(b)


def test_empty_representation_is_zero():
    r = rep_of({})
    assert not r
    assert evaluate(r, EVAL) == 0
    assert total_weight(r) == 0
    assert r.bbox is None


def test_bbox_is_coordinatewise_hull():
    r = rep_of({(0, 1, (0, 5)): 1, (1, 1, (3, -2)): 2})
    assert r.bbox == ((0, 3), (-2, 5))


# ------------------------------------------------------ replacement step


def test_replacement_step_once():
    r = rep_of({(0, 1, (0, 0)): 4})
    out = replacement_step(r, REL, (0, 1, (0, 0)))
    assert dict(out.coeffs) == {
        (0, 1, (0, 0)): 2,
        (0, 1, (2, 0)): 1,
        (1, 1, (0, 1)): 1,
    }
    assert out.steps == 1
    assert evaluate(out, EVAL) == 4


def test_replacement_step_weight_change_is_I_minus_n():
    r = rep_of({(0, 1, (0, 0)): 4})
    out = replacement_step(r, REL, (0, 1, (0, 0)))
    assert total_weight(out) - total_weight(r) == REL.I - REL.n


def test_replacement_step_needs_a_big_enough_coefficient():
    r = rep_of({(0, 1, (0, 0)): 1})
    with pytest.raises(TargetTooSmall):
        replacement_step(r, REL, (0, 1, (0, 0)))
    with pytest.raises(TargetTooSmall):
        replacement_step(r, REL, (0, 1, (9, 9)))


@pytest.mark.parametrize("target", [(0, 1, (0.5, 0)), (0.5, 1, (0, 0)), (0, 1, (0, float("nan")))])
def test_replacement_step_rejects_non_integral_targets(target):
    # each was looked up as it stood and reported as a coefficient below n
    with pytest.raises(ValueError, match="is not an integer"):
        replacement_step(rep_of({(0, 1, (0, 0)): 4}), REL, target)


def test_replacement_step_reads_exact_targets():
    r = rep_of({(0, 1, (0, 0)): 4})
    out = replacement_step(r, REL, (0.0, Fraction(1), [0, 0.0]))
    assert out == replacement_step(r, REL, (0, 1, (0, 0)))
    assert all(type(k) is int and type(ell) is int for k, ell, _ in out.coeffs)


def test_basis_mismatch_is_detected():
    # a relation whose terms cannot fit the basis shape is rejected
    bad = UnitRelation(n=2, terms=((0, (1, 0, 0)), (1, (0, 1, 0))))
    with pytest.raises(BasisMismatch):
        replacement_step(rep_of({(0, 1, (0, 0)): 4}), bad, (0, 1, (0, 0)))
    with pytest.raises(BasisMismatch):
        reduce(rep_of({(0, 1, (0, 0)): 4}), bad)


# ----------------------------------------------------------------- reduce


def test_reduce_of_four():
    """Worked example: 4 units over (5,23) reduce in exactly 5 steps."""
    out = reduce(rep_of({(0, 1, (0, 0)): 4}), REL)
    assert out.steps == 5
    assert dict(out.coeffs) == {
        (0, 1, (4, 0)): 1,
        (1, 1, (4, 1)): 1,
        (0, 1, (2, 2)): 1,
        (0, 1, (0, 2)): 1,
    }
    assert evaluate(out, EVAL) == 4


def test_reduce_bounds_every_coefficient():
    seed = rep_of({(0, 1, (0, 0)): 1000, (1, 1, (1, 1)): 313})
    out = reduce(seed, REL)
    assert all(1 <= a < REL.n for a in out.coeffs.values())
    assert evaluate(out, EVAL) == evaluate(seed, EVAL) == 1000 - 313 * 115


def test_reduce_empty_is_noop():
    out = reduce(rep_of({}), REL)
    assert not out
    assert out.steps == 0


def test_reduce_cancels_opposite_layers_first():
    # 3 - 1 at the same exponent collapses to 2 before any rewriting
    r = rep_of({(0, 1, (0, 0)): 3, (1, 1, (0, 0)): 1})
    out = reduce(r, REL)
    assert evaluate(out, EVAL) == 2
    assert out.steps == 1  # single replacement of the netted 2


@pytest.mark.parametrize(
    "rep, rel",
    [
        (
            rep_of({
                (0, 1, (0, 0)): 7, (1, 1, (0, 0)): 2,
                (1, 1, (1, 0)): 9, (0, 1, (1, 0)): 3,
                (0, 1, (0, 1)): 5, (1, 1, (0, 1)): 5,
                (1, 1, (2, 2)): 1, (0, 1, (2, 2)): 6,
            }),
            REL,
        ),
        (
            Representation(WIDE, {
                (1, 2, (0, 0, 0)): 4, (0, 2, (0, 0, 0)): 9,
                (0, 2, (1, 0, 0)): 2, (1, 2, (1, 0, 0)): 8,
                (1, 1, (0, 1, 0)): 3, (0, 1, (0, 1, 0)): 3,
                (0, 1, (0, 0, 0)): 5, (1, 2, (0, 0, 1)): 6,
            }),
            WIDE_REL,
        ),
    ],
    ids=["rational", "generic-shape"],
)
def test_reduce_cancels_shared_sites_like_the_reference(rep, rel):
    # both sign layers hold coefficients at one (l, x) with a > b, a < b
    # and a == b, each layer coming first in the input at some site
    assert_agrees_with(heap_reduce(rep, rel), rep, rel)


def test_reduce_step_cap():
    policy = ReductionPolicy(max_steps=3)
    with pytest.raises(IterationCapExceeded):
        reduce(rep_of({(0, 1, (0, 0)): 1000}), REL, policy)


def test_reduce_step_cap_leaves_input_untouched():
    r = rep_of({(0, 1, (0, 0)): 1000})
    before = dict(r.coeffs)
    with pytest.raises(IterationCapExceeded):
        reduce(r, REL, ReductionPolicy(max_steps=3))
    assert dict(r.coeffs) == before


def test_reduce_on_step_ledger_matches_counter():
    events = []
    policy = ReductionPolicy(on_step=lambda idx, t: events.append((idx, t)))
    out = reduce(rep_of({(0, 1, (0, 0)): 4}), REL, policy)
    assert sum(t for _, t in events) == out.steps == 5
    assert all(t >= 1 for _, t in events)


def test_reduce_step_cap_boundary():
    """The cap is inclusive: exactly the total succeeds, one less fails
    and leaves the input as it was."""
    cubic = CubicParams(2)
    cases = [
        (rep_of({(0, 1, (0, 0)): 1000}), REL),
        (Representation(cubic_basis(cubic), {(0, 1, (0, 0)): 300, (1, 1, (1, 0)): 200}), three_relation(cubic)),
    ]
    for rep, rel in cases:
        total = reduce(rep, rel).steps
        assert reduce(rep, rel, ReductionPolicy(max_steps=total)).steps == total
        before = dict(rep.coeffs)
        with pytest.raises(IterationCapExceeded):
            reduce(rep, rel, ReductionPolicy(max_steps=total - 1))
        assert dict(rep.coeffs) == before


def test_reduce_has_no_exponent_limit():
    """Neither a huge step cap nor huge exponents limit reduce; a shifted
    seed reduces to the shifted result in the same number of steps."""
    plain = reduce(rep_of({(0, 1, (0, 0)): 1000}), REL)
    assert plain.steps == 37_009
    capped = reduce(rep_of({(0, 1, (0, 0)): 1000}), REL, ReductionPolicy(max_steps=10**13))
    assert capped == plain and capped.steps == plain.steps
    far = 2**45
    shifted = reduce(rep_of({(0, 1, (far, -far)): 1000}), REL)
    assert shifted.steps == plain.steps
    assert dict(shifted.coeffs) == {
        (k, ell, (x0 + far, x1 - far)): a for (k, ell, (x0, x1)), a in plain.coeffs.items()
    }


def test_reduce_far_apart_clusters_agree_with_unsplit_run():
    """Two widely separated clusters reduce exactly as in the heap
    reference loop, which fires in lexicographic order."""
    seed = rep_of({(0, 1, (0, 0)): 9, (0, 1, (900, 0)): 7, (1, 1, (900, 3)): 4})
    assert_agrees_with(heap_reduce(seed, REL), seed, REL)
    assert evaluate(reduce(seed, REL), EVAL) == evaluate(seed, EVAL)


@given(seeds(1, 6, 2, 200))
def test_reduce_matches_heap_reference_rational(coeffs):
    # REL's term (1, (0, 1)) moves its unit to the other sign layer
    rep = rep_of(coeffs)
    assert_agrees_with(heap_reduce(rep, REL), rep, REL)


@given(st.sampled_from(CUBIC_PARAMS), seeds(1, 3, 2, 100))
def test_reduce_matches_heap_reference_cubic(params, coeffs):
    rep = Representation(cubic_basis(params), coeffs)
    rel = three_relation(params)
    assert_agrees_with(heap_reduce(rep, rel), rep, rel)


@given(seeds(2, 3, 3, 60))
def test_reduce_matches_heap_reference_generic_shape(coeffs):
    rep = Representation(WIDE, coeffs)
    assert_agrees_with(heap_reduce(rep, WIDE_REL), rep, WIDE_REL)


@given(st.sampled_from([None, *CUBIC_PARAMS[:3]]), seeds(1, 3, 2, 40), st.randoms(use_true_random=False))
def test_shuffled_firing_order_gives_same_state_and_odometer(params, coeffs, rnd):
    if params is None:
        rep, rel = rep_of(coeffs), REL
    else:
        rep, rel = Representation(cubic_basis(params), coeffs), three_relation(params)
    assert_agrees_with(shuffled_reduce(rep, rel, rnd), rep, rel)


@given(
    st.dictionaries(
        st.tuples(
            st.integers(0, 1),
            st.just(1),
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
        ),
        st.integers(1, 60),
        max_size=8,
    )
)
def test_reduce_preserves_value_and_bounds_coefficients(coeffs):
    r = rep_of(coeffs)
    out = reduce(r, REL)
    assert evaluate(out, EVAL) == evaluate(r, EVAL)
    assert all(1 <= a < REL.n for a in out.coeffs.values())


@given(
    st.dictionaries(
        st.tuples(
            st.integers(0, 1),
            st.just(1),
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
        ),
        st.integers(1, 40),
        min_size=1,
        max_size=6,
    )
)
def test_reduce_strictly_raises_the_monotone_quantity(coeffs):
    # sign layers at the same exponent net out before any rewriting, and
    # that netting may lower the quantity; rewriting itself only raises it
    netted = {}
    for (k, ell, x), a in coeffs.items():
        netted[(ell, x)] = netted.get((ell, x), 0) + (a if k == 0 else -a)
    start = rep_of(
        {(0 if c > 0 else 1, ell, x): abs(c) for (ell, x), c in netted.items() if c}
    )
    out = reduce(start, REL)
    q0 = monotone_quantity(start)
    q1 = monotone_quantity(out)
    # rational bases give exact point intervals
    assert q0[0] == q0[1] and q1[0] == q1[1]
    if out.steps > 0:
        assert q1[0] > q0[0]
    else:
        assert q1[0] >= q0[0]


# -------------------------------------------------------- numeric helpers


def test_monotone_quantity_point_values():
    assert monotone_quantity(rep_of({(0, 1, (0, 0)): 2})) == (2, 2)
    two_terms = rep_of({(0, 1, (2, 0)): 1, (1, 1, (0, 1)): 1})
    assert monotone_quantity(two_terms) == (1154, 1154)


def test_monotone_quantity_counts_weight_not_sign():
    # same exponents on opposite layers contribute alike
    a = monotone_quantity(rep_of({(0, 1, (3, 1)): 2}))
    b = monotone_quantity(rep_of({(1, 1, (3, 1)): 2}))
    assert a == b


# ----------------------------------------------------------------- bounds


def test_bound_base_cases():
    f, T = bounds_f_T(BoundParams(M=2, K=2, L=1, r=2, w=1))
    assert f == 0
    assert T == 2 * 1


def test_bound_recurrence_weight_two():
    f, T = bounds_f_T(BoundParams(M=2, K=2, L=1, r=2, w=2))
    assert T == (2 + 2 * 1 * 0) ** 4 * 2**2 * 1**2 == 64
    assert f == 64 * 2 + 0 == 128


def test_bound_recurrence_chains():
    p3 = BoundParams(M=2, K=2, L=1, r=2, w=3)
    f2, T2 = bounds_f_T(BoundParams(M=2, K=2, L=1, r=2, w=2))
    f3, T3 = bounds_f_T(p3)
    assert T3 == (3 + 2 * 2 * f2) ** 6 * 2**3
    assert f3 == T3 * 2 + f2
