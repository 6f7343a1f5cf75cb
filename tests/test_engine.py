"""Core rewrite engine: representations, the replacement step, reduce,
and the certified numeric helpers."""

import math
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from evaluate_reference import evaluate_by_terms, rational_term
from heap_reference import heap_reduce, shuffled_reduce
from monotone_reference import reference_monotone_quantity
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
from unitsum import cubic, engine
from unitsum.double_base import BasePair
from unitsum.relations import find_extended_relation, find_plain_relation

BASE = rational_basis(5, 23)
PAIR = BasePair(5, 23)
REL = to_unit_relation(PlainRelation(2, 1, 1), PAIR)
EVAL = rational_evaluator(PAIR)


def rep_of(coeffs):
    return Representation(BASE, coeffs)


def _point(value):
    return lambda bits: (Fraction(value), Fraction(value))


# two torsion generators and three exponents: the shape no basis in the
# package has
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


def assert_agrees_with(reference, rep, rel, max_steps=1_000_000):
    """reduce gives the reference's (coefficients, steps, odometer); its
    odometer is the per-index sums of the on_step multiplicities."""
    odometer = {}

    def record(idx, t):
        odometer[idx] = odometer.get(idx, 0) + t

    out = reduce(rep, rel, ReductionPolicy(max_steps=max_steps, on_step=record))
    assert (dict(out.coeffs), out.steps, odometer) == reference
    assert_fits_its_basis(out)


def assert_fits_its_basis(out):
    """Every key and coefficient would pass Representation.__init__,
    which reduce does not run on its kernel's map."""
    K, L, M = out.basis.K, out.basis.L, out.basis.M
    for (k, ell, x), a in out.items():
        assert type(k) is int and 0 <= k < K
        assert type(ell) is int and 1 <= ell <= L
        assert type(x) is tuple and len(x) == M and all(type(c) is int for c in x)
        assert type(a) is int and a >= 1
    assert type(out.steps) is int
    assert Representation(out.basis, dict(out.items()), out.steps) == out


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


def test_representation_step_counter_is_an_exact_integer():
    # 2.5 was stored as 2
    for steps in (2.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="steps .* is not an integer"):
            Representation(BASE, {}, steps=steps)
    r = Representation(BASE, {}, steps=Fraction(4, 2))
    assert r.steps == 2 and type(r.steps) is int


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


def test_representation_leaves_foreign_comparisons_to_python():
    a = Representation(BASE, {(0, 1, (0, 0)): 1})
    assert a.__eq__({(0, 1, (0, 0)): 1}) is NotImplemented
    assert a != {(0, 1, (0, 0)): 1}


def test_empty_representation_is_zero():
    r = rep_of({})
    assert not r
    for value in (evaluate(r, EVAL), evaluate_by_terms(r, rational_term(PAIR))):
        assert type(value) is int and value == 0
    assert total_weight(r) == 0


# both sign layers and negative exponents on either unit; the first
# example holds a term on each layer of one site
RATIONAL_COEFFS = st.dictionaries(
    st.tuples(st.integers(0, 1), st.just(1), st.tuples(st.integers(-40, 40), st.integers(-40, 40))),
    st.integers(1, 10**6),
    max_size=40,
)


@settings(max_examples=200)
@given(RATIONAL_COEFFS)
@example({(0, 1, (-3, 2)): 5, (1, 1, (-3, 2)): 5})  # the two layers cancel
@example({(0, 1, (40, -40)): 10**6, (1, 1, (-40, 40)): 1})
def test_rational_evaluator_matches_per_term_sums(coeffs):
    r = rep_of(coeffs)
    got = evaluate(r, EVAL)
    want = evaluate_by_terms(r, rational_term(PAIR))
    assert type(got) is type(want)
    assert got == want


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


# a sign layer past K, a generator past L and three exponents for M = 2:
# each was looked up as it stood and reported as a coefficient below n
@pytest.mark.parametrize(
    "target", [(5, 1, (0, 0)), (0, 2, (0, 0)), (0, 1, (0, 0, 0))], ids=["sign-layer", "generator", "exponents"]
)
def test_replacement_step_names_a_target_outside_the_basis(target):
    params = CubicParams(2)
    rep = Representation(cubic_basis(params), {(0, 1, (0, 0)): 3})
    with pytest.raises(ValueError, match=re.escape(f"index {target} does not fit the basis")):
        replacement_step(rep, three_relation(params), target)


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


def test_engine_bridge_reduces_every_relation_the_converters_fire():
    # every plain and every extended relation over coprime pairs below 60,
    # 72 + 236 of them: m chips at the origin on either sign layer reduce
    # to coefficients 1 that evaluate back to m or -m
    fired = 0
    for p in range(2, 60):
        for q in range(2, 60):
            if p == q or math.gcd(p, q) != 1:
                continue
            base = BasePair(p, q)
            basis, ev = rational_basis(p, q), rational_evaluator(base)
            for rel in (find_plain_relation(base), find_extended_relation(base)):
                if rel is None:
                    continue
                fired += 1
                bridge = to_unit_relation(rel, base)
                for m in (2, 3, 7, 50):
                    for k, value in ((0, m), (1, -m)):
                        out = reduce(Representation(basis, {(k, 1, (0, 0)): m}), bridge)
                        assert set(out.coeffs.values()) == {1}, (rel, m, k)
                        assert evaluate(out, ev) == value, (rel, m, k)
    assert fired == 308


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


@pytest.mark.parametrize("cap", [float("nan"), float("inf"), 2.5, Fraction(5, 2)])
def test_step_cap_is_an_exact_integer(cap):
    # a nan cap compared false against every count and switched the cap off
    with pytest.raises(ValueError, match="max_steps .* is not an integer"):
        ReductionPolicy(max_steps=cap)


def test_step_cap_keeps_exact_integers():
    policy = ReductionPolicy(max_steps=Fraction(10, 2))
    assert policy.max_steps == 5 and type(policy.max_steps) is int
    assert ReductionPolicy(max_steps=10**13).max_steps == 10**13


def test_negative_step_cap_raises_on_the_first_firing():
    events = []
    policy = ReductionPolicy(max_steps=-5, on_step=lambda idx, t: events.append(t))
    with pytest.raises(IterationCapExceeded):
        reduce(rep_of({(0, 1, (0, 0)): 2}), REL, policy)
    assert events == []
    # nothing to fire: the cap is never consulted
    out = reduce(rep_of({(0, 1, (3, -4)): 1}), REL, policy)
    assert (dict(out.coeffs), out.steps) == ({(0, 1, (3, -4)): 1}, 0)


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


# One exponent and two torsion generators; the relations below lose weight
# on every firing (I < n), so they stop whatever the seed, and their terms
# move sites both ways and across the sign layers.
LINE = UnitGroupBasis(etas=(1, 2), epsilons=(3,), abs_val=(_point(3),))
EDGE_SHAPES = [
    (BASE, REL),
    (LINE, UnitRelation(n=3, terms=((0, (-2,)), (1, (1,))))),
    (WIDE, WIDE_REL),
    (WIDE, UnitRelation(n=3, terms=((1, (-1, 0, 2)), (0, (0, -2, -1))))),
]
FAR = 2**70


@st.composite
def far_seeds(draw):
    """A shape, and seeds clustered around a centre anywhere in
    [-2^70, 2^70]^M, the extremes included, with an optional second
    cluster between 10^9 and 2^70 away along one axis."""
    basis, rel = draw(st.sampled_from(EDGE_SHAPES))
    centre = draw(st.tuples(*[st.one_of(st.sampled_from([-FAR, FAR]), st.integers(-FAR, FAR))] * basis.M))
    centres = [centre]
    if draw(st.booleans()):
        axis = draw(st.integers(0, basis.M - 1))
        gap = draw(st.sampled_from([-1, 1])) * draw(st.one_of(st.sampled_from([10**9, FAR]), st.integers(10**9, FAR)))
        centres.append(tuple(c + gap * (m == axis) for m, c in enumerate(centre)))
    coeffs = {}
    for at in centres:
        local = draw(seeds(basis.L, 2, basis.M, 30))
        coeffs.update({(k, ell, tuple(c + d for c, d in zip(at, x))): a for (k, ell, x), a in local.items()})
    return Representation(basis, coeffs), rel


@given(far_seeds(), st.sampled_from([None, -1, 0, 1]))
def test_reduce_matches_heap_reference_at_the_packing_edges(case, slack):
    """Sites pack into ints over a box around the input: a list over
    the first box while the run fits it, or, for clusters 10^9 or more
    apart, a dict over a box whose width comes from the cap.  A cap of
    exactly the total step count lets the sites travel as far as that
    width allows."""
    rep, rel = case
    cap = 1_000_000
    if slack is not None:
        cap = heap_reduce(rep, rel)[1] + slack
    try:
        expected = heap_reduce(rep, rel, cap)
    except IterationCapExceeded:
        with pytest.raises(IterationCapExceeded):
            reduce(rep, rel, ReductionPolicy(max_steps=cap))
    else:
        assert_agrees_with(expected, rep, rel, cap)


# every shape of EDGE_SHAPES, and two relations whose firings keep the
# weight: the cubic one, and one whose terms flip the sign layer at
# +-r_max, so that another layer's offsets from a site next to a face
# leave the box
CONTINUATION_SHAPES = [
    *EDGE_SHAPES,
    (cubic_basis(CubicParams(3)), three_relation(CubicParams(3))),
    (LINE, UnitRelation(n=2, terms=((1, (2,)), (1, (-2,))))),
]


@st.composite
def continuations(draw):
    """Inputs shaped like a continued stable pile: many sites below n
    around the origin on both sign layers, a few at n or above among
    them, and mates (both layers at one (l, x)) off to one side, some
    far enough from the pile that no firing reaches them."""
    basis, rel = draw(st.sampled_from(CONTINUATION_SHAPES))
    n, M, L = rel.n, basis.M, basis.L
    reach = draw(st.integers(1, 5))

    def sites(lo, hi):
        return st.tuples(st.integers(0, 1), st.integers(1, L), st.tuples(*[st.integers(lo, hi)] * M))

    coeffs = draw(st.dictionaries(sites(-reach, reach), st.integers(1, n - 1), min_size=4, max_size=60))
    coeffs.update(draw(st.dictionaries(sites(-reach, reach), st.integers(n, 8 * n), min_size=1, max_size=3)))
    for ell, x, a, b in draw(
        st.lists(
            st.tuples(
                st.integers(1, L),
                st.tuples(st.integers(reach + 1, 4 * reach + 40), *[st.integers(-reach, reach)] * (M - 1)),
                st.integers(1, n + 1),
                st.integers(1, n + 1),
            ),
            max_size=4,
        )
    ):
        coeffs[(0, ell, x)], coeffs[(1, ell, x)] = a, b
    return Representation(basis, coeffs), rel


@settings(max_examples=300)
@given(continuations())
@example(
    (
        Representation(LINE, {(0, 2, (-3,)): 1, (1, 1, (1,)): 1, (1, 2, (2,)): 6, (0, 1, (-2,)): 1}),
        CONTINUATION_SHAPES[-1][1],
    )
)
@example(  # mates that cancel to 1, far from the only firing
    (
        Representation(LINE, {(0, 1, (0,)): 2, (0, 2, (40,)): 2, (1, 2, (40,)): 1}),
        CONTINUATION_SHAPES[-1][1],
    )
)
def test_reduce_matches_heap_reference_on_continued_piles(case):
    """The list storage's output is the cancelled input map updated at
    the sites that fired and the targets of their own layers; every other
    site keeps its input count, with and without on_step."""
    rep, rel = case
    expected = heap_reduce(rep, rel)
    assert_agrees_with(expected, rep, rel)
    out = reduce(rep, rel)
    assert (dict(out.coeffs), out.steps) == expected[:2]
    assert_fits_its_basis(out)


@settings(max_examples=150)
@given(continuations())
@example(  # both layers at each (l, x), cancelling to nothing
    (
        Representation(LINE, {(0, 1, (3,)): 4, (1, 2, (-1,)): 2, (1, 1, (3,)): 4, (0, 2, (-1,)): 2}),
        CONTINUATION_SHAPES[-1][1],
    )
)
def test_reduce_hands_the_kernel_one_sign_layer_per_site(case):
    """reduce cancels opposite layers on its own map, so no (l, x)
    reaches the kernel on both, and the output is still the
    reference's, with and without on_step."""
    rep, rel = case
    handed = []
    stabilize = engine._stabilize

    def spy(coeffs, *rest):
        handed.append(dict(coeffs))
        return stabilize(coeffs, *rest)

    expected = heap_reduce(rep, rel)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_stabilize", spy)
        assert_agrees_with(expected, rep, rel)
        out = reduce(rep, rel)
    assert (dict(out.coeffs), out.steps) == expected[:2]
    assert len(handed) == 2
    assert not any((1 - k, ell, x) in coeffs for coeffs in handed for k, ell, x in coeffs)
    if all(rep.coeffs.get((1 - k, ell, x)) == a for (k, ell, x), a in rep.items()):
        assert not out and out.steps == 0


POINT = UnitGroupBasis(etas=(1,), epsilons=(3,), abs_val=(_point(3),))


@pytest.mark.parametrize(
    "coeffs, rel, expected",
    [
        (
            {(0, 1, (0,)): 3},
            UnitRelation(n=2, terms=((1, (2,)), (0, (0,)))),
            {(0, 1, (0,)): 1, (1, 1, (2,)): 1, (0, 1, (4,)): 1},
        ),
        (
            {(0, 1, (-3,)): 6},
            UnitRelation(n=2, terms=((1, (-2,)), (1, (2,)))),
            {(1, 1, (-9,)): 1, (0, 1, (-7,)): 1, (1, 1, (-5,)): 1, (1, 1, (-1,)): 1, (0, 1, (1,)): 1, (1, 1, (3,)): 1},
        ),
    ],
    ids=["top-corner", "bottom-corner"],
)
def test_reduce_reads_back_only_the_targets_of_each_sites_own_layer(coeffs, rel, expected):
    """A site r_max inside a face fires in the list, whose box holds its
    own targets; the other layer's offsets from it point one row past the
    top of the list, or below its start, where a negative index would
    read the last cell, which the second run fills."""
    rep = Representation(POINT, coeffs)
    out = reduce(rep, rel)
    assert dict(out.coeffs) == expected
    assert (dict(out.coeffs), out.steps) == heap_reduce(rep, rel)[:2]


def test_reduce_spills_to_the_dict_as_the_support_spreads(monkeypatch):
    """Chip-firing on a line spreads 63 chips over about 60 sites, far
    past the first box, which is sized for about the square root of the
    weight.  At caps one below, at and one above the step count, the run
    moves once from the list over that box to the dict over the box whose
    width comes from the cap, and raises or gives the reference's result."""
    built = []

    class Counted(engine._Box):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(engine, "_Box", Counted)
    rep = Representation(LINE, {(0, 1, (0,)): 60, (1, 2, (5,)): 3})
    rel = UnitRelation(n=2, terms=((0, (1,)), (0, (-1,))))
    steps = heap_reduce(rep, rel)[1]
    for cap in (steps - 1, steps, steps + 1):
        built.clear()
        if cap < steps:
            with pytest.raises(IterationCapExceeded):
                reduce(rep, rel, ReductionPolicy(max_steps=cap))
        else:
            assert_agrees_with(heap_reduce(rep, rel, cap), rep, rel, cap)
        # the first box reaches isqrt(63) // 2 + 2 hops past the input
        assert [box.lo for box in built] == [[-5], [-(cap + 1)]]


def test_a_spill_unpacks_no_single_site(monkeypatch):
    """A spill ends the list's pass, which reads back through
    _Box.unpacked like any other, and the dict's pass goes on from that
    map: without on_step, no site is unpacked on its own."""
    rep = Representation(LINE, {(0, 1, (0,)): 60, (1, 2, (5,)): 3})
    rel = UnitRelation(n=2, terms=((0, (1,)), (0, (-1,))))
    expected = heap_reduce(rep, rel)[:2]
    unpacking = []
    unpacked = engine._Box.unpacked
    monkeypatch.setattr(engine._Box, "unpack", lambda box, site: pytest.fail(f"unpacked site {site} alone"))
    monkeypatch.setattr(engine._Box, "unpacked", lambda box, sites: unpacking.append(box) or unpacked(box, sites))
    out = reduce(rep, rel)
    assert (dict(out.coeffs), out.steps) == expected
    # one read-back per pass, over two boxes: the run spilled
    assert len(set(unpacking)) == len(unpacking) == 2


def test_reduce_of_far_apart_sites_allocates_no_box():
    seed = rep_of({(0, 1, (0, 0)): 9, (1, 1, (10**9, 0)): 7})
    tracemalloc.start()
    try:
        out = reduce(seed, REL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    expected = heap_reduce(seed, REL)
    assert (dict(out.coeffs), out.steps) == expected[:2]
    assert_agrees_with(expected, seed, REL)


CUBIC3 = CubicParams(3)


@pytest.mark.parametrize(
    "rep, rel, listed",
    [
        (
            Representation(cubic_basis(CUBIC3), {(0, 1, (2, -1)): 44, (1, 1, (3, 0)): 9}),
            three_relation(CUBIC3),
            [True],
        ),
        (rep_of({(0, 1, (0, 0)): 9, (1, 1, (10**9, 0)): 7}), REL, [False]),
        (
            Representation(LINE, {(0, 1, (0,)): 60, (1, 2, (5,)): 3}),
            UnitRelation(n=2, terms=((0, (1,)), (0, (-1,)))),
            [True, False],
        ),
    ],
    ids=["list", "far-apart-dict", "spilled-dict"],
)
def test_reduce_output_fits_its_basis_in_both_storages(monkeypatch, rep, rel, listed):
    """Each pass leaves through _Box.unpacked on its own box: the list's
    pass on the box whose edge it tested, the dict's on the wide box.  A
    run that spills reads back through the first, then the second; sites
    10^9 apart go to the dict from the start.  Each gives keys and counts
    that Representation.__init__ accepts."""
    edged, unpacking = [], []
    edge, unpacked = engine._Box.edge, engine._Box.unpacked
    monkeypatch.setattr(engine._Box, "edge", lambda box, r: edged.append(box) or edge(box, r))
    monkeypatch.setattr(engine._Box, "unpacked", lambda box, sites: unpacking.append(box) or unpacked(box, sites))
    out = reduce(rep, rel)
    assert [box in edged for box in unpacking] == listed and out.steps > 0
    assert_fits_its_basis(out)
    assert (dict(out.coeffs), out.steps) == heap_reduce(rep, rel)[:2]


def _sigma(x):
    i, j = x
    return (-j, i - j)


def _tau(x):
    i, j = x
    return (-j, -i)


def _orbit(x):
    """The distinct points of x's orbit under the group that sigma(i, j)
    = (-j, i - j) and tau(i, j) = (-j, -i) generate."""
    orbit = [x]
    for y in orbit:
        for z in (_sigma(y), _tau(y)):
            if z not in orbit:
                orbit.append(z)
    return orbit


def _in_domain(x):
    """F: the origin, or i >= 1, j >= 1, i <= 2 j and j <= 2 i."""
    i, j = x
    return x == (0, 0) or (i >= 1 and j >= 1 and i <= 2 * j and j <= 2 * i)


def _dihedral_fold(x):
    """(the point of x's orbit in F, the orbit's size), found by search."""
    orbit = _orbit(x)
    return next(filter(_in_domain, orbit)), len(orbit)


def _expand(coeffs):
    """The invariant map that repeats each count over its orbit."""
    return {(k, ell, y): c for (k, ell, x), c in coeffs.items() for y in _orbit(x)}


@st.composite
def orbit_inputs(draw):
    """One count per orbit, on the orbit's representative: a pile of
    small counts and a few large ones, often a heavy origin."""
    points = st.tuples(st.integers(0, 9), st.integers(0, 9)).map(lambda x: _dihedral_fold(x)[0])
    reps = draw(st.dictionaries(points, st.integers(1, 2), max_size=30))
    reps.update(draw(st.dictionaries(points, st.integers(3, 40), max_size=3)))
    if draw(st.booleans()):
        reps[(0, 0)] = draw(st.integers(0, 400))
    return {(0, 1, x): c for x, c in reps.items() if c}


FOLD_STORAGES = ["list", "dict", "spilled"]


def _folded(coeffs, basis, rel, max_steps=1_000_000, fold=_dihedral_fold):
    out, steps = engine._stabilize(coeffs, basis, rel, max_steps, None, fold)
    if out is None:
        raise engine._cap_exceeded(max_steps)
    return engine._representation(basis, out, steps)


@settings(max_examples=150, deadline=None)
@given(orbit_inputs(), st.sampled_from(CUBIC_PARAMS[:3]), st.sampled_from(FOLD_STORAGES))
@example({(0, 1, (0, 0)): 24}, CubicParams(3), "list")
@example({(0, 1, (0, 0)): 24}, CubicParams(3), "dict")
@example({(0, 1, (0, 0)): 24}, CubicParams(3), "spilled")
@example({(0, 1, (2, 1)): 5, (0, 1, (1, 1)): 4, (0, 1, (3, 2)): 7}, CubicParams(3), "list")
def test_folded_reduce_matches_the_plain_run_of_the_whole_input(coeffs, params, storage):
    """Under a fold, the kernel fires orbit representatives only, in the
    list, in the dict from the start, or after spilling to it from the
    list.  Expanded, its output is the plain run's on the expanded input,
    with the same steps, and the cap raises exactly when they pass it."""
    basis, rel = cubic_basis(params), three_relation(params)
    whole = reduce(Representation(basis, _expand(coeffs)), rel)
    with pytest.MonkeyPatch.context() as patch:
        if storage == "dict":
            patch.setattr(engine, "_DENSE_CELLS", 0)
        if storage == "spilled":
            patch.setattr(engine._Box, "edge", lambda box, r: b"\x01" * box.cells)
        out = _folded(coeffs, basis, rel)
        for cap in (whole.steps - 2, whole.steps - 1) if whole.steps else ():
            with pytest.raises(IterationCapExceeded, match=f"exceeded {cap} replacement"):
                _folded(coeffs, basis, rel, cap)
        assert _folded(coeffs, basis, rel, whole.steps) == out
    assert _expand(dict(out.coeffs)) == dict(whole.coeffs) and out.steps == whole.steps
    assert all(_in_domain(x) for _, _, x in out.coeffs)
    assert_fits_its_basis(out)


def test_fold_is_refused_where_it_cannot_hold():
    basis, rel = cubic_basis(CUBIC3), three_relation(CUBIC3)

    def far(x):
        y, size = _dihedral_fold(x)
        return (y, size) if y == x or y == (1, 2) else ((y[0] + 10**6, y[1]), size)

    with pytest.raises(ValueError, match="outside the kernel's box"):
        _folded({(0, 1, (1, 0)): 60}, basis, rel, fold=far)


def test_cubic_fold_keeps_the_kernels_contract():
    """engine._stabilize checks nothing of its fold's contract, so it is
    proved here on the one fold and relation that reach it."""
    rel, fold = cubic._THREE, cubic._fold
    shifts = [r for _, r in rel.terms]
    assert all(k == 0 and any(r) for k, r in rel.terms)
    # sigma and tau, the linear maps fold is taken under, permute the
    # terms and generate a dihedral group of order 6: tau sigma tau = sigma^2
    for g in (_sigma, _tau):
        assert sorted(map(g, shifts)) == sorted(shifts)
    grid = [(i, j) for i in range(-12, 13) for j in range(-12, 13)]
    for x in grid:
        assert _tau(_sigma(_tau(x))) == _sigma(_sigma(x))
        assert _sigma(_sigma(_sigma(x))) == _tau(_tau(x)) == x
        # F holds one point of every orbit
        assert sum(map(_in_domain, _orbit(x))) == 1
        y, size = fold(x)
        assert (y, size) == _dihedral_fold(x)
        assert all(fold(z) == (y, size) for z in _orbit(x))
        # orbits hold 6 points, 3 on a mirror ray, and the origin 1
        i, j = y
        assert size == (1 if y == (0, 0) else 3 if i == 2 * j or j == 2 * i else 6)
        assert _in_domain(y) and min(y) >= 0
    for x in filter(_in_domain, grid):
        # the representatives of a representative's targets stay inside
        # the kernel's box
        for r in shifts:
            assert max(fold(tuple(a + b for a, b in zip(x, r)))[0]) <= max(x) + rel.r_max
        # the table's rule: z gains one chip per pair (x', r) with x' in
        # x's orbit and x' + r = z
        pairs = {}
        for x2 in _orbit(x):
            for r in shifts:
                z = tuple(a + b for a, b in zip(x2, r))
                if _in_domain(z):
                    pairs[z] = pairs.get(z, 0) + 1
        size, gains = engine._gains(fold, tuple(shifts), x, rel.r_max)
        assert size == len(_orbit(x))
        assert {tuple(a + b for a, b in zip(x, d)): g for d, g in gains} == pairs


@st.composite
def boxes_and_states(draw):
    """A _Box with M in 1..3, L in 1..2 and corners that may be negative,
    and a sparse state of small counts over its cells."""
    M, L = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    basis = UnitGroupBasis(etas=tuple(range(1, L + 1)), epsilons=(3,) * M, abs_val=(_point(3),) * M)
    rel = UnitRelation(n=2, terms=((0, (1,) * M), (1, (0,) * M)))
    lo = draw(st.lists(st.integers(-6, 3), min_size=M, max_size=M))
    hi = [a + draw(st.integers(0, 3)) for a in lo]
    box = engine._Box(basis, rel, lo, hi)
    state = draw(st.lists(st.sampled_from([0, 0, 0, 0, 1, 2, 5]), min_size=box.cells, max_size=box.cells))
    return box, state


@given(boxes_and_states())
def test_box_unpacked_matches_unpack(case):
    """unpacked is unpack a column at a time, and packed inverts it; the
    all-zero state has no sites."""
    box, state = case
    sites = [s for s, c in enumerate(state) if c]
    indices = box.unpacked(sites)
    assert indices == [box.unpack(s) for s in sites]
    assert box.unpacked([]) == []
    if indices:
        heads = [k * (box.KL // UnitGroupBasis.K) + ell for k, ell, _ in indices]
        cols = list(zip(*(x for _, _, x in indices)))
        assert box.unpacked(box.packed(heads, cols)) == indices


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


MONOTONE_BASES = [
    *(cubic.cubic_basis(cubic.CubicParams(a)) for a in (-1000, -3, 0, 2, 5, 1000)),
    rational_basis(5, 23),
    rational_basis(2, 3),
    WIDE,
]


def _monotone_sites(basis):
    key = st.tuples(
        st.integers(0, 1),
        st.integers(1, basis.L),
        st.tuples(*[st.integers(-12, 12)] * basis.M),
    )
    return st.tuples(st.just(basis), st.dictionaries(key, st.integers(1, 10**6), max_size=12))


@settings(max_examples=80)
@given(
    st.sampled_from(MONOTONE_BASES).flatmap(_monotone_sites),
    st.sampled_from([0, 1, 64, 128]),
)
@example((MONOTONE_BASES[0], {}), 128)
@example((MONOTONE_BASES[-1], {}), 0)
def test_monotone_quantity_matches_the_per_site_sum(basis_coeffs, bits):
    # one denominator per side gives the exact, normalised pair the
    # per-site Fraction loop gives, on cubic enclosures and point values
    basis, coeffs = basis_coeffs
    rep = Representation(basis, coeffs)
    got = monotone_quantity(rep, bits)
    assert got == reference_monotone_quantity(rep, bits)
    assert all(type(end) is Fraction for end in got)
    if not coeffs:
        assert got == (0, 0)


# ----------------------------------------------------------------- bounds


@pytest.mark.parametrize("field", ["M", "K", "L", "r", "w"])
def test_bound_params_are_exact_integers(field):
    # 2.5 gave float bounds, and a float w failed inside range()
    fields = dict(M=2, K=2, L=1, r=2, w=3)
    with pytest.raises(ValueError, match=f"{field} .* is not an integer"):
        BoundParams(**{**fields, field: 2.5})
    exact = BoundParams(**{**fields, field: float(fields[field])})
    assert getattr(exact, field) == fields[field]
    assert bounds_f_T(exact) == bounds_f_T(BoundParams(**fields))
    assert all(type(v) is int for v in bounds_f_T(exact))


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
