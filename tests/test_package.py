"""The package's export list, the README examples and the integer rule
on the arguments of the public helpers."""

import doctest
import re
from pathlib import Path

import pytest

import unitsum
from unitsum import BasePair, CubicParams, Representation, cli, rational_basis

B523 = BasePair(5, 23)
B511 = BasePair(5, 11)
P2 = CubicParams(2)
REP = Representation(rational_basis(5, 23), {(0, 1, (1, 1)): 1})


def test_all_names_resolve_sorted_and_unique():
    names = unitsum.__all__
    assert [name for name in names if not hasattr(unitsum, name)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_readme_examples_run():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0


# Each call passes 2.5, None, a list or a negative bit count where the
# helper takes an integer.  greedy_seed(2.5, B523) used to loop forever,
# certificate_at(B511, 7.5) returned a certificate with float orbits: a
# false proof that no relation exists, and None or a list raised int()'s
# TypeError, which names no argument.
@pytest.mark.parametrize(
    "call, error, what",
    [
        pytest.param(lambda: unitsum.greedy_seed(2.5, B523), ValueError, "value", id="greedy_seed"),
        pytest.param(lambda: unitsum.balanced_ternary(2.5), ValueError, "value", id="balanced_ternary"),
        pytest.param(lambda: unitsum.p_adic_digits(2.5, 5), ValueError, "value", id="p_adic_digits"),
        pytest.param(lambda: unitsum.p_adic_digits(25, 5.5), ValueError, "base", id="p_adic_digits-base"),
        pytest.param(lambda: unitsum.expand(7.5, B523), ValueError, "value", id="expand"),
        pytest.param(lambda: unitsum.expand_with_stats(7.5, B523), ValueError, "value", id="expand_with_stats"),
        pytest.param(lambda: unitsum.certificate_at(B511, 7.5), ValueError, "modulus", id="certificate_at"),
        pytest.param(lambda: unitsum.find_obstruction(B511, 2.5), ValueError, "max_modulus", id="find_obstruction"),
        pytest.param(lambda: unitsum.find_plain_relation(B523, 2.5), ValueError, "max_exp", id="find_plain_relation"),
        pytest.param(lambda: unitsum.find_extended_relation(B523, 2.5), ValueError, "max_exp", id="find_extended_relation"),
        pytest.param(lambda: unitsum.min_weight_bruteforce(2.5, B523, 4), ValueError, "value", id="min_weight-value"),
        pytest.param(lambda: unitsum.min_weight_bruteforce(7, B523, 2.5), ValueError, "max_weight", id="min_weight-max_weight"),
        pytest.param(lambda: unitsum.min_weight_bruteforce(7, B523, 4, (2.5, 2)), ValueError, "I_max", id="min_weight-box"),
        pytest.param(lambda: unitsum.min_weight_bruteforce(7, B523, 4, None, 2.5), ValueError, "node_budget", id="min_weight-budget"),
        pytest.param(lambda: unitsum.default_box(2.5, B523), ValueError, "value", id="default_box"),
        pytest.param(lambda: unitsum.sweep_verify(1, 2.5, B523), ValueError, "hi", id="sweep_verify"),
        pytest.param(lambda: unitsum.unit_monomial(2.5, 0, P2), ValueError, "exponent", id="unit_monomial"),
        pytest.param(lambda: unitsum.real_roots(P2, 2.5), ValueError, "precision_bits", id="real_roots"),
        pytest.param(lambda: unitsum.real_roots(P2, -1), ValueError, "precision_bits", id="real_roots-negative"),
        pytest.param(lambda: unitsum.monotone_quantity(REP, 2.5), ValueError, "precision_bits", id="monotone_quantity"),
        pytest.param(lambda: unitsum.monotone_quantity(REP, -1), ValueError, "precision_bits", id="monotone_quantity-negative"),
        # a rational argument is an int or a Fraction: a float or a string
        # is read as an integer or raises
        pytest.param(lambda: unitsum.pq_rational(0.1, B523), ValueError, "value", id="pq_rational"),
        pytest.param(lambda: unitsum.pq_rational(" 7/9 ", B523), ValueError, "value", id="pq_rational-string"),
        pytest.param(lambda: unitsum.CubicElement(P2, 0, 1, 0) ** 2.5, ValueError, "exponent", id="CubicElement-pow"),
        pytest.param(lambda: BasePair(None, 5), ValueError, "base", id="BasePair-None"),
        pytest.param(lambda: CubicParams(None), ValueError, "parameter", id="CubicParams-None"),
        pytest.param(lambda: unitsum.p_adic_digits(None, 3), ValueError, "value", id="p_adic_digits-None"),
        pytest.param(lambda: unitsum.ReductionPolicy(max_steps=None), ValueError, "max_steps", id="ReductionPolicy-None"),
        pytest.param(lambda: unitsum.find_plain_relation(B523, None), ValueError, "max_exp", id="find_plain_relation-None"),
        # the finders read the bound before their cache hashes it
        pytest.param(lambda: unitsum.find_plain_relation(B523, [64]), ValueError, "max_exp", id="find_plain_relation-list"),
        pytest.param(lambda: unitsum.find_extended_relation(B523, [64]), ValueError, "max_exp", id="find_extended_relation-list"),
        pytest.param(lambda: unitsum.expand([1], B523), ValueError, "value", id="expand-list"),
    ],
)
def test_helpers_reject_non_integral_arguments_by_name(call, error, what):
    with pytest.raises(error, match=f"^{what} "):
        call()


def test_helpers_read_exact_values_as_integers():
    assert unitsum.expand(7.0, B523) == unitsum.expand(7, B523)
    assert unitsum.greedy_seed(997.0, B523) == unitsum.greedy_seed(997, B523)
    assert unitsum.balanced_ternary(8.0) == unitsum.balanced_ternary(8)
    assert unitsum.certificate_at(B511, 5.0) == unitsum.certificate_at(B511, 5)
    assert unitsum.real_roots(P2, 16.0) == unitsum.real_roots(P2, 16)
    assert unitsum.pq_rational(7.0, B523) == unitsum.pq_rational(7, B523)
    assert unitsum.CubicElement(P2, 0, 1, 0) ** 2.0 == unitsum.CubicElement(P2, 0, 1, 0) ** 2


# a hook whose enclosure of |eps| reaches down to 0
ZERO_HOOK = Representation(unitsum.UnitGroupBasis((1,), (5,), (lambda bits: (0, 5),)), {})


# each check that rejects a well-typed but out-of-range argument
@pytest.mark.parametrize(
    "call, prefix",
    [
        pytest.param(lambda: unitsum.find_plain_relation(B523, 0), "max_exp must be at least 1", id="find_plain_relation"),
        pytest.param(lambda: unitsum.find_extended_relation(B523, 0), "max_exp must be at least 1", id="find_extended_relation"),
        pytest.param(lambda: unitsum.PQRational(B523, 1, -1, 0), "denominator exponent must be at least 0", id="PQRational"),
        pytest.param(lambda: unitsum.expand_with_stats(7, B523, "binary"), "seed_method must be", id="expand_with_stats"),
        pytest.param(lambda: unitsum.expand_extended(unitsum.pq_rational(7, B511), B523), "rational and expansion base pairs differ", id="expand_extended"),
        pytest.param(lambda: unitsum.UnitGroupBasis(etas=(), epsilons=(5,), abs_val=(None,)), "basis needs at least one eta", id="UnitGroupBasis-no-eta"),
        pytest.param(lambda: unitsum.UnitGroupBasis(etas=(1,), epsilons=(5, 23), abs_val=(None,)), "one abs_val hook per epsilon", id="UnitGroupBasis-hooks"),
        pytest.param(lambda: unitsum.UnitRelation(n=2, terms=((0, (0,)), (0, (0,)))), "the all-ones relation", id="UnitRelation"),
        pytest.param(lambda: unitsum.BoundParams(M=0, K=2, L=1, r=0, w=1), "M must be at least 1", id="BoundParams"),
        pytest.param(lambda: unitsum.monotone_quantity(ZERO_HOOK), "abs_val hooks must certify positivity", id="monotone_quantity"),
        pytest.param(lambda: unitsum.PlainRelation(1, 1, 0), "sign must be -1 or 1", id="PlainRelation-sign"),
        pytest.param(lambda: unitsum.PlainRelation(-1, 1, 1), "x must be at least 0", id="PlainRelation-exponent"),
        pytest.param(lambda: unitsum.ExtendedRelation(0, 0, 0, 0, 2), "sign must be -1 or 1", id="ExtendedRelation"),
        # a key that is not a (k, l, x) triple is named, not unpacked
        pytest.param(lambda: Representation(REP.basis, {5: 1}), "index 5 does not fit the basis", id="Representation-int-key"),
        pytest.param(lambda: Representation(REP.basis, {(0, 1): 1}), "index (0, 1) does not fit the basis", id="Representation-pair-key"),
        pytest.param(lambda: Representation(REP.basis, {(0, 1, 5): 1}), "index (0, 1, 5) does not fit the basis", id="Representation-int-exponent"),
    ],
)
def test_out_of_range_arguments_are_rejected(call, prefix):
    with pytest.raises(ValueError, match=f"^{re.escape(prefix)}"):
        call()


def _find_relation_cli(max_exp):
    # the CLI's own read of --max-exp: (5,11) has a certificate, so no search reads it
    args = cli.build_parser().parse_args(["find-relation", "--p", "5", "--q", "11"])
    args.max_exp = max_exp
    return args.func(args)


def _bound_params(name, value):
    return unitsum.BoundParams(**{**dict(M=1, K=1, L=1, r=0, w=1), name: value})


# each argument with a least value, which errors.exact_int reads: the call
# with the value in place, the name it goes by and its least value
@pytest.mark.parametrize(
    "call, what, least",
    [
        pytest.param(lambda v: unitsum.real_roots(P2, v), "precision_bits", 0, id="real_roots"),
        pytest.param(lambda v: unitsum.monotone_quantity(REP, v), "precision_bits", 0, id="monotone_quantity"),
        pytest.param(lambda v: unitsum.UnitRelation(v, ((0, (1,)), (0, (-1,)))), "right-hand side", 2, id="UnitRelation"),
        pytest.param(lambda v: Representation(REP.basis, {(0, 1, (1, 1)): v}), "coefficient", 0, id="Representation"),
        *(
            pytest.param(lambda v, name=name: _bound_params(name, v), name, least, id=f"BoundParams-{name}")
            for name, least in (("M", 1), ("K", 1), ("L", 1), ("r", 0), ("w", 1))
        ),
        pytest.param(lambda v: BasePair(v, 3), "base", 2, id="BasePair-p"),
        pytest.param(lambda v: BasePair(3, v), "base", 2, id="BasePair-q"),
        pytest.param(lambda v: unitsum.PQRational(B523, 1, v, 0), "denominator exponent", 0, id="PQRational-a_p"),
        pytest.param(lambda v: unitsum.PQRational(B523, 1, 0, v), "denominator exponent", 0, id="PQRational-a_q"),
        pytest.param(lambda v: unitsum.p_adic_digits(v, 5), "value", 0, id="p_adic_digits-value"),
        pytest.param(lambda v: unitsum.p_adic_digits(7, v), "base", 2, id="p_adic_digits-base"),
        pytest.param(lambda v: unitsum.PlainRelation(v, 1, 1), "x", 0, id="PlainRelation-x"),
        pytest.param(lambda v: unitsum.PlainRelation(1, v, 1), "y", 0, id="PlainRelation-y"),
        pytest.param(lambda v: unitsum.certificate_at(B511, v), "modulus", 2, id="certificate_at"),
        pytest.param(lambda v: unitsum.find_plain_relation(B523, v), "max_exp", 1, id="find_plain_relation"),
        pytest.param(lambda v: unitsum.find_extended_relation(B523, v), "max_exp", 1, id="find_extended_relation"),
        pytest.param(_find_relation_cli, "max_exp", 1, id="cli-find-relation"),
    ],
)
def test_floors_are_read_by_the_integer_rule(call, what, least):
    below = f"^{re.escape(what)} must be at least {least}$"
    with pytest.raises(ValueError, match=below):
        call(least - 1)
    # the message holds no value, so one past the int/str digit limit is named too
    with pytest.raises(ValueError, match=below):
        call(least - 10**5000)
    call(least)
    with pytest.raises(ValueError, match=f"^{re.escape(what)} .+ is not an integer$"):
        call(least + 0.5)
