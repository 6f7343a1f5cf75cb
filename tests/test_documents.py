"""JSON documents: one module writes and reads them, and names the field at fault."""

import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

import unitsum
from unitsum import (
    BasePair,
    CubicElement,
    CubicParams,
    ExtendedExpansion,
    SignedExpansion,
    double_base,
    documents,
    element_from_json,
    element_to_json,
    evaluate_expansion,
    expand,
    expansion_from_json,
    expansion_to_json,
)
from unitsum.errors import InvalidExpansion

# the digit limit on int/str conversions, which 3.10 releases before
# 3.10.7 lack and 0 turns off
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_limit = pytest.mark.skipif(not LIMIT, reason="this Python converts ints and strings of any length")


def test_every_name_is_bound_to_the_documents_functions():
    # the benchmark calls and traces the expansion writer and reader under double_base
    assert double_base.expansion_to_json is documents.expansion_to_json
    assert double_base.expansion_from_json is documents.expansion_from_json
    for name in ("expansion_to_json", "expansion_from_json", "element_to_json", "element_from_json"):
        assert getattr(unitsum, name) is getattr(documents, name)


def test_each_expansion_class_names_its_document_kind():
    signed = expand(997, BasePair(5, 23))
    extended = ExtendedExpansion(signed.base, signed.terms)
    assert [expansion_to_json(exp)["kind"] for exp in (signed, extended)] == ["signed", "extended"]
    assert (SignedExpansion.negative_exponents, ExtendedExpansion.negative_exponents) == (False, True)
    # neither class is the other: equal terms of the two kinds are unequal
    assert not isinstance(extended, SignedExpansion) and not isinstance(signed, ExtendedExpansion)
    assert signed != extended and hash(signed) == hash(extended)
    assert repr(extended) == f"ExtendedExpansion(base=BasePair(p=5, q=23), terms={signed.terms!r})"
    with pytest.raises(InvalidExpansion, match="^negative exponent at \\(-1,0\\)$"):
        SignedExpansion(signed.base, [(1, -1, 0)])


def _as_ints(doc: dict, flags) -> dict:
    """doc with the integer fields that flags picks written as JSON integers."""
    out = dict(doc, terms=[dict(t) for t in doc["terms"]])
    fields = [(out, "p"), (out, "q")] + [(t, k) for t in out["terms"] for k in "ij"]
    for (where, key), flag in zip(fields, flags):
        if flag:
            where[key] = int(where[key])
    return out


_PAIRS = st.sampled_from([(5, 23), (11, 13), (5, 11), (2, 7), (11, 5)])


@st.composite
def _expansions(draw):
    base = BasePair(*draw(_PAIRS))
    signed = draw(st.booleans())
    exps = st.integers(0 if signed else -40, 40)
    pairs = draw(st.lists(st.tuples(exps, exps), max_size=12, unique=True))
    terms = [(draw(st.sampled_from([-1, 1])), i, j) for i, j in pairs]
    return (SignedExpansion if signed else ExtendedExpansion)(base, terms)


@given(_expansions(), st.lists(st.booleans(), max_size=30))
def test_expansions_round_trip_through_json_text(exp, flags):
    doc = _as_ints(expansion_to_json(exp), flags)
    assert expansion_from_json(json.loads(json.dumps(doc))) == (exp, evaluate_expansion(exp))


@given(
    st.integers(-(10**6), 10**6),
    st.lists(st.integers(-(10**40), 10**40), min_size=3, max_size=3),
    st.lists(st.booleans(), min_size=3, max_size=3),
)
def test_cubic_elements_round_trip_through_json_text(a, coords, flags):
    elem = CubicElement(CubicParams(a), *coords)
    doc = element_to_json(elem)
    doc["coords"] = [int(c) if flag else c for c, flag in zip(doc["coords"], flags)]
    assert element_from_json(json.loads(json.dumps(doc))) == elem


@needs_limit
@pytest.mark.parametrize(
    "field, text, what",
    [("value", "7", "value"), ("value", "1/3", "value"), ("p", "5", "base")],
)
def test_reader_names_the_field_past_the_digit_limit(field, text, what):
    doc = dict(expansion_to_json(expand(997, BasePair(5, 23))), **{field: text + "1" * LIMIT})
    with pytest.raises(InvalidExpansion) as info:
        expansion_from_json(doc)
    message = str(info.value)
    assert message.startswith(f"malformed expansion document: {what} has more than {LIMIT} digits")
    assert "set_int_max_str_digits" not in message


@needs_limit
def test_writer_names_the_value_past_the_digit_limit():
    exp = SignedExpansion(BasePair(2, 3), [(1, 4 * LIMIT, 0)])
    with pytest.raises(ValueError) as info:
        expansion_to_json(exp)
    # the benchmark counts a failed operation by its exact class
    assert type(info.value) is ValueError
    assert str(info.value).startswith(f"value has more than {LIMIT} digits")
    assert "set_int_max_str_digits" not in str(info.value)


@needs_limit
def test_cubic_coordinates_past_the_digit_limit_are_named_both_ways():
    with pytest.raises(ValueError, match="^coordinate has more than"):
        element_to_json(CubicElement(CubicParams(2), 10**LIMIT, 0, 0))
    with pytest.raises(ValueError, match="^coordinate has more than"):
        element_from_json({"a": "2", "coords": ["1", "9" * (LIMIT + 1), "0"]})


@pytest.mark.parametrize(
    "column, bad",
    [(["x", 2.5], "'x'"), ([2.5, "x"], "2.5"), ([1, "2,3", None], "'2,3'"), (["1", True, " 7"], "True")],
)
def test_document_ints_names_the_first_faulty_value_in_column_order(column, bad):
    # ["x", 2.5] named 2.5 when the type test ran before the string match
    with pytest.raises(ValueError, match=f"^digit {bad} is not an integer or a decimal string$"):
        documents.document_ints(column, "digit")


def test_each_relation_class_names_its_document_kind():
    plain, extended = unitsum.PlainRelation(2, 1, 1), unitsum.find_extended_relation(BasePair(5, 11))
    assert documents.relation_to_json(plain) == {"kind": "plain", "x": "2", "y": "1", "sign": "1"}
    assert documents.relation_to_json(extended)["kind"] == "extended"
    assert documents.relation_to_json(plain.as_extended())["kind"] == "extended"


def test_a_zero_denominator_names_its_field():
    with pytest.raises(ValueError, match=r"^value '1/0' has a zero denominator$"):
        documents.document_rational("1/0", "value")


# what json.loads can return: NaN and the infinities included
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)

# a field or a term is well formed in 14 draws of 16
_HOW = st.sampled_from(["good"] * 14 + ["json", "missing"])
_EXPONENT = st.integers(-3, 5) | st.integers(-3, 5).map(str)


@st.composite
def _documents(draw):
    """An expansion document whose every field, every term and every
    term's field is well formed, or else any JSON value (a field may also
    be missing).  A well-formed document may still be wrong: equal terms,
    a digit 2, a negative exponent in a signed document, a weight that is
    not the term count."""

    def fields(good):
        out = {}
        for key, strategy in good.items():
            how = draw(_HOW)
            if how != "missing":
                out[key] = draw(strategy if how == "good" else _JSON)
        return out

    p, q = draw(_PAIRS)
    term = {"d": st.sampled_from([1, -1, "1", "-1", 0, 2]), "i": _EXPONENT, "j": _EXPONENT}
    terms = [fields(term) if draw(_HOW) == "good" else draw(_JSON) for _ in range(draw(st.integers(0, 5)))]
    return fields(
        {
            "kind": st.sampled_from(["signed", "extended"]),
            "p": st.sampled_from([p, str(p)]),
            "q": st.sampled_from([q, str(q)]),
            "value": st.integers() | st.from_regex(r"-?[0-9]{1,3}(/[0-9]{1,2})?", fullmatch=True),
            "terms": st.just(terms),
            "weight": st.integers(0, 6) | st.integers(0, 6).map(str),
        }
    )


@settings(derandomize=True, max_examples=300)
@given(_JSON | _documents())
def test_reader_raises_nothing_but_invalid_expansion(doc):
    # the reader's one handler catches ValueError alone; anything else a
    # document could raise would escape it
    try:
        expansion_from_json(doc)
    except InvalidExpansion:
        pass
