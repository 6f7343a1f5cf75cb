"""Command-line interface: output formats, exit codes, determinism."""

import argparse
import hashlib
import inspect
import io
import json
import sys
import time

import pytest

from unitsum import BasePair, Representation, cli, cubic, expand, expand_with_stats, min_weight_bruteforce, relations
from unitsum.cli import main

# the digit limit on int/str conversions, which 3.10 releases before
# 3.10.7 lack and 0 turns off
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_limit = pytest.mark.skipif(not LIMIT, reason="this Python converts ints and strings of any length")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_json_document(capsys):
    code, out, _ = run(capsys, "expand", "--p", "5", "--q", "23", "997", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "signed"
    assert doc["value"] == "997"
    assert all(t["d"] in (1, -1) for t in doc["terms"])


def test_expand_text_output(capsys):
    code, out, _ = run(capsys, "expand", "--p", "5", "--q", "23", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("4 = ")
    assert lines[1].startswith("weight ")


def test_expand_is_byte_deterministic(capsys):
    argv = ("expand", "--p", "5", "--q", "23", "31415", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    assert first.endswith("\n")


def test_expand_rejects_garbage_value(capsys):
    code, _, err = run(capsys, "expand", "--p", "5", "--q", "23", "xyz")
    assert code == 3
    assert "error" in err


def test_expand_rejects_bad_base_pair(capsys):
    code, _, _ = run(capsys, "expand", "--p", "6", "--q", "10", "5")
    assert code == 3


def test_expand_without_relation_exits_two(capsys):
    code, _, err = run(capsys, "expand", "--p", "5", "--q", "11", "9")
    assert code == 2


def test_expand_extended_fraction(capsys):
    code, out, _ = run(capsys, "expand-extended", "--p", "5", "--q", "11", "7/25")
    assert code == 0
    assert out.splitlines()[0].startswith("7/25 = ")


def test_expand_extended_rejects_foreign_denominator(capsys):
    code, _, _ = run(capsys, "expand-extended", "--p", "5", "--q", "11", "1/3")
    assert code == 3


@pytest.mark.parametrize("p, q, value", [("9", "7", "1/3"), ("27", "25", "1/5")])
def test_expand_extended_reads_a_share_of_a_composite_base(capsys, monkeypatch, p, q, value):
    # 1/3 is 3 / 9 and 1/5 is 5 / 25: each base's share, short of a whole power
    code, out, _ = run(capsys, "expand-extended", "--p", p, "--q", q, "--format", "json", value)
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    assert run(capsys, "verify", "-") == (0, f"value {value}\nstatus valid\n", "")


def test_expand_extended_names_the_factor_neither_base_shares(capsys):
    # 15 = 3 * 5, where 3 is a share of 9 and 5 is foreign to both bases
    code, out, err = run(capsys, "expand-extended", "--p", "9", "--q", "7", "1/15")
    assert (code, out) == (3, "")
    assert err == "error: denominator factor 5 is not a product of base powers\n"


def test_expand_extended_rejects_zero_denominator(capsys):
    code, out, err = run(capsys, "expand-extended", "--p", "5", "--q", "11", "1/0")
    assert code == 3
    assert out == ""
    assert err.startswith("error: value ")


@pytest.mark.parametrize("bad", ["+7/25", "7/-25", " 7/25", "7 /25", "2.5", "1e3", "7_0/25", "7/25/1"])
def test_expand_extended_rejects_loose_values(capsys, bad):
    code, out, err = run(capsys, "expand-extended", "--p", "5", "--q", "11", "--", bad)
    assert (code, out) == (3, "")
    assert err.startswith("error: value ")


@pytest.mark.parametrize("command", ["expand", "expand-extended", "bench-steps"])
def test_search_bound_flag_is_gone(capsys, command):
    # converters always search relations with exponents up to 64
    args = ("--from", "1", "--to", "2") if command == "bench-steps" else ("7",)
    code, out, _ = run(capsys, command, "--p", "5", "--q", "23", *args, "--search-bound", "64")
    assert (code, out) == (3, "")


def test_verify_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "expand", "--p", "5", "--q", "23", "997", "--format", "json")
    doc = tmp_path / "exp.json"
    doc.write_text(out)
    code, out, _ = run(capsys, "verify", str(doc))
    assert code == 0
    assert out == "value 997\nstatus valid\n"


def test_verify_detects_tampering(tmp_path, capsys):
    _, out, _ = run(capsys, "expand", "--p", "5", "--q", "23", "997", "--format", "json")
    data = json.loads(out)
    data["value"] = "998"
    doc = tmp_path / "exp.json"
    doc.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(doc))
    assert code == 5
    assert "invalid" in out


@pytest.mark.parametrize(
    "weight, code, status",
    [
        ("5", 0, "value 997\nstatus valid\n"),
        (5, 0, "value 997\nstatus valid\n"),
        # a witness of 5 terms claiming weight 1 was certified valid
        ("1", 5, "status invalid (document claims weight 1, but the expansion has 5 terms)\n"),
        (6, 5, "status invalid (document claims weight 6, but the expansion has 5 terms)\n"),
        (5.0, 5, "status invalid (malformed expansion document: weight 5.0 is not an integer or a decimal string)\n"),
    ],
    ids=["string", "integer", "lighter", "heavier", "float"],
)
def test_verify_checks_the_witness_weight(capsys, monkeypatch, weight, code, status):
    _, out, _ = run(capsys, "min-weight", "--p", "5", "--q", "23", "997", "--format", "json")
    data = json.loads(out)
    assert data["weight"] == "5"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(dict(data, weight=weight))))
    assert run(capsys, "verify", "-")[:2] == (code, status)


def test_verify_rejects_fractional_exponent(capsys, monkeypatch):
    # "i": 2.7 was read as 2, and the document certified as 5^2 = 25
    doc = '{"kind":"signed","p":"5","q":"23","value":"25","terms":[{"d":1,"i":2.7,"j":"0"}]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, _ = run(capsys, "verify", "-")
    assert code == 5
    assert out.startswith("status invalid (malformed expansion document: exponent 2.7 ")


@pytest.mark.parametrize("bad", ["1_000", " 2 ", "+2", "\u0662", "2,3"])
def test_verify_rejects_loose_decimal_strings(capsys, monkeypatch, bad):
    # each of these was read as an exponent by int(), and "+2" certified 5^2 = 25
    doc = json.dumps({
        "kind": "signed", "p": "5", "q": "23", "value": "25",
        "terms": [{"d": 1, "i": bad, "j": "0"}],
    })
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, _ = run(capsys, "verify", "-")
    assert code == 5
    assert out.startswith("status invalid (malformed expansion document: exponent ")


@pytest.mark.parametrize("bad", ["2.5e1", " 25 ", "+25", "2_5"])
def test_verify_rejects_loose_value_strings(capsys, monkeypatch, bad):
    # Fraction() read each of these as 25, and the document certified as 5^2
    doc = json.dumps({
        "kind": "signed", "p": "5", "q": "23", "value": bad,
        "terms": [{"d": 1, "i": "2", "j": "0"}],
    })
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, _ = run(capsys, "verify", "-")
    assert code == 5
    assert out.startswith("status invalid (malformed expansion document: value ")


@pytest.mark.parametrize(
    "terms, fault",
    [
        ([(2, "0", "0")], "digit 2 at (0,0) is not -1 or 1"),
        ([(1, "-1", "0")], "negative exponent at (-1,0)"),
        ([(1, "1", "0"), (-1, "1", "0")], "duplicate exponent pair (1,0)"),
        ([(1, "1", "0"), (-1, "1", "0"), (3, "2", "0")], "duplicate exponent pair (1,0)"),
    ],
    ids=["digit-2", "negative-exponent", "duplicate", "duplicate-then-digit"],
)
def test_verify_names_the_faulty_term(capsys, monkeypatch, terms, fault):
    doc = json.dumps({
        "kind": "signed", "p": "5", "q": "23", "value": "2",
        "terms": [{"d": d, "i": i, "j": j} for d, i, j in terms],
    })
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert run(capsys, "verify", "-")[:2] == (5, f"status invalid ({fault})\n")


def test_verify_names_the_field_of_a_zero_denominator(capsys, monkeypatch):
    doc = json.dumps({
        "kind": "extended", "p": "5", "q": "11", "value": "1/0",
        "terms": [{"d": 1, "i": "-1", "j": "-1"}],
    })
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    status = "status invalid (malformed expansion document: value '1/0' has a zero denominator)\n"
    assert run(capsys, "verify", "-")[:2] == (5, status)


def test_verify_accepts_an_extended_document_with_negative_exponents(capsys, monkeypatch):
    doc = json.dumps({
        "kind": "extended", "p": "5", "q": "11", "value": "1/55",
        "terms": [{"d": 1, "i": "-1", "j": "-1"}],
    })
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert run(capsys, "verify", "-")[:2] == (0, "value 1/55\nstatus valid\n")


def test_verify_names_the_missing_field_of_a_cubic_document(capsys, monkeypatch):
    # cubic-repr writes a unit sum, which is no expansion document
    _, doc, _ = run(capsys, "cubic-repr", "--a", "2", "--format", "json", "5", "0", "0")
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert run(capsys, "verify", "-")[:2] == (5, "status invalid (malformed expansion document: missing field 'kind')\n")


@pytest.mark.parametrize(
    "argv, kind",
    [
        (("--p", "5", "--q", "23"), "plain"),
        (("--p", "5", "--q", "11", "--extended"), "extended"),
    ],
    ids=["plain", "extended"],
)
def test_verify_names_a_relation_document_as_one(capsys, monkeypatch, argv, kind):
    # find-relation's kinds are plain and extended, and an extended
    # expansion shares the second; the relation's keys tell them apart
    _, doc, _ = run(capsys, "find-relation", *argv, "--format", "json")
    assert json.loads(doc)["kind"] == kind
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert run(capsys, "verify", "-")[:2] == (
        5, f"status invalid (a relation document of kind '{kind}', not an expansion)\n"
    )


def test_verify_names_an_unknown_kind_before_any_missing_field(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"kind": "foo", "terms": []}'))
    assert run(capsys, "verify", "-")[:2] == (5, "status invalid (unknown expansion kind 'foo')\n")
    # an unhashable kind is named the same way
    monkeypatch.setattr("sys.stdin", io.StringIO('{"kind": ["plain"], "sign": "1"}'))
    assert run(capsys, "verify", "-")[:2] == (5, "status invalid (unknown expansion kind ['plain'])\n")


@pytest.mark.parametrize("field", ["d", "i", "j"])
def test_verify_names_the_term_that_lacks_a_field(capsys, monkeypatch, field):
    terms = [{"d": 1, "i": str(k), "j": "0"} for k in range(4)]
    del terms[2][field]
    doc = json.dumps({"kind": "signed", "p": "5", "q": "23", "value": "1", "terms": terms})
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert run(capsys, "verify", "-")[:2] == (
        5, f"status invalid (malformed expansion document: missing field '{field}' in term 2)\n"
    )


@pytest.mark.parametrize(
    "doc, what",
    [
        ("[]", "the document is not a JSON object"),
        ('"x"', "the document is not a JSON object"),
        ('{"kind":"signed","p":"5","q":"23","value":"1","terms":[{"d":1,"i":"0","j":"0"},[1,0,0]]}',
         "term 1 is not a JSON object"),
        ('{"kind":"signed","p":"5","q":"23","value":"1","terms":"x"}', "terms is not a JSON array"),
    ],
    ids=["array", "string", "term-array", "terms-string"],
)
def test_verify_says_what_is_not_a_json_object(capsys, monkeypatch, doc, what):
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, _ = run(capsys, "verify", "-")
    assert (code, out) == (5, f"status invalid (malformed expansion document: {what})\n")


def test_verify_rejects_malformed_json(tmp_path, capsys):
    doc = tmp_path / "broken.json"
    doc.write_text("{not json")
    code, _, err = run(capsys, "verify", str(doc))
    assert code == 3


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_verify_rejects_json_nested_too_deep(tmp_path, capsys, monkeypatch, source):
    # json.loads raises RecursionError past its depth, which is 1000 levels
    # on 3.11 and several thousand on 3.12+; a million overflows on each
    nested = "[" * 10**6 + "]" * 10**6
    if source == "file":
        doc = tmp_path / "nested.json"
        doc.write_text(nested)
        arg = str(doc)
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(nested))
        arg = "-"
    code, out, err = run(capsys, "verify", arg)
    assert (code, out) == (3, "")
    assert err.startswith("error: not valid JSON: ")
    # the interpreter recovered, so the next call runs as usual
    assert run(capsys, "find-relation", "--p", "5", "--q", "23")[:2] == (0, "2 = 5^2 - 23^1\n")


@needs_limit
def test_verify_names_the_digit_limit_of_a_json_integer_literal(capsys, monkeypatch):
    # json.loads raises a plain ValueError on an unquoted integer past the limit
    doc = '{"kind": "signed", "p": "5", "q": "23", "value": %s, "terms": []}' % ("7" * (LIMIT + 1))
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = run(capsys, "verify", "-")
    assert (code, out) == (3, "")
    assert err == f"error: a JSON integer literal has more than {LIMIT} digits, past Python's int/str limit\n"


@needs_limit
@pytest.mark.parametrize("kind, sign", [("signed", ""), ("extended", "-")])
def test_verify_calls_a_value_past_the_digit_limit_invalid(capsys, monkeypatch, kind, sign):
    # 5^(2 LIMIT) and 5^-(2 LIMIT) print more digits than the limit allows, so
    # neither can be the claimed value, which had to be read under it; this
    # exited 3 with Python's own message and its set_int_max_str_digits advice
    terms = [{"d": 1, "i": f"{sign}{2 * LIMIT}", "j": "0"}]
    doc = json.dumps({"kind": kind, "p": "5", "q": "23", "value": "1", "terms": terms})
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert run(capsys, "verify", "-") == (
        5, f"status invalid (value has more than {LIMIT} digits, past Python's int/str limit; document claims 1)\n", ""
    )


def test_find_relation_text(capsys):
    code, out, _ = run(capsys, "find-relation", "--p", "5", "--q", "23")
    assert code == 0
    assert out == "2 = 5^2 - 23^1\n"


def test_find_relation_falls_back_to_certificate(capsys):
    code, out, _ = run(capsys, "find-relation", "--p", "5", "--q", "11")
    assert code == 2
    assert out.splitlines()[0] == "obstruction modulus 5"


def test_find_relation_asks_for_the_certificate_first(capsys, monkeypatch):
    # modulus 5 rules out every plain relation of (5,11), so no plain
    # search may walk to the 10^9 bound
    real = relations.find_plain_relation

    def bounded(base, max_exp=relations.MAX_EXP):
        assert max_exp <= relations.MAX_EXP, f"plain search to exponent {max_exp}"
        return real(base, max_exp)

    monkeypatch.setattr(relations, "find_plain_relation", bounded)
    code, out, _ = run(capsys, "find-relation", "--p", "5", "--q", "11", "--max-exp", "1000000000")
    assert (code, out) == (2, "obstruction modulus 5\np_orbit 0\nq_orbit 1\n")


@pytest.mark.parametrize("extended", [(), ("--extended",)], ids=["plain", "extended"])
def test_find_relation_refuses_a_walk_past_its_bound(capsys, extended):
    # (97, 89) has no relation with exponents up to the walk bound, and
    # modulus 2 gives no certificate, so a bound of 10^6 is refused
    # instead of walking for hours
    argv = ("find-relation", "--p", "97", "--q", "89", "--max-exp", "1000000", "--max-modulus", "2")
    assert run(capsys, *argv, *extended) == (
        3,
        "",
        f"error: max_exp 1000000 is past the search bound of {relations.MAX_WALK_EXP}, "
        "which the walk reached without an answer\n",
    )


def test_find_relation_extended_flag(capsys):
    code, out, _ = run(
        capsys, "find-relation", "--p", "5", "--q", "11", "--extended"
    )
    assert code == 0
    assert "5^-1" in out


def test_obstruct_json(capsys):
    code, out, _ = run(
        capsys, "obstruct", "--p", "7", "--q", "13", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["modulus"] == "7"


def test_obstruct_nothing_found(capsys):
    # twin pair: a relation exists, so no certificate can
    code, out, _ = run(capsys, "obstruct", "--p", "3", "--q", "5")
    assert code == 2


def test_min_weight(capsys):
    code, out, _ = run(capsys, "min-weight", "--p", "5", "--q", "23", "4")
    assert code == 0
    assert out.splitlines()[0] == "weight 2"


def test_min_weight_box_must_be_complete(capsys):
    code, _, err = run(
        capsys, "min-weight", "--p", "5", "--q", "23", "4", "--i-max", "3"
    )
    assert code == 3


def test_min_weight_budget_cap(capsys):
    code, _, err = run(
        capsys,
        "min-weight", "--p", "5", "--q", "23", "1000000000",
        "--max-weight", "8", "--budget", "50",
    )
    assert code == 4


def test_cubic_repr(capsys):
    code, out, _ = run(
        capsys, "cubic-repr", "--a", "2", "7", "-4", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert int(doc["max_coefficient"]) <= 2
    assert doc["coords"] == ["7", "-4", "2"]


def test_cubic_repr_rejects_an_empty_representation(capsys, monkeypatch):
    # the empty representation evaluates to the int 0, which a nonzero
    # element does not equal, so the one round-trip check catches it
    empty = lambda beta, policy=None: Representation(cubic.cubic_basis(beta.params))
    monkeypatch.setattr(cubic, "represent_unit_sums", empty)
    code, out, err = run(capsys, "cubic-repr", "--a", "2", "7", "-4", "2")
    assert (code, out) == (5, "")
    assert "does not evaluate back" in err


def test_cubic_repr_rejects_a_wrong_evaluation(capsys, monkeypatch):
    monkeypatch.setattr(cubic, "cubic_evaluator", lambda params: lambda items: cubic.one(params))
    code, out, err = run(capsys, "cubic-repr", "--a", "2", "7", "-4", "2")
    assert (code, out) == (5, "")
    assert "does not evaluate back" in err


def test_cubic_repr_of_zero_is_the_empty_sum(capsys):
    code, out, _ = run(capsys, "cubic-repr", "--a", "0", "0", "0", "0")
    assert code == 0
    assert out == "beta(0,0,0) = (empty sum)\nmax coefficient 0  steps 0\n"


def test_obstruct_stays_within_the_modulus_bound(capsys):
    code, out, _ = run(capsys, "obstruct", "--p", "7", "--q", "13", "--max-modulus", "5")
    assert code == 0
    assert out.splitlines()[0] == "obstruction modulus 3"


def test_min_weight_box_larger_than_the_budget_is_capped(capsys):
    code, out, err = run(
        capsys, "min-weight", "--p", "5", "--q", "23", "7",
        "--i-max", "100000", "--j-max", "100000",
    )
    assert (code, out) == (4, "")
    assert "10000200001 slots" in err


def test_cubic_verify_range(capsys):
    code, out, _ = run(capsys, "cubic-verify", "--a-from", "0", "--a-to", "0")
    assert code == 0
    assert out == "1/1 relations verified, sum = 3\n"


# cubic-verify checks D + 1 values of a at most: the identity is one of
# polynomials in a of degree at most D (see cubic.three_relation)
D = cubic.THREE_RELATION_DEGREE


def test_cubic_verify_answers_any_range_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "cubic-verify", "--a-from", "0", "--a-to", "1000000000")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (0, "1000000001/1000000001 relations verified, sum = 3\n", "")


@pytest.mark.parametrize("more", [0, 1, D - 1, D, D + 1, 10**6])
def test_cubic_verify_checks_at_most_d_plus_one_values(capsys, monkeypatch, more):
    # a range of at most D + 1 values checks each of them, a longer one
    # its first D + 1
    checked = []
    three = cubic.three_relation
    monkeypatch.setattr(cubic, "three_relation", lambda params: checked.append(params.a) or three(params))
    assert run(capsys, "cubic-verify", "--a-from", "-7", "--a-to", str(more - 7))[0] == 0
    assert checked == list(range(-7, min(more, D) - 7 + 1))


def test_cubic_verify_rejects_reversed_range(capsys):
    code, _, _ = run(capsys, "cubic-verify", "--a-from", "5", "--a-to", "1")
    assert code == 3


@pytest.mark.parametrize(
    "argv, stdin, err",
    [
        (
            ("verify", "-"),
            "{not json",
            "error: not valid JSON: Expecting property name enclosed in double quotes:"
            " line 1 column 2 (char 1)\n",
        ),
        (
            ("min-weight", "--p", "5", "--q", "23", "4", "--j-max", "3"),
            "",
            "error: give both --i-max and --j-max or neither\n",
        ),
        (
            ("cubic-verify", "--a-from", "5", "--a-to", "1"),
            "",
            "error: --a-from must not exceed --a-to\n",
        ),
        (
            ("bench-steps", "--p", "5", "--q", "23", "--from", "9", "--to", "1"),
            "",
            "error: --from must not exceed --to\n",
        ),
        # (5,11) has a certificate, so its plain search is skipped
        (
            ("find-relation", "--p", "5", "--q", "23", "--max-exp", "0"),
            "",
            "error: max_exp must be at least 1\n",
        ),
        (
            ("find-relation", "--p", "5", "--q", "11", "--max-exp", "0"),
            "",
            "error: max_exp must be at least 1\n",
        ),
    ],
    ids=["verify", "min-weight", "cubic-verify", "bench-steps", "find-relation", "find-relation-certified"],
)
def test_invalid_input_is_reported_on_stderr(capsys, monkeypatch, argv, stdin, err):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(capsys, *argv) == (3, "", err)


def test_bench_steps_csv(capsys):
    code, out, _ = run(
        capsys, "bench-steps", "--p", "5", "--q", "23", "--from", "995", "--to", "1003"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,w_init,steps,weight_final"
    assert len(lines) == 10
    assert lines[6] == "1000,4,1,4"


def test_failing_bench_steps_prints_nothing_on_stdout(capsys):
    # (5,11) has no plain relation; the CSV header waits for the sweep
    assert run(capsys, "bench-steps", "--p", "5", "--q", "11", "--from", "1", "--to", "3") == (
        2,
        "",
        "error: no plain relation for (5,11) with exponents up to 64\n",
    )


def test_bench_steps_rejects_a_range_past_its_bound(capsys, monkeypatch):
    # the rows are held until the sweep ends: 10^8 values once ran for
    # hours before printing anything
    assert run(capsys, "bench-steps", "--p", "5", "--q", "23", "--from", "1", "--to", "100000000") == (
        3,
        "",
        "error: range of 100000000 values exceeds the bench-steps bound of 100000; split it\n",
    )
    assert run(capsys, "bench-steps", "--p", "5", "--q", "23", "--from", "-5", "--to", "99995")[:2] == (3, "")
    # exactly the bound is accepted; the sweep itself is stubbed
    monkeypatch.setattr(cli.oracle, "sweep_verify", lambda lo, hi, base: [(lo, 1, 0, 1)])
    assert run(capsys, "bench-steps", "--p", "5", "--q", "23", "--from", "-5", "--to", "99994") == (
        0,
        "n,w_init,steps,weight_final\n-5,1,0,1\n",
        "",
    )


def test_cubic_verify_rechecks_every_parameter(capsys, monkeypatch):
    assert run(capsys, "cubic-verify", "--a-from", "0", "--a-to", "2")[0] == 0
    monkeypatch.setattr(cubic, "unit_monomial", lambda i, j, params: cubic.one(params))
    code, out, err = run(capsys, "cubic-verify", "--a-from", "0", "--a-to", "2")
    assert (code, out) == (5, "")
    assert "a = 0" in err


# one argv per integer argument; "{}" marks the argument under test
INTEGER_ARGS = [
    ("expand", "--p", "{}", "--q", "23", "7"),
    ("expand", "--p", "5", "--q", "{}", "7"),
    ("expand", "--p", "5", "--q", "23", "{}"),
    ("expand-extended", "--p", "{}", "--q", "11", "7/25"),
    ("find-relation", "--p", "5", "--q", "23", "--max-exp", "{}"),
    ("find-relation", "--p", "5", "--q", "23", "--max-modulus", "{}"),
    ("obstruct", "--p", "7", "--q", "13", "--max-modulus", "{}"),
    ("min-weight", "--p", "5", "--q", "23", "{}"),
    ("min-weight", "--p", "5", "--q", "23", "4", "--max-weight", "{}"),
    ("min-weight", "--p", "5", "--q", "23", "4", "--i-max", "{}", "--j-max", "3"),
    ("min-weight", "--p", "5", "--q", "23", "4", "--i-max", "3", "--j-max", "{}"),
    ("min-weight", "--p", "5", "--q", "23", "4", "--budget", "{}"),
    ("cubic-repr", "--a", "{}", "1", "2", "3"),
    ("cubic-repr", "--a", "2", "{}", "2", "3"),
    ("cubic-repr", "--a", "2", "1", "{}", "3"),
    ("cubic-repr", "--a", "2", "1", "2", "{}"),
    ("cubic-verify", "--a-from", "{}", "--a-to", "9"),
    ("cubic-verify", "--a-from", "1", "--a-to", "{}"),
    ("bench-steps", "--p", "5", "--q", "23", "--from", "{}", "--to", "9"),
    ("bench-steps", "--p", "5", "--q", "23", "--from", "1", "--to", "{}"),
]


@pytest.mark.parametrize("bad", ["1_000", "+7", " 7", "\u0665", "7.0"])
@pytest.mark.parametrize("template", INTEGER_ARGS, ids=" ".join)
def test_integer_arguments_follow_one_rule(capsys, template, bad):
    # int() would read all of these; the CLI takes -?[0-9]+ only
    argv = [bad if arg == "{}" else arg for arg in template]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "invalid integer value" in err


@needs_limit
@pytest.mark.parametrize("template", INTEGER_ARGS, ids=" ".join)
def test_integer_arguments_past_the_digit_limit_name_it(capsys, template):
    # argparse would call the argument invalid and echo all its digits
    argv = ["7" * (LIMIT + 1) if arg == "{}" else arg for arg in template]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert f"integer has more than {LIMIT} digits, past Python's int/str limit" in err
    assert "invalid integer value" not in err and len(err) < 1000


def test_unknown_subcommand_is_invalid_input(capsys):
    assert run(capsys, "no-such-command")[0] == 3


def test_missing_required_flag_is_invalid_input(capsys):
    assert run(capsys, "expand", "997")[0] == 3


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


# stdout of each invocation, pinned by sha256 so that refactors of the
# writers keep every byte; stdin is fed to `verify -`
EXTENDED_DOC = (
    '{"kind": "extended", "p": "5", "q": "11", "value": "7/25", "terms": ['
    '{"d": 1, "i": "-1", "j": "0"}, {"d": 1, "i": "-3", "j": "1"}, '
    '{"d": -1, "i": "-3", "j": "0"}]}'
)
SIGNED_DOC = (
    '{"kind": "signed", "p": "5", "q": "23", "value": "4", "terms": ['
    '{"d": -1, "i": "4", "j": "1"}, {"d": 1, "i": "4", "j": "0"}, '
    '{"d": 1, "i": "2", "j": "2"}, {"d": 1, "i": "0", "j": "2"}]}'
)
PINNED_STDOUT = [
    (("find-relation", "--p", "5", "--q", "23"), None, 0,
     "978f21e5f6cf0a49402b625403adcb828253d01f52168e98f78f8e5ed757de4d"),
    (("find-relation", "--p", "5", "--q", "23", "--format", "json"), None, 0,
     "e685d0acbfa04ee0fa9e5262fe6b07533c607c2b5e9d980a9bf81fd08c8f17e4"),
    (("find-relation", "--p", "23", "--q", "5"), None, 0,
     "978f21e5f6cf0a49402b625403adcb828253d01f52168e98f78f8e5ed757de4d"),
    (("find-relation", "--p", "23", "--q", "5", "--format", "json"), None, 0,
     "52c2698fb5e419b316f572600f312fb7e72463e547f891e1131554d64f14defe"),
    (("find-relation", "--p", "5", "--q", "11", "--extended"), None, 0,
     "2f26ba0cf59807d61f347e96f3de3fe17bf1b10edb679ea7e23ef8c04e207737"),
    (("find-relation", "--p", "5", "--q", "11", "--extended", "--format", "json"), None, 0,
     "cea071ec242ba98bf8646e65243e660a5c7f9c393770fb128801af1026a212e5"),
    (("find-relation", "--p", "11", "--q", "5", "--extended"), None, 0,
     "086f1ea26263688748d1f1efb6d23a312c3d375e09831a5f262de18780e3b2d9"),
    (("find-relation", "--p", "11", "--q", "5", "--extended", "--format", "json"), None, 0,
     "bf1fc04bce8d285bb66b6f016f54dec8dcd028ff71a115d8ac2a4a58f558f6f6"),
    (("find-relation", "--p", "5", "--q", "11"), None, 2,
     "07521a40ca3fd976167380285f1af5c14d39be91eacffbdb73f833a0987903ee"),
    (("find-relation", "--p", "5", "--q", "11", "--format", "json"), None, 2,
     "485c5d4c273697dfeffe4396954d1522fb13e9945cc06ce94ce254ac7469ef00"),
    (("find-relation", "--p", "3", "--q", "13", "--max-exp", "1"), None, 2,
     "3de6fab203e926de7dee51962e0c17d2a13f63b9dbaa934d2870b9924f782dd7"),
    (("obstruct", "--p", "7", "--q", "13"), None, 0,
     "848e1481b4bd6294d919ded93cfa28a3150d403638ca559f1e54d55b5ebfe119"),
    (("obstruct", "--p", "7", "--q", "13", "--format", "json"), None, 0,
     "6057aa4dc24abffdbe81c40ffee0c0271e8a8ccb24e2fa8fbdcd4db07d8a2271"),
    (("obstruct", "--p", "3", "--q", "5"), None, 2,
     "6c2f3f4705f807fbe376514a236353c91f7c942b973d63fad8d4201904bb8d2d"),
    (("cubic-repr", "--a", "2", "7", "-4", "2"), None, 0,
     "169f382e6a8a86adcb5a2a280d40b4ad65518bb3dc795d2d6239fcac9fae8694"),
    (("cubic-repr", "--a", "2", "7", "-4", "2", "--format", "json"), None, 0,
     "ef2d617467f3737e6ef24936aa53bb836c20b17c928d5d74eba3a81a8733b952"),
    (("cubic-repr", "--a", "-1", "0", "0", "0", "--format", "json"), None, 0,
     "208b410e0757c2f764b8c7ef09b699d51b8aa323e328d5aa51d658f36f85ecf7"),
    (("verify", "-"), EXTENDED_DOC, 0,
     "a7635e81e6ff37d9123e587ddce9e0832d81432fde2bd50d7157172854ec68e3"),
    (("verify", "-"), EXTENDED_DOC.replace("7/25", "8/25"), 5,
     "a504f70de8b971f7a130ce37ebd497121904cb034f58b80f804e21d6268f9fa1"),
    (("verify", "-"), SIGNED_DOC, 0,
     "58fae4bbd47ddb0652c3b1022b472aa307c236d767e872ec11d0a15c8b1b3e1a"),
    (("expand", "--p", "5", "--q", "23", "-997"), None, 0,
     "6ca0f7609e8b45e684dd12796b864c135602f13e8f021faba6c80c2e37de20d9"),
    (("expand", "--p", "23", "--q", "5", "997", "--format", "json"), None, 0,
     "f2412776045f23b92092fa86f9d5f6ec41dbee2b7f1928033f8875d3d10a0e18"),
    (("expand", "--p", "5", "--q", "23", "0", "--format", "json"), None, 0,
     "6fcb1f6879542ad10ce8f35c29ab9afdfbd4d049c6ba97f5a03e445fa5b56ab3"),
    (("expand", "--p", "5", "--q", "23", "1000", "--seed-method", "greedy"), None, 0,
     "e4dffb283bb5ebb0f5760a7122aec73ef078f82017f6735156fc7a3cebc6805c"),
    (("expand-extended", "--p", "5", "--q", "11", "7/25"), None, 0,
     "80230a926793fd901689bde778690a152965a593a53bef3a13485c0bf8065ae1"),
    (("expand-extended", "--p", "11", "--q", "5", "--format", "json", "--", "-7/25"), None, 0,
     "c068e151aed31c9df84f7dda36d22db647da80e94ecdbadba7cecbc1fb4123c9"),
    (("expand-extended", "--p", "5", "--q", "23", "-50", "--format", "json"), None, 0,
     "bddf2e5ade052ef8dbda3cb2981734a88ce50224962e8dfeffb6256d87228b12"),
    (("min-weight", "--p", "5", "--q", "23", "4", "--format", "json"), None, 0,
     "6676f2b8a7491f15970bbc8999487ecba46fd1f44b3b79ddaaa3504ce3823534"),
    (("bench-steps", "--p", "5", "--q", "23", "--from", "-5", "--to", "30"), None, 0,
     "4e398c3cfbb72bdbdd878258dfc441b9df3fb8ef1e392d9767405ba671029a36"),
    (("bench-steps", "--p", "2", "--q", "3", "--from", "-3", "--to", "3"), None, 0,
     "6860dea04dee2f3be1af1b0617944816e26100540e29ec0cb0ae3214bdd52004"),
    # single-base shortcuts: binary on the p axis, balanced ternary on the q axis
    (("expand", "--p", "2", "--q", "7", "-997"), None, 0,
     "6fefcd9fe1ffd55ca5a50a1f84f71df729a001e5912cf6ae8e8b3734fefde6bf"),
    (("expand", "--p", "7", "--q", "3", "--format", "json", "--", "-997"), None, 0,
     "43e5c1a0d426dcb37f4fa017c03af60e838b2381b76ee946a890a52837442200"),
    # the "no expansion" line with the default box and with a given one
    (("min-weight", "--p", "5", "--q", "23", "997", "--max-weight", "1"), None, 0,
     "90db82f0769078e055534850d670e016b38dce43832685b65c471538c89da777"),
    (("min-weight", "--p", "5", "--q", "23", "997", "--max-weight", "1", "--i-max", "2", "--j-max", "1"), None, 0,
     "4279bc07392d31394143a32aae7cc653ce7c5e18be659240cfaa7a475f38eab6"),
    (("cubic-verify", "--a-from", "-3", "--a-to", "3"), None, 0,
     "73aa037fd9314192e4b7f33e6dd8b3de4ae32eb02db518ea836ea40d9864944b"),
    (("expand", "--p", "5", "--q", "23", "0"), None, 0,
     "ee859fc22dead643950ad8606151e9b5ea8dedb22d22287c2690376991e9d0f1"),
]


@pytest.mark.parametrize("argv, stdin, code, digest", PINNED_STDOUT)
def test_stdout_is_pinned(capsys, monkeypatch, argv, stdin, code, digest):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    got, out, _ = run(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def test_stdout_pins_hold_in_any_order(capsys, monkeypatch):
    # main reuses one parser per process: every pinned call, run forward
    # and then backward in one process, must print the same bytes
    for argv, stdin, code, digest in PINNED_STDOUT + PINNED_STDOUT[::-1]:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
        got, out, _ = run(capsys, *argv)
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), argv


def test_format_flag_does_not_stick(capsys):
    assert json.loads(run(capsys, "expand", "--p", "5", "--q", "23", "--format", "json", "997")[1])
    code, out, _ = run(capsys, "expand", "--p", "5", "--q", "23", "997")
    assert code == 0
    assert out.startswith("997 = ")


@pytest.mark.parametrize("first, code", [(("expand", "--p", "5", "997"), 3), (("--help",), 0)])
def test_parser_exit_does_not_break_the_next_call(capsys, first, code):
    assert run(capsys, *first)[0] == code
    got, out, _ = run(capsys, "find-relation", "--p", "5", "--q", "23")
    assert (got, out) == (0, "2 = 5^2 - 23^1\n")


def test_max_exp_flag_does_not_stick(capsys):
    # 2 = 3^6 - 727 needs an exponent above 5
    code, out, _ = run(capsys, "find-relation", "--p", "3", "--q", "727", "--max-exp", "5")
    assert (code, out) == (
        2,
        "no relation with exponents up to 5; no obstruction certificate with modulus up to 1000\n",
    )
    assert run(capsys, "find-relation", "--p", "3", "--q", "727")[:2] == (0, "2 = 3^6 - 727^1\n")


def test_flag_defaults_are_the_library_defaults():
    parse = cli.build_parser().parse_args
    base = ("--p", "5", "--q", "23")

    def default(function, name):
        return inspect.signature(function).parameters[name].default

    expand_args = parse(["expand", *base, "7"])
    assert expand_args.seed_method == default(expand_with_stats, "seed_method") == default(expand, "seed_method")
    for command in ("find-relation", "obstruct"):
        assert parse([command, *base]).max_modulus == default(relations.find_obstruction, "max_modulus")
    assert parse(["find-relation", *base]).max_exp == default(relations.find_plain_relation, "max_exp")
    assert parse(["min-weight", *base, "7"]).budget == default(min_weight_bruteforce, "node_budget")
    subcommands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    choices = next(a.choices for a in subcommands.choices["expand"]._actions if a.dest == "seed_method")
    for method in choices:
        assert expand_with_stats(997, BasePair(5, 23), method).expansion.terms
    with pytest.raises(ValueError, match="^seed_method must be 'padic' or 'greedy'$"):
        expand_with_stats(997, BasePair(5, 23), "foo")
