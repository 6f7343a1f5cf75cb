"""Command-line interface: output formats, exit codes, determinism."""

import hashlib
import io
import json

import pytest

from unitsum import cubic
from unitsum.cli import main


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


def test_expand_extended_rejects_zero_denominator(capsys):
    code, out, err = run(capsys, "expand-extended", "--p", "5", "--q", "11", "1/0")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


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


def test_verify_rejects_malformed_json(tmp_path, capsys):
    doc = tmp_path / "broken.json"
    doc.write_text("{not json")
    code, _, err = run(capsys, "verify", str(doc))
    assert code == 3


def test_find_relation_text(capsys):
    code, out, _ = run(capsys, "find-relation", "--p", "5", "--q", "23")
    assert code == 0
    assert out == "2 = 5^2 - 23^1\n"


def test_find_relation_falls_back_to_certificate(capsys):
    code, out, _ = run(capsys, "find-relation", "--p", "5", "--q", "11")
    assert code == 2
    assert out.splitlines()[0] == "obstruction modulus 5"


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


def test_cubic_verify_range(capsys):
    code, out, _ = run(capsys, "cubic-verify", "--a-from", "0", "--a-to", "0")
    assert code == 0
    assert out == "1/1 relations verified, sum = 3\n"


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
    ],
    ids=["verify", "min-weight", "cubic-verify", "bench-steps"],
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
]


@pytest.mark.parametrize("argv, stdin, code, digest", PINNED_STDOUT)
def test_stdout_is_pinned(capsys, monkeypatch, argv, stdin, code, digest):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    got, out, _ = run(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
