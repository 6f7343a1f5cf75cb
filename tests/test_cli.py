"""Command-line interface: output formats, exit codes, determinism."""

import json

import pytest

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


def test_bench_steps_csv(capsys):
    code, out, _ = run(
        capsys, "bench-steps", "--p", "5", "--q", "23", "--from", "995", "--to", "1003"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,w_init,steps,weight_final"
    assert len(lines) == 10
    assert lines[6] == "1000,4,1,4"


def test_unknown_subcommand_is_invalid_input(capsys):
    assert run(capsys, "no-such-command")[0] == 3


def test_missing_required_flag_is_invalid_input(capsys):
    assert run(capsys, "expand", "997")[0] == 3


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
