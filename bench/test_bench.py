"""Tests of the benchmark itself: a smoke run of every workload, traced
and untraced, the refusal to run without the sources, and the checkers'
power to reject wrong outputs.

    python -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED_FAILURES = {"db-bigint": 1, "cubic-units": 1, "sweep-small": 0, "certify": 0}


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == EXPECTED_FAILURES[workload]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert f"golden match ({workload}/1/smoke)" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_depend_only_on_the_seed():
    for workload in W.WORKLOADS:
        assert W.smoke_ops(workload, 3) == W.smoke_ops(workload, 3)
        assert W.smoke_ops(workload, 3) != W.smoke_ops(workload, 4)
    assert W.timed_rounds("db-bigint", 5, 2) == W.timed_rounds("db-bigint", 5, 2)


def _stats(terms, steps=0, w_init=1):
    return SimpleNamespace(expansion=SimpleNamespace(terms=tuple(terms)), steps=steps, w_init=w_init)


def test_checks_reject_wrong_expansions():
    good = [(1, 2, 0), (-1, 0, 1)]  # 25 - 23 = 2 over (5, 23)
    checks.check_expand_stats(_stats(good, steps=1, w_init=2), 2, 5, 23)
    for terms, steps, w_init in (
        ([(1, 2, 0), (1, 0, 1)], 0, 2),  # evaluates to 48
        ([(2, 0, 0)], 0, 2),  # digit 2
        ([(1, 0, 0), (1, 0, 0)], 0, 2),  # repeated pair
        (good, 2, 2),  # more steps than (w^2 - w) / 2
    ):
        with pytest.raises(checks.CheckFailed):
            checks.check_expand_stats(_stats(terms, steps, w_init), 2, 5, 23)


def test_cubic_evaluator_matches_the_minimal_polynomial():
    for a in (0, 3, -1000):
        ev = checks.CubicEvaluator(a)
        alpha3 = ev.power(0, 3)
        assert alpha3 == (1, a + 2, a - 1)
        assert checks.cubic_mul(ev.power(0, -5), ev.power(0, 5), a) == (1, 0, 0)
        assert checks.cubic_mul(ev.power(1, -4), ev.power(1, 4), a) == (1, 0, 0)
    items = [((0, 1, (0, 0)), 2), ((1, 1, (1, 0)), 1)]  # 2 - alpha
    assert checks.unit_sum_value(items, 3) == (2, -1, 0)
    with pytest.raises(checks.CheckFailed):
        checks.unit_sum_value([((0, 1, (0, 0)), 3)], 3)


def test_checks_reject_wrong_roots_and_certificates():
    a = 3
    with pytest.raises(checks.CheckFailed):  # f is about 1 all over this interval: no root inside
        checks.check_roots(W.Op("roots", (a,)), [(Fraction(-1), Fraction(-1) + Fraction(1, 1 << 130))] * 3)
    cert = SimpleNamespace(p=5, q=11, modulus=5, p_orbit=(0,), q_orbit=(1,))
    checks.check_certificate(5, 11, cert)
    with pytest.raises(checks.CheckFailed):
        checks.check_certificate(5, 11, SimpleNamespace(p=5, q=11, modulus=5, p_orbit=(0,), q_orbit=(2,)))
    with pytest.raises(checks.CheckFailed):  # (7, 11) has no plain relation, so it needs a certificate
        checks.check_certificate(7, 11, None)
