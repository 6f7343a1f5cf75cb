#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/collect.py --seeds 1-10 --seconds 20
    python3 bench/collect.py --seeds 1-10 --write-baseline --write-golden

Each run is a fresh process of bench/run.py.  For every end-to-end metric
it prints the median, the quartiles (statistics.quantiles, n=4), the
spread (Q3 - Q1) / median and the metric's bound from BENCHMARK.json.
--write-baseline records these, one traced run per workload, the machine
and the re-anchor probes in bench/baseline.json; --write-golden adds the
output digest of every run to bench/golden.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import workloads as W  # noqa: E402


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def one_run(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    args = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        args.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(args[1:])} failed ({proc.returncode}):\n{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    digest_line = next(line for line in lines if line.startswith("digest "))
    result["digest"] = digest_line.split()[1]
    result["key"] = digest_line.split("(")[-1].rstrip(")")
    result["run_s"] = time.perf_counter() - t0
    return result


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "spread": (q3 - q1) / med if med else 0.0}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


# The ROADMAP re-anchor table (2-core machine, Python 3.11.7), for
# comparison with probes(); the table does not give the coordinate shape
# behind its cubic step counts.
REANCHOR = {
    "padic_expand_ms": {"256bit": 1, "4096bit": 23, "16384bit": 144},
    "evaluate_expansion_ms_16384bit": 476,
    "padic_vs_greedy_1024bit": {"padic": {"weight": 915, "ms": 6}, "greedy": {"weight": 135, "ms": 3070}},
    "cubic_steps": {"c100": 474, "c1000": 46_500, "c3000": 418_000, "c10000": "IterationCapExceeded at the 1 M cap"},
    "cubic_c1000_all_coordinates": {"steps": 104_565, "batches": 85_776},
    "real_roots_s": {"a1e3": 0.04, "a1e4": 0.38, "a1e5": 4.05},
}


def probes() -> dict:
    """The re-anchor table's counts and times, measured again."""
    lib = bench.import_library()
    db, cubic, engine = lib.double_base, lib.cubic, lib.engine
    base = db.BasePair(5, 23)
    rng = W._rng("probe", 0, "values")
    out = {}

    def med_ms(fn, reps=3):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return 1000 * statistics.median(times)

    for bits in (256, 4096, 16384):
        v = W._signed_bits(rng, bits)
        exp = db.expand(v, base)
        out[f"padic_expand_ms_{bits}bit"] = med_ms(lambda: db.expand(v, base))
        out[f"evaluate_expansion_ms_{bits}bit"] = med_ms(lambda: db.evaluate_expansion(exp))
    try:
        db.expansion_to_json(exp)
        out["json_16384bit"] = "ok"
    except ValueError as exc:
        out["json_16384bit"] = f"ValueError: {exc}"[:80]
    v = abs(W._signed_bits(rng, 1024))
    for method in ("padic", "greedy"):
        t0 = time.perf_counter()
        stats = db.expand_with_stats(v, base, seed_method=method)
        out[f"{method}_1024bit"] = {"weight": len(stats.expansion.terms), "ms": 1000 * (time.perf_counter() - t0)}
    params = cubic.CubicParams(3)
    for c in (100, 1000, 3000):
        batches = [0]
        policy = engine.ReductionPolicy(on_step=lambda site, t: batches.__setitem__(0, batches[0] + 1))
        rep = cubic.represent_unit_sums(cubic.CubicElement(params, c, c, c), policy)
        out[f"cubic_steps_c{c}"] = {"coords": [c, c, c], "steps": rep.steps, "batches": batches[0]}
    t0 = time.perf_counter()
    try:
        cubic.represent_unit_sums(cubic.CubicElement(params, 10_000, 0, 0))
        out["cubic_c10000"] = "completed"
    except lib.package.IterationCapExceeded:
        out["cubic_c10000"] = f"IterationCapExceeded after {time.perf_counter() - t0:.2f} s"
    for a in (1000, 10_000):  # cold: no workload ran in this process
        out[f"real_roots_ms_a{a}"] = med_ms(lambda: cubic.real_roots(cubic.CubicParams(a), 64), reps=1)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--workloads", default=",".join(W.WORKLOADS))
    ap.add_argument("--write-baseline", action="store_true")
    ap.add_argument("--write-golden", action="store_true")
    opts = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = opts.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(opts.seeds)
    digests = {}
    record = {}
    for workload in opts.workloads.split(","):
        runs = [one_run(workload, seed, seconds, 0) for seed in seeds]
        for r in runs:
            digests[r["key"]] = r["digest"]
        print(f"{workload}: {len(runs)} runs, {statistics.fmean(r['run_s'] for r in runs):.1f} s each on average")
        e2e = {}
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            e2e[name] = s
            flag = "" if s["spread"] <= bounds[name] / 3 else ("  over bound/3" if s["spread"] <= bounds[name] else "  OVER BOUND")
            print(f"  {name:14s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  spread {s['spread']:.4f}  bound {bounds[name]}{flag}")
        record[workload] = {"end_to_end": e2e, "attempted": runs[0]["attempted"], "failed": [r["failed"] for r in runs]}
        if opts.write_baseline:
            traced = one_run(workload, seeds[0], seconds, 1)
            record[workload]["per_layer_seed"] = seeds[0]
            record[workload]["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            digests[traced["key"]] = traced["digest"]
            smoke = one_run(workload, bench.DEFAULT_SEED, 1, 0, smoke=True)
            digests[smoke["key"]] = smoke["digest"]
    if opts.write_golden:
        path = BENCH / "golden.json"
        golden = json.loads(path.read_text()) if path.exists() else {}
        golden.update(digests)
        path.write_text(json.dumps(dict(sorted(golden.items())), indent=1) + "\n")
    if opts.write_baseline:
        path = BENCH / "baseline.json"
        if path.exists():  # keep the records of workloads not run this time
            record = {**json.loads(path.read_text())["workloads"], **record}
        baseline = {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "date": time.strftime("%Y-%m-%d", time.gmtime()),
            "run_seconds": seconds,
            "seeds": seeds,
            "default_seed": bench.DEFAULT_SEED,
            "held_out_seed": bench.HELD_OUT_SEED,
            "workloads": record,
            "probes": probes(),
            "reanchor_table": REANCHOR,
        }
        (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
