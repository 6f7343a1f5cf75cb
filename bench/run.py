#!/usr/bin/env python3
"""Benchmark of unitsum: four seeded closed-loop workloads, measured end
to end (--trace 0) or per layer (--trace 1).

    python3 bench/run.py --workload db-bigint --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports unitsum from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every
output passed its independent check and every exception was one the
workload expects.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
OUT_DIR = BENCH / "out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 97  # kept back for confirming a claimed gain
SETUP_SAMPLES = 5  # setup_s is the median of this many set-ups, in fresh processes
CLI_PROCESSES = 3
CHILD_TIMEOUT_S = 150
# Timings are scaled to a nominal machine speed.  On a shared machine the
# speed of a process drifts by a fifth from run to run; a fixed reference
# kernel timed between operations drifts with it (their ratio moved 4 %
# where each moved 23 %), so an operation's time is multiplied by
# REFERENCE_NOMINAL_S / (median of the REFERENCE_WINDOW reference times
# taken around it), and a set-up time by the same ratio over the run.
REFERENCE_NOMINAL_S = 0.0016
REFERENCE_EVERY_S = 0.05
REFERENCE_WINDOW = 8

import workloads as W  # noqa: E402  (the benchmark's own modules sit beside this file)
import checks  # noqa: E402
import tracing  # noqa: E402

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
    "out_weight": "count",
    "setup_s": "s",
}

PER_LAYER_UNITS = {name: "ms" for name in tracing.SELF_MS}
PER_LAYER_UNITS.update(
    {
        "engine.steps": "count",
        "engine.batches": "count",
        "engine.steps_per_batch": "count",
        "engine.support": "count",
        "double_base.steps": "count",
        "double_base.batches": "count",
        "double_base.w_init": "count",
        "double_base.weight": "count",
        "relations.calls": "count",
        "relations.share": "fraction",
        "oracle.calls": "count",
        "oracle.excess": "count",
        "cubic.basis_ms": "ms",
        "cli.stdout_bytes": "count",
        "cli.process_ms": "ms",
        "fail.ValueError": "count",
        "fail.IterationCapExceeded": "count",
        "trace.overhead": "fraction",
    }
)

# Counts that depend only on the inputs; the traced and the untraced run
# of one seed must agree on them exactly.
DETERMINISTIC = (
    "engine.steps",
    "engine.support",
    "double_base.steps",
    "double_base.w_init",
    "double_base.weight",
    "oracle.excess",
    "cli.stdout_bytes",
    "fail.ValueError",
    "fail.IterationCapExceeded",
    "out_weight",
    "ok_frac",
)


class BenchError(Exception):
    """The benchmark could not run or an output was wrong."""


def reference_kernel() -> int:
    """Fixed pure-Python work that calls no library code."""
    table, acc, big = {}, 0, 3 ** 200
    for i in range(4000):
        table[i & 255] = table.get(i & 255, 0) + i
        acc += (big * i) % 1_000_003
    return acc


class Speed:
    """Reference-kernel times of this process."""

    def __init__(self):
        self.samples = []
        for _ in range(3):  # the first calls run slower, before the interpreter specialises them
            reference_kernel()

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - t0)

    @property
    def scale(self) -> float:
        return REFERENCE_NOMINAL_S / statistics.median(self.samples)

    def scale_at(self, mark: int) -> float:
        """Scale for an operation that ran after the first mark samples."""
        half = REFERENCE_WINDOW // 2
        return REFERENCE_NOMINAL_S / statistics.median(self.samples[max(0, mark - half):mark + half])


def import_library():
    if not (SRC / "unitsum" / "__init__.py").is_file():
        raise BenchError(f"no unitsum package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    lib = W.Library()
    if Path(lib.package.__file__).resolve().parent != (SRC / "unitsum").resolve():
        raise BenchError(f"imported unitsum from {lib.package.__file__}, not from {SRC}")
    return lib


def run_child(args, timeout=CHILD_TIMEOUT_S, env=None) -> subprocess.CompletedProcess:
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=timeout, env=env)
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def self_args(opts, *extra) -> list:
    args = [sys.executable, str(BENCH / "run.py"), "--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds)]
    if opts.smoke:
        args.append("--smoke")
    return args + list(extra)


def setup(opts, tracer=None):
    """Import, generate the inputs and warm up on disjoint inputs."""
    start = time.perf_counter()
    lib = import_library()
    if tracer is not None:
        tracer.install(lib)
    if opts.smoke:
        rounds = [W.smoke_ops(opts.workload, opts.seed)]
    else:
        rounds = W.timed_rounds(opts.workload, opts.seed, W.rounds_for(opts.workload, opts.seconds))
    warm = W.warmup_ops(opts.workload, opts.seed, rounds)
    context = W.prepare(lib, [op for rnd in rounds for op in rnd] + warm)
    hooks = W.Hooks()
    for op in warm:
        W.run_op(lib, hooks, context, op)
    return lib, rounds, context, time.perf_counter() - start


def timed_loop(lib, ops, context, speed: Speed, tracer=None, first_id=0):
    """Run ops one after another; the reference kernel runs between
    operations every REFERENCE_EVERY_S, outside their timings."""
    hooks = W.Hooks(traced=tracer is not None)
    results, latencies, batches, marks = [], [], [], []
    clock = time.perf_counter
    speed.sample()
    last = clock()
    for idx, op in enumerate(ops, first_id):
        hooks.batches = 0
        marks.append(len(speed.samples))
        if tracer is None:
            t0 = clock()
            try:
                out = W.run_op(lib, hooks, context, op)
            except Exception as exc:  # classified after the timed region
                out = exc
            t1 = clock()
        else:
            tracer.op = idx
            t0 = clock()
            try:
                with tracer.span("op." + op.kind):
                    out = W.run_op(lib, hooks, context, op)
            except Exception as exc:
                out = exc
            t1 = clock()
            tracer.op = -1
        results.append(out)
        latencies.append(t1 - t0)
        batches.append(hooks.batches)
        if t1 - last >= REFERENCE_EVERY_S:
            speed.sample()
            last = clock()
    return results, latencies, batches, marks


class Tally:
    """What a run keeps of its outputs once they are checked: canonical
    lines for the digest, latencies, failures by class, check errors and
    the deterministic counts."""

    def __init__(self):
        self.lines, self.errors = [], []
        self.latencies, self.failures = [], []  # scaled seconds, and whether each op raised
        self.fails = {}
        self.cli_seen = {}
        self.speed = Speed()
        self.sums = dict.fromkeys(
            ("engine.steps", "engine.batches", "double_base.steps", "double_base.batches", "cli.stdout_bytes"), 0
        )
        self.samples = {name: [] for name in ("engine.support", "double_base.w_init", "double_base.weight", "oracle.excess", "out_weight")}

    def add(self, ops, results, latencies, batches, marks, context, first_id: int) -> None:
        scales = {}
        for idx, (op, out, dt, nb, mark) in enumerate(zip(ops, results, latencies, batches, marks), first_id):
            self.lines.append(checks.canonical(op, out))
            if mark not in scales:
                scales[mark] = self.speed.scale_at(mark)
            self.latencies.append(dt * scales[mark])
            failed = isinstance(out, BaseException)
            self.failures.append(failed)
            if failed:
                name = type(out).__name__
                if name in op.expect:
                    self.fails[name] = self.fails.get(name, 0) + 1
                else:
                    self.errors.append(f"op {idx} {op.kind}: unexpected {name}: {out}")
                continue
            try:
                checks.check(op, out, context, self.cli_seen)
            except checks.CheckFailed as exc:
                self.errors.append(f"op {idx} {op.kind}: {exc}")
            except Exception as exc:  # an output the checker cannot even read is wrong too
                self.errors.append(f"op {idx} {op.kind}: check raised {type(exc).__name__}: {exc}")
            self._count(op, out, nb)

    def _count(self, op, out, nb) -> None:
        sums, samples = self.sums, self.samples
        w = W.out_weight(op, out)
        if w is not None:
            samples["out_weight"].append(w)
        if op.kind == "cubic":
            sums["engine.steps"] += out[0].steps
            sums["engine.batches"] += nb
            samples["engine.support"].append(len(out[0]))
        elif op.kind in ("db", "int"):
            stats = out[0]
            sums["double_base.steps"] += stats.steps
            sums["double_base.batches"] += nb
            samples["double_base.w_init"].append(stats.w_init)
            samples["double_base.weight"].append(len(stats.expansion.terms))
        elif op.kind == "oracle":
            samples["oracle.excess"].append(len(out[1].terms) - out[0].weight)
        elif op.kind == "cli":
            sums["cli.stdout_bytes"] += len(out[1].encode())

    @property
    def wall(self) -> float:
        """Time spent in operations, scaled to nominal speed."""
        return sum(self.latencies)

    @property
    def attempted(self) -> int:
        return len(self.lines)

    @property
    def failed(self) -> int:
        return sum(self.fails.values())

    def counts(self) -> dict:
        """Deterministic counts, and means over completed operations."""
        c = dict(self.sums)
        for name, xs in self.samples.items():
            c[name] = statistics.fmean(xs) if xs else 0.0
        c["fail.ValueError"] = self.fails.get("ValueError", 0)
        c["fail.IterationCapExceeded"] = self.fails.get("IterationCapExceeded", 0)
        c["ok_frac"] = 1 - self.failed / self.attempted
        return c


def measure(lib, rounds, context, tracer=None) -> Tally:
    """Run the rounds; check each round's outputs after it, untimed."""
    tally = Tally()
    for rnd in rounds:
        first = tally.attempted
        results, latencies, batches, marks = timed_loop(lib, rnd, context, tally.speed, tracer, first)
        tally.add(rnd, results, latencies, batches, marks, context, first)
        del results  # keep one round's outputs alive at a time
    return tally


def nearest_rank(sorted_values, pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def golden_status(key: str, digest: str) -> str:
    try:
        recorded = json.loads(GOLDEN.read_text()).get(key)
    except FileNotFoundError:
        recorded = None
    if recorded is None:
        return "unrecorded"
    return "match" if recorded == digest else "MISMATCH"


def cli_process_ms() -> float:
    """Wall time of a CLI call in a fresh interpreter, median of a few."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, "-m", "unitsum.cli", "expand", "--p", "5", "--q", "23", "1000003"]
    times = []
    for _ in range(CLI_PROCESSES):
        t0 = time.perf_counter()
        proc = run_child(argv, timeout=60, env=env)
        times.append(time.perf_counter() - t0)
        value, total = checks.parse_expansion_text(proc.stdout.splitlines()[0], 5, 23)
        if not (value == "1000003" and total == 1000003):
            raise BenchError("CLI process printed a wrong expansion")
    return 1000 * statistics.median(times)


def metric_block(values: dict, units: dict) -> dict:
    bad = [name for name in units if not math.isfinite(values[name])]
    if bad:
        raise BenchError(f"metrics without a finite value: {bad}")
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a few operations of each kind, for testing the benchmark")
    ap.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES, help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    opts = ap.parse_args(argv)
    try:
        return run(opts)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


def run(opts) -> int:
    if opts.setup_only:
        seconds = setup(opts)[3]
        speed = Speed()
        for _ in range(5):
            speed.sample()
        print(f"setup_s {seconds * speed.scale!r}")
        return 0
    n_rounds = "smoke" if opts.smoke else W.rounds_for(opts.workload, opts.seconds)
    key = f"{opts.workload}/{opts.seed}/{n_rounds}"
    samples = 1 if opts.smoke else opts.setup_samples

    tracer = None
    setups = []
    if opts.trace:
        # the untraced reference run: its wall time is the base of
        # trace.overhead, and its outputs must equal the traced ones
        proc = run_child(self_args(opts, "--trace", "0", "--setup-samples", "1"))
        reference = next(json.loads(line[8:]) for line in proc.stdout.splitlines() if line.startswith("summary "))
        tracer = tracing.Tracer()
    else:
        setups = [float(run_child(self_args(opts, "--setup-only")).stdout.split()[-1]) for _ in range(samples - 1)]
    lib, rounds, context, own_setup = setup(opts, tracer)
    tally = measure(lib, rounds, context, tracer)
    scale = tally.speed.scale
    setups.append(own_setup * scale)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    digest = checks.digest(tally.lines)
    c = tally.counts()
    errors = tally.errors
    n = tally.attempted
    print(f"workload {opts.workload}  seed {opts.seed}  rounds {n_rounds}  operations {n}  trace {opts.trace}")
    print(f"failed {tally.failed} by class {json.dumps(tally.fails, sort_keys=True)}")
    print(f"digest {digest}  golden {golden_status(key, digest)} ({key})")
    print(f"reference kernel {1000 * statistics.median(tally.speed.samples):.3f} ms (median of "
          f"{len(tally.speed.samples)}); times scaled by {scale:.4f} to nominal speed")
    if opts.trace:
        mismatched = [name for name in DETERMINISTIC if reference["counts"][name] != c[name]]
        if reference["digest"] != digest:
            errors.append("traced outputs differ from the untraced run's")
        if mismatched:
            errors.append(f"traced counts differ from the untraced run's: {mismatched}")
        layer = tracing.layer_metrics(tracer.spans, n)
        for name in layer:
            if PER_LAYER_UNITS[name] == "ms":
                layer[name] *= scale
        layer.update(c)
        layer["engine.steps_per_batch"] = c["engine.steps"] / c["engine.batches"] if c["engine.batches"] else 0.0
        layer["cli.process_ms"] = cli_process_ms() * scale
        layer["trace.overhead"] = tally.wall / reference["wall_s"] - 1
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(str(OUT_DIR / f"spans-{opts.workload}-{opts.seed}.jsonl"))
        metrics = metric_block(layer, PER_LAYER_UNITS)
    else:
        # a failed operation misses every latency limit
        ordered = sorted(math.inf if failed else t for t, failed in zip(tally.latencies, tally.failures))
        e2e = {
            "ops_per_s": n / tally.wall,
            "op_p50_ms": 1000 * nearest_rank(ordered, 50),
            "op_p95_ms": 1000 * nearest_rank(ordered, 95),
            "ok_frac": c["ok_frac"],
            "peak_rss_mb": peak_rss_mb,
            "out_weight": c["out_weight"],
            "setup_s": statistics.median(setups),
        }
        metrics = metric_block(e2e, END_TO_END_UNITS)
        summary = {"digest": digest, "wall_s": tally.wall, "counts": c, "setup_samples": setups}
        print("summary " + json.dumps(summary, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    for err in errors[:20]:
        print(f"ERROR {err}")
    if errors:
        print(f"{len(errors)} errors", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": n, "failed": tally.failed, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
