"""Seeded inputs for the four workloads, and the operations the benchmark times.

Inputs come only from the seed (and, for the number of rounds, from the
run length).  Operations call the library through its submodules, looked
up at call time, so that a traced run can wrap module attributes without
touching the library's source.

Each workload is a closed loop: one caller, one operation at a time, the
next call made when the previous one returns.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("db-bigint", "cubic-units", "sweep-small", "certify")

# Wall seconds one round of each workload takes on the reference machine
# (2-core Xeon, Python 3.11.7).  A run does round(seconds / ROUND_SECONDS)
# rounds and at least one, so the work of a run is fixed by the seed and
# --seconds, never by how fast the program happens to be.
ROUND_SECONDS = {
    "db-bigint": 0.75,
    "cubic-units": 18.0,
    "sweep-small": 0.045,
    "certify": 21.0,
}

DB_BASES = ((5, 23), (11, 13), (5, 7))
SWEEP_BASE = (5, 23)
RATIONAL_BASE = (5, 11)
ORACLE_BASE = (5, 23)
ORACLE_MAX_WEIGHT = 8
OBSTRUCTION_PAIRS = ((5, 11), (7, 13), (7, 11), (5, 23))
LARGE_A = (1000, -1000)

# Cheap CLI calls: (argv, stdin text or None, expected exit code).
_VALID_DOC = '{"kind": "signed", "p": "5", "q": "23", "value": "2", "terms": [{"d": 1, "i": "2", "j": "0"}, {"d": -1, "i": "0", "j": "1"}]}'
_WRONG_DOC = _VALID_DOC.replace('"value": "2"', '"value": "3"')
CLI_CALLS = (
    (("expand", "--p", "5", "--q", "23", "1000003"), None, 0),
    (("expand", "--p", "5", "--q", "23", "--format", "json", "-987654321"), None, 0),
    (("expand-extended", "--p", "5", "--q", "11", "7/55"), None, 0),
    (("find-relation", "--p", "5", "--q", "23", "--format", "json"), None, 0),
    (("find-relation", "--p", "7", "--q", "11"), None, 2),
    (("verify", "-"), _VALID_DOC, 0),
    (("verify", "-"), _WRONG_DOC, 5),
    (("cubic-repr", "--a", "3", "12", "-7", "5"), None, 0),
    (("cubic-repr", "--a", "0", "--format", "json", "30", "20", "-10"), None, 0),
)


@dataclass(frozen=True)
class Op:
    """One timed call.  expect names the exception classes the operation
    is known to raise today; any other exception is a benchmark error."""

    kind: str
    args: tuple
    expect: Tuple[str, ...] = ()


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}")


def _signed_bits(rng: random.Random, bits: int) -> int:
    v = rng.getrandbits(bits) | (1 << (bits - 1))
    return v if rng.random() < 0.5 else -v


def _db_round(rng: random.Random) -> List[Op]:
    # many small values, a few large ones; the 16384-bit values pass the
    # interpreter's 4300-digit int->str limit, so their JSON step raises
    plan = [(256, "padic", 24), (256, "greedy", 2), (1024, "padic", 9), (4096, "padic", 4), (16384, "padic", 1)]
    ops = []
    turn = rng.randrange(len(DB_BASES))
    for bits, method, count in plan:
        expect = ("ValueError",) if bits == 16384 else ()
        for _ in range(count):
            p, q = DB_BASES[turn % len(DB_BASES)]
            turn += 1
            ops.append(Op("db", (_signed_bits(rng, bits), p, q, method), expect))
    rng.shuffle(ops)
    return ops


def _cubic_band(rng: random.Random, lo: int, hi: int, count: int, n_large: int, expect=()) -> List[Op]:
    # Element k draws its three coordinate sizes from the k-th of count
    # equal strata of lo..hi, so a band costs the same from seed to seed;
    # the step count of an element depends only on its coordinate sizes.
    ops = []
    for k in range(count):
        a = LARGE_A[k % len(LARGE_A)] if k < n_large else k % 11
        coords = [rng.choice((1, -1)) * (lo + int((k + rng.random()) * (hi - lo + 1) / count)) for _ in range(3)]
        if not any(coords):
            coords[0] = max(lo, 1)
        ops.append(Op("cubic", (a, *coords), expect))
    return ops


def _cubic_round(rng: random.Random) -> List[Op]:
    ops = (
        _cubic_band(rng, 0, 100, 200, 10)
        + _cubic_band(rng, 270, 300, 40, 2)
        + _cubic_band(rng, 900, 1000, 12, 1)
        + _cubic_band(rng, 2700, 3000, 2, 0)
        # the steps of a coordinate of size c grow like c^2; past about
        # 5400 one coordinate alone exceeds the default 1 M step cap
        + _cubic_band(rng, 9000, 10000, 1, 0, expect=("IterationCapExceeded",))
    )
    # Evaluation fills unit_monomial's cache per parameter a, so an
    # element's cost depends on which elements with its a ran before it.
    # The parameters and the order are therefore the same for every seed.
    order = list(range(len(ops)))
    random.Random("cubic-units/order").shuffle(order)
    return [ops[i] for i in order]


def _coprime_pairs(rng: random.Random, count: int) -> List[Tuple[int, int]]:
    pairs = [(p, q) for p in range(2, 100) for q in range(p + 1, 100) if gcd(p, q) == 1]
    return rng.sample(pairs, count)


def _sweep_rounds(rng: random.Random, rounds: int) -> List[List[Op]]:
    # a narrow range of starts: the mean base-5 digit sum of a window of
    # consecutive integers depends on its leading digits
    start = rng.randrange(500_000, 502_000)
    pairs = _coprime_pairs(rng, 50)
    out: List[List[Op]] = []
    nxt = start
    rel_turn = cli_turn = 0
    for _ in range(rounds):
        rnd = []
        for _ in range(80):
            rnd.append(Op("int", (nxt,)))
            nxt += 1
        for _ in range(8):
            n = rng.randint(1, 10_000) * rng.choice((1, -1))
            rnd.append(Op("rational", (n, rng.randrange(4), rng.randrange(3))))
        for _ in range(6):
            kind = "plain" if rel_turn % 2 == 0 else "extended"
            rnd.append(Op(kind, pairs[(rel_turn // 2) % len(pairs)]))
            rel_turn += 1
        for _ in range(6):
            rnd.append(Op("cli", (cli_turn % len(CLI_CALLS),)))
            cli_turn += 1
        rng.shuffle(rnd)
        out.append(rnd)
    return out


def _certify_round(rng: random.Random, fresh_a: set) -> List[Op]:
    # Every magnitude 1..300 once, with alternating signs, for every seed;
    # the seed sets their order.  The oracle's cost is heavy-tailed (two
    # values take about 4 s, most take 1 ms), so a random sample made the
    # run length depend on the seed, and the search order depends on the
    # sign of v, so seeded signs moved the median latency.
    ops = [Op("oracle", (m if m % 2 else -m,)) for m in range(1, 301)]
    ops += [Op("obstruct", pair) for pair in OBSTRUCTION_PAIRS]
    # real_roots costs time linear in |a|: one fresh a per band, signs fixed
    for (lo, hi), sign in zip(((1000, 2000), (3000, 6000), (10_000, 15_000), (25_000, 30_000)), (1, -1, 1, -1)):
        a = sign * rng.randint(lo, hi)
        while a in fresh_a:
            a += sign
        fresh_a.add(a)
        ops.append(Op("roots", (a,)))
    for _ in range(4):
        a = rng.randrange(11)
        coords = tuple(rng.choice((1, -1)) * rng.randint(1, 50) for _ in range(3))
        ops.append(Op("monotone", (a, *coords)))
    rng.shuffle(ops)
    return ops


def timed_rounds(workload: str, seed: int, rounds: int) -> List[List[Op]]:
    """The timed operations, in rounds; outputs are checked between rounds."""
    rng = _rng(workload, seed, "timed")
    if workload == "sweep-small":
        return _sweep_rounds(rng, rounds)
    fresh_a: set = set()
    if workload == "db-bigint":
        return [_db_round(rng) for _ in range(rounds)]
    if workload == "cubic-units":
        return [_cubic_round(rng) for _ in range(rounds)]
    if workload == "certify":
        return [_certify_round(rng, fresh_a) for _ in range(rounds)]
    raise ValueError(f"unknown workload {workload!r}")


def smoke_ops(workload: str, seed: int) -> List[Op]:
    """A few operations of every kind, expected failures included; for
    checking the benchmark itself, not for measuring."""
    rng = _rng(workload, seed, "smoke")
    # at most one expected failure in 21 operations keeps op_p95_ms finite
    if workload == "db-bigint":
        return (
            [Op("db", (_signed_bits(rng, 256), *DB_BASES[k % 3], "padic")) for k in range(16)]
            + [Op("db", (_signed_bits(rng, 128), *DB_BASES[k], "greedy")) for k in range(2)]
            + [Op("db", (_signed_bits(rng, 1024), *DB_BASES[k], "padic")) for k in range(2)]
            + [Op("db", (_signed_bits(rng, 16384), 5, 23, "padic"), ("ValueError",))]
        )
    if workload == "cubic-units":
        return (
            _cubic_band(rng, 0, 100, 20, 2)
            + _cubic_band(rng, 270, 300, 1, 0)
            + _cubic_band(rng, 9000, 10000, 1, 0, expect=("IterationCapExceeded",))
        )
    if workload == "sweep-small":
        start = rng.randrange(500_000, 600_000)
        pairs = _coprime_pairs(rng, 2)
        return (
            [Op("int", (v,)) for v in range(start, start + 10)]
            + [Op("rational", (rng.randint(1, 10_000), 2, 1)), Op("rational", (-rng.randint(1, 10_000), 0, 2))]
            + [Op(kind, pair) for pair in pairs for kind in ("plain", "extended")]
            + [Op("cli", (k,)) for k in range(len(CLI_CALLS))]
        )
    if workload == "certify":
        return (
            [Op("oracle", (v,)) for v in (-7, 13, 57)]
            + [Op("obstruct", pair) for pair in OBSTRUCTION_PAIRS]
            + [Op("roots", (1000 + rng.randrange(100),)), Op("monotone", (3, 5, -4, 2))]
        )
    raise ValueError(f"unknown workload {workload!r}")


def warmup_ops(workload: str, seed: int, timed: List[List[Op]]) -> List[Op]:
    """Cheap operations on inputs disjoint from the timed ones; they fill
    the library's caches the timed operations rely on."""
    rng = _rng(workload, seed, "warmup")
    taken = {op.args for rnd in timed for op in rnd}
    ops: List[Op] = []

    def add(op: Op) -> None:
        if op.args not in taken:
            ops.append(op)

    if workload == "db-bigint":
        for p, q in DB_BASES:
            add(Op("db", (_signed_bits(rng, 64), p, q, "padic")))
            add(Op("db", (_signed_bits(rng, 32), p, q, "greedy")))
    elif workload == "cubic-units":
        for a in list(range(11)) + list(LARGE_A):
            add(Op("cubic", (a, rng.randint(1, 9), -rng.randint(1, 9), rng.randint(1, 9))))
    elif workload == "sweep-small":
        for v in range(1000, 1020):
            add(Op("int", (v,)))
        add(Op("rational", (7, 1, 1)))
        add(Op("plain", (101, 103)))
        add(Op("extended", (101, 103)))
        add(Op("cli", (0,)))
    elif workload == "certify":
        add(Op("oracle", (0,)))
        add(Op("obstruct", (3, 7)))
        add(Op("roots", (-7,)))
    return ops


@dataclass
class Hooks:
    """Per-batch counting through the public on_step hooks; used only in
    the traced run, where batches counts the batches of the current op."""

    traced: bool = False
    batches: int = 0

    def on_step(self, _site, _multiplicity) -> None:
        self.batches += 1

    def step_hook(self):
        return self.on_step if self.traced else None

    def policy(self, engine):
        return engine.ReductionPolicy(on_step=self.on_step) if self.traced else None


class Library:
    """The unitsum submodules, imported once the source path is set."""

    def __init__(self):
        import unitsum
        from unitsum import cli, cubic, double_base, engine, oracle, relations

        self.package = unitsum
        self.cli = cli
        self.cubic = cubic
        self.double_base = double_base
        self.engine = engine
        self.oracle = oracle
        self.relations = relations


def prepare(lib: Library, ops: List[Op]) -> Dict[tuple, object]:
    """Inputs that are themselves library objects: the cubic unit sums
    whose monotone quantity certify times."""
    context: Dict[tuple, object] = {}
    cubic = lib.cubic
    for op in ops:
        if op.kind == "monotone" and op.args not in context:
            a, c0, c1, c2 = op.args
            beta = cubic.CubicElement(cubic.CubicParams(a), c0, c1, c2)
            context[op.args] = cubic.represent_unit_sums(beta)
    return context


def run_op(lib: Library, hooks: Hooks, context: Dict[tuple, object], op: Op):
    """Run one operation and return what it produced."""
    kind, args = op.kind, op.args
    db = lib.double_base
    if kind == "db":
        v, p, q, method = args
        stats = db.expand_with_stats(v, db.BasePair(p, q), seed_method=method, on_step=hooks.step_hook())
        doc = db.expansion_to_json(stats.expansion)
        back, claimed = db.expansion_from_json(json.loads(json.dumps(doc)))
        return (stats, back, claimed)
    if kind == "cubic":
        a, c0, c1, c2 = args
        cubic, engine = lib.cubic, lib.engine
        params = cubic.CubicParams(a)
        rep = cubic.represent_unit_sums(cubic.CubicElement(params, c0, c1, c2), hooks.policy(engine))
        back = engine.evaluate(rep, cubic.cubic_evaluator(params))
        return (rep, back)
    if kind == "int":
        stats = db.expand_with_stats(args[0], db.BasePair(*SWEEP_BASE), on_step=hooks.step_hook())
        return (stats, db.expansion_to_json(stats.expansion))
    if kind == "rational":
        n, ap, aq = args
        base = db.BasePair(*RATIONAL_BASE)
        x = db.pq_rational(Fraction(n, base.p ** ap * base.q ** aq), base)
        return db.expand_extended(x, base, on_step=hooks.step_hook())
    if kind == "plain":
        return lib.relations.find_plain_relation(db.BasePair(*args))
    if kind == "extended":
        return lib.relations.find_extended_relation(db.BasePair(*args))
    if kind == "cli":
        argv, stdin, _ = CLI_CALLS[args[0]]
        out, err = io.StringIO(), io.StringIO()
        saved_stdin = sys.stdin
        sys.stdin = io.StringIO(stdin or "")
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = lib.cli.main(list(argv))
        finally:
            sys.stdin = saved_stdin
        return (code, out.getvalue())
    if kind == "oracle":
        base = db.BasePair(*ORACLE_BASE)
        witness = lib.oracle.min_weight_bruteforce(args[0], base, max_weight=ORACLE_MAX_WEIGHT)
        return (witness, db.expand(args[0], base))
    if kind == "obstruct":
        return lib.relations.find_obstruction(db.BasePair(*args))
    if kind == "roots":
        return lib.cubic.real_roots(lib.cubic.CubicParams(args[0]), 128)
    if kind == "monotone":
        return lib.engine.monotone_quantity(context[args], 128)
    raise ValueError(f"unknown operation kind {kind!r}")


def out_weight(op: Op, out) -> Optional[int]:
    """Output weight of a completed operation: term count for an
    expansion, coefficient sum for a unit sum, None when it has none."""
    if op.kind in ("db", "int"):
        return len(out[0].expansion.terms)
    if op.kind == "rational":
        return len(out.terms)
    if op.kind == "cubic":
        return sum(a for _, a in out[0].items())
    if op.kind == "oracle":
        return len(out[1].terms)
    return None
