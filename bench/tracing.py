"""Spans around the library's layer boundaries, recorded from outside.

The traced run wraps module-level functions of unitsum and re-binds
every name under which another unitsum module imported them, so child
spans nest under their callers.  Spans stay in memory until the run ends.
A span is (name, start, end, parent span index or -1, operation id or -1
for set-up work).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Tuple

# (module, function) pairs that mark a layer boundary.
BOUNDARIES = (
    ("relations", "find_plain_relation"),
    ("relations", "find_extended_relation"),
    ("relations", "find_obstruction"),
    ("double_base", "expand_with_stats"),
    ("double_base", "expand_extended"),
    ("double_base", "p_adic_digits"),
    ("double_base", "greedy_seed"),
    ("double_base", "_claim_reduce"),
    ("double_base", "evaluate_expansion"),
    ("double_base", "expansion_to_json"),
    ("double_base", "expansion_from_json"),
    ("engine", "reduce"),
    ("engine", "evaluate"),
    ("engine", "monotone_quantity"),
    ("cubic", "represent_unit_sums"),
    ("cubic", "unit_monomial"),
    ("cubic", "cubic_basis"),
    ("cubic", "three_relation"),
    ("cubic", "real_roots"),
    ("oracle", "min_weight_bruteforce"),
    ("cli", "main"),
)

# Per-layer self time, in ms per timed operation.
SELF_MS = {
    "engine.reduce_ms": ("engine.reduce",),
    "engine.evaluate_ms": ("engine.evaluate",),
    "engine.monotone_ms": ("engine.monotone_quantity",),
    "cubic.seed_ms": ("cubic.represent_unit_sums",),
    "cubic.unit_monomial_ms": ("cubic.unit_monomial",),
    "cubic.real_roots_ms": ("cubic.real_roots",),
    "double_base.expand_ms": ("double_base.expand_with_stats", "double_base.expand_extended"),
    "double_base.padic_seed_ms": ("double_base.p_adic_digits",),
    "double_base.greedy_seed_ms": ("double_base.greedy_seed",),
    "double_base.reduce_ms": ("double_base._claim_reduce",),
    "double_base.evaluate_ms": ("double_base.evaluate_expansion",),
    "double_base.serialize_ms": ("double_base.expansion_to_json",),
    "double_base.parse_ms": ("double_base.expansion_from_json",),
    "relations.plain_ms": ("relations.find_plain_relation",),
    "relations.extended_ms": ("relations.find_extended_relation",),
    "relations.obstruct_ms": ("relations.find_obstruction",),
    "oracle.min_weight_ms": ("oracle.min_weight_bruteforce",),
    "cli.main_ms": ("cli.main",),
}

Span = Tuple[str, float, float, int, int]


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self.op = -1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def install(self, lib) -> None:
        """Wrap every boundary, wherever a unitsum module holds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "unitsum" or n.startswith("unitsum.")]
        for mod_name, attr in BOUNDARIES:
            original = getattr(getattr(lib, mod_name), attr)
            traced = self.wrap(f"{mod_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, traced)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def layer_metrics(spans: List[Span], n_ops: int) -> Dict[str, float]:
    """Self times per layer (ms per timed operation), call counts, the
    share of expand time spent in relation search, and the cold cubic
    basis time (ms over the whole run, set-up included)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    relation_in_expand = expand_total = basis_total = 0.0
    for idx, (name, start, end, parent, op) in enumerate(spans):
        dur = end - start
        if name in ("cubic.cubic_basis", "cubic.three_relation"):
            basis_total += dur
        if op < 0:
            continue
        self_s[name] += dur - covered[idx]
        calls[name] += 1
        if name == "double_base.expand_with_stats":
            expand_total += dur
        elif name.startswith("relations.find_") and parent >= 0 and spans[parent][0] == "double_base.expand_with_stats":
            relation_in_expand += dur
    out = {}
    for metric, names in SELF_MS.items():
        out[metric] = 1000 * sum(self_s[n] for n in names) / max(n_ops, 1)
    out["cubic.basis_ms"] = 1000 * basis_total
    out["relations.calls"] = calls["relations.find_plain_relation"] + calls["relations.find_extended_relation"]
    out["relations.share"] = relation_in_expand / expand_total if expand_total else 0.0
    out["oracle.calls"] = calls["oracle.min_weight_bruteforce"]
    return out
