"""Brute-force ground truth at desk scale.

min_weight_bruteforce finds a provably minimal-weight expansion inside a
declared exponent box by iterative deepening; sweep_verify runs the
expansion pipeline over a range and independently rechecks every
property the converter promises.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .double_base import (
    BasePair,
    SignedExpansion,
    evaluate_expansion,
    expand_with_stats,
    weight,
)
from .errors import BudgetExceeded, VerificationFailed


@dataclass(frozen=True)
class WeightWitness:
    """A minimal expansion: no strictly lighter one exists in the box."""

    weight: int
    expansion: SignedExpansion


def _ceil_log(v: int, b: int) -> int:
    e = 0
    t = 1
    while t < v:
        t *= b
        e += 1
    return e


def default_box(v: int, base: BasePair) -> Tuple[int, int]:
    """Exponent box (I_max, J_max) sized a little past |v| in each base."""
    v = abs(v)
    if v < 2:
        return (2, 2)
    return (_ceil_log(v, base.p) + 2, _ceil_log(v, base.q) + 2)


class _Budget:
    __slots__ = ("left",)

    def __init__(self, nodes: int):
        self.left = nodes

    def spend(self, amount: int = 1):
        self.left -= amount
        if self.left < 0:
            raise BudgetExceeded("brute-force node budget exhausted")


def _dfs(target: int, slots, idx: int, left: int, chosen: list, budget: _Budget) -> bool:
    if left == 0:
        return target == 0
    for k in range(idx, len(slots) - left + 1):
        m, i, j = slots[k]
        # slots are sorted by decreasing magnitude, so once even `left`
        # copies of the current magnitude cannot reach the target, no
        # later slot can either
        if abs(target) > left * m:
            return False
        budget.spend()
        for s in (1, -1):
            chosen.append((s, i, j))
            if _dfs(target - s * m, slots, k + 1, left - 1, chosen, budget):
                return True
            chosen.pop()
    return False


def _windowed_subsets(slots, k: int, lo: int, hi: int, budget: _Budget):
    """Signed k-subsets of slots (by decreasing magnitude) whose sum lies
    in [lo, hi].

    Yields (sum, signs, chosen slots) in the order of
    combinations(slots, k) times product((1, -1), repeat=k).  A prefix
    whose sum cannot reach the window with the next magnitudes is
    dropped, which never reorders the rest.  Each signed prefix sum
    formed costs one budget node.
    """
    top = list(itertools.accumulate((m for m, _, _ in slots), initial=0))

    def walk(start, left, partials, chosen):
        if left == 0:
            for s, signs in partials:
                yield s, signs, chosen
            return
        # how far the prefix sum closest to the window is off it
        gap = min(max(lo - s, s - hi) for s, _ in partials)
        for idx in range(start, len(slots) - left + 1):
            m = slots[idx][0]
            # slots only get smaller, so once left copies of m cannot
            # close the gap no later slot can either
            if left * m < gap:
                return
            budget.spend(2 * len(partials))
            # the most the other left - 1 terms can add or take away
            rest = top[idx + left] - top[idx + 1]
            lo_x, hi_x = lo - rest, hi + rest
            nxt = []
            for s, signs in partials:
                if lo_x <= s + m <= hi_x:
                    nxt.append((s + m, signs + (1,)))
                if lo_x <= s - m <= hi_x:
                    nxt.append((s - m, signs + (-1,)))
            if nxt:
                yield from walk(idx + 1, left - 1, nxt, chosen + (slots[idx],))

    return walk(0, k, [(0, ())] if k or lo <= 0 <= hi else [], ())


def _meet_in_middle(target: int, slots, t: int, budget: _Budget) -> Optional[List[Tuple[int, int, int]]]:
    half = len(slots) // 2
    first, second = slots[:half], slots[half:]
    for ta in range(max(0, t - len(second)), min(t, len(first)) + 1):
        tb = t - ta
        # a second-half sum of tb terms is no larger than the tb largest
        # second-half magnitudes, so only first-half sums this close to
        # the target can ever meet one
        reach = sum(m for m, _, _ in second[:tb])
        table = {}
        for s, signs, chosen in _windowed_subsets(
            first, ta, target - reach, target + reach, budget
        ):
            if s not in table:
                table[s] = (signs, chosen)
        if not table:
            continue
        for s, signs, chosen in _windowed_subsets(
            second, tb, target - max(table), target - min(table), budget
        ):
            hit = table.get(target - s)
            if hit is not None:
                pairs = zip(hit[0] + signs, hit[1] + chosen)
                return [(sg, i, j) for sg, (_, i, j) in pairs]
    return None


def min_weight_bruteforce(
    v: int,
    base: BasePair,
    max_weight: int,
    exp_box: Optional[Tuple[int, int]] = None,
    node_budget: int = 20_000_000,
) -> Optional[WeightWitness]:
    """Lightest expansion of v using exponents i <= I_max, j <= J_max.

    Iterative deepening over the weight makes the first hit minimal
    within the box.  Direct search handles weights up to 4; beyond that
    the subset sums of two slot halves meet in the middle, each half
    walked only where its sums can still reach the target.  Returns None
    when no expansion of weight <= max_weight fits in the box; raises
    BudgetExceeded when the node budget runs out first.  One budget node
    is one slot tried at one depth of the direct search, or one signed
    partial sum formed in the meet-in-the-middle walk.
    """
    i_max, j_max = exp_box if exp_box is not None else default_box(v, base)
    slots = [
        (base.p ** i * base.q ** j, i, j)
        for i in range(i_max + 1)
        for j in range(j_max + 1)
    ]
    slots.sort(key=lambda s: (-s[0], s[1], s[2]))
    budget = _Budget(node_budget)
    for t in range(max_weight + 1):
        terms: Optional[List[Tuple[int, int, int]]]
        if t == 0:
            terms = [] if v == 0 else None
        elif t <= 4:
            chosen: list = []
            terms = chosen if _dfs(v, slots, 0, t, chosen, budget) else None
        else:
            terms = _meet_in_middle(v, slots, t, budget)
        if terms is not None:
            expansion = SignedExpansion(base, terms)
            if evaluate_expansion(expansion) != v:
                raise VerificationFailed(f"oracle witness for {v} does not evaluate back")
            return WeightWitness(t, expansion)
    return None


def sweep_verify(
    lo: int,
    hi: int,
    base: BasePair,
    oracle_max_weight: Optional[int] = None,
) -> Tuple[tuple, ...]:
    """Expand every v in [lo, hi] and recheck all promised properties;
    returns one row (v, status, weight, oracle weight, steps, w_init) per
    value.

    For each value: digits lie in {-1,1} at distinct exponent pairs (the
    expansion type enforces this on construction), the expansion
    evaluates back to v exactly, and the rewrite count stays within
    (w^2 - w) / 2 for w the seeded digit sum.  With oracle_max_weight
    set, the brute-force witness is computed as well and must not beat
    the converter silently: witness weight <= converter weight and the
    witness must evaluate to v.  The first failure aborts with the
    offending v in the error message.
    """
    rows = []
    for v in range(lo, hi + 1):
        stats = expand_with_stats(v, base)
        exp = stats.expansion
        if evaluate_expansion(exp) != v:
            raise VerificationFailed(f"round trip failed at v = {v}")
        bound = (stats.w_init * stats.w_init - stats.w_init) // 2
        if stats.steps > bound:
            raise VerificationFailed(
                f"step count {stats.steps} exceeds bound {bound} at v = {v}"
            )
        w_oracle: object = ""
        if oracle_max_weight is not None:
            witness = min_weight_bruteforce(v, base, oracle_max_weight)
            if witness is None:
                raise VerificationFailed(f"oracle found no expansion for v = {v}")
            if witness.weight > weight(exp):
                raise VerificationFailed(
                    f"oracle witness heavier than converter output at v = {v}"
                )
            w_oracle = witness.weight
        rows.append((v, "ok", weight(exp), w_oracle, stats.steps, stats.w_init))
    return tuple(rows)
