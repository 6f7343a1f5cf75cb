"""Brute-force ground truth at desk scale.

min_weight_bruteforce finds a provably minimal-weight expansion inside a
declared exponent box by iterative deepening; sweep_verify runs the
expansion pipeline over a range and independently rechecks every
property the converter promises.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .double_base import (
    BasePair,
    SignedExpansion,
    evaluate_expansion,
    expand_with_stats,
    p_adic_digits,
    weight,
)
from .errors import BudgetExceeded, VerificationFailed, exact_int


NODE_BUDGET = 20_000_000  # min_weight_bruteforce's default node budget


@dataclass(frozen=True)
class WeightWitness:
    """A minimal expansion, no strictly lighter one in the box; weight is its term count."""

    weight: int = field(init=False)
    expansion: SignedExpansion

    def __post_init__(self):
        object.__setattr__(self, "weight", len(self.expansion.terms))


def default_box(v: int, base: BasePair) -> Tuple[int, int]:
    """Exponent box (I_max, J_max) sized a little past |v| in each base b:
    2 more than the least e with b^e >= |v|, which is the number of
    base-b digits of |v| - 1 (0 for v = 0)."""
    v = max(abs(exact_int(v, "value")) - 1, 0)
    return tuple(len(p_adic_digits(v, b)) + 2 for b in (base.p, base.q))


class _Budget:
    __slots__ = ("left",)

    def __init__(self, nodes: int):
        self.left = nodes

    def spend(self, amount: int = 1):
        self.left -= amount
        if self.left < 0:
            raise BudgetExceeded("brute-force node budget exhausted")


def _dfs(target: int, slots, t: int, budget: _Budget, keys) -> Optional[List[Tuple[int, int, int]]]:
    """Terms of the first signed t-subset of slots summing to target,
    depth-first with + before -, or None.

    keys holds the slots' negated magnitudes, ascending.  Levels with
    three or more terms left loop over their slot and recurse; the level
    with two left is one loop that looks the last term up by bisect_left
    in keys.  A node is one slot tried at one depth, and at the last depth
    each slot a slot-by-slot scan would try (the larger ones and a hit).
    The outer levels hand their counts down and each two-term loop
    charges them with its own in one spend, so the nodes spent and the
    witness are the scan's, and BudgetExceeded comes at the same weight,
    at most one loop later.  The terms are built once, from the hit's
    (sign, index) pairs.
    """
    n = len(keys)
    if t == 0:
        return [] if target == 0 else None
    if t == 1:
        key = -abs(target)
        k = bisect_left(keys, key)
        hit = k < n and keys[k] == key
        budget.spend(k + hit)
        return [(1 if target > 0 else -1, *slots[k][1:])] if hit else None
    mags = [-key for key in keys]
    path = []  # (sign, index) pairs of the hit, innermost first

    def search(target, idx, left, nodes):
        """Nodes counted but not yet charged after a miss, None at a hit."""
        reach = abs(target)
        if left == 2:
            # only the first term's sign that matches the target's needs a
            # lookup: it leaves |reach - m|, while the other sign leaves
            # reach + m, more than any later slot, so its lookup would
            # count no node and hit nothing (at reach = 0 both leave m,
            # and + comes first)
            s = 1 if target >= 0 else -1
            for k in range(idx, n - 1):
                m = mags[k]
                # slots are sorted by decreasing magnitude, so once even
                # two copies of this magnitude cannot reach the target, no
                # later slot can either
                if reach > 2 * m:
                    break
                key = -abs(reach - m)
                j = bisect_left(keys, key, k + 1)
                if j < n and keys[j] == key:
                    budget.spend(nodes + j - k + 1)
                    path.extend(((s if reach > m else -s, j), (s, k)))
                    return None
                nodes += j - k
            budget.spend(nodes)
            return 0
        for k in range(idx, n - left + 1):
            m = mags[k]
            if reach > left * m:
                break
            nodes += 1
            for s in (1, -1):
                nodes = search(target - s * m, k + 1, left - 1, nodes)
                if nodes is None:
                    path.append((s, k))
                    return None
        return nodes

    nodes = search(target, 0, t, 0)
    if nodes is not None:
        budget.spend(nodes)
        return None
    return [(s, *slots[k][1:]) for s, k in reversed(path)]


def _windowed_subsets(slots, k: int, lo: int, hi: int, budget: _Budget, visit):
    """Visit the signed k-subsets of slots (by decreasing magnitude) whose
    sum lies in [lo, hi]; returns the first result of visit that is not
    None, or None.

    visit(partials, chosen) gets the (sum, signs) pairs of one choice of
    slots; the pairs of all calls come in the order of
    combinations(slots, k) times product((1, -1), repeat=k).  A prefix
    whose sum cannot reach the window with the next magnitudes is
    dropped, which never reorders the rest.  Each signed prefix sum
    formed costs one budget node.
    """
    top = list(itertools.accumulate((m for m, _, _ in slots), initial=0))

    def walk(start, left, partials, chosen):
        if left == 0:
            return visit(partials, chosen)
        # how far the prefix sum closest to the window is off it
        gap = min(max(lo - s, s - hi) for s, _ in partials)
        for idx in range(start, len(slots) - left + 1):
            m = slots[idx][0]
            # slots only get smaller, so once left copies of m cannot
            # close the gap no later slot can either
            if left * m < gap:
                return None
            budget.spend(2 * len(partials))
            # the most the other left - 1 terms can add or take away
            rest = top[idx + left] - top[idx + 1]
            lo_x, hi_x = lo - rest, hi + rest
            nxt = []
            for s, signs in partials:
                u = s + m
                if lo_x <= u <= hi_x:
                    nxt.append((u, signs + (1,)))
                u = s - m
                if lo_x <= u <= hi_x:
                    nxt.append((u, signs + (-1,)))
            if nxt:
                found = walk(idx + 1, left - 1, nxt, chosen + (slots[idx],))
                if found is not None:
                    return found
        return None

    return walk(0, k, [(0, ())] if k or lo <= 0 <= hi else [], ())


def _meet_in_middle(target: int, slots, t: int, budget: _Budget) -> Optional[List[Tuple[int, int, int]]]:
    half = len(slots) // 2
    first, second = slots[:half], slots[half:]
    table = {}

    def keep(partials, chosen):
        for s, signs in partials:
            if s not in table:
                table[s] = (signs, chosen)

    def probe(partials, chosen):
        for s, signs in partials:
            hit = table.get(target - s)
            if hit is not None:
                pairs = zip(hit[0] + signs, hit[1] + chosen)
                return [(sg, i, j) for sg, (_, i, j) in pairs]
        return None

    for ta in range(max(0, t - len(second)), min(t, len(first)) + 1):
        tb = t - ta
        # a second-half sum of tb terms is no larger than the tb largest
        # second-half magnitudes, so only first-half sums this close to
        # the target can ever meet one
        reach = sum(m for m, _, _ in second[:tb])
        table.clear()
        _windowed_subsets(first, ta, target - reach, target + reach, budget, keep)
        if not table:
            continue
        terms = _windowed_subsets(second, tb, target - max(table), target - min(table), budget, probe)
        if terms is not None:
            return terms
    return None


def min_weight_bruteforce(
    v: int,
    base: BasePair,
    max_weight: int,
    exp_box: Optional[Tuple[int, int]] = None,
    node_budget: int = NODE_BUDGET,
) -> Optional[WeightWitness]:
    """Lightest expansion of v using exponents i <= I_max, j <= J_max.

    Iterative deepening over the weight makes the first hit minimal
    within the box.  Direct search handles weights up to 4, and looks its
    last term up by bisection in the slots' negated magnitudes, a list
    built once per call; beyond that the subset sums of two slot halves
    meet in the middle, each half walked only where its sums can still
    reach the target.  Returns None when no expansion of weight <=
    max_weight fits in the box; raises BudgetExceeded when the node
    budget runs out first.  One budget node is one slot tried at one
    depth of the direct search (at the last depth, each slot a scan
    would try), or one signed partial sum formed in the
    meet-in-the-middle walk.  The direct search charges a loop's nodes
    when the loop ends, so BudgetExceeded comes at the weight a charge
    per node would give, at most one loop later.  A box with more slots
    p^i q^j than the budget has nodes raises before its table is built.
    """
    v, max_weight = exact_int(v, "value"), exact_int(max_weight, "max_weight")
    node_budget = exact_int(node_budget, "node_budget")
    i_max, j_max = exp_box if exp_box is not None else default_box(v, base)
    i_max, j_max = exact_int(i_max, "I_max"), exact_int(j_max, "J_max")
    count = max(i_max + 1, 0) * max(j_max + 1, 0)
    if count > node_budget:
        raise BudgetExceeded(f"a table of {count} slots exceeds the node budget of {node_budget}")
    slots = [
        (base.p ** i * base.q ** j, i, j)
        for i in range(i_max + 1)
        for j in range(j_max + 1)
    ]
    # coprime bases of at least 2 give distinct magnitudes p^i q^j
    # (unique factorization), so sorting by magnitude alone fixes the order
    slots.sort(reverse=True)
    keys = [-m for m, _, _ in slots]
    budget = _Budget(node_budget)
    for t in range(max_weight + 1):
        if t <= 4:
            terms = _dfs(v, slots, t, budget, keys)
        else:
            terms = _meet_in_middle(v, slots, t, budget)
        if terms is not None:
            expansion = SignedExpansion(base, terms)
            if evaluate_expansion(expansion) != v:
                raise VerificationFailed(f"oracle witness for {v} does not evaluate back")
            return WeightWitness(expansion)
    return None


def sweep_verify(lo: int, hi: int, base: BasePair) -> Tuple[tuple, ...]:
    """Expand every v in [lo, hi] and recheck all promised properties;
    returns one row (v, w_init, steps, weight) per value, the columns
    bench-steps prints.

    For each value: digits lie in {-1,1} at distinct exponent pairs (the
    expansion type enforces this on construction), the expansion
    evaluates back to v exactly, and the rewrite count stays within
    (w^2 - w) / 2 for w the seeded digit sum.  The first failure aborts
    with the offending v in the error message.
    """
    lo, hi = exact_int(lo, "lo"), exact_int(hi, "hi")
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
        rows.append((v, stats.w_init, stats.steps, weight(exp)))
    return tuple(rows)
