"""Reference searches for unitsum.oracle.

reference_dfs is the depth-first search min_weight_bruteforce ran for
weights up to 4 when it still filled an out-parameter.
reference_meet_in_middle is the search it ran before the windowed walk:
for every split of the weight it lists every signed subset of each slot
half, keeps the first first-half subset per sum, and returns at the first
second-half subset that meets one.  Each half's sums are listed once
per (half, size), only as far as a search has read them, and kept for
later weights and calls.  The differential tests check that
min_weight_bruteforce finds the same weight and the same terms.
"""

import functools
import itertools
from array import array

from unitsum.oracle import _Budget, default_box


def reference_dfs(target, slots, idx, left, chosen, budget):
    """True when a signed left-subset of slots[idx:] sums to target, its
    terms left in chosen: depth-first, + before -."""
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
            if reference_dfs(target - s * m, slots, k + 1, left - 1, chosen, budget):
                return True
            chosen.pop()
    return False


@functools.lru_cache(maxsize=None)
def _listing(half, size):
    """The signed size-subsets of half, in the order of combinations(half,
    size) times product((1, -1), repeat=size): an array of the sums
    listed so far (each must fit in 64 bits) and an iterator over the
    combinations not yet listed.  Entry n is _signed_subset(half, size, n)."""
    return array("q"), itertools.combinations(half, size)


def _sums_until(half, size, wanted=frozenset()):
    """(sums, n): the sums of _listing(half, size), listed up to n, the
    index of the first sum in wanted, or to the end and n = None."""
    sums, combos = _listing(half, size)
    n = next(itertools.compress(itertools.count(), map(wanted.__contains__, sums)), None)
    if n is not None:
        return sums, n
    for combo in combos:
        # the pairs (m, -m) give the signs in product((1, -1)) order
        block = list(map(sum, itertools.product(*((m, -m) for m, _, _ in combo))))
        sums.fromlist(block)
        if not wanted.isdisjoint(block):
            return sums, len(sums) - len(block) + next(k for k, s in enumerate(block) if s in wanted)
    return sums, None


def _signed_subset(half, size, n):
    """The terms of entry n of _listing(half, size)."""
    combo = next(itertools.islice(itertools.combinations(half, size), n >> size, None))
    signs = next(itertools.islice(itertools.product((1, -1), repeat=size), n % (1 << size), None))
    return [(sg, i, j) for sg, (_, i, j) in zip(signs, combo)]


def reference_meet_in_middle(target, slots, t):
    """Terms of the first signed t-subset of slots summing to target, or
    None; returns (terms, ta) with ta the number of first-half terms."""
    half = len(slots) // 2
    first, second = tuple(slots[:half]), tuple(slots[half:])
    for ta in range(max(0, t - len(second)), min(t, len(first)) + 1):
        tb = t - ta
        sums, _ = _sums_until(first, ta)
        # {sum: index of its first subset}: walked backwards, so that the
        # first subset is the last one written
        table = dict(zip(reversed(sums), range(len(sums) - 1, -1, -1)))
        sums, n = _sums_until(second, tb, {target - s for s in table})
        if n is not None:
            k = table[target - sums[n]]
            return _signed_subset(first, ta, k) + _signed_subset(second, tb, n), ta
    return None


def reference_min_weight(v, base, max_weight, exp_box=None):
    """(weight, terms, ta) of the lightest expansion of v in the box, or
    None; ta is None when the depth-first passes found it."""
    i_max, j_max = exp_box if exp_box is not None else default_box(v, base)
    slots = [
        (base.p ** i * base.q ** j, i, j)
        for i in range(i_max + 1)
        for j in range(j_max + 1)
    ]
    slots.sort(key=lambda s: (-s[0], s[1], s[2]))
    budget = _Budget(10**12)
    for t in range(max_weight + 1):
        if t == 0:
            if v == 0:
                return 0, (), None
        elif t <= 4:
            chosen = []
            if reference_dfs(v, slots, 0, t, chosen, budget):
                return t, tuple(chosen), None
        else:
            found = reference_meet_in_middle(v, slots, t)
            if found is not None:
                terms, ta = found
                return t, tuple(terms), ta
    return None
