"""Reference searches for unitsum.oracle.

reference_dfs is the depth-first search min_weight_bruteforce ran for
weights up to 4 when it still filled an out-parameter.
reference_meet_in_middle is the search it ran before the windowed walk:
for every split of the weight it lists every signed subset of each slot
half, keeps the first first-half subset per sum, and returns at the first
second-half subset that meets one.  The differential tests check that
min_weight_bruteforce finds the same weight and the same terms.
"""

import itertools

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


def reference_meet_in_middle(target, slots, t, budget):
    """Terms of the first signed t-subset of slots summing to target, or
    None; returns (terms, ta) with ta the number of first-half terms."""
    half = len(slots) // 2
    first, second = slots[:half], slots[half:]
    for ta in range(max(0, t - len(second)), min(t, len(first)) + 1):
        tb = t - ta
        table = {}
        for combo in itertools.combinations(range(len(first)), ta):
            for signs in itertools.product((1, -1), repeat=ta):
                budget.spend()
                s = sum(sg * first[k][0] for sg, k in zip(signs, combo))
                if s not in table:
                    table[s] = [(sg, first[k][1], first[k][2]) for sg, k in zip(signs, combo)]
        for combo in itertools.combinations(range(len(second)), tb):
            for signs in itertools.product((1, -1), repeat=tb):
                budget.spend()
                s = sum(sg * second[k][0] for sg, k in zip(signs, combo))
                hit = table.get(target - s)
                if hit is not None:
                    return hit + [
                        (sg, second[k][1], second[k][2]) for sg, k in zip(signs, combo)
                    ], ta
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
            found = reference_meet_in_middle(v, slots, t, budget)
            if found is not None:
                terms, ta = found
                return t, tuple(terms), ta
    return None
