"""Reference firing loop for the round kernel behind unitsum.engine.reduce.

This is the heap loop reduce ran before the round kernel: it always fires
the lexicographically smallest saturated site (k, l, x), c // n times at
once.  Its heap keys are the index tuples themselves rather than the
packed integers of the original, whose numeric order was the same
lexicographic order, and it has no gap split, which gave identical
results.  The differential tests compare reduce against it, and against
shuffled_reduce, which fires in a random order.
"""

import heapq

from unitsum import IterationCapExceeded


def _normalized(coeffs: dict) -> dict:
    # Opposite sign layers at the same (l, x) cancel exactly; written
    # apart from reduce, which cancels on its own map before it fires.
    out = dict(coeffs)
    for key in [key for key in out if key[0] == 0]:
        _, ell, x = key
        mate = (1, ell, x)
        a = out.get(key, 0)
        b = out.get(mate, 0)
        if a and b:
            c = min(a, b)
            if a > c:
                out[key] = a - c
            else:
                out.pop(key, None)
            if b > c:
                out[mate] = b - c
            else:
                out.pop(mate, None)
    return out


def heap_reduce(rep, rel, max_steps=1_000_000):
    """Stabilize rep under rel in lexicographic order.

    Returns (coefficients, steps, odometer); the odometer maps each index
    to the number of rewrites made there.
    """
    n, K = rel.n, rep.basis.K
    coeffs = _normalized(dict(rep.coeffs))
    heap = [key for key, c in coeffs.items() if c >= n]
    heapq.heapify(heap)
    steps = 0
    odometer = {}
    while heap:
        key = heapq.heappop(heap)
        c = coeffs.get(key, 0)
        if c < n:
            continue
        t = c // n
        if c - n * t:
            coeffs[key] = c - n * t
        else:
            del coeffs[key]
        steps += t
        if steps > max_steps:
            raise IterationCapExceeded(f"reduction exceeded {max_steps} replacement steps")
        for nk in _fire(coeffs, odometer, key, t, rel, K):
            heapq.heappush(heap, nk)
    return coeffs, steps, odometer


def shuffled_reduce(rep, rel, rnd):
    """Stabilize rep under rel, each time firing a randomly chosen
    saturated site a random number of times between 1 and c // n.

    Returns (coefficients, steps, odometer) like heap_reduce.
    """
    n, K = rel.n, rep.basis.K
    coeffs = _normalized(dict(rep.coeffs))
    steps = 0
    odometer = {}
    while True:
        hot = sorted(key for key, c in coeffs.items() if c >= n)
        if not hot:
            return coeffs, steps, odometer
        key = rnd.choice(hot)
        t = rnd.randint(1, coeffs[key] // n)
        coeffs[key] -= n * t
        if not coeffs[key]:
            del coeffs[key]
        steps += t
        _fire(coeffs, odometer, key, t, rel, K)


def _fire(coeffs, odometer, key, t, rel, K):
    """Credit the relation's terms for t rewrites already debited at key;
    returns the sites this pushed from below n to n or above."""
    n = rel.n
    odometer[key] = odometer.get(key, 0) + t
    k, ell, x = key
    crossed = []
    for ki, r in rel.terms:
        nk = ((k + ki) % K, ell, tuple(a + b for a, b in zip(x, r)))
        old = coeffs.get(nk, 0)
        coeffs[nk] = old + t
        if old < n <= old + t:
            crossed.append(nk)
    return crossed
