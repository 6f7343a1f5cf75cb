"""Replacement-step machinery for unit-sum representations.

A representation stores sparse nonnegative coefficients indexed by
(sign layer k, generator index l, exponent vector x); its value is
sum a * zeta^k * eta_l * eps^x, computed exactly by whichever ring
instantiates the basis.  The central rewrite replaces n copies of a
unit with the I units of a fixed relation, and `reduce` iterates that
rewrite until every coefficient is below n.  Its kernel fires in passes,
each over a flat list on a box around the input or, for sites far apart
or after a run nears that box's faces, over a dict.  For the cubic piles
it keeps one count per orbit of a symmetry group of order 6.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, repeat
from math import isqrt, lcm, prod
from operator import add, getitem, mul, not_, sub
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Tuple

from .errors import BasisMismatch, IterationCapExceeded, TargetTooSmall, exact_int

Interval = Tuple[Fraction, Fraction]
Index = Tuple[int, int, Tuple[int, ...]]


@dataclass(frozen=True)
class UnitGroupBasis:
    """Ambient data for representations.

    The sign group is {1, -1}: zeta = -1, so K, the number of sign
    layers, is the constant 2.  etas and epsilons carry the generator and
    unit values of the instantiating ring; abs_val holds one hook per
    epsilon mapping a bit count to a certified (lo, hi) Fraction
    enclosure of |eps_m|.  Bases compare and hash by etas and epsilons.
    """

    K = 2

    etas: tuple
    epsilons: tuple
    abs_val: tuple = field(compare=False)

    def __post_init__(self):
        if not self.etas or not self.epsilons:
            raise ValueError("basis needs at least one eta and one epsilon")
        if len(self.abs_val) != len(self.epsilons):
            raise ValueError("one abs_val hook per epsilon required")

    @property
    def L(self) -> int:
        return len(self.etas)

    @property
    def M(self) -> int:
        return len(self.epsilons)


@dataclass(frozen=True)
class UnitRelation:
    """A verified identity n = sum_i zeta^{k_i} eps^{r_i}.

    terms lists (k_i, r_i) pairs of integers; the instantiating module is
    responsible for checking that the sum really equals n in its ring.
    """

    n: int
    terms: Tuple[Tuple[int, Tuple[int, ...]], ...]

    def __post_init__(self):
        terms = tuple(
            (exact_int(k, "sign layer"), tuple(exact_int(c, "exponent") for c in r))
            for k, r in self.terms
        )
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "n", exact_int(self.n, "right-hand side", 2))
        if not (self.n >= self.I >= 2):
            raise ValueError("term count must lie in [2, n]")
        if all(k == 0 and not any(r) for k, r in terms):
            raise ValueError("the all-ones relation is not allowed")
        if len({len(r) for _, r in terms}) != 1:
            raise ValueError("terms must share one exponent dimension")

    @property
    def I(self) -> int:
        return len(self.terms)

    @property
    def r_max(self) -> int:
        """Largest absolute exponent entry; bounds support drift per step."""
        return max(abs(c) for _, r in self.terms for c in r)


def _exact_index(key, basis: UnitGroupBasis) -> Index:
    """key as an index (k, l, x) of basis: a triple of integers (see
    errors.exact_int) and M exponents, with 0 <= k < K and 1 <= l <= L."""
    try:
        k, ell, x = key
        x = tuple(x)
    except (TypeError, ValueError):
        x = None
    else:
        x = tuple(exact_int(c, "exponent") for c in x)
        k, ell = exact_int(k, "sign layer"), exact_int(ell, "generator")
    if x is None or not (0 <= k < basis.K and 1 <= ell <= basis.L and len(x) == basis.M):
        raise ValueError(f"index {key!r} does not fit the basis")
    return (k, ell, x)


class Representation:
    """Sparse nonnegative coefficient map over a basis.

    Indices and coefficients are integers (see errors.exact_int); zero
    coefficients are never stored.  steps is an integer bookkeeping counter
    carried along by the rewrite operations; it does not take part in
    equality.
    """

    __slots__ = ("basis", "_coeffs", "steps")

    def __init__(self, basis: UnitGroupBasis, coeffs: Optional[Mapping] = None, steps: int = 0):
        self.basis = basis
        clean = {}
        for key, a in (coeffs or {}).items():
            key, a = _exact_index(key, basis), exact_int(a, "coefficient", 0)
            if a:
                clean[key] = a
        self._coeffs = clean
        self.steps = exact_int(steps, "steps")

    @property
    def coeffs(self):
        return MappingProxyType(self._coeffs)

    def items(self):
        return self._coeffs.items()

    def __len__(self) -> int:
        return len(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Representation):
            return NotImplemented
        return self.basis == other.basis and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.basis, frozenset(self._coeffs.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}:{v}" for k, v in sorted(self._coeffs.items()))
        return f"Representation({{{body}}}, steps={self.steps})"


def _representation(basis: UnitGroupBasis, coeffs: dict, steps: int) -> Representation:
    """Representation around a map that already fits the basis: int
    indices in range and positive int coefficients, without the per-key
    checks of __init__.  reduce passes its kernel's map through here."""
    rep = object.__new__(Representation)
    rep.basis, rep._coeffs, rep.steps = basis, coeffs, steps
    return rep


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the theoretical step-count recurrences; every field is
    an integer (see errors.exact_int), r at least 0 and the others at
    least 1."""

    M: int
    K: int
    L: int
    r: int
    w: int

    def __post_init__(self):
        for name, least in (("M", 1), ("K", 1), ("L", 1), ("r", 0), ("w", 1)):
            object.__setattr__(self, name, exact_int(getattr(self, name), name, least))


@dataclass(frozen=True)
class ReductionPolicy:
    """Tuning for reduce.

    max_steps, an integer (see errors.exact_int; nan, inf and 2.5 raise
    ValueError), caps the total rewrite count.  The cap is checked after
    each firing, and one firing at a site holding c performs c // n
    rewrites at once, so the count may overshoot the cap by at most one
    firing before the error fires; under _stabilize's fold, a firing of
    t at a representative stands for its whole orbit and counts t times
    the orbit's size.  on_step, when
    given, receives (index, multiplicity) once per firing.  The order of
    the calls is unspecified; the per-site sums of the multiplicities,
    the number of rewrites made at each site, do not depend on it.
    """

    max_steps: int = 1_000_000
    on_step: Optional[Callable[[Index, int], None]] = None

    def __post_init__(self):
        object.__setattr__(self, "max_steps", exact_int(self.max_steps, "max_steps"))


def total_weight(rep: Representation) -> int:
    """Sum of all stored coefficients."""
    return sum(rep._coeffs.values())


def _check_relation(basis: UnitGroupBasis, rel: UnitRelation) -> None:
    for k, r in rel.terms:
        if not (0 <= k < basis.K) or len(r) != basis.M:
            raise BasisMismatch("relation terms do not fit the basis")


def replacement_step(rep: Representation, rel: UnitRelation, target) -> Representation:
    """Apply one rewrite at target: coefficient drops by n, each relation
    term gains 1 at its shifted index.  Value is preserved exactly; total
    weight changes by I - n."""
    _check_relation(rep.basis, rel)
    k, ell, x = target = _exact_index(target, rep.basis)
    have = rep._coeffs.get(target, 0)
    if have < rel.n:
        raise TargetTooSmall(f"coefficient {have} at {target} is below n = {rel.n}")
    out = dict(rep._coeffs)
    if have == rel.n:
        del out[target]
    else:
        out[target] = have - rel.n
    K = rep.basis.K
    for ki, r in rel.terms:
        nk = ((k + ki) % K, ell, tuple(a + b for a, b in zip(x, r)))
        out[nk] = out.get(nk, 0) + 1
    return Representation(rep.basis, out, steps=rep.steps + 1)


def monotone_quantity(rep: Representation, precision_bits: int = 64) -> Interval:
    """Certified enclosure of sum a * prod |eps_m|^(2 x_m).

    Exact (zero-width) whenever the abs_val hooks return point intervals,
    as they do for integer bases.  Strictly increases under every rewrite
    drawn from a valid relation.

    Each side is summed over one denominator.  For each coordinate m, the
    ends of |eps_m|'s enclosure are raised once to each exponent 2 x_m
    that the sites use, and those powers are put over their lcm.  The
    sites' coefficients are then multiplied by those integer numerators
    one coordinate at a time, from the last, summing the sites that
    share the rest of x, and one Fraction per side divides by the product
    of the lcms.  So a site costs integer products and no gcd.
    """
    precision_bits = exact_int(precision_bits, "precision_bits", 0)
    basis = rep.basis
    abs_ivs = [basis.abs_val[m](precision_bits) for m in range(basis.M)]
    for lo, hi in abs_ivs:
        if lo <= 0:
            raise ValueError("abs_val hooks must certify positivity")
    weights = defaultdict(int)
    for (_, _, x), a in rep._coeffs.items():
        weights[x] += a
    ends = []
    for side in (0, 1):
        # fold the coordinates in from the last, so that a prefix of x
        # costs one product however many sites share it
        sums, den = weights, 1
        for m in reversed(range(basis.M)):
            powers = {e: _power_ratio(abs_ivs[m], side, 2 * e) for e in {x[-1] for x in sums}}
            common = lcm(*(d for _, d in powers.values()))
            numerators = {e: n * (common // d) for e, (n, d) in powers.items()}
            folded = defaultdict(int)
            for x, total in sums.items():
                folded[x[:-1]] += total * numerators[x[-1]]
            sums, den = folded, den * common
        ends.append(Fraction(sums[()], den))
    return tuple(ends)


def _power_ratio(iv, side: int, e: int) -> Tuple[int, int]:
    """(numerator, denominator) of the side (0 low, 1 high) bound of
    |eps|^e, for iv a positive enclosure of |eps|."""
    if e >= 0:
        end = iv[side]
        return end.numerator ** e, end.denominator ** e
    # 1 / hi^-e bounds a negative power from below, 1 / lo^-e from above
    end = iv[1 - side]
    return end.denominator ** -e, end.numerator ** -e


def evaluate(rep: Representation, evaluator):
    """Exact value of the representation.

    evaluator(items) receives the whole coefficient map as ((k, ell, x), a)
    pairs, in no particular order, and must return the exact value of
    sum a * zeta^k * eta_ell * eps^x.  The empty representation evaluates
    to the int 0 without calling it.
    """
    return evaluator(rep.items()) if rep else 0


def bounds_f_T(params: BoundParams):
    """Exact values (f(w), T(w)) of the theoretical recurrences.

    f(1) = 0 and T(1) = K*L; for larger w,
    T(w) = (w + 2(w-1) f(w-1))^(M w) * K^w * L^w and
    f(w) = T(w) r + f(w-1).  Documentary only; reduce never consults these
    (they explode well before w = 10).
    """
    f = 0
    T = params.K * params.L
    for w in range(2, params.w + 1):
        T = (w + 2 * (w - 1) * f) ** (params.M * w) * params.K ** w * params.L ** w
        f = T * params.r + f
    return (f, T)


def reduce(rep: Representation, rel: UnitRelation, policy: Optional[ReductionPolicy] = None) -> Representation:
    """Rewrite until every coefficient lies in [1, n-1].

    Opposite sign layers at the same (l, x) cancel first, here, to their
    difference on the larger side, so the kernel gets at most one layer
    per (l, x).  Firing is done in rounds: each round fires every site
    whose coefficient has reached n, c // n times at once.  Stabilization
    is abelian, so the final state, the total step count and the number
    of rewrites made at each site do not depend on the firing order;
    they match one-at-a-time targeting in any order.  The output carries the total rewrite count
    in .steps.  Raises IterationCapExceeded, with no partial result, if
    policy.max_steps is hit.

    The output is not checked again: every key comes either from the
    validated input or from the kernel's _Box (an int layer inside K*L,
    a tuple of M ints), through the sites that fired and their targets,
    and every count it keeps is a positive int.
    """
    policy = policy or ReductionPolicy()
    _check_relation(rep.basis, rel)
    coeffs = {}
    for key, a in rep._coeffs.items():
        mate = (1 - key[0], key[1], key[2])
        b = coeffs.pop(mate, 0)
        if a != b:
            coeffs[key if a > b else mate] = abs(a - b)
    out, steps = _stabilize(coeffs, rep.basis, rel, policy.max_steps, policy.on_step)
    if out is None:
        raise _cap_exceeded(policy.max_steps)
    return _representation(rep.basis, out, steps)


# The list storage is used while the first box has at most _DENSE_CELLS
# cells per input chip and site, chips counted up to _CHIP_CEILING: that
# bounds the first list at about 8 MB, however heavy the input
_DENSE_CELLS = 64
_CHIP_CEILING = 1 << 14


class _Box:
    """Packing of the sites (k, l, x) with lo <= x <= hi componentwise
    into the ints layer + K*L * sum (x_m - lo_m) * stride_m, with layer =
    k*L + l - 1 and stride_m the product of the widths below m."""

    def __init__(self, basis: UnitGroupBasis, rel: UnitRelation, lo, hi):
        K, L = basis.K, basis.L
        KL = K * L
        self.lo, self.KL = lo, KL
        self.widths = [b - a + 1 for a, b in zip(lo, hi)]
        self.spans = list(zip(lo, self.widths))
        self.heads = [(layer // L, layer % L + 1) for layer in range(KL)]
        self.scales = [KL * prod(self.widths[:m]) for m in range(basis.M)]
        self.cells = KL * prod(self.widths)
        self.origin = -self.shift(lo)
        shifts = [(ki, self.shift(r)) for ki, r in rel.terms]
        self.offsets = [
            [((layer // L + ki) % K) * L + layer % L - layer + s for ki, s in shifts] for layer in range(KL)
        ]

    def shift(self, x) -> int:
        return sum(map(mul, x, self.scales))

    def unpack(self, site: int) -> Index:
        q, layer = divmod(site, self.KL)
        x = []
        for lo, w in self.spans:
            q, c = divmod(q, w)
            x.append(c + lo)
        k, ell = self.heads[layer]
        return (k, ell, tuple(x))

    def packed(self, heads, cols) -> list:
        """The sites of the (k, l, x) with k*L + l in heads and x given by
        their coordinate columns cols, packed a column at a time."""
        base = self.origin - 1
        sites = [head + base for head in heads]
        for col, s in zip(cols, self.scales):
            sites = [site + c * s for site, c in zip(sites, col)]
        return sites

    def unpacked(self, sites: list) -> list:
        """[unpack(site) for site in sites], computed column by column."""
        KL, (*inner, (lo, _)) = self.KL, self.spans
        q = [site // KL for site in sites]
        cols = []
        for lo_m, w in inner:
            cols.append([c % w + lo_m for c in q])
            q = [c // w for c in q]
        cols.append([c + lo for c in q])
        heads = map(self.heads.__getitem__, [site % KL for site in sites])
        return [(k, ell, x) for (k, ell), x in zip(heads, zip(*cols))]

    def edge(self, r: int) -> bytes:
        """One byte per site: 1 when some x_m lies within r of a face."""
        row = bytes(self.KL)
        for w in self.widths:
            full = b"\x01" * len(row)
            row = full * r + row * (w - 2 * r) + full * r if w > 2 * r else full * w
        return row


# a continued pile fires mostly representatives that fired in the runs
# before it, so each one's gains are worked out once: S(5531), the
# largest pile under the default cap, holds 606 representatives, and an
# entry takes about 0.65 KB (tracemalloc), so at most about 0.7 MB
@functools.lru_cache(maxsize=1 << 10)
def _gains(fold, shifts: tuple, x: tuple, r_max: int) -> tuple:
    """(s, ((z - x, g), ...)) for a representative x of an orbit of size
    s under fold: a firing of t at x sends g t chips to each
    representative z, g being the number of pairs (x', r) with x' in x's
    orbit, r in shifts and x' + r = z.  Each target x + r stands for
    s / s_z of those pairs, s_z being the size of z's orbit, so g sums
    s / s_z over the targets that z represents.  A representative
    outside 0 <= z <= max(x) + r_max, which may leave the kernel's box,
    raises ValueError."""
    size = fold(x)[1]
    top = max(x) + r_max
    pairs = {}  # (z, s_z) -> s times the targets z represents
    for shift in shifts:
        y = tuple(map(add, x, shift))
        z, s = fold(y)
        if min(z) < 0 or max(z) > top:
            raise ValueError(f"fold sent {y} to {z}, outside the kernel's box")
        pairs[z, s] = pairs.get((z, s), 0) + size
    return size, tuple((tuple(map(sub, z, x)), g // s) for (z, s), g in pairs.items())


class _Offsets(dict):
    """The orbit size and offsets of each site that fires, keyed by the
    site and filled as it first fires, so the keys are exactly the sites
    that fired.  A site gets 1 and its layer's offsets, except under
    _stabilize's fold, where a representative gets its orbit's size and
    the offset of each representative it sends chips to (see _gains),
    listed once per chip that a firing of 1 sends there."""

    def __init__(self, box: _Box, rel: UnitRelation, fold):
        self.box, self.fold, self.r_max = box, fold, rel.r_max
        self.shifts = tuple(x for _, x in rel.terms)

    def __missing__(self, site: int) -> tuple:
        box, fold = self.box, self.fold
        if fold is None:
            entry = self[site] = (1, box.offsets[site % box.KL])
            return entry
        size, gains = _gains(fold, self.shifts, box.unpack(site)[2], self.r_max)
        offsets = []
        for delta, g in gains:
            offsets += [box.shift(delta)] * g
        entry = self[site] = (size, offsets)
        return entry


def _cap_exceeded(cap: int) -> IterationCapExceeded:
    # raised by reduce and by cubic.represent_unit_sums, in their own frames
    return IterationCapExceeded(f"reduction exceeded {cap} replacement steps")


def _stabilize(coeffs: dict, basis: UnitGroupBasis, rel: UnitRelation, cap: int, on_step=None, fold=None):
    """Round kernel behind reduce and cubic.represent_unit_sums; returns
    (stable coefficients, steps) for a map that fits the basis and holds
    at most one sign layer at each (l, x), as reduce leaves it.  cap and
    on_step are a ReductionPolicy's; the firing that passes cap returns
    (None, steps), and each caller raises the cap's error in its own frame.

    Sites are packed into ints over a box (see _Box).  The run goes in
    passes, each of which packs its input map a coordinate column at a
    time, fires and reads back.  The first box is the input's hull
    widened by r_max * (isqrt(w) // 2 + 2) for the input weight w (at
    most _CHIP_CEILING).  If it has at most _DENSE_CELLS * (w + number
    of sites) cells, the first pass keeps the counts in a flat list over
    it and ends before any round in which a site about to fire lies
    within r_max of one of its faces, so every target of a firing lies
    inside it.  Otherwise, as for sites 10^9 apart, and after a list
    pass ends so, a pass keeps them in a dict over a box that exceeds
    the input's hull by r_max * (cap + 1) on every side, and no box
    cell is allocated.  A site d hops from the input takes d firings of
    at least one step each, and the run returns before the firing that
    passes cap moves any chips, so no site leaves that box.

    Firing a site adds, for each relation term, an int offset looked up
    in an _Offsets table by the site.  A site joins the next round when
    a firing pushes it from below n to n or above, so a round lists each
    site at most once and every listed site holds at least n when it
    fires.

    The table's keys are the sites that fired and its values the offsets
    of their own targets, so in either storage a pass reads back a copy
    of its input map updated at the cells that could have changed, by
    one rule: those keys and their targets take their counts, and those
    that ended empty leave.  No step walks the box and only those cells
    are unpacked, through _Box.unpacked.  Firing is abelian (see reduce),
    so the dict's pass goes on from the list's map with the sites holding
    at least n, exactly those the next round would fire, and the steps,
    the budget's end and on_step's per-site sums are one unbroken run's.

    fold, when given, sends an exponent vector to (y, s): the
    representative y of its orbit under a finite group of linear maps
    that permutes rel's terms, which lie on sign layer 0, and the
    orbit's size s.  Representatives lie in x >= 0, and the
    representative of a target of a representative exceeds that site's
    largest exponent by r_max at most.  coeffs then holds one count per
    orbit, on sign layer 0 at its representative, and the result is the
    stable state of the invariant input, given the same way, with its
    full step count.  on_step must be None.  The tests prove this
    contract once for cubic's _fold and _THREE, the one fold and
    relation that come here; it is not checked here.

    That run is unique, so it stays invariant: every site of an orbit
    fires as often as its representative, and only representatives
    fire.  A firing of t at a representative of an orbit of size s
    counts s t steps, and the table (see _Offsets) sends its chips to
    the representatives of its targets, so the count is exact after
    every firing and the budget is passed exactly where the plain run's is.
    The box is one square from -r_max up to the input's largest
    exponent and the reach.  Representatives lie in x >= 0, so none is
    within r_max of its lower faces, and a site r_max inside its upper
    faces keeps the representatives of its targets inside it too.
    """
    if not coeffs:
        return {}, 0
    n, L, r = rel.n, basis.L, rel.r_max
    chips = min(sum(coeffs.values()), _CHIP_CEILING)
    ks, ells, xs = zip(*coeffs)
    cols = list(zip(*xs))
    lo, hi = list(map(min, cols)), list(map(max, cols))

    def around(reach):
        if fold is not None:
            # one square box from -r; see the docstring
            return _Box(basis, rel, [-r] * len(lo), [max(hi) + reach] * len(hi))
        return _Box(basis, rel, [a - reach for a in lo], [b + reach for b in hi])

    box = around(r * (isqrt(chips) // 2 + 2))
    dense = box.cells <= _DENSE_CELLS * (chips + len(coeffs))
    steps = 0
    while True:
        if not dense:
            box = around(r * (max(cap, 0) + 1))
        sites = box.packed([k * L + ell for k, ell in zip(ks, ells)], cols)
        ready = [site for site, c in zip(sites, coeffs.values()) if c >= n]
        if dense:
            state = [0] * box.cells
            for site, c in zip(sites, coeffs.values()):
                state[site] = c
            edge = box.edge(r)
        else:
            state = defaultdict(int, zip(sites, coeffs.values()))
        offsets = _Offsets(box, rel, fold)
        # each distinct site is unpacked once a pass, however often it fires
        seen = {}
        while ready:
            # the list's pass ends when a firing could leave its box;
            # getitem reads bytes twice as fast as their bound __getitem__
            if dense and any(map(getitem, repeat(edge), ready)):
                break
            following = []
            for site in ready:
                c = state[site]
                t = c // n
                state[site] = c - n * t
                size, ds = offsets[site]
                steps += size * t
                if steps > cap:
                    return None, steps
                if on_step is not None:
                    index = seen.get(site)
                    if index is None:
                        index = seen[site] = box.unpack(site)
                    on_step(index, t)
                for d in ds:
                    nk = site + d
                    old = state[nk]
                    state[nk] = new = old + t
                    if old < n <= new:
                        following.append(nk)
            ready = following
        # no cell other than a fired site or a target of one changed; the
        # table holds each fired site's own targets, which lie in the box,
        # as the edge test passed, and every site that ended empty fired
        sites = list({site + d for site, (_, ds) in offsets.items() for d in ds}.union(offsets))
        counts = [state[site] for site in sites]
        keys = box.unpacked(sites)
        out = coeffs.copy()
        out.update(zip(keys, counts))
        for key in compress(keys, map(not_, counts)):
            del out[key]
        if not ready:
            return out, steps
        # a spill: the run goes on from this round's state in the dict
        coeffs, dense = out, False
        ks, ells, xs = zip(*coeffs)
        cols = list(zip(*xs))
