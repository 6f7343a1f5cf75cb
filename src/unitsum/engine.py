"""Replacement-step machinery for unit-sum representations.

A representation stores sparse nonnegative coefficients indexed by
(sign layer k, generator index l, exponent vector x); its value is
sum a * zeta^k * eta_l * eps^x, computed exactly by whichever ring
instantiates the basis.  The central rewrite replaces n copies of a
unit with the I units of a fixed relation, and `reduce` iterates that
rewrite until every coefficient is below n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
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
        object.__setattr__(self, "n", exact_int(self.n, "right-hand side"))
        if self.n < 2:
            raise ValueError("right-hand side must be at least 2")
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
        return max(abs(c) for _, r in self.terms for c in r) if self.terms else 0


def _exact_index(key) -> Index:
    k, ell, x = key
    x = tuple(exact_int(c, "exponent") for c in x)
    return (exact_int(k, "sign layer"), exact_int(ell, "generator"), x)


class Representation:
    """Sparse nonnegative coefficient map over a basis.

    Indices and coefficients are integers (see errors.exact_int); zero
    coefficients are never stored.  steps is a bookkeeping counter
    carried along by the rewrite operations; it does not take part in
    equality.
    """

    __slots__ = ("basis", "_coeffs", "steps", "_bbox")

    def __init__(self, basis: UnitGroupBasis, coeffs: Optional[Mapping] = None, steps: int = 0):
        self.basis = basis
        K, L, M = basis.K, basis.L, basis.M
        clean = {}
        for key, a in (coeffs or {}).items():
            k, ell, x = key
            if not (type(k) is int and type(ell) is int and type(a) is int
                    and type(x) is tuple and all(type(c) is int for c in x)):
                (k, ell, x), a = _exact_index(key), exact_int(a, "coefficient")
            if not (0 <= k < K and 1 <= ell <= L and len(x) == M):
                raise ValueError(f"index {key!r} does not fit the basis")
            if a < 0:
                raise ValueError("coefficients must be nonnegative")
            if a:
                clean[(k, ell, x)] = a
        self._coeffs = clean
        self.steps = int(steps)
        self._bbox = None

    @property
    def coeffs(self):
        return MappingProxyType(self._coeffs)

    def items(self):
        return self._coeffs.items()

    def __len__(self) -> int:
        return len(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    @property
    def bbox(self):
        """Componentwise exponent hull as ((lo, hi), ...); None when empty."""
        if not self._coeffs:
            return None
        if self._bbox is None:
            M = self.basis.M
            cols = [[x[m] for _, _, x in self._coeffs] for m in range(M)]
            self._bbox = tuple((min(col), max(col)) for col in cols)
        return self._bbox

    def __eq__(self, other) -> bool:
        if not isinstance(other, Representation):
            return NotImplemented
        return self.basis == other.basis and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.basis, frozenset(self._coeffs.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}:{v}" for k, v in sorted(self._coeffs.items()))
        return f"Representation({{{body}}}, steps={self.steps})"


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the theoretical step-count recurrences."""

    M: int
    K: int
    L: int
    r: int
    w: int

    def __post_init__(self):
        if min(self.M, self.K, self.L, self.w) < 1 or self.r < 0:
            raise ValueError("require M, K, L, w >= 1 and r >= 0")


@dataclass(frozen=True)
class ReductionPolicy:
    """Tuning for reduce.

    max_steps caps the total rewrite count.  The cap is checked after
    each firing, and one firing at a site holding c performs c // n
    rewrites at once, so the count may overshoot the cap by at most one
    firing before the error fires.  on_step, when given, receives
    (index, multiplicity) once per firing.  The order of the calls is
    unspecified; the per-site sums of the multiplicities, the number of
    rewrites made at each site, do not depend on it.
    """

    max_steps: int = 1_000_000
    on_step: Optional[Callable[[Index, int], None]] = None


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
    k, ell, x = target = _exact_index(target)
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
    """
    basis = rep.basis
    abs_ivs = [basis.abs_val[m](precision_bits) for m in range(basis.M)]
    for lo, hi in abs_ivs:
        if lo <= 0:
            raise ValueError("abs_val hooks must certify positivity")
    cache = {}

    def coord_pow(m: int, e: int) -> Interval:
        got = cache.get((m, e))
        if got is None:
            lo, hi = abs_ivs[m]
            if e >= 0:
                got = (lo ** e, hi ** e)
            else:
                got = (1 / hi ** (-e), 1 / lo ** (-e))
            cache[(m, e)] = got
        return got

    lo_total = Fraction(0)
    hi_total = Fraction(0)
    for (k, ell, x), a in rep._coeffs.items():
        flo = Fraction(1)
        fhi = Fraction(1)
        for m, e in enumerate(x):
            plo, phi = coord_pow(m, 2 * e)
            flo *= plo
            fhi *= phi
        lo_total += a * flo
        hi_total += a * fhi
    return (lo_total, hi_total)


def evaluate(rep: Representation, evaluator):
    """Exact value of the representation.

    evaluator(k, ell, x) must return the ring element zeta^k * eta_ell *
    eps^x; terms are accumulated in sorted index order.  The empty
    representation evaluates to 0.
    """
    total = None
    for key in sorted(rep._coeffs):
        k, ell, x = key
        term = evaluator(k, ell, x) * rep._coeffs[key]
        total = term if total is None else total + term
    return 0 if total is None else total


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

    Opposite sign layers at the same (l, x) cancel first.  Firing is done
    in rounds: each round fires every site whose coefficient has reached
    n, c // n times at once.  Stabilization is abelian, so the final
    state, the total step count and the number of rewrites made at each
    site do not depend on the firing order; they match one-at-a-time
    targeting in any order.  The output carries the total rewrite count
    in .steps.  Raises IterationCapExceeded, with no partial result, if
    policy.max_steps is hit.
    """
    policy = policy or ReductionPolicy()
    _check_relation(rep.basis, rel)
    out, steps = _stabilize(rep._coeffs, rep.basis, rel, policy)
    return Representation(rep.basis, out, steps=steps)


def _stabilize(coeffs: dict, basis: UnitGroupBasis, rel: UnitRelation, policy: ReductionPolicy):
    """Round kernel behind reduce; returns (stable coefficients, steps).

    Sites are flat tuples (layer, x_1, ..., x_M) with layer = k*L + l - 1;
    as they are built, the two sign layers at one (l, x) cancel to their
    difference on the larger side.  Firing a site adds, for each relation
    term, an offset precomputed per layer that moves the layer to the
    term's sign layer and shifts x by the term's exponent vector.  A site
    joins the next round when a firing pushes it from below n to n or
    above, so a round lists each site at most once and every listed site
    holds at least n when it fires.
    """
    n = rel.n
    K, L = basis.K, basis.L
    offsets = [
        [(((layer // L + ki) % K) * L + layer % L - layer, *r) for ki, r in rel.terms]
        for layer in range(K * L)
    ]
    # two exponents (every basis in this package) get the new site spelled
    # out: with tuple(map(...)) alone, cubic-units ran 32 % fewer ops/s
    pair = basis.M == 2
    state = {}
    for (k, ell, x), a in coeffs.items():
        site, mate = (k * L + ell - 1, *x), ((1 - k) * L + ell - 1, *x)
        b = state.pop(mate, 0)
        if a != b:
            state[site if a > b else mate] = abs(a - b)
    ready = [site for site, c in state.items() if c >= n]
    max_steps = policy.max_steps
    on_step = policy.on_step
    steps = 0
    while ready:
        following = []
        for site in ready:
            c = state[site]
            t = c // n
            rem = c - n * t
            if rem:
                state[site] = rem
            else:
                del state[site]
            steps += t
            if steps > max_steps:
                raise IterationCapExceeded(f"reduction exceeded {max_steps} replacement steps")
            layer = site[0]
            if on_step is not None:
                on_step((layer // L, layer % L + 1, site[1:]), t)
            if pair:
                _, x0, x1 = site
            for d in offsets[layer]:
                nk = (layer + d[0], x0 + d[1], x1 + d[2]) if pair else tuple(map(add, site, d))
                old = state.get(nk, 0)
                state[nk] = old + t
                if old < n <= old + t:
                    following.append(nk)
        ready = following
    return {(site[0] // L, site[0] % L + 1, site[1:]): a for site, a in state.items()}, steps
