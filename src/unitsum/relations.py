"""Base-pair relations with right-hand side 2, and modular certificates
that no such relation exists.

A plain relation writes 2 = sign * (p^x - q^y).  An extended relation
allows negative exponents, 2 = p^a q^b + sign * p^c q^d, which covers
the plain shape plus the single-base-inverse shapes 2 = (q^b -+ 1) p^-a
and its p <-> q mirror.  An obstruction certificate is a modulus whose
power residues of p and q never differ by 2 or -2, ruling every plain
relation out at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Tuple

from .errors import exact_int

if TYPE_CHECKING:  # pragma: no cover
    from .double_base import BasePair

_FORM_RANK = {"plain": 0, "p_inverse": 1, "q_inverse": 2}

MAX_EXP = 64  # the converters' exponent bound and the finders' default


@dataclass(frozen=True)
class PlainRelation:
    """2 = sign * (p^x - q^y) with nonnegative integer exponents."""

    x: int
    y: int
    sign: int

    def __post_init__(self):
        if {type(self.x), type(self.y), type(self.sign)} != {int}:
            for name in ("x", "y", "sign"):
                object.__setattr__(self, name, exact_int(getattr(self, name), name))
        if self.sign not in (-1, 1):
            raise ValueError("sign must be -1 or 1")
        if self.x < 0 or self.y < 0:
            raise ValueError("exponents must be nonnegative")

    def as_extended(self) -> "ExtendedRelation":
        """The same relation as 2 = p^a q^b - p^c q^d, positive term first."""
        if self.sign == 1:
            return ExtendedRelation(self.x, 0, 0, self.y, -1, "plain")
        return ExtendedRelation(0, self.y, self.x, 0, -1, "plain")


@dataclass(frozen=True)
class ExtendedRelation:
    """2 = p^a q^b + sign * p^c q^d with the positive term written first.

    form tags where the inverse powers sit: 'plain' (none), 'p_inverse'
    (denominator a power of p), 'q_inverse' (its mirror image).
    """

    a: int
    b: int
    c: int
    d: int
    sign: int
    form: str

    def __post_init__(self):
        if {type(self.a), type(self.b), type(self.c), type(self.d), type(self.sign)} != {int}:
            for name in ("a", "b", "c", "d", "sign"):
                object.__setattr__(self, name, exact_int(getattr(self, name), name))
        if self.sign not in (-1, 1):
            raise ValueError("sign must be -1 or 1")
        if self.form not in _FORM_RANK:
            raise ValueError(f"unknown form {self.form!r}")

    @property
    def exponent_sum(self) -> int:
        return abs(self.a) + abs(self.b) + abs(self.c) + abs(self.d)


@dataclass(frozen=True)
class ObstructionCertificate:
    """Modulus m with the full multiplicative orbits of p and q mod m
    (exponents >= 1) whose pairwise differences avoid 2 and -2 mod m.

    For bases other than 3 this proves 2 = |p^x - q^y| has no solutions
    with x, y >= 0: exponents >= 1 are blocked mod m, and a zero exponent
    would force the other base to be exactly 3.
    """

    p: int
    q: int
    modulus: int
    p_orbit: Tuple[int, ...]
    q_orbit: Tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "p": str(self.p),
            "q": str(self.q),
            "modulus": str(self.modulus),
            "p_orbit": [str(r) for r in self.p_orbit],
            "q_orbit": [str(r) for r in self.q_orbit],
        }


def verify_relation(base: "BasePair", rel) -> bool:
    """Exact check that a relation's identity holds for this base pair."""
    p, q = base.p, base.q
    if isinstance(rel, PlainRelation):
        return rel.sign * (p ** rel.x - q ** rel.y) == 2
    if isinstance(rel, ExtendedRelation):
        P, Q = Fraction(p), Fraction(q)
        return P ** rel.a * Q ** rel.b + rel.sign * P ** rel.c * Q ** rel.d == 2
    return False


def _power_table(b: int, max_exp: int) -> dict:
    """{b^e: e} for 1 <= e <= max_exp, in increasing order."""
    if max_exp < 1:
        raise ValueError("max_exp must be at least 1")
    table, power = {}, 1
    for e in range(1, max_exp + 1):
        power *= b
        table[power] = e
    return table


def _plain_relation(p_pow: dict, q: int, max_exp: int) -> Optional[PlainRelation]:
    # each q^y has one partner p^x = q^y + 2 sign to look up; a later y
    # can only tie the best total with a smaller x, so stop past it
    best, qy = None, 1
    for y in range(1, max_exp + 1):
        if best is not None and y + 1 > best.x + best.y:
            break
        qy *= q
        for sign in (1, -1):
            x = p_pow.get(qy + 2 * sign)
            if x is not None and (best is None or (x + y, x) < (best.x + best.y, best.x)):
                best = PlainRelation(x, y, sign)
    return best


def find_plain_relation(base: "BasePair", max_exp: int = MAX_EXP) -> Optional[PlainRelation]:
    """Smallest plain relation, minimizing x + y and then x.

    Exponents range over [1, max_exp]; zero exponents are excluded so the
    relation always mixes both bases.  Returns None when the box is empty
    of solutions.  Each power q^y is matched against a table of the
    powers of p, so the search costs O(max_exp) lookups.
    """
    return _plain_relation(_power_table(base.p, max_exp), base.q, max_exp)


def find_extended_relation(base: "BasePair", max_exp: int = MAX_EXP) -> Optional[ExtendedRelation]:
    """Best relation allowing negative exponents.

    Candidates are ranked by total absolute exponent sum, then by form
    (plain before p_inverse before q_inverse), then by field tuple.  The
    inverse-form search solves 2 u^a = s + v^b exactly for s in {1, -1}
    by looking 2 u^a - s up in the table of the powers of v.
    """
    p_pow, q_pow = _power_table(base.p, max_exp), _power_table(base.q, max_exp)
    candidates = []
    plain = _plain_relation(p_pow, base.q, max_exp)
    if plain is not None:
        candidates.append(plain.as_extended())
    for u_pow, v_pow, form in ((p_pow, q_pow, "p_inverse"), (q_pow, p_pow, "q_inverse")):
        for ua, a in u_pow.items():
            for s in (1, -1):
                b = v_pow.get(2 * ua - s)
                if b is None:
                    continue
                # 2 = s * u^-a + u^-a v^b, positive term first
                if form == "p_inverse":
                    candidates.append(ExtendedRelation(-a, b, -a, 0, s, form))
                else:
                    candidates.append(ExtendedRelation(b, -a, 0, -a, s, form))
    if not candidates:
        return None
    return min(
        candidates,
        key=lambda r: (
            r.exponent_sum,
            _FORM_RANK[r.form],
            (r.a, r.b, r.c, r.d, r.sign),
        ),
    )


def _orbit(g: int, m: int) -> Tuple[int, ...]:
    """Sorted set {g^x mod m : x >= 1}; finite since residues cycle."""
    seen = set()
    r = g % m
    while r not in seen:
        seen.add(r)
        r = (r * g) % m
    return tuple(sorted(seen))


def _orbits_obstruct(p_orbit, q_orbit, m: int) -> bool:
    forbidden = {2 % m, (-2) % m}
    return all((u - v) % m not in forbidden for u in p_orbit for v in q_orbit)


def certificate_at(base: "BasePair", m: int) -> Optional[ObstructionCertificate]:
    """Certificate at a specific modulus, or None if m does not work.

    Base pairs containing 3 never certify: 2 = |3^1 - q^0| is a genuine
    solution, so no modulus can rule everything out.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    p, q = base.p, base.q
    if p == 3 or q == 3:
        return None
    p_orbit = _orbit(p, m)
    q_orbit = _orbit(q, m)
    if _orbits_obstruct(p_orbit, q_orbit, m):
        return ObstructionCertificate(p, q, m, p_orbit, q_orbit)
    return None


def find_obstruction(base: "BasePair", max_modulus: int = 1000) -> Optional[ObstructionCertificate]:
    """First certificate along the scan order p, q, 2, 3, ..., max_modulus.

    The bases themselves come first: reducing mod p collapses the whole
    p-orbit to 0, which is the tidiest certificate when it works and the
    one matching hand calculations.  A pair with a plain relation returns
    None without a scan: the relation holds modulo every m.
    """
    p, q = base.p, base.q
    if p == 3 or q == 3 or find_plain_relation(base) is not None:
        return None
    tried = set()
    for m in [p, q] + list(range(2, max_modulus + 1)):
        if m < 2 or m in tried:
            continue
        tried.add(m)
        cert = certificate_at(base, m)
        if cert is not None:
            return cert
    return None
