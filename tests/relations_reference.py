"""Reference relation searches for unitsum.relations.

These are the searches find_plain_relation and find_extended_relation ran
before they walked two powers to the first solution: the plain search
walks every exponent pair (x, y) in order of x + y, then x, and the
inverse-form search tests each 2 u^a - s for a power of v by repeated
division and ranks every hit, with the field tuple as a last tie-break.
The differential tests check that the finders return the same relation.
reference_verify_relation is the check verify_relation made before it
read every relation through its two terms.
"""

from fractions import Fraction
from typing import Optional

from unitsum.relations import MAX_EXP, ExtendedRelation, PlainRelation

# the reference's own tie-break between forms of equal exponent sum
FORM_ORDER = ("plain", "p_inverse", "q_inverse")


def reference_plain_relation(base, max_exp: int = MAX_EXP) -> Optional[PlainRelation]:
    """Least plain relation by (x + y, x) with 1 <= x, y <= max_exp."""
    if max_exp < 1:
        raise ValueError("max_exp must be at least 1")
    p, q = base.p, base.q
    p_pow = {0: 1}
    q_pow = {0: 1}
    for e in range(1, max_exp + 1):
        p_pow[e] = p_pow[e - 1] * p
        q_pow[e] = q_pow[e - 1] * q
    for total in range(2, 2 * max_exp + 1):
        for x in range(max(1, total - max_exp), min(max_exp, total - 1) + 1):
            y = total - x
            diff = p_pow[x] - q_pow[y]
            if diff == 2:
                return PlainRelation(x, y, 1)
            if diff == -2:
                return PlainRelation(x, y, -1)
    return None


def _exact_log(value: int, b: int) -> Optional[int]:
    # exponent e >= 1 with b^e == value, else None
    if value < b:
        return None
    e = 0
    while value % b == 0:
        value //= b
        e += 1
    return e if value == 1 else None


def reference_extended_relation(base, max_exp: int = MAX_EXP) -> Optional[ExtendedRelation]:
    """Least relation by (exponent sum, form, fields) over the plain and
    the single-base-inverse forms.  The form is this search's own label
    for each candidate, and each relation must read the same form off its
    exponents."""
    p, q = base.p, base.q
    candidates = []
    plain = reference_plain_relation(base, max_exp)
    if plain is not None:
        candidates.append((plain.as_extended(), "plain"))
    for u, v, form in ((p, q, "p_inverse"), (q, p, "q_inverse")):
        ua = 1
        for a in range(1, max_exp + 1):
            ua *= u
            for s in (1, -1):
                b = _exact_log(2 * ua - s, v)
                if b is None or b > max_exp:
                    continue
                if form == "p_inverse":
                    candidates.append((ExtendedRelation(-a, b, -a, 0, s), form))
                else:
                    candidates.append((ExtendedRelation(b, -a, 0, -a, s), form))
    assert all(r.form == label for r, label in candidates), candidates
    if not candidates:
        return None
    return min(
        candidates,
        key=lambda c: (
            c[0].exponent_sum,
            FORM_ORDER.index(c[1]),
            (c[0].a, c[0].b, c[0].c, c[0].d, c[0].sign),
        ),
    )[0]


def reference_verify_relation(base, rel) -> bool:
    """The identity of rel in exact arithmetic: 2 = sign * (p^x - q^y) in
    integers for a plain relation, 2 = p^a q^b + sign * p^c q^d in
    Fractions for an extended one; False for anything else."""
    p, q = base.p, base.q
    if isinstance(rel, PlainRelation):
        return rel.sign * (p ** rel.x - q ** rel.y) == 2
    if isinstance(rel, ExtendedRelation):
        P, Q = Fraction(p), Fraction(q)
        return P ** rel.a * Q ** rel.b + rel.sign * P ** rel.c * Q ** rel.d == 2
    return False
