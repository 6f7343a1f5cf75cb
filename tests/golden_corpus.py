"""Golden corpus: library outputs on fixed inputs, one sha256 per group.

Each group renders a fixed list of calls as lines of text (an error
renders as its type name) and hashes them.  tests/golden_corpus.json
holds the digests; test_golden_corpus recomputes every group and names
those that moved.  A change that means to move outputs rewrites the
file with

    PYTHONPATH=src python tests/golden_corpus.py --regen

and lists the moved groups, which a plain run prints, in CHANGES.md.
"""

import argparse
import hashlib
import json
import math
import pathlib
import random
import sys
from fractions import Fraction

from unitsum import (
    BasePair,
    CubicElement,
    CubicParams,
    PQRational,
    Representation,
    expand_extended,
    expand_with_stats,
    find_extended_relation,
    find_obstruction,
    find_plain_relation,
    min_weight_bruteforce,
    monotone_quantity,
    pq_rational,
    rational_basis,
    real_roots,
    reduce,
    represent_unit_sums,
    sweep_verify,
    to_unit_relation,
    unit_monomial,
)

CORPUS = pathlib.Path(__file__).with_name("golden_corpus.json")

# ten pairs with a plain relation of either sign, neither base 2 nor 3
PLAIN_PAIRS = ((5, 23), (23, 5), (5, 27), (27, 5), (7, 5), (5, 7), (11, 13), (13, 11), (7, 47), (51, 7))
# plain, p_inverse and q_inverse relations
EXTENDED_PAIRS = ((5, 23), (5, 11), (5, 13), (2, 7), (7, 2))
SMALL_PAIRS = [(p, q) for p in range(2, 60) for q in range(2, 60) if p != q and math.gcd(p, q) == 1]


def _big_values(bits_list):
    rng = random.Random(10)
    for bits in bits_list:
        v = rng.getrandbits(bits) | 1 << (bits - 1)
        yield v
        yield -v


def _expansion_line(p, q, v, stats):
    return f"{p} {q} {v} {stats.steps} {stats.w_init} {stats.expansion.terms}"


def expand_padic_group():
    for p, q in ((5, 23), (11, 13), (2, 5), (7, 3)):
        for v in range(-300, 3001):
            yield _expansion_line(p, q, v, expand_with_stats(v, BasePair(p, q)))
    for p, q in PLAIN_PAIRS:
        for v in _big_values((256, 1024, 4096)):
            yield _expansion_line(p, q, v, expand_with_stats(v, BasePair(p, q)))


def expand_greedy_group():
    for p, q in ((5, 23), (11, 13)):
        for v in range(-300, 3001):
            yield _expansion_line(p, q, v, expand_with_stats(v, BasePair(p, q), "greedy"))
    for p, q in PLAIN_PAIRS:
        for v in _big_values((256,)):
            yield _expansion_line(p, q, v, expand_with_stats(v, BasePair(p, q), "greedy"))


def expand_extended_group():
    for p, q in EXTENDED_PAIRS:
        base = BasePair(p, q)
        for num in (-1000, -7, -1, 0, 1, 2, 7, 3**40 + 1):
            for ap, aq in ((0, 0), (1, 0), (0, 1), (3, 2), (12, 9)):
                exp = expand_extended(PQRational(base, num, ap, aq), base)
                yield f"{p} {q} {num} {ap} {aq} {exp.terms}"


def _relation_line(rel):
    # kind and terms, which both relation classes hold, not either's repr
    return "None" if rel is None else f"{rel.kind} {rel.terms}"


def relations_group():
    for p, q in SMALL_PAIRS:
        base = BasePair(p, q)
        yield f"{p} {q} {_relation_line(find_plain_relation(base))} {_relation_line(find_extended_relation(base))}"


def find_obstruction_group():
    for p, q in SMALL_PAIRS:
        cert = find_obstruction(BasePair(p, q))
        yield f"{p} {q} {None if cert is None else cert.to_json()}"


def _cubic_elements():
    rng = random.Random(7)
    for k in range(50):
        a = -5 + k % 16
        yield CubicElement(CubicParams(a), *(rng.randint(-60, 60) for _ in range(3)))


def _sorted_items(rep):
    return sorted(rep.coeffs.items())


def represent_unit_sums_group():
    for beta in _cubic_elements():
        rep = represent_unit_sums(beta)
        yield f"{beta!r} {rep.steps} {_sorted_items(rep)}"


def unit_monomial_group():
    for a in (-1000, -3, 0, 2, 1000):
        params = CubicParams(a)
        for i in range(-12, 13):
            for j in range(-12, 13):
                yield f"{a} {i} {j} {unit_monomial(i, j, params).coords}"


def real_roots_group():
    for a in (-1000, -5, -3, -2, -1, 0, 1, 2, 3, 7, 1000):
        for bits in (0, 64, 160):
            yield f"{a} {bits} {real_roots(CubicParams(a), bits)}"


def _rational_reps():
    basis = rational_basis(5, 23)
    yield Representation(basis, {(0, 1, (0, 0)): 7, (1, 1, (2, -1)): 3, (0, 1, (-3, 4)): 1})
    yield Representation(basis, {(0, 1, (1, 1)): 5, (1, 1, (1, 1)): 2, (1, 1, (0, 3)): 4})


def monotone_quantity_group():
    reps = [represent_unit_sums(beta) for beta in list(_cubic_elements())[:5]]
    reps += list(_rational_reps())
    for rep in reps:
        for bits in (0, 64, 160):
            yield f"{_sorted_items(rep)} {bits} {monotone_quantity(rep, bits)}"


def min_weight_group():
    for p, q in ((5, 23), (2, 3), (7, 5)):
        base = BasePair(p, q)
        for v in range(-60, 61):
            w = min_weight_bruteforce(v, base, 6)
            yield f"{p} {q} {v} {None if w is None else (w.weight, w.expansion.terms)}"


def sweep_verify_group():
    # the rows sweep_verify returned with an oracle column: (v, "ok",
    # weight, oracle weight or "", steps, w_init)
    for p, q in ((5, 23), (7, 5), (2, 5)):
        for v, w_init, steps, w in sweep_verify(-50, 400, BasePair(p, q)):
            yield str((v, "ok", w, "", steps, w_init))
    base = BasePair(5, 7)
    for v, w_init, steps, w in sweep_verify(1, 40, base):
        yield str((v, "ok", w, min_weight_bruteforce(v, base, 4).weight, steps, w_init))


def reduce_group():
    # inputs with both sign layers on one site exercise the kernel's cancellation
    for p, q in ((5, 23), (11, 13), (5, 7), (23, 5)):
        basis = rational_basis(p, q)
        rel = to_unit_relation(find_plain_relation(BasePair(p, q)), BasePair(p, q))
        both = reduce(Representation(basis, {(0, 1, (0, 0)): 9, (1, 1, (0, 0)): 4}), rel)
        yield f"{p} {q} both layers {both.steps} {_sorted_items(both)}"
        rng = random.Random(p * 100 + q)
        for _ in range(12):
            coeffs = {}
            for _ in range(rng.randint(1, 6)):
                x = (rng.randint(-3, 3), rng.randint(-3, 3))
                k = rng.randint(0, 1)
                coeffs[(k, 1, x)] = coeffs.get((k, 1, x), 0) + rng.randint(1, 40)
            out = reduce(Representation(basis, coeffs), rel)
            yield f"{p} {q} {sorted(coeffs.items())} {out.steps} {_sorted_items(out)}"


def pq_rational_group():
    for p, q in ((5, 11), (2, 3), (7, 5)):
        base = BasePair(p, q)
        for x in (0, 1, -7, 5**7, Fraction(3, 5**4 * q**2), Fraction(-p**3 * q, p**5 * q**2),
                  Fraction(1, 7 * 11), Fraction(p * q * 13, p**9), 7.0, 0.5, "7/9"):
            try:
                r = pq_rational(x, base)
                yield f"{p} {q} {x!r} {r.num} {r.a_p} {r.a_q}"
            except (TypeError, ValueError) as exc:
                yield f"{p} {q} {x!r} {type(exc).__name__}"
        for num, ap, aq in ((0, 4, 4), (p**3 * q, 2, 5), (-(p**6), 4, 0), (q**2, 0, 1), (12, 3, 3)):
            r = PQRational(base, num, ap, aq)
            yield f"{p} {q} {num} {ap} {aq} {r.num} {r.a_p} {r.a_q}"


GROUPS = {
    "expand_padic": expand_padic_group,
    "expand_greedy": expand_greedy_group,
    "expand_extended": expand_extended_group,
    "relations": relations_group,
    "find_obstruction": find_obstruction_group,
    "represent_unit_sums": represent_unit_sums_group,
    "unit_monomial": unit_monomial_group,
    "real_roots": real_roots_group,
    "monotone_quantity": monotone_quantity_group,
    "min_weight_bruteforce": min_weight_group,
    "sweep_verify": sweep_verify_group,
    "reduce": reduce_group,
    "pq_rational": pq_rational_group,
}


def digests():
    """{group: sha256 of its lines joined by newlines}, in GROUPS order."""
    return {
        name: hashlib.sha256("\n".join(group()).encode()).hexdigest()
        for name, group in GROUPS.items()
    }


def moved_groups(recorded, current):
    """Names of the groups whose digest differs, or that either side lacks."""
    return sorted(name for name in recorded.keys() | current.keys() if recorded.get(name) != current.get(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--regen", action="store_true", help=f"rewrite {CORPUS.name}")
    args = parser.parse_args(argv)
    current = digests()
    if args.regen:
        CORPUS.write_text(json.dumps(current, indent=2) + "\n")
        return 0
    moved = moved_groups(json.loads(CORPUS.read_text()), current)
    print("\n".join(moved) if moved else "no group moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
