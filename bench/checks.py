"""Independent checks of every output, and the canonical form the golden
digest is taken over.

The checks use only integer and Fraction arithmetic written here: power
sums for expansions, a small integer-tuple evaluator for the cubic orders
built from the minimal polynomial, orbit enumeration for obstruction
certificates and exact sign tests for root enclosures.  They never call
the library, and they run after the timed region.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import defaultdict
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import workloads as W


class CheckFailed(Exception):
    """An output of the library is wrong."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# -- double-base -----------------------------------------------------------

def power_sum(terms: Sequence[Tuple[int, int, int]], p: int, q: int):
    """Exact sum of d * p^i * q^j; an int unless some exponent is negative."""
    if not terms:
        return 0
    i0 = min(0, min(i for _, i, _ in terms))
    j0 = min(0, min(j for _, _, j in terms))
    q_pow: Dict[int, int] = {}
    by_i: Dict[int, int] = defaultdict(int)
    for d, i, j in terms:
        e = j - j0
        if e not in q_pow:
            q_pow[e] = q ** e
        by_i[i - i0] += d * q_pow[e]
    total = 0
    prev = None
    for i in sorted(by_i, reverse=True):  # Horner over the p exponents
        if prev is not None:
            total *= p ** (prev - i)
        total += by_i[i]
        prev = i
    total *= p ** prev
    if i0 or j0:
        return Fraction(total, p ** -i0 * q ** -j0)
    return total


def check_digits(terms, allow_negative: bool = False) -> None:
    pairs = set()
    for d, i, j in terms:
        _require(d in (-1, 1), f"digit {d} at ({i},{j}) is not +-1")
        _require(allow_negative or (i >= 0 and j >= 0), f"negative exponent at ({i},{j})")
        pairs.add((i, j))
    _require(len(pairs) == len(terms), "exponent pairs repeat")


def check_expand_stats(stats, v: int, p: int, q: int) -> None:
    terms = stats.expansion.terms
    check_digits(terms)
    _require(power_sum(terms, p, q) == v, f"expansion of a {v.bit_length()}-bit value evaluates wrong")
    w = stats.w_init
    _require(stats.steps <= (w * w - w) // 2, f"steps {stats.steps} exceed (w^2-w)/2 for w_init {w}")


def check_db(op, out) -> None:
    v, p, q, _ = op.args
    stats, back, claimed = out
    check_expand_stats(stats, v, p, q)
    _require(type(back) is type(stats.expansion), "JSON round trip changed the expansion kind")
    _require(back.terms == stats.expansion.terms, "JSON round trip changed the terms")
    _require((back.base.p, back.base.q) == (p, q), "JSON round trip changed the bases")
    _require(claimed == v, "JSON document claims another value")


def check_int(op, out) -> None:
    (v,) = op.args
    stats, doc = out
    p, q = W.SWEEP_BASE
    check_expand_stats(stats, v, p, q)
    _require(doc["kind"] == "signed" and doc["value"] == str(v), "JSON document header is wrong")
    terms = [(t["d"], int(t["i"]), int(t["j"])) for t in doc["terms"]]
    _require(tuple(terms) == stats.expansion.terms, "JSON terms differ from the expansion")


def check_rational(op, out) -> None:
    n, ap, aq = op.args
    p, q = W.RATIONAL_BASE
    check_digits(out.terms, allow_negative=True)
    _require(Fraction(power_sum(out.terms, p, q)) == Fraction(n, p ** ap * q ** aq), "extended expansion evaluates wrong")


# -- relations -------------------------------------------------------------

_PLAIN_MEMO: Dict[Tuple[int, int], Optional[Tuple[int, int, int]]] = {}


def smallest_plain(p: int, q: int, max_exp: int = 64) -> Optional[Tuple[int, int, int]]:
    """(x, y, sign) with 2 = sign (p^x - q^y), 1 <= x, y <= max_exp,
    smallest by (x + y, x); found by table lookup."""
    key = (p, q)
    if key not in _PLAIN_MEMO:
        p_exp = {p ** x: x for x in range(1, max_exp + 1)}
        best = None
        for y in range(1, max_exp + 1):
            qy = q ** y
            for target, sign in ((qy + 2, 1), (qy - 2, -1)):
                x = p_exp.get(target)
                if x is not None and (best is None or (x + y, x) < (best[0] + best[1], best[0])):
                    best = (x, y, sign)
        _PLAIN_MEMO[key] = best
    return _PLAIN_MEMO[key]


def check_plain(op, rel) -> None:
    want = smallest_plain(*op.args)
    got = None if rel is None else (rel.x, rel.y, rel.sign)
    _require(got == want, f"plain relation for {op.args} is {got}, expected {want}")


def check_extended(op, rel) -> None:
    p, q = op.args
    plain = smallest_plain(p, q)
    if rel is None:
        _require(plain is None, f"no extended relation reported for {op.args} though a plain one exists")
        return
    P, Q = Fraction(p), Fraction(q)
    _require(P ** rel.a * Q ** rel.b + rel.sign * P ** rel.c * Q ** rel.d == 2, f"extended relation for {op.args} is false")
    if plain is not None:
        _require(abs(rel.a) + abs(rel.b) + abs(rel.c) + abs(rel.d) <= plain[0] + plain[1], "extended relation heavier than the plain one")


def orbit(g: int, m: int) -> Tuple[int, ...]:
    """{g^x mod m : x >= 1}; the powers repeat within m steps."""
    return tuple(sorted({pow(g, x, m) for x in range(1, m + 1)}))


def check_certificate(p: int, q: int, cert) -> None:
    if cert is None:
        _require(3 in (p, q) or smallest_plain(p, q) is not None, f"no certificate for ({p},{q}) and no plain relation either")
        return
    m = cert.modulus
    _require((cert.p, cert.q) == (p, q), "certificate names other bases")
    _require(cert.p_orbit == orbit(p, m) and cert.q_orbit == orbit(q, m), f"certificate orbits mod {m} are wrong")
    bad = {2 % m, (-2) % m}
    _require(all((u - w) % m not in bad for u in cert.p_orbit for w in cert.q_orbit), f"modulus {m} does not obstruct")
    _require(smallest_plain(p, q) is None, f"certificate for ({p},{q}) though a plain relation exists")


# -- cubic orders ----------------------------------------------------------

Coords = Tuple[int, int, int]


def cubic_mul(u: Coords, v: Coords, a: int) -> Coords:
    """Product in Z[alpha], alpha^3 = (a-1) alpha^2 + (a+2) alpha + 1."""
    e = [0] * 5
    for s, x in enumerate(u):
        if x:
            for t, y in enumerate(v):
                e[s + t] += x * y
    k1, k2 = a - 1, a + 2
    for deg in (4, 3):  # fold alpha^deg down one degree at a time
        c = e[deg]
        e[deg] = 0
        e[deg - 1] += k1 * c
        e[deg - 2] += k2 * c
        e[deg - 3] += c
    return (e[0], e[1], e[2])


class CubicEvaluator:
    """alpha^i * alpha2^j with alpha2 = -1 - 1/alpha, from integer tuples.

    alpha^-1 = alpha^2 - (a-1) alpha - (a+2) because the constant term of
    the minimal polynomial is -1; alpha2 = (a+1, a-1, -1) and
    alpha2^-1 = (1, a, -1) follow from f(-1) = 1.
    """

    def __init__(self, a: int):
        self.a = a
        self.gens = {
            (0, 1): (0, 1, 0),
            (0, -1): (-(a + 2), -(a - 1), 1),
            (1, 1): (a + 1, a - 1, -1),
            (1, -1): (1, a, -1),
        }
        for g in (0, 1):
            _require(cubic_mul(self.gens[(g, 1)], self.gens[(g, -1)], a) == (1, 0, 0), "unit inverse is wrong")
        self.powers = {(g, 0): (1, 0, 0) for g in (0, 1)}

    def power(self, g: int, e: int) -> Coords:
        got = self.powers.get((g, e))
        if got is None:
            step = 1 if e > 0 else -1
            got = cubic_mul(self.power(g, e - step), self.gens[(g, step)], self.a)
            self.powers[(g, e)] = got
        return got

    def monomial(self, i: int, j: int) -> Coords:
        return cubic_mul(self.power(0, i), self.power(1, j), self.a)


_EVALUATORS: Dict[int, CubicEvaluator] = {}


def evaluator(a: int) -> CubicEvaluator:
    if a not in _EVALUATORS:
        _EVALUATORS[a] = CubicEvaluator(a)
    return _EVALUATORS[a]


def unit_sum_value(items, a: int) -> Coords:
    """Value of sum coeff * (-1)^k * alpha^i alpha2^j; checks every
    coefficient is 1 or 2."""
    ev = evaluator(a)
    total = [0, 0, 0]
    for (k, ell, x), coeff in items:
        _require(k in (0, 1) and ell == 1 and len(x) == 2, f"index {(k, ell, x)} is not a cubic unit index")
        _require(coeff in (1, 2), f"coefficient {coeff} is not 1 or 2")
        sign = -coeff if k else coeff
        for t, c in enumerate(ev.monomial(*x)):
            total[t] += sign * c
    return tuple(total)


def check_cubic(op, out) -> None:
    a, c0, c1, c2 = op.args
    rep, back = out
    _require(unit_sum_value(rep.items(), a) == (c0, c1, c2), f"unit sum for a={a} does not evaluate to the input")
    _require(back.coords == (c0, c1, c2), "library round trip does not give the input back")


def minpoly(a: int, x: Fraction) -> Fraction:
    return x ** 3 - (a - 1) * x ** 2 - (a + 2) * x - 1


def check_roots(op, roots) -> None:
    (a,) = op.args
    _require(len(roots) == 3, "expected three root enclosures")
    width = Fraction(1, 1 << 128)
    for idx, (lo, hi) in enumerate(roots):
        _require(lo < hi and hi - lo <= width, f"enclosure {idx} for a={a} is empty or too wide")
        f_lo, f_hi = minpoly(a, lo), minpoly(a, hi)
        _require(f_lo != 0 and f_hi != 0 and (f_lo < 0) != (f_hi < 0), f"enclosure {idx} for a={a} brackets no sign change")
        if idx:
            _require(roots[idx - 1][1] < lo, "enclosures overlap or are out of order")


def largest_root(a: int) -> float:
    x = float(abs(a) + 4)  # above every root; Newton descends monotonically
    for _ in range(200):
        fx = ((x - (a - 1)) * x - (a + 2)) * x - 1
        dfx = (3 * x - 2 * (a - 1)) * x - (a + 2)
        step = fx / dfx
        x -= step
        if abs(step) < 1e-15 * abs(x):
            break
    return x


def check_monotone(op, context, interval) -> None:
    lo, hi = interval
    _require(0 < lo <= hi, "monotone quantity enclosure is empty or not positive")
    alpha = largest_root(op.args[0])
    conj = 1 + 1 / alpha
    estimate = sum(coeff * alpha ** (2 * x[0]) * conj ** (2 * x[1]) for (_, _, x), coeff in context[op.args].items())
    _require(float(lo) * (1 - 1e-9) <= estimate <= float(hi) * (1 + 1e-9), "monotone quantity enclosure misses its value")


# -- oracle ----------------------------------------------------------------

def check_oracle(op, out) -> None:
    (v,) = op.args
    witness, converted = out
    p, q = W.ORACLE_BASE
    _require(witness is not None, f"oracle found no expansion of {v}")
    check_digits(witness.expansion.terms)
    check_digits(converted.terms)
    _require(witness.weight == len(witness.expansion.terms), "witness weight differs from its term count")
    _require(power_sum(witness.expansion.terms, p, q) == v, f"oracle witness for {v} evaluates wrong")
    _require(power_sum(converted.terms, p, q) == v, f"converter output for {v} evaluates wrong")
    _require(witness.weight <= len(converted.terms), f"oracle witness for {v} is heavier than the converter's")


# -- CLI -------------------------------------------------------------------

_MONO = re.compile(r"^(?:1|(\d+)\^(-?\d+)(?:\*(\d+)\^(-?\d+))?)$")


def parse_expansion_text(line: str, p: int, q: int):
    """'value = + 5^2*23^1 - 1 ...' -> (value text, exact sum)."""
    value, _, body = line.partition(" = ")
    tokens = body.split()
    _require(len(tokens) % 2 == 0 and tokens, f"cannot parse expansion line {line!r}")
    exps = {p: 0, q: 0}
    total = Fraction(0)
    for sign, mono in zip(tokens[::2], tokens[1::2]):
        m = _MONO.match(mono)
        _require(sign in "+-" and m is not None, f"cannot parse term {sign} {mono}")
        term = Fraction(1)
        for b, e in ((m.group(1), m.group(2)), (m.group(3), m.group(4))):
            if b is not None:
                _require(int(b) in exps, f"unknown base {b}")
                term *= Fraction(int(b)) ** int(e)
        total += term if sign == "+" else -term
    return value, total


_UNIT = re.compile(r"^(\d+)\*u\((-?\d+),(-?\d+)\)$")


def check_cli_output(index: int, code: int, out: str) -> None:
    argv, _, want_code = W.CLI_CALLS[index]
    _require(code == want_code, f"cli {' '.join(argv)} exited {code}, expected {want_code}")
    lines = out.splitlines()
    cmd = argv[0]
    if cmd == "expand" and "json" in argv:
        doc = json.loads(out)
        terms = [(t["d"], int(t["i"]), int(t["j"])) for t in doc["terms"]]
        check_digits(terms)
        _require(power_sum(terms, 5, 23) == int(doc["value"]) == int(argv[-1]), "cli JSON expansion evaluates wrong")
    elif cmd in ("expand", "expand-extended"):
        p, q = int(argv[2]), int(argv[4])
        value, total = parse_expansion_text(lines[0], p, q)
        _require(Fraction(value) == total == Fraction(argv[-1]), "cli expansion text evaluates wrong")
    elif cmd == "find-relation" and want_code == 0:
        doc = json.loads(out)
        _require(int(doc["sign"]) * (5 ** int(doc["x"]) - 23 ** int(doc["y"])) == 2, "cli relation is false")
    elif cmd == "find-relation":
        m = int(lines[0].split()[-1])
        p, q = int(argv[2]), int(argv[4])
        _require(lines[1].split()[1:] == [str(r) for r in orbit(p, m)], "cli p orbit is wrong")
        _require(lines[2].split()[1:] == [str(r) for r in orbit(q, m)], "cli q orbit is wrong")
    elif cmd == "verify":
        _require(lines[0] == "value 2", "cli verify computed the wrong value")
        _require(lines[1].startswith("status valid" if want_code == 0 else "status invalid"), "cli verify status is wrong")
    elif cmd == "cubic-repr":
        a = int(argv[2])
        coords = tuple(int(c) for c in argv[-3:])
        if "json" in argv:
            doc = json.loads(out)
            items = [((0 if t["sign"] == "+" else 1, 1, (int(t["i"]), int(t["j"]))), int(t["coeff"])) for t in doc["terms"]]
        else:
            tokens = lines[0].split(" = ", 1)[1].split()
            items = []
            for sign, unit in zip(tokens[::2], tokens[1::2]):
                m = _UNIT.match(unit)
                _require(m is not None, f"cannot parse unit term {unit}")
                items.append(((0 if sign == "+" else 1, 1, (int(m.group(2)), int(m.group(3)))), int(m.group(1))))
        _require(unit_sum_value(items, a) == coords, "cli unit sum evaluates wrong")


# -- dispatch --------------------------------------------------------------

def check(op, out, context, cli_seen: Dict[int, Tuple[int, str]]) -> None:
    """Raise CheckFailed unless out is a correct result of op."""
    kind = op.kind
    if kind == "db":
        check_db(op, out)
    elif kind == "int":
        check_int(op, out)
    elif kind == "rational":
        check_rational(op, out)
    elif kind == "plain":
        check_plain(op, out)
    elif kind == "extended":
        check_extended(op, out)
    elif kind == "cubic":
        check_cubic(op, out)
    elif kind == "oracle":
        check_oracle(op, out)
    elif kind == "obstruct":
        check_certificate(*op.args, out)
    elif kind == "roots":
        check_roots(op, out)
    elif kind == "monotone":
        check_monotone(op, context, out)
    elif kind == "cli":
        # a fixed call must print the same bytes every time; check it once
        (index,) = op.args
        if index in cli_seen:
            _require(cli_seen[index] == out, f"cli call {index} is not deterministic")
        else:
            check_cli_output(index, *out)
            cli_seen[index] = out
    else:
        raise CheckFailed(f"no check for operation kind {kind!r}")


# -- canonical form --------------------------------------------------------

def _frac(x) -> str:
    x = Fraction(x)
    return f"{x.numerator:x}/{x.denominator:x}"  # hex: no int->str digit limit


def canonical(op, out) -> str:
    """One line describing op's output exactly; failures by class name."""
    kind = op.kind
    args = (hex(op.args[0]), *op.args[1:]) if kind == "db" else op.args
    if isinstance(out, BaseException):
        return f"{kind} {args} raised {type(out).__name__}"
    if kind == "db":
        stats = out[0]
        body = (stats.expansion.terms, stats.steps, stats.w_init)
        return f"db {args} {hashlib.sha256(repr(body).encode()).hexdigest()}"
    if kind == "int":
        stats, doc = out
        return f"int {op.args} {stats.expansion.terms} {stats.steps} {stats.w_init} {json.dumps(doc, sort_keys=True)}"
    if kind == "rational":
        return f"rational {op.args} {out.terms}"
    if kind in ("plain", "extended"):
        return f"{kind} {op.args} {out!r}"
    if kind == "cubic":
        rep = out[0]
        return f"cubic {op.args} {rep.steps} {sorted(rep.items())}"
    if kind == "oracle":
        witness, converted = out
        return f"oracle {op.args} {witness.weight} {witness.expansion.terms} {converted.terms}"
    if kind == "obstruct":
        return f"obstruct {op.args} {None if out is None else json.dumps(out.to_json(), sort_keys=True)}"
    if kind == "roots":
        return f"roots {op.args} " + " ".join(f"{_frac(lo)},{_frac(hi)}" for lo, hi in out)
    if kind == "monotone":
        return f"monotone {op.args} {_frac(out[0])} {_frac(out[1])}"
    if kind == "cli":
        code, text = out
        return f"cli {op.args} {code} {hashlib.sha256(text.encode()).hexdigest()}"
    raise CheckFailed(f"no canonical form for operation kind {kind!r}")


def digest(lines: List[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()
