"""Command-line front end.

Every subcommand prints deterministic, newline-terminated output for a
fixed invocation: big integers travel as decimal strings in JSON, CSV
always carries a header row, and nothing time- or host-dependent lands
on stdout.  Exit codes: 0 success, 2 nothing found (no relation or
certificate), 3 invalid input, 4 an iteration or search budget was hit,
5 an internal verification failed.

build_parser() builds the parser once per process and returns that one
parser on every later call; main parses with it.  Each subcommand's
handler is bound into the parser when it is built, so replacing a
_cmd_* function afterwards does not change what main runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import cubic, documents, double_base, engine, oracle, relations
from .double_base import (
    BasePair,
    evaluate_expansion,
    expand_extended,
    expand_with_stats,
    pq_rational,
    weight,
)
from .errors import (
    BudgetExceeded,
    InvalidExpansion,
    IterationCapExceeded,
    NoRelationFound,
    UnitSumError,
    VerificationFailed,
    exact_int,
)

EXIT_OK = 0
EXIT_NOT_FOUND = 2
EXIT_BAD_INPUT = 3
EXIT_CAP = 4
EXIT_VERIFY = 5

# main prints every error and exits with the code of its first matching row
_EXIT_CODES = (
    (NoRelationFound, EXIT_NOT_FOUND),
    ((IterationCapExceeded, BudgetExceeded), EXIT_CAP),
    ((InvalidExpansion, ValueError, OSError), EXIT_BAD_INPUT),
    (UnitSumError, EXIT_VERIFY),
)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def integer(text: str) -> int:
    """An integer argument, read by the rule of JSON documents: -?[0-9]+.
    One past Python's int/str digit limit is named as such, not echoed."""
    try:
        return documents.document_ints([text], "integer")[0]
    except ValueError as exc:
        if exc.args == documents.digit_limit_error("integer").args:  # else argparse calls it invalid
            raise argparse.ArgumentTypeError(str(exc)) from None
        raise


def _base(args) -> BasePair:
    return BasePair(args.p, args.q)


def _mono(p: int, q: int, i: int, j: int) -> str:
    parts = []
    if i:
        parts.append(f"{p}^{i}")
    if j:
        parts.append(f"{q}^{j}")
    return "*".join(parts) if parts else "1"


def _expansion_text(exp, value_str: str) -> str:
    p, q = exp.base.p, exp.base.q
    if not exp.terms:
        return f"{value_str} = (empty sum)"
    rendered = " ".join(
        f"{'+' if d > 0 else '-'} {_mono(p, q, i, j)}" for d, i, j in exp.terms
    )
    return f"{value_str} = {rendered}"


def _cmd_expand(args) -> int:
    base = _base(args)
    v = args.value
    stats = expand_with_stats(v, base, args.seed_method)
    exp = stats.expansion
    if args.format == "json":
        _print_json(documents.expansion_to_json(exp))
    else:
        print(_expansion_text(exp, str(v)))
        print(f"weight {weight(exp)}  steps {stats.steps}  w_init {stats.w_init}")
    return EXIT_OK


def _cmd_expand_extended(args) -> int:
    base = _base(args)
    value = documents.document_rational(args.value, "value")
    x = pq_rational(value, base)
    exp = expand_extended(x, base)
    if args.format == "json":
        _print_json(documents.expansion_to_json(exp))
    else:
        print(_expansion_text(exp, str(value)))
        print(f"weight {weight(exp)}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.file == "-":
        raw = sys.stdin.read()
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        data = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses per nesting level
        raise ValueError(f"not valid JSON: {exc}") from None
    except ValueError:  # the decoder's only other error: an integer literal past the digit limit
        raise documents.digit_limit_error("a JSON integer literal") from None
    try:
        exp, claimed = documents.expansion_from_json(data)
    except InvalidExpansion as exc:
        print(f"status invalid ({exc})")
        return EXIT_VERIFY
    value = evaluate_expansion(exp)
    try:
        text = f"value {value}"
    except ValueError:  # past the digit limit, so not the claimed value, which passed it
        print(f"status invalid ({documents.digit_limit_error('value')}; document claims {claimed})")
        return EXIT_VERIFY
    print(text)
    if value == claimed:
        print("status valid")
        return EXIT_OK
    print(f"status invalid (document claims {claimed})")
    return EXIT_VERIFY


def _print_relation(args, base: BasePair, rel) -> None:
    if args.format == "json":
        _print_json(documents.relation_to_json(rel))
        return
    (a, b, _), (c, d, sign) = rel.terms
    print(f"2 = {_mono(base.p, base.q, a, b)} {'+' if sign == 1 else '-'} {_mono(base.p, base.q, c, d)}")


def _print_certificate(args, cert) -> None:
    if args.format == "json":
        _print_json(documents.certificate_to_json(cert))
    else:
        print(f"obstruction modulus {cert.modulus}")
        print("p_orbit " + " ".join(map(str, cert.p_orbit)))
        print("q_orbit " + " ".join(map(str, cert.q_orbit)))


def _cmd_find_relation(args) -> int:
    base = _base(args)
    exact_int(args.max_exp, "max_exp", 1)  # the plain search checks this too, but may be skipped
    # a certificate rules out plain relations at every exponent, so it is
    # asked for first and a large --max-exp costs nothing when one exists
    cert = relations.find_obstruction(base, args.max_modulus)
    rel = relations.find_plain_relation(base, args.max_exp) if cert is None else None
    if rel is None and args.extended:
        rel = relations.find_extended_relation(base, args.max_exp)
    if rel is not None:
        _print_relation(args, base, rel)
        return EXIT_OK
    if cert is not None:
        _print_certificate(args, cert)
    else:
        print(
            f"no relation with exponents up to {args.max_exp}; "
            f"no obstruction certificate with modulus up to {args.max_modulus}"
        )
    return EXIT_NOT_FOUND


def _cmd_obstruct(args) -> int:
    base = _base(args)
    cert = relations.find_obstruction(base, args.max_modulus)
    if cert is None:
        print(f"no obstruction certificate with modulus up to {args.max_modulus}")
        return EXIT_NOT_FOUND
    _print_certificate(args, cert)
    return EXIT_OK


def _cmd_min_weight(args) -> int:
    base = _base(args)
    v = args.value
    if (args.i_max is None) != (args.j_max is None):
        raise ValueError("give both --i-max and --j-max or neither")
    box = oracle.default_box(v, base) if args.i_max is None else (args.i_max, args.j_max)
    witness = oracle.min_weight_bruteforce(v, base, args.max_weight, box, args.budget)
    if witness is None:
        print(f"no expansion of weight <= {args.max_weight} inside box {box[0]},{box[1]}")
        return EXIT_OK
    if args.format == "json":
        _print_json(documents.witness_to_json(witness))
    else:
        print(f"weight {witness.weight}")
        print(_expansion_text(witness.expansion, str(v)))
    return EXIT_OK


def _cmd_cubic_repr(args) -> int:
    params = cubic.CubicParams(args.a)
    beta = cubic.CubicElement(params, args.c0, args.c1, args.c2)
    rep = cubic.represent_unit_sums(beta)
    back = engine.evaluate(rep, cubic.cubic_evaluator(params))
    if back != beta:
        raise VerificationFailed("representation does not evaluate back to the input")
    items = sorted(rep.items(), key=lambda kv: (kv[0][0], kv[0][2]))
    if args.format == "json":
        _print_json(documents.unit_sum_to_json(beta, items, rep.steps))
    else:
        body = " ".join(
            f"{'+' if k == 0 else '-'} {a}*u({x[0]},{x[1]})" for (k, _, x), a in items
        )
        print(f"beta({beta.c0},{beta.c1},{beta.c2}) = {body if body else '(empty sum)'}")
        print(f"max coefficient {max((a for _, a in items), default=0)}  steps {rep.steps}")
    return EXIT_OK


def _cmd_cubic_verify(args) -> int:
    lo, hi = args.a_from, args.a_to
    if lo > hi:
        raise ValueError("--a-from must not exceed --a-to")
    # D + 1 values of a prove the identity for every a (see three_relation)
    for a in range(lo, min(hi, lo + cubic.THREE_RELATION_DEGREE) + 1):
        cubic.three_relation(cubic.CubicParams(a))
    count = hi - lo + 1
    print(f"{count}/{count} relations verified, sum = 3")
    return EXIT_OK


# bench-steps holds every row until the sweep is done, so that a failing
# run prints nothing; a value costs 60-180 us and about 200 bytes (2-core
# x86, Python 3.11, (5,23) from 1 to 10^30), so this is 6-18 s and 20 MB
BENCH_STEPS_MAX_VALUES = 100_000


def _cmd_bench_steps(args) -> int:
    base = _base(args)
    lo, hi = args.lo, args.hi
    if lo > hi:
        raise ValueError("--from must not exceed --to")
    if hi - lo >= BENCH_STEPS_MAX_VALUES:
        raise ValueError(
            f"range of {hi - lo + 1} values exceeds the bench-steps bound of {BENCH_STEPS_MAX_VALUES}; split it"
        )
    rows = oracle.sweep_verify(lo, hi, base)
    print("n,w_init,steps,weight_final")
    for row in rows:
        print(*row, sep=",")
    return EXIT_OK


def _add_base_args(sub) -> None:
    sub.add_argument("--p", type=integer, required=True, help="first base")
    sub.add_argument("--q", type=integer, required=True, help="second base")


def _add_format_arg(sub) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")


# parse_args keeps no state between calls: each call fills a new
# namespace from the defaults, so one parser serves every call
@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitsum",
        description="signed double-base expansions and unit-sum representations",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    s = subs.add_parser("expand", help="signed expansion of an integer")
    _add_base_args(s)
    s.add_argument("value", type=integer, help="integer to expand")
    s.add_argument("--seed-method", choices=double_base.SEED_METHODS, default=double_base.SEED_METHODS[0])
    _add_format_arg(s)
    s.set_defaults(func=_cmd_expand)

    s = subs.add_parser("expand-extended", help="extended expansion of n or n/d")
    _add_base_args(s)
    s.add_argument("value", help="integer or fraction n/d whose d divides a base power product")
    _add_format_arg(s)
    s.set_defaults(func=_cmd_expand_extended)

    s = subs.add_parser("verify", help="recheck an expansion JSON document")
    s.add_argument("file", help="path to the document, or - for stdin")
    s.set_defaults(func=_cmd_verify)

    s = subs.add_parser("find-relation", help="search base-pair relations")
    _add_base_args(s)
    s.add_argument("--max-exp", type=integer, default=relations.MAX_EXP)
    s.add_argument("--max-modulus", type=integer, default=relations.MAX_MODULUS)
    s.add_argument("--extended", action="store_true", help="also search inverse-power forms")
    _add_format_arg(s)
    s.set_defaults(func=_cmd_find_relation)

    s = subs.add_parser("obstruct", help="search an obstruction certificate")
    _add_base_args(s)
    s.add_argument("--max-modulus", type=integer, default=relations.MAX_MODULUS)
    _add_format_arg(s)
    s.set_defaults(func=_cmd_obstruct)

    s = subs.add_parser("min-weight", help="brute-force minimal-weight expansion")
    _add_base_args(s)
    s.add_argument("value", type=integer)
    s.add_argument("--max-weight", type=integer, default=8)
    s.add_argument("--i-max", type=integer, default=None)
    s.add_argument("--j-max", type=integer, default=None)
    s.add_argument("--budget", type=integer, default=oracle.NODE_BUDGET)
    _add_format_arg(s)
    s.set_defaults(func=_cmd_min_weight)

    s = subs.add_parser("cubic-repr", help="coefficient-2 unit-sum representation")
    s.add_argument("--a", type=integer, required=True, help="family parameter")
    s.add_argument("c0", type=integer)
    s.add_argument("c1", type=integer)
    s.add_argument("c2", type=integer)
    _add_format_arg(s)
    s.set_defaults(func=_cmd_cubic_repr)

    s = subs.add_parser("cubic-verify", help="check the three-unit identity over a range")
    s.add_argument("--a-from", type=integer, required=True)
    s.add_argument("--a-to", type=integer, required=True)
    s.set_defaults(func=_cmd_cubic_verify)

    s = subs.add_parser("bench-steps", help="CSV of rewrite counts over a range")
    _add_base_args(s)
    s.add_argument("--from", dest="lo", type=integer, required=True)
    s.add_argument("--to", dest="hi", type=integer, required=True)
    s.set_defaults(func=_cmd_bench_steps)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help
        return EXIT_OK if exc.code == 0 else EXIT_BAD_INPUT
    try:
        return args.func(args)
    except (UnitSumError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
