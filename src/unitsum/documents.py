"""The JSON documents unitsum writes and reads: expansions, min-weight
witnesses, cubic elements and unit sums, relations and certificates.
Big integers ride as decimal strings."""

import dataclasses
import re
import sys
from fractions import Fraction

from .cubic import CubicElement, CubicParams
from .double_base import BasePair, ExtendedExpansion, SignedExpansion, _from_rows, evaluate_expansion
from .errors import InvalidExpansion

# one or more decimal strings joined by commas, each an optional minus
# sign and ASCII digits: no "+", spaces, underscores or other scripts' digits
_DECIMALS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")
# a decimal string as above, then optionally "/" and a denominator of ASCII digits
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def digit_limit_error(what: str) -> ValueError:
    """The error for a number past Python's int/str digit limit, named by
    what it is; a plain ValueError, as the benchmark counts it by class.
    A Python without the limit (3.10 before 3.10.7) never raises it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return ValueError(f"{what} has more than {limit} digits, past Python's int/str limit")


def _column(convert, values, what: str) -> list:
    """values mapped by convert, int or str, in one try per column: only
    a value past Python's int/str digit limit raises, named by what."""
    try:
        return list(map(convert, values))
    except ValueError:
        raise digit_limit_error(what) from None


def document_ints(values, what: str) -> list:
    """values read from a JSON document as ints: each must be a JSON
    integer or a decimal string, -?[0-9]+; a float, a boolean, null or
    anything else, "+7", " 7 " and "1_000" included, raises ValueError
    naming what, so 2.7 is never read as 2."""
    values = list(values)
    types = set(map(type, values))
    ok = types <= {int, str}
    # one match over the whole column rather than one call per value; a
    # column holding one comma fewer than values splits into one part each
    if ok and str in types:
        column = ",".join(values if types == {str} else _column(str, values, what))
        ok = column.count(",") == len(values) - 1 and _DECIMALS.fullmatch(column)
    if not ok:  # name the first value that is neither an int nor a well-formed decimal string
        bad = next(v for v in values if not (type(v) is int or type(v) is str and "," not in v and _DECIMALS.fullmatch(v)))
        raise ValueError(f"{what} {bad!r} is not an integer or a decimal string")
    return _column(int, values, what)


def document_json(value, want: type, what: str):
    """value, if it is a JSON object (want dict) or array (want list);
    else ValueError naming what."""
    if type(value) is not want:
        raise ValueError(f"{what} is not a JSON {'object' if want is dict else 'array'}")
    return value


def document_rational(value, what: str) -> Fraction:
    """value as a Fraction: a JSON integer, or a string "n" or "n/d" with
    n matching -?[0-9]+ and d matching [0-9]+; anything else, a float, a
    boolean, "2.5e1", " 25 ", "+25" and "2_5" included, raises ValueError
    naming what; a zero denominator raises ValueError too."""
    if type(value) is int:
        return Fraction(value)
    if type(value) is not str or not _RATIONAL.fullmatch(value):
        raise ValueError(f"{what} {value!r} is not an integer or a fraction n/d")
    n, _, d = value.partition("/")
    n, d = _column(int, (n, d or "1"), what)
    if not d:
        raise ValueError(f"{what} {value!r} has a zero denominator")
    return Fraction(n, d)


def expansion_to_json(exp) -> dict:
    """JSON-ready dict; big integers ride as decimal strings.  An exponent
    never passes Python's int/str digit limit, as its term would not
    evaluate; a base or the value that does raises ValueError naming it."""
    p, q = _column(str, (exp.base.p, exp.base.q), "base")
    (value,) = _column(str, (evaluate_expansion(exp),), "value")
    return {
        "kind": exp.kind,
        "p": p,
        "q": q,
        "value": value,
        "terms": [{"d": d, "i": str(i), "j": str(j)} for d, i, j in exp.terms],
    }


def expansion_from_json(data: dict):
    """Parse the expansion schema back; returns (expansion, claimed value).

    Every integer field must be a JSON integer or a decimal string and the
    value an integer or an "n" or "n/d" string of decimal digits; anything
    else, a float, a boolean or "2.5e1" included, raises InvalidExpansion.
    The claimed value is whatever the document asserts, as a Fraction; it
    is not rechecked here.  A weight field, which min-weight writes, is
    read by the same integer rule and must equal the number of terms, or
    InvalidExpansion names both numbers.  A document or term that is not
    a JSON object, terms that are not an array, a missing field, an
    unknown kind and a relation document raise it too, naming what is
    wrong; the kind is read first.
    """
    try:
        document_json(data, dict, "the document")
        kind = data["kind"]
        # relations have the kinds "plain" and "extended" too, but a sign
        # and no terms; kind is compared by == alone, as it may be unhashable
        if kind in ("plain", "extended") and "sign" in data and "terms" not in data:
            raise InvalidExpansion(f"a relation document of kind {kind!r}, not an expansion")
        cls = next((c for c in (SignedExpansion, ExtendedExpansion) if c.kind == kind), None)
        if cls is None:
            raise InvalidExpansion(f"unknown expansion kind {kind!r}")
        base = BasePair(*document_ints((data["p"], data["q"]), "base"))
        terms = document_json(data["terms"], list, "terms")
        try:
            digits = [t["d"] for t in terms]
        except TypeError:
            # only a term that is not a JSON object raises it
            k = next(k for k, t in enumerate(terms) if type(t) is not dict)
            document_json(terms[k], dict, f"term {k}")
        ds = document_ints(digits, "digit")
        iis = document_ints([t["i"] for t in terms], "exponent")
        js = document_ints([t["j"] for t in terms], "exponent")
        claimed = document_rational(data["value"], "value")
        # min-weight's documents claim a weight as well
        weight = document_ints([data["weight"]], "weight")[0] if "weight" in data else None
    except KeyError as exc:
        if exc.args[0] in ("d", "i", "j"):  # a term's field: name the first term without it
            exc = f"{exc} in term {next(k for k, t in enumerate(terms) if exc.args[0] not in t)}"
        raise InvalidExpansion(f"malformed expansion document: missing field {exc}") from None
    except ValueError as exc:
        raise InvalidExpansion(f"malformed expansion document: {exc}") from None
    rows = {}
    for d, i, j in zip(ds, iis, js):
        rows.setdefault(j, {})[i] = d
    exp = _from_rows(cls, base, rows, list(zip(ds, iis, js)))
    if weight is not None and weight != len(exp.terms):
        raise InvalidExpansion(f"document claims weight {weight}, but the expansion has {len(exp.terms)} terms")
    return (exp, claimed)


def witness_to_json(witness) -> dict:
    """min-weight's document: the witness's expansion, then its weight."""
    return {**expansion_to_json(witness.expansion), "weight": str(witness.weight)}


def element_to_json(elem: CubicElement) -> dict:
    (a,) = _column(str, (elem.params.a,), "a")
    return {"a": a, "coords": _column(str, elem.coords, "coordinate")}


def element_from_json(data: dict) -> CubicElement:
    """Inverse of element_to_json.  A document that is not a JSON object,
    a missing field, coords that are not an array of three, and a field
    that is not a JSON integer or a decimal string raise ValueError."""
    document_json(data, dict, "the document")
    try:
        a, coords = data["a"], data["coords"]
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from None
    if len(document_json(coords, list, "coords")) != 3:
        raise ValueError(f"coords holds {len(coords)} values, not 3")
    (a,) = document_ints([a], "a")
    return CubicElement(CubicParams(a), *document_ints(coords, "coordinate"))


def unit_sum_to_json(beta: CubicElement, items, steps: int) -> dict:
    """cubic-repr's document: beta's element, then its unit sum, the
    ((sign layer, generator, (i, j)), coefficient) items in the order given."""
    return {
        **element_to_json(beta),
        "max_coefficient": str(max((a for _, a in items), default=0)),
        "weight": str(sum(a for _, a in items)),
        "steps": str(steps),
        "terms": [
            {"coeff": str(a), "sign": "+" if k == 0 else "-", "i": str(x[0]), "j": str(x[1])}
            for (k, _, x), a in items
        ],
    }


def relation_to_json(rel) -> dict:
    """A plain or extended relation: its class's kind, then each field as a string."""
    return {"kind": rel.kind, **{k: str(v) for k, v in dataclasses.asdict(rel).items()}}


def certificate_to_json(cert) -> dict:
    orbits = {"p_orbit": [str(r) for r in cert.p_orbit], "q_orbit": [str(r) for r in cert.q_orbit]}
    return {"p": str(cert.p), "q": str(cert.q), "modulus": str(cert.modulus), **orbits}
