"""Exception hierarchy and the integer checks shared by all unitsum modules."""

import re
from fractions import Fraction

# one or more decimal strings joined by commas, each an optional minus
# sign and ASCII digits: no "+", spaces, underscores or other scripts' digits
_DECIMALS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")
# a decimal string as above, then optionally "/" and a denominator of ASCII digits
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


class UnitSumError(Exception):
    """Base class for every error raised by this package."""


class BasisMismatch(UnitSumError):
    """A relation's terms do not fit the basis of the representation
    it is applied to: a sign layer outside it or an exponent vector of
    the wrong length."""


class ParamsMismatch(UnitSumError):
    """Two cubic elements with different family parameters were combined."""


class TargetTooSmall(UnitSumError):
    """A replacement step was requested at a coefficient below n."""


class IterationCapExceeded(UnitSumError):
    """A reduction hit its step budget before stabilizing."""


class RelationInvalid(UnitSumError):
    """A relation failed exact verification."""


class RelationBroken(UnitSumError):
    """An identity that must hold for every parameter failed its exact
    check on the integer coordinates."""


class NoRelationFound(UnitSumError):
    """No usable base-pair relation exists within the search bound."""


class BudgetExceeded(UnitSumError):
    """A brute-force search exceeded its node budget."""


class InvalidExpansion(UnitSumError):
    """An expansion violates its digit or ordering constraints."""


class VerificationFailed(UnitSumError):
    """An independent recheck of a computed result did not pass."""


def exact_int(value, what: str) -> int:
    """value as an int: an int passes untouched, anything else must
    convert exactly (Fraction(4, 2) gives 2; 2.5, inf, nan and '3' raise
    ValueError naming what)."""
    if type(value) is int:
        return value
    try:
        n = int(value)
        exact = n == value
    except (OverflowError, ValueError):
        exact = False
    if not exact:
        raise ValueError(f"{what} {value!r} is not an integer")
    return n


def document_ints(values, what: str) -> list:
    """values read from a JSON document as ints: each must be a JSON
    integer or a decimal string, -?[0-9]+; a float, a boolean, null or
    anything else, "+7", " 7 " and "1_000" included, raises ValueError
    naming what, so 2.7 is never read as 2."""
    values = list(values)
    types = set(map(type, values))
    if not types <= {int, str}:
        bad = next(v for v in values if type(v) not in (int, str))
        raise ValueError(f"{what} {bad!r} is not an integer or a decimal string")
    # one match over the whole column rather than one call per value; a
    # column holding one comma fewer than values splits into one part each
    if str in types:
        column = ",".join(values if types == {str} else map(str, values))
        if column.count(",") != len(values) - 1 or not _DECIMALS.fullmatch(column):
            bad = next(
                v for v in values if type(v) is str and ("," in v or not _DECIMALS.fullmatch(v))
            )
            raise ValueError(f"{what} {bad!r} is not an integer or a decimal string")
    return list(map(int, values))


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
    if d and not int(d):
        raise ValueError(f"zero denominator in {value}")
    return Fraction(int(n), int(d or 1))
