"""Exception hierarchy and the integer check shared by all unitsum modules."""


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


def exact_int(value, what: str, least=None) -> int:
    """value as an int: an int passes untouched, anything else must
    convert exactly (Fraction(4, 2) gives 2; 2.5, inf, nan, '3' and None
    raise ValueError naming what).  Given least, a value below it raises
    ValueError(f"{what} must be at least {least}"), which never prints
    the value: one past Python's int/str digit limit cannot be printed.
    A non-integer is printed when its repr can be, and otherwise not."""
    if type(value) is not int:
        try:
            n = int(value)
            exact = n == value
        except (OverflowError, TypeError, ValueError):
            exact = False
        if not exact:
            try:  # a Fraction past the digit limit cannot be printed
                shown = f"{what} {value!r}"
            except ValueError:
                shown = what
            raise ValueError(f"{shown} is not an integer")
        value = n
    if least is not None and value < least:
        raise ValueError(f"{what} must be at least {least}")
    return value
