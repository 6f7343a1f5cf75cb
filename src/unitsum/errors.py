"""Exception hierarchy shared by all unitsum modules."""


class UnitSumError(Exception):
    """Base class for every error raised by this package."""


class BasisMismatch(UnitSumError):
    """Two values built over different bases were combined."""


class ParamsMismatch(UnitSumError):
    """Two cubic elements with different family parameters were combined."""


class TargetTooSmall(UnitSumError):
    """A replacement step was requested at a coefficient below n."""


class IterationCapExceeded(UnitSumError):
    """A reduction hit its step budget before stabilizing."""


class RelationInvalid(UnitSumError):
    """A relation failed exact verification."""


class RelationBroken(UnitSumError):
    """An identity that must hold symbolically failed numerically."""


class NoRelationFound(UnitSumError):
    """No usable base-pair relation exists within the search bound."""


class BudgetExceeded(UnitSumError):
    """A brute-force search exceeded its node budget."""


class InvalidExpansion(UnitSumError):
    """An expansion violates its digit or ordering constraints."""


class VerificationFailed(UnitSumError):
    """An independent recheck of a computed result did not pass."""
