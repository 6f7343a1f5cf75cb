"""Exact arithmetic for bounded-coefficient unit-sum representations
and signed double-base digit expansions.

The engine module rewrites sparse unit-sum representations with a
terminating carry procedure; double_base runs the same rewrite in its
own signed loop over pairs of multiplicatively independent integer
bases, and its rational_basis and to_unit_relation carry those pairs
into the engine; relations searches for the base-pair identities the
rewrites need, or certifies that none exist; cubic instantiates the
machinery in a one-parameter family of totally real cubic fields;
oracle brute-forces minimal weights for comparison; documents writes
and reads the JSON documents of all of them.
"""

from .double_base import (
    BasePair,
    ExpandStats,
    ExtendedExpansion,
    PQRational,
    SignedExpansion,
    balanced_ternary,
    evaluate_expansion,
    expand,
    expand_extended,
    expand_with_stats,
    greedy_seed,
    p_adic_digits,
    pq_rational,
    rational_basis,
    rational_evaluator,
    to_unit_relation,
    weight,
)
from .engine import (
    BoundParams,
    ReductionPolicy,
    Representation,
    UnitGroupBasis,
    UnitRelation,
    bounds_f_T,
    evaluate,
    monotone_quantity,
    reduce,
    replacement_step,
    total_weight,
)
from .errors import (
    BasisMismatch,
    BudgetExceeded,
    InvalidExpansion,
    IterationCapExceeded,
    NoRelationFound,
    ParamsMismatch,
    RelationBroken,
    RelationInvalid,
    TargetTooSmall,
    UnitSumError,
    VerificationFailed,
)
from .cubic import (
    CubicElement,
    CubicParams,
    cubic_basis,
    cubic_evaluator,
    real_roots,
    represent_unit_sums,
    three_relation,
    unit_monomial,
)
# after double_base: it imports documents at its end to bind the two
# expansion names, which fails if documents is already half imported
from .documents import element_from_json, element_to_json, expansion_from_json, expansion_to_json
from .oracle import (
    WeightWitness,
    default_box,
    min_weight_bruteforce,
    sweep_verify,
)
from .relations import (
    ExtendedRelation,
    ObstructionCertificate,
    PlainRelation,
    certificate_at,
    find_extended_relation,
    find_obstruction,
    find_plain_relation,
    verify_relation,
)

__version__ = "0.1.0"

__all__ = [
    "BasePair",
    "BasisMismatch",
    "BoundParams",
    "BudgetExceeded",
    "CubicElement",
    "CubicParams",
    "ExpandStats",
    "ExtendedExpansion",
    "ExtendedRelation",
    "InvalidExpansion",
    "IterationCapExceeded",
    "NoRelationFound",
    "ObstructionCertificate",
    "PQRational",
    "ParamsMismatch",
    "PlainRelation",
    "ReductionPolicy",
    "RelationBroken",
    "RelationInvalid",
    "Representation",
    "SignedExpansion",
    "TargetTooSmall",
    "UnitGroupBasis",
    "UnitRelation",
    "UnitSumError",
    "VerificationFailed",
    "WeightWitness",
    "balanced_ternary",
    "bounds_f_T",
    "certificate_at",
    "cubic_basis",
    "cubic_evaluator",
    "default_box",
    "element_from_json",
    "element_to_json",
    "evaluate",
    "evaluate_expansion",
    "expand",
    "expand_extended",
    "expand_with_stats",
    "expansion_from_json",
    "expansion_to_json",
    "find_extended_relation",
    "find_obstruction",
    "find_plain_relation",
    "greedy_seed",
    "min_weight_bruteforce",
    "monotone_quantity",
    "p_adic_digits",
    "pq_rational",
    "rational_basis",
    "rational_evaluator",
    "real_roots",
    "reduce",
    "replacement_step",
    "represent_unit_sums",
    "sweep_verify",
    "three_relation",
    "to_unit_relation",
    "total_weight",
    "unit_monomial",
    "verify_relation",
    "weight",
]
