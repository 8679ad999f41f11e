"""Exact arithmetic in algebras of finite abelian p-groups of bounded rank.

Isomorphism classes are partitions; products count subgroup
configurations; the rank-lowering transfer omega and its section connect
adjacent ranks.  Everything is exact integer arithmetic with built-in
cross-checks.
"""

from .errors import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    HeckeError,
    ParseError,
    VerificationError,
)
from .hecke import (
    GeneratorPoly,
    HeckeContext,
    HeckeElement,
    basis_element,
    c_by_enumeration,
    c_coeff,
    decompose_in_generators,
    eval_generator_poly,
    identity,
    multiply,
    parse_element,
    t_aggregate,
)
from .omega import (
    OmegaContext,
    a_by_enumeration,
    a_coeff,
    b_coeff,
    i_count,
    lift_section,
    omega,
)
from .partitions import (
    Partition,
    conjugate,
    embeds,
    format_partition,
    order_exponent,
    p_rank,
    parse_partition,
    partitions_of_exponent,
    partitions_up_to,
)
from .subgroups import (
    Ambient,
    SubgroupRep,
    count_of_type_in_group,
    enumerate_subgroups,
    intersect,
    m_count,
    quotient_type,
    standard_split,
    subgroup_from_rows,
    type_of,
)

__version__ = "0.1.0"

__all__ = [
    "Ambient",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "GeneratorPoly",
    "HeckeContext",
    "HeckeElement",
    "HeckeError",
    "OmegaContext",
    "ParseError",
    "Partition",
    "SubgroupRep",
    "VerificationError",
    "a_by_enumeration",
    "a_coeff",
    "b_coeff",
    "basis_element",
    "c_by_enumeration",
    "c_coeff",
    "conjugate",
    "count_of_type_in_group",
    "decompose_in_generators",
    "embeds",
    "enumerate_subgroups",
    "eval_generator_poly",
    "format_partition",
    "i_count",
    "identity",
    "intersect",
    "lift_section",
    "m_count",
    "multiply",
    "omega",
    "order_exponent",
    "p_rank",
    "parse_element",
    "parse_partition",
    "partitions_of_exponent",
    "partitions_up_to",
    "quotient_type",
    "standard_split",
    "subgroup_from_rows",
    "t_aggregate",
    "type_of",
    "__version__",
]
