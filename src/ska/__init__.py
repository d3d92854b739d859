"""Exact analysis of multivariate mutual information on finite source models.

The package computes the MMI (the secrecy capacity of multiterminal secret
key agreement without helpers) of hypergraphical and tabulated sources by
exact enumeration, and analyzes how it moves when common randomness is added
to or removed from user subsets: growth and loss rates, critical and excess
edges, the maximal-optimal-block dichotomy, and optimal-partition
uniqueness. Every closed-form route has a brute-force twin, and all reported
values are exact rationals.
"""

from .analysis import (
    ConjectureEntry,
    ConjectureReport,
    CriticalEdgeReport,
    GranularityCheck,
    GrowthCurve,
    PerturbationVerdict,
    conjecture_check,
    critical_edges,
    critical_edges_bruteforce,
    greedy_critical_edge,
    growth_curve,
    growth_rate,
    is_excess,
    loss_rate,
    perturbation_verify,
)
from .errors import (
    ConsistencyError,
    EnumerationLimitError,
    GroundSetMismatchError,
    MissingEdgeError,
    SkaError,
    UnknownUserError,
)
from .mmi import (
    DEFAULT_ENUMERATION_CAP,
    MmiResult,
    i_p,
    mmi,
    residual_entropy,
    verify_fundamental,
)
from .partitions import Partition, enumerate_partitions, partition_from_rgs, restricted_growth_strings
from .rationals import Rational, denominator_lcm, format_rational, parse_rational
from .source_model import (
    EntropyTable,
    HypergraphicalSource,
    SourceModel,
    UserSet,
    ValidationReport,
    Violation,
    WeightedEdge,
    load_source,
    pin_source,
    source_from_json_dict,
)
from .structure import (
    TMaxReport,
    ZssFunction,
    build_g,
    g_rounding_unit,
    is_unique_optimal,
    maximal_zero_set,
    t_max,
    zero_sets,
)
from .submodular import (
    LatticeFamily,
    MnpResult,
    SetFunctionOracle,
    base_vertex,
    minimize_bruteforce,
    minimize_mnp,
)

__version__ = "0.1.0"
