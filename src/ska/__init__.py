"""Exact analysis of multivariate mutual information on finite source models.

The package computes the MMI (the secrecy capacity of multiterminal secret
key agreement without helpers) of hypergraphical and tabulated sources, and
analyzes how it moves when common randomness is added to or removed from
user subsets: growth and loss rates, critical and excess edges, the
maximal-optimal-block dichotomy, and optimal-partition uniqueness. gamma
and the fundamental partition come from a subset core
(:func:`ska.mmi.mmi_core`), the optimal partitions from the zero sets of
the block residual function, and the gap from a subset DP; no command
walks all Bell(n) partitions. That scan (:mod:`ska.kernel`) is their twin
in the tests. Every closed-form route has a brute-force twin in the tests,
and all reported values are exact rationals.
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
)
from .partitions import Partition
from .rationals import denominator_lcm, format_rational, parse_rational
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
)
from .submodular import (
    LatticeFamily,
    MnpResult,
    SetFunctionOracle,
    minimize_bruteforce,
    minimize_mnp,
)

__version__ = "0.1.0"
