"""Optimal-partition structure via the block-indexed residual function.

Write the fundamental partition as blocks C*_1 .. C*_l and let
``h(C) = H(Z_C) - gamma`` be the residual randomness at the MMI value gamma.
The set function on block index sets

    g(B) = h(union of C*_i for i in B) - sum over i in B of h(C*_i)

is submodular, vanishes on every singleton, and is nonnegative on nonempty
sets. Its zero sets encode the whole optimal-partition family: unions of
zero index sets are exactly the blocks of optimal partitions, together with
the full ground set. That correspondence turns questions about all optimal
partitions at once (maximal blocks, uniqueness) into questions about the
zero sets of g.

By default both answers read ``MmiResult.optimal_blocks``.
:func:`ska.mmi.zero_set_pass` finds the zero sets in one exact integer pass
over the 2^ell index sets; :func:`ska.mmi` builds the optimal partitions
from them, and ``verify`` runs the pass on perturbed tables. The same
questions can also be asked as submodular function minimizations over
interval families, solved by the min-norm-point method
(``method="greedy"`` and ``method="sfm"``); that route is kept as the
independently tested twin.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .errors import ConsistencyError, SkaError
# ``zero_set_pass`` lives in ``mmi``, which builds the optimal family with it;
# the import keeps ``ska.structure.zero_set_pass`` resolving.
from .mmi import MmiResult, zero_set_pass  # noqa: F401
from .partitions import Partition
from .source_model import SourceModel, UserSet
from .submodular import (
    LatticeFamily,
    MnpResult,
    SetFunctionOracle,
    minimize_bruteforce,
    minimize_mnp,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ZssFunction:
    """The zero-singleton submodular function over fundamental-block indices.

    ``value(index_set)`` evaluates ``g`` on a bitmask over ``range(ell)``;
    ``g(empty) = 0`` by convention (the greedy procedures are seeded at
    singletons, so the empty set never influences a minimization).
    """

    source: SourceModel = field(repr=False)
    gamma: Fraction
    block_masks: tuple[int, ...]
    _residuals: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        residuals = tuple(
            self.source.entropy_mask(mask) - self.gamma for mask in self.block_masks
        )
        object.__setattr__(self, "_residuals", residuals)

    @property
    def ell(self) -> int:
        return len(self.block_masks)

    def union_mask(self, index_set: int) -> int:
        """Union of the selected fundamental blocks, as a user mask."""
        mask = 0
        for i in range(self.ell):
            if index_set >> i & 1:
                mask |= self.block_masks[i]
        return mask

    def value(self, index_set: int) -> Fraction:
        if not 0 <= index_set < 1 << self.ell:
            raise SkaError(f"index set {index_set:#x} is outside range(2**{self.ell})")
        if index_set == 0:
            return Fraction(0)
        result = self.source.entropy_mask(self.union_mask(index_set)) - self.gamma
        for i in range(self.ell):
            if index_set >> i & 1:
                result -= self._residuals[i]
        return result

    def as_oracle(self) -> SetFunctionOracle:
        """``g`` behind the memoizing oracle that every minimization reads."""
        return SetFunctionOracle(self.ell, self.value, name="g")


def _check_ground(source: SourceModel, result: MmiResult) -> None:
    if result.users != source.users:
        raise SkaError("MMI result belongs to a different ground set")


def build_g(source: SourceModel, result: MmiResult) -> ZssFunction:
    """Residual function over the fundamental partition of ``result``."""
    _check_ground(source, result)
    return ZssFunction(
        source=source,
        gamma=result.gamma,
        block_masks=result.fundamental.blocks,
    )


def g_rounding_unit(source: SourceModel, ell: int) -> Fraction:
    """A grid unit dividing every value of g: 1 / (denominator LCM of the
    source values times (ell - 1)!)."""
    return Fraction(1, source.integer_table[1] * factorial(max(ell - 1, 1)))


def _mnp_value(result: MnpResult) -> Fraction:
    """The minimum of an MNP result, with its diagnostic logged rather than
    dropped."""
    if result.diagnostic is not None:
        log.warning("min-norm-point minimization: %s", result.diagnostic)
    return result.value


def maximal_zero_set(
    g: ZssFunction,
    exclude: int,
    seed: int,
    *,
    method: str = "mnp",
    _oracle: SetFunctionOracle | None = None,
) -> int | None:
    """The unique maximal zero set of ``g`` containing ``seed`` and avoiding
    ``exclude``, grown greedily one index at a time; each growth step asks a
    submodular minimization over an interval family whether the enlarged set
    still sits inside some zero set.

    Returns None when no zero set within the family contains the seed
    (unreachable for a genuine residual function, whose singletons are all
    zero sets; kept as a defensive contract). Uniqueness of the maximum
    holds because zero sets sharing an element form an intersecting family
    closed under union.
    """
    ell = g.ell
    if not (0 <= exclude < ell and 0 <= seed < ell) or exclude == seed:
        raise SkaError("exclude and seed must be distinct block indices")
    oracle = _oracle if _oracle is not None else g.as_oracle()
    ground = ((1 << ell) - 1) & ~(1 << exclude)
    unit = g_rounding_unit(g.source, ell)

    def family_min(lower: int) -> Fraction:
        family = LatticeFamily(lower, ground)
        if method == "bruteforce":
            return minimize_bruteforce(oracle, family)[0]
        if method == "mnp":
            return _mnp_value(minimize_mnp(oracle, family, unit))
        raise SkaError(f"unknown method {method!r}")

    if family_min(1 << seed) != 0:
        return None
    current = 1 << seed
    for k in range(ell):
        if k == exclude or current >> k & 1:
            continue
        if family_min(current | 1 << k) == 0:
            current |= 1 << k
    return current


@dataclass(frozen=True)
class TMaxReport:
    """Inclusion-wise maximal blocks over all optimal partitions, with the
    dichotomy they satisfy: either they form the unique coarsest optimal
    partition (case T1), or their complements are pairwise disjoint and
    nonempty (case T2). ``complement_family`` is aligned with ``t_max``.
    """

    users: UserSet
    t_max: tuple[int, ...]
    case: str  # "T1" | "T2"
    coarsest_optimal: Partition | None = None
    complement_family: tuple[int, ...] | None = None

    def t_max_labels(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.users.labels_of(m) for m in self.t_max)

    def complement_labels(self) -> tuple[tuple[str, ...], ...]:
        assert self.complement_family is not None
        return tuple(self.users.labels_of(m) for m in self.complement_family)

    def to_json_dict(self) -> dict:
        data: dict = {
            "case": self.case,
            "t_max": [list(s) for s in self.t_max_labels()],
        }
        if self.case == "T1":
            assert self.coarsest_optimal is not None
            data["coarsest_optimal"] = self.coarsest_optimal.to_json()
        else:
            data["complement_family"] = [list(s) for s in self.complement_labels()]
        return data


def t_max(source: SourceModel, result: MmiResult, *, method: str = "zerosets") -> TMaxReport:
    """Compute the maximal optimal-partition blocks and classify the
    dichotomy.

    ``method="greedy"`` collects the maximal zero set for every ordered
    (exclude, seed) index pair — O(ell^2) greedy runs, so every maximal
    element is found regardless of insertion-order effects — plus the
    fundamental blocks themselves; each growth step is a min-norm-point
    minimization. ``method="zerosets"`` (the default) takes the family from
    ``result.optimal_blocks`` instead.
    """
    if method == "zerosets":
        _check_ground(source, result)
        candidates = result.optimal_blocks
    elif method == "greedy":
        g = build_g(source, result)
        ell = g.ell
        candidates = set(g.block_masks)
        oracle = g.as_oracle()
        for i in range(ell):
            for j in range(ell):
                if i == j:
                    continue
                b = maximal_zero_set(g, i, j, _oracle=oracle)
                if b is not None:
                    candidates.add(g.union_mask(b))
    else:
        raise SkaError(f"unknown method {method!r}")

    # Largest first: a non-maximal candidate sits inside a maximal one,
    # which has more members and so is already kept when it is reached.
    maximal: list[int] = []
    for m in sorted(candidates, key=int.bit_count, reverse=True):
        if not any(m & ~o == 0 for o in maximal):
            maximal.append(m)
    maximal.sort(key=lambda m: (m & -m, m))
    return _classify(source.users, result, tuple(maximal))


def _classify(users: UserSet, result: MmiResult, maximal: tuple[int, ...]) -> TMaxReport:
    full = users.full_mask
    union = 0
    disjoint = True
    for m in maximal:
        if union & m:
            disjoint = False
            break
        union |= m
    if disjoint and union == full:
        coarsest = Partition(users, maximal)
        if coarsest not in result.optimal_partitions:
            raise ConsistencyError(
                "maximal blocks form a partition that is not optimal; "
                "this indicates a bug"
            )
        return TMaxReport(users=users, t_max=maximal, case="T1", coarsest_optimal=coarsest)
    complements = tuple(full & ~m for m in maximal)
    if any(c == 0 for c in complements):
        raise ConsistencyError("a maximal block covers the whole ground set")
    seen = 0
    for c in complements:
        if seen & c:
            raise ConsistencyError(
                "maximal blocks fit neither dichotomy case; this indicates a bug"
            )
        seen |= c
    return TMaxReport(users=users, t_max=maximal, case="T2", complement_family=complements)


def is_unique_optimal(
    source: SourceModel, result: MmiResult, *, method: str = "zerosets"
) -> bool:
    """True when the fundamental partition is the only optimal partition,
    i.e. the zero sets of g are just the singletons (plus the empty and full
    index sets, which are zero identically).

    ``method="sfm"`` checks, for every index pair {i, j} and every third
    index k, that g stays positive over ``{B : {i,j} <= B <= [ell] - {k}}``;
    excluding k is what removes the always-zero full index set from the
    family; each check is a min-norm-point minimization.
    ``method="zerosets"`` (the default) reads ``result.optimal_blocks``.
    """
    if method == "zerosets":
        _check_ground(source, result)
        return result.optimal_blocks == set(result.fundamental.blocks)
    if method != "sfm":
        raise SkaError(f"unknown method {method!r}")
    g = build_g(source, result)
    ell = g.ell
    oracle = g.as_oracle()
    unit = g_rounding_unit(source, ell)
    full_idx = (1 << ell) - 1
    for i in range(ell):
        for j in range(i + 1, ell):
            pair = 1 << i | 1 << j
            for k in range(ell):
                if pair >> k & 1:
                    continue
                family = LatticeFamily(pair, full_idx & ~(1 << k))
                if _mnp_value(minimize_mnp(oracle, family, unit)) == 0:
                    return False
    return True
