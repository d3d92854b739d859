"""Growth and loss rates of the MMI under common-randomness perturbations.

The growth rate of a subset S is the worst normalized block-crossing count
over optimal partitions; the loss rate of an edge is the best one; critical
edges are the minimal subsets with positive growth rate (equivalently:
minimal subsets crossing every optimal partition); excess edges are the ones
whose marginal removal leaves the MMI unchanged (equivalently: edges inside
one fundamental block). All critical edges share one size, which the
T1/T2 dichotomy turns into an explicit construction.

Every optimal partition coarsens the fundamental partition F (Chan,
Al-Bashabsheh and Zhou, "Change of multivariate mutual information: from
local to global", IEEE Trans. IT 2018), so both rates of a subset depend
only on the set of F's blocks it meets. Every rate here, the growth curve
and the greedy critical edge read one value, ``MmiResult.block_space``: the
optimal family over those 2^ell block sets, with a zero table. The
per-partition rates and the per-subset curve are oracles in the tests.

Each closed-form route keeps a brute-force twin
(:func:`critical_edges_bruteforce`, :func:`perturbation_verify`) so the two
can be pitted against each other, exactly, in tests. The replays behind
:func:`perturbation_verify` do not rerun :func:`ska.mmi.mmi` on the
perturbed source: each builds the perturbed integer table from the base
table, takes gamma from the subset core :func:`ska.mmi.mmi_core`, and, at
the default step, checks that each zero-set union of the perturbed g
(:func:`ska.mmi.zero_set_pass`) is in ``result.optimal_blocks``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, MissingEdgeError, SkaError
# ``mmi`` is not called here; it stays bound because ``perfbench`` wraps
# ``analysis.mmi`` to count calls made from this module.
from .mmi import (  # noqa: F401
    MmiResult,
    block_set,
    mmi,
    mmi_core,
    scaled_entropies,
    zero_set_pass,
)
from .partitions import bit_positions
from .rationals import format_rational
from .source_model import HypergraphicalSource, SourceModel, UserSet
from .structure import TMaxReport, t_max


def growth_rate(source: SourceModel, result: MmiResult, subset) -> Fraction:
    """One-sided derivative of the MMI when common randomness is added to
    the subset: min over optimal partitions P of
    ``(blocks crossed - 1) / (|P| - 1)``; 0 for the empty subset.

    On ``result.block_space``: 0 when the zero table marks the subset's J;
    otherwise every partition rates J above 0, so the early stop never fires."""
    bit, inside, parts = result.block_space
    met = block_set(bit, source.users.as_mask(subset))
    return Fraction(0) if inside[met] else _block_set_rate(met, parts, Fraction(0))


def loss_rate(source: SourceModel, result: MmiResult, edge) -> Fraction:
    """One-sided derivative of the MMI when common randomness is removed
    from an edge the source carries: max over optimal partitions of
    ``(blocks crossed - 1) / (|P| - 1)``, on ``result.block_space``.

    The rates are compared as integer pairs by cross-multiplying, the scan
    stops at the first partition that rates 1 (no partition rates more),
    and one Fraction is built at the end."""
    bit, _, parts = result.block_space
    met = block_set(bit, _require_edge(source, edge))
    high_num, high_den = -1, 1
    for blocks, den in parts:
        num = sum(1 for block in blocks if block & met) - 1
        if num * high_den > high_num * den:
            high_num, high_den = num, den
            if num == den:
                break
    return Fraction(high_num, high_den)


def is_excess(source: SourceModel, result: MmiResult, edge) -> bool:
    """True when the edge sits inside one block of the fundamental
    partition, i.e. its marginal removal does not lower the MMI."""
    mask = _require_edge(source, edge)
    return any(mask & ~block == 0 for block in result.fundamental.blocks)


def _require_edge(source: SourceModel, edge) -> int:
    if not isinstance(source, HypergraphicalSource):
        raise MissingEdgeError("edge-wise analysis needs a hypergraphical source")
    mask = source.users.as_mask(edge)
    if source.has_edge(mask) <= 0:
        raise MissingEdgeError(
            f"source does not have edge {{{source.users.subset_key(mask)}}}"
        )
    return mask


@dataclass(frozen=True)
class GrowthCurve:
    """Best growth rate per subset-size budget k, with witnesses.

    ``values[k]`` is the maximum growth rate over subsets of size at most k
    (0 for k <= 1, reaching 1 exactly from the fundamental block count on);
    ``witnesses[k]`` is a subset mask attaining it.
    """

    users: UserSet
    values: tuple
    witnesses: tuple

    def witness_labels(self, k: int) -> tuple[str, ...]:
        return self.users.labels_of(self.witnesses[k])

    def to_json_dict(self) -> dict:
        return {
            "values": {str(k): format_rational(v) for k, v in enumerate(self.values)},
            "witnesses": {
                str(k): list(self.users.labels_of(w))
                for k, w in enumerate(self.witnesses)
            },
        }


def growth_curve(source: SourceModel, result: MmiResult, k_max: int | None = None) -> GrowthCurve:
    """Exact growth rates of every order up to ``k_max``, decided on sets of
    fundamental blocks.

    A subset's rate depends only on J, the set of fundamental blocks it
    meets. It is 0 exactly when the zero table of ``result.block_space``
    marks J. Any other J is rated once, against the optimal partitions
    written as J masks (:func:`_block_set_rate`), and remembered.

    Subsets are still visited size by size in ``itertools.combinations``
    order and the best is replaced only on a strict increase. Size k stops
    at the first subset that rates its ceiling ``(min(k, ell) - 1) /
    (ell - 1)``: F is optimal, so no J rates above ``(|J| - 1) / (ell - 1)``,
    and k users meet at most min(k, ell) blocks. Each witness is therefore
    the first subset in that order that attains its value.

    When the optimal partition is unique the curve must be the straight
    line ``(k - 1) / (ell - 1)`` up to ell, and it rates one block set per
    size from 2 to ell. The line is cross-checked against the computed
    values and any disagreement raises, since it would mean a bug.
    """
    users = source.users
    n = users.n
    if k_max is None:
        k_max = n
    if not 0 <= k_max <= n:
        raise SkaError(f"k_max must lie in 0..{n}")
    bit, inside, parts = result.block_space
    # Exact rates, or early-exit bounds at or below the best of their time;
    # the best only rises, so either kind still tells whether J can win.
    rated: dict[int, Fraction] = {}
    values = [Fraction(0)]
    witnesses = [0]
    best = Fraction(0)
    best_witness = 0
    for k in range(1, k_max + 1):
        ceiling = Fraction(min(k, result.ell) - 1, result.ell - 1)
        if best < ceiling:
            for combo in itertools.combinations(range(n), k):
                met = 0
                for i in combo:
                    met |= bit[i]
                if inside[met]:
                    continue
                rate = rated.get(met)
                if rate is None:
                    rate = rated[met] = _block_set_rate(met, parts, best)
                if rate > best:
                    best, best_witness = rate, sum(1 << i for i in combo)
                    if best == ceiling:
                        break
        values.append(best)
        witnesses.append(best_witness)
    if len(result.optimal_partitions) == 1:
        for k in range(1, min(k_max, result.ell) + 1):
            expected = Fraction(k - 1, result.ell - 1)
            if values[k] != expected:
                raise ConsistencyError(
                    f"unique-optimum shortcut disagrees with the computed curve at k={k}: "
                    f"{values[k]} != {expected}; this indicates a bug"
                )
    return GrowthCurve(users=users, values=tuple(values), witnesses=tuple(witnesses))


def _block_set_rate(met: int, parts, floor: Fraction) -> Fraction:
    """Growth rate of every subset that meets exactly the fundamental blocks
    in ``met``: the min over ``parts``, the optimal partitions as
    ``(block J masks, block count - 1)``, of ``(blocks met - 1) / (|P| - 1)``.

    The scan stops at the first partition that rates ``met`` at or below
    ``floor`` and returns that value. It is then an upper bound at or below
    ``floor``, so a caller whose floor only rises may keep it: such a set
    can no longer raise the floor.
    """
    low_num, low_den = 1, 1
    floor_num, floor_den = floor.numerator, floor.denominator
    for blocks, den in parts:
        num = -1
        for block in blocks:
            if block & met:
                num += 1
        if num * low_den < low_num * den:
            low_num, low_den = num, den
            if num * floor_den <= floor_num * den:
                break
    return Fraction(low_num, low_den)


@dataclass(frozen=True)
class CriticalEdgeReport:
    """All critical edges, their common size, and the dichotomy case that
    produced them."""

    users: UserSet
    edges: tuple[int, ...]
    common_size: int
    case: str

    def edge_labels(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.users.labels_of(m) for m in self.edges)

    def to_json_dict(self) -> dict:
        return {
            "edges": [list(e) for e in self.edge_labels()],
            "common_size": self.common_size,
            "case": self.case,
        }


def critical_edges(
    source: SourceModel,
    result: MmiResult,
    report: TMaxReport | None = None,
) -> CriticalEdgeReport:
    """Critical edges from the maximal optimal blocks.

    Case T1 (maximal blocks partition the ground set): all pairs with one
    element inside a maximal block and one outside, so the common size is 2.
    Case T2: one representative from each complement of a maximal block;
    the complements are disjoint, so the common size is the number of
    maximal blocks.
    """
    rep = report if report is not None else t_max(source, result)
    users = source.users
    full = users.full_mask
    if rep.case == "T1":
        edges = {
            1 << i | 1 << j
            for block in rep.t_max
            for i in bit_positions(block)
            for j in bit_positions(full & ~block)
        }
        size = 2
    else:
        assert rep.complement_family is not None
        edges = set()
        for combo in itertools.product(*(bit_positions(c) for c in rep.complement_family)):
            mask = 0
            for i in combo:
                mask |= 1 << i
            edges.add(mask)
        size = len(rep.t_max)
    ordered = tuple(sorted(edges, key=bit_positions))
    return CriticalEdgeReport(users=users, edges=ordered, common_size=size, case=rep.case)


def critical_edges_bruteforce(source: SourceModel, result: MmiResult) -> tuple[int, ...]:
    """Definitional oracle: the inclusion-wise minimal subsets that cross
    (at least two blocks of) every optimal partition, by full subset scan.
    Independent of the dichotomy construction on purpose."""
    users = source.users
    n = users.n

    def crosses_all(mask: int) -> bool:
        return all(sum(1 for b in p.blocks if b & mask) > 1 for p in result.optimal_partitions)

    qualifying = [mask for mask in range(1, 1 << n) if crosses_all(mask)]
    qualifying_set = set(qualifying)
    minimal = [
        mask
        for mask in qualifying
        if not any(mask & ~(1 << i) in qualifying_set for i in bit_positions(mask))
    ]
    return tuple(sorted(minimal, key=bit_positions))


def greedy_critical_edge(source: SourceModel, result: MmiResult) -> tuple[str, ...]:
    """One critical edge by the shrinking scan: start from the full set and
    drop users in label order whenever the remainder still has positive
    growth rate, its J unmarked in the zero table of ``result.block_space``."""
    users = source.users
    bit, inside, _ = result.block_space
    current = users.full_mask
    met = (1 << result.ell) - 1
    left = Counter(bit)  # users of ``current`` in each fundamental block
    for i in range(users.n):
        candidate = met if left[bit[i]] > 1 else met ^ bit[i]
        if candidate and not inside[candidate]:
            current ^= 1 << i
            met = candidate
            left[bit[i]] -= 1
    return users.labels_of(current)


@dataclass(frozen=True)
class GranularityCheck:
    """Secondary verification at the integer-entropy step size
    ``1 / ((n - 1)(n - 2))``."""

    epsilon: Fraction
    measured_rate: Fraction
    ok: bool

    def to_json_dict(self) -> dict:
        return {
            "epsilon": format_rational(self.epsilon),
            "measured_rate": format_rational(self.measured_rate),
            "ok": self.ok,
        }


@dataclass(frozen=True)
class PerturbationVerdict:
    """Outcome of replaying a rate prediction against a real perturbation.

    ``identity_ok`` asserts the exact equality of the closed-form rate and
    the recomputed difference quotient; ``containment_ok`` asserts that the
    perturbed source's optimal partitions all were optimal already (checked
    only at the default step gap/2, where it is guaranteed).
    """

    mode: str
    subset: tuple[str, ...]
    epsilon: Fraction
    formula_rate: Fraction
    measured_rate: Fraction
    identity_ok: bool
    containment_ok: bool
    granularity: GranularityCheck | None

    @property
    def ok(self) -> bool:
        return (
            self.identity_ok
            and self.containment_ok
            and (self.granularity is None or self.granularity.ok)
        )

    def describe(self) -> str:
        status = "ok" if self.ok else "FAILED"
        parts = [
            f"{self.mode} {{{','.join(self.subset)}}}: {status}",
            f"rate {format_rational(self.formula_rate)}",
            f"measured {format_rational(self.measured_rate)} at eps {format_rational(self.epsilon)}",
        ]
        if not self.containment_ok:
            parts.append("new optimal partitions appeared")
        if self.granularity is not None and not self.granularity.ok:
            parts.append(
                f"integer-step check failed at eps {format_rational(self.granularity.epsilon)}"
            )
        return "; ".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "subset": list(self.subset),
            "epsilon": format_rational(self.epsilon),
            "formula_rate": format_rational(self.formula_rate),
            "measured_rate": format_rational(self.measured_rate),
            "identity_ok": self.identity_ok,
            "containment_ok": self.containment_ok,
            "granularity": None if self.granularity is None else self.granularity.to_json_dict(),
            "ok": self.ok,
        }


def perturbation_verify(
    source: SourceModel,
    result: MmiResult,
    subset,
    mode: str = "increment",
    *,
    epsilon=None,
) -> PerturbationVerdict:
    """Replay a growth or loss rate against a real perturbed source.

    The default step is gap/2 (1 when the gap is infinite), which keeps the
    perturbed minimizers inside the original optimal set, so the difference
    quotient must equal the closed-form rate exactly; a failed verdict
    therefore signals a bug, never noise. For decrements the step is also
    capped by the available edge weight. On integer-entropy sources with at
    least three users the quotient is additionally replayed at the step
    ``1 / ((n - 1)(n - 2))``, which the value grid guarantees to stay below
    the gap.

    Each replay runs the subset core (:func:`ska.mmi.mmi_core`) on the
    perturbed integer table, not :func:`ska.mmi.mmi`: it needs gamma of the
    perturbed source and, at the default step only, the containment of its
    optimal partitions, which is decided on zero sets. The core starts at
    the original fundamental partition's rate in the perturbed table, near
    the perturbed gamma; every start reaches the same answer.
    """
    users = source.users
    mask = users.as_mask(subset)
    if mode == "increment":
        formula = growth_rate(source, result, mask)
    elif mode == "decrement":
        formula = loss_rate(source, result, mask)
    else:
        raise SkaError(f"unknown mode {mode!r}")

    auto = epsilon is None
    if auto:
        eps = result.gap / 2 if result.gap is not None else Fraction(1)
        if mode == "decrement":
            eps = min(eps, source.has_edge(mask))
    else:
        eps = Fraction(epsilon)
        if eps <= 0:
            raise SkaError("epsilon must be positive")
        if mode == "decrement" and eps > source.has_edge(mask):
            raise MissingEdgeError(
                f"source does not have edge {{{users.subset_key(mask)}}} "
                f"of entropy {eps}"
            )

    table = scaled_entropies(source)
    measured, contained = _measured_rate(table, result, mask, mode, eps, containment=auto)
    granularity = None
    if auto and source.is_integral() and users.n >= 3 and mask:
        eps_v = Fraction(1, (users.n - 1) * (users.n - 2))
        if mode == "increment" or eps_v <= source.has_edge(mask):
            measured_v, _ = _measured_rate(table, result, mask, mode, eps_v)
            granularity = GranularityCheck(
                epsilon=eps_v, measured_rate=measured_v, ok=measured_v == formula
            )

    return PerturbationVerdict(
        mode=mode,
        subset=users.labels_of(mask),
        epsilon=eps,
        formula_rate=formula,
        measured_rate=measured,
        identity_ok=measured == formula,
        containment_ok=contained if auto else True,
        granularity=granularity,
    )


def _measured_rate(table, result, mask, mode, eps, *, containment=False):
    """Difference quotient of gamma under the perturbation, and (only when
    ``containment`` is asked) whether the perturbed optimal partitions were
    all optimal already; ``table`` is ``scaled_entropies`` of the source."""
    sign = 1 if mode == "increment" else -1
    new_table = _perturbed_table(table, mask, sign * eps)
    gamma, blocks = mmi_core(new_table[0], result.fundamental.blocks)
    measured = sign * (gamma / new_table[1] - result.gamma) / eps
    if not containment:
        return measured, None
    return measured, _optimal_set_contained(result, new_table, gamma, blocks)


def _perturbed_table(table, mask, delta: Fraction):
    """``scaled_entropies`` of the source with ``delta`` added to H(A) for
    every A meeting ``mask``, as ``(ent, scale)``: the base table times the
    denominator of delta, plus its scaled numerator."""
    ent, scale = table
    k = delta.denominator
    e = delta.numerator * scale
    return [k * v + e if a & mask else k * v for a, v in enumerate(ent)], k * scale


def _optimal_set_contained(result, new_table, new_gamma, new_blocks) -> bool:
    """True when every optimal partition of the perturbed source is optimal
    for the original one.

    Optimal partitions coarsen the fundamental partition, and one is optimal
    iff each of its blocks is the union of a zero set of g. So containment
    holds iff the union of every nonempty, non-full zero set of the new g is
    one of ``result.optimal_blocks``. ``new_gamma`` is in the units of
    ``new_table``.
    """
    found, union = zero_set_pass(new_table[0], new_gamma, new_blocks)
    full = (1 << len(new_blocks)) - 1
    return all(union[b] in result.optimal_blocks for b in found if 0 < b < full)


@dataclass(frozen=True)
class ConjectureEntry:
    edge: tuple[str, ...]
    rate: Fraction
    predicted: Fraction
    holds: bool

    def to_json_dict(self) -> dict:
        return {
            "edge": list(self.edge),
            "rate": format_rational(self.rate),
            "predicted": format_rational(self.predicted),
            "holds": self.holds,
        }


@dataclass(frozen=True)
class ConjectureReport:
    """Per-critical-edge comparison of the growth rate against the guess
    ``(|S| - 1) / (ell - 1)``. Violations are reported, never asserted: the
    guess is an open question, not an invariant."""

    entries: tuple[ConjectureEntry, ...]

    @property
    def all_hold(self) -> bool:
        return all(e.holds for e in self.entries)

    @property
    def counts(self) -> tuple[int, int]:
        return sum(1 for e in self.entries if e.holds), len(self.entries)

    def to_json_dict(self) -> dict:
        holds, total = self.counts
        return {
            "entries": [e.to_json_dict() for e in self.entries],
            "holds": holds,
            "total": total,
            "all_hold": self.all_hold,
        }


def conjecture_check(source: SourceModel, result: MmiResult) -> ConjectureReport:
    """Evaluate the growth rate of every critical edge and compare it with
    ``(|S| - 1) / (ell - 1)``."""
    ell = result.ell
    entries = []
    for mask in critical_edges(source, result).edges:
        rate = growth_rate(source, result, mask)
        predicted = Fraction(mask.bit_count() - 1, ell - 1)
        entries.append(
            ConjectureEntry(
                edge=source.users.labels_of(mask),
                rate=rate,
                predicted=predicted,
                holds=rate == predicted,
            )
        )
    return ConjectureReport(entries=tuple(entries))
