"""Partition information rates, the MMI, and the optimal-partition set.

The multivariate mutual information (MMI) of a source is

    I(Z_V) = min over partitions P with >= 2 blocks of
             I_P = (sum over blocks C of H(Z_C) - H(Z_V)) / (|P| - 1),

and equals the secrecy capacity of the corresponding secret key agreement
problem without helpers. Two exact routes compute it:

* :func:`mmi`, one enumeration pass over all Bell(n) partitions, yields the
  minimum, the set of all minimizing partitions, the unique finest minimizer
  (the fundamental partition), and the optimality gap that bounds how far
  the source can be perturbed without reshuffling the minimizers;
* :func:`mmi_core` yields gamma and the fundamental partition only, by
  Dinkelbach iteration over Dilworth truncations at 2^n per step. Callers
  that need nothing else (the ``verify`` replays) use it directly.

Internally the entropies are rescaled to integers (the least common multiple
of the value denominators) so both routes work in integer arithmetic; gamma
and the gap are converted back to exact rationals at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import kernel
from .errors import ConsistencyError, EnumerationLimitError, GroundSetMismatchError, SkaError
from .partitions import Partition, partition_from_rgs
from .rationals import format_rational, parse_rational
from .source_model import HypergraphicalSource, SourceModel, UserSet

DEFAULT_ENUMERATION_CAP = 12


@dataclass(frozen=True)
class MmiResult:
    """MMI value gamma, all optimal partitions, the fundamental partition,
    and the optimality gap.

    ``gap`` is the minimum of ``I_P - gamma`` over non-optimal partitions;
    ``None`` encodes +infinity, i.e. every partition is optimal (always the
    case for two users, and for degenerate sources at any size).
    """

    users: UserSet
    gamma: Fraction
    optimal_partitions: tuple[Partition, ...]
    fundamental: Partition
    gap: Fraction | None

    @property
    def ell(self) -> int:
        """Block count of the fundamental partition."""
        return self.fundamental.n_blocks

    def to_json_dict(self) -> dict:
        return {
            "gamma": format_rational(self.gamma),
            "optimal_partitions": [p.to_json() for p in self.optimal_partitions],
            "fundamental": self.fundamental.to_json(),
            "gap": "inf" if self.gap is None else format_rational(self.gap),
        }

    @classmethod
    def from_json_dict(cls, users: UserSet, data: dict) -> "MmiResult":
        return cls(
            users=users,
            gamma=parse_rational(data["gamma"]),
            optimal_partitions=tuple(
                Partition.from_json(users, p) for p in data["optimal_partitions"]
            ),
            fundamental=Partition.from_json(users, data["fundamental"]),
            gap=None if data["gap"] == "inf" else parse_rational(data["gap"]),
        )


def i_p(source: SourceModel, partition: Partition) -> Fraction:
    """Partition information rate
    ``(sum over blocks of H(Z_C) - H(Z_V)) / (|P| - 1)``."""
    if partition.users != source.users:
        raise GroundSetMismatchError("partition is over a different ground set")
    if partition.n_blocks < 2:
        raise SkaError("partition information rate needs at least two blocks")
    total = sum((source.entropy_mask(b) for b in partition.blocks), Fraction(0))
    return (total - source.entropy_mask(source.users.full_mask)) / (partition.n_blocks - 1)


def residual_entropy(source: SourceModel, gamma: Fraction, subset) -> Fraction:
    """Residual randomness ``H(Z_C) - gamma`` of a subset."""
    return source.entropy(subset) - Fraction(gamma)


def scaled_entropies(source: SourceModel) -> tuple[list[int], int]:
    """All subset entropies multiplied by the denominator LCM, as integers.

    Returns ``(ent, scale)`` with ``ent[mask] == scale * H(mask)``.
    """
    users = source.users
    n = users.n
    scale = source.denominator_lcm()
    if isinstance(source, HypergraphicalSource):
        weights = [int(e.weight * scale) for e in source.edges]
        masks = source.edge_masks
        ent = [0] * (1 << n)
        for mask in range(1, 1 << n):
            s = 0
            for emask, w in zip(masks, weights):
                if emask & mask:
                    s += w
            ent[mask] = s
        return ent, scale
    ent = []
    for mask in range(1 << n):
        v = source.entropy_mask(mask) * scale
        if v.denominator != 1:
            raise ConsistencyError("denominator scale did not clear a value")
        ent.append(v.numerator)
    return ent, scale


def mmi_core(ent: list[int]) -> tuple[Fraction, tuple[int, ...]]:
    """gamma and the fundamental partition from an integer entropy table.

    ``ent[mask]`` is a scaled entropy (as from :func:`scaled_entropies`) of a
    valid source; the returned gamma is in the same units. Dinkelbach
    iteration over Dilworth truncations: for lambda = p/q, the step
    ``x_j = min over B within users 0..j-1 of q*h(B+j) - p - x(B)`` runs
    over 2^n subsets in all, and merging j with every block that meets the
    least minimiser yields the finest partition minimising
    ``sum over blocks C of (q*h(C) - p)``. Starting from I_P of the
    singletons, lambda moves to I_P of that partition until the minimum is
    ``q*h(V) - p``; then lambda is gamma and the partition is fundamental.
    """
    n = len(ent).bit_length() - 1
    full = (1 << n) - 1
    p, q = sum(ent[1 << i] for i in range(n)) - ent[full], n - 1
    while True:
        xs = [0]
        blocks: list[int] = []
        for j in range(n):
            bit = 1 << j
            row = [q * ent[bit | b] - x for b, x in enumerate(xs)]
            low = min(row)
            least = full
            for b, v in enumerate(row):
                if v == low:
                    least &= b
            merged = bit
            kept = []
            for block in blocks:
                if block & least:
                    merged |= block
                else:
                    kept.append(block)
            blocks = kept + [merged]
            x_j = low - p
            xs += [x + x_j for x in xs]
        if xs[full] == q * ent[full] - p:
            return Fraction(p, q), tuple(sorted(blocks, key=lambda m: m & -m))
        p, q = sum(ent[b] for b in blocks) - ent[full], len(blocks) - 1


def mmi(source: SourceModel, *, cap: int | None = None) -> MmiResult:
    """Compute the MMI by exact enumeration over all multi-block partitions.

    ``cap`` bounds the ground-set size (default 12); above it the call
    raises EnumerationLimitError before any scan. The scan visits
    Bell(n) - 1 partitions; on random hypergraphs it took 0.41 s at n=10,
    2.4 s at n=11 and 14.8 s at n=12 (Python 3.11.7, one Xeon core). Each
    further user multiplies that by Bell(n+1)/Bell(n), 6.6 at n=13 rising
    to 7.6 at n=16, so n=16 would take about 10 hours.

    Requires a valid (submodular) source; on invalid input the optimal
    partitions need not admit a unique finest member, which is reported as a
    ConsistencyError.
    """
    users = source.users
    n = users.n
    limit = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if n > limit:
        raise EnumerationLimitError(
            f"enumeration limit: {n} users exceeds the configured cap of {limit}"
        )
    ent, scale = scaled_entropies(source)
    best_num, best_den, minimizers, run_num, run_den, has_run = (
        kernel.minimize_over_partitions(n, ent)
    )
    gamma = Fraction(best_num, best_den) / scale
    optimal = tuple(
        sorted(
            (partition_from_rgs(users, rgs) for rgs in minimizers),
            key=lambda p: p.blocks,
        )
    )
    fundamental = _finest(optimal)
    gap = Fraction(run_num, run_den) / scale - gamma if has_run else None
    return MmiResult(
        users=users,
        gamma=gamma,
        optimal_partitions=optimal,
        fundamental=fundamental,
        gap=gap,
    )


def verify_fundamental(result: MmiResult) -> bool:
    """Self-check: the fundamental partition is optimal and refines every
    optimal partition."""
    f = result.fundamental
    return f in result.optimal_partitions and all(
        f.refines(p) for p in result.optimal_partitions
    )


def _finest(optimal: tuple[Partition, ...]) -> Partition:
    most_blocks = max(p.n_blocks for p in optimal)
    candidates = [p for p in optimal if p.n_blocks == most_blocks]
    if len(candidates) == 1 and all(candidates[0].refines(p) for p in optimal):
        return candidates[0]
    raise ConsistencyError(
        "optimal partitions admit no unique finest member; "
        "the source is not a valid (submodular) entropy function"
    )
