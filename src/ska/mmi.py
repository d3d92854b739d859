"""Partition information rates, the MMI, and the optimal-partition set.

The multivariate mutual information (MMI) of a source is

    I(Z_V) = min over partitions P with >= 2 blocks of
             I_P = (sum over blocks C of H(Z_C) - H(Z_V)) / (|P| - 1),

and equals the secrecy capacity of the corresponding secret key agreement
problem without helpers. :func:`mmi` answers with two exact routes over
one integer table:

* an enumeration pass over all Bell(n) partitions yields gamma's value, the
  set of all minimizing partitions, and the optimality gap that bounds how
  far the source can be perturbed without reshuffling the minimizers;
* the subset core :func:`mmi_core` yields gamma and the fundamental
  partition (the unique finest minimizer), by Dinkelbach iteration over
  Dilworth truncations at 2^n per step. Callers that need nothing else
  (the ``verify`` replays) use it directly.

:func:`mmi` rejects an invalid source before either route runs. The
entropies are rescaled to integers (the least common multiple of the value
denominators), once per source; gamma and the gap are converted back to
exact rationals at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import kernel
from .errors import ConsistencyError, EnumerationLimitError, GroundSetMismatchError, SkaError
from .partitions import Partition, bit_positions
from .rationals import format_rational
from .source_model import SourceModel, UserSet

DEFAULT_ENUMERATION_CAP = 12


@dataclass(frozen=True)
class MmiResult:
    """MMI value gamma, all optimal partitions, the fundamental partition,
    and the optimality gap.

    ``gap`` is the minimum of ``I_P - gamma`` over non-optimal partitions;
    ``None`` encodes +infinity, i.e. every partition is optimal (always the
    case for two users, and for degenerate sources at any size).
    ``optimal_blocks`` and ``block_space`` are cached, not fields.
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

    @cached_property
    def optimal_blocks(self) -> frozenset[int]:
        """Every block of every optimal partition, as user masks."""
        return frozenset(b for p in self.optimal_partitions for b in p.blocks)

    @cached_property
    def block_space(self) -> tuple:
        """The optimal family over the fundamental blocks, ``(bit, inside, parts)``.

        Every optimal partition coarsens the fundamental partition F, so the
        blocks a subset S meets in it depend only on J(S), the mask of F's
        blocks that S meets: the OR of ``bit[i]`` over the users i in S.
        ``inside[J]`` is set when J lies within one optimal block (a
        down-closed table of 2^ell flags); ``parts`` holds each optimal
        partition as ``(J mask of each block, |P| - 1)``."""
        bit = [0] * self.users.n
        for j, block in enumerate(self.fundamental.blocks):
            for i in bit_positions(block):
                bit[i] = 1 << j
        met = {b: block_set(bit, b) for b in self.optimal_blocks}
        marked = set(met.values())
        inside = bytearray(mask in marked for mask in range(1 << self.ell))
        for j in range(self.ell):
            for mask in range(1 << self.ell):
                if mask >> j & 1 and inside[mask]:
                    inside[mask ^ 1 << j] = 1
        parts = tuple(
            (tuple(met[b] for b in p.blocks), p.n_blocks - 1) for p in self.optimal_partitions
        )
        return bit, inside, parts

    def to_json_dict(self) -> dict:
        """The ``mmi`` and ``partitions`` payload. Each distinct block's label
        list is built once per call, and every partition that has the block
        holds that same list."""
        labels = {b: list(self.users.labels_of(b)) for b in self.optimal_blocks}
        return {
            "gamma": format_rational(self.gamma),
            "optimal_partitions": [
                [labels[b] for b in p.blocks] for p in self.optimal_partitions
            ],
            "fundamental": self.fundamental.to_json(),
            "gap": "inf" if self.gap is None else format_rational(self.gap),
        }


def block_set(bit, mask: int) -> int:
    """J of ``mask``, given ``bit`` of ``MmiResult.block_space``: the mask of
    the fundamental blocks its users lie in (distinct bits sum to their OR)."""
    return sum({bit[i] for i in bit_positions(mask)})


def i_p(source: SourceModel, partition: Partition) -> Fraction:
    """Partition information rate
    ``(sum over blocks of H(Z_C) - H(Z_V)) / (|P| - 1)``."""
    if partition.users != source.users:
        raise GroundSetMismatchError("partition is over a different ground set")
    if partition.n_blocks < 2:
        raise SkaError("partition information rate needs at least two blocks")
    total = sum((source.entropy_mask(b) for b in partition.blocks), Fraction(0))
    return (total - source.entropy_mask(source.users.full_mask)) / (partition.n_blocks - 1)


def scaled_entropies(source: SourceModel) -> tuple[tuple[int, ...], int]:
    """The source's ``integer_table``: ``(ent, scale)`` with ``ent[mask] ==
    scale * H(mask)``, built once per source. Callers look the table up
    here, at one name that ``perfbench`` can time.
    """
    return source.integer_table


def mmi_core(ent: Sequence[int]) -> tuple[Fraction, tuple[int, ...]]:
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


def check_enumeration_cap(n: int, cap: int | None) -> None:
    """Raise EnumerationLimitError when ``n`` users exceed ``cap`` (default
    12), the ground-set bound of :func:`mmi`."""
    limit = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if n > limit:
        raise EnumerationLimitError(
            f"enumeration limit: {n} users exceeds the configured cap of {limit}"
        )


def mmi(source: SourceModel, *, cap: int | None = None) -> MmiResult:
    """gamma, the optimal partitions, the fundamental partition and the gap.

    Above ``cap`` users (default 12) the call raises EnumerationLimitError,
    and on an invalid source a SkaError with its validation report, before
    any other work. A scan over all Bell(n) - 1 multi-block partitions gives
    gamma, the optimal partitions and the gap; :func:`mmi_core` gives the
    fundamental partition. The scan took 0.41 s at n=10, 2.4 s at n=11 and
    14.8 s at n=12 on random hypergraphs (Python 3.11.7, one Xeon core), and
    each further user multiplies that by Bell(n+1)/Bell(n), 6.6 at n=13.

    The scan's minimisers are block-mask tuples that are already disjoint,
    covering and in canonical block order, so they are sorted as tuples
    (the order of ``p.blocks``) and each becomes a :class:`Partition`
    without the checks of the public constructor. On one edge over 10 users
    (115,974 optimal partitions) that step takes 0.13 s on the same core,
    against 0.44 s for the checked constructor and a sort by ``p.blocks``.
    """
    users = source.users
    n = users.n
    check_enumeration_cap(n, cap)
    report = source.validate()
    if not report.ok:
        raise SkaError(f"not a valid source:\n{report}")
    ent, scale = scaled_entropies(source)
    best_num, best_den, minimizers, run_num, run_den, has_run = (
        kernel.minimize_over_partitions(n, ent)
    )
    gamma = Fraction(best_num, best_den) / scale
    core_gamma, blocks = mmi_core(ent)
    if core_gamma / scale != gamma:
        raise ConsistencyError("subset core and scan disagree on gamma; this indicates a bug")
    optimal = tuple(Partition._from_canonical(users, found) for found in sorted(minimizers))
    gap = Fraction(run_num, run_den) / scale - gamma if has_run else None
    return MmiResult(
        users=users,
        gamma=gamma,
        optimal_partitions=optimal,
        fundamental=Partition(users, blocks),
        gap=gap,
    )
