"""Partition information rates, the MMI, and the optimal-partition set.

The multivariate mutual information (MMI) of a source is

    I(Z_V) = min over partitions P with >= 2 blocks of
             I_P = (sum over blocks C of H(Z_C) - H(Z_V)) / (|P| - 1),

and equals the secrecy capacity of the corresponding secret key agreement
problem without helpers. :func:`mmi` answers from one integer table, by
subset work only:

* the subset core :func:`mmi_core` yields gamma and the fundamental
  partition F (the unique finest minimizer), by Dinkelbach iteration over
  Dilworth truncations at 2^n per step. Callers that need nothing else
  (the ``verify`` replays) use it directly;
* :func:`zero_set_pass`, over the 2^ell index sets of F's blocks, yields
  the zero sets of g. Every optimal partition coarsens F, and a partition
  with at least two blocks is optimal exactly when each of its blocks is
  the union of a zero index set (Chan, Al-Bashabsheh and Zhou, "Change of
  multivariate mutual information: from local to global", IEEE Trans. IT
  2018). The optimal partitions are therefore the set partitions of F's
  block indices into zero index sets;
* the optimality gap, which bounds how far the source can be perturbed
  without reshuffling the minimizers, is the least rate of a partition
  with a block that is not such a union. A Dinkelbach iteration finds it
  from above, started at the least rate of a few cheap such partitions,
  with a subset DP of 3^(n-1)/2 steps per step; it mostly takes one step.

:func:`mmi` rejects an invalid source before any of them runs. The
entropies are rescaled to integers (the least common multiple of the value
denominators), once per source; gamma and the gap are converted back to
exact rationals at the end. The Bell(n) scan in :mod:`ska.kernel` is the
tests' twin of all three answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Sequence

# No route here calls the scan in ``kernel``; the import keeps ``ska.kernel``
# bound, where ``perfbench`` looks it up.
from . import kernel  # noqa: F401
from .errors import ConsistencyError, EnumerationLimitError, GroundSetMismatchError, SkaError
from .partitions import Partition, bit_positions
from .rationals import format_rational
from .source_model import SourceModel, UserSet

DEFAULT_ENUMERATION_CAP = 12
# Binary digits to flag bytes, for ``MmiResult.block_space``.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


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
        down-closed table of 2^ell flags, closed in ell passes over the
        whole table as one big integer); ``parts`` holds each optimal
        partition as ``(J mask of each block, |P| - 1)``."""
        bit = [0] * self.users.n
        for j, block in enumerate(self.fundamental.blocks):
            for i in bit_positions(block):
                bit[i] = 1 << j
        met = {b: block_set(bit, b) for b in self.optimal_blocks}
        # Bit J of ``table`` flags J. Pass j flags J - {j} wherever J is
        # flagged, for every J that holds block j at once (``with_j``).
        size = 1 << self.ell
        table = sum(1 << mask for mask in set(met.values()))
        every = (1 << size) - 1
        for j in range(self.ell):
            half = 1 << j
            with_j = (((1 << half) - 1) << half) * (every // ((1 << 2 * half) - 1))
            table |= (table & with_j) >> half
        inside = bytearray(format(table, f"0{size}b")[::-1].encode().translate(_DIGIT_FLAGS))
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


def mmi_core(
    ent: Sequence[int], start: Sequence[int] | None = None
) -> tuple[Fraction, tuple[int, ...]]:
    """gamma and the fundamental partition from an integer entropy table.

    ``ent[mask]`` is a scaled entropy (as from :func:`scaled_entropies`) of a
    valid source; the returned gamma is in the same units. Dinkelbach
    iteration over Dilworth truncations: for lambda = p/q, the step
    ``x_j = min over B within users 0..j-1 of q*h(B+j) - p - x(B)`` runs
    over 2^n subsets in all, and merging j with every block that meets the
    least minimiser yields the finest partition minimising
    ``sum over blocks C of (q*h(C) - p)``. Starting from I_P of ``start``
    (block masks of a partition with at least two blocks; the singletons
    when ``None``), lambda moves to I_P of that partition until the minimum
    is ``q*h(V) - p``; then lambda is gamma and the partition is
    fundamental. Every start rates gamma or more, so each start gives the
    same answer; one near the answer saves steps.
    """
    n = len(ent).bit_length() - 1
    full = (1 << n) - 1
    if start is None:
        start = [1 << i for i in range(n)]
    p, q = sum(ent[b] for b in start) - ent[full], len(start) - 1
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


def zero_set_pass(
    ent: Sequence[int], gamma: Fraction, blocks: tuple[int, ...]
) -> tuple[list[int], list[int]]:
    """Zero index sets of g over ``blocks``, ascending, and the union mask
    of every index set.

    ``ent`` is an integer entropy table and ``gamma`` is in its units.
    Multiplied by the denominator D of gamma, ``g * D`` is an integer. Each
    index set B extends ``B ^ lowbit(B)`` by one block, so its union mask
    and its sum of block residuals cost one step each.
    """
    ell = len(blocks)
    den = gamma.denominator
    gamma_d = gamma.numerator
    residuals = [ent[mask] * den - gamma_d for mask in blocks]
    union = [0] * (1 << ell)
    residual_sum = [0] * (1 << ell)
    found = [0]
    for b in range(1, 1 << ell):
        low = b & -b
        rest = b ^ low
        i = low.bit_length() - 1
        u = union[b] = union[rest] | blocks[i]
        r = residual_sum[b] = residual_sum[rest] + residuals[i]
        if ent[u] * den - gamma_d == r:
            found.append(b)
    return found, union


def _optimal_family(zero, union) -> list[tuple[int, ...]]:
    """Every partition of the fundamental block indices into zero index sets
    with at least two blocks, as tuples of user masks in ascending order.

    ``zero`` flags the zero index sets and ``union`` maps an index set to
    its user mask (both from :func:`zero_set_pass`). The block that holds
    the lowest remaining index comes first, so each tuple is in canonical
    block order; the heads are taken in ascending user mask and the tails of
    each remaining index set are memoised in ascending order, so the list
    comes out sorted, in the order of ``p.blocks``.
    """
    full = len(zero) - 1
    memo = {0: [()]}

    def heads(rest: int) -> list[int]:
        low = rest & -rest
        others = rest ^ low
        found = []
        sub = others
        while True:
            if zero[low | sub]:
                found.append(low | sub)
            if not sub:
                return sorted(found, key=union.__getitem__)
            sub = (sub - 1) & others

    def tails(rest: int) -> list[tuple[int, ...]]:
        if rest not in memo:
            memo[rest] = [(union[z],) + t for z in heads(rest) for t in tails(rest ^ z)]
        return memo[rest]

    return [(union[z],) + t for z in heads(full) if z != full for t in tails(full ^ z)]


def _least_bad_partition(ent: Sequence[int], good, p: int, q: int) -> tuple[int, int]:
    """The least ``sum over blocks C of (q*h(C) - p)`` over the partitions
    of the ground set that have a bad block, and the block count of one
    partition that attains it.

    ``good[C]`` flags the blocks of optimal partitions and the ground set.
    ``ent`` is nonnegative and largest at the ground set, and ``p >= 0``,
    as for an entropy table at lambda >= 0; that bounds every key. Each
    partial sum is a key ``value * stride + block count``, so one
    ``min`` keeps the count of a minimiser. Two states per subset S, the
    least over partitions of S into good blocks and the least over those
    with a bad block, recurse on the block C that holds S's lowest user.
    Every rest ``S ^ C`` then lacks user 0, so the states are kept for the
    subsets of the other users, and the ground set is combined from them
    once at the end: 3^(n-1)/2 + 2^(n-1) steps. The subsets of each rest
    are listed once and shared by every lowest user below it; only the
    lists of one chain of rests are alive at a time, 2^n entries at most.
    """
    n = len(ent).bit_length() - 1
    size = 1 << n
    stride = n + 1
    bound = (n * (q * ent[-1] + p) + 1) * stride  # above |key| of any partial partition
    inf = 3 * bound  # a key that holds inf stays above 2 * bound
    weight = [(q * e - p) * stride + 1 for e in ent]
    bad_weight = [inf if g else w for g, w in zip(good, weight)]
    goods_by_low: list[list[int]] = [[] for _ in range(n)]
    for c in range(1, size):
        if good[c]:
            goods_by_low[(c & -c).bit_length() - 1].append(c)
    any_key = [inf] * size
    bad_key = [inf] * size
    good_key = [inf] * size
    any_key[0] = good_key[0] = 0
    top = size - 2  # the ground set without user 0
    chain = [(0, [0])]
    for rest in range(0, size, 2):
        low = rest & -rest or size
        if low == 2 and rest != top:
            continue  # its one set, rest | 1, holds user 0 and is never read
        if rest:
            while chain[-1][0] != rest ^ low:
                chain.pop()
            subs = chain[-1][1]
            subs = subs + [r | low for r in subs]
            chain.append((rest, subs))
        else:
            subs = [0]
        bit = 1 if rest == top else 2
        while bit < low:
            s = rest | bit
            best_bad = min([bad_weight[s ^ r] + any_key[r] for r in subs])
            best_good = inf
            heads = goods_by_low[bit.bit_length() - 1]
            if len(heads) < len(subs):
                heads = [c for c in heads if c | s == s]
            else:
                heads = [s ^ r for r in subs if good[s ^ r]]
            for c in heads:
                w = weight[c]
                r = s ^ c
                if w + bad_key[r] < best_bad:
                    best_bad = w + bad_key[r]
                if w + good_key[r] < best_good:
                    best_good = w + good_key[r]
            bad_key[s] = best_bad
            good_key[s] = best_good
            any_key[s] = min(best_bad, best_good)
            bit <<= 1
    return divmod(bad_key[-1], stride)


def _gap(ent: Sequence[int], gamma: Fraction, good, blocks: tuple[int, ...]) -> Fraction | None:
    """The optimality gap in table units; ``None`` when every nonempty
    subset is good, so that every partition is optimal.

    Dinkelbach iteration over the partitions with a bad block, from above.
    lambda starts at the least rate of the cheap ones, rated from the
    table: every bipartition with a bad side (some set is bad, so one
    exists), F (``blocks``) with one user split off its block, and F with
    two blocks merged into a bad block. At lambda = p/q,
    :func:`_least_bad_partition` gives the least
    ``q*(sum h(C) - h(V)) - p*(|P| - 1)``, whose minimiser rates lambda or
    less; lambda moves to that rate until it stays, and is then the least
    rate of a partition outside the optimal family. That rate checks the
    family: gamma or less raises. A partition of good blocks rates gamma
    exactly, once F does, so no partition rates below gamma either.
    """
    if all(good[1:]):
        return None
    full = len(ent) - 1
    whole = ent[full]
    bipartition = Fraction(
        min(ent[c] + ent[full ^ c] for c in range(1, full, 2) if not good[c] or not good[full ^ c])
        - whole
    )
    ell = len(blocks)
    base = sum(ent[b] for b in blocks) - whole
    splits = [
        Fraction(base - ent[b] + ent[b ^ 1 << i] + ent[1 << i], ell)
        for b in blocks
        for i in bit_positions(b)
        if b != 1 << i
    ]
    # V is good, so a bad merged block leaves at least two blocks.
    merges = [
        Fraction(base - ent[b] - ent[c] + ent[b | c], ell - 2)
        for b, c in combinations(blocks, 2)
        if not good[b | c]
    ]
    lam = min([bipartition, *splits, *merges])
    while True:
        p, q = lam.numerator, lam.denominator
        value, count = _least_bad_partition(ent, good, p, q)
        rate = Fraction(value + p * count - q * whole, q * (count - 1))
        if rate == lam:
            break
        lam = rate
    if lam <= gamma:
        raise ConsistencyError(
            "a partition outside the optimal family rates gamma or less; "
            "this indicates a bug"
        )
    return lam - gamma


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
    any other work. Every field is computed here, eagerly:

    * gamma and F from :func:`mmi_core`, 2^n steps per Dinkelbach step;
    * the zero index sets from :func:`zero_set_pass`, 2^ell steps; each
      one's union marks a good block in a table of 2^n flags. F must rate
      gamma, which makes the full index set a zero set;
    * the gap from :func:`_gap`, 3^(n-1)/2 steps per Dinkelbach step, about
      one step per source. Its final rate also checks the optimal family;
    * the optimal partitions from :func:`_optimal_family`, one tuple each,
      in the order of ``p.blocks``. Their blocks are disjoint, covering and
      in canonical order, so each becomes a :class:`Partition` without the
      checks of the public constructor.

    A failed check raises ConsistencyError. On random hypergraphs (Python
    3.11.7, one Xeon core) the call takes about 0.0012 s at n=10, 0.003 s
    at n=11 and 0.007 s at n=12, where the Bell(n) scan took 0.41 s, 2.4 s
    and 14.8 s. On one edge over 10 users (115,974 optimal partitions) it
    takes 0.13-0.16 s, two thirds of it building the Partition objects. The
    cap now bounds the size of the optimal list: one edge over 12 users has
    4,213,597 optimal partitions.
    """
    users = source.users
    check_enumeration_cap(users.n, cap)
    report = source.validate()
    if not report.ok:
        raise SkaError(f"not a valid source:\n{report}")
    ent, scale = scaled_entropies(source)
    gamma, blocks = mmi_core(ent)
    found, union = zero_set_pass(ent, gamma, blocks)
    zero = bytearray(len(union))
    good = bytearray(len(ent))
    for index_set in found[1:]:
        zero[index_set] = 1
        good[union[index_set]] = 1
    if not zero[-1]:
        raise ConsistencyError(
            "the fundamental partition does not rate gamma; this indicates a bug"
        )
    gap = _gap(ent, gamma, good, blocks)
    optimal = tuple(Partition._from_canonical(users, t) for t in _optimal_family(zero, union))
    return MmiResult(
        users=users,
        gamma=gamma / scale,
        optimal_partitions=optimal,
        fundamental=Partition(users, blocks),
        gap=None if gap is None else gap / scale,
    )
