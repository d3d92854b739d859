"""Shared fixtures, independent reference oracles and test-only generators.

The oracles here deliberately avoid the production code paths they are used
to check: ``mmi_reference`` evaluates partition rates directly with exact
fractions over its own partition walk (``enumerate_partitions``; no integer
rescaling, no kernel), ``ip_by_edge_crossings`` recomputes partition rates
from edge-crossing counts instead of entropies, and
``measured_rate_by_rescan`` replays a perturbation with a full ``mmi``
instead of the subset core. ``growth_rate_by_partitions`` and
``loss_rate_by_partitions`` walk every optimal partition instead of reading
``MmiResult.block_space``, and ``growth_curve_by_subsets`` rates every
subset with the first of them instead of working on sets of fundamental
blocks. ``inside_by_masks`` down-closes the zero table of the block space
one mask at a time, and ``greedy_edge_by_block_sets`` recomputes J for
every candidate of the shrinking scan. ``zero_sets`` and
``ResidualFunction`` are the table-side and formula-side views of g that
the structure tests compare with ``MmiResult.optimal_blocks``. No ``ska`` command reaches any of these, so
they live here rather than in the package.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import pytest

import ska
from ska import (
    EntropyTable,
    HypergraphicalSource,
    SkaError,
    UserSet,
    WeightedEdge,
    i_p,
    mmi,
    pin_source,
)
from ska.mmi import block_set
from ska.random_instances import random_hypergraphical
from ska.structure import ZssFunction, zero_set_pass

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = REPO_ROOT / "corpus"

# Source documents the parser must reject, each with the field it must name.
# A string of labels would otherwise be read one character per label.
NON_LIST_DOCUMENTS = {
    "users-string": (
        {"users": "123", "model": "hypergraph", "edges": [{"members": ["1", "2"], "weight": "1"}]},
        "users",
    ),
    "users-number": ({"users": 5, "model": "hypergraph", "edges": []}, "users"),
    "members-string": (
        {"users": ["1", "2"], "model": "hypergraph", "edges": [{"members": "12", "weight": "1"}]},
        "members",
    ),
}
# "1,2" and "2,1" name the same subset.
TABLE_WITH_A_SUBSET_TWICE = {
    "users": ["1", "2"],
    "model": "table",
    "entropy": {"1": "1", "2": "1", "1,2": "3/2", "2,1": "2"},
}


def users(n: int) -> UserSet:
    return UserSet(tuple(str(i + 1) for i in range(n)))


class Partition(ska.Partition):
    """``ska.Partition`` with two test-only helpers, ``of`` and ``meet``.
    Every constructor here returns a plain ``ska.Partition``, so the values
    compare equal to the ones ``mmi`` returns."""

    def __new__(cls, users: UserSet, blocks) -> ska.Partition:
        return ska.Partition(users, blocks)

    @staticmethod
    def of(users: UserSet, blocks: Iterable) -> ska.Partition:
        """Build from blocks given as masks or label iterables."""
        return ska.Partition(users, tuple(users.as_mask(b) for b in blocks))

    @staticmethod
    def meet(p: ska.Partition, q: ska.Partition) -> ska.Partition:
        """Coarsest common refinement: all nonempty pairwise intersections."""
        if p.users != q.users:
            raise ska.GroundSetMismatchError("partitions are over different ground sets")
        inter = [b & c for b in p.blocks for c in q.blocks]
        return ska.Partition(p.users, tuple(m for m in inter if m))


def restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """All restricted growth strings of length ``n``, lexicographically.

    String ``a`` encodes the partition in which elements ``i`` and ``j``
    share a block iff ``a[i] == a[j]``; block numbers appear in order of
    first use, so decoding yields blocks sorted by minimum element.
    """
    if n < 1:
        raise SkaError("ground set must be nonempty")
    a = [0] * n
    b = [1] * n  # b[i] = 1 + max(a[:i]); the ceiling for a[i]
    while True:
        yield tuple(a)
        j = n - 1
        while j > 0 and a[j] == b[j]:
            j -= 1
        if j == 0:
            return
        a[j] += 1
        m = b[j] if b[j] > a[j] + 1 else a[j] + 1
        for k in range(j + 1, n):
            a[k] = 0
            b[k] = m


def partition_from_rgs(users: UserSet, rgs: Sequence[int]) -> ska.Partition:
    """Decode a restricted growth string into a canonical partition."""
    blocks = [0] * (max(rgs) + 1)
    for i, c in enumerate(rgs):
        blocks[c] |= 1 << i
    return ska.Partition(users, tuple(blocks))


def enumerate_partitions(users: UserSet, min_blocks: int = 1) -> Iterator[ska.Partition]:
    """Yield every partition of the ground set with at least ``min_blocks``
    blocks, exactly once, in restricted-growth-string order (the order of
    the scan in ``ska.kernel``)."""
    n = users.n
    if not 1 <= min_blocks <= n:
        raise SkaError(f"min_blocks must lie in 1..{n}, got {min_blocks}")
    for rgs in restricted_growth_strings(n):
        if max(rgs) + 1 >= min_blocks:
            yield partition_from_rgs(users, rgs)


class ResidualFunction(ZssFunction):
    """``ska``'s g, plus its defining formula at the empty set."""

    def formula_value(self, index_set: int) -> Fraction:
        """The defining expression without the empty-set convention: at the
        empty set it equals ``-gamma``, which is the value under which the
        function is submodular across all pairs. :meth:`value` pins the
        empty set to 0 instead, purely for zero-set bookkeeping; no
        minimization ever evaluates the empty set."""
        if index_set == 0:
            return -self.gamma
        return self.value(index_set)


def build_g(source, result) -> ResidualFunction:
    """``ska.build_g`` as a :class:`ResidualFunction`."""
    g = ska.build_g(source, result)
    return ResidualFunction(g.source, g.gamma, g.block_masks)


def zero_sets(g: ZssFunction) -> tuple[int, ...]:
    """All index sets with ``g == 0``, ascending; by construction this
    includes the empty set, every singleton and the full index set. One
    exact integer pass (``zero_set_pass``) over the scaled table."""
    ent, scale = g.source.integer_table
    found, _ = zero_set_pass(ent, g.gamma * scale, g.block_masks)
    return tuple(found)


def random_tree_pin(rng: random.Random, n: int) -> HypergraphicalSource:
    """Random unit-weight tree on users "1".."n" (uniform attachment)."""
    edges = [(rng.randint(1, i), i + 1, 1) for i in range(1, n)]
    return pin_source(edges, users=users(n))


def random_non_coverage_table(rng: random.Random, n: int) -> EntropyTable:
    """Random valid entropy table on users "1".."n" (n >= 3) that no
    hypergraph produces: ``coverage(S) + c * min(|S & W|, r)``.

    The coverage part is a random tree or hypergraph; ``W`` has at least 3
    users, ``1 < r < |W|`` and c > 0. Adding a uniform-matroid rank keeps
    the table normalized, monotone and submodular. That rank term puts the
    Moebius weight ``-c * (|W| - r)`` on every set of ``|W| - r + 2`` users
    inside W; coverage edges on exactly those sets are dropped, so the
    weight stays negative and the table is not a coverage function.
    """
    if n < 3:
        raise ValueError("a non-coverage table needs at least 3 users")
    cover = random_tree_pin(rng, n) if rng.random() < 0.5 else random_hypergraphical(rng, n)
    w = rng.choice([m for m in range(1 << n) if m.bit_count() >= 3])
    c = Fraction(rng.randint(1, 6), rng.randint(1, 6))
    size = w.bit_count()
    r = rng.randint(2, size - 1)
    negative_size = size - r + 2
    edges = [
        (emask, e.weight)
        for emask, e in zip(cover.edge_masks, cover.edges)
        if emask & ~w or emask.bit_count() != negative_size
    ]
    values = [
        sum((weight for emask, weight in edges if emask & m), Fraction(0))
        + c * min((m & w).bit_count(), r)
        for m in range(1 << n)
    ]
    return EntropyTable(cover.users, tuple(values))


def hyper(n: int, *edges) -> HypergraphicalSource:
    """Source on users "1".."n" from (members, weight) pairs."""
    u = users(n)
    return HypergraphicalSource(
        u, tuple(WeightedEdge(frozenset(m), Fraction(w)) for m, w in edges)
    )


@pytest.fixture
def base3():
    """Two shared bits: one on all three users, one on users 1 and 2."""
    return hyper(3, (("1", "2", "3"), 1), (("1", "2"), 1))


@pytest.fixture
def base3_boosted(base3):
    return base3.increment(("2", "3"), 1)


@pytest.fixture
def pair_only():
    """Users 1 and 2 share a bit; user 3 observes nothing."""
    return hyper(3, (("1", "2"), 1))


@pytest.fixture
def overlap3():
    """Doubled edge on {1,2} plus single bits on {1,3} and {2,3}."""
    return hyper(3, (("1", "2"), 1), (("1", "2"), 1), (("1", "3"), 1), (("2", "3"), 1))


@pytest.fixture
def tree4():
    """Unit path 1-2-3-4."""
    return pin_source([(1, 2, 1), (2, 3, 1), (3, 4, 1)])


@pytest.fixture
def star4():
    """Unit star with center 1 and leaves 2, 3, 4."""
    return pin_source([(1, 2, 1), (1, 3, 1), (1, 4, 1)])


def mmi_reference(source):
    """Independent MMI oracle: direct fraction evaluation of every partition.

    Returns ``(gamma, optimal, fundamental, gap)`` with ``optimal`` sorted
    canonically and ``gap`` None when every partition is optimal.
    """
    values = [(i_p(source, p), p) for p in enumerate_partitions(source.users, 2)]
    gamma = min(v for v, _ in values)
    optimal = tuple(sorted((p for v, p in values if v == gamma), key=lambda p: p.blocks))
    above = [v for v, _ in values if v > gamma]
    gap = min(above) - gamma if above else None
    finest = max(optimal, key=lambda p: p.n_blocks)
    assert all(finest.refines(p) for p in optimal)
    return gamma, optimal, finest, gap


def measured_rate_by_rescan(source, result, mask, mode, eps):
    """Replay oracle: the full ``mmi`` of the perturbed source, and
    containment as a comparison of the two optimal-partition sets."""
    if mode == "increment":
        new = mmi(source.increment(mask, eps)) if mask else result
        measured = (new.gamma - result.gamma) / eps
    else:
        new = mmi(source.decrement(mask, eps))
        measured = (result.gamma - new.gamma) / eps
    return measured, set(new.optimal_partitions) <= set(result.optimal_partitions)


def crossings(partition: ska.Partition, mask: int) -> int:
    """Number of blocks of ``partition`` that ``mask`` meets."""
    return sum(1 for b in partition.blocks if b & mask)


def growth_rate_by_partitions(result, mask: int) -> Fraction:
    """Growth-rate oracle: min over optimal partitions P of
    ``(blocks crossed - 1) / (|P| - 1)``; 0 for the empty subset."""
    if mask == 0:
        return Fraction(0)
    return min(
        Fraction(crossings(p, mask) - 1, p.n_blocks - 1) for p in result.optimal_partitions
    )


def loss_rate_by_partitions(result, mask: int) -> Fraction:
    """Loss-rate oracle: max over optimal partitions of
    ``(blocks crossed - 1) / (|P| - 1)``."""
    return max(
        Fraction(crossings(p, mask) - 1, p.n_blocks - 1) for p in result.optimal_partitions
    )


def growth_curve_by_subsets(source, result, k_max=None) -> tuple[tuple, tuple]:
    """Curve oracle: ``(values, witnesses)`` of the growth curve by rating
    every subset of each size with ``growth_rate_by_partitions``, in
    ``itertools.combinations`` order; the best is replaced only on a strict
    increase, and a size stops at the ceiling 1."""
    n = source.users.n
    values, witnesses = [Fraction(0)], [0]
    best, best_witness = Fraction(0), 0
    for k in range(1, (n if k_max is None else k_max) + 1):
        if best < 1:
            for combo in itertools.combinations(range(n), k):
                mask = sum(1 << i for i in combo)
                rate = growth_rate_by_partitions(result, mask)
                if rate > best:
                    best, best_witness = rate, mask
                    if best == 1:
                        break
        values.append(best)
        witnesses.append(best_witness)
    return tuple(values), tuple(witnesses)


def inside_by_masks(result) -> bytearray:
    """Zero-table oracle: the J masks of the optimal blocks flagged in a
    table of 2^ell bytes, then down-closed one mask at a time, ell * 2^ell
    steps in all."""
    index = {}
    for j, block in enumerate(result.fundamental.blocks):
        for i in range(result.users.n):
            if block >> i & 1:
                index[i] = j
    marked = {
        sum({1 << index[i] for i in index if b >> i & 1}) for b in result.optimal_blocks
    }
    inside = bytearray(mask in marked for mask in range(1 << result.ell))
    for j in range(result.ell):
        for mask in range(1 << result.ell):
            if mask >> j & 1 and inside[mask]:
                inside[mask ^ 1 << j] = 1
    return inside


def greedy_edge_by_block_sets(source, result) -> tuple[str, ...]:
    """Greedy-edge oracle: the shrinking scan in label order, with J of
    every candidate recomputed by ``block_set`` over its users."""
    users = source.users
    bit, inside, _ = result.block_space
    current = users.full_mask
    for i in range(users.n):
        candidate = current & ~(1 << i)
        if candidate and not inside[block_set(bit, candidate)]:
            current = candidate
    return users.labels_of(current)


def ip_by_edge_crossings(source: HypergraphicalSource, partition: Partition) -> Fraction:
    """Partition rate from edge crossings:
    sum of w_e * (blocks crossed by e - 1) / (|P| - 1)."""
    total = Fraction(0)
    for mask, edge in zip(source.edge_masks, source.edges):
        total += edge.weight * (crossings(partition, mask) - 1)
    return total / (partition.n_blocks - 1)


def relabel_hypergraph(source: HypergraphicalSource, mapping: dict) -> HypergraphicalSource:
    """Permute which user observes what, keeping the ground set fixed."""
    return HypergraphicalSource(
        source.users,
        tuple(
            WeightedEdge(frozenset(mapping[m] for m in e.members), e.weight)
            for e in source.edges
        ),
    )


def map_partition(partition: Partition, mapping: dict) -> Partition:
    return Partition.of(
        partition.users,
        tuple(tuple(mapping[x] for x in block) for block in partition.label_blocks()),
    )


def random_batch(seed: int, count: int, sizes=(4, 5, 6), max_edges: int = 8, max_den: int = 6):
    """The standard random-hypergraph battery: ``count`` sources with
    n drawn from ``sizes``, 1..max_edges edges, weights p/q with
    p in 0..6 and q in 1..max_den."""
    rng = random.Random(seed)
    batch = []
    for _ in range(count):
        n = rng.choice(sizes)
        batch.append(
            random_hypergraphical(rng, n, max_edges=max_edges, max_denominator=max_den)
        )
    return batch
