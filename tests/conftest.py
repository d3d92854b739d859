"""Shared fixtures and independent reference oracles.

The oracles here deliberately avoid the production code paths they are used
to check: ``mmi_reference`` evaluates partition rates directly with exact
fractions (no integer rescaling, no kernel), and ``ip_by_edge_crossings``
recomputes partition rates from edge-crossing counts instead of entropies,
and ``measured_rate_by_rescan`` replays a perturbation with a full ``mmi``
instead of the subset core.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from ska import (
    HypergraphicalSource,
    Partition,
    UserSet,
    WeightedEdge,
    enumerate_partitions,
    i_p,
    mmi,
    pin_source,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = REPO_ROOT / "corpus"


def users(n: int) -> UserSet:
    return UserSet(tuple(str(i + 1) for i in range(n)))


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


def ip_by_edge_crossings(source: HypergraphicalSource, partition: Partition) -> Fraction:
    """Partition rate from edge crossings:
    sum of w_e * (blocks crossed by e - 1) / (|P| - 1)."""
    total = Fraction(0)
    for mask, edge in zip(source.edge_masks, source.edges):
        total += edge.weight * (partition.blocks_crossed(mask) - 1)
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
    from ska.random_instances import random_hypergraphical

    rng = random.Random(seed)
    batch = []
    for _ in range(count):
        n = rng.choice(sizes)
        batch.append(
            random_hypergraphical(rng, n, max_edges=max_edges, max_denominator=max_den)
        )
    return batch
