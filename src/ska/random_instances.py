"""Seeded random sources for ``ska conjecture --batch``.

Both generators take an explicit ``random.Random`` so batches are
reproducible from a seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .source_model import HypergraphicalSource, UserSet, WeightedEdge, pin_source


def _users(n: int) -> UserSet:
    return UserSet(tuple(str(i + 1) for i in range(n)))


def random_hypergraphical(
    rng: random.Random,
    n: int,
    *,
    max_edges: int = 8,
    max_denominator: int = 6,
) -> HypergraphicalSource:
    """Random weighted hypergraph source on users "1".."n" with 1..max_edges
    edges and weights p/q, p in 0..6 and q in 1..max_denominator."""
    users = _users(n)
    count = rng.randint(1, max_edges)
    edges = []
    for _ in range(count):
        mask = rng.randrange(1, 1 << n)
        weight = Fraction(rng.randint(0, 6), rng.randint(1, max_denominator))
        edges.append(WeightedEdge(frozenset(users.labels_of(mask)), weight))
    return HypergraphicalSource(users, tuple(edges))


def random_pin(rng: random.Random, n: int) -> HypergraphicalSource:
    """Random unit-weight pairwise network on users "1".."n": each pair is
    an edge with probability 1/2, and at least one pair is."""
    users = _users(n)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = [p for p in pairs if rng.random() < 0.5]
    if not chosen:
        chosen = [rng.choice(pairs)]
    return pin_source([(i, j, 1) for i, j in chosen], users=users)
