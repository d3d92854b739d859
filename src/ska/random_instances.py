"""Seeded random source generators for test batteries and CLI batches.

All generators take an explicit ``random.Random`` so batches are
reproducible from a seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .source_model import EntropyTable, HypergraphicalSource, UserSet, WeightedEdge, pin_source


def _users(n: int) -> UserSet:
    return UserSet(tuple(str(i + 1) for i in range(n)))


def random_hypergraphical(
    rng: random.Random,
    n: int,
    *,
    max_edges: int = 8,
    max_numerator: int = 6,
    max_denominator: int = 6,
) -> HypergraphicalSource:
    """Random weighted hypergraph source on users "1".."n" with 1..max_edges
    edges and nonnegative rational weights with bounded denominators."""
    users = _users(n)
    count = rng.randint(1, max_edges)
    edges = []
    for _ in range(count):
        mask = rng.randrange(1, 1 << n)
        weight = Fraction(rng.randint(0, max_numerator), rng.randint(1, max_denominator))
        edges.append(WeightedEdge(frozenset(users.labels_of(mask)), weight))
    return HypergraphicalSource(users, tuple(edges))


def random_pin(rng: random.Random, n: int, edge_probability: float = 0.5) -> HypergraphicalSource:
    """Random unit-weight pairwise network on users "1".."n" (at least one
    edge)."""
    users = _users(n)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = [p for p in pairs if rng.random() < edge_probability]
    if not chosen:
        chosen = [rng.choice(pairs)]
    return pin_source([(i, j, 1) for i, j in chosen], users=users)


def random_tree_pin(rng: random.Random, n: int) -> HypergraphicalSource:
    """Random unit-weight tree on users "1".."n" (uniform attachment)."""
    users = _users(n)
    edges = [(rng.randint(1, i), i + 1, 1) for i in range(1, n)]
    return pin_source(edges, users=users)


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
    w = rng.choice([m for m in range(1 << n) if bin(m).count("1") >= 3])
    c = Fraction(rng.randint(1, 6), rng.randint(1, 6))
    size = bin(w).count("1")
    r = rng.randint(2, size - 1)
    negative_size = size - r + 2
    edges = [
        (emask, e.weight)
        for emask, e in zip(cover.edge_masks, cover.edges)
        if emask & ~w or bin(emask).count("1") != negative_size
    ]
    values = [
        sum((weight for emask, weight in edges if emask & m), Fraction(0))
        + c * min(bin(m & w).count("1"), r)
        for m in range(1 << n)
    ]
    return EntropyTable(cover.users, tuple(values))
