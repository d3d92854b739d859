"""Seeded source generators and the four workload plans.

Every source is produced as a JSON source document (the format
``ska.source_from_json_dict`` parses), from the seed alone,
so the program under test only ever sees documents. The deterministic
families (path, star, cycle, complete graph, one hyperedge over all users)
do not depend on the seed; their references are therefore computed once per
checkout and then read from the reference cache.

A plan is the list of ``(source index, op kind)`` steps that make one pass.
Each workload has a fixed composition (families, sizes and repeats), so two
seeds differ only in the structure of the random sources, never in the mix.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Candidate budget for the filtered random families; a seed that exhausts it
# is a generator bug, not a workload property.
MAX_TRIES = 2000


def users(n: int) -> list[str]:
    return [str(i + 1) for i in range(n)]


def subset_key(mask: int, n: int) -> str:
    return ",".join(str(i + 1) for i in range(n) if mask >> i & 1)


def hypergraph_doc(n: int, edges) -> dict:
    """Document of a hypergraph source from ``(member mask, weight)`` pairs."""
    return {
        "users": users(n),
        "model": "hypergraph",
        "edges": [
            {"members": [str(i + 1) for i in range(n) if mask >> i & 1], "weight": str(Fraction(w))}
            for mask, w in edges
        ],
    }


def pin_doc(n: int, pairs) -> dict:
    """Unit-weight pairwise network on users 1..n from 1-based pairs."""
    return hypergraph_doc(n, [((1 << (i - 1)) | (1 << (j - 1)), 1) for i, j in pairs])


def path(n: int) -> dict:
    return pin_doc(n, [(i, i + 1) for i in range(1, n)])


def star(n: int) -> dict:
    return pin_doc(n, [(1, i) for i in range(2, n + 1)])


def cycle(n: int) -> dict:
    return pin_doc(n, [(i, i % n + 1) for i in range(1, n + 1)])


def complete(n: int) -> dict:
    return pin_doc(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def hyperedge(n: int) -> dict:
    """One unit edge over all users: every multi-block partition is optimal."""
    return hypergraph_doc(n, [((1 << n) - 1, 1)])


def random_tree(rng: random.Random, n: int) -> dict:
    """Unit-weight tree by uniform attachment."""
    return pin_doc(n, [(rng.randint(1, i), i + 1) for i in range(1, n)])


def _random_pin_pairs(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = [pair for pair in pairs if rng.random() < p]
    return chosen or [rng.choice(pairs)]


def _random_edges(rng: random.Random, n: int, max_edges: int = 8) -> list[tuple[int, Fraction]]:
    """Same law as ``ska.random_instances.random_hypergraphical``: 1..8
    edges on uniform nonempty member sets, weights a/b with a in 0..6 and
    b in 1..6 (so zero-weight edges occur)."""
    return [
        (rng.randrange(1, 1 << n), Fraction(rng.randint(0, 6), rng.randint(1, 6)))
        for _ in range(rng.randint(1, max_edges))
    ]


def _connected(n: int, masks) -> bool:
    """Whether the edges (member masks) connect all n users."""
    reached = 1
    grown = True
    while grown:
        grown = False
        for mask in masks:
            if mask & reached and mask & ~reached:
                reached |= mask
                grown = True
    return reached == (1 << n) - 1


def random_connected_pin(rng: random.Random, n: int, p: float = 0.4) -> dict:
    """Random unit PIN, redrawn until connected: a disconnected source has
    gamma 0 and a large optimal set, which would swamp the scan cost."""
    for _ in range(MAX_TRIES):
        pairs = _random_pin_pairs(rng, n, p)
        if _connected(n, [(1 << (i - 1)) | (1 << (j - 1)) for i, j in pairs]):
            return pin_doc(n, pairs)
    raise RuntimeError(f"no connected random PIN at n={n}")


def random_dense_pin(rng: random.Random, n: int, p: float = 0.4) -> dict:
    """Random unit PIN that passes the necessary test for the singleton
    partition being the unique optimum: every 2-block cut exceeds
    ``m / (n - 1)``. The caller confirms with the reference route."""
    for _ in range(MAX_TRIES):
        pairs = _random_pin_pairs(rng, n, p)
        masks = [(1 << (i - 1)) | (1 << (j - 1)) for i, j in pairs]
        m = len(masks)
        full = (1 << n) - 1
        # Subsets containing user 1 cover every 2-block cut exactly once.
        if all(
            sum(1 for e in masks if e & side and e & ~side) * (n - 1) > m
            for side in range(1, full, 2)
        ):
            return pin_doc(n, pairs)
    raise RuntimeError(f"no dense random PIN at n={n}")


def random_connected_hypergraph(rng: random.Random, n: int) -> dict:
    """Random weighted hypergraph whose positive-weight edges connect all
    users (zero-weight edges are kept, as the ska generator emits them)."""
    for _ in range(MAX_TRIES):
        edges = _random_edges(rng, n)
        if _connected(n, [mask for mask, w in edges if w > 0]):
            return hypergraph_doc(n, edges)
    raise RuntimeError(f"no connected random hypergraph at n={n}")


def non_coverage_table(rng: random.Random, n: int) -> dict:
    """Entropy table ``h(S) = coverage(S) + c * min(|S|, r)`` with a connected
    positive-weight coverage part, ``c > 0`` and ``1 < r < n``. The uniform
    matroid rank term makes it a valid entropy function that is not a
    coverage function."""
    for _ in range(MAX_TRIES):
        edges = [(mask, w) for mask, w in _random_edges(rng, n) if w > 0]
        if _connected(n, [mask for mask, _ in edges]):
            break
    else:
        raise RuntimeError(f"no connected coverage part at n={n}")
    c = Fraction(rng.randint(1, 6), rng.randint(1, 6))
    r = rng.randint(2, n - 1)
    entropy = {}
    for mask in range(1, 1 << n):
        cover = sum((w for emask, w in edges if emask & mask), Fraction(0))
        entropy[subset_key(mask, n)] = str(cover + c * min(bin(mask).count("1"), r))
    return {"users": users(n), "model": "table", "entropy": entropy}


class Workload:
    """Sources (documents with a family label) and the plan of one pass."""

    def __init__(self):
        self.docs: list[dict] = []
        self.families: list[str] = []
        self.plan: list[tuple[int, str]] = []

    def add(self, family: str, doc: dict) -> int:
        self.docs.append(doc)
        self.families.append(family)
        return len(self.docs) - 1

    def step(self, index: int, kind: str) -> None:
        self.plan.append((index, kind))

    def summary(self) -> dict:
        sizes = [len(doc["users"]) for doc in self.docs]
        return {
            "sources": len(self.docs),
            "ops_per_pass": len(self.plan),
            "n_min": min(sizes),
            "n_max": max(sizes),
            "families": sorted(set(self.families)),
        }


def build(name: str, seed: int, accept_unique) -> Workload:
    """Generate the workload's documents and plan from the seed.

    ``accept_unique(doc)`` must return whether the source has a unique
    optimal partition with one block per user; it decides, by the reference
    route, which random PINs enter the ``report`` workload.
    """
    rng = random.Random(f"{name}:{seed}")
    w = Workload()
    if name == "report":
        # Cheap sources first: the child's untimed warm-up op runs plan[0].
        for family, doc in (
            ("complete", complete(8)),
            ("cycle", cycle(8)),
            ("complete", complete(9)),
            ("cycle", cycle(9)),
        ):
            w.step(w.add(family, doc), "report")
        for n in (8, 8, 9, 9):
            for _ in range(MAX_TRIES):
                doc = random_dense_pin(rng, n)
                if accept_unique(doc):
                    break
            else:
                raise RuntimeError(f"no random PIN with a unique optimum at n={n}")
            w.step(w.add("random-pin", doc), "report")
    elif name == "all-optimal":
        # Every tree on 9 users has 255 optimal partitions, so the n=9 trees
        # cost about the same; they form the middle of the op-time
        # distribution, where the median and the tail percentile of a
        # two-pass run fall, whatever the seed.
        for family, doc in (
            ("path", path(8)),
            ("hyperedge", hyperedge(7)),
            ("path", path(9)),
            ("star", star(9)),
            ("random-tree", random_tree(rng, 9)),
            ("random-tree", random_tree(rng, 9)),
            ("random-tree", random_tree(rng, 9)),
            ("hyperedge", hyperedge(8)),
        ):
            w.step(w.add(family, doc), "report")
        w.step(w.add("hyperedge", hyperedge(10)), "partitions")
    elif name == "verify":
        # Integral sources (all PINs) replay every rate twice, so the four
        # PINs form the middle of the op-time distribution, where the median
        # and the tail percentile of a two-pass run fall.
        for family, n in (
            ("random-hypergraph", 7),
            ("random-pin", 7),
            ("random-pin", 7),
            ("random-hypergraph", 8),
            ("random-hypergraph", 7),
            ("random-pin", 7),
            ("random-pin", 7),
            ("random-hypergraph", 8),
        ):
            doc = random_connected_hypergraph(rng, n) if family == "random-hypergraph" else random_connected_pin(rng, n)
            w.step(w.add(family, doc), "verify")
    elif name == "large-n":
        a = w.add("random-hypergraph", random_connected_hypergraph(rng, 10))
        b = w.add("random-hypergraph", random_connected_hypergraph(rng, 10))
        big = w.add("random-hypergraph", random_connected_hypergraph(rng, 11))
        table = w.add("table", non_coverage_table(rng, 10))
        for index in (a, big, b, table, a, b):
            w.step(index, "mmi")
    else:
        raise ValueError(f"unknown workload {name!r}")
    return w


WORKLOADS = ("report", "all-optimal", "verify", "large-n")
