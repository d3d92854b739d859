"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria are exact (rational equality, zero tolerance) unless stated; the
random batteries are seeded and therefore reproducible.
"""

import random
import time
from fractions import Fraction

import pytest

from ska import (
    critical_edges,
    critical_edges_bruteforce,
    growth_curve,
    is_excess,
    is_unique_optimal,
    mmi,
    perturbation_verify,
    pin_source,
    t_max,
)
from ska.rationals import denominator_lcm
from ska.submodular import LatticeFamily, SetFunctionOracle, minimize_bruteforce, minimize_mnp

from .conftest import Partition, build_g, hyper, random_batch, random_tree_pin, users


def popcount(mask):
    return bin(mask).count("1")


def report(number, started, summary):
    print(f"ACCEPTANCE {number} PASS ({time.perf_counter() - started:.2f}s): {summary}")


@pytest.fixture(scope="module")
def batch():
    """100 random weighted hypergraphs, n in {4,5,6}, up to 8 edges,
    weights p/q with q <= 6, plus their MMI results."""
    sources = random_batch(seed=20240801, count=100)
    return [(source, mmi(source)) for source in sources]


def test_a01_base_example_and_boosts():
    started = time.perf_counter()
    base = hyper(3, (("1", "2", "3"), 1), (("1", "2"), 1))
    assert mmi(base).gamma == 1
    assert mmi(base.increment(("2", "3"), 1)).gamma == 2
    assert mmi(base.increment(("1", "2"), 1)).gamma == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, started, "base capacity 1; boost on {2,3} gives 2; boost on {1,2} keeps 1")


def test_a02_three_user_structure_examples():
    started = time.perf_counter()
    u = users(3)
    split = Partition.of(u, (("1", "2"), ("3",)))
    singles = Partition.of(u, (("1",), ("2",), ("3",)))

    first = hyper(3, (("1", "2"), 1))
    res1 = mmi(first)
    assert res1.optimal_partitions == (split,)
    crit1 = critical_edges(first, res1)
    assert crit1.edge_labels() == (("1", "3"), ("2", "3"))
    assert is_unique_optimal(first, res1) is True

    second = hyper(
        3, (("1", "2"), 1), (("1", "2"), 1), (("1", "3"), 1), (("2", "3"), 1)
    )
    res2 = mmi(second)
    assert res2.optimal_partitions == (singles, split)
    tm2 = t_max(second, res2)
    assert tm2.case == "T1"
    assert tm2.t_max_labels() == (("1", "2"), ("3",))
    crit2 = critical_edges(second, res2, tm2)
    assert crit2.edge_labels() == (("1", "3"), ("2", "3"))
    assert is_unique_optimal(second, res2) is False

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(2, started, "both three-user sources: optima, maximal blocks, critical edges, uniqueness")


def test_a03_tree_reports():
    started = time.perf_counter()
    tree = pin_source([(1, 2, 1), (2, 3, 1), (3, 4, 1)])
    result = mmi(tree)
    tm = t_max(tree, result)
    assert tm.case == "T2"
    assert tm.t_max_labels() == (("1", "2", "3"), ("2", "3", "4"))
    assert tm.complement_labels() == (("4",), ("1",))
    crit = critical_edges(tree, result, tm)
    assert crit.edge_labels() == (("1", "4"),)
    curve = growth_curve(tree, result)
    assert tuple(curve.values[1:]) == (
        Fraction(0),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(1),
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(3, started, "tree: maximal blocks, complements, critical edge {1,4}, curve (0,1/3,1/2,1)")


def test_a04_rate_formulas_match_perturbation(batch):
    started = time.perf_counter()
    subsets = edges = 0
    for source, result in batch:
        n = source.users.n
        for mask in range(1 << n):
            verdict = perturbation_verify(source, result, mask, "increment")
            assert verdict.ok, verdict.describe()
            subsets += 1
        seen = set()
        for mask in source.edge_masks:
            if mask in seen or source.has_edge(mask) <= 0:
                continue
            seen.add(mask)
            verdict = perturbation_verify(source, result, mask, "decrement")
            assert verdict.ok, verdict.describe()
            edges += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(4, started, f"{subsets} subset increments and {edges} edge decrements, exact quotients")


def test_a05_critical_edges_same_size_and_construction_matches_bruteforce(batch):
    started = time.perf_counter()
    for source, result in batch:
        rep = critical_edges(source, result)
        assert {popcount(m) for m in rep.edges} == {rep.common_size}
        assert rep.edges == critical_edges_bruteforce(source, result)
    report(5, started, "critical edges share one size and equal the definitional scan on all 100")


def test_a06_residual_function_properties(batch):
    started = time.perf_counter()
    for source, result in batch:
        g = build_g(source, result)
        ell = g.ell
        assert ell <= 8
        values = {b: g.value(b) for b in range(1 << ell)}
        assert all(values[1 << i] == 0 for i in range(ell))
        assert all(v >= 0 for b, v in values.items() if b)
        # submodularity holds for the defining formula, whose empty-set
        # value is -gamma; the 0 convention is zero-set bookkeeping only
        formula = {b: g.formula_value(b) for b in range(1 << ell)}
        for a in range(1 << ell):
            for b in range(1 << ell):
                assert formula[a] + formula[b] >= formula[a | b] + formula[a & b]
        zs = [b for b, v in values.items() if v == 0]
        zs_set = set(zs)
        for x in zs:
            for y in zs:
                if x & y:
                    assert x & y in zs_set and x | y in zs_set
        unions = {g.union_mask(b) for b in zs if b}
        blocks = {blk for p in result.optimal_partitions for blk in p.blocks}
        blocks.add(source.users.full_mask)
        assert unions == blocks
    report(6, started, "g vanishes on singletons, is nonnegative and submodular; zero sets match the optima")


def test_a07_uniqueness_paths_agree(batch):
    started = time.perf_counter()
    unique_count = 0
    for source, result in batch:
        via_sfm = is_unique_optimal(source, result, method="sfm")
        via_sets = is_unique_optimal(source, result, method="zerosets")
        assert via_sfm == via_sets
        unique_count += via_sfm
    report(7, started, f"SFM and zero-set uniqueness agree on all 100 ({unique_count} unique)")


def test_a08_pin_special_cases():
    started = time.perf_counter()
    for n in range(3, 9):
        u = users(n)
        singles = Partition.of(u, tuple((lab,) for lab in u.labels))
        complete = pin_source(
            [(i, j, 1) for i in range(1, n + 1) for j in range(i + 1, n + 1)], users=u
        )
        assert mmi(complete).optimal_partitions == (singles,)
        cycle = pin_source(
            [(i, i % n + 1, 1) for i in range(1, n + 1)], users=u
        )
        assert mmi(cycle).optimal_partitions == (singles,)

    rng = random.Random(5)
    trees = [random_tree_pin(rng, rng.randint(2, 8)) for _ in range(10)]
    for tree in trees:
        n = tree.users.n
        result = mmi(tree)
        adjacency = {i: set() for i in range(n)}
        degree = [0] * n
        for mask in tree.edge_masks:
            a, b = [i for i in range(n) if mask >> i & 1]
            adjacency[a].add(b)
            adjacency[b].add(a)
            degree[a] += 1
            degree[b] += 1

        def connected(block_mask):
            members = [i for i in range(n) if block_mask >> i & 1]
            seen = {members[0]}
            stack = [members[0]]
            while stack:
                node = stack.pop()
                for other in adjacency[node]:
                    if block_mask >> other & 1 and other not in seen:
                        seen.add(other)
                        stack.append(other)
            return len(seen) == len(members)

        from .conftest import enumerate_partitions

        optimal = set(result.optimal_partitions)
        for p in enumerate_partitions(tree.users, 2):
            assert (p in optimal) == all(connected(b) for b in p.blocks)

        leaves = 0
        for i in range(n):
            if degree[i] == 1:
                leaves |= 1 << i
        rep = critical_edges(tree, result)
        assert rep.edges == (leaves,)
    report(8, started, "complete and cycle networks have unique singleton optimum; trees: connected blocks, leaf-set edge")


def test_a09_mnp_matches_bruteforce_on_200_instances():
    started = time.perf_counter()
    rng = random.Random(424242)
    fallbacks = 0
    for trial in range(200):
        n = rng.randint(1, 10)
        if trial % 2 == 0:
            edges = [
                (rng.randrange(1, 1 << n), Fraction(rng.randint(0, 6), rng.randint(1, 6)))
                for _ in range(rng.randint(1, 6))
            ]

            def coverage(mask, edges=edges):
                return sum((w for emask, w in edges if emask & mask), Fraction(0))

            oracle = SetFunctionOracle(n, coverage, name=f"coverage[{trial}]")
            unit = Fraction(1, denominator_lcm(w for _, w in edges))
        else:
            k = rng.randint(0, n)

            def rank(mask, k=k):
                return Fraction(min(popcount(mask), k))

            oracle = SetFunctionOracle(n, rank, name=f"rank[{trial}]")
            unit = Fraction(1)
        upper = rng.randrange(1 << n)
        lower = upper & rng.randrange(1 << n)
        family = LatticeFamily(lower, upper)
        expected, _, _ = minimize_bruteforce(oracle, family)
        got = minimize_mnp(oracle, family, unit)
        if got.fallback:
            fallbacks += 1
        assert got.value == expected
        assert family.contains(got.minimizer)
        assert oracle(got.minimizer) == expected
    report(9, started, f"200 instances match brute force exactly ({fallbacks} fallbacks, all matching)")


def test_a10_excess_stability(batch):
    started = time.perf_counter()
    excess_count = strict_count = 0
    for source, result in batch:
        step = result.gap / 2 if result.gap is not None else Fraction(1)
        seen = set()
        for mask in source.edge_masks:
            if mask in seen:
                continue
            seen.add(mask)
            available = source.has_edge(mask)
            if available <= 0:
                continue
            eps = min(step, available)
            reduced = mmi(source.decrement(mask, eps))
            if is_excess(source, result, mask):
                assert reduced.gamma == result.gamma
                excess_count += 1
            else:
                assert reduced.gamma < result.gamma
                strict_count += 1
    report(10, started, f"{excess_count} excess edges left the MMI fixed; {strict_count} others strictly lowered it")
