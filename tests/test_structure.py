import itertools
import random
from fractions import Fraction

import pytest

import ska.structure as structure
from ska import (
    EntropyTable,
    SkaError,
    g_rounding_unit,
    is_unique_optimal,
    maximal_zero_set,
    mmi,
    t_max,
)
from ska.random_instances import random_hypergraphical
from ska.submodular import MnpResult

from .conftest import Partition, build_g, random_non_coverage_table, users, zero_sets


def bits(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def popcount(mask):
    return bin(mask).count("1")


def mixed_sources(seed, count):
    """Random hypergraphs and non-coverage tables, alternating, n = 3..6."""
    rng = random.Random(seed)
    sources = []
    for k in range(count):
        n = rng.randint(3, 6)
        if k % 2:
            sources.append(random_non_coverage_table(rng, n))
        else:
            sources.append(random_hypergraphical(rng, n))
    return sources


# ---------------------------------------------------------------- g values

def test_residual_function_tree_values(tree4):
    g = build_g(tree4, mmi(tree4))
    assert g.value(0) == 0
    assert all(g.value(1 << i) == 0 for i in range(4))
    assert g.value(0b0011) == 0  # blocks {1},{2}: H({1,2}) - 1 - (0 + 1)
    assert g.value(0b0101) == 1  # blocks {1},{3}: H({1,3}) - 1 - (0 + 1)
    assert g.value(0b1111) == 0


def test_residual_function_respects_fundamental_blocks(pair_only):
    result = mmi(pair_only)
    g = build_g(pair_only, result)
    assert g.ell == 2
    assert g.block_masks == result.fundamental.blocks
    assert g.union_mask(0b11) == pair_only.users.full_mask


def test_residual_function_rejects_foreign_result(pair_only, tree4):
    with pytest.raises(SkaError):
        build_g(pair_only, mmi(tree4))


# ---------------------------------------------------------------- zero sets

def test_tree_zero_sets_exactly_the_interval_family(tree4):
    g = build_g(tree4, mmi(tree4))
    nonsingleton = {b for b in zero_sets(g) if popcount(b) >= 2}
    assert nonsingleton == {0b0011, 0b0110, 0b1100, 0b0111, 0b1110, 0b1111}


def test_pair_only_zero_sets(pair_only):
    g = build_g(pair_only, mmi(pair_only))
    assert zero_sets(g) == (0b00, 0b01, 0b10, 0b11)


def test_zero_set_pass_matches_the_definition():
    # the integer pass against g evaluated one index set at a time
    for source in mixed_sources(67, 40):
        assert source.validate().ok
        g = build_g(source, mmi(source))
        assert zero_sets(g) == tuple(b for b in range(1 << g.ell) if g.value(b) == 0)


def test_g_nonnegative_zero_singleton_submodular_on_random_sources():
    rng = random.Random(71)
    for _ in range(25):
        source = random_hypergraphical(rng, rng.randint(3, 6))
        result = mmi(source)
        g = build_g(source, result)
        ell = g.ell
        values = {b: g.value(b) for b in range(1 << ell)}
        assert all(values[1 << i] == 0 for i in range(ell))
        assert all(v >= 0 for b, v in values.items() if b)
        assert values[(1 << ell) - 1] == 0
        # submodularity is a property of the defining formula (empty set at
        # -gamma); the g(empty) := 0 convention would break disjoint pairs
        formula = {b: g.formula_value(b) for b in range(1 << ell)}
        assert formula[0] == -result.gamma
        for a in range(1 << ell):
            for b in range(1 << ell):
                assert formula[a] + formula[b] >= formula[a | b] + formula[a & b]


def test_zero_sets_form_an_intersecting_family():
    rng = random.Random(73)
    for _ in range(25):
        source = random_hypergraphical(rng, rng.randint(3, 6))
        g = build_g(source, mmi(source))
        zs = set(zero_sets(g))
        for u, w in itertools.combinations(zs, 2):
            if u & w:
                assert u & w in zs and u | w in zs


def test_zero_set_unions_are_exactly_the_optimal_blocks_plus_ground():
    # result.optimal_blocks, read from the optimal list, is the table-side
    # zero-set family without the full index set
    rng = random.Random(79)
    sources = [random_hypergraphical(rng, rng.randint(3, 6)) for _ in range(25)]
    sources += [random_non_coverage_table(rng, rng.randint(3, 6)) for _ in range(12)]
    for source in sources:
        result = mmi(source)
        g = build_g(source, result)
        from_zero_sets = {g.union_mask(b) for b in zero_sets(g) if b}
        from_partitions = {b for p in result.optimal_partitions for b in p.blocks}
        from_partitions.add(source.users.full_mask)
        assert from_zero_sets == from_partitions
        full_idx = (1 << g.ell) - 1
        assert result.optimal_blocks == {
            g.union_mask(b) for b in zero_sets(g) if 0 < b < full_idx
        }


def test_g_values_live_on_the_declared_grid():
    rng = random.Random(83)
    for _ in range(20):
        source = random_hypergraphical(rng, rng.randint(3, 5))
        result = mmi(source)
        g = build_g(source, result)
        unit = g_rounding_unit(source, g.ell)
        for b in range(1 << g.ell):
            assert (g.value(b) / unit).denominator == 1


# ---------------------------------------------------------------- maximal zero set

def test_tree_maximal_zero_sets(tree4):
    g = build_g(tree4, mmi(tree4))
    assert maximal_zero_set(g, exclude=3, seed=0) == 0b0111
    assert maximal_zero_set(g, exclude=1, seed=0) == 0b0001
    assert maximal_zero_set(g, exclude=1, seed=2) == 0b1100


def test_maximal_zero_set_methods_agree(tree4, overlap3):
    for source in (tree4, overlap3):
        g = build_g(source, mmi(source))
        for i in range(g.ell):
            for j in range(g.ell):
                if i != j:
                    assert maximal_zero_set(g, i, j) == maximal_zero_set(
                        g, i, j, method="bruteforce"
                    )


def test_maximal_zero_set_validates_indices(tree4):
    g = build_g(tree4, mmi(tree4))
    with pytest.raises(SkaError):
        maximal_zero_set(g, 0, 0)
    with pytest.raises(SkaError):
        maximal_zero_set(g, 0, 9)


def test_maximal_zero_set_defensive_none_branch(tree4):
    # A genuine residual function has every singleton as a zero set, so the
    # "no zero set contains the seed" branch needs a stub to be exercised.
    real = build_g(tree4, mmi(tree4))

    class NoZeros:
        ell = real.ell
        source = tree4

        def value(self, index_set):
            return Fraction(popcount(index_set))

        def as_oracle(self, **kwargs):
            from ska.submodular import SetFunctionOracle

            return SetFunctionOracle(self.ell, self.value)

    assert maximal_zero_set(NoZeros(), 0, 1) is None  # type: ignore[arg-type]


# ---------------------------------------------------------------- t_max

def test_tmax_pair_only_is_the_unique_optimum(pair_only):
    result = mmi(pair_only)
    report = t_max(pair_only, result)
    assert report.case == "T1"
    assert report.t_max_labels() == (("1", "2"), ("3",))
    assert report.coarsest_optimal == result.fundamental


def test_tmax_overlap_is_coarsest_not_fundamental(overlap3):
    result = mmi(overlap3)
    report = t_max(overlap3, result)
    assert report.case == "T1"
    assert report.t_max_labels() == (("1", "2"), ("3",))
    assert report.coarsest_optimal == Partition.of(overlap3.users, (("1", "2"), ("3",)))
    assert report.coarsest_optimal != result.fundamental


def test_tmax_tree_is_overlapping_pair(tree4):
    report = t_max(tree4, mmi(tree4))
    assert report.case == "T2"
    assert report.t_max_labels() == (("1", "2", "3"), ("2", "3", "4"))
    assert report.complement_labels() == (("4",), ("1",))


def test_tmax_star_has_three_maximal_blocks(star4):
    report = t_max(star4, mmi(star4))
    assert report.case == "T2"
    assert report.t_max_labels() == (
        ("1", "2", "3"),
        ("1", "2", "4"),
        ("1", "3", "4"),
    )
    assert report.complement_labels() == (("4",), ("3",), ("2",))


def test_tmax_methods_and_direct_oracle_agree():
    rng = random.Random(89)
    for _ in range(25):
        source = random_hypergraphical(rng, rng.randint(3, 6))
        result = mmi(source)
        greedy = t_max(source, result, method="greedy")
        from_zero = t_max(source, result, method="zerosets")
        assert (greedy.t_max, greedy.case) == (from_zero.t_max, from_zero.case)
        assert greedy.coarsest_optimal == from_zero.coarsest_optimal
        assert greedy.complement_family == from_zero.complement_family
        # direct oracle: inclusion-maximal members of the optimal blocks
        blocks = {b for p in result.optimal_partitions for b in p.blocks}
        maximal = sorted(
            (m for m in blocks if not any(m != o and m & ~o == 0 for o in blocks)),
            key=lambda m: (m & -m, m),
        )
        assert list(greedy.t_max) == maximal


def test_tmax_dichotomy_invariants():
    rng = random.Random(97)
    for _ in range(25):
        source = random_hypergraphical(rng, rng.randint(3, 6))
        result = mmi(source)
        report = t_max(source, result)
        full = source.users.full_mask
        if report.case == "T1":
            assert Partition(source.users, report.t_max) in result.optimal_partitions
        else:
            comps = report.complement_family
            assert comps is not None and len(comps) >= 2
            assert all(comps)
            union = 0
            for c in comps:
                assert union & c == 0
                union |= c
            assert all(full & ~m for m in report.t_max)


def test_single_seed_greedy_variant_is_recorded_not_asserted(capsys):
    # One greedy run per excluded index (always seeding at the lowest free
    # index) can in principle miss maximal sets; log any disagreement with
    # the per-pair variant instead of failing.
    rng = random.Random(101)
    disagreements = 0
    for _ in range(25):
        source = random_hypergraphical(rng, rng.randint(3, 6))
        result = mmi(source)
        g = build_g(source, result)
        pairwise = set(g.block_masks)
        single = set(g.block_masks)
        for i in range(g.ell):
            seeds = [j for j in range(g.ell) if j != i]
            first = maximal_zero_set(g, i, seeds[0], method="bruteforce")
            if first is not None:
                single.add(g.union_mask(first))
            for j in seeds:
                b = maximal_zero_set(g, i, j, method="bruteforce")
                if b is not None:
                    pairwise.add(g.union_mask(b))

        def maximal(family):
            return {
                m for m in family if not any(m != o and m & ~o == 0 for o in family)
            }

        if maximal(single) != maximal(pairwise):
            disagreements += 1
    if disagreements:
        print(f"single-seed greedy missed maximal blocks on {disagreements} instances")
    assert disagreements >= 0  # informational only


# ---------------------------------------------------------------- uniqueness

def test_uniqueness_flags(pair_only, overlap3, tree4):
    assert is_unique_optimal(pair_only, mmi(pair_only)) is True
    assert is_unique_optimal(overlap3, mmi(overlap3)) is False
    assert is_unique_optimal(tree4, mmi(tree4)) is False


def test_uniqueness_sfm_agrees_with_zero_sets_and_partition_count():
    rng = random.Random(103)
    for _ in range(25):
        source = random_hypergraphical(rng, rng.randint(3, 6))
        result = mmi(source)
        via_sfm = is_unique_optimal(source, result, method="sfm")
        via_sets = is_unique_optimal(source, result, method="zerosets")
        assert via_sfm == via_sets == (len(result.optimal_partitions) == 1)


def test_default_structure_matches_the_mnp_twins_on_tables_and_hypergraphs():
    table_cases = set()
    for source in mixed_sources(113, 40):
        result = mmi(source)
        default = t_max(source, result)
        greedy = t_max(source, result, method="greedy")
        assert default == greedy
        unique = is_unique_optimal(source, result)
        assert unique == is_unique_optimal(source, result, method="sfm")
        assert unique == (len(result.optimal_partitions) == 1)
        if isinstance(source, EntropyTable):
            table_cases.add((unique, default.case))
    # the tables reach a unique optimum and both cases of a tied one
    assert table_cases == {(True, "T1"), (False, "T1"), (False, "T2")}


def test_mnp_diagnostic_is_logged_not_dropped(monkeypatch, caplog, overlap3):
    def flagged(oracle, family, unit):
        return MnpResult(
            value=Fraction(1),
            minimizer=family.lower,
            certified=False,
            fallback=True,
            iterations=0,
            diagnostic="non-submodular behavior suspected",
        )

    monkeypatch.setattr(structure, "minimize_mnp", flagged)
    result = mmi(overlap3)
    g = build_g(overlap3, result)
    with caplog.at_level("WARNING", logger="ska.structure"):
        assert maximal_zero_set(g, 0, 1) is None
    assert "non-submodular behavior suspected" in caplog.text
    caplog.clear()
    with caplog.at_level("WARNING", logger="ska.structure"):
        assert is_unique_optimal(overlap3, result, method="sfm") is True
    assert "non-submodular behavior suspected" in caplog.text


def test_two_block_fundamental_is_always_unique(pair_only):
    # ell == 2 leaves no room for a proper nonsingleton zero set
    result = mmi(pair_only)
    assert result.ell == 2
    assert is_unique_optimal(pair_only, result, method="sfm")
    assert is_unique_optimal(pair_only, result)


def test_default_routes_read_the_optimal_blocks(monkeypatch):
    """The default t_max and is_unique_optimal answer from
    ``result.optimal_blocks``: they build no g and run no zero-set pass."""

    def unreachable(*args, **kwargs):
        raise AssertionError("a default route rederived the zero sets")

    sources = mixed_sources(89, 16)
    results = [mmi(source) for source in sources]
    expected = [
        (t_max(s, r, method="greedy"), is_unique_optimal(s, r, method="sfm"))
        for s, r in zip(sources, results)
    ]
    monkeypatch.setattr(structure, "build_g", unreachable)
    monkeypatch.setattr(structure, "zero_set_pass", unreachable)
    for source, result, (report, unique) in zip(sources, results, expected):
        assert t_max(source, result) == report
        assert is_unique_optimal(source, result) is unique
