import importlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ska
import ska.kernel as kernel
from ska import (
    EntropyTable,
    EnumerationLimitError,
    SkaError,
    i_p,
    mmi,
    pin_source,
)
from ska.mmi import mmi_core, scaled_entropies
from ska.rationals import format_rational
from ska.random_instances import random_hypergraphical, random_pin

from .conftest import (
    Partition,
    enumerate_partitions,
    hyper,
    ip_by_edge_crossings,
    map_partition,
    mmi_reference,
    random_non_coverage_table,
    random_tree_pin,
    relabel_hypergraph,
    users,
)


def P(u, *blocks):
    return Partition.of(u, tuple(tuple(b) for b in blocks))


# ---------------------------------------------------------------- i_p

def test_ip_of_minimizing_split_matches_capacity(base3):
    assert i_p(base3, P(base3.users, ("1", "2"), ("3",))) == 1


def test_ip_of_independent_components_is_zero():
    source = hyper(3, (("1",), 1), (("2",), 1), (("3",), 1))
    for p in enumerate_partitions(source.users, 2):
        assert i_p(source, p) == 0


def test_ip_tree_singletons(tree4):
    assert i_p(tree4, P(tree4.users, "1", "2", "3", "4")) == 1  # (1+2+2+1-3)/3


def test_ip_needs_two_blocks(base3):
    with pytest.raises(SkaError):
        i_p(base3, Partition(base3.users, (0b111,)))


def test_ip_matches_edge_crossing_form_on_random_sources():
    rng = random.Random(3)
    for _ in range(20):
        source = random_hypergraphical(rng, rng.randint(3, 5))
        for p in enumerate_partitions(source.users, 2):
            assert i_p(source, p) == ip_by_edge_crossings(source, p)


# ---------------------------------------------------------------- mmi values

def test_base_example_capacity_one(base3):
    result = mmi(base3)
    assert result.gamma == 1
    assert result.optimal_partitions == (P(base3.users, ("1", "2"), ("3",)),)
    assert result.gap == Fraction(1, 2)


def test_boost_on_2_3_raises_capacity_to_two(base3_boosted):
    assert mmi(base3_boosted).gamma == 2


def test_pair_only_source_has_unique_split(pair_only):
    result = mmi(pair_only)
    assert result.gamma == 0
    assert result.optimal_partitions == (P(pair_only.users, ("1", "2"), ("3",)),)


def test_overlap_source_has_two_optima(overlap3):
    result = mmi(overlap3)
    u = overlap3.users
    assert result.gamma == 2
    assert result.optimal_partitions == (
        P(u, "1", "2", "3"),
        P(u, ("1", "2"), ("3",)),
    )
    assert result.fundamental == P(u, "1", "2", "3")


def test_two_users_reduce_to_pairwise_mutual_information():
    source = hyper(2, (("1", "2"), Fraction(2, 3)), (("1",), 1))
    result = mmi(source)
    h1, h2, h12 = (source.entropy_mask(m) for m in (0b01, 0b10, 0b11))
    assert result.gamma == h1 + h2 - h12 == Fraction(2, 3)
    assert result.gap is None  # the single partition is trivially optimal
    assert result.ell == 2


def test_gap_can_be_infinite_beyond_two_users():
    # one edge covering everyone: every partition rates exactly 1
    source = hyper(3, (("1", "2", "3"), 1))
    result = mmi(source)
    assert result.gamma == 1
    assert result.gap is None
    assert len(result.optimal_partitions) == 4
    assert result.fundamental == P(source.users, "1", "2", "3")


def test_enumeration_cap_is_enforced(tree4):
    with pytest.raises(EnumerationLimitError):
        mmi(tree4, cap=3)


def test_default_cap_fails_fast_at_13_users(monkeypatch):
    mmi_module = importlib.import_module("ska.mmi")  # ``ska.mmi`` is the function

    def no_scan(*args):
        raise AssertionError("the cap must be checked before any scan")

    monkeypatch.setattr(kernel, "minimize_over_partitions", no_scan)
    monkeypatch.setattr(mmi_module, "scaled_entropies", no_scan)
    path13 = pin_source([(i, i + 1, 1) for i in range(1, 13)])
    assert path13.users.n == 13
    with pytest.raises(EnumerationLimitError, match="cap of 12"):
        mmi(path13)


def test_mmi_rejects_an_invalid_source_before_any_work(monkeypatch):
    mmi_module = importlib.import_module("ska.mmi")  # ``ska.mmi`` is the function

    def unreachable(*args):
        raise AssertionError("an invalid source must be rejected before the scan and the core")

    monkeypatch.setattr(kernel, "minimize_over_partitions", unreachable)
    monkeypatch.setattr(mmi_module, "mmi_core", unreachable)
    u = users(3)
    # Not monotone: H({1,3}) = 3 < H({1}) = 4; the partition scan alone reads gamma = 7/2.
    non_monotone = EntropyTable.from_values(
        u,
        {
            ("1",): 4, ("2",): 1, ("1", "2"): 5, ("3",): 4,
            ("1", "3"): 3, ("2", "3"): 2, ("1", "2", "3"): Fraction(1, 2),
        },
    )
    negative_weight = hyper(3, (("1", "2"), 1), (("2", "3"), Fraction(-1, 2)))
    # Monotone, but H({1}) + H({2}) = 2 < H({1,2}) + H(empty set) = 3.
    non_submodular = EntropyTable.from_values(
        u,
        {
            ("1",): 1, ("2",): 1, ("1", "2"): 3, ("3",): 1,
            ("1", "3"): 2, ("2", "3"): 2, ("1", "2", "3"): 3,
        },
    )
    kinds = {"monotonicity", "negative-weight", "submodularity"}
    for source in (non_monotone, negative_weight, non_submodular):
        report = source.validate()
        assert not report.ok
        kinds -= {v.kind for v in report.violations}
        with pytest.raises(SkaError) as info:
            mmi(source)
        assert str(info.value) == f"not a valid source:\n{report}"
    assert not kinds


def test_mmi_on_entropy_table_source(base3):
    table = EntropyTable(
        base3.users, tuple(base3.entropy_mask(m) for m in range(1 << 3))
    )
    assert mmi(table).gamma == mmi(base3).gamma == 1


# ---------------------------------------------------------------- oracle

def test_mmi_matches_direct_fraction_oracle_on_random_sources():
    rng = random.Random(17)
    for _ in range(40):
        source = random_hypergraphical(rng, rng.randint(3, 6))
        result = mmi(source)
        gamma, optimal, finest, gap = mmi_reference(source)
        assert result.gamma == gamma
        assert result.optimal_partitions == optimal
        assert result.fundamental == finest
        assert result.gap == gap


@st.composite
def hypothesis_sources(draw):
    from ska import HypergraphicalSource, WeightedEdge

    n = draw(st.integers(3, 5))
    u = users(n)
    edges = []
    for _ in range(draw(st.integers(1, 5))):
        mask = draw(st.integers(1, (1 << n) - 1))
        weight = Fraction(draw(st.integers(0, 5)), draw(st.integers(1, 6)))
        edges.append(WeightedEdge(frozenset(u.labels_of(mask)), weight))
    return HypergraphicalSource(u, tuple(edges))


@settings(max_examples=40, deadline=None)
@given(hypothesis_sources())
def test_mmi_matches_oracle_on_generated_sources(source):
    result = mmi(source)
    gamma, optimal, finest, gap = mmi_reference(source)
    assert (result.gamma, result.optimal_partitions, result.fundamental, result.gap) == (
        gamma,
        optimal,
        finest,
        gap,
    )


# ---------------------------------------------------------------- materialisation

def _materialisation_sources():
    """One edge over 7 and over 8 users (877 and 4,139 optimal partitions)
    and 20 seeded random sources at n = 3..7, four families in turn."""
    sources = [hyper(n, (tuple(users(n).labels), 1)) for n in (7, 8)]
    rng = random.Random(35)
    draws = (random_hypergraphical, random_pin, random_tree_pin, random_non_coverage_table)
    for index in range(20):
        sources.append(draws[index % 4](rng, rng.randint(3, 7)))
    return sources


def test_mmi_partitions_equal_the_checked_constructor_in_strict_block_order():
    for source in _materialisation_sources():
        optimal = mmi(source).optimal_partitions
        for p in optimal:
            checked = ska.Partition(p.users, p.blocks)
            assert type(p) is ska.Partition
            assert p == checked and hash(p) == hash(checked)
            assert p.users is source.users and p.blocks == checked.blocks
        assert all(a.blocks < b.blocks for a, b in zip(optimal, optimal[1:]))


def test_json_payload_renders_every_partition_as_its_to_json():
    for source in _materialisation_sources():
        result = mmi(source)
        expected = {
            "gamma": format_rational(result.gamma),
            "optimal_partitions": [p.to_json() for p in result.optimal_partitions],
            "fundamental": result.fundamental.to_json(),
            "gap": "inf" if result.gap is None else format_rational(result.gap),
        }
        assert json.dumps(result.to_json_dict(), indent=2) == json.dumps(expected, indent=2)


# ---------------------------------------------------------------- fundamental

def test_tree_fundamental_is_singletons(tree4):
    result = mmi(tree4)
    assert result.fundamental == P(tree4.users, "1", "2", "3", "4")
    f = result.fundamental
    assert f in result.optimal_partitions
    assert all(f.refines(p) for p in result.optimal_partitions)


def test_two_user_fundamental_is_the_split():
    source = hyper(2, (("1", "2"), 1))
    result = mmi(source)
    assert result.fundamental == P(source.users, "1", "2")
    f = result.fundamental
    assert f in result.optimal_partitions
    assert all(f.refines(p) for p in result.optimal_partitions)
    assert result.gap is None and result.to_json_dict()["gap"] == "inf"


def test_overlap_fundamental_refines_both_optima(overlap3):
    result = mmi(overlap3)
    f = result.fundamental
    assert f in result.optimal_partitions
    assert all(f.refines(p) for p in result.optimal_partitions)


# ---------------------------------------------------------------- invariants

def test_residual_sum_identity_on_optimal_and_excess_on_others():
    rng = random.Random(29)
    for _ in range(15):
        source = random_hypergraphical(rng, rng.randint(3, 5))
        result = mmi(source)
        full = source.users.full_mask
        h_v = source.entropy_mask(full) - result.gamma
        for p in enumerate_partitions(source.users, 2):
            lhs = sum(
                (source.entropy_mask(b) - result.gamma for b in p.blocks),
                Fraction(0),
            )
            excess = (p.n_blocks - 1) * (i_p(source, p) - result.gamma)
            if p in result.optimal_partitions:
                assert lhs == h_v
            else:
                assert lhs == h_v + excess and excess > 0


def test_meet_of_optimal_partitions_is_optimal():
    rng = random.Random(31)
    for _ in range(15):
        source = random_hypergraphical(rng, rng.randint(3, 5))
        result = mmi(source)
        optimal = set(result.optimal_partitions)
        for p, q in itertools.combinations(optimal, 2):
            assert Partition.meet(p, q) in optimal


def test_relabeling_equivariance():
    rng = random.Random(37)
    for _ in range(10):
        n = rng.randint(3, 5)
        source = random_hypergraphical(rng, n)
        labels = list(source.users.labels)
        mapping = dict(zip(labels, rng.sample(labels, n)))
        moved = relabel_hypergraph(source, mapping)
        res_a, res_b = mmi(source), mmi(moved)
        assert res_a.gamma == res_b.gamma
        assert res_a.gap == res_b.gap
        assert {map_partition(p, mapping) for p in res_a.optimal_partitions} == set(
            res_b.optimal_partitions
        )
        assert map_partition(res_a.fundamental, mapping) == res_b.fundamental


def test_tree_optimal_partitions_are_exactly_connected_block_partitions():
    rng = random.Random(41)
    for _ in range(8):
        n = rng.randint(3, 7)
        tree = random_tree_pin(rng, n)
        adjacency = {i: set() for i in range(n)}
        for mask in tree.edge_masks:
            a, b = [i for i in range(n) if mask >> i & 1]
            adjacency[a].add(b)
            adjacency[b].add(a)

        def connected(block_mask):
            members = [i for i in range(n) if block_mask >> i & 1]
            seen = {members[0]}
            frontier = [members[0]]
            while frontier:
                node = frontier.pop()
                for other in adjacency[node]:
                    if block_mask >> other & 1 and other not in seen:
                        seen.add(other)
                        frontier.append(other)
            return len(seen) == len(members)

        result = mmi(tree)
        assert result.gamma == 1
        optimal = set(result.optimal_partitions)
        for p in enumerate_partitions(tree.users, 2):
            assert (p in optimal) == all(connected(b) for b in p.blocks)
        assert result.fundamental == Partition.of(
            tree.users, tuple((lab,) for lab in tree.users.labels)
        )


# ---------------------------------------------------------------- subset core

def core(source):
    """gamma and the fundamental partition from the subset core."""
    ent, scale = scaled_entropies(source)
    gamma, blocks = mmi_core(ent)
    return gamma / scale, Partition(source.users, blocks)


def test_subset_core_examples(tree4, base3, pair_only):
    singletons = P(tree4.users, "1", "2", "3", "4")
    assert core(tree4) == (1, singletons)
    assert core(base3) == (1, P(base3.users, ("1", "2"), "3"))
    assert core(pair_only) == (0, P(pair_only.users, ("1", "2"), "3"))
    degenerate = hyper(3, (("1",), 0))
    assert core(degenerate) == (0, P(degenerate.users, "1", "2", "3"))


def test_subset_core_matches_scan_and_reference_on_400_sources():
    """100 each of hypergraphs, PINs, trees and non-coverage tables at
    n = 2..8 (tables from n = 3); the exact-fraction oracle runs up to
    n = 6, where it stays cheap."""
    rng = random.Random(61)
    makers = (random_hypergraphical, random_pin, random_tree_pin, random_non_coverage_table)
    checked = 0
    for k in range(400):
        make = makers[k % 4]
        n = rng.randint(3 if make is random_non_coverage_table else 2, 8)
        source = make(rng, n)
        gamma, fundamental = core(source)
        result = mmi(source)
        assert (gamma, fundamental) == (result.gamma, result.fundamental)
        # F comes from the core; the scan's list checks it independently.
        assert fundamental in result.optimal_partitions
        assert all(fundamental.refines(p) for p in result.optimal_partitions)
        if n <= 6:
            ref_gamma, _, ref_finest, _ = mmi_reference(source)
            assert (gamma, fundamental) == (ref_gamma, ref_finest)
            checked += 1
    assert checked >= 200


@st.composite
def core_sources(draw):
    if draw(st.booleans()):
        return draw(hypothesis_sources())
    n = draw(st.integers(3, 6))
    return random_non_coverage_table(random.Random(draw(st.integers(0, 2**32))), n)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(core_sources())
def test_subset_core_matches_oracle_on_generated_sources(source):
    gamma, _, finest, _ = mmi_reference(source)
    assert core(source) == (gamma, finest)
