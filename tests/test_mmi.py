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
    ConsistencyError,
    EntropyTable,
    EnumerationLimitError,
    SkaError,
    i_p,
    mmi,
    pin_source,
)
from ska.mmi import mmi_core, scaled_entropies, zero_set_pass
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
        scan_gamma, _, optimal = scan(source)
        assert gamma == scan_gamma
        # F comes from the core; the scan's list checks it independently.
        assert fundamental in optimal
        assert all(fundamental.refines(p) for p in optimal)
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


# ---------------------------------------------------------------- the scan as twin

def scan(source):
    """gamma, the gap and the ordered optimal partitions from the Bell(n)
    scan in ``ska.kernel``, which ``mmi()`` no longer calls."""
    ent, scale = scaled_entropies(source)
    best_num, best_den, found, run_num, run_den, has_run = kernel.minimize_over_partitions(
        source.users.n, ent
    )
    gamma = Fraction(best_num, best_den) / scale
    gap = Fraction(run_num, run_den) / scale - gamma if has_run else None
    return gamma, gap, tuple(Partition(source.users, blocks) for blocks in sorted(found))


def assert_matches_the_scan(source):
    result = mmi(source)
    gamma, gap, optimal = scan(source)
    finest = max(optimal, key=lambda p: p.n_blocks)
    assert (result.gamma, result.gap, result.fundamental) == (gamma, gap, finest)
    assert result.optimal_partitions == optimal
    return result


def _scan_twin_sources():
    """400 sources at n = 2..8: one edge over all users, path, star, cycle
    and complete graph at every n, then random hypergraphs, PINs, trees and
    non-coverage tables in turn."""
    sources = []
    for n in range(2, 9):
        u = users(n)
        sources.append(hyper(n, (tuple(u.labels), 1)))
        sources.append(pin_source([(i, i + 1, 1) for i in range(1, n)], users=u))
        sources.append(pin_source([(1, i, 1) for i in range(2, n + 1)], users=u))
        if n >= 3:
            sources.append(pin_source([(i, i % n + 1, 1) for i in range(1, n + 1)], users=u))
        pairs = itertools.combinations(range(1, n + 1), 2)
        sources.append(pin_source([(i, j, 1) for i, j in pairs], users=u))
    rng = random.Random(38)
    makers = (random_hypergraphical, random_pin, random_tree_pin, random_non_coverage_table)
    k = 0
    while len(sources) < 400:
        make = makers[k % 4]
        sources.append(make(rng, rng.randint(3 if make is random_non_coverage_table else 2, 8)))
        k += 1
    return sources


def test_mmi_matches_the_scan_on_400_sources():
    """gamma, the gap (``None`` included), F and the ordered optimal tuple
    equal the scan's; the exact-fraction oracle also checks n <= 6. One
    10-user hypergraph and one 10-user non-coverage table close the run."""
    sources = _scan_twin_sources()
    assert len(sources) == 400
    assert {s.users.n for s in sources} == set(range(2, 9))
    assert sum(isinstance(s, EntropyTable) for s in sources) >= 80
    gaps = []
    for source in sources:
        result = assert_matches_the_scan(source)
        gaps.append(result.gap)
        if source.users.n <= 6:
            gamma, optimal, finest, gap = mmi_reference(source)
            assert (result.gamma, result.optimal_partitions, result.fundamental, result.gap) == (
                gamma,
                optimal,
                finest,
                gap,
            )
    assert None in gaps and any(gap is not None for gap in gaps)
    rng = random.Random(10)
    for source in (random_hypergraphical(rng, 10), random_non_coverage_table(rng, 10)):
        assert_matches_the_scan(source)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(core_sources())
def test_mmi_matches_the_scan_on_generated_sources(source):
    assert_matches_the_scan(source)


def _least_bad_by_walk(ent, flags, p, q):
    """The least ``(sum of q*h(C) - p, block count)`` over the partitions
    with a block that ``flags`` does not mark, by a walk over all of them."""
    n = len(ent).bit_length() - 1
    return min(
        (sum(q * ent[b] - p for b in part.blocks), part.n_blocks)
        for part in enumerate_partitions(users(n))
        if not all(flags[b] for b in part.blocks)
    )


def test_least_bad_partition_matches_a_walk_over_every_partition():
    """The gap step's minimum over partitions with a bad block, and the
    block count of its minimiser, equal those of a walk over every
    partition: on sources with their good blocks, at gamma and at a rate
    above it where some blocks weigh below 0; and on arbitrary nonnegative
    tables, largest at the ground set, with arbitrary flags."""
    least_bad = importlib.import_module("ska.mmi")._least_bad_partition
    rng = random.Random(39)
    makers = (random_hypergraphical, random_pin, random_tree_pin, random_non_coverage_table)
    checked = 0
    for k in range(80):
        source = makers[k % 4](rng, rng.randint(3, 7))
        ent, _ = scaled_entropies(source)
        gamma, blocks = mmi_core(ent)
        found, union = zero_set_pass(ent, gamma, blocks)
        good = bytearray(len(ent))
        for index_set in found[1:]:
            good[union[index_set]] = 1
        if all(good[1:]):
            continue
        for lam in (gamma, gamma + Fraction(rng.randint(1, 2 * ent[-1] + 2), rng.randint(1, 3))):
            p, q = lam.numerator, lam.denominator
            assert least_bad(ent, good, p, q) == _least_bad_by_walk(ent, good, p, q)
            checked += 1
    assert checked >= 100
    for _ in range(1500):
        n = rng.randint(2, 5)
        ent = [0] + [rng.randint(0, 9) for _ in range(1, 1 << n)]
        ent[-1] = max(ent)
        flags = bytearray(rng.random() < 0.6 for _ in ent)
        if all(flags[1:]):
            continue
        p, q = rng.randint(0, 20), rng.randint(1, 3)
        assert least_bad(ent, flags, p, q) == _least_bad_by_walk(ent, flags, p, q)


# ---------------------------------------------------------------- consistency

def _patch_core(monkeypatch, change):
    """Make ``mmi()`` read ``change(ent, gamma, blocks)`` from its core."""
    mmi_module = importlib.import_module("ska.mmi")  # ``ska.mmi`` is the function

    def patched(ent):
        return change(ent, *mmi_core(ent))

    monkeypatch.setattr(mmi_module, "mmi_core", patched)


@pytest.mark.parametrize("shift", [1, -1])
def test_a_core_gamma_one_unit_off_raises_a_consistency_error(monkeypatch, shift, base3, tree4):
    """gamma one unit too high or too low, in its own denominator: F no
    longer rates gamma."""
    sources = [base3, tree4, hyper(3, (("1", "2", "3"), 1))]
    sources.append(random_non_coverage_table(random.Random(4), 5))
    _patch_core(
        monkeypatch,
        lambda ent, gamma, blocks: (Fraction(gamma.numerator + shift, gamma.denominator), blocks),
    )
    for source in sources:
        with pytest.raises(ConsistencyError, match="this indicates a bug"):
            mmi(source)


def test_a_core_answer_that_is_not_optimal_raises_a_consistency_error(monkeypatch, base3, overlap3):
    """F and its own rate, but not the least rate: the split 12|3 rates
    below it. F optimal but not the finest: 1|2|3 falls outside the family
    and rates gamma."""
    singletons = (0b001, 0b010, 0b100)
    _patch_core(monkeypatch, lambda ent, gamma, blocks: (Fraction(3, 2), singletons))
    assert i_p(base3, Partition(base3.users, singletons)) == Fraction(3, 2)
    assert base3.integer_table[1] == 1
    with pytest.raises(ConsistencyError, match="this indicates a bug"):
        mmi(base3)
    _patch_core(monkeypatch, lambda ent, gamma, blocks: (gamma, (0b011, 0b100)))
    with pytest.raises(ConsistencyError, match="this indicates a bug"):
        mmi(overlap3)
