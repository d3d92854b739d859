import dataclasses
import random
from fractions import Fraction

import pytest

from ska import (
    ConsistencyError,
    HypergraphicalSource,
    MissingEdgeError,
    SkaError,
    UnknownUserError,
    UserSet,
    WeightedEdge,
    conjecture_check,
    critical_edges,
    critical_edges_bruteforce,
    greedy_critical_edge,
    growth_curve,
    growth_rate,
    is_excess,
    load_source,
    loss_rate,
    mmi,
    perturbation_verify,
    pin_source,
    t_max,
)
from ska import analysis, source_model
from ska.analysis import _measured_rate, _optimal_set_contained, _perturbed_table
from ska.mmi import mmi_core, scaled_entropies
from ska.rationals import denominator_lcm
from ska.random_instances import random_hypergraphical, random_pin

from .conftest import (
    CORPUS,
    crossings,
    greedy_edge_by_block_sets,
    growth_curve_by_subsets,
    growth_rate_by_partitions,
    hyper,
    inside_by_masks,
    loss_rate_by_partitions,
    map_partition,
    measured_rate_by_rescan,
    random_batch,
    random_non_coverage_table,
    random_tree_pin,
    relabel_hypergraph,
)


def popcount(mask):
    return bin(mask).count("1")


# ---------------------------------------------------------------- growth rate

def test_growth_rate_examples(tree4):
    result = mmi(tree4)
    assert growth_rate(tree4, result, ("1", "4")) == Fraction(1, 3)
    assert growth_rate(tree4, result, ("2",)) == 0
    assert growth_rate(tree4, result, ("1", "2", "3", "4")) == 1
    assert growth_rate(tree4, result, ()) == 0


def test_singletons_never_grow(base3, overlap3):
    for source in (base3, overlap3):
        result = mmi(source)
        for label in source.users.labels:
            assert growth_rate(source, result, (label,)) == 0


# ---------------------------------------------------------------- growth curve

def test_tree_growth_curve(tree4):
    curve = growth_curve(tree4, mmi(tree4))
    assert tuple(curve.values) == (
        Fraction(0),
        Fraction(0),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(1),
    )
    assert curve.witness_labels(2) == ("1", "4")


def test_unique_optimum_curve_is_linear(pair_only):
    result = mmi(pair_only)
    curve = growth_curve(pair_only, result)
    assert curve.values[2] == 1  # (2-1)/(ell-1) with ell = 2


def test_growth_curve_properties_on_random_sources():
    rng = random.Random(7)
    for _ in range(20):
        source = random_hypergraphical(rng, rng.randint(3, 6))
        result = mmi(source)
        curve = growth_curve(source, result)
        values = curve.values
        assert values[0] == 0 and values[1] == 0
        assert all(values[k] <= values[k + 1] for k in range(len(values) - 1))
        for k, value in enumerate(values):
            assert (value == 1) == (k >= result.ell)
            assert popcount(curve.witnesses[k]) <= k
            assert growth_rate(source, result, curve.witnesses[k]) == value


def test_growth_curve_k_max_validation(tree4):
    result = mmi(tree4)
    assert len(growth_curve(tree4, result, 2).values) == 3
    with pytest.raises(SkaError):
        growth_curve(tree4, result, 9)


def _curve_sources():
    """153 sources: path, star, cycle, complete graph and one edge over all
    users at n = 3..7, and 32 each of seeded random trees, PINs, hypergraphs
    and non-coverage tables at n = 3..7."""
    sources = []
    for n in range(3, 8):
        sources += [
            pin_source([(i, i + 1, 1) for i in range(1, n)]),
            pin_source([(1, i, 1) for i in range(2, n + 1)]),
            pin_source([(i, i % n + 1, 1) for i in range(1, n + 1)]),
            pin_source([(i, j, 1) for i in range(1, n + 1) for j in range(i + 1, n + 1)]),
            hyper(n, (tuple(str(i + 1) for i in range(n)), 1)),
        ]
    rng = random.Random(34)
    for draw in (random_tree_pin, random_pin, random_hypergraphical, random_non_coverage_table):
        sources += [draw(rng, 3 + index % 5) for index in range(32)]
    return sources


def test_growth_curve_matches_the_subset_oracle_at_every_k_max(monkeypatch):
    block_set_rate = analysis._block_set_rate
    rated = []

    def positive(met, parts, floor):
        # The zero table answers every block set of rate 0 on its own.
        rate = block_set_rate(met, parts, floor)
        assert rate > 0
        rated.append(met)
        return rate

    monkeypatch.setattr(analysis, "_block_set_rate", positive)
    sources = _curve_sources()
    assert len(sources) >= 150
    for source in sources:
        result = mmi(source)
        for k_max in range(source.users.n + 1):
            rated.clear()
            curve = growth_curve(source, result, k_max)
            assert len(rated) == len(set(rated))
            values, witnesses = growth_curve_by_subsets(source, result, k_max)
            assert curve.values == values
            assert curve.witnesses == witnesses


def test_growth_curve_rates_each_block_set_once_without_growth_rate(monkeypatch):
    source = hyper(8, (tuple(str(i + 1) for i in range(8)), 1))
    result = mmi(source)
    rated = []
    block_set_rate = analysis._block_set_rate

    def counting(met, parts, floor):
        rated.append(met)
        return block_set_rate(met, parts, floor)

    def refuse(*args):
        raise AssertionError("growth_curve called growth_rate")

    monkeypatch.setattr(analysis, "_block_set_rate", counting)
    monkeypatch.setattr(analysis, "growth_rate", refuse)
    curve = growth_curve(source, result)
    # One block set rated, within the bound of 2^ell: every block set but
    # the full one lies inside an optimal block.
    assert rated == [(1 << result.ell) - 1]
    assert curve.values == (0,) * 8 + (1,)
    assert curve.witnesses == (0,) * 8 + (255,)


@pytest.mark.parametrize(
    "name, edges, optimal, most",
    [
        ("complete9", [(i, j, 1) for i in range(1, 10) for j in range(i + 1, 10)], 1, 8),
        ("cycle9", [(i, i % 9 + 1, 1) for i in range(1, 10)], 1, 8),
        ("path9", [(i, i + 1, 1) for i in range(1, 9)], 255, 128),
    ],
)
def test_growth_curve_stops_each_size_at_its_ceiling(monkeypatch, name, edges, optimal, most):
    """F is optimal, so no block set J rates above (|J| - 1)/(ell - 1), and
    size k stops at the first subset that rates (min(k, ell) - 1)/(ell - 1).
    On a unique optimum that rates one block set per size from 2 to ell:
    ell - 1 = 8 on complete(9) and cycle(9), where a stop at rate 1 alone
    rates 502. path(9) has 255 optimal partitions; a stop at rate 1 alone
    rates 128 block sets there."""
    source = pin_source(edges)
    result = mmi(source)
    rated = []
    block_set_rate = analysis._block_set_rate

    def counting(met, parts, floor):
        rated.append(met)
        return block_set_rate(met, parts, floor)

    monkeypatch.setattr(analysis, "_block_set_rate", counting)
    curve = growth_curve(source, result)
    assert result.ell == 9 and len(result.optimal_partitions) == optimal
    assert len(rated) <= most
    if optimal == 1:
        assert len(rated) == result.ell - 1
    assert (curve.values, curve.witnesses) == growth_curve_by_subsets(source, result)


def test_growth_curve_raises_a_consistency_error_off_the_unique_line(pair_only, monkeypatch):
    monkeypatch.setattr(analysis, "_block_set_rate", lambda met, parts, floor: Fraction(1, 2))
    with pytest.raises(ConsistencyError, match="this indicates a bug"):
        growth_curve(pair_only, mmi(pair_only))


def test_rates_match_their_partition_oracles_on_every_subset_and_edge():
    """Both rates read ``result.block_space``; the oracles walk every optimal
    partition."""
    rated = 0
    for source in _curve_sources():
        result = mmi(source)
        for mask in range(1 << source.users.n):
            assert growth_rate(source, result, mask) == growth_rate_by_partitions(result, mask)
            rated += 1
        if isinstance(source, HypergraphicalSource):
            for mask in dict.fromkeys(source.edge_masks):
                if source.has_edge(mask) > 0:
                    assert loss_rate(source, result, mask) == loss_rate_by_partitions(result, mask)
                    rated += 1
    assert rated == 7813


class _CountingTuple(tuple):
    iterations = 0

    def __iter__(self):
        type(self).iterations += 1
        return super().__iter__()


def test_a_full_verify_sweep_walks_the_optimal_partitions_at_most_three_times(monkeypatch):
    """255 increments and 1 decrement on one edge over 8 users (4,139
    optimal partitions) read the one block space, not the partition list."""
    source = hyper(8, (tuple(str(i + 1) for i in range(8)), 1))
    base = mmi(source)
    monkeypatch.setattr(_CountingTuple, "iterations", 0)
    result = dataclasses.replace(
        base, optimal_partitions=_CountingTuple(base.optimal_partitions)
    )
    verdicts = [perturbation_verify(source, result, m, "increment") for m in range(1, 256)]
    verdicts.append(perturbation_verify(source, result, 255, "decrement"))
    assert all(v.ok for v in verdicts)
    assert _CountingTuple.iterations <= 3


# ---------------------------------------------------------------- critical edges

def test_critical_edges_examples(pair_only, overlap3, tree4):
    for source, expected, case in (
        (pair_only, (("1", "3"), ("2", "3")), "T1"),
        (overlap3, (("1", "3"), ("2", "3")), "T1"),
        (tree4, (("1", "4"),), "T2"),
    ):
        report = critical_edges(source, mmi(source))
        assert report.edge_labels() == expected
        assert report.case == case
        assert report.common_size == 2


def test_star_tree_critical_edge_is_the_leaf_set(star4):
    report = critical_edges(star4, mmi(star4))
    assert report.edge_labels() == (("2", "3", "4"),)
    assert report.common_size == 3


def test_broom_tree_critical_edge_has_size_four():
    from ska import pin_source

    broom = pin_source([(1, 2, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1), (3, 6, 1)])
    result = mmi(broom)
    report = critical_edges(broom, result)
    assert report.edge_labels() == (("1", "4", "5", "6"),)  # the leaves
    assert report.common_size == 4 and report.case == "T2"
    assert report.edges == critical_edges_bruteforce(broom, result)


def test_infinite_gap_source_verifies_at_unit_step():
    source = hyper(3, (("1", "2", "3"), 1))
    result = mmi(source)
    assert result.gap is None
    for mask in range(1, 8):
        verdict = perturbation_verify(source, result, mask, "increment")
        assert verdict.ok and verdict.epsilon == 1
    verdict = perturbation_verify(source, result, ("1", "2", "3"), "decrement")
    assert verdict.ok and verdict.epsilon == 1  # min(1, carried weight)


def test_critical_edges_match_definitional_bruteforce():
    rng = random.Random(11)
    for _ in range(30):
        source = random_hypergraphical(rng, rng.randint(3, 6))
        result = mmi(source)
        report = critical_edges(source, result)
        assert report.edges == critical_edges_bruteforce(source, result)
        sizes = {popcount(m) for m in report.edges}
        assert sizes == {report.common_size}
        assert report.common_size >= 2
        assert report.edges  # at least one critical edge always exists


def test_critical_edges_cross_every_optimal_partition_minimally(tree4):
    result = mmi(tree4)
    report = critical_edges(tree4, result)
    for mask in report.edges:
        assert all(crossings(p, mask) >= 2 for p in result.optimal_partitions)
        for i in range(4):
            if mask >> i & 1:
                smaller = mask & ~(1 << i)
                assert any(crossings(p, smaller) < 2 for p in result.optimal_partitions)


def test_critical_edges_accepts_precomputed_tmax(tree4):
    result = mmi(tree4)
    report = t_max(tree4, result)
    assert critical_edges(tree4, result, report) == critical_edges(tree4, result)


# ---------------------------------------------------------------- greedy scan

def test_greedy_scan_examples(tree4, pair_only):
    assert greedy_critical_edge(tree4, mmi(tree4)) == ("1", "4")
    # ascending label order drops user 1 first, then cannot drop 2 or 3
    assert greedy_critical_edge(pair_only, mmi(pair_only)) == ("2", "3")


def test_greedy_scan_two_users():
    source = hyper(2, (("1", "2"), 1))
    assert greedy_critical_edge(source, mmi(source)) == ("1", "2")


def test_greedy_scan_lands_in_the_critical_family():
    rng = random.Random(13)
    for _ in range(25):
        source = random_hypergraphical(rng, rng.randint(3, 6))
        result = mmi(source)
        found = source.users.as_mask(greedy_critical_edge(source, result))
        assert found in critical_edges(source, result).edges


def test_greedy_scan_matches_the_growth_rate_scan():
    """Inside no optimal block is positive growth rate: the scan on the zero
    table of ``result.block_space`` drops the same users as the shrinking
    scan on a positive per-partition growth rate."""

    def scan_on_growth_rate(source, result):
        users = source.users
        current = users.full_mask
        for i in range(users.n):
            candidate = current & ~(1 << i)
            if candidate and growth_rate_by_partitions(result, candidate) > 0:
                current = candidate
        return users.labels_of(current)

    rng = random.Random(17)
    sources = []
    for _ in range(8):
        n = rng.randint(3, 7)
        sources += [
            random_hypergraphical(rng, n),
            random_pin(rng, n),
            random_tree_pin(rng, n),
            random_non_coverage_table(rng, n),
        ]
    for source in sources:
        result = mmi(source)
        assert greedy_critical_edge(source, result) == scan_on_growth_rate(source, result)


def test_zero_table_and_greedy_edge_match_their_per_mask_oracles():
    """The whole-table down-closure of ``block_space`` and the greedy scan
    that keeps a user count per fundamental block equal the per-mask loops,
    on the curve sources, one edge over 10 users and a 10-user path."""
    ten = tuple(str(i + 1) for i in range(10))
    sources = _curve_sources() + [
        hyper(10, (ten, 1)),
        pin_source([(i, i + 1, 1) for i in range(1, 10)]),
    ]
    for source in sources:
        result = mmi(source)
        assert result.block_space[1] == inside_by_masks(result)
        assert greedy_critical_edge(source, result) == greedy_edge_by_block_sets(source, result)
    assert result.ell == 10


# ---------------------------------------------------------------- loss / excess

def test_loss_rate_examples(base3):
    result = mmi(base3)
    assert loss_rate(base3, result, ("1", "2")) == 0
    assert loss_rate(base3, result, ("1", "2", "3")) == 1


def test_loss_rate_requires_a_present_edge(base3, tree4):
    with pytest.raises(MissingEdgeError):
        loss_rate(base3, mmi(base3), ("1", "3"))
    with pytest.raises(MissingEdgeError):
        loss_rate(tree4, mmi(tree4), ("1", "4"))


def test_edgewise_analysis_rejects_table_sources(base3):
    from ska import EntropyTable

    table = EntropyTable(
        base3.users, tuple(base3.entropy_mask(m) for m in range(1 << 3))
    )
    result = mmi(table)
    with pytest.raises(MissingEdgeError):
        loss_rate(table, result, ("1", "2"))
    with pytest.raises(MissingEdgeError):
        is_excess(table, result, ("1", "2"))


def test_edge_inside_one_optimal_block_everywhere_has_zero_loss(pair_only):
    result = mmi(pair_only)
    assert loss_rate(pair_only, result, ("1", "2")) == 0


def test_excess_examples(base3, tree4):
    result = mmi(base3)
    assert is_excess(base3, result, ("1", "2")) is True
    assert is_excess(base3, result, ("1", "2", "3")) is False
    tree_result = mmi(tree4)
    for mask in tree4.edge_masks:
        assert is_excess(tree4, tree_result, mask) is False


def test_excess_iff_zero_loss_and_growth_at_most_loss():
    rng = random.Random(17)
    for _ in range(25):
        source = random_hypergraphical(rng, rng.randint(3, 6))
        result = mmi(source)
        seen = set()
        for mask in source.edge_masks:
            if mask in seen or source.has_edge(mask) <= 0:
                continue
            seen.add(mask)
            loss = loss_rate(source, result, mask)
            assert is_excess(source, result, mask) == (loss == 0)
            assert growth_rate(source, result, mask) <= loss


# ---------------------------------------------------------------- perturbation

def test_boost_identity_at_explicit_step(base3):
    result = mmi(base3)
    verdict = perturbation_verify(base3, result, ("2", "3"), "increment", epsilon=1)
    assert verdict.measured_rate == verdict.formula_rate == 1
    assert mmi(base3.increment(("2", "3"), 1)).gamma == 2


def test_removal_identity_examples(base3, tree4):
    result = mmi(base3)
    verdict = perturbation_verify(base3, result, ("1", "2"), "decrement")
    assert verdict.ok and verdict.formula_rate == 0
    tree_result = mmi(tree4)
    verdict = perturbation_verify(tree4, tree_result, ("1", "4"), "increment")
    assert verdict.ok and verdict.formula_rate == Fraction(1, 3)


def test_integer_step_subcheck_runs_on_integral_sources(base3):
    verdict = perturbation_verify(base3, mmi(base3), ("2", "3"), "increment")
    assert verdict.granularity is not None
    assert verdict.granularity.epsilon == Fraction(1, 2)  # 1/((3-1)(3-2))
    assert verdict.granularity.ok


def test_integer_step_subcheck_skipped_for_fractional_sources():
    source = hyper(3, (("1", "2"), Fraction(1, 2)), (("1", "2", "3"), 1))
    verdict = perturbation_verify(source, mmi(source), ("1", "3"), "increment")
    assert verdict.granularity is None


def test_perturbation_validates_inputs(base3):
    result = mmi(base3)
    with pytest.raises(SkaError):
        perturbation_verify(base3, result, ("1",), "sideways")
    with pytest.raises(SkaError):
        perturbation_verify(base3, result, ("1",), "increment", epsilon=0)
    with pytest.raises(MissingEdgeError):
        perturbation_verify(base3, result, ("1", "2"), "decrement", epsilon=5)


def test_verify_builds_the_integer_table_once(monkeypatch):
    """Every subset increment and every edge decrement of one source, as
    ``ska verify`` runs them, on a hypergraph and on a table; each build of
    a source's integer table computes its scale once."""
    builds = []

    def counting(values):
        builds.append(1)
        return denominator_lcm(values)

    monkeypatch.setattr(source_model, "denominator_lcm", counting)
    rng = random.Random(43)
    for source in (random_hypergraphical(rng, 6), random_non_coverage_table(rng, 5)):
        builds.clear()
        source.validate()
        result = mmi(source)
        for mask in range(1, 1 << source.users.n):
            assert perturbation_verify(source, result, mask, "increment").ok
        if isinstance(source, HypergraphicalSource):
            for mask in dict.fromkeys(source.edge_masks):
                if source.has_edge(mask) > 0:
                    assert perturbation_verify(source, result, mask, "decrement").ok
        assert len(builds) == 1


def test_a_bare_string_is_not_read_as_its_characters():
    u = UserSet(("1", "2", "12"))
    edges = (("1", "2"), ("2", "12"), ("1", "12"))
    source = HypergraphicalSource(u, tuple(WeightedEdge(frozenset(e), 1) for e in edges))
    result = mmi(source)
    for call in (
        lambda: u.as_mask("12"),
        lambda: source.entropy_mask(source.users.as_mask("12")),
        lambda: growth_rate(source, result, "12"),
        lambda: loss_rate(source, result, "12"),
        lambda: perturbation_verify(source, result, "12"),
    ):
        with pytest.raises(UnknownUserError, match=r"bare string.*\('12',\)"):
            call()
    assert u.as_mask(("12",)) == 0b100
    assert growth_rate(source, result, ("12",)) == 0
    assert perturbation_verify(source, result, ("12",)).ok
    assert loss_rate(source, result, ("1", "2")) == Fraction(1, 2)


def test_oversized_step_breaks_the_identity_and_is_reported(tree4):
    result = mmi(tree4)
    verdict = perturbation_verify(tree4, result, ("1", "4"), "increment", epsilon=10)
    assert not verdict.identity_ok
    # minimizer jumps to {1,4}|{2}|{3}: (12 + 2 + 2 - 13)/2 = 3/2, so the
    # quotient is (3/2 - 1)/10, far below the infinitesimal rate 1/3
    assert verdict.measured_rate == Fraction(1, 20)
    assert not verdict.ok
    # the explicit step skips the containment check; asked directly, the
    # zero-set test sees the new optimum {1,4}|{2}|{3}, which was not optimal
    table = scaled_entropies(tree4)
    new_table = _perturbed_table(table, 0b1001, Fraction(10))
    gamma, blocks = mmi_core(new_table[0])
    assert not _optimal_set_contained(result, new_table, gamma, blocks)
    assert measured_rate_by_rescan(tree4, result, 0b1001, "increment", 10) == (
        Fraction(1, 20),
        False,
    )


def test_replays_match_the_rescan_oracle():
    """The subset-core replay equals ``mmi`` of the perturbed source on the
    measured rate and the containment verdict, at the default step, the
    integer-grid step and two oversized steps, for increments on
    hypergraphs, PINs and non-coverage tables and for decrements of every
    edge. The step 3/2 often leaves gamma fractional in the perturbed
    table's units while the optimal set changes."""
    rng = random.Random(37)
    sources = random_batch(41, 10, sizes=(3, 4, 5), max_edges=5)
    sources += [random_pin(rng, rng.randint(3, 5)) for _ in range(4)]
    sources += [random_non_coverage_table(rng, rng.randint(3, 5)) for _ in range(5)]
    outcomes = set()
    for source in sources:
        result = mmi(source)
        table = scaled_entropies(source)
        n = source.users.n
        auto = result.gap / 2 if result.gap is not None else Fraction(1)
        steps = (auto, Fraction(1, (n - 1) * (n - 2)), 4 * auto + 3, Fraction(3, 2))
        jobs = [(mask, "increment", eps) for mask in range(1 << n) for eps in steps]
        if isinstance(source, HypergraphicalSource):
            for mask in set(source.edge_masks):
                weight = source.has_edge(mask)
                if weight > 0:
                    jobs += [(mask, "decrement", min(eps, weight)) for eps in steps]
        for mask, mode, eps in jobs:
            expected = measured_rate_by_rescan(source, result, mask, mode, eps)
            assert _measured_rate(table, result, mask, mode, eps, containment=True) == expected
            assert _measured_rate(table, result, mask, mode, eps) == (expected[0], None)
            outcomes.add((eps == auto, expected[1]))
    # the default step always contains; the other steps reach both verdicts
    assert outcomes == {(True, True), (False, True), (False, False)}


def _verify_all(source, result):
    """The verdicts of a default ``ska verify``: every nonempty subset as an
    increment and every distinct edge of a hypergraph as a decrement."""
    jobs = [(mask, "increment") for mask in range(1, 1 << source.users.n)]
    if isinstance(source, HypergraphicalSource):
        jobs += [
            (mask, "decrement")
            for mask in dict.fromkeys(source.edge_masks)
            if source.has_edge(mask) > 0
        ]
    return [perturbation_verify(source, result, mask, mode).to_json_dict() for mask, mode in jobs]


def test_a_warm_started_core_matches_the_cold_core_on_every_replay_table(monkeypatch):
    """Every table a default ``verify`` replays, at gap/2 and at the
    integer-grid step, on hypergraphs, PINs, trees and non-coverage tables
    at n = 3..7: the core started at F, as the replays start it, and at a
    random partition of at least two blocks gives the cold start's gamma and
    F. The corpus verdicts equal those of a cold-started core."""
    replays = []

    def recording(ent, start=None):
        replays.append((ent, start))
        return mmi_core(ent, start)

    monkeypatch.setattr(analysis, "mmi_core", recording)
    rng = random.Random(17)
    makers = (random_hypergraphical, random_pin, random_tree_pin, random_non_coverage_table)
    jobs = 0
    for k in range(40):
        source = makers[k % 4](rng, 3 + k % 5)
        n = source.users.n
        result = mmi(source)
        first = len(replays)
        jobs += len(_verify_all(source, result))
        for ent, start in replays[first:]:
            assert start == result.fundamental.blocks
            cold = mmi_core(ent)
            assert mmi_core(ent, start) == cold
            while True:
                labels = [rng.randrange(n) for _ in range(n)]
                if len(set(labels)) >= 2:
                    break
            blocks = [sum(1 << i for i in range(n) if labels[i] == b) for b in set(labels)]
            assert mmi_core(ent, tuple(blocks)) == cold
    assert len(replays) > jobs  # the integer-grid step ran too
    corpus = [
        load_source(path)
        for path in sorted(CORPUS.glob("*.json"))
        if not path.name.endswith(".expected.json")
    ]
    warm = [_verify_all(source, mmi(source)) for source in corpus]
    monkeypatch.setattr(analysis, "mmi_core", lambda ent, start=None: mmi_core(ent))
    assert [_verify_all(source, mmi(source)) for source in corpus] == warm


def test_rate_formulas_match_perturbation_on_a_small_batch():
    rng = random.Random(19)
    for _ in range(6):
        source = random_hypergraphical(rng, 4, max_edges=5)
        result = mmi(source)
        for mask in range(1 << 4):
            verdict = perturbation_verify(source, result, mask, "increment")
            assert verdict.ok, verdict.describe()
        seen = set()
        for mask in source.edge_masks:
            if mask not in seen and source.has_edge(mask) > 0:
                seen.add(mask)
                verdict = perturbation_verify(source, result, mask, "decrement")
                assert verdict.ok, verdict.describe()


def test_excess_edges_absorb_small_removals(base3):
    result = mmi(base3)
    eps = result.gap / 2
    assert mmi(base3.decrement(("1", "2"), eps)).gamma == result.gamma
    reduced = mmi(base3.decrement(("1", "2", "3"), eps))
    assert reduced.gamma < result.gamma


# ---------------------------------------------------------------- conjecture

def test_conjecture_entries_for_known_sources(tree4, pair_only):
    report = conjecture_check(tree4, mmi(tree4))
    assert [e.holds for e in report.entries] == [True]
    assert report.entries[0].rate == Fraction(1, 3)
    assert report.entries[0].predicted == Fraction(1, 3)
    pair_report = conjecture_check(pair_only, mmi(pair_only))
    assert pair_report.all_hold
    assert {e.edge for e in pair_report.entries} == {("1", "3"), ("2", "3")}
    assert all(e.rate == 1 for e in pair_report.entries)


def test_conjecture_report_is_a_tally_not_an_assertion():
    rng = random.Random(23)
    holds = violations = 0
    for _ in range(20):
        source = random_hypergraphical(rng, rng.randint(3, 6))
        report = conjecture_check(source, mmi(source))
        h, t = report.counts
        holds += h
        violations += t - h
        assert report.all_hold == (h == t)
    assert holds + violations > 0  # the machinery reports, never raises


# ---------------------------------------------------------------- equivariance

def test_reports_are_relabeling_equivariant():
    rng = random.Random(29)
    for _ in range(10):
        n = rng.randint(3, 5)
        source = random_hypergraphical(rng, n)
        labels = list(source.users.labels)
        mapping = dict(zip(labels, rng.sample(labels, n)))
        moved = relabel_hypergraph(source, mapping)
        res_a, res_b = mmi(source), mmi(moved)
        crit_a = critical_edges(source, res_a)
        crit_b = critical_edges(moved, res_b)
        mapped = {
            frozenset(mapping[x] for x in edge) for edge in crit_a.edge_labels()
        }
        assert mapped == {frozenset(edge) for edge in crit_b.edge_labels()}
        assert crit_a.common_size == crit_b.common_size
        assert growth_curve(source, res_a).values == growth_curve(moved, res_b).values
