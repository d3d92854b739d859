"""The Bell(n) partition scan: its contract, scan order and exactness."""

import random
from fractions import Fraction

import pytest

import ska.kernel as kernel
from ska import mmi
from ska.kernel import minimize_over_partitions as scan
from ska.mmi import scaled_entropies
from ska.random_instances import random_hypergraphical

from .conftest import enumerate_partitions, hyper, mmi_reference, users


def test_all_zero_table_makes_every_partition_optimal():
    n = 5
    best_num, best_den, minimizers, _, _, has_run = scan(n, [0] * (1 << n))
    assert Fraction(best_num, best_den) == 0
    assert len(minimizers) == 52 - 1  # Bell(5) - 1
    assert not has_run


def test_minimizer_scan_order_matches_partition_enumeration():
    u = users(4)
    zero = [0] * (1 << 4)
    _, _, minimizers, _, _, _ = scan(4, zero)
    assert minimizers == [p.blocks for p in enumerate_partitions(u, 2)]


def test_scan_is_exact_far_beyond_int64():
    n = 3
    huge = [0] + [10**30] * ((1 << n) - 1)
    best_num, best_den, minimizers, _, _, has_run = scan(n, huge)
    assert Fraction(best_num, best_den) == 10**30
    assert len(minimizers) == 4  # Bell(3) - 1: one shared value, all optimal
    assert not has_run


def test_mmi_beyond_int64_matches_reference():
    source = hyper(
        4,
        (("1", "2"), Fraction(3**45, 7)),
        (("2", "3", "4"), Fraction(5**30, 3)),
        (("1", "4"), 2**70),
        (("3",), 1),
    )
    ent, _ = scaled_entropies(source)
    assert max(ent) > 2**63
    result = mmi(source)
    assert (result.gamma, result.optimal_partitions, result.fundamental, result.gap) == (
        mmi_reference(source)
    )


def test_pure_scan_validates_input():
    with pytest.raises(ValueError):
        scan(1, [0, 0])
    with pytest.raises(ValueError):
        scan(2, [0, 0, 0])


def test_one_lane_is_reported():
    assert kernel.default_backend() == "pure"
    assert kernel.available_backends() == ("pure",)


def test_scaled_entropies_clears_denominators():
    rng = random.Random(5)
    source = random_hypergraphical(rng, 4)
    ent, scale = scaled_entropies(source)
    for mask in range(1 << 4):
        assert Fraction(ent[mask], scale) == source.entropy_mask(mask)
