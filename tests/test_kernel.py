"""Equivalence of the two kernel lanes and their shared scan contract."""

import random
from fractions import Fraction

import pytest

import ska.kernel as kernel
from ska import enumerate_partitions, mmi, partition_from_rgs
from ska._kernel_pure import minimize_over_partitions as pure_scan
from ska.mmi import scaled_entropies
from ska.random_instances import random_hypergraphical

from .conftest import users

fast_only = pytest.mark.skipif(
    not kernel.has_fast_lane(), reason="compiled lane not built"
)


def coverage_entropies(rng, n, edges):
    ent = [0] * (1 << n)
    for mask in range(1 << n):
        ent[mask] = sum(w for emask, w in edges if emask & mask)
    return ent


def random_entropies(rng, n):
    edges = [
        (rng.randrange(1, 1 << n), rng.randint(0, 60)) for _ in range(rng.randint(1, 8))
    ]
    return coverage_entropies(rng, n, edges)


@fast_only
def test_lanes_agree_on_random_coverage_instances():
    from ska import _kernel_fast

    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(2, 7)
        ent = random_entropies(rng, n)
        assert _kernel_fast.minimize_over_partitions(n, ent) == pure_scan(n, ent)


@fast_only
def test_lanes_agree_including_ties_and_runner_up():
    from ska import _kernel_fast

    # all-zero entropies: every partition optimal, no runner-up
    n = 5
    zero = [0] * (1 << n)
    result_fast = _kernel_fast.minimize_over_partitions(n, zero)
    result_pure = pure_scan(n, zero)
    assert result_fast == result_pure
    best_num, best_den, minimizers, _, _, has_run = result_pure
    assert Fraction(best_num, best_den) == 0
    assert len(minimizers) == 52 - 1  # Bell(5) - 1
    assert not has_run


def test_minimizer_scan_order_matches_partition_enumeration():
    u = users(4)
    zero = [0] * (1 << 4)
    _, _, minimizers, _, _, _ = pure_scan(4, zero)
    from_kernel = [partition_from_rgs(u, rgs) for rgs in minimizers]
    assert from_kernel == list(enumerate_partitions(u, 2))


@fast_only
def test_fast_lane_overflow_falls_back_to_pure():
    from ska import _kernel_fast

    n = 3
    huge = [0] + [10**30] * ((1 << n) - 1)
    with pytest.raises(OverflowError):
        _kernel_fast.minimize_over_partitions(n, huge)
    # the dispatcher hides the overflow behind the pure lane
    assert kernel.minimize_over_partitions(n, huge, backend="fast") == pure_scan(n, huge)


def test_dispatcher_rejects_unknown_backend():
    from ska.errors import SkaError

    with pytest.raises(SkaError):
        kernel.minimize_over_partitions(2, [0, 0, 0, 0], backend="banana")


def test_pure_scan_validates_input():
    with pytest.raises(ValueError):
        pure_scan(1, [0, 0])
    with pytest.raises(ValueError):
        pure_scan(2, [0, 0, 0])


@fast_only
def test_mmi_results_identical_across_backends():
    rng = random.Random(23)
    for _ in range(25):
        source = random_hypergraphical(rng, rng.randint(3, 6))
        assert mmi(source, backend="pure") == mmi(source, backend="fast")


def test_scaled_entropies_clears_denominators():
    rng = random.Random(5)
    source = random_hypergraphical(rng, 4)
    ent, scale = scaled_entropies(source)
    for mask in range(1 << 4):
        assert Fraction(ent[mask], scale) == source.entropy_mask(mask)


def test_fast_lane_overflow_reruns_pure_lane_and_logs(monkeypatch, caplog):
    class Overflowing:
        @staticmethod
        def minimize_over_partitions(n, ent):
            raise OverflowError("int64 cross-product")

    monkeypatch.setattr(kernel, "_kernel_fast", Overflowing)
    ent = coverage_entropies(None, 4, [(0b0011, 2), (0b0110, 1), (0b1100, 3)])
    with caplog.at_level("INFO", logger="ska.kernel"):
        got = kernel.minimize_over_partitions(4, ent, backend="fast")
    assert got == pure_scan(4, ent)
    assert "pure lane" in caplog.text
