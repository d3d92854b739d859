import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ska import GroundSetMismatchError, SkaError

from .conftest import (
    Partition,
    enumerate_partitions,
    partition_from_rgs,
    restricted_growth_strings,
    users,
)


@st.composite
def random_partition(draw, n=6):
    rgs = [0]
    for _ in range(n - 1):
        rgs.append(draw(st.integers(0, max(rgs) + 1)))
    return partition_from_rgs(users(n), rgs)

# Bell numbers B_1..B_6; partitions with >= 2 blocks number B_n - 1.
BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def P(u, *blocks):
    return Partition.of(u, tuple(tuple(b) for b in blocks))


# ---------------------------------------------------------------- enumeration

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_multiblock_enumeration_count_is_bell_minus_one(n):
    u = users(n)
    seen = list(enumerate_partitions(u, 2))
    assert len(seen) == BELL[n] - 1
    assert len(set(seen)) == len(seen)


def test_two_users_have_a_single_partition():
    u = users(2)
    assert list(enumerate_partitions(u, 2)) == [P(u, "1", "2")]


def test_enumeration_order_is_deterministic_and_frozen():
    u = users(3)
    got = [p.label_blocks() for p in enumerate_partitions(u, 2)]
    assert got == [
        ((("1", "2")), ("3",)),
        ((("1", "3")), ("2",)),
        (("1",), ("2", "3")),
        (("1",), ("2",), ("3",)),
    ]


def test_enumeration_includes_single_block_at_min_blocks_one():
    u = users(3)
    everything = list(enumerate_partitions(u, 1))
    assert len(everything) == BELL[3]
    assert everything[0].n_blocks == 1


def test_min_blocks_bounds_are_enforced():
    u = users(3)
    with pytest.raises(SkaError):
        list(enumerate_partitions(u, 0))
    with pytest.raises(SkaError):
        list(enumerate_partitions(u, 4))


def test_restricted_growth_strings_are_valid_and_complete():
    seen = set()
    for rgs in restricted_growth_strings(4):
        assert rgs[0] == 0
        for i in range(1, 4):
            assert rgs[i] <= max(rgs[:i]) + 1
        seen.add(rgs)
    assert len(seen) == BELL[4]


# ---------------------------------------------------------------- invariants

def test_partition_blocks_canonicalized_by_minimum_element():
    u = users(4)
    p = P(u, ("3", "4"), ("1",), ("2",))
    assert p.label_blocks() == (("1",), ("2",), ("3", "4"))
    assert p == P(u, ("2",), ("1",), ("4", "3"))


def test_partition_rejects_bad_blocks():
    u = users(3)
    with pytest.raises(SkaError):
        Partition.of(u, (("1", "2"), ("2", "3")))  # overlap
    with pytest.raises(SkaError):
        Partition.of(u, (("1", "2"),))  # not covering
    with pytest.raises(SkaError):
        Partition(u, (0b11, 0))  # empty block


# ---------------------------------------------------------------- refinement

def test_singletons_refine_everything():
    u = users(4)
    singles = P(u, "1", "2", "3", "4")
    for q in enumerate_partitions(u, 1):
        assert singles.refines(q)


def test_refinement_counterexample():
    u = users(4)
    assert not P(u, ("1", "2"), ("3", "4")).refines(P(u, ("1", "2", "3"), ("4",)))


def test_refinement_is_reflexive():
    u = users(4)
    p = P(u, ("1", "3"), ("2", "4"))
    assert p.refines(p)


def test_refinement_is_a_partial_order_on_all_pairs_up_to_five_users():
    u = users(5)
    all_parts = list(enumerate_partitions(u, 1))
    for p in all_parts:
        assert p.refines(p)
    for p, q in itertools.combinations(all_parts, 2):
        if p.refines(q) and q.refines(p):
            assert p == q
    for p in all_parts:
        below = [q for q in all_parts if q.refines(p)]
        for q in below:
            for r in all_parts:
                if r.refines(q):
                    assert r.refines(p)  # transitivity


def test_ground_set_mismatch_raises():
    with pytest.raises(GroundSetMismatchError):
        P(users(3), ("1", "2"), ("3",)).refines(P(users(4), ("1", "2"), ("3", "4")))


# ---------------------------------------------------------------- meet

def test_meet_examples():
    u = users(4)
    singles = P(u, "1", "2", "3", "4")
    p = P(u, ("1", "2"), ("3", "4"))
    q = P(u, ("1", "2", "3"), ("4",))
    assert Partition.meet(p, singles) == singles
    assert Partition.meet(p, q) == P(u, ("1", "2"), ("3",), ("4",))
    assert Partition.meet(p, p) == p


@settings(max_examples=80, deadline=None)
@given(random_partition(), random_partition())
def test_meet_laws_on_random_partitions(p, q):
    m = Partition.meet(p, q)
    assert m == Partition.meet(q, p)
    assert m.refines(p) and m.refines(q)
    assert p.refines(q) == (m == p)
    assert Partition.meet(m, p) == m


def test_meet_is_the_coarsest_common_refinement_up_to_four_users():
    u = users(4)
    all_parts = list(enumerate_partitions(u, 1))
    for p, q in itertools.product(all_parts, repeat=2):
        m = Partition.meet(p, q)
        assert m.refines(p) and m.refines(q)
        for r in all_parts:
            if r.refines(p) and r.refines(q):
                assert r.refines(m)


# ---------------------------------------------------------------- encoding

def test_partition_json_roundtrip():
    u = users(4)
    p = P(u, ("1", "4"), ("2", "3"))
    assert p.to_json() == [["1", "4"], ["2", "3"]]


def test_partition_from_rgs_matches_block_reading():
    u = users(4)
    assert partition_from_rgs(u, (0, 1, 1, 0)) == P(u, ("1", "4"), ("2", "3"))
