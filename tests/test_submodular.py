import itertools
import random
from fractions import Fraction

import pytest

from ska import (
    EnumerationLimitError,
    LatticeFamily,
    SetFunctionOracle,
    SkaError,
    build_g,
    minimize_bruteforce,
    minimize_mnp,
    mmi,
)
from ska import submodular
from ska.rationals import denominator_lcm


def modular_oracle(weights):
    n = len(weights)

    def fn(mask):
        return sum((weights[i] for i in range(n) if mask >> i & 1), Fraction(0))

    return SetFunctionOracle(n, fn, name="modular")


def cut_oracle(n, edges):
    def fn(mask):
        return Fraction(sum(1 for a, b in edges if (mask >> a & 1) != (mask >> b & 1)))

    return SetFunctionOracle(n, fn, name="cut")


def coverage_oracle(n, edges):
    """edges: (mask, weight) pairs; f(A) = total weight of edges meeting A."""

    def fn(mask):
        return sum((w for emask, w in edges if emask & mask), Fraction(0))

    return SetFunctionOracle(n, fn, name="coverage")


def truncation_oracle(n, k):
    def fn(mask):
        return Fraction(min(bin(mask).count("1"), k))

    return SetFunctionOracle(n, fn, name="truncation")


# ---------------------------------------------------------------- families

def test_family_validation():
    fam = LatticeFamily(0b001, 0b011)
    assert fam.free_mask == 0b010
    assert fam.contains(0b001) and fam.contains(0b011)
    assert not fam.contains(0b010) and not fam.contains(0b111)
    with pytest.raises(SkaError):
        LatticeFamily(0b100, 0b011)


# ---------------------------------------------------------------- brute force

def test_bruteforce_modular_picks_negative_weights():
    f = modular_oracle([Fraction(-1), Fraction(2), Fraction(-3)])
    value, best, all_mins = minimize_bruteforce(f, LatticeFamily(0, 0b111))
    assert value == -4
    assert best == 0b101
    assert all_mins == (0b101,)


def test_bruteforce_on_tree_residual_function(tree4):
    result = mmi(tree4)
    g = build_g(tree4, result)
    oracle = g.as_oracle()
    # family {B : {index 0} <= B <= {0,1,2}}: zero at {1}, {1,2}, {1,2,3}
    value, best, all_mins = minimize_bruteforce(oracle, LatticeFamily(0b0001, 0b0111))
    assert value == 0
    assert all_mins == (0b0001, 0b0011, 0b0111)


def test_bruteforce_single_point_family():
    f = modular_oracle([Fraction(-1), Fraction(2), Fraction(-3)])
    value, best, all_mins = minimize_bruteforce(f, LatticeFamily(0b010, 0b010))
    assert (value, best, all_mins) == (Fraction(2), 0b010, (0b010,))


def test_bruteforce_cap():
    def never(mask):
        raise AssertionError("the cap must be checked before any evaluation")

    f = SetFunctionOracle(23, never)
    with pytest.raises(EnumerationLimitError, match="23 free elements"):
        minimize_bruteforce(f, LatticeFamily(0, (1 << 23) - 1))


# ---------------------------------------------------------------- min-norm point

def test_mnp_modular_example():
    f = modular_oracle([Fraction(-1), Fraction(2), Fraction(-3)])
    result = minimize_mnp(f, LatticeFamily(0, 0b111), Fraction(1))
    assert result.value == -4 and result.minimizer == 0b101
    assert result.certified and not result.fallback


def test_mnp_path_cut_minimum_is_zero():
    f = cut_oracle(3, [(0, 1), (1, 2)])
    result = minimize_mnp(f, LatticeFamily(0, 0b111), Fraction(1))
    assert result.value == 0
    assert result.minimizer in (0, 0b111)
    assert result.certified


def test_mnp_tree_residual_with_lower_bound(tree4):
    res = mmi(tree4)
    g = build_g(tree4, res)
    oracle = g.as_oracle()
    # {B : {index 1} <= B <= {1,2,3}} (blocks two..four): still hits zero
    result = minimize_mnp(oracle, LatticeFamily(0b0010, 0b1110), Fraction(1, 6))
    assert result.value == 0


def test_mnp_pinned_family_short_circuits():
    f = modular_oracle([Fraction(1), Fraction(1)])
    result = minimize_mnp(f, LatticeFamily(0b11, 0b11), Fraction(1))
    assert result.value == 2 and result.iterations == 0 and result.certified


def test_mnp_matches_bruteforce_on_random_instances():
    rng = random.Random(101)
    fallbacks = 0
    for trial in range(60):
        n = rng.randint(1, 9)
        if trial % 2 == 0:
            edges = [
                (rng.randrange(1, 1 << n), Fraction(rng.randint(0, 6), rng.randint(1, 6)))
                for _ in range(rng.randint(1, 6))
            ]
            f = coverage_oracle(n, edges)
            unit = Fraction(1, denominator_lcm(w for _, w in edges))
        else:
            f = truncation_oracle(n, rng.randint(0, n))
            unit = Fraction(1)
        upper = rng.randrange(1 << n)
        lower = upper & rng.randrange(1 << n)
        family = LatticeFamily(lower, upper)
        expected, _, _ = minimize_bruteforce(f, family)
        got = minimize_mnp(f, family, unit)
        fallbacks += got.fallback
        assert got.value == expected
    assert fallbacks <= 3  # the certificate should almost always close


def test_contraction_identity():
    # minimizing f over {X <= B <= Y} equals X | argmin of f(X | A) over A <= Y\X
    rng = random.Random(7)
    for _ in range(20):
        n = 6
        edges = [
            (rng.randrange(1, 1 << n), Fraction(rng.randint(0, 5), rng.randint(1, 4)))
            for _ in range(4)
        ]
        f = coverage_oracle(n, edges)
        upper = rng.randrange(1 << n)
        lower = upper & rng.randrange(1 << n)
        value, best, _ = minimize_bruteforce(f, LatticeFamily(lower, upper))
        free = upper & ~lower
        free_bits = [i for i in range(n) if free >> i & 1]
        sub_values = {}
        for combo_size in range(len(free_bits) + 1):
            for combo in itertools.combinations(free_bits, combo_size):
                a = 0
                for i in combo:
                    a |= 1 << i
                sub_values[a] = f(lower | a)
        contracted_min = min(sub_values.values())
        assert contracted_min == value
        assert lower | min(a for a, v in sub_values.items() if v == contracted_min) == best


def test_forced_nonconvergence_falls_back_to_bruteforce(monkeypatch):
    monkeypatch.setattr(submodular, "WOLFE_TOLERANCE", -1.0)
    f = cut_oracle(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    result = minimize_mnp(f, LatticeFamily(0b0001, 0b0111), Fraction(1))
    assert result.fallback and not result.certified
    assert result.value == minimize_bruteforce(f, LatticeFamily(0b0001, 0b0111))[0]


def test_rounding_unit_must_be_positive():
    f = modular_oracle([Fraction(1)])
    with pytest.raises(SkaError):
        minimize_mnp(f, LatticeFamily(0, 1), 0)
