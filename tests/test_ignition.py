"""Bit machinery: outcome codes, index sets, double-plateau working sets."""

import random
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

from gaugesim import ProbabilitySystem
from gaugesim.errors import ValidationError
from gaugesim.ignition import (
    bell_lift,
    bell_support,
    config_index,
    config_region,
    config_setting,
    double_plateau,
    outcome_code,
    outcome_codes,
    plateau_projection,
    state_array,
)
from gaugesim.solver import solve_all_gauges
from reference_model import in_target


def hits(x, u, K):
    """The ignition states of the n*K-bit space that show x at u, by `outcome_codes`."""
    states = np.arange(1 << (len(x) * K), dtype=np.int64)
    return states[outcome_codes(states, u, K) == outcome_code(x)].tolist()


def test_configuration_index_round_trip():
    for K in (1, 2, 3, 5):
        for region in range(4):
            for setting in range(K):
                gamma = config_index(region, setting, K)
                assert config_region(gamma, K) == region
                assert config_setting(gamma, K) == setting


def test_projection_reads_bits():
    # one region of six settings: setting g reads bit g
    assert [outcome_codes([3], (g,), 6).item() for g in range(3)] == [1, 1, 0]
    # 6-bit expansion of 7 over two regions of three settings
    assert [outcome_codes([7], (g,), 6).item() for g in range(6)] == [1, 1, 1, 0, 0, 0]


def test_index_set_partitions_the_space():
    zeros, ones = hits((0,), (1,), 4), hits((1,), (1,), 4)
    assert sorted(zeros + ones) == list(range(16))
    assert all((j >> 1) & 1 == 0 for j in zeros)


def test_target_index_set_single_region():
    assert hits((0,), (0,), 2) == [j for j in range(4) if j % 2 == 0]


def test_target_index_set_two_regions():
    # n=2, K=2: x=(0,1) at u=(0,0) pins bit 0 to 0 and bit 2 to 1
    found = hits((0, 1), (0, 0), 2)
    assert len(found) == 4
    assert all((j & 1) == 0 and (j >> 2) & 1 == 1 for j in found)
    assert all(in_target(j, (0, 1), (0, 0), 2) for j in found)


def test_totally_correlated_two_bit_target():
    # in the 2-bit shared encoding the target (1,1 | t0,t1) pins both bits
    assert [j for j in hits((1,), (0,), 2) if j in hits((1,), (1,), 2)] == [3]


def test_double_plateau_k3_trigonometric_order():
    assert double_plateau(3) == [3, 7, 6, 4, 0, 1]


def test_double_plateau_k4_trigonometric_order():
    assert double_plateau(4) == [3, 7, 15, 14, 12, 8, 0, 1]
    plateau = double_plateau(4)
    assert plateau[0] == 3
    assert plateau[6] == 0


def test_double_plateau_members_have_at_most_one_jump():
    for K in range(2, 9):
        plateau = double_plateau(K)
        assert len(plateau) == 2 * K
        assert len(set(plateau)) == 2 * K
        for j in plateau:
            bits = [(j >> k) & 1 for k in range(K)]
            assert sum(a != b for a, b in zip(bits, bits[1:])) <= 1


def test_plateau_shift_property():
    # bit k of element r equals the base projection shifted by k
    for K in (2, 3, 4, 5):
        plateau = double_plateau(K)
        for r in range(2 * K):
            for k in range(K):
                assert (plateau[r] >> k) & 1 == plateau_projection(r - k, K)


def test_bell_lift_duplicates_bits():
    for K in (2, 3):
        for j in range(1 << K):
            lifted = bell_lift(j, K)
            for k in range(K):
                assert (lifted >> k) & 1 == (j >> k) & 1
                assert (lifted >> (k + K)) & 1 == (j >> k) & 1


def test_bell_support_size():
    assert len(bell_support(3)) == 6
    assert len(set(bell_support(4))) == 8


def test_enumeration_guard():
    # 2 regions of 13 settings span 26 bits: past the guard, a solve needs a working set
    cells = {(x, u): F(1, 4) for u in product(range(13), repeat=2)
             for x in product((0, 1), repeat=2)}
    system = ProbabilitySystem(2, 13, [f"t{k}" for k in range(13)], cells)
    with pytest.raises(ValidationError, match="enumeration guard"):
        solve_all_gauges(system)


@pytest.mark.parametrize("n, K", [
    (n, K) for n in range(1, 13) for K in range(1, 13) if n * K <= 12
])
def test_target_index_set_equals_the_in_target_scan(n, K):
    # in_target holds a state at u for one outcome vector x alone, so if its
    # outcome code is outcome_code(x) of an x that in_target holds it at,
    # the set of states coded x at u is in_target's scan for every x
    states = np.arange(1 << (n * K), dtype=np.int64)
    for u in product(range(K), repeat=n):
        codes = outcome_codes(states, u, K)
        assert codes.dtype == np.int64
        for j, code in zip(states.tolist(), codes.tolist()):
            x = [code >> i & 1 for i in range(n)]
            assert outcome_code(x) == code and in_target(j, x, u, K)


@pytest.mark.parametrize("n, K, low, dtype", [
    (3, 4, 0, np.int64),
    (2, 31, 0, np.int64),
    (2, 40, 1 << 63, object),
    (3, 30, 1 << 80, object),
])
def test_outcome_codes_equal_in_target(n, K, low, dtype):
    rng = random.Random(f"{n}:{K}:{low}")
    states = [low + rng.randrange(1 << (n * K)) for _ in range(200)]
    array = state_array(states)
    assert array.dtype == dtype
    for _ in range(20):
        u = tuple(rng.randrange(K) for _ in range(n))
        codes = outcome_codes(array, u, K)
        assert codes.dtype == np.int64
        for x in product((0, 1), repeat=n):
            assert (codes == outcome_code(x)).tolist() == [in_target(j, x, u, K) for j in states]


def test_outcome_code_puts_region_i_at_bit_i():
    assert outcome_code((1, 0, 0)) == 1
    assert outcome_code((0, 0, 1)) == 4
    # n=2, K=3, u=(2, 0): region 0 reads bit 2, region 1 reads bit 3
    assert outcome_codes([0b0100, 0b1000, 0b1100, 0b0011], (2, 0), 3).tolist() == [1, 2, 3, 0]
