"""Inequalities, entropies, diagrams, schemes, classification."""

import math
import random
from fractions import Fraction as F

import pytest

import gaugesim as gs
import reference_model as ref
from conftest import random_mixture_system
from gaugesim.errors import WrongArity
from gaugesim.metrics import (
    MIXED,
    TSIRELSON_BOUND,
    atom_measures,
    bell_triangle_slack,
    bloch_compatibility,
    chsh,
    chsh_max,
    classify,
    entanglement_scheme,
    hamming_divergence,
    measurement_entropy,
    s2,
    s2_matrix,
    s_n,
    spin_correlation,
    total_entanglement,
    two_region_subsystems,
)
from gaugesim.model import condition, marginal, new_system, product_system


def h2(p):
    """Binary entropy, used as an independent oracle."""
    if p in (0, 1):
        return 0.0
    p = float(p)
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestHammingDivergence:
    def test_cosine_law(self):
        angles = (0.0, 0.9, 2.2)
        system = gs.epr_b(angles)
        for a in range(3):
            for b in range(3):
                want = 0.5 * (1 - math.cos(angles[a] - angles[b]))
                assert hamming_divergence(system, a, b) == pytest.approx(want)

    def test_totally_correlated_diagonal_is_zero(self):
        system = gs.general_bell2(F(1, 3), F(1, 4), F(5, 12), F(1, 2))
        assert hamming_divergence(system, 0, 0) == 0
        assert hamming_divergence(system, 1, 1) == 0

    def test_fair_coins(self):
        coins = product_system(
            [gs.one_region([F(1, 2)]), gs.one_region([F(1, 2)])]
        )
        assert hamming_divergence(coins, 0, 0) == pytest.approx(0.5)

    def test_wrong_arity(self):
        with pytest.raises(WrongArity):
            hamming_divergence(gs.ghz_xy(), 0, 0)


class TestTriangle:
    def test_max_violation_angles_are_negative(self):
        system = gs.epr_b((0.0, math.pi / 5, math.pi / 2))
        assert bell_triangle_slack(system, 0, 1, 2) < 0

    def test_degenerate_settings_zero(self):
        system = gs.general_bell2(F(1, 2), F(1, 2), F(3, 4), F(3, 4))
        assert bell_triangle_slack(system, 0, 0, 0) == 0


class TestChsh:
    def test_pr_box_reaches_four(self):
        result = chsh(gs.pr_box(), 0, 1, 0, 1)
        assert result.value == pytest.approx(4.0)
        assert result.tsirelson_violation

    def test_epr_reaches_tsirelson(self):
        system = gs.epr_b((0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4))
        best = chsh_max(system)
        assert best.value == pytest.approx(TSIRELSON_BOUND, abs=1e-9)

    def test_moderate_angles_still_violate(self):
        system = gs.epr_b((0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8))
        assert chsh_max(system).value > 2.0

    def test_mixed_convention_combination(self):
        q1, q2, q3, q4 = F(1, 2), F(1, 2), F(5, 8), F(3, 4)
        system = gs.general_bell2(q1, q2, q3, q4)
        result = chsh(system, 0, 1, 1, 0, convention=MIXED)
        assert result.signed == pytest.approx(float(-2 - 4 * (q4 - q3)))

    def test_spin_conventions_differ_on_diagonal(self):
        system = gs.general_bell2(F(1, 2), F(1, 2), F(3, 4), F(3, 4))
        assert spin_correlation(system, 0, 0, MIXED) == pytest.approx(-1.0)
        assert spin_correlation(system, 0, 0) == pytest.approx(1.0)


class TestMeasurementEntropy:
    def test_singlet_pair_entropy(self):
        assert measurement_entropy(gs.singlet(), (0, 1), (0, 0)) == pytest.approx(1.0)

    def test_uniform_single_regions(self):
        for system in (gs.ghz_xy(), gs.w_xy()):
            for i in range(3):
                for k in range(2):
                    assert measurement_entropy(system, (i,), (k,)) == pytest.approx(1.0)

    def test_deterministic_zero(self):
        system = gs.one_region([F(1), F(0)])
        assert measurement_entropy(system, (0,), (0,)) == 0.0

    def test_oracle_binary_entropy(self):
        system = gs.one_region([F(1, 3), F(2, 5)])
        assert measurement_entropy(system, (0,), (0,)) == pytest.approx(h2(F(1, 3)))
        assert measurement_entropy(system, (0,), (1,)) == pytest.approx(h2(F(2, 5)))


class TestS2:
    def test_singlet_matrix_is_identity_patterned(self):
        matrix = s2_matrix(gs.singlet())
        for a in range(3):
            for b in range(3):
                assert matrix[a][b] == pytest.approx(1.0 if a == b else 0.0)

    def test_w_pair_values(self):
        pair = marginal(gs.w_xy(), (0, 1)).system
        assert s2(pair, 0, 0) == pytest.approx(0.35, abs=5e-3)
        assert s2(pair, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_epr_closed_form(self):
        angles = (0.0, 0.8)
        system = gs.epr_b(angles)
        c = math.cos(angles[0] - angles[1])
        want = 0.5 * ((1 + c) * math.log2(1 + c) + (1 - c) * math.log2(1 - c))
        assert s2(system, 0, 1) == pytest.approx(want)
        assert s2(system, 0, 0) == pytest.approx(1.0)

    def test_symmetry_under_region_interchange(self):
        pair = marginal(gs.w_xy(), (0, 2)).system
        swapped = new_system(
            2, 2, ("X", "Y"),
            {((x1, x0), (u1, u0)): p for ((x0, x1), (u0, u1)), p in pair.targets()},
        )
        for a in range(2):
            for b in range(2):
                assert s2(pair, a, b) == pytest.approx(s2(swapped, b, a))


class TestDiagram:
    def test_ghz_axis_atoms(self):
        diagram = atom_measures(gs.ghz_zzz(), (0, 0, 0))
        for mask in range(1, 7):
            assert diagram.atom(mask) == pytest.approx(0.0, abs=1e-12)
        assert diagram.atom(7) == pytest.approx(1.0, abs=1e-12)

    def test_w_axis_atoms(self):
        diagram = atom_measures(gs.w_zzz(), (0, 0, 0))
        for mask in (1, 2, 4):
            assert diagram.atom(mask) == pytest.approx(0.0, abs=1e-12)
        for mask in (3, 5, 6):
            assert diagram.atom(mask) == pytest.approx(0.667, abs=5e-4)
        assert diagram.atom(7) == pytest.approx(-0.415, abs=5e-4)

    def test_independent_coins_have_local_atoms_only(self):
        system = product_system(
            [gs.one_region([F(1, 3)]), gs.one_region([F(1, 4)]), gs.one_region([F(2, 5)])]
        )
        diagram = atom_measures(system, (0, 0, 0))
        for mask, value in diagram.atoms.items():
            if bin(mask).count("1") >= 2:
                assert value == pytest.approx(0.0, abs=1e-12)

    def test_reconstruction_identity(self):
        diagram = atom_measures(gs.w_xy(), (0, 1, 0))
        for mask, joint in diagram.joint_entropies.items():
            assert diagram.reconstruct(mask) == pytest.approx(joint, abs=1e-9)


def test_joint_entropies_equal_measurement_entropy():
    rng = random.Random(20261018)
    systems = [gs.w_xy(), gs.ghz_xy(), gs.super_ghz(), random_mixture_system(rng, 4, 2)]
    mixture = random_mixture_system(rng, 3, 3)
    systems.append(new_system(3, 3, mixture.labels,
                              {key: float(p) * (1 + 1e-12 * rng.random())
                               for key, p in mixture.targets()}))
    for system in systems:
        for u in system.setting_vectors():
            diagram = atom_measures(system, u)
            for mask, joint in diagram.joint_entropies.items():
                regions = [i for i in range(system.n) if mask >> i & 1]
                assert joint == measurement_entropy(system, regions, [u[i] for i in regions])


class TestSn:
    def test_ghz_two_setting_values(self):
        system = gs.ghz_xy()
        assert s_n(system, (0, 0, 0)) == pytest.approx(-1.0, abs=1e-12)
        assert s_n(system, (0, 0, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_w_two_setting_value(self):
        assert s_n(gs.w_xy(), (0, 0, 0)) == pytest.approx(0.257, abs=5e-4)

    def test_super_ghz_constant(self):
        system = gs.super_ghz()
        for u in system.setting_vectors():
            assert s_n(system, u) == pytest.approx(-1.0, abs=1e-12)

    def test_alternating_sum_oracle(self):
        # inclusion-exclusion over joint entropies, written out directly
        system = gs.w_xy()
        u = (0, 0, 1)
        total = 0.0
        for mask in range(1, 8):
            regions = [i for i in range(3) if mask >> i & 1]
            sign = (-1) ** (len(regions) + 1)
            total += sign * measurement_entropy(
                system, regions, tuple(u[i] for i in regions)
            )
        assert s_n(system, u) == pytest.approx(total, abs=1e-12)


class TestTotalEntanglement:
    def test_axis_values(self):
        assert total_entanglement(gs.ghz_zzz(), (0, 0, 0)) == pytest.approx(2.0)
        assert total_entanglement(gs.w_zzz(), (0, 0, 0)) == pytest.approx(1.170, abs=5e-4)

    def test_w_two_setting_values(self):
        system = gs.w_xy()
        assert total_entanglement(system, (0, 0, 0)) == pytest.approx(0.792, abs=5e-4)
        assert total_entanglement(system, (0, 0, 1)) == pytest.approx(0.350, abs=5e-4)

    def test_pr_box_maximal(self):
        system = gs.pr_box()
        for u in system.setting_vectors():
            assert total_entanglement(system, u) == pytest.approx(1.0)

    def test_bounds(self):
        for name in ("w-xy", "ghz-xy", "super-ghz"):
            system = gs.build(name)
            for u in system.setting_vectors():
                value = total_entanglement(system, u)
                assert -1e-12 <= value <= system.n - 1 + 1e-12


class TestScheme:
    def test_ghz_scheme(self):
        scheme = entanglement_scheme(gs.ghz_xy())
        assert scheme.flags == (0, 1)
        assert scheme.degree == 3

    def test_w_scheme(self):
        scheme = entanglement_scheme(gs.w_xy())
        assert scheme.flags == (3, 1)

    def test_separable_scheme(self):
        system = product_system(
            [gs.one_region([F(1, 3), F(1, 2)]) for _ in range(3)]
        )
        scheme = entanglement_scheme(system)
        assert scheme.flags == (0, 0)
        assert scheme.degree == 1
        assert scheme.max_total_entanglement == pytest.approx(0.0, abs=1e-12)

    def test_ghz_axis_maximally_entangled(self):
        assert entanglement_scheme(gs.ghz_zzz()).maximally_entangled
        assert not entanglement_scheme(gs.w_zzz()).maximally_entangled


class TestClassify:
    def test_super_ghz_detected(self):
        result = classify(gs.super_ghz())
        assert result.verdict == "super-quantum-detected"
        chain, witness = result.witness
        assert witness.value > TSIRELSON_BOUND

    def test_ghz_quantum_compatible(self):
        result = classify(gs.ghz_xy())
        assert result.verdict == "entangled-quantum-compatible"

    def test_separable(self):
        system = product_system(
            [gs.one_region([F(1, 3)]), gs.one_region([F(1, 4)])]
        )
        assert classify(system).verdict == "separable"

    def test_quasi_boundary_value(self):
        eps = (2 - math.sqrt(2)) / 16
        system = gs.quasi_super_ghz(eps)
        branch = condition(system, 2, 0, 0).system
        assert chsh_max(branch).value == pytest.approx(TSIRELSON_BOUND, abs=1e-6)


def _walk_cases():
    cases = [(name, gs.build(name)) for name in gs.catalog.names() if gs.build(name).n >= 3]
    rng = random.Random(20261018)
    # biases in {0, 1/2, 1} give zero-probability branches
    cases.append(("coins-K2", product_system(
        [gs.one_region([F(rng.randint(0, 2), 2) for _ in range(2)]) for _ in range(4)])))
    for i in range(3):
        for K in (2, 3):
            cases.append((f"mixture-{i}-K{K}", random_mixture_system(rng, 4, K)))
    for name, system in list(cases[-7:]):
        floats = {key: float(p) * (1 + 1e-12 * rng.random()) for key, p in system.targets()}
        cases.append((f"{name}-float", new_system(4, system.num_settings, system.labels, floats)))
    return cases


WALK_CASES = _walk_cases()


@pytest.mark.parametrize("name,system", WALK_CASES, ids=[c[0] for c in WALK_CASES])
def test_two_region_subsystems_follow_the_reference_walk(name, system):
    expected = ref.ReferenceSystem(system.n, system.num_settings, system.labels,
                                   dict(system.targets()))
    got = [(chain, pair.to_dict()) for chain, pair in two_region_subsystems(system)]
    want = [(chain, pair.to_dict()) for chain, pair in ref.two_region_walk(expected)]
    assert got == want


class TestBloch:
    def test_unbiased_compatible(self):
        system = gs.one_region([F(1, 2), F(1, 2), F(1, 2)])
        assert bloch_compatibility(system, 0, (0, 1, 2))

    def test_two_certain_settings_incompatible(self):
        system = gs.one_region([F(1), F(1), F(1, 2)])
        assert not bloch_compatibility(system, 0, (0, 1, 2))

    def test_boundary_case(self):
        system = gs.one_region([F(1), F(1, 2), F(1, 2)])
        assert bloch_compatibility(system, 0, (0, 1, 2))

    def test_biased_triple(self):
        system = gs.one_region([F(9, 10), F(9, 10), F(9, 10)])
        assert not bloch_compatibility(system, 0, (0, 1, 2))
