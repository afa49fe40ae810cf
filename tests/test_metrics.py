"""Inequalities, entropies, diagrams, schemes, classification."""

import contextlib
import hashlib
import io
import json
import math
import random
import tracemalloc
from fractions import Fraction as F
from itertools import combinations, product

import numpy as np
import pytest

import gaugesim as gs
import reference_model as ref
from conftest import int64_mixture, random_mixture_system, random_product_system
from gaugesim.cli import _max_conditioned_chsh, main
from gaugesim.errors import GaugeSimError, WrongArity
from gaugesim.metrics import (
    MIXED,
    QUANTUM_COMPATIBLE,
    TSIRELSON_BOUND,
    Classification,
    _diagrams,
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
from gaugesim.model import (
    condition,
    integer_view,
    is_separable,
    marginal,
    new_system,
    product_system,
    save_system,
)
from gaugesim.scalars import EPS_NUM


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
        assert result.classical_violation
        assert result.tsirelson_violation

    def test_epr_reaches_tsirelson(self):
        system = gs.epr_b((0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4))
        best = chsh_max(system)
        assert best.value == pytest.approx(TSIRELSON_BOUND, abs=1e-9)
        assert best.classical_violation

    def test_separable_product_violates_nothing(self):
        system = product_system([gs.one_region([F(1, 3), F(1, 2)]),
                                 gs.one_region([F(1, 4), F(3, 4)])])
        best = chsh_max(system)
        assert best.value <= 2.0
        assert not best.classical_violation
        assert not best.tsirelson_violation

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
        pair = marginal(gs.w_xy(), (0, 1))
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
        pair = marginal(gs.w_xy(), (0, 2))
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


def pinned_metrics_systems():
    """(catalog arguments or None, system) behind each pinned metrics report.

    Singlet and pr-box carry the two-region keys; the seeded mixtures come
    exact and as floats off by up to 1e-12, so a float marginal summed in
    another order would show in the last bits.
    """
    for name in ("singlet", "pr-box", "w-xy", "ghz-xy", "super-ghz"):
        yield ["--catalog", name], gs.build(name)
    for eps in ("1/8", "0.0366"):
        yield (["--catalog", "quasi-super-ghz", "--param", f"eps={eps}"],
               gs.build("quasi-super-ghz", eps=eps))
    rng = random.Random(20261019)
    for n, K in ((3, 2), (3, 3), (4, 2)):
        mixture = random_mixture_system(rng, n, K)
        yield None, mixture
        floats = {key: float(p) * (1 + 1e-12 * rng.random()) for key, p in mixture.targets()}
        yield None, new_system(n, K, mixture.labels, floats)


def signalling_w_xy():
    """w-xy with 1/8 moved between two outcomes of region 0 at settings (1, 0, 0)."""
    table = dict(gs.w_xy().targets())
    table[((0, 0, 0), (1, 0, 0))] += F(1, 8)
    table[((1, 0, 0), (1, 0, 0))] -= F(1, 8)
    return new_system(3, 2, ("0", "1"), table)


# sha256 of the exit code and stdout of `gaugesim metrics` on each pinned
# system, then on one --settings report and on a signalling file, as
# computed with one `atom_measures` call and one solve per setting vector
PINNED_METRICS_SHA256 = "f8287b67c2621f88af8dd3524d0f50feaa36d324b61fbd7d72596b559f900f9a"


def mixture8(as_float):
    """A mixture of three seeded product tables over 8 regions, K = 2."""
    rng, n, weights = random.Random(20261019), 8, (1, 2, 3)
    # component c reads 1 at region i under setting s with probability ones[c][i][s] / 4
    ones = [[[rng.randint(0, 4) for _s in range(2)] for _i in range(n)] for _c in weights]
    D = sum(weights) * 4 ** n
    table = {}
    for u in product((0, 1), repeat=n):
        for x in product((0, 1), repeat=n):
            num = sum(w * math.prod(q[i][s] if b else 4 - q[i][s]
                                    for i, (s, b) in enumerate(zip(u, x)))
                      for w, q in zip(weights, ones))
            table[(x, u)] = num / D if as_float else F(num, D)
    return new_system(n, 2, ("0", "1"), table)


@pytest.mark.parametrize("as_float", [False, True])
def test_one_vector_reads_the_full_reports_entry(as_float):
    # a single-vector call reads only that vector's rows of each subset's
    # marginal; its answers are the full report's, bit for bit
    system = mixture8(as_float)
    diagrams = _diagrams(system)
    for index in (0, 1, 150, 255):
        u = diagrams[index].settings
        assert atom_measures(system, u) == diagrams[index]
        assert s_n(system, u) == diagrams[index].atom(255)
        assert total_entanglement(system, u) == diagrams[index].total_entanglement


def test_metrics_reports_match_the_pinned_digest(tmp_path):
    runs = []
    for i, (argv, system) in enumerate(pinned_metrics_systems()):
        if argv is None:
            path = tmp_path / f"mixture{i}.json"
            save_system(system, path)
            argv = ["--system", str(path)]
        runs.append(argv)
    runs.append(["--catalog", "w-xy", "--settings", "0,1,0"])
    path = tmp_path / "signalling.json"
    save_system(signalling_w_xy(), path)
    runs.append(["--system", str(path)])

    answers = []
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["metrics", *argv])
        answers.append([code, out.getvalue()])
    assert [code for code, _out in answers] == [0] * 14 + [2]
    assert '"ValidationError"' in answers[-1][1]
    digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
    assert digest == PINNED_METRICS_SHA256


def hidden_coin():
    """Three regions that read 0 at setting 0 and one shared fair coin at
    setting 1: every subset's top atom is 0 at settings 0 and 1 bit at 1."""
    table = {(x, u): F(sum(all(xi == coin * ui for xi, ui in zip(x, u)) for coin in (0, 1)), 2)
             for x in product((0, 1), repeat=3) for u in product((0, 1), repeat=3)}
    return new_system(3, 2, ("0", "1"), table)


ORACLE_SYSTEMS = [*(system for _argv, system in pinned_metrics_systems()), hidden_coin(),
                  random_mixture_system(random.Random(20261020), 2, 3)]


@pytest.mark.parametrize("system", ORACLE_SYSTEMS)
def test_diagrams_equal_the_per_vector_oracle(system):
    diagrams = _diagrams(system)
    assert [d.settings for d in diagrams] == list(system.setting_vectors())
    for diagram in diagrams:
        u = diagram.settings
        joint, atoms = ref.atom_measures(system, u)
        assert diagram.joint_entropies == joint
        assert diagram.atoms == atoms
        assert diagram.total_entanglement == ref.relative_entropy_to_product(system, u)
        assert total_entanglement(system, u) == diagram.total_entanglement
        assert atom_measures(system, u) == diagram
    if system.n == 2:
        K = system.num_settings
        assert s2_matrix(system) == [[ref.relative_entropy_to_product(system, (a, b))
                                      for b in range(K)] for a in range(K)]
    scheme = entanglement_scheme(system)
    want = ref.entanglement_scheme(system)
    assert (scheme.flags, scheme.degree, scheme.max_total_entanglement) == want
    assert entanglement_scheme(system, diagrams) == scheme


def test_measurement_entropy_keeps_each_setting_with_its_region():
    coins = product_system([gs.one_region([F(1, 2), F(1, 2)]),
                            gs.one_region([F(1, 3), F(1, 3)]),
                            gs.one_region([F(1, 10), F(1, 2)])])
    # region 0 at setting 0 and region 2 at setting 1: two fair coins
    assert measurement_entropy(coins, (2, 0), (1, 0)) == 2.0
    assert measurement_entropy(coins, (0, 2), (0, 1)) == 2.0
    assert measurement_entropy(coins, (2, 0), (0, 1)) == measurement_entropy(coins, (0, 2), (1, 0))
    with pytest.raises(ValueError):
        measurement_entropy(coins, (0, 2), (0,))
    with pytest.raises(ValueError):
        measurement_entropy(coins, (0, 0), (0, 1))


def test_scheme_takes_only_the_systems_own_diagrams():
    system = gs.w_xy()
    diagrams = _diagrams(system)
    for wrong in (diagrams[:1], diagrams[::-1], _diagrams(gs.ghz_xy())[:-1]):
        with pytest.raises(ValueError):
            entanglement_scheme(system, wrong)


def test_arity_is_checked_before_consistency(monkeypatch, tmp_path, capsys):
    path = tmp_path / "signalling.json"
    save_system(signalling_w_xy(), path)
    monkeypatch.setattr(gs.metrics, "MAX_DIAGRAM_REGIONS", 2)
    with pytest.raises(WrongArity):
        atom_measures(signalling_w_xy(), (0, 0, 0))
    assert main(["metrics", "--system", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "WrongArity"


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

    @pytest.mark.parametrize("build", [gs.ghz_zzz, gs.w_zzz])
    def test_one_setting_entangled_systems_are_quantum_compatible(self, build):
        # one setting admits no CHSH tuple, so no exceedance and no witness
        assert classify(build()) == Classification(QUANTUM_COMPATIBLE)
        with pytest.raises(WrongArity):
            chsh_max(marginal(build(), (0, 1)))

    def test_separable(self):
        system = product_system(
            [gs.one_region([F(1, 3)]), gs.one_region([F(1, 4)])]
        )
        assert classify(system).verdict == "separable"

    def test_quasi_boundary_value(self):
        eps = (2 - math.sqrt(2)) / 16
        system = gs.quasi_super_ghz(eps)
        branch = condition(system, 2, 0, 0)
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


def _coin_times(p0, p1, inner):
    """Region 0 shows 1 with probability p0 at setting 0 and p1 at setting 1;
    the other regions are an independent copy of `inner` (K = 2)."""
    coin = {0: (1 - p0, p0), 1: (1 - p1, p1)}
    n = inner.n + 1
    table = {(x, u): coin[u[0]][x[0]] * inner.prob(x[1:], u[1:])
             for u in product(range(2), repeat=n) for x in product((0, 1), repeat=n)}
    return new_system(n, 2, inner.labels, table)


def _big_denominator_system():
    """n = 4 mixture whose weight has denominator 2^61 - 1, so D >= 2^53."""
    rng = random.Random(53)
    a = random_mixture_system(rng, 4, 2)
    b = _coin_times(F(0), F(1, 2), gs.super_ghz())
    w = F(rng.randrange(1, 2**61 - 1), 2**61 - 1)
    table = {key: w * p + (1 - w) * b.prob(*key) for key, p in a.targets()}
    return new_system(4, 2, a.labels, table)


def _batched_cases():
    rng = random.Random(20261019)
    cases = []
    for n in range(2, 6):
        for K in range(1, 4):
            cases.append((f"mixture-n{n}-K{K}", random_mixture_system(rng, n, K)))
    # biases in {0, 1/2, 1} give assignments of zero mass
    for n, K in ((3, 2), (4, 2), (4, 3), (5, 2)):
        cases.append((f"coins-n{n}-K{K}", product_system(
            [gs.one_region([F(rng.randint(0, 2), 2) for _ in range(K)]) for _ in range(n)])))
        cases.append((f"coin-mixture-n{n}-K{K}", random_mixture_system(rng, n, K, denominator=2)))
    cases.append(("coin0-super-ghz", _coin_times(F(0), F(1, 2), gs.super_ghz())))
    cases.append(("coin-ghz-xy", _coin_times(F(1, 3), F(1, 2), gs.ghz_xy())))
    cases.append(("coin-w-xy", _coin_times(F(1), F(1, 2), gs.w_xy())))
    cases += [(name, gs.build(name)) for name in gs.catalog.names()
              if gs.build(name).backend == "rational"]
    cases += [(f"qsg-{k}-128", gs.quasi_super_ghz(F(k, 128))) for k in range(33)]
    cases.append(("big-denominator", _big_denominator_system()))
    # shaped like the benchmark's classify files
    rng = random.Random(20261020)
    for n, K in ((4, 3), (5, 2)):
        for i in range(2):
            cases.append((f"bench-mixture-{i}-n{n}-K{K}", _bench_mixture(rng, n, K)))
    cases.append(("coin-third-super-ghz", _coin_times(F(1, 3), F(1, 2), gs.super_ghz())))
    return cases


def _bench_mixture(rng, n, K, components=3):
    """Mixture of product tables with weights in twelfths and factor
    probabilities k/8, 1 <= k <= 7: every cell positive, over 12 * 8**n."""
    cuts = sorted(rng.sample(range(1, 12), components - 1))
    weights = [F(b - a, 12) for a, b in zip([0] + cuts, cuts + [12])]
    factors = [[[F(rng.randint(1, 7), 8) for _ in range(K)] for _ in range(n)]
               for _ in weights]
    table = {}
    for u in product(range(K), repeat=n):
        for x in product((0, 1), repeat=n):
            table[(x, u)] = sum(
                w * math.prod(f[i][u[i]] if x[i] == 0 else 1 - f[i][u[i]] for i in range(n))
                for w, f in zip(weights, factors))
    return new_system(n, K, [f"s{k}" for k in range(K)], table)


BATCHED_CASES = _batched_cases()


def _walk_answers(system):
    """`classify(...).as_dict()` and `_max_conditioned_chsh`, by the walk.

    The walk is `two_region_subsystems` (checked against the dict reference
    above) with the scalar CHSH search of `reference_model`; a failure is
    returned as (error type, message).  A one-setting system has no CHSH
    tuple to search, so the walk fails, and an entangled one classifies as
    quantum-compatible with no witness.
    """
    try:
        walked = [(chain, ref.chsh_max(pair)) for chain, pair in two_region_subsystems(system)]
    except GaugeSimError as exc:
        walked = (type(exc), str(exc))
    best = walked if isinstance(walked, tuple) else max(result[0] for _chain, result in walked)
    if is_separable(system):
        return {"verdict": "separable"}, best
    if system.num_settings < 2:
        return {"verdict": "entangled-quantum-compatible"}, best
    if isinstance(walked, tuple):
        return walked, best
    witness = None
    for chain, (value, settings, _signed) in walked:
        found = {"chain": [list(step) for step in chain], "chsh": value,
                 "settings": list(settings)}
        if value > TSIRELSON_BOUND + EPS_NUM:
            return {"verdict": "super-quantum-detected", "witness": found}, best
        if witness is None or value > witness["chsh"]:
            witness = found
    return {"verdict": "entangled-quantum-compatible", "witness": witness}, best


def _answers(system):
    def run(fn):
        try:
            return fn(system)
        except GaugeSimError as exc:
            return (type(exc), str(exc))

    return run(lambda s: classify(s).as_dict()), run(_max_conditioned_chsh)


@pytest.mark.parametrize("name,system", BATCHED_CASES, ids=[c[0] for c in BATCHED_CASES])
def test_batched_chsh_matches_the_walk(name, system):
    assert _answers(system) == _walk_answers(system)


def test_first_exceedance_of_the_coin_case_is_not_its_first_pair():
    system = dict(BATCHED_CASES)["coin-third-super-ghz"]
    values = [chsh_max(pair).value for _chain, pair in two_region_subsystems(system)]
    first = next(i for i, v in enumerate(values) if v > TSIRELSON_BOUND + EPS_NUM)
    assert first > 0
    assert classify(system).verdict == "super-quantum-detected"


def _bisection_eps():
    """Every eps the default `sweep --locate-tsirelson` builds, as it builds it."""
    seen = []

    def build(name, **params):
        seen.append(params["eps"])
        return gs.build(name, **params)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gs.cli.catalog, "build", build)
        with contextlib.redirect_stdout(io.StringIO()):
            assert gs.cli.main(["sweep", "--catalog", "quasi-super-ghz", "--locate-tsirelson"]) == 0
    return [F(text) for text in seen]


def _uniform_eps(count=100):
    rng = random.Random(20261021)
    return [rng.uniform(0.0, 0.25) for _ in range(count)]


MAX_EPS = _bisection_eps() + _uniform_eps() + [F(k, 128) for k in range(33)]


@pytest.mark.parametrize("eps", MAX_EPS, ids=str)
def test_max_conditioned_chsh_matches_the_walk_bit_for_bit(eps):
    system = gs.quasi_super_ghz(eps)
    walked = max(chsh_max(pair).value for _chain, pair in two_region_subsystems(system))
    got = _max_conditioned_chsh(system)
    assert type(got) is float
    assert got.hex() == walked.hex()


def test_batched_chsh_conditions_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("condition called")

    monkeypatch.setattr(gs.model, "condition", refuse)
    system = random_mixture_system(random.Random(3), 4, 3)
    assert classify(system).verdict == "entangled-quantum-compatible"
    assert _max_conditioned_chsh(_big_denominator_system()) > TSIRELSON_BOUND
    # a consistent float system is conditioned depth by depth on arrays
    assert classify(_float_twin(system)).verdict == "entangled-quantum-compatible"
    # a signalling rational system still walks through `condition`
    with pytest.raises(AssertionError):
        classify(_signalling(system, random.Random(4)))


def test_big_denominator_case_takes_the_object_path():
    N, D = integer_view(_big_denominator_system())
    assert D >= 2**53 and N.dtype == object


def test_earliest_of_tied_maxima_is_the_witness():
    # the coin's four (setting, outcome) branches leave the same GHZ pairs
    result = classify(_coin_times(F(1, 3), F(1, 2), gs.ghz_xy())).as_dict()
    assert result == {"verdict": "entangled-quantum-compatible",
                      "witness": {"chain": [[3, 1, 1], [0, 1, 1]], "chsh": 2.0,
                                  "settings": [0, 1, 0, 1]}}


def _float_twin(system, noise=None):
    """`system` with float entries, each times 1 + 1e-12 * noise.random() when given."""
    table = {key: float(p) * (1 + 1e-12 * noise.random()) if noise else float(p)
             for key, p in system.targets()}
    return new_system(system.n, system.num_settings, system.labels, table)


def _signalling(system, rng):
    """`system` with mass moved between two cells of one setting column that
    differ in region 0's outcome alone: every column still sums to 1, but
    region 0's marginal there no longer matches its other columns."""
    n, K = system.n, system.num_settings
    table = dict(system.targets())
    u = tuple(rng.randrange(K) for _ in range(n))
    rest = tuple(rng.randrange(2) for _ in range(n - 1))
    a, b = ((0,) + rest, u), ((1,) + rest, u)
    delta = min(table[a], table[b]) / 2
    table[a] += delta
    table[b] -= delta
    signalling = new_system(n, K, system.labels, table)
    assert not gs.model.is_locally_consistent(signalling)
    return signalling


def _signed_zeros():
    """A float super-GHZ behind a coin, with a -0.0 entry and a -1e-12 entry
    where the coin leaves no mass (the -1e-12 column sums to 1 - 1e-12)."""
    system = _float_twin(_coin_times(F(0), F(1, 2), gs.super_ghz()))
    table = dict(system.targets())
    table[((1, 0, 0, 0), (0, 0, 0, 0))] = -0.0
    table[((1, 1, 0, 1), (0, 1, 0, 1))] = -1e-12
    return new_system(4, 2, system.labels, table)


def _float_cases():
    noise = random.Random(20261022)
    cases = [(f"{name}-float", _float_twin(system)) for name, system in BATCHED_CASES]
    cases += [(f"{name}-float-noise", _float_twin(system, noise)) for name, system in BATCHED_CASES]
    rng = random.Random(20261023)
    for n in (3, 4):
        for i in range(3):
            mixture = random_mixture_system(rng, n, 2, denominator=12)
            cases.append((f"signalling-{i}-n{n}", _float_twin(_signalling(mixture, rng))))
    cases.append(("signed-zeros", _signed_zeros()))
    # branches of mass 1e-12, under EPS_NUM but positive, where the first
    # largest pair would be met if they were taken
    cases.append(("tiny-coin-ghz-xy", _float_twin(_coin_times(F(1, 3), F(1, 10**12), gs.ghz_xy()))))
    return cases


FLOAT_CASES = _float_cases()


@pytest.mark.parametrize("name,system", FLOAT_CASES, ids=[c[0] for c in FLOAT_CASES])
def test_float_batched_chsh_matches_the_walk(name, system):
    assert _answers(system) == _walk_answers(system)


def test_float_cases_reach_every_branch_of_the_batched_path():
    cases = dict(FLOAT_CASES)
    assert classify(cases["super-ghz-float"]).verdict == "super-quantum-detected"
    assert classify(cases["signed-zeros"]).verdict == "super-quantum-detected"
    assert classify(cases["coin-w-xy-float-noise"]).verdict == "entangled-quantum-compatible"
    # one setting: classify finds no CHSH tuple to witness, and the search raises
    assert classify(cases["mixture-n2-K1-float"]) == Classification(QUANTUM_COMPATIBLE)
    with pytest.raises(WrongArity):
        _max_conditioned_chsh(cases["mixture-n2-K1-float"])
    with pytest.raises(gs.errors.NormalizationViolation):
        classify(cases["signalling-0-n3"])


def test_float_classify_peaks_under_8_mb():
    system = _float_twin(random_mixture_system(random.Random(6), 6, 2))
    tracemalloc.start()
    try:
        assert classify(system).verdict == "entangled-quantum-compatible"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n,K", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (6, 2)])
def test_rational_pairs_in_groups_give_the_whole_passs_witness(monkeypatch, n, K):
    """Rational pair tables gathered a few first step codes at a time, with a tiny cap,
    give the witness, value and verdict of the pass over all of them at once and of the
    walk, with or without an exceedance to stop at."""
    rng = random.Random(f"groups-{n}-{K}")
    systems = [random_mixture_system(rng, n, K, components) for components in (1, 2, 3)]
    if K == 2 and n in (3, 4):  # a super-quantum pair, met after others at n = 4
        systems.append(gs.super_ghz() if n == 3 else _coin_times(F(1, 3), F(1, 2),
                                                                   gs.super_ghz()))
    for system in systems:
        for bound in (math.inf, 2.0, TSIRELSON_BOUND + EPS_NUM):
            monkeypatch.setattr(gs.metrics, "RATIONAL_PAIR_CELLS", 1 << 62)
            whole = gs.metrics._chsh_witness(system, bound)
            for cap in (1, 300, 5000):
                monkeypatch.setattr(gs.metrics, "RATIONAL_PAIR_CELLS", cap)
                steps, value, best = gs.metrics._chsh_witness(system, bound)
                assert (steps.tolist(), value, best) == (whole[0].tolist(), *whole[1:])
        assert _answers(system) == _walk_answers(system)


def test_rational_classify_at_n7_k3_peaks_under_64_mb():
    """A two-component mixture of products at n = 7, K = 3, built from integer arrays:
    its candidate pair tables would take 47 MB in each array at once, so classify
    gathers them a group of first step codes at a time."""
    system = gs.model.ProbabilitySystem._from_view(("a", "b", "c"), *int64_mixture(3, 7, 3))
    tracemalloc.start()
    try:
        assert classify(system).verdict == QUANTUM_COMPATIBLE
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def _near_separable():
    """Float products with one setting column's mass moved by about EPS_NUM."""
    rng, cases = random.Random(20261024), []
    for n, K in ((2, 2), (3, 2), (3, 3), (4, 2)):
        factors = _float_twin(random_product_system(rng, n, K))
        for delta in (0.5e-9, 0.9e-9, 1e-9, 1.1e-9, 2e-9, 5e-9):
            table = dict(factors.targets())
            u = tuple(rng.randrange(K) for _ in range(n))
            column = [(x, u) for x in product((0, 1), repeat=n)]
            b = max(column, key=table.get)  # mass to give, so no entry turns negative
            a = column[0] if column[0] != b else column[-1]
            table[a] += delta
            table[b] -= delta
            cases.append(new_system(n, K, factors.labels, table))
    return cases


@pytest.mark.parametrize("system", [s for _name, s in FLOAT_CASES if s.n <= 4] + _near_separable())
def test_float_is_separable_matches_the_reference(system):
    expected = ref.ReferenceSystem(system.n, system.num_settings, system.labels,
                                   dict(system.targets()))
    assert is_separable(system) == ref.is_separable(expected)


def test_metrics_report_checks_exact_consistency_once(monkeypatch, tmp_path):
    """A rational report reads its subsets off the whole system's diagrams: it builds no
    marginal and checks consistency once.  A float report builds its 10 subsets at n = 4."""
    calls, built = [], []
    check, take = gs.model._single_drops_hold, gs.metrics.marginal
    monkeypatch.setattr(gs.model, "_single_drops_hold", lambda N: calls.append(N) or check(N))
    monkeypatch.setattr(gs.metrics, "marginal",
                        lambda system, kept: built.append(kept) or take(system, kept))
    system = random_mixture_system(random.Random(8), 4, 2)
    for twin, want in ((system, (1, 0)), (_float_twin(system), (0, 10))):
        path = tmp_path / "mixture.json"
        save_system(twin, path)
        calls.clear()
        built.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["metrics", "--system", str(path)]) == 0
        assert (len(calls), len(built)) == want


@pytest.mark.parametrize("n,K", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2), (6, 3)])
def test_subset_top_atoms_equal_the_marginal_route(n, K):
    """The scheme's top atoms of every proper subset equal, bit for bit, those of the
    subset's marginal solved on its own.  A rational subset's are gathered from the whole
    system's joint entropies, with no `marginal`; a float subset is still built by
    `marginal`, whose sums run in another order than the whole table's."""
    rng = random.Random(f"subsets-{n}-{K}")
    combos = [c for m in range(2, n) for c in combinations(range(n), m)]
    real_solve, real_marginal = np.linalg.solve, gs.metrics.marginal
    for components in (1, 2, 3)[:1 if n * K > 12 else 3]:
        system = random_mixture_system(rng, n, K, components)
        for twin in (system, _float_twin(system)):
            want = [[x[-1] for x in gs.metrics._solve_atoms(marginal(twin, c))[3]]
                    for c in combos]
            diagrams = _diagrams(twin)
            solved, built = [], []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(np.linalg, "solve",
                              lambda a, b: solved.append(real_solve(a, b)) or solved[-1])
                patch.setattr(gs.metrics, "marginal",
                              lambda s, kept: built.append(tuple(kept)) or real_marginal(s, kept))
                entanglement_scheme(twin, diagrams)
            assert [x[:, -1, 0].tolist() for x in solved] == want
            assert built == ([] if twin is system else combos)


def _pairs():
    rng = random.Random(44)
    pairs = [(name, gs.build(name)) for name in gs.catalog.names()
             if gs.build(name).n == 2 and gs.build(name).num_settings >= 2]
    for K in (2, 3, 4):
        pairs.append((f"mixture-K{K}", random_mixture_system(rng, 2, K)))
        pairs.append((f"coins-K{K}", product_system(
            [gs.one_region([F(rng.randint(0, 2), 2) for _ in range(K)]) for _ in range(2)])))
    pairs.append(("ghz-branch", condition(gs.ghz_xy(), 2, 1, 0)))
    return pairs


PAIRS = _pairs()


@pytest.mark.parametrize("name,pair", PAIRS, ids=[c[0] for c in PAIRS])
def test_chsh_max_matches_the_scalar_search(name, pair):
    for convention, mixed in ((gs.metrics.UNIFORM, False), (MIXED, True)):
        best = chsh_max(pair, convention)
        assert (best.value, best.settings, best.signed) == ref.chsh_max(pair, mixed)
        assert all(type(k) is int for k in best.settings)


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
