"""Acceptance criteria, one test (or test group) per criterion.

Each criterion prints a PASS/FAIL line (visible with ``pytest -s``) and
asserts its stated tolerances.  Two sub-assertions of criterion 11 are
marked as expected failures: the stated boundary behaviour they encode
is contradicted by exact computation (see the assertions' reasons), and the
tests state the criterion faithfully rather than weakening it.
"""

import math
import time
from fractions import Fraction as F

import pytest

import gaugesim as gs
from gaugesim import catalog
from gaugesim.collapse import (
    CollapsePlan,
    find_min_steps,
    plan_joint_probability,
    simulate,
    simulate_continuous,
)
from gaugesim.errors import Infeasible
from gaugesim.ignition import bell_lift, bell_support, double_plateau
from gaugesim.metrics import (
    TSIRELSON_BOUND,
    atom_measures,
    bell_triangle_slack,
    chsh_max,
    classify,
    entanglement_scheme,
    s2_matrix,
    s_n,
    total_entanglement,
)
from gaugesim.model import condition, is_separable, marginal
from gaugesim.solver import (
    epr_regular_gauge,
    reconstruct,
    solve_all_gauges,
    solve_gauge,
    verify_consistency,
)

TOL_TABLE = 5e-4
TOL_ENTROPY = 5e-3


def report(num, ok, note=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"criterion {num:02d}: {status}{suffix}")
    return ok


def test_criterion_01_three_setting_gauges_and_bell_violation():
    started = time.perf_counter()
    angles = (0.0, math.pi / 5, math.pi / 2)
    system = gs.epr_b(angles)
    support = bell_support(3)
    expected = {
        0: {0: 0.250, 1: 0.048, 3: 0.202, 4: 0.202, 6: 0.048, 7: 0.250},
        1: {0: 0.349, 1: 0.048, 3: 0.103, 4: 0.103, 6: 0.048, 7: 0.349},
        2: {0: 0.250, 1: 0.147, 3: 0.103, 4: 0.103, 6: 0.147, 7: 0.250},
    }
    ok = True
    for setting, column in expected.items():
        dist = solve_gauge(system, setting, support=support)
        for j_small, value in column.items():
            got = float(dist.weight(bell_lift(j_small, 3)))
            ok &= abs(got - value) <= TOL_TABLE
            assert abs(got - value) <= TOL_TABLE, (setting, j_small, got, value)
    slack = bell_triangle_slack(system, 0, 1, 2)
    ok &= slack < 0
    assert slack < 0
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    assert elapsed < 1.0
    report(1, ok, f"slack={slack:.4f}, {elapsed:.3f}s")


def test_criterion_02_four_setting_gauges_and_tsirelson():
    started = time.perf_counter()
    angles = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
    system = gs.epr_b(angles)
    support = bell_support(4)
    expected_rows = {
        0: (0.073, 0.177, 0.177, 0.073),
        1: (0.073, 0.073, 0.177, 0.177),
        3: (0.177, 0.073, 0.073, 0.177),
        7: (0.177, 0.177, 0.073, 0.073),
        8: (0.177, 0.177, 0.073, 0.073),
        12: (0.177, 0.073, 0.073, 0.177),
        14: (0.073, 0.073, 0.177, 0.177),
        15: (0.073, 0.177, 0.177, 0.073),
    }
    dists = [solve_gauge(system, k, support=support) for k in range(4)]
    for j_small, row in expected_rows.items():
        for setting, value in enumerate(row):
            got = float(dists[setting].weight(bell_lift(j_small, 4)))
            assert abs(got - value) <= TOL_TABLE, (setting, j_small, got, value)
    best = chsh_max(system)
    assert abs(best.value - TSIRELSON_BOUND) <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(2, True, f"chsh={best.value:.9f}, {elapsed:.3f}s")


def test_criterion_03_regular_closed_form_k5():
    family = epr_regular_gauge(5)
    alpha = math.pi / 10
    m = 0.5 * math.sin(alpha)
    pattern = [1.0, math.cos(2 * alpha), math.cos(4 * alpha),
               math.cos(4 * alpha), math.cos(2 * alpha)]
    for k in range(5):
        for r in range(10):
            want = m * pattern[(r - k) % 5]
            assert abs(family.weight(r, k) - want) <= 1e-12
    assert abs(sum(family.weight(r) for r in range(10)) - 1.0) <= 1e-12

    system = gs.epr_b_regular(5)
    plateau = double_plateau(5)
    support = bell_support(5)
    worst = 0.0
    for k in range(5):
        solved = solve_gauge(system, k, support=support)
        for r in range(10):
            got = float(solved.weight(bell_lift(plateau[r], 5)))
            worst = max(worst, abs(got - family.weight(r, k)))
    assert worst <= 1e-9
    report(3, True, f"solver gap={worst:.2e}")


def test_criterion_04_continuous_sampling_and_nonsignaling():
    started = time.perf_counter()
    theta = (0.0, math.pi / 3)
    runs = 100000
    table = simulate_continuous(theta, runs, seed=2026)
    p00 = table.frequency(theta, (0, 0))
    assert abs(p00 - 0.375) <= 0.01

    # nonsignaling: region-0 marginal is stable when the partner angle moves
    other = (0.0, 2.2)
    table_b = simulate_continuous(other, runs, seed=2027)
    a0 = sum(c for x, c in table.counts[theta].items() if x[0] == 0)
    b0 = sum(c for x, c in table_b.counts[other].items() if x[0] == 0)
    stat = 0.0
    pooled = (a0 + b0) / (2 * runs)
    for value in (a0, b0):
        for cell, expected in ((value, pooled * runs),
                               (runs - value, (1 - pooled) * runs)):
            stat += (cell - expected) ** 2 / expected
    chi2_1df_at_1_percent = 6.634896601021213
    assert stat < chi2_1df_at_1_percent
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(4, True, f"P00={p00:.4f}, chi2={stat:.3f}, {elapsed:.2f}s")


def test_criterion_05_singlet_gauges_and_entropy_matrix():
    system = gs.singlet()
    gauges = solve_all_gauges(system)
    expected = {7: F(1, 4), 28: F(1, 4), 42: F(1, 4), 49: F(1, 4)}
    assert len(gauges) == 6
    for dist in gauges:
        assert dist.weights == expected
    matrix = s2_matrix(system)
    for a in range(3):
        for b in range(3):
            want = 1.0 if a == b else 0.0
            assert matrix[a][b] == want
    report(5, True, "quadruple {7,28,42,49} at 1/4; identity entropy matrix")


def test_criterion_06_pr_box():
    system = gs.pr_box()
    gauges = solve_all_gauges(system)
    reference = catalog.pr_box_reference_gauges()
    for gamma in range(4):
        assert gauges.by_gamma(gamma).weights == reference.by_gamma(gamma).weights
    best = chsh_max(system)
    assert best.value == 4.0
    for u in system.setting_vectors():
        assert total_entanglement(system, u) == 1.0
    verdict = classify(system)
    assert verdict.verdict == "super-quantum-detected"
    report(6, True, "gauges exact; chsh=4; E=1 bit")


def test_criterion_07_axis_atom_measures():
    ghz = atom_measures(gs.ghz_zzz(), (0, 0, 0))
    assert ghz.atom(7) == 1.0
    assert total_entanglement(gs.ghz_zzz(), (0, 0, 0)) == 2.0

    w = atom_measures(gs.w_zzz(), (0, 0, 0))
    for mask in (3, 5, 6):
        assert abs(w.atom(mask) - 0.667) <= TOL_TABLE
    assert abs(w.atom(7) - (-0.415)) <= TOL_TABLE
    assert abs(total_entanglement(gs.w_zzz(), (0, 0, 0)) - 1.170) <= TOL_TABLE
    report(7, True, "GHZ exact; W atoms within 5e-4")




def test_criterion_08_w_two_setting_profile():
    system = gs.w_xy()
    assert abs(s_n(system, (0, 0, 0)) - 0.257) <= TOL_TABLE
    assert abs(total_entanglement(system, (0, 0, 0)) - 0.792) <= TOL_TABLE
    assert abs(total_entanglement(system, (0, 0, 1)) - 0.350) <= TOL_TABLE

    pair = marginal(system, (0, 1))
    expected_pair = {
        (0, 0): {(0, 0): F(5, 12), (0, 1): F(1, 12), (1, 0): F(1, 12), (1, 1): F(5, 12)},
        (0, 1): {(0, 0): F(1, 4), (0, 1): F(1, 4), (1, 0): F(1, 4), (1, 1): F(1, 4)},
        (1, 0): {(0, 0): F(1, 4), (0, 1): F(1, 4), (1, 0): F(1, 4), (1, 1): F(1, 4)},
        (1, 1): {(0, 0): F(5, 12), (0, 1): F(1, 12), (1, 0): F(1, 12), (1, 1): F(5, 12)},
    }
    for u, cells in expected_pair.items():
        for x, p in cells.items():
            assert pair.prob(x, u) == p

    branch = condition(system, 2, 0, 0)
    expected_branch = {
        (0, 0): {(0, 0): F(3, 4), (0, 1): F(1, 12), (1, 0): F(1, 12), (1, 1): F(1, 12)},
        (0, 1): {(0, 0): F(5, 12), (0, 1): F(5, 12), (1, 0): F(1, 12), (1, 1): F(1, 12)},
        (1, 0): {(0, 0): F(5, 12), (0, 1): F(1, 12), (1, 0): F(5, 12), (1, 1): F(1, 12)},
        (1, 1): {(0, 0): F(5, 12), (0, 1): F(1, 12), (1, 0): F(1, 12), (1, 1): F(5, 12)},
    }
    for u, cells in expected_branch.items():
        for x, p in cells.items():
            assert branch.prob(x, u) == p

    gauge_entropy = s2_matrix(branch)
    assert abs(gauge_entropy[0][0] - 0.09) <= TOL_ENTROPY
    assert abs(gauge_entropy[1][1] - 0.35) <= TOL_ENTROPY
    assert abs(gauge_entropy[0][1]) <= 1e-9
    assert abs(gauge_entropy[1][0]) <= 1e-9

    scheme = entanglement_scheme(system)
    assert scheme.flags == (3, 1)
    report(8, True, "W profile, marginal, branch, gauge entropies, scheme (3,1)")


def test_criterion_09_ghz_two_setting_profile():
    system = gs.ghz_xy()
    for kept in ((0, 1), (0, 2), (1, 2)):
        pair = marginal(system, kept)
        for (_x, _u), p in pair.targets():
            assert p == F(1, 4)
    for u in system.setting_vectors():
        value = s_n(system, u)
        assert value in (-1.0, 0.0)
    branch = condition(system, 2, 0, 0)
    bell_state = {
        (0, 0): {(0, 0): F(1, 2), (0, 1): F(0), (1, 0): F(0), (1, 1): F(1, 2)},
        (0, 1): {(0, 0): F(1, 4), (0, 1): F(1, 4), (1, 0): F(1, 4), (1, 1): F(1, 4)},
        (1, 0): {(0, 0): F(1, 4), (0, 1): F(1, 4), (1, 0): F(1, 4), (1, 1): F(1, 4)},
        (1, 1): {(0, 0): F(0), (0, 1): F(1, 2), (1, 0): F(1, 2), (1, 1): F(0)},
    }
    for u, cells in bell_state.items():
        for x, p in cells.items():
            assert branch.prob(x, u) == p
    assert entanglement_scheme(system).flags == (0, 1)
    fixture = catalog.ghz_xy_reference_gauges()
    fixture_report = verify_consistency(system, fixture)
    assert fixture_report.max_deviation == 0.0
    report(9, True, "uniform marginals; S3 in {-1,0}; Bell branch; 29-state fixture exact")


def test_criterion_10_super_ghz():
    started = time.perf_counter()
    system = gs.super_ghz()
    with pytest.raises(Infeasible) as err:
        solve_all_gauges(system)
    assert set(err.value.gammas) == set(range(6))

    certificate = find_min_steps(system)
    assert certificate.steps == 2

    box_tables = {
        0: {  # leading draw at setting 0, outcome 0
            (0, 0): {(0, 0): F(0), (0, 1): F(1, 2), (1, 0): F(1, 2), (1, 1): F(0)},
            (0, 1): {(0, 0): F(1, 2), (0, 1): F(0), (1, 0): F(0), (1, 1): F(1, 2)},
            (1, 0): {(0, 0): F(1, 2), (0, 1): F(0), (1, 0): F(0), (1, 1): F(1, 2)},
            (1, 1): {(0, 0): F(1, 2), (0, 1): F(0), (1, 0): F(0), (1, 1): F(1, 2)},
        },
        1: {  # leading draw at setting 1, outcome 0
            (0, 0): {(0, 0): F(1, 2), (0, 1): F(0), (1, 0): F(0), (1, 1): F(1, 2)},
            (0, 1): {(0, 0): F(1, 2), (0, 1): F(0), (1, 0): F(0), (1, 1): F(1, 2)},
            (1, 0): {(0, 0): F(1, 2), (0, 1): F(0), (1, 0): F(0), (1, 1): F(1, 2)},
            (1, 1): {(0, 0): F(0), (0, 1): F(1, 2), (1, 0): F(1, 2), (1, 1): F(0)},
        },
    }
    for setting, cells in box_tables.items():
        branch = condition(system, 2, setting, 0)
        for u, row in cells.items():
            for x, p in row.items():
                assert branch.prob(x, u) == p
        solved = solve_all_gauges(branch)
        assert verify_consistency(branch, solved).max_deviation == 0.0
        fixture = catalog.super_ghz_step2_gauges(setting)
        assert verify_consistency(branch, fixture).max_deviation == 0.0

    for u in system.setting_vectors():
        assert total_entanglement(system, u) == 1.0
    assert classify(system).verdict == "super-quantum-detected"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(10, True, f"infeasible everywhere; 2 steps; branches exact; {elapsed:.2f}s")


class TestCriterion11:
    def test_interior_one_step_feasibility(self):
        for eps in (F(1, 16) + F(1, 256), F(1, 12), F(1, 8), F(3, 16) - F(1, 256)):
            assert find_min_steps(gs.quasi_super_ghz(eps)).steps == 1
        report(11, True, "one-step feasible across the open interval")

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "stated boundary behaviour is unattainable: the feasible set of a "
            "parametric LP with affine right-hand side is closed, and the exact "
            "rational solver produces non-negative gauge solutions at eps = 1/16 "
            "and eps = 3/16 (verified); infeasibility genuinely starts strictly "
            "outside [1/16, 3/16]"
        ),
    )
    def test_boundary_infeasible_as_stated(self):
        feasible_at_boundary = []
        for eps in (F(1, 16), F(3, 16)):
            try:
                solve_all_gauges(gs.quasi_super_ghz(eps))
                feasible_at_boundary.append(eps)
            except Infeasible:
                pass
        ok = not feasible_at_boundary
        report(11, ok, "boundary eps=1/16, 3/16 stated infeasible")
        assert ok, f"one-step gauges exist at {feasible_at_boundary}"

    def test_just_outside_boundary_infeasible(self):
        for eps in (F(1, 16) - F(1, 1024), F(3, 16) + F(1, 1024)):
            with pytest.raises(Infeasible):
                solve_all_gauges(gs.quasi_super_ghz(eps))
        report(11, True, "infeasible strictly outside the interval")

    def test_separable_at_one_eighth(self):
        assert is_separable(gs.quasi_super_ghz(F(1, 8)))
        report(11, True, "separable at eps=1/8")

    def test_tsirelson_crossing_located(self):
        from gaugesim.cli import _bisect_tsirelson

        crossing = _bisect_tsirelson("quasi-super-ghz", "eps", 0.0, 0.125, tol=1e-4)
        assert abs(crossing - 0.0366) <= 5e-4
        report(11, True, f"crossing at eps={crossing:.5f}")

    def test_total_entanglement_at_crossing(self):
        value = total_entanglement(gs.quasi_super_ghz(0.0366), (0, 0, 0))
        assert abs(value - 0.4) <= TOL_ENTROPY
        report(11, True, f"E(0.0366)={value:.4f}")

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "stated value is unattainable at the stated tolerance: the total "
            "entanglement at eps = 1/16 is 3 - H(P) = 0.18872 bits exactly "
            "(H evaluated on four cells of 1/16 and four of 3/16); the quoted "
            "0.2 is a one-decimal rounding, 0.0113 away, outside 5e-3"
        ),
    )
    def test_total_entanglement_at_sixteenth_as_stated(self):
        value = total_entanglement(gs.quasi_super_ghz(F(1, 16)), (0, 0, 0))
        ok = abs(value - 0.2) <= TOL_ENTROPY
        report(11, ok, f"E(1/16)={value:.5f} vs 0.2 +/- 5e-3")
        assert ok


def test_criterion_12_property_suites():
    started = time.perf_counter()

    # gauge invariance of reconstruction, exact, on every solved system
    for name in ("singlet", "pr-box", "bell2", "w-xy", "ghz-xy",
                 "ghz-zzz", "w-zzz", "one-region"):
        system = catalog.build(name)
        try:
            gauges = solve_all_gauges(system)
        except Infeasible:
            continue
        K = system.num_settings
        for (x, u), p in system.targets():
            values = {
                reconstruct(gauges.by_gamma(u[i] + i * K), x, u, K)
                for i in range(system.n)
            }
            assert values == {p}

    # randomized suites (polymatroid, diagram, product bounds)
    import test_properties as props

    props.test_product_systems_respect_classical_chsh_bound()
    props.test_symmetric_products_have_nonnegative_triangle_slack()
    props.test_polymatroidal_axioms_on_random_tables()
    props.test_diagram_reconstruction_identity()

    # cascaded product law, exact, on all catalog tables
    for name in ("singlet", "pr-box", "ghz-xy", "w-xy", "super-ghz",
                 "quasi-super-ghz", "bell2", "bipartite2"):
        system = catalog.build(name)
        for lead in range(system.n):
            plan = CollapsePlan((lead,))
            for u in system.setting_vectors():
                for x in system.outcome_vectors():
                    assert plan_joint_probability(system, plan, u, x) == system.prob(x, u)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(12, True, f"{elapsed:.1f}s")
