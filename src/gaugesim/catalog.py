"""Parameterized constructors for the standard example systems.

Each catalog entry builds a validated probability system and, where a
reference gauge working set is known, bundles it as a regression fixture.
Fixtures are kept separate from solver output: the gauge linear systems are
degenerate, so the solver is free to return a different feasible vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConstraintViolation, NegativeEntry, RangeError, ValidationError
from .ignition import bell_lift
from .model import ProbabilitySystem, _checked_view, _target_keys
from .solver import GaugeDistribution, GaugeSet, continuous_gauge

F = Fraction


def _tabulate(n, K, labels, cell):
    """The system whose entry at each target (x, u) is cell(x, u), filled in table order."""
    cells = np.array([cell(x, u) for x, u in _target_keys(n, K)], dtype=object)
    return ProbabilitySystem(n, K, labels, cells.reshape((K,) * n + (2,) * n))


def _gauge_set(plan):
    """The gauge set {gamma: {state: weight, or (a, b) for a/b}}, in the order given."""
    return GaugeSet(tuple(
        GaugeDistribution(gamma, {j: F(*w) if isinstance(w, tuple) else w
                                  for j, w in weights.items()})
        for gamma, weights in plan.items()))


def one_region(probs):
    """Single-region system with one Bernoulli outcome per setting."""
    probs = [F(p) if not isinstance(p, float) else p for p in probs]
    for k, p in enumerate(probs):
        if not 0 <= p <= 1:
            raise RangeError(f"probability for setting {k} out of [0, 1]: {p}")
    K = len(probs)
    return _tabulate(1, K, [f"t{k}" for k in range(K)],
                     lambda x, u: 1 - probs[u[0]] if x[0] else probs[u[0]])


def one_region_reference_gauges(probs):
    """Two-state working set: all-zero and all-one ignition states."""
    top = (1 << len(probs)) - 1
    probs = [F(p) if not isinstance(p, float) else p for p in probs]
    return _gauge_set({k: {j: w for j, w in ((0, p), (top, 1 - p)) if w > 0}
                       for k, p in enumerate(probs)})


def general_bell2(q1, q2, q3, q4):
    """General locally consistent, totally correlated 2-region, 2-setting system."""
    q1, q2, q3, q4 = F(q1), F(q2), F(q3), F(q4)
    for name, q in (("q1", q1), ("q2", q2), ("q3", q3), ("q4", q4)):
        if not 0 <= q <= 1:
            raise ConstraintViolation(f"0 <= {name} <= 1", f"{name} = {q}")
    for name, q in (("q3", q3), ("q4", q4)):
        if q < q1 or q < q2:
            raise ConstraintViolation(f"{name} >= q1, q2", f"{name} = {q}")
        if q1 + q2 < q:
            raise ConstraintViolation(f"q1 + q2 >= {name}", f"{name} = {q}")

    def cell(x, u):
        if u[0] == u[1]:
            qd = (q1, q2)[u[0]]
            if x == (0, 0):
                return 1 - qd
            if x == (1, 1):
                return qd
            return F(0)
        qd = q3 if u == (0, 1) else q4
        qa, qb = (q1, q2) if u == (0, 1) else (q2, q1)
        if x == (0, 0):
            return 1 - qd
        if x == (0, 1):
            return qd - qa
        if x == (1, 0):
            return qd - qb
        return q1 + q2 - qd

    return _tabulate(2, 2, ("t0", "t1"), cell)


def general_bell2_reference_gauges(q1, q2, q3, q4):
    """Closed-form working set on the four lifted 2-bit ignition states.

    Region 1's distributions are those of the region-swapped system, which
    exchanges the two off-diagonal parameters; for symmetric tables
    (q3 == q4) all four distributions coincide.
    """
    q1, q2, q3, q4 = F(q1), F(q2), F(q3), F(q4)

    def family(qd):
        raw = {0: 1 - qd, 1: qd - q2, 2: qd - q1, 3: q1 + q2 - qd}
        return {bell_lift(j, 2): w for j, w in raw.items() if w > 0}

    return _gauge_set({0: family(q3), 1: family(q4), 2: family(q4), 3: family(q3)})


def general_bipartite2(q1, q2, q3, q4, q5, q6, q7, q8):
    """General locally consistent 2-region, 2-setting system (8 parameters)."""
    q = [None] + [F(v) for v in (q1, q2, q3, q4, q5, q6, q7, q8)]
    cells = {
        ((0, 0), (0, 0)): 1 - q[1],
        ((0, 1), (0, 0)): q[5],
        ((1, 0), (0, 0)): q[7],
        ((1, 1), (0, 0)): q[1] - q[5] - q[7],
        ((0, 0), (1, 1)): 1 - q[2],
        ((0, 1), (1, 1)): q[6],
        ((1, 0), (1, 1)): q[8],
        ((1, 1), (1, 1)): q[2] - q[6] - q[8],
        ((0, 0), (0, 1)): 1 - q[3],
        ((0, 1), (0, 1)): q[3] - q[1] + q[5],
        ((1, 0), (0, 1)): q[3] - q[2] + q[8],
        ((1, 1), (0, 1)): q[1] + q[2] - q[3] - q[5] - q[8],
        ((0, 0), (1, 0)): 1 - q[4],
        ((0, 1), (1, 0)): q[4] - q[2] + q[6],
        ((1, 0), (1, 0)): q[4] - q[1] + q[7],
        ((1, 1), (1, 0)): q[1] + q[2] - q[4] - q[6] - q[7],
    }
    for (x, u), p in cells.items():
        if p < 0:
            raise NegativeEntry(f"P{x}|{u}", p)
    return ProbabilitySystem(2, 2, ("t0", "t1"), cells)


def epr_b(angles):
    """Totally correlated pair with cosine-law targets at the given angles."""
    K = len(angles)
    if K < 2:
        raise ValidationError("need at least two settings")
    angles = [float(a) for a in angles]

    def cell(x, u):
        c = math.cos(angles[u[0]] - angles[u[1]])
        return 0.25 * (1 + c) if x[0] == x[1] else 0.25 * (1 - c)

    return _tabulate(2, K, [f"t{k}" for k in range(K)], cell)


def epr_b_regular(num_settings):
    """Evenly spaced angles k*pi/K."""
    K = int(num_settings)
    return epr_b([k * math.pi / K for k in range(K)])


@dataclass(frozen=True)
class ContinuousEprB:
    """Sampler-backed totally correlated pair over the continuous circle."""

    def probability(self, x0, x1, theta_a, theta_b):
        c = math.cos(theta_a - theta_b)
        return 0.25 * (1 + c) if x0 == x1 else 0.25 * (1 - c)

    def gauge(self, theta):
        return continuous_gauge(theta % (2 * math.pi))

    def simulate(self, theta_pair, runs, seed, force_setting=None):
        from .collapse import simulate_continuous

        return simulate_continuous(theta_pair, runs, seed, force_setting)


def epr_b_continuous():
    return ContinuousEprB()


def singlet():
    """Two regions, three settings; opposite outcomes certain on equal settings."""
    return _tabulate(2, 3, ("X", "Y", "Z"), lambda x, u: F(1, 4) if u[0] != u[1]
                     else F(1, 2) if x[0] != x[1] else F(0))


def singlet_reference_gauges():
    """Four equally likely ignition states shared by all six configurations."""
    return _gauge_set({g: dict.fromkeys((7, 28, 42, 49), (1, 4)) for g in range(6)})


def pr_box():
    """Nonsignaling box: outcomes agree except when both regions pick setting 1."""
    return _tabulate(2, 2, ("t0", "t1"),
                     lambda x, u: F(1, 2) if (x[0] == x[1]) == (u != (1, 1)) else F(0))


def pr_box_reference_gauges():
    plan = ({0: (1, 2), 15: (1, 2)}, {6: (1, 2), 9: (1, 2)})
    return _gauge_set({gamma: plan[gamma % 2] for gamma in range(4)})


def ghz_xy():
    """Three-region GHZ correlations restricted to two transverse settings."""
    def cell(x, u):
        if sum(u) % 2 == 1:
            return F(1, 8)
        return F(1, 4) if sum(x) % 2 == (sum(u) // 2) % 2 else F(0)

    return _tabulate(3, 2, ("X", "Y"), cell)


GHZ_XY_GAUGE_SUPPORTS = {
    0: (7, 8, 17, 28, 32, 45, 52, 57),
    1: (3, 13, 20, 26, 38, 40, 48, 62),
    2: (2, 13, 20, 27, 32, 39, 49, 54),
    3: (7, 12, 17, 26, 34, 41, 48, 59),
    4: (2, 7, 8, 13, 17, 20, 27, 30),
    5: (3, 5, 10, 28, 32, 38, 41, 47),
}


def ghz_xy_reference_gauges():
    """Reference 29-state working set, eight states of weight 1/8 per gauge."""
    return _gauge_set({g: dict.fromkeys(js, (1, 8)) for g, js in GHZ_XY_GAUGE_SUPPORTS.items()})


def w_xy():
    """Three-region W correlations restricted to two transverse settings.

    For a constant setting vector the three outcomes agree with weight 3/8;
    otherwise the unique same-setting pair of regions carries the excess.
    """
    def cell(x, u):
        if u[0] == u[1] == u[2]:
            return F(3, 8) if x[0] == x[1] == x[2] else F(1, 24)
        a, b = (0, 1) if u[0] == u[1] else (0, 2) if u[0] == u[2] else (1, 2)
        return F(5, 24) if x[a] == x[b] else F(1, 24)

    return _tabulate(3, 2, ("X", "Y"), cell)


W_XY_GAUGE_TABLE = {
    0: {0: (1, 6), 20: (1, 24), 21: (5, 24), 24: (1, 24), 25: (1, 24),
        36: (1, 24), 37: (1, 24), 40: (5, 24), 41: (1, 24), 61: (1, 6)},
    1: {0: (1, 6), 20: (5, 24), 22: (1, 24), 24: (1, 24), 26: (1, 24),
        36: (1, 24), 38: (1, 24), 40: (1, 24), 42: (5, 24), 62: (1, 6)},
    2: {0: (1, 6), 17: (1, 24), 18: (1, 24), 21: (5, 24), 22: (1, 24),
        33: (1, 24), 34: (5, 24), 37: (1, 24), 38: (1, 24), 55: (1, 6)},
    3: {0: (1, 6), 17: (5, 24), 18: (1, 24), 25: (1, 24), 26: (1, 24),
        33: (1, 24), 34: (1, 24), 41: (1, 24), 42: (5, 24), 59: (1, 6)},
    4: {0: (1, 6), 2: (1, 24), 5: (1, 24), 9: (1, 24), 10: (1, 6),
        14: (1, 24), 21: (5, 24), 22: (1, 24), 25: (1, 24), 26: (1, 24),
        31: (1, 6)},
    5: {0: (1, 6), 5: (5, 24), 9: (1, 24), 22: (1, 24), 26: (1, 24),
        37: (1, 24), 38: (1, 24), 41: (1, 24), 42: (5, 24), 47: (1, 6)},
}


def w_xy_reference_gauges():
    """Reference 28-state working set for the two-setting W system."""
    return _gauge_set(W_XY_GAUGE_TABLE)


def ghz_zzz():
    """GHZ correlations along the shared entanglement axis (one setting)."""
    return _tabulate(3, 1, ("Z",), lambda x, u: F(1, 2) if len(set(x)) == 1 else F(0))


def w_zzz():
    """W correlations along the shared axis: one excited region out of three."""
    return _tabulate(3, 1, ("Z",), lambda x, u: F(1, 3) if sum(x) == 1 else F(0))


def super_ghz():
    """Setting-symmetric GHZ-like system exceeding the quantum ceiling."""
    return quasi_super_ghz(F(0))


# 1 where super-GHZ is 0, in table order: outcome parity != settings all equal
_SUPER_GHZ_ZEROS = np.array([sum(x) % 2 != (len(set(u)) == 1) for x, u in _target_keys(3, 2)],
                            dtype=np.intp)


def quasi_super_ghz(eps):
    """Super-GHZ with zeros replaced by eps and quarters by 1/4 - eps.

    With eps = a/b the entries are 4a and b - 4a over 4b, as an integer view.
    """
    eps = F(eps) if not isinstance(eps, float) else F(eps).limit_denominator(10**9)
    if not 0 <= eps <= F(1, 4):
        raise RangeError(f"eps must lie in [0, 1/4], got {eps}")
    a, b = eps.numerator, eps.denominator
    # Python ints past int64: left to itself NumPy picks uint64 up to 2**64
    dtype = np.int64 if 4 * b < 2**63 else object
    nums = np.array((b - 4 * a, 4 * a), dtype=dtype)[_SUPER_GHZ_ZEROS]
    view = _checked_view(nums, np.full(nums.size, 4 * b, dtype=dtype), (2,) * 6)
    return ProbabilitySystem._from_view(("t0", "t1"), *view)


SUPER_GHZ_STEP2_GAUGES = {
    # second-step gauge tables after collapsing region 2 with outcome 0
    0: {0: {4: (1, 2), 11: (1, 2)}, 1: {1: (1, 2), 14: (1, 2)},
        2: {1: (1, 2), 14: (1, 2)}, 3: {4: (1, 2), 11: (1, 2)}},
    1: {0: {2: (1, 2), 13: (1, 2)}, 1: {7: (1, 2), 8: (1, 2)},
        2: {7: (1, 2), 8: (1, 2)}, 3: {2: (1, 2), 13: (1, 2)}},
}


def super_ghz_step2_gauges(setting):
    """Reference working sets for the residual pair after a region-2 draw."""
    return _gauge_set(SUPER_GHZ_STEP2_GAUGES[setting])


@dataclass(frozen=True)
class CatalogEntry:
    """Named constructor with a parameter schema and optional fixtures."""

    name: str
    summary: str
    build: callable
    params: dict = field(default_factory=dict)  # name -> (default, parser)
    reference_gauges: callable = None  # (**params) -> GaugeSet

    def make(self, **overrides):
        """Build the system; string parameters go through their parser.

        A string its parser rejects raises ValidationError naming the
        parameter and the value.
        """
        kwargs = {}
        for pname, (default, parser) in self.params.items():
            raw = overrides.pop(pname, default)
            if not isinstance(raw, str):
                kwargs[pname] = raw
                continue
            try:
                kwargs[pname] = parser(raw)
            except (ValueError, ArithmeticError):
                raise ValidationError(
                    f"{self.name} parameter {pname} has an unreadable value {raw!r}"
                ) from None
        if overrides:
            raise ValidationError(f"unknown parameters {sorted(overrides)}")
        return self.build(**kwargs)


def _parse_fraction_list(text):
    return [F(part.strip()) for part in text.split(",")]


def _parse_float_list(text):
    return [float(part.strip()) for part in text.split(",")]


def _entries():
    return [
        CatalogEntry(
            "one-region",
            "single region, one Bernoulli outcome per setting",
            one_region,
            {"probs": ("1/2,1/2,1/2,1/2,1/2", _parse_fraction_list)},
            one_region_reference_gauges,
        ),
        CatalogEntry(
            "bell2",
            "general totally correlated 2-region, 2-setting system",
            general_bell2,
            {"q1": ("1/2", F), "q2": ("1/2", F), "q3": ("3/4", F), "q4": ("3/4", F)},
            general_bell2_reference_gauges,
        ),
        CatalogEntry(
            "bipartite2",
            "general locally consistent 2-region, 2-setting system",
            general_bipartite2,
            {
                "q1": ("1/2", F), "q2": ("1", F), "q3": ("1/2", F), "q4": ("1/2", F),
                "q5": ("0", F), "q6": ("1/2", F), "q7": ("0", F), "q8": ("1/2", F),
            },
        ),
        CatalogEntry(
            "epr-b",
            "totally correlated pair with cosine-law targets",
            epr_b,
            {"angles": ("0,0.6283185307179586,1.5707963267948966", _parse_float_list)},
        ),
        CatalogEntry(
            "epr-b-regular",
            "totally correlated pair at K evenly spaced angles",
            lambda k: epr_b_regular(k),
            {"k": ("3", int)},
        ),
        CatalogEntry("singlet", "isotropic opposite pair, three settings",
                      singlet, {}, singlet_reference_gauges),
        CatalogEntry("pr-box", "nonsignaling box exceeding the quantum ceiling",
                      pr_box, {}, pr_box_reference_gauges),
        CatalogEntry("ghz-xy", "tripartite GHZ with two transverse settings",
                      ghz_xy, {}, ghz_xy_reference_gauges),
        CatalogEntry("w-xy", "tripartite W with two transverse settings",
                      w_xy, {}, w_xy_reference_gauges),
        CatalogEntry("ghz-zzz", "tripartite GHZ along the entanglement axis",
                      ghz_zzz, {}),
        CatalogEntry("w-zzz", "tripartite W along the entanglement axis",
                      w_zzz, {}),
        CatalogEntry("super-ghz", "setting-symmetric super-quantum GHZ",
                      super_ghz, {}),
        CatalogEntry(
            "quasi-super-ghz",
            "super-GHZ smoothed by eps; tunes between regimes",
            quasi_super_ghz,
            {"eps": ("1/16", F)},
        ),
    ]


REGISTRY = {entry.name: entry for entry in _entries()}


def names():
    return sorted(REGISTRY)


def get(name):
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValidationError(f"unknown catalog system {name!r}") from None


def build(name, **params):
    return get(name).make(**params)
