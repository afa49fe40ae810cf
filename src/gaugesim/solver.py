"""Gauge distribution synthesis.

A gauge distribution for configuration gamma = (region i0, setting k0)
assigns non-negative weights to ignition states so that, for every setting
vector with u_{i0} = k0 and every outcome vector, the weights of the
compatible states sum to the target probability.  Solutions are found by
exact phase-1 simplex; closed forms are provided for the standard
totally-correlated two-region families.

`solve_all_gauges` assembles the system's LP on its support once
(`_GaugeLP`) and hands it down.  Its layout, which depends on (n, K, support)
only, is built once and cached read-only (`_lp_layout`): the support's states
in priority order and one bool incidence matrix of every target over them.
The targets come as integers over one denominator D (the rational table's
own, or the lcm of a float table's snapped values); no `Fraction` is made
between the table and the tableau.  The shared LP takes every target once.
A configuration's LP takes the rows of the targets its setting vectors hold,
on its distinct columns only: states equal but for region i's bits at its
K - 1 other settings meet the same rows of gamma = (i, k), so each column
comes 2^(K-1) times on the full support.  Copies have equal reduced costs
and tableau columns at every pivot, so Bland's rule enters only the first in
priority order, and no ratio test, growth bound, presolve mask or
certificate check reads how many follow it: the pivots and vertex are those
of the LP on every column.  `gauge_equations` lists one configuration's rows
as states, for checks.  An LP fails exactly when its targets violate an
inequality valid on every deterministic state, which is a phase-1 dual
vector (see `simplex`); each LP is first handed the most violated lifted
CHSH inequality it holds (`_bell_screen`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .errors import Infeasible, NegativeEntry, SupportTooSmall, ValidationError
from .ignition import (
    MAX_ENUM_BITS,
    bell_lift,
    config_region,
    config_setting,
    outcome_code,
    outcome_codes,
    state_array,
)
from .model import ConsistencyReport, float_table, integer_view, is_locally_consistent
from .scalars import EPS_NUM, RATIONAL, deviation, format_value, snap
from .simplex import solve_nonnegative


@dataclass(frozen=True)
class GaugeDistribution:
    """Non-negative weights over ignition states for one configuration."""

    gamma: int
    weights: dict  # ignition index -> Fraction weight, zeros omitted

    def support(self):
        return tuple(sorted(self.weights))

    def weight(self, j):
        return self.weights.get(j, Fraction(0))

    def to_dict(self):
        support = self.support()
        return {
            "gamma": self.gamma,
            "support": list(support),
            "weights": [format_value(self.weights[j]) for j in support],
        }


@dataclass(frozen=True)
class GaugeSet:
    """One gauge distribution per configuration gamma = 0 .. n*K - 1."""

    distributions: tuple

    def __iter__(self):
        return iter(self.distributions)

    def __len__(self):
        return len(self.distributions)

    def by_gamma(self, gamma):
        for dist in self.distributions:
            if dist.gamma == gamma:
                return dist
        raise KeyError(f"no distribution for configuration {gamma}")

    def to_dict(self):
        return {"gauges": [d.to_dict() for d in self.distributions]}


_FLOAT_SLACK = Fraction(EPS_NUM).limit_denominator(10**12)


def _column_order(columns):
    """Deterministic variable priority for the simplex, as a state array.

    Even-popcount states first, then ascending index.  Any fixed order gives
    a valid basic solution; this one reproduces the reference working sets
    bundled with the catalog fixtures.  The parity of an int64 state folds
    its bits together with xor and shifts; states past int64 take it from
    `int.bit_count`.
    """
    states = state_array(columns)
    if states.dtype == object:
        parity = np.array([j.bit_count() & 1 for j in states], dtype=np.int64)
    else:
        parity = states.copy()
        for shift in (32, 16, 8, 4, 2, 1):
            parity ^= parity >> shift
        parity &= 1
    return states[np.lexsort((states, parity))]


def _selected_targets(system, gamma):
    """Targets ((x, u), p) whose setting vector u selects configuration gamma."""
    i0 = config_region(gamma, system.num_settings)
    k0 = config_setting(gamma, system.num_settings)
    return [(target, p) for target, p in system.targets() if target[1][i0] == k0]


def _equation_targets(system):
    """(R, D): the targets as integers R over one denominator D.

    R has one row per setting vector and one column per outcome vector,
    both in lexicographic order.  A rational system gives its integer view;
    a float system snaps each distinct value once and puts it over the lcm
    of the snapped denominators, in Python ints.
    """
    width = 1 << system.n
    view = integer_view(system)
    if view is not None:
        N, D = view
        return N.reshape(-1, width), D
    cells = float_table(system).ravel().tolist()
    snapped = {p: snap(p) for p in set(cells)}
    D = math.lcm(*(q.denominator for q in snapped.values()))
    scaled = {p: q.numerator * (D // q.denominator) for p, q in snapped.items()}
    return np.array([scaled[p] for p in cells], dtype=object).reshape(-1, width), D


def gauge_equations(system, gamma, support):
    """Equality rows for one configuration on the given support.

    One row per target (x|u) with u selecting gamma, in target order; a row
    is an array (`state_array`'s dtype) of the support states in target
    (x|u), in support order: those whose outcome code at u, computed once
    per setting vector, is x's.  These are the rows a solve selects from its
    `_GaugeLP` incidence, listed as states for checks.
    """
    states = state_array(support)
    i0 = config_region(gamma, system.num_settings)
    k0 = config_setting(gamma, system.num_settings)
    codes = [outcome_code(x) for x in system.outcome_vectors()]
    return [states[at_u == code] for u in system.setting_vectors() if u[i0] == k0
            for at_u in [outcome_codes(states, u, system.num_settings)] for code in codes]


def _full_support(n, K):
    if n * K > MAX_ENUM_BITS:
        raise ValidationError(
            f"index space 2^{n * K} exceeds the enumeration guard; supply a working set"
        )
    return np.arange(1 << (n * K), dtype=np.int64)


@functools.lru_cache(maxsize=16)
def _lp_layout(n, K, support):
    """(columns, incidence, settings, configs) of the gauge LP of every n-region,
    K-setting system on `support`: None (the full index space) or a tuple of states.

    `columns` are the support's states in priority order (`_column_order`),
    `incidence` the bool matrix of every target (x|u), in target order, over
    them, and `settings` each target's setting vector.  In one pass per region,
    the outcome index (lexicographic) of every setting vector at every column
    gains that region's bit, in the smallest unsigned dtype; index x marks row
    (x|u).  `configs[gamma]` is configuration gamma's (rows, columns, incidence):
    the mask of its targets, the first column in priority order of each class of
    states equal off gamma's region's other settings, and the incidence of those
    rows on those columns.  Every caller shares the arrays, so they are read-only.
    """
    if support is None:
        columns = _full_support(n, K)
    else:
        columns = state_array(support)
        if columns.size and (np.unique(columns).size != columns.size
                             or columns.min() < 0 or columns.max() >= 1 << (n * K)):
            raise ValidationError(
                f"working set entries must be distinct states in [0, 2^{n * K})"
            )
    columns = _column_order(columns)
    settings = np.array(list(product(range(K), repeat=n)), dtype=np.int64).reshape(-1, n)
    codes = np.zeros((len(settings), columns.size), dtype=np.min_scalar_type((1 << n) - 1))
    region = np.empty((K, columns.size), dtype=codes.dtype)
    for i in range(n):
        for k in range(K):
            region[k] = ((columns >> (k + i * K)) & 1) << (n - 1 - i)
        codes |= region[settings[:, i]]
    incidence = codes[:, None] == np.arange(1 << n, dtype=codes.dtype)[:, None]
    incidence = incidence.reshape(len(settings) << n, columns.size)
    settings = np.repeat(settings, 1 << n, axis=0)
    top = -1 if columns.dtype == object else (1 << 63) - 1  # keeps the mask in int64
    configs = []
    for i, k in product(range(n), range(K)):
        other = sum(1 << (c + i * K) for c in range(K) if c != k)
        first = np.sort(np.unique(columns & (~other & top), return_index=True)[1])
        rows = settings[:, i] == k
        configs.append((rows, columns[first], incidence[np.ix_(rows, first)]))
    for array in (columns, incidence, settings, *(a for config in configs for a in config)):
        array.flags.writeable = False
    return columns, incidence, settings, tuple(configs)


@dataclass(frozen=True, eq=False)
class _GaugeLP:
    """A system's gauge LP on one support: its `_lp_layout` (`columns`,
    `incidence`, `settings`, `configs`), `rhs`, the targets' integers over
    `denominator`, the acceptance `slack`, and `bell`, the targets' `_bell_screen`."""

    columns: np.ndarray
    incidence: np.ndarray
    settings: np.ndarray
    configs: tuple
    rhs: np.ndarray
    denominator: int
    slack: Fraction
    bell: tuple


def _assemble(system, support):
    """The gauge LP of `system` on `support`, None meaning the full index space.

    A working set must hold distinct states of the index space; the full
    support is one by construction.  The layout is `_lp_layout`'s; the
    targets and their screen are the system's own.
    """
    if not is_locally_consistent(system):
        raise ValidationError("system is not completely locally consistent")
    n, K = system.n, system.num_settings
    layout = _lp_layout(n, K, None if support is None else tuple(state_array(support).tolist()))
    R, D = _equation_targets(system)
    slack = Fraction(0) if system.backend == RATIONAL else _FLOAT_SLACK
    return _GaugeLP(*layout, R.ravel(), D, slack, tuple(_bell_screen(R, D, n, K)))


# CHSH in 0/1 form less 3 at (s_0, t_0), over (i, j, x_a, x_b): a variant per odd set
# of the four setting pairs (s_i, t_j) scored on x_a != x_b, the rest on x_a == x_b
_CHSH = np.int8([np.eye(2), 1 - np.eye(2)])[[d for d in product((0, 1), repeat=4) if sum(d) % 2]]
_CHSH = (_CHSH - np.int8([[[3]], [[0]], [[0]], [[0]]])).reshape(-1, 2, 2, 2, 2)
_BELL_MEMBERS = 35_000  # the most members screened: (4, 3)'s count
_BELL_MARGIN = 1e-9  # a float screen reading 0 exactly errs far less; a smaller y.T is left out


def _bell_screen(R, D, n, K):
    """Per pair of regions a < b, ((a, b), V): V[v, p, r, (u_c, o_c) per other c] = y.R / D
    for y `_CHSH` variant v on the p-th setting pair s0 < s1 of a and the r-th, t0 < t1,
    of b, lifted by setting u_c and outcome o_c (0, 1 or 2: either) of each other region
    c (Pironio, J. Math. Phys. 46, 062112, 2005).  A deterministic state meets at most 3
    terms and (s0, t0) once, so y <= 1 and A^T y <= 0 on every state."""
    if K < 2 or math.comb(n, 2) * 8 * math.comb(K, 2) ** 2 * (3 * K) ** (n - 2) > _BELL_MEMBERS:
        return  # the simplex alone decides
    T = np.asarray(R / D, dtype=np.float64).reshape((K,) * n + (2,) * n)
    for i in range(n if n > 2 else 0):  # o_i = 2 sums x_i out
        T = np.concatenate([T, T.sum(axis=n + i, keepdims=True)], axis=n + i)
    pairs = np.array(list(combinations(range(K), 2)))
    m, at = len(pairs), (pairs[:, None, :, None] * K + pairs[None, :, None, :]).ravel()
    for a, b in combinations(range(n), 2):
        rest = [i for c in range(n) if c not in (a, b) for i in (c, n + c)]
        M = T.transpose([a, b, n + a, n + b, *rest])[:, :, :2, :2].reshape(K * K, 4, -1)
        V = _CHSH.reshape(8, 16) @ M[at].reshape(m * m, 16, -1)  # (p, r), v, rest
        yield (a, b), np.moveaxis(V, 1, 0).reshape((8, m, m) + (K, 3) * (n - 2))


def _certificate(lp, K, gamma=None, rows=slice(None)):
    """The most violated screened member within configuration gamma's rows (None: any),
    as int8 entries at `rows` of the targets, or None when none exceeds `_BELL_MARGIN`."""
    n, best = lp.settings.shape[1], (_BELL_MARGIN, None)
    for (a, b), V in lp.bell if gamma is None or n > 2 else ():  # n = 2: (a, b) has gamma
        others = [c for c in range(n) if c not in (a, b)]
        if gamma is not None:  # lifted by gamma's setting of its region, neither a nor b
            if gamma // K in (a, b):
                continue
            V = V.take([gamma % K], axis=3 + 2 * others.index(gamma // K))
        at = np.unravel_index(V.argmax(), V.shape)
        if V[at] > best[0]:
            best = V[at], (a, b), others, at
    if best[1] is None:
        return None
    _, (a, b), others, (v, p, r, *lifts) = best
    if gamma is not None:
        lifts[2 * others.index(gamma // K)] = gamma % K
    (s0, s1), (t0, t1) = (list(combinations(range(K), 2))[i] for i in (p, r))
    at = [slice(None)] * (2 * n)  # basic indexing only: s0 and s1 as a strided slice
    at[a], at[b] = slice(s0, s1 + 1, s1 - s0), slice(t0, t1 + 1, t1 - t0)
    for c, u, o in zip(others, lifts[::2], lifts[1::2]):
        at[c], at[n + c] = u, slice(None) if o == 2 else o
    y = np.zeros((K,) * n + (2,) * n, dtype=np.int8)
    y[tuple(at)] = _CHSH[v].reshape([2 if i in (a, b, n + a, n + b) else 1
                                     for i in range(2 * n) if isinstance(at[i], slice)])
    return y.ravel()[rows]


def solve_gauge(system, gamma, support=None, *, lp=None):
    """Gauge distribution for one configuration.

    With no support given the full index space is searched and failure
    proves that a one-step collapse cannot start from this configuration
    (raises Infeasible).  On an explicit working set failure only shows the
    set is too small (raises SupportTooSmall).  `lp` is the LP `_assemble`
    built for this system and support, which `solve_all_gauges` shares
    across its solves; without one it is assembled here.  The weights come
    in column priority order (`_column_order`).
    """
    K = system.num_settings
    if not 0 <= gamma < system.n * K:
        raise ValidationError(f"configuration {gamma} out of range")
    if lp is None:
        lp = _assemble(system, support)
    rows, columns, incidence = lp.configs[gamma]
    weights = solve_nonnegative(incidence, lp.rhs[rows], columns, lp.slack,
                                lp.denominator, _certificate(lp, K, gamma, rows))
    if weights is None:
        if support is not None:
            raise SupportTooSmall([gamma], len(support))
        raise Infeasible([gamma])
    return GaugeDistribution(gamma, weights)


def solve_shared_gauge(system, support=None, *, lp=None):
    """One distribution satisfying every configuration's system at once.

    Feasible exactly when the ignition states can act as setting-independent
    hidden variables; returns None otherwise.  All configurations' rows,
    stacked, repeat each target once per region, so the LP takes every
    target once instead, with the stack's pivots and vertex.  `lp` is as in
    `solve_gauge`.
    """
    if lp is None:
        lp = _assemble(system, support)
    # Targets run over setting vectors with u_0 outermost, so region 0's
    # configurations select every target once, in target order, and lead
    # the stack.  A pivot makes each later copy of its row a zero
    # row, which no ratio test reads, and copies tying in a ratio test lose
    # to the first; the stack's phase-1 costs and optimum are n times these.
    # So this LP pivots as the stack does and is accepted at slack / n
    # exactly when the stack is accepted at slack.
    return solve_nonnegative(lp.incidence, lp.rhs, lp.columns, lp.slack / system.n,
                             lp.denominator, _certificate(lp, system.num_settings))


def solve_all_gauges(system, support=None):
    """One gauge distribution per configuration.

    Assembles the system's LP on the support once.  Tries a single shared
    distribution first (the hidden-variable case); when that fails, each
    configuration is solved separately on its rows and distinct columns of
    the same LP.  Raises Infeasible listing every configuration without a
    solution, or on an explicit working set SupportTooSmall listing them.
    """
    n, K = system.n, system.num_settings
    lp = _assemble(system, support)
    shared = solve_shared_gauge(system, support, lp=lp)
    if shared is not None:
        return GaugeSet(tuple(GaugeDistribution(g, dict(shared)) for g in range(n * K)))

    dists, failed = [], []
    for gamma in range(n * K):
        try:
            dists.append(solve_gauge(system, gamma, support, lp=lp))
        except (Infeasible, SupportTooSmall):
            failed.append(gamma)
    if failed and support is not None:
        raise SupportTooSmall(failed, len(support))
    if failed:
        raise Infeasible(failed)
    return GaugeSet(tuple(dists))


def reconstruct(gauge, x, u, num_settings):
    """Probability of target (x|u) reconstructed from one gauge distribution."""
    states = list(gauge.weights)
    hits = outcome_codes(states, u, num_settings) == outcome_code(x)
    return sum(gauge.weights[j] for j, hit in zip(states, hits) if hit)


def verify_consistency(system, gauges):
    """Check every target against every compatible gauge distribution.

    A distribution for configuration gamma is compatible with setting vector
    u when u selects gamma's setting in gamma's region.  Reports the largest
    reconstruction deviation.  A reconstruction sums its `gauge_equations`
    row, which lists states in weight order, so floats fold as `reconstruct`.
    """
    worst, worst_site = 0.0, None
    for dist in gauges:
        rows = gauge_equations(system, dist.gamma, list(dist.weights))
        for row, ((x, u), p) in zip(rows, _selected_targets(system, dist.gamma)):
            dev = deviation(sum(dist.weights[j] for j in row.tolist()), p)
            if dev > worst:
                worst, worst_site = dev, (dist.gamma, x, u)
    tol = 0 if system.backend == RATIONAL else EPS_NUM
    return ConsistencyReport(worst <= tol, worst, worst_site)


# -- closed forms for totally correlated two-region systems ----------------


def epr_b_working_gauge(angles):
    """Closed-form gauge set for a 2, 3 or 4 angle totally correlated pair.

    Weights live on the lifted double-plateau working set and are quarter
    sums of cosines of angle differences; the form is only valid where all
    entries are non-negative (NegativeEntry otherwise).  Distributions for
    the second region duplicate those of the first.
    """
    K = len(angles)
    if K not in (2, 3, 4):
        raise ValidationError("closed-form working gauges exist for K in {2, 3, 4}")
    c = {(a, b): math.cos(angles[b] - angles[a]) for a in range(K) for b in range(a, K)}
    full = (1 << K) - 1
    dists = []
    for k in range(K):
        raw = {}  # plateau t, state 2^t - 1, and its complement share one weight
        for t in range(K):
            if t == 0:
                value = c[0, k] + c[k, K - 1]
            elif k < t:
                value = c[k, t - 1] - c[k, t]
            else:
                value = c[t, k] - c[t - 1, k]
            raw[(1 << t) - 1] = raw[full - (1 << t) + 1] = value
        weights = {}
        for j_small in sorted(raw):
            w = raw[j_small] / 4.0
            if w < -EPS_NUM:
                raise NegativeEntry(f"setting {k}, state {j_small}", w)
            if w > 0:
                weights[bell_lift(j_small, K)] = w
        dists.append(weights)
    # Same distribution serves both regions at a given setting.
    return GaugeSet(
        tuple(
            GaugeDistribution(k + i * K, dict(dists[k]))
            for i in (0, 1)
            for k in range(K)
        )
    )


@dataclass(frozen=True)
class RegularGauge:
    """Closed-form gauge family for K evenly spaced angles k*pi/K.

    Weights are indexed by the 2K double-plateau positions; the distribution
    for setting k is the base one shifted by k.
    """

    num_settings: int

    @property
    def alpha(self):
        return math.pi / (2 * self.num_settings)

    def weight(self, r, setting=0):
        # even K is offset half a step relative to the odd-K phase so that
        # the weights line up with the trigonometric plateau order
        K = self.num_settings
        r = (r - setting) % (2 * K)
        phase = (2 * r - 1) if K % 2 == 0 else (2 * r)
        return 0.5 * math.sin(self.alpha) * abs(math.cos(phase * self.alpha))


def epr_regular_gauge(num_settings):
    if num_settings < 2:
        raise ValidationError("regular gauge families need K >= 2")
    return RegularGauge(num_settings)


# -- continuous settings ----------------------------------------------------


@dataclass(frozen=True)
class ContinuousGauge:
    """Gauge density (1/4)|cos(theta - lam)| on [0, 2*pi) for one setting."""

    theta: float

    def density(self, lam):
        return 0.25 * abs(math.cos(self.theta - lam))

    @staticmethod
    def projection(theta_prime, lam):
        """Square-wave outcome bit: 1 where cos(theta' - lam) >= 0."""
        return 1 if math.cos(theta_prime - lam) >= 0 else 0

    def sample(self, rng, size=None):
        """Draw lambda by piecewise-analytic inverse CDF (no tabulation)."""
        if size is None:
            return self._inverse_cdf(float(rng.random()))
        u = rng.random(size)
        out = np.empty(size, dtype=float)
        lo = u < 0.25
        mid = (u >= 0.25) & (u < 0.75)
        hi = u >= 0.75
        out[lo] = np.arcsin(4.0 * u[lo])
        out[mid] = math.pi - np.arcsin(2.0 - 4.0 * u[mid])
        out[hi] = 2.0 * math.pi + np.arcsin(4.0 * u[hi] - 4.0)
        return (out + self.theta) % (2.0 * math.pi)

    def _inverse_cdf(self, u):
        if u < 0.25:
            nu = math.asin(4.0 * u)
        elif u < 0.75:
            nu = math.pi - math.asin(2.0 - 4.0 * u)
        else:
            nu = 2.0 * math.pi + math.asin(4.0 * u - 4.0)
        return (nu + self.theta) % (2.0 * math.pi)


def continuous_gauge(theta):
    if not 0 <= theta < 2 * math.pi + EPS_NUM:
        raise ValidationError("angle must lie in [0, 2*pi)")
    return ContinuousGauge(theta)
