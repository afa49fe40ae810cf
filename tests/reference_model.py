"""Reference probability systems on a ``{(x, u): value}`` dict.

The differential oracle for ``gaugesim.model``: the same validation order,
the same error types and messages, and the same scalar loops (each partial
sum a left-to-right ``+=`` from 0 over outcome vectors in lexicographic
order), so every result here must equal the dense table array's exactly,
floats included.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np

from gaugesim.errors import (
    InconsistentMarginal,
    MissingTarget,
    NegativeEntry,
    NegativeProbability,
    NormalizationViolation,
    ValidationError,
    WrongArity,
    ZeroProbabilityBranch,
)
from gaugesim.ignition import bell_lift
from gaugesim.model import ConsistencyReport, float_column
from gaugesim.model import marginal as model_marginal
from gaugesim.solver import GaugeDistribution, GaugeSet
from gaugesim.scalars import (
    EPS_NUM,
    RATIONAL,
    coerce,
    deviation,
    format_value,
    infer_backend,
    is_close,
)


class ReferenceSystem:
    """Validated table P(x|u) held as a dict in (u, x) insertion order."""

    def __init__(self, n, num_settings, labels, table, backend=None):
        if backend is None:
            backend = infer_backend(table.values())
        full = {}
        for u in product(range(num_settings), repeat=n):
            for x in product((0, 1), repeat=n):
                try:
                    raw = table[(x, u)]
                except KeyError:
                    raise MissingTarget(f"no entry for outcomes {x} at settings {u}") from None
                full[(x, u)] = coerce(raw, backend)
        if len(table) != len(full):
            raise ValidationError("table has entries outside the target set")

        tol = 0 if backend == RATIONAL else EPS_NUM
        for (x, u), p in full.items():
            if p < -tol:
                raise NegativeProbability(f"P{x}|{u} = {p}")
        for u in product(range(num_settings), repeat=n):
            total = 0  # left to right: builtins.sum compensates float sums from Python 3.12 on
            for x in product((0, 1), repeat=n):
                total += full[(x, u)]
            if not is_close(total, 1, backend):
                raise NormalizationViolation(u, total)

        self.n = n
        self.num_settings = num_settings
        self.labels = tuple(str(s) for s in labels)
        self.backend = backend
        self.table = full

    def prob(self, x, u):
        return self.table[(tuple(x), tuple(u))]

    def region_marginal(self, region, setting):
        u = [0] * self.n
        u[region] = setting
        u = tuple(u)
        totals = [0, 0]
        for x in product((0, 1), repeat=self.n):
            totals[x[region]] += self.table[(x, u)]
        return tuple(totals)

    def canonical_key(self):
        items = tuple(sorted((x, u, str(p)) for (x, u), p in self.table.items()))
        return (self.n, self.num_settings, self.labels, self.backend, items)

    def to_dict(self):
        return {
            "n": self.n,
            "k": self.num_settings,
            "labels": list(self.labels),
            "scalar": self.backend,
            "table": [
                {"x": list(x), "u": list(u), "p": format_value(p)}
                for (x, u), p in sorted(self.table.items())
            ],
        }


def _partial_sum(system, kept, x_kept, u):
    """Sum of P(x|u) over outcomes of all regions not in `kept`."""
    n = system.n
    free = [i for i in range(n) if i not in kept]
    total = 0
    for x_free in product((0, 1), repeat=len(free)):
        x = [0] * n
        for i, xi in zip(kept, x_kept):
            x[i] = xi
        for i, xi in zip(free, x_free):
            x[i] = xi
        total += system.prob(tuple(x), u)
    return total


def _settings(n, kept, u_kept, dropped, u_drop):
    u = [0] * n
    for i, ui in zip(kept, u_kept):
        u[i] = ui
    for i, ui in zip(dropped, u_drop):
        u[i] = ui
    return tuple(u)


def is_locally_consistent(system, tolerance=None):
    tol = tolerance
    if tol is None:
        tol = 0 if system.backend == RATIONAL else EPS_NUM
    n, K = system.n, system.num_settings
    worst = 0.0
    worst_site = None
    for kept_mask in range(1, (1 << n) - 1):
        kept = [i for i in range(n) if kept_mask >> i & 1]
        dropped = [i for i in range(n) if not kept_mask >> i & 1]
        for u_kept in product(range(K), repeat=len(kept)):
            for x_kept in product((0, 1), repeat=len(kept)):
                ref = None
                for u_drop in product(range(K), repeat=len(dropped)):
                    u = _settings(n, kept, u_kept, dropped, u_drop)
                    total = _partial_sum(system, kept, x_kept, u)
                    if ref is None:
                        ref = total
                        continue
                    dev = deviation(total, ref)
                    if dev > worst:
                        worst = dev
                        worst_site = (tuple(kept), x_kept, u_kept, u_drop)
    return ConsistencyReport(worst <= tol, worst, worst_site)


def marginal(system, kept_regions):
    kept = tuple(sorted(set(kept_regions)))
    if len(kept) == system.n:
        return system
    n, K = system.n, system.num_settings
    tol = 0 if system.backend == RATIONAL else EPS_NUM
    dropped = [i for i in range(n) if i not in kept]
    table = {}
    for u_kept in product(range(K), repeat=len(kept)):
        for x_kept in product((0, 1), repeat=len(kept)):
            values = [
                _partial_sum(system, kept, x_kept, _settings(n, kept, u_kept, dropped, u_drop))
                for u_drop in product(range(K), repeat=len(dropped))
            ]
            spread = max(deviation(v, values[0]) for v in values)
            if spread > tol:
                raise InconsistentMarginal(dropped, spread)
            table[(x_kept, u_kept)] = values[0]
    return ReferenceSystem(len(kept), K, system.labels, table, system.backend)


def is_separable(system):
    """Scalar products of single-region marginals, target by target."""
    if not is_locally_consistent(system).ok:
        return False
    marginals = {
        (i, k): system.region_marginal(i, k)
        for i in range(system.n)
        for k in range(system.num_settings)
    }
    for (x, u), p in system.table.items():
        prod = 1
        for i in range(system.n):
            prod *= marginals[(i, u[i])][x[i]]
        if not is_close(p, prod, system.backend):
            return False
    return True


def condition(system, region, setting, outcome):
    n, K = system.n, system.num_settings
    if n < 2:
        raise WrongArity("conditioning needs at least two regions")
    marg = system.region_marginal(region, setting)[outcome]
    backend = system.backend
    if is_close(marg, 0, backend) or marg <= 0:
        raise ZeroProbabilityBranch(f"Pr(x_{region}={outcome} | setting {setting}) = {marg}")
    scale = Fraction(1, 1) / marg if backend == RATIONAL else 1.0 / marg
    table = {}
    for u_kept in product(range(K), repeat=n - 1):
        for x_kept in product((0, 1), repeat=n - 1):
            x = list(x_kept)
            x.insert(region, outcome)
            u = list(u_kept)
            u.insert(region, setting)
            table[(x_kept, u_kept)] = system.prob(tuple(x), tuple(u)) * scale
    return ReferenceSystem(n - 1, K, system.labels, table, backend)


def product_system(factors, labels=None):
    K = factors[0].num_settings
    labels = labels or factors[0].labels
    n = len(factors)
    table = {}
    for u in product(range(K), repeat=n):
        for x in product((0, 1), repeat=n):
            p = 1
            for f, xi, ui in zip(factors, x, u):
                p *= f.prob((xi,), (ui,))
            table[(x, u)] = p
    return ReferenceSystem(n, K, labels, table, infer_backend(table.values()))


def two_region_walk(system):
    """(chain, 2-region system) in the order `classify` has always visited them.

    Depth first from a stack, each distinct table once, skipping outcomes
    whose region marginal is at most EPS_NUM.
    """
    stack = [(system, ())]
    seen = set()
    while stack:
        current, chain = stack.pop()
        key = current.canonical_key()
        if key in seen:
            continue
        seen.add(key)
        if current.n == 2:
            yield chain, current
            continue
        for region in range(current.n):
            for setting in range(current.num_settings):
                for outcome in (0, 1):
                    prob = current.region_marginal(region, setting)[outcome]
                    if float(prob) <= EPS_NUM:
                        continue
                    branch = condition(current, region, setting, outcome)
                    stack.append((branch, chain + ((region, setting, outcome),)))


def chsh_max(pair, mixed=False):
    """(value, (A, A', B, B'), signed) of the best CHSH tuple, by scalar loops.

    Each correlator is a left-to-right ``+=`` from 0.0 over outcome pairs
    in lexicographic order; tuples run in ``permutations`` order and the
    first of largest magnitude wins.  Works on any 2-region system with
    ``prob`` and ``num_settings``.
    """
    K = pair.num_settings
    if K < 2:
        raise WrongArity("CHSH search needs at least two settings")
    corr = {}
    for p, q in product(range(K), repeat=2):
        total = 0.0
        for x0, x1 in product((0, 1), repeat=2):
            s1 = (1 - 2 * x1) if mixed else (2 * x1 - 1)
            total += (2 * x0 - 1) * s1 * float(pair.prob((x0, x1), (p, q)))
        corr[p, q] = total
    best = None
    for A, Ap in permutations(range(K), 2):
        for B, Bp in permutations(range(K), 2):
            signed = corr[A, B] + corr[Ap, B] + corr[A, Bp] - corr[Ap, Bp]
            if best is None or abs(signed) > best[0]:
                best = (abs(signed), (A, Ap, B, Bp), signed)
    return best


# -- information diagrams, one setting vector at a time ----------------------
# These take a `gaugesim` system: one float marginal per region subset and
# one solve per setting vector, each partial sum of entropies a builtin
# `sum` in subset order, so the batched diagrams must equal them exactly.


def _plog2(p):
    p = float(p)
    return 0.0 if p <= 0.0 else -p * math.log2(p)


def float_marginal(system, regions, settings):
    """Pr(x_regions | settings) as floats, the other regions' settings at 0."""
    return [float(p) for p in system.outcome_marginal(regions, settings)]


def atom_measures(system, u):
    """(joint entropies, atoms) by mask at setting vector u, in bits."""
    n = system.n
    masks = list(range(1, 1 << n))
    joint = {}
    for mask in masks:
        regions = [i for i in range(n) if mask >> i & 1]
        probs = float_marginal(system, regions, [u[i] for i in regions])
        joint[mask] = sum(_plog2(p) for p in probs)
    matrix = np.array([[1.0 if (alpha & m) else 0.0 for m in masks] for alpha in masks])
    solution = np.linalg.solve(matrix, np.array([joint[alpha] for alpha in masks]))
    return joint, {m: float(v) for m, v in zip(masks, solution)}


def relative_entropy_to_product(system, u):
    """KL divergence (bits) of P(.|u) from the product of its region marginals."""
    marginals = [float_marginal(system, (i,), (u[i],)) for i in range(system.n)]
    total = 0.0
    for x, p in zip(product((0, 1), repeat=system.n), float_column(system, u)):
        if p <= 0.0:
            continue
        q = 1.0
        for i, xi in enumerate(x):
            q *= marginals[i][xi]
        total += p * math.log2(p / q)
    return total


def entanglement_scheme(system, eps=1e-9):
    """(flags, degree, max total entanglement): each subset's diagrams are
    tried one setting vector at a time, the whole system's too."""
    n, K = system.n, system.num_settings
    flags = []
    for m in range(2, n + 1):
        subs = (model_marginal(system, combo) for combo in combinations(range(n), m))
        flags.append(sum(
            any(abs(atom_measures(sub, u)[1][(1 << m) - 1]) > eps
                for u in product(range(K), repeat=m))
            for sub in subs))
    degree = max((m for m, count in enumerate(flags, 2) if count), default=1)
    best = max(relative_entropy_to_product(system, u) for u in product(range(K), repeat=n))
    return tuple(flags), degree, best


def in_target(j, x, u, num_settings):
    """Whether ignition state j shows outcome vector x at setting vector u: bit
    u_i + i*K of j is x_i in every region i.  The scalar reference for
    `gaugesim.ignition.outcome_codes`."""
    for i, (xi, ui) in enumerate(zip(x, u)):
        if (j >> (ui + i * num_settings)) & 1 != xi:
            return False
    return True


# -- the integer view's checks, one Python int at a time ----------------------
# `gaugesim.model` builds the integer view and checks single drops in a few
# whole-array steps; these are the Python loops they replaced.


def checked_view(nums, dens, shape):
    """(N, D) of the entries nums[i] / dens[i] in table order, or the constructor's first error.

    D is the least common denominator of the values, whose positive
    denominators need not be in lowest terms.  Negative entries are found
    before unnormalised setting columns, each at its first site in table
    order.  The entries are taken as Python ints, and N widens to them when D
    reaches 2**53 or a column sum of 2**n entries could overflow int64."""
    n = len(shape) // 2
    nums, distinct = list(map(int, nums)), set(map(int, dens))
    D = math.lcm(*distinct)
    if len(distinct) > 1:
        scale = {d: D // d for d in distinct}
        nums = [a * scale[d] for a, d in zip(nums, dens)]
    g = math.gcd(D, *nums)
    if g > 1:
        D //= g
        nums = [a // g for a in nums]
    bound = max(max(nums), -min(nums)) << n
    N = np.array(nums, dtype=np.int64 if D < 2**53 and bound < 2**63 else object)
    negative = np.flatnonzero(N < 0)
    if negative.size:
        site = tuple(int(i) for i in np.unravel_index(negative[0], shape))
        raise NegativeProbability(f"P{site[n:]}|{site[:n]} = {Fraction(nums[negative[0]], D)}")
    totals = N.reshape(-1, 2**n).sum(axis=1)
    bad = np.flatnonzero(totals != D)
    if bad.size:
        u = np.unravel_index(bad[0], shape[:n])
        raise NormalizationViolation(tuple(int(i) for i in u), Fraction(int(totals[bad[0]]), D))
    return N.reshape(shape), D


def single_drops_hold(N):
    """Whether, for each region i, the sum of the numerators N over x_i is constant in u_i."""
    n = N.ndim // 2
    for i in range(n):
        sums = N.sum(axis=n + i)
        if not (sums == sums.take([0], axis=i)).all():
            return False
    return True


def epr_b_working_gauge(angles):
    """`solver.epr_b_working_gauge` as three hand tables, one per K in {2, 3, 4}:
    the same weights, dict order and NegativeEntry text."""
    K = len(angles)
    if K not in (2, 3, 4):
        raise ValidationError("closed-form working gauges exist for K in {2, 3, 4}")
    c = {(a, b): math.cos(angles[b] - angles[a]) for a in range(K) for b in range(K)}

    if K == 2:
        plain = {0: 1 + c[0, 1], 1: 1 - c[0, 1], 2: 1 - c[0, 1], 3: 1 + c[0, 1]}
        per_setting = [plain, dict(plain)]
    elif K == 3:
        per_setting = [
            {0: 1 + c[0, 2], 1: 1 - c[0, 1], 3: c[0, 1] - c[0, 2],
             4: c[0, 1] - c[0, 2], 6: 1 - c[0, 1], 7: 1 + c[0, 2]},
            {0: c[0, 1] + c[1, 2], 1: 1 - c[0, 1], 3: 1 - c[1, 2],
             4: 1 - c[1, 2], 6: 1 - c[0, 1], 7: c[0, 1] + c[1, 2]},
            {0: 1 + c[0, 2], 1: c[1, 2] - c[0, 2], 3: 1 - c[1, 2],
             4: 1 - c[1, 2], 6: c[1, 2] - c[0, 2], 7: 1 + c[0, 2]},
        ]
    else:
        per_setting = [
            {0: 1 + c[0, 3], 1: 1 - c[0, 1], 3: c[0, 1] - c[0, 2], 7: c[0, 2] - c[0, 3],
             8: c[0, 2] - c[0, 3], 12: c[0, 1] - c[0, 2], 14: 1 - c[0, 1], 15: 1 + c[0, 3]},
            {0: c[0, 1] + c[1, 3], 1: 1 - c[0, 1], 3: 1 - c[1, 2], 7: c[1, 2] - c[1, 3],
             8: c[1, 2] - c[1, 3], 12: 1 - c[1, 2], 14: 1 - c[0, 1], 15: c[0, 1] + c[1, 3]},
            {0: c[0, 2] + c[2, 3], 1: c[1, 2] - c[0, 2], 3: 1 - c[1, 2], 7: 1 - c[2, 3],
             8: 1 - c[2, 3], 12: 1 - c[1, 2], 14: c[1, 2] - c[0, 2], 15: c[0, 2] + c[2, 3]},
            {0: 1 + c[0, 3], 1: c[1, 3] - c[0, 3], 3: c[2, 3] - c[1, 3], 7: 1 - c[2, 3],
             8: 1 - c[2, 3], 12: c[2, 3] - c[1, 3], 14: c[1, 3] - c[0, 3], 15: 1 + c[0, 3]},
        ]

    dists = []
    for k, raw in enumerate(per_setting):
        weights = {}
        for j_small, value in raw.items():
            w = value / 4.0
            if w < -EPS_NUM:
                raise NegativeEntry(f"setting {k}, state {j_small}", w)
            if w > 0:
                weights[bell_lift(j_small, K)] = w
        dists.append(weights)
    return GaugeSet(tuple(GaugeDistribution(k + i * K, dict(dists[k]))
                          for i in (0, 1) for k in range(K)))
