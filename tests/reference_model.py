"""Reference probability systems on a ``{(x, u): value}`` dict.

The differential oracle for ``gaugesim.model``: the same validation order,
the same error types and messages, and the same scalar loops (each partial
sum a left-to-right ``+=`` from 0 over outcome vectors in lexicographic
order), so every result here must equal the dense table array's exactly,
floats included.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from gaugesim.errors import (
    InconsistentMarginal,
    MissingTarget,
    NegativeProbability,
    NormalizationViolation,
    ValidationError,
    WrongArity,
    ZeroProbabilityBranch,
)
from gaugesim.model import ConsistencyReport
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
            total = sum(full[(x, u)] for x in product((0, 1), repeat=n))
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
