"""n-region, K-setting conditional probability systems.

The central object maps each target (outcome vector | setting vector) to a
probability, held in one dense table array: a numpy ``dtype=object`` array
of shape ``(K,)*n + (2,)*n`` indexed ``[u + x]`` whose entries keep their
Python type (``Fraction`` or ``float``).  Marginals, conditioning and the
consistency check are slices and axis reductions over that array; every sum
runs left to right from 0 in lexicographic target order, so float results
match a scalar loop bit for bit.  Systems are immutable after construction
and all operations here are pure, so instances are safe to share across
threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import (
    InconsistentMarginal,
    MissingTarget,
    NegativeProbability,
    NormalizationViolation,
    ValidationError,
    WrongArity,
    ZeroProbabilityBranch,
)
from .ignition import config_index
from .scalars import (
    EPS_NUM,
    FLOAT,
    RATIONAL,
    coerce,
    format_value,
    infer_backend,
    is_close,
    parse_value,
)


@dataclass(frozen=True)
class Configuration:
    """One (region, setting) pair, indexed gamma = setting + region*K."""

    region: int
    setting: int
    num_settings: int

    @property
    def index(self):
        return config_index(self.region, self.setting, self.num_settings)

    @classmethod
    def from_index(cls, gamma, num_settings):
        return cls(gamma // num_settings, gamma % num_settings, num_settings)


class ProbabilitySystem:
    """Validated table P(x|u) for n regions sharing K settings.

    `table` is a dict {(x, u): value}, or an array of shape (K,)*n + (2,)*n
    indexed [u + x] whose entries already have the backend's type.
    """

    __slots__ = ("n", "num_settings", "labels", "backend", "_p", "_consistency")

    def __init__(self, n, num_settings, labels, table, backend=None):
        if n < 1:
            raise ValidationError("need at least one region")
        if num_settings < 1:
            raise ValidationError("need at least one setting")
        labels = tuple(str(s) for s in labels)
        if len(labels) != num_settings:
            raise ValidationError(f"expected {num_settings} setting labels, got {len(labels)}")
        if len(set(labels)) != len(labels):
            raise ValidationError("setting labels must be distinct")

        shape = (num_settings,) * n + (2,) * n
        if isinstance(table, np.ndarray):
            if table.shape != shape:
                raise ValidationError(f"table array has shape {table.shape}, expected {shape}")
            p = table
            if backend is None:
                backend = infer_backend(p.flat)
        else:
            if backend is None:
                backend = infer_backend(table.values())
            p = np.empty(shape, dtype=object)
            for u in product(range(num_settings), repeat=n):
                for x in product((0, 1), repeat=n):
                    try:
                        raw = table[(x, u)]
                    except KeyError:
                        raise MissingTarget(f"no entry for outcomes {x} at settings {u}") from None
                    p[u + x] = coerce(raw, backend)
            if len(table) != p.size:
                raise ValidationError("table has entries outside the target set")

        tol = 0 if backend == RATIONAL else EPS_NUM
        negative = np.flatnonzero(p < -tol)
        if negative.size:
            site = tuple(int(i) for i in np.unravel_index(negative[0], shape))
            raise NegativeProbability(f"P{site[n:]}|{site[:n]} = {p[site]}")
        for u, column in zip(product(range(num_settings), repeat=n), p.reshape(-1, 2**n)):
            total = sum(column)
            if not is_close(total, 1, backend):
                raise NormalizationViolation(u, total)

        self.n = n
        self.num_settings = num_settings
        self.labels = labels
        self.backend = backend
        self._p = p
        self._consistency = None

    def prob(self, x, u):
        """P(x|u) for an outcome tuple and a setting tuple."""
        return self._p[tuple(u) + tuple(x)]

    def outcome_vectors(self):
        return product((0, 1), repeat=self.n)

    def setting_vectors(self):
        return product(range(self.num_settings), repeat=self.n)

    def targets(self):
        """All ((x, u), probability) pairs, settings outermost."""
        keys = ((x, u) for u in self.setting_vectors() for x in self.outcome_vectors())
        return zip(keys, self._p.flat)

    def setting_index(self, label_or_index):
        """Resolve a setting given either its label or its integer index."""
        if isinstance(label_or_index, int):
            if not 0 <= label_or_index < self.num_settings:
                raise ValidationError(f"setting index {label_or_index} out of range")
            return label_or_index
        try:
            return self.labels.index(str(label_or_index))
        except ValueError:
            raise ValidationError(f"unknown setting {label_or_index!r}") from None

    def outcome_marginal(self, regions, settings):
        """Pr(x_regions | settings) for increasing `regions`, x in lexicographic order.

        The other regions' settings are pinned to 0 (irrelevant for locally
        consistent systems) and their outcomes summed left to right from 0.
        """
        u = [0] * self.n
        for region, setting in zip(regions, settings):
            u[region] = setting
        k = len(regions)
        column = np.moveaxis(self._p[tuple(u)], regions, range(k)).reshape(2**k, -1)
        return tuple(np.add.reduce(column, axis=1, initial=0))

    def region_marginal(self, region, setting):
        """Pr(x_i = 0), Pr(x_i = 1) in one region (see `outcome_marginal`)."""
        return self.outcome_marginal((region,), (setting,))

    def canonical_key(self):
        """Hashable identity of the table, used for memoization."""
        values = tuple(str(p) for p in self._p.flat)
        return (self.n, self.num_settings, self.labels, self.backend, values)

    def __eq__(self, other):
        if not isinstance(other, ProbabilitySystem):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return (
            f"ProbabilitySystem(n={self.n}, K={self.num_settings}, "
            f"labels={self.labels}, backend={self.backend!r})"
        )

    # -- serialization ----------------------------------------------------

    def to_dict(self):
        return {
            "n": self.n,
            "k": self.num_settings,
            "labels": list(self.labels),
            "scalar": self.backend,
            "table": [
                {"x": list(x), "u": list(u), "p": format_value(p)}
                for (x, u), p in sorted(self.targets(), key=lambda item: item[0])
            ],
        }

    @classmethod
    def from_dict(cls, data):
        backend = data.get("scalar", RATIONAL)
        if backend not in (RATIONAL, FLOAT):
            raise ValidationError(f"unknown scalar backend {backend!r}")
        table = {}
        for entry in data["table"]:
            key = (tuple(entry["x"]), tuple(entry["u"]))
            if key in table:
                raise ValidationError(f"duplicate table entry for {key}")
            table[key] = parse_value(entry["p"], backend)
        return cls(data["n"], data["k"], data["labels"], table, backend)

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def new_system(n, num_settings, labels, table, backend=None):
    """Build and validate a probability system from a raw table."""
    return ProbabilitySystem(n, num_settings, labels, table, backend)


def load_system(path):
    with open(path, "r", encoding="utf-8") as fh:
        return ProbabilitySystem.from_dict(json.load(fh))


def save_system(system, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system.to_dict(), fh, indent=2)
        fh.write("\n")


@dataclass
class ConsistencyReport:
    """Outcome of a (complete) local-consistency check."""

    ok: bool
    max_deviation: float
    worst_site: tuple | None = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class MarginalSystem:
    """Marginal over a subset of regions of a locally consistent parent."""

    kept_regions: tuple
    system: ProbabilitySystem


@dataclass(frozen=True)
class ConditionedSystem:
    """System over the remaining regions after observing one region."""

    kept_regions: tuple
    region: int
    setting: int
    outcome: int
    normalization: object  # 1 / Pr(outcome | setting) in the fixed region
    system: ProbabilitySystem


def _kept_sums(system, kept):
    """Marginal over `kept` at every setting vector, as a 2-D object array.

    Rows run over (u_kept, x_kept) and columns over the dropped regions'
    settings, both in lexicographic order.  Each entry sums P(x|u) over the
    dropped regions' outcomes, left to right from 0.
    """
    n, K = system.n, system.num_settings
    dropped = [i for i in range(n) if i not in kept]
    axes = [*kept, *(n + i for i in kept), *dropped, *(n + i for i in dropped)]
    k, d = len(kept), len(dropped)
    blocks = system._p.transpose(axes).reshape(K**k * 2**k, K**d, 2**d)
    return np.add.reduce(blocks, axis=2, initial=0)


def _deviations(sums):
    """|sum - sum at dropped settings 0| as floats, one per entry of `sums`."""
    return np.abs((sums - sums[:, :1]).astype(float))


def is_locally_consistent(system, tolerance=None):
    """Check complete local consistency and report the worst violation.

    Every marginal over every nonempty proper subset of regions must be
    independent of the dropped regions' settings.  Rational systems must
    satisfy this exactly; float systems within the numeric tolerance.  The
    worst site is the first maximal deviation in (subset mask, u_kept,
    x_kept, u_drop) order.
    """
    cached = system._consistency
    if cached is not None and tolerance is None:
        return cached

    tol = tolerance
    if tol is None:
        tol = 0 if system.backend == RATIONAL else EPS_NUM
    n, K = system.n, system.num_settings
    worst = 0.0
    worst_site = None

    for kept_mask in range(1, (1 << n) - 1):
        kept = tuple(i for i in range(n) if kept_mask >> i & 1)
        dev = _deviations(_kept_sums(system, kept))
        i = int(dev.argmax())
        if dev.flat[i] > worst:
            worst = float(dev.flat[i])
            k = len(kept)
            site = [int(c) for c in np.unravel_index(i, (K,) * k + (2,) * k + (K,) * (n - k))]
            worst_site = (kept, tuple(site[k:2 * k]), tuple(site[:k]), tuple(site[2 * k:]))

    report = ConsistencyReport(worst <= tol, worst, worst_site)
    if tolerance is None:
        system._consistency = report
    return report


def marginal(system, kept_regions):
    """Marginal system over `kept_regions`, dropping the rest.

    Requires the dropped regions' settings to be irrelevant; the result is
    computed with dropped settings pinned to 0 after verifying that choice
    does not matter.
    """
    kept = tuple(sorted(set(kept_regions)))
    if not kept:
        raise ValidationError("kept_regions must be nonempty")
    if any(i < 0 or i >= system.n for i in kept):
        raise ValidationError(f"kept_regions {kept} out of range for n={system.n}")
    if len(kept) == system.n:
        return MarginalSystem(kept, system)

    n, K = system.n, system.num_settings
    tol = 0 if system.backend == RATIONAL else EPS_NUM
    sums = _kept_sums(system, kept)
    spread = _deviations(sums).max(axis=1)
    bad = np.flatnonzero(spread > tol)
    if bad.size:
        dropped = [i for i in range(n) if i not in kept]
        raise InconsistentMarginal(dropped, float(spread[bad[0]]))

    k = len(kept)
    table = sums[:, 0].reshape((K,) * k + (2,) * k)
    inner = ProbabilitySystem(k, K, system.labels, table, system.backend)
    return MarginalSystem(kept, inner)


def is_totally_correlated(system):
    """Bipartite check: identical outcomes are certain for equal settings."""
    if system.n != 2:
        raise WrongArity(f"total correlation is defined for n=2, got n={system.n}")
    backend = system.backend
    for k in range(system.num_settings):
        u = (k, k)
        for x in ((0, 1), (1, 0)):
            p = system.prob(x, u)
            if not is_close(p, 0, backend):
                return False
    return True


def is_separable(system):
    """True when P(x|u) factors into single-region marginals everywhere."""
    if not is_locally_consistent(system):
        return False
    marginals = {
        (i, k): system.region_marginal(i, k)
        for i in range(system.n)
        for k in range(system.num_settings)
    }
    for (x, u), p in system.targets():
        prod = 1
        for i in range(system.n):
            prod *= marginals[(i, u[i])][x[i]]
        if not is_close(p, prod, system.backend):
            return False
    return True


def condition(system, region, setting, outcome):
    """Condition on one region's observed outcome at one setting.

    Returns the renormalized system over the remaining regions; multiplying
    it back by the observed region's marginal reconstructs the parent slice.
    """
    n, K = system.n, system.num_settings
    if not 0 <= region < n:
        raise ValidationError(f"region {region} out of range")
    if n < 2:
        raise WrongArity("conditioning needs at least two regions")
    setting = system.setting_index(setting)
    if outcome not in (0, 1):
        raise ValidationError(f"outcome must be 0 or 1, got {outcome}")

    marg = system.region_marginal(region, setting)[outcome]
    backend = system.backend
    if is_close(marg, 0, backend) or marg <= 0:
        raise ZeroProbabilityBranch(
            f"Pr(x_{region}={outcome} | setting {setting}) = {marg}"
        )
    scale = Fraction(1, 1) / marg if backend == RATIONAL else 1.0 / marg

    kept = tuple(i for i in range(n) if i != region)
    table = system._p.take(setting, axis=region).take(outcome, axis=n - 1 + region) * scale
    inner = ProbabilitySystem(n - 1, K, system.labels, table, backend)
    return ConditionedSystem(kept, region, setting, outcome, scale, inner)


def branches(system, region):
    """(setting, outcome, ConditionedSystem) for each branch of one region.

    Runs in (setting, outcome) order and skips exactly the outcomes that
    `condition` rejects as ZeroProbabilityBranch, so the zero-probability
    rule lives in `condition` alone.
    """
    for setting in range(system.num_settings):
        for outcome in (0, 1):
            try:
                branch = condition(system, region, setting, outcome)
            except ZeroProbabilityBranch:
                continue
            yield setting, outcome, branch


def product_system(factors, labels=None):
    """Independent product of one-region systems (helper for tests/catalog)."""
    if not factors:
        raise ValidationError("need at least one factor")
    K = factors[0].num_settings
    if any(f.n != 1 or f.num_settings != K for f in factors):
        raise ValidationError("factors must be one-region systems sharing K")
    labels = labels or factors[0].labels
    n = len(factors)
    table = factors[0]._p
    for f in factors[1:]:
        table = np.multiply.outer(table, f._p)
    # axes run (u0, x0, u1, x1, ...); move the settings first
    table = table.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)])
    return ProbabilitySystem(n, K, labels, table, infer_backend(table.flat))
