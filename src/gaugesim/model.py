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

A rational system also carries an integer view, built at construction:
``(N, D)``, its numerators over one common denominator ``D`` (see
`integer_view`).  ``N`` is int64 when ``D < 2**53`` and no setting column
can overflow int64, and a Python-int ``object`` array otherwise.  The
constructor's checks, the marginals, conditioning, the separability test
and the consistency check all run on it, so the only ``Fraction`` work
left is one ``Fraction(sum, D)`` per returned value.  In a valid int64
view every partial sum of a setting column is at most ``D`` and so exact
in float64, and ``a / b`` of two such integers is the correctly rounded
``float(Fraction(a, b))``, which keeps the bits of the ``Fraction``
arithmetic the view replaces.  Float systems keep the object-array folds.
"""

from __future__ import annotations

import json
import math
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

    __slots__ = ("n", "num_settings", "labels", "backend", "_p", "_consistency", "_ints",
                 "_equation_targets")

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
            kind = Fraction if backend == RATIONAL else float
            values = []
            for u in product(range(num_settings), repeat=n):
                for x in product((0, 1), repeat=n):
                    try:
                        raw = table[(x, u)]
                    except KeyError:
                        raise MissingTarget(f"no entry for outcomes {x} at settings {u}") from None
                    values.append(raw if type(raw) is kind else coerce(raw, backend))
            if len(table) != len(values):
                raise ValidationError("table has entries outside the target set")
            p = np.array(values, dtype=object).reshape(shape)

        if backend == RATIONAL:
            ints = _checked_view(p, n)
        else:
            ints = None
            negative = np.flatnonzero(p < -EPS_NUM)
            if negative.size:
                _raise_negative(p, negative[0])
            for u, column in zip(product(range(num_settings), repeat=n), p.reshape(-1, 2**n)):
                total = sum(column)
                if not is_close(total, 1, backend):
                    raise NormalizationViolation(u, total)
        self._set(n, num_settings, labels, backend, p, ints)

    def _set(self, n, num_settings, labels, backend, p, ints):
        self.n = n
        self.num_settings = num_settings
        self.labels = labels
        self.backend = backend
        self._p = p
        self._consistency = None
        self._ints = ints
        self._equation_targets = None  # memo of solver._equation_targets

    @classmethod
    def _from_view(cls, labels, N, D):
        """The rational system with integer view (N, D), every setting column of which sums to D.

        Used for the marginals and conditioned slices of a valid system,
        which are valid by construction and so are not checked again.
        """
        system = object.__new__(cls)
        cells = N.ravel().tolist()
        value = {c: Fraction(c, D) for c in set(cells)}
        p = np.array([value[c] for c in cells], dtype=object).reshape(N.shape)
        system._set(N.ndim // 2, N.shape[0], labels, RATIONAL, p, (N, D))
        return system

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
        consistent systems) and their outcomes summed: on the integer view
        for a rational system, left to right from 0 for a float one.
        """
        u = [0] * self.n
        for region, setting in zip(regions, settings):
            u[region] = setting
        k = len(regions)
        table, denominator = self._ints or (self._p, None)
        column = np.moveaxis(table[tuple(u)], regions, range(k)).reshape(2**k, -1)
        sums = np.add.reduce(column, axis=1, initial=0)
        if denominator is None:
            return tuple(sums)
        return tuple(Fraction(s, denominator) for s in sums.tolist())

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
        """Build a system from its `to_dict` form, parsing each entry once.

        A malformed document raises ValidationError.
        """
        if not isinstance(data, dict):
            raise ValidationError(f"a system is a JSON object, got {type(data).__name__}")
        backend = data.get("scalar", RATIONAL)
        if backend not in (RATIONAL, FLOAT):
            raise ValidationError(f"unknown scalar backend {backend!r}")
        for field in ("n", "k", "labels", "table"):
            if field not in data:
                raise ValidationError(f"system has no {field!r} field")
        for field in ("n", "k"):
            if type(data[field]) is not int:
                raise ValidationError(f"{field!r} must be an integer, got {data[field]!r}")
        for field in ("labels", "table"):
            if not isinstance(data[field], list):
                raise ValidationError(f"{field!r} must be a list")
        table = {}
        for entry in data["table"]:
            try:
                key = (tuple(entry["x"]), tuple(entry["u"]))
                if key in table:
                    raise ValidationError(f"duplicate table entry for {key}")
                table[key] = parse_value(entry["p"], backend)
            except KeyError as exc:
                raise ValidationError(f"table entry {entry!r} has no {exc} field") from None
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ValidationError(f"bad table entry {entry!r}: {exc}") from None
        return cls(data["n"], data["k"], data["labels"], table, backend)

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(_read_json(json.loads, text, "system text"))


def _read_json(load, source, name):
    try:
        return load(source)
    except ValueError as exc:  # includes JSONDecodeError and UnicodeDecodeError
        raise ValidationError(f"{name} is not JSON: {exc}") from None


def new_system(n, num_settings, labels, table, backend=None):
    """Build and validate a probability system from a raw table."""
    return ProbabilitySystem(n, num_settings, labels, table, backend)


def load_system(path):
    with open(path, "r", encoding="utf-8") as fh:
        return ProbabilitySystem.from_dict(_read_json(json.load, fh, path))


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


def integer_view(system):
    """(N, D) of a rational system, built at construction (None for a float one).

    N holds the table's numerators over one common denominator D, in the
    table's shape, as int64 or Python ints (see `_checked_view`).  D is the
    lcm of the entries' denominators for a table given by its values; a
    marginal keeps its parent's view and D, and a conditioned slice keeps
    its parent's numerators over its mass.
    """
    return system._ints


def _checked_view(p, n):
    """(N, D) of a rational table array, or the constructor's first error.

    Negative entries are found before unnormalised setting columns, each
    at its first site in table order, as the `Fraction` scan found them.
    N widens to Python ints when D reaches 2**53 or when a column sum of
    2**n entries could overflow int64, so no total ever wraps.
    """
    flat = p.ravel().tolist()
    D = math.lcm(*{q.denominator for q in flat})
    nums = [q.numerator * (D // q.denominator) for q in flat]
    bound = max(max(nums), -min(nums)) << n
    N = np.array(nums, dtype=np.int64 if D < 2**53 and bound < 2**63 else object)
    negative = np.flatnonzero(N < 0)
    if negative.size:
        _raise_negative(p, negative[0])
    totals = N.reshape(-1, 2**n).sum(axis=1)
    bad = np.flatnonzero(totals != D)
    if bad.size:
        u = np.unravel_index(bad[0], p.shape[:n])
        raise NormalizationViolation(tuple(int(i) for i in u), Fraction(int(totals[bad[0]]), D))
    return N.reshape(p.shape), D


def _raise_negative(p, index):
    site = tuple(int(i) for i in np.unravel_index(index, p.shape))
    n = p.ndim // 2
    raise NegativeProbability(f"P{site[n:]}|{site[:n]} = {p[site]}")


def _kept_sums(table, kept):
    """Marginal over `kept` at every setting vector, as a 2-D array.

    `table` is a system's table array or its integer numerators.  Rows run
    over (u_kept, x_kept) and columns over the dropped regions' settings,
    both in lexicographic order.  Each entry sums the table over the dropped
    regions' outcomes, left to right from 0.
    """
    n, K = table.ndim // 2, table.shape[0]
    dropped = [i for i in range(n) if i not in kept]
    axes = [*kept, *(n + i for i in kept), *dropped, *(n + i for i in dropped)]
    k, d = len(kept), len(dropped)
    blocks = table.transpose(axes).reshape(K**k * 2**k, K**d, 2**d)
    return np.add.reduce(blocks, axis=2, initial=0)


def _deviations(sums, denominator=1):
    """|sum - sum at dropped settings 0| as floats, one per entry of `sums`.

    Integer sums are numerators over `denominator`; each deviation is then
    one integer division, the correctly rounded float of the exact value.
    """
    spread = np.abs(sums - sums[:, :1])
    if denominator != 1:
        spread = spread / denominator
    return spread.astype(float)


def is_locally_consistent(system, tolerance=None):
    """Check complete local consistency and report the worst violation.

    Every marginal over every nonempty proper subset of regions must be
    independent of the dropped regions' settings.  Rational systems must
    satisfy this exactly, checked on the integer view; float systems within
    the numeric tolerance.  The worst site is the first maximal deviation
    in (subset mask, u_kept, x_kept, u_drop) order.
    """
    cached = system._consistency
    if cached is not None and tolerance is None:
        return cached

    tol = tolerance
    if tol is None:
        tol = 0 if system.backend == RATIONAL else EPS_NUM
    n, K = system.n, system.num_settings
    table, denominator = integer_view(system) if system.backend == RATIONAL else (system._p, 1)
    worst = 0.0
    worst_site = None

    for kept_mask in range(1, (1 << n) - 1):
        kept = tuple(i for i in range(n) if kept_mask >> i & 1)
        dev = _deviations(_kept_sums(table, kept), denominator)
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
    rational = system.backend == RATIONAL
    table, denominator = integer_view(system) if rational else (system._p, 1)
    sums = _kept_sums(table, kept)
    spread = _deviations(sums, denominator).max(axis=1)
    bad = np.flatnonzero(spread > (0 if rational else EPS_NUM))
    if bad.size:
        dropped = [i for i in range(n) if i not in kept]
        raise InconsistentMarginal(dropped, float(spread[bad[0]]))

    k = len(kept)
    cells = sums[:, 0].reshape((K,) * k + (2,) * k)
    if rational:
        inner = ProbabilitySystem._from_view(system.labels, cells, denominator)
    else:
        inner = ProbabilitySystem(k, K, system.labels, cells, system.backend)
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
    """True when P(x|u) factors into single-region marginals everywhere.

    A rational system compares N * D**(n-1) with the product of the
    regions' marginal numerators, in Python ints; a float one multiplies
    its marginals target by target within the tolerance.
    """
    if not is_locally_consistent(system):
        return False
    n, K = system.n, system.num_settings
    if system.backend == RATIONAL:
        N, D = integer_view(system)
        table = None
        for i in range(n):
            factor = _kept_sums(N, (i,))[:, 0].reshape(K, 2).astype(object)
            table = factor if table is None else np.multiply.outer(table, factor)
        table = table.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)])
        return bool((table == N.astype(object) * D ** (n - 1)).all())
    marginals = {(i, k): system.region_marginal(i, k) for i in range(n) for k in range(K)}
    for (x, u), p in system.targets():
        prod = 1
        for i in range(n):
            prod *= marginals[(i, u[i])][x[i]]
        if not is_close(p, prod, system.backend):
            return False
    return True


def condition(system, region, setting, outcome):
    """Condition on one region's observed outcome at one setting.

    Returns the renormalized system over the remaining regions; multiplying
    it back by the observed region's marginal reconstructs the parent slice.
    A rational slice keeps its integer numerators over its mass M, the sum
    of its column at the other regions' setting 0, so each setting column
    needs only one integer compare with M; a column that misses M (the
    parent signals) fails as the renormalised slice always did.
    """
    n, K = system.n, system.num_settings
    if not 0 <= region < n:
        raise ValidationError(f"region {region} out of range")
    if n < 2:
        raise WrongArity("conditioning needs at least two regions")
    setting = system.setting_index(setting)
    if outcome not in (0, 1):
        raise ValidationError(f"outcome must be 0 or 1, got {outcome}")

    kept = tuple(i for i in range(n) if i != region)
    if system.backend == RATIONAL:
        N, D = integer_view(system)
        cells = N.take(setting, axis=region).take(outcome, axis=n - 1 + region)
        totals = cells.reshape(-1, 2 ** (n - 1)).sum(axis=1)
        mass = int(totals[0])
        if mass <= 0:
            raise ZeroProbabilityBranch(
                f"Pr(x_{region}={outcome} | setting {setting}) = {Fraction(mass, D)}"
            )
        bad = np.flatnonzero(totals != mass)
        if bad.size:
            u = np.unravel_index(bad[0], (K,) * (n - 1))
            raise NormalizationViolation(tuple(int(i) for i in u),
                                         Fraction(int(totals[bad[0]]), mass))
        inner = ProbabilitySystem._from_view(system.labels, cells, mass)
        return ConditionedSystem(kept, region, setting, outcome, Fraction(D, mass), inner)

    marg = system.region_marginal(region, setting)[outcome]
    if is_close(marg, 0, FLOAT) or marg <= 0:
        raise ZeroProbabilityBranch(
            f"Pr(x_{region}={outcome} | setting {setting}) = {marg}"
        )
    scale = 1.0 / marg
    table = system._p.take(setting, axis=region).take(outcome, axis=n - 1 + region) * scale
    inner = ProbabilitySystem(n - 1, K, system.labels, table, FLOAT)
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
