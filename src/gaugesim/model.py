"""n-region, K-setting conditional probability systems.

The central object maps each target (outcome vector | setting vector) to a
probability, held in one dense array of shape ``(K,)*n + (2,)*n`` indexed
``[u + x]``.  Systems are immutable after construction and all operations
here are pure, so instances are safe to share across threads.  `marginal`,
`condition` and `branches` return subsystems as `ProbabilitySystem`s too.

Every system holds one read-only array over one denominator.  A rational
system holds its integer view ``(N, D)``, the numerators over one common
denominator ``D`` (see `integer_view`).  ``N`` is int64 when ``D < 2**53``
and no setting column can overflow int64, and a Python-int ``object`` array
otherwise, one dtype chosen up front.  Tables are parsed into the view in
whole-array steps, without a ``Fraction`` per cell (a compact file's numbers
in C, `_scan_system`), and the constructor's checks, the marginals,
conditioning, the separability test and the consistency check all run on it.  A ``Fraction`` is made only when one is
returned: ``prob``, ``targets``, ``to_dict`` and ``outcome_marginal`` build
``Fraction(N[i], D)`` on demand.  `float_column` and `float_marginals` read
floats off the view as ``s / D``.  In a valid int64 view every partial sum
of a setting column is at most ``D`` and so exact in float64, and ``a / b``
of two such integers is the correctly rounded ``float(Fraction(a, b))``, as
Python's ``int / int`` is at any size; that keeps the bits of the
``Fraction`` arithmetic the view replaces.

A float system holds a C-contiguous float64 array of finite values, its own
copy of the table it was given, over the denominator ``None``.  Its checks
and scans run on that array, every sum left to right from 0 in
lexicographic target order (not numpy's pairwise summation), so they match
a scalar loop bit for bit; the values it returns are Python floats.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product

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
from .scalars import (
    EPS_NUM,
    FLOAT,
    RATIONAL,
    coerce,
    format_value,
    infer_backend,
    is_close,
    parse_float,
    parse_rational,
)

# A rational table of at most this many cells checks its single drops by one
# gather, whose cached layout holds about 2n int32 indices per cell.
GATHER_CELLS = 1 << 14


class ProbabilitySystem:
    """Validated table P(x|u) for n regions sharing K settings.

    `table` is a dict {(x, u): value}, or an array of shape (K,)*n + (2,)*n
    indexed [u + x].  Array entries are coerced to the backend as dict
    entries are; a float system's float64 array is taken as it is.  The
    system holds `_table`, a read-only array, over `_den`: the integer view
    (N, D) of a rational system, or its own float64 copy of a float table
    over None.
    """

    __slots__ = ("n", "num_settings", "labels", "_table", "_den", "_consistency")

    def __init__(self, n, num_settings, labels, table, backend=None):
        labels = _checked_labels(n, num_settings, labels)
        shape = (num_settings,) * n + (2,) * n
        if isinstance(table, np.ndarray):
            if table.shape != shape:
                raise ValidationError(f"table array has shape {table.shape}, expected {shape}")
            if backend is None:
                backend = infer_backend(table.flat)
            kind = Fraction if backend == RATIONAL else float
            values = table if kind is float and table.dtype == np.float64 else [
                v if type(v) is kind else coerce(v, backend) for v in table.ravel().tolist()]
        else:
            if backend is None:
                backend = infer_backend(table.values())
            values = _in_target_order(table, n, num_settings,
                                      Fraction if backend == RATIONAL else float, backend)

        if backend == RATIONAL:
            view = _checked_view([q.numerator for q in values],
                                 [q.denominator for q in values], shape)
        else:
            view = np.array(values, dtype=np.float64).reshape(shape), None  # a copy
        self._set(labels, *view)

    def _set(self, labels, table, den):
        if den is None:
            table = np.ascontiguousarray(table)
            _check_floats(table)
        table.flags.writeable = False  # callers read, never write
        self.n, self.num_settings = table.ndim // 2, table.shape[0]
        self.labels = labels
        self._table = table  # the integer view's N, the solver's rhs too, or the float table
        self._den = den
        self._consistency = None

    @classmethod
    def _from_view(cls, labels, table, den):
        """The system held as `table` over `den`, None for a float table.

        A rational (N, D) is taken as it is, not necessarily in lowest terms:
        every setting column of N must sum to D, as in the marginals,
        conditioned slices and parsed views of a valid system.  A float table
        is made C-contiguous and checked as the constructor checks it."""
        system = object.__new__(cls)
        system._set(labels, table, den)
        return system

    @property
    def backend(self):
        return FLOAT if self._den is None else RATIONAL

    def prob(self, x, u):
        """P(x|u) for an outcome tuple and a tuple of setting indices."""
        x, u = tuple(x), tuple(u)
        if len(x) != self.n or len(u) != self.n:
            raise ValidationError(f"expected {self.n} outcomes and {self.n} settings, "
                                  f"got {len(x)} and {len(u)}")
        try:
            if min(u + x) < 0:
                raise IndexError
            cell = self._table[u + x]
        except (IndexError, TypeError):
            raise ValidationError(f"no target ({x}|{u})") from None
        return float(cell) if self._den is None else Fraction(int(cell), self._den)

    def outcome_vectors(self):
        return product((0, 1), repeat=self.n)

    def setting_vectors(self):
        return product(range(self.num_settings), repeat=self.n)

    def targets(self):
        """All ((x, u), probability) pairs, settings outermost."""
        keys = _target_keys(self.n, self.num_settings)
        cells = self._table.ravel().tolist()
        if self._den is None:
            return zip(keys, cells)
        value = {c: Fraction(c, self._den) for c in set(cells)}
        return zip(keys, map(value.__getitem__, cells))

    def setting_index(self, label_or_index):
        """The index, a Python int, of a setting given by its label or any non-bool integer."""
        if isinstance(label_or_index, bool):
            raise ValidationError(f"setting {label_or_index!r} is a bool, not an index")
        try:
            index = operator.index(label_or_index)
        except TypeError:
            try:
                return self.labels.index(str(label_or_index))
            except ValueError:
                raise ValidationError(f"unknown setting {label_or_index!r}") from None
        if not 0 <= index < self.num_settings:
            raise ValidationError(f"setting index {index} out of range")
        return index

    def setting_indices(self, u):
        """`setting_index` of each entry of a setting vector, one per region."""
        if len(u) != self.n:
            raise ValidationError(f"expected {self.n} settings, got {len(u)}")
        return tuple(self.setting_index(s) for s in u)

    def outcome_marginal(self, regions, settings):
        """Pr(x_regions | settings) for increasing `regions`, x in lexicographic order.

        The other regions' settings are pinned to 0 (irrelevant for locally
        consistent systems) and their outcomes summed: on the integer view
        for a rational system, left to right from 0 for a float one.
        """
        u = [0] * self.n
        for region, setting in zip(regions, settings):
            u[region] = setting
        sums = _kept_sums(self._table[tuple(slice(s, s + 1) for s in u)], regions)[:, 0].tolist()
        if self._den is None:
            return tuple(sums)
        return tuple(Fraction(s, self._den) for s in sums)

    def region_marginal(self, region, setting):
        """Pr(x_i = 0), Pr(x_i = 1) in one region (see `outcome_marginal`)."""
        return self.outcome_marginal((region,), (setting,))

    def canonical_key(self):
        """Hashable identity of the table, used for memoization.

        A rational table is keyed by its integer view in lowest terms, a
        float one by the text of its values.
        """
        cells, D = self._table.ravel().tolist(), self._den
        if D is None:
            values = tuple(map(str, cells))
        else:
            g = math.gcd(D, *cells)
            values = (D // g, tuple(c // g for c in cells) if g > 1 else tuple(cells))
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
        """Build a system from its `to_dict` form, entries in any order, parsing each once:
        rational values go straight into the integer view, with no `Fraction` per cell.
        A malformed document raises ValidationError."""
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
        rational = backend == RATIONAL
        n, K = data["n"], data["k"]
        table = {}
        for entry in data["table"]:
            try:
                key = (tuple(entry["x"]), tuple(entry["u"]))
                if key in table:
                    raise ValidationError(f"duplicate table entry for {key}")
                table[key] = parse_rational(entry["p"]) if rational else parse_float(entry["p"])
            except KeyError as exc:
                raise ValidationError(f"table entry {entry!r} has no {exc} field") from None
            except (TypeError, ValueError, ArithmeticError) as exc:
                raise ValidationError(f"bad table entry {entry!r}: {exc}") from None
        labels = _checked_labels(n, K, data["labels"])
        shape = (K,) * n + (2,) * n
        # the pairs are tuples and the floats floats, so none is coerced
        values = _in_target_order(table, n, K, tuple if rational else float, backend)
        view = (_checked_view(*zip(*values), shape) if rational
                else (np.array(values).reshape(shape), None))
        return cls._from_view(labels, *view)

    @classmethod
    def from_json(cls, text):
        """The system in a JSON text, read in one scan in the compact layout (`_scan_system`)."""
        return _scan_system(text, cls) or cls.from_dict(
            _read_json(json.loads, text, "system text"))


def _read_json(load, source, name):
    try:
        return load(source)
    except ValueError as exc:  # includes JSONDecodeError and UnicodeDecodeError
        raise ValidationError(f"{name} is not JSON: {exc}") from None


def load_system(path):
    """The system in a JSON file, read as `from_json` reads a text; non-UTF-8 is not JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        text = _read_json(lambda f: f.read(), fh, path)
    return _scan_system(text) or ProbabilitySystem.from_dict(_read_json(json.loads, text, path))


# gaugesim's compact layout: the header up to the table, and each value closing its entry
_HEADER = re.compile(r'\{"n":([1-9][0-9]*),"k":([1-9][0-9]*),"labels":(\[[^\]]*\]),'
                     r'"scalar":"(rational|float)","table":\[')
_VALUES = {RATIONAL: re.compile(r'"p":"([0-9]+)/([0-9]+)"\}'),
           FLOAT: re.compile(r'"p":(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)\}')}
# A compact text is split this many entries at a time (whole setting vectors, at least one).
SCAN_ENTRIES = 1 << 13


def _scan_system(text, cls=ProbabilitySystem):
    """The system in `json.dumps(data, separators=(",", ":"))` of a `to_dict` document in
    table order, then optional JSON whitespace, read in one scan; the text must equal the
    entry skeleton filled with the scanned values, so it gives what `from_dict` gives for
    it.  Any other text, or a value `from_dict` rejects, gives None.  The table is split by
    the value pattern SCAN_ENTRIES entries at a time; integers of at most 18 digits are read
    in C (`np.fromstring` saturates past int64), floats by `float()`, JSON's int -0 as 0.0."""
    if not isinstance(text, str) or not (head := _HEADER.match(text)):
        return None
    rational, split = head[4] == RATIONAL, _VALUES[head[4]].split
    try:  # an int past the digit limit, or labels that are not JSON, give None
        n, K, labels = int(head[1]), int(head[2]), json.loads(head[3])
        if n > len(text).bit_length() or (2 * K) ** n > len(text):
            return None
        blocks, step, at, parts = K**n, max(1, SCAN_ENTRIES >> n), head.end(), []
        skeleton = _skeleton if (2 * K)**n <= SCAN_ENTRIES else _skeleton.__wrapped__
        for start in range(0, blocks, step):  # whole setting vectors at a time
            stop = min(start + step, blocks)
            end = text.find(skeleton(n, K, stop, stop + 1)[0], at) if stop < blocks else len(text)
            pieces = split("," * (start == 0) + text[at:end])  # as if a comma led the table
            if (end < 0 or pieces[-1].rstrip(" \t\n\r") != ("]}" if stop == blocks else "")
                    or pieces[:-1:2 + rational] != skeleton(n, K, start, stop)):
                return None
            if rational:
                digits = pieces[1::3] + pieces[2::3]
                parts.append(np.fromstring(",".join(digits), np.int64, sep=",")
                             if max(map(len, digits)) <= 18 else
                             np.array(list(map(int, digits)), dtype=object))
            else:  # JSON reads -0 as the int 0, so as 0.0, where float("-0") is -0.0
                values = pieces[1::2]
                values = ["0" if v == "-0" else v for v in values] if "-0" in values else values
                parts.append(np.fromiter(map(float, values), np.float64, len(values)))
            at = end
    except ValueError:
        return None
    table = np.concatenate([part.reshape(1 + rational, -1) for part in parts], axis=1)
    if 0 in table[1] if rational else not np.isfinite(table).all():
        return None
    labels, shape = _checked_labels(n, K, labels), (K,) * n + (2,) * n
    view = _checked_view(*table, shape) if rational else (table.reshape(shape), None)
    return cls._from_view(labels, *view)


@functools.lru_cache(maxsize=16)
def _skeleton(n, K, start, stop):
    """The compact text before each value of setting vectors [start, stop), in table order."""
    xs = [f',{{"x":{list(x)},"u":'.replace(" ", "") for x in product((0, 1), repeat=n)]
    us = (f"{list(u)},".replace(" ", "") for u in islice(product(range(K), repeat=n), start, stop))
    return [x + u for u in us for x in xs]


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


def integer_view(system):
    """(N, D) of a rational system, the integers it is held as (None for a float one).

    N holds the table's numerators over one common denominator D, in the
    table's shape, as int64 or Python ints (see `_checked_view`).  A table
    given by its values has D in lowest terms, the lcm of the entries'
    reduced denominators; a marginal keeps its parent's view and D, and a
    conditioned slice keeps its parent's numerators over its mass, so
    neither need be in lowest terms.
    """
    return None if system._den is None else (system._table, system._den)


def float_column(system, u):
    """[float(system.prob(x, u)) for x in lexicographic order], bit for bit, with no `Fraction`."""
    return _quotients(system._table[tuple(u)].ravel(), system._den)


def float_marginals(system, masks, u=None):
    """Float marginals of each region subset in `masks` at every setting vector of it.

    Maps a subset mask to a list whose row j, for the j-th settings of its
    regions in lexicographic order, is [float(p) for p in
    system.outcome_marginal(regions, settings)], bit for bit with no
    `Fraction`: one reduction per mask, over the table with the dropped
    regions' settings pinned at 0.  Given a setting vector (indices) `u`,
    only u's row is read: the kept settings are pinned at u too, and each
    mask maps to `{j: row}` for u's row j alone.
    """
    n, K = system.n, system.num_settings
    keep = [slice(None)] * n if u is None else [slice(s, s + 1) for s in u]
    rows = {}
    for mask in masks:
        kept = [i for i in range(n) if mask >> i & 1]
        pinned = system._table[tuple(keep[i] if mask >> i & 1 else slice(1) for i in range(n))]
        sums = _kept_sums(pinned, kept)[:, 0]
        flat = _quotients(sums, system._den)
        width = 1 << len(kept)
        if u is None:
            rows[mask] = [flat[j:j + width] for j in range(0, len(flat), width)]
        else:
            rows[mask] = {sum(u[i] * K ** (len(kept) - 1 - p) for p, i in enumerate(kept)): flat}
    return rows


def float_table(system):
    """A float system's table, its read-only float64 array (None for a rational one)."""
    return system._table if system._den is None else None


def _quotients(nums, D):
    """[s / D for s in nums], each correctly rounded (see the module docstring), or the
    floats `nums` themselves when D is None."""
    if D is None:
        return nums.tolist()
    if nums.dtype == object:
        return [s / D for s in nums.tolist()]
    return (nums / D).tolist()


def _checked_labels(n, num_settings, labels):
    """The labels as a tuple of strings, or the constructor's first error about the shape."""
    if n < 1:
        raise ValidationError("need at least one region")
    if num_settings < 1:
        raise ValidationError("need at least one setting")
    labels = tuple(str(s) for s in labels)
    if len(labels) != num_settings:
        raise ValidationError(f"expected {num_settings} setting labels, got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise ValidationError("setting labels must be distinct")
    return labels


def _target_keys(n, num_settings):
    """Every target (x, u) in table order, settings outermost."""
    return ((x, u) for u in product(range(num_settings), repeat=n)
            for x in product((0, 1), repeat=n))


def _in_target_order(table, n, num_settings, kind, backend):
    """The dict table's entries in table order, or its first missing or extra target.

    An entry not of type `kind` is coerced to the backend as it is met, so
    a bad value before the first missing target is reported first.
    """
    values = []
    for x, u in _target_keys(n, num_settings):
        try:
            raw = table[(x, u)]
        except KeyError:
            raise MissingTarget(f"no entry for outcomes {x} at settings {u}") from None
        values.append(raw if type(raw) is kind else coerce(raw, backend))
    if len(table) != len(values):
        raise ValidationError("table has entries outside the target set")
    return values


def _check_floats(p):
    """Raise a float64 table's first non-finite entry, else its first negative one, else its
    first setting column whose sum, left to right from 0, is not within EPS_NUM of 1."""
    n, flat = p.ndim // 2, p.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        i = int(finite.argmin())
        site = [int(c) for c in np.unravel_index(i, p.shape)]
        entry = {"x": site[n:], "u": site[:n], "p": float(flat[i])}
        raise ValidationError(f"bad table entry {entry!r}: table entry must be finite, "
                              f"got {entry['p']!r}")
    negative = flat < -EPS_NUM
    if negative.any():
        i = int(negative.argmax())
        _raise_negative(p.shape, i, float(flat[i]))
    totals = _left_sums(p.reshape(-1, 2**n))
    normalised = np.abs(totals - 1) <= EPS_NUM
    if not normalised.all():
        i = int(normalised.argmin())
        u = tuple(int(c) for c in np.unravel_index(i, p.shape[:n]))
        raise NormalizationViolation(u, float(totals[i]))


def _checked_view(nums, dens, shape):
    """(N, D) of the entries nums[i] / dens[i] in table order, or the constructor's first error.

    D is the least common denominator of the values, whose positive
    denominators need not be in lowest terms.  Negative entries are found
    before unnormalised setting columns, each at its first site in table
    order.  N is int64 when D < 2**53 and a column sum of 2**n of its entries
    cannot overflow int64, else Python ints; every step runs on whole arrays of
    one dtype, chosen up front by exact bounds on the entries and D."""
    n = len(shape) // 2

    def fits(D, top):  # numerators over D, none past `top` in magnitude, held as int64
        return D < 2**53 and top << n < 2**63
    try:
        nums, dens = np.asarray(nums, dtype=np.int64), np.asarray(dens, dtype=np.int64)
    except OverflowError:
        nums, dens = (np.array(list(map(int, v)), dtype=object) for v in (nums, dens))
    distinct = np.unique(dens).tolist()
    D = math.lcm(*distinct)
    narrow = fits(D, max(int(nums.max()), -int(nums.min())) * (D // distinct[0]))
    if not narrow:
        nums, dens = nums.astype(object), dens.astype(object)
    if len(distinct) > 1:
        nums = nums * (D // dens)
    g = math.gcd(D, int(np.gcd.reduce(nums)))
    if g > 1:
        D //= g
        nums = nums // g
    if not narrow and fits(D, max(nums.max(), -nums.min())):
        nums = nums.astype(np.int64)
    negative = np.flatnonzero(nums < 0)
    if negative.size:
        _raise_negative(shape, negative[0], Fraction(int(nums[negative[0]]), D))
    totals = nums.reshape(-1, 2**n).sum(axis=1)
    bad = np.flatnonzero(totals != D)
    if bad.size:
        u = np.unravel_index(bad[0], shape[:n])
        raise NormalizationViolation(tuple(int(i) for i in u), Fraction(int(totals[bad[0]]), D))
    return nums.reshape(shape), D


def _raise_negative(shape, index, value):
    site = tuple(int(i) for i in np.unravel_index(index, shape))
    n = len(shape) // 2
    raise NegativeProbability(f"P{site[n:]}|{site[:n]} = {value}")


def _kept_sums(table, kept):
    """Marginal over `kept` at every setting vector, as a 2-D array.

    `table` is a float system's table as float64, or a rational one's
    integer numerators; a dropped region's setting axis may be cut to its
    first setting.  Rows run over (u_kept, x_kept) and columns over the
    dropped regions' settings, both in lexicographic order.  Each entry
    sums the table over the dropped regions' outcomes, left to right from 0.
    """
    n = table.ndim // 2
    dropped = [i for i in range(n) if i not in kept]
    axes = [*kept, *(n + i for i in kept), *dropped, *(n + i for i in dropped)]
    k, d = len(kept), len(dropped)
    blocks = table.transpose(axes)
    return _left_sums(blocks.reshape(math.prod(blocks.shape[:2 * k]), -1, 2**d))


def _left_sums(blocks):
    """Sums over the last axis, left to right from 0: one reduce for integers, one
    vector add per entry for float64 (np.add.reduce sums 8 or more floats pairwise)."""
    if blocks.dtype != np.float64:
        return np.add.reduce(blocks, axis=-1, initial=0)
    sums = np.zeros(blocks.shape[:-1])
    for j in range(blocks.shape[-1]):
        sums += blocks[..., j]
    return sums


def _deviations(sums, denominator):
    """|sum - sum at dropped settings 0| as floats, one per entry of `sums`.

    Integer sums are numerators over `denominator` (None for float sums);
    each deviation is then one integer division, the correctly rounded
    float of the exact value.
    """
    spread = np.abs(sums - sums[:, :1])
    if denominator is not None:
        spread = spread / denominator
    return spread.astype(float)


def is_locally_consistent(system):
    """Check complete local consistency and report the worst violation.

    Every marginal over every nonempty proper subset of regions must be
    independent of the dropped regions' settings.  Rational systems must
    satisfy this exactly, checked on the integer view; float systems within
    EPS_NUM.  The worst site is the first maximal deviation in (subset
    mask, u_kept, x_kept, u_drop) order.  The report is kept on the system.

    Exactly, the n single-drop marginals decide it: if dropping any one
    region leaves a marginal independent of that region's setting, every
    smaller marginal follows by dropping regions one at a time.  A rational
    system checks them by one gather up to GATHER_CELLS cells, and scans
    all 2^n - 2 subsets (`_consistency_scan`) only when one fails, to find
    its worst site.
    """
    if system._consistency is None:
        if system.backend == RATIONAL and _single_drops_hold(system._table):
            system._consistency = ConsistencyReport(True, 0.0, None)
        else:
            system._consistency = _consistency_scan(system)
    return system._consistency


def _single_drops_hold(N):
    """Whether, for each region i, the sum of the numerators N over x_i is constant in u_i:
    by one gather of `_drop_layout` up to GATHER_CELLS cells, else one reduce per region."""
    n = N.ndim // 2
    if N.size <= GATHER_CELLS:
        G = N.ravel()[_drop_layout(n, N.shape[0])]
        return not (G[0] + G[1] - G[2] - G[3]).any()
    for i in range(n):
        sums = N.sum(axis=n + i)
        if not (sums == sums.take([0], axis=i)).all():
            return False
    return True


@functools.lru_cache(maxsize=16)
def _drop_layout(n, K):
    """Flat int32 indices into an n-region table, shape (4, checks): for each region i and
    setting k >= 1, the cells x_i = 0 and x_i = 1 at u_i = k, then the same two at u_i = 0,
    the other regions' settings and outcomes in table order."""
    sites = np.arange(K**n * 2**n, dtype=np.int32).reshape((K,) * n + (2,) * n)
    parts = [np.moveaxis(sites, (i, n + i), (0, 1)).reshape(K, 2, -1) for i in range(n)]
    layout = np.stack([np.concatenate([p[1:], p[[0] * (K - 1)]], axis=1) for p in parts])
    layout = np.moveaxis(layout, 2, 0).reshape(4, -1)
    layout.flags.writeable = False  # shared by every caller
    return layout


def _consistency_scan(system):
    """The report of `is_locally_consistent` from every proper subset of regions."""
    tol = 0 if system.backend == RATIONAL else EPS_NUM
    n, K = system.n, system.num_settings
    worst = 0.0
    worst_site = None

    for kept_mask in range(1, (1 << n) - 1):
        kept = tuple(i for i in range(n) if kept_mask >> i & 1)
        dev = _deviations(_kept_sums(system._table, kept), system._den)
        i = int(dev.argmax())
        if dev.flat[i] > worst:
            worst = float(dev.flat[i])
            k = len(kept)
            site = [int(c) for c in np.unravel_index(i, (K,) * k + (2,) * k + (K,) * (n - k))]
            worst_site = (kept, tuple(site[k:2 * k]), tuple(site[:k]), tuple(site[2 * k:]))
    return ConsistencyReport(worst <= tol, worst, worst_site)


def marginal(system, kept_regions):
    """The marginal `ProbabilitySystem` over `kept_regions`, dropping the rest.

    Requires the dropped regions' settings to be irrelevant; the result is
    computed with dropped settings pinned to 0 after verifying that choice
    does not matter.  Keeping every region returns `system` itself.
    """
    kept = tuple(sorted(set(kept_regions)))
    if not kept:
        raise ValidationError("kept_regions must be nonempty")
    if any(i < 0 or i >= system.n for i in kept):
        raise ValidationError(f"kept_regions {kept} out of range for n={system.n}")
    if len(kept) == system.n:
        return system

    n, K, D = system.n, system.num_settings, system._den
    sums = _kept_sums(system._table, kept)
    spread = _deviations(sums, D).max(axis=1)
    bad = np.flatnonzero(spread > (EPS_NUM if D is None else 0))
    if bad.size:
        dropped = [i for i in range(n) if i not in kept]
        raise InconsistentMarginal(dropped, float(spread[bad[0]]))

    k = len(kept)
    cells = sums[:, 0].reshape((K,) * k + (2,) * k)
    inner = ProbabilitySystem._from_view(system.labels, cells, D)
    if D is not None and system._consistency:  # an exactly consistent system's marginal is too
        inner._consistency = system._consistency
    return inner


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

    The product of the regions' marginals is taken in region order, as a
    loop over the regions multiplies it.  A rational system compares N *
    D**(n-1) with the product of the marginal numerators, in Python ints; a
    float one compares its table with the product of its marginals, each
    summed left to right from 0, within the tolerance.
    """
    if not is_locally_consistent(system):
        return False
    n, K = system.n, system.num_settings
    table, D = system._table, system._den
    factors = [_kept_sums(table, (i,))[:, 0].reshape(K, 2) for i in range(n)]
    if D is not None:
        factors = [f.astype(object) for f in factors]
    product = functools.reduce(np.multiply.outer, factors)
    product = product.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)])
    if D is None:
        return bool((np.abs(table - product) <= EPS_NUM).all())
    return bool((product == table.astype(object) * D ** (n - 1)).all())


def condition(system, region, setting, outcome):
    """Condition on one region's observed outcome at one setting.

    Returns the renormalized `ProbabilitySystem` over the remaining regions;
    multiplying it back by the observed region's marginal reconstructs the
    parent slice.  The mass M is the sum of the slice's column at the other
    regions' settings 0, left to right from 0.  A rational slice keeps its
    integer numerators over M, so each setting column needs only one integer
    compare with M; a column that misses M (the parent signals) fails as the
    renormalised slice always did.  A float slice is scaled by 1.0 / M.
    """
    n, K = system.n, system.num_settings
    if not 0 <= region < n:
        raise ValidationError(f"region {region} out of range")
    if n < 2:
        raise WrongArity("conditioning needs at least two regions")
    setting = system.setting_index(setting)
    if outcome not in (0, 1):
        raise ValidationError(f"outcome must be 0 or 1, got {outcome}")

    D = system._den
    cells = system._table.take(setting, axis=region).take(outcome, axis=n - 1 + region)
    totals = _left_sums(cells.reshape(-1, 2 ** (n - 1)))
    mass = totals.item(0)
    if mass <= 0 or D is None and is_close(mass, 0, FLOAT):
        raise ZeroProbabilityBranch(f"Pr(x_{region}={outcome} | setting {setting}) = "
                                    f"{mass if D is None else Fraction(mass, D)}")
    if D is None:
        return ProbabilitySystem._from_view(system.labels, cells * (1.0 / mass), None)
    bad = np.flatnonzero(totals != mass)
    if bad.size:
        u = np.unravel_index(bad[0], (K,) * (n - 1))
        raise NormalizationViolation(tuple(int(i) for i in u), Fraction(int(totals[bad[0]]), mass))
    return ProbabilitySystem._from_view(system.labels, cells, mass)


@functools.lru_cache(maxsize=16)
def _branch_layout(n, K):
    """Flat indices into an n-region table of each branch's conditioned slice, in
    (region, setting, outcome) order, its cells in table order: its first
    2^(n-1) are the cells its region marginal sums, at the other regions'
    settings 0 with their outcomes in lexicographic order."""
    sites = np.arange(K**n * 2**n).reshape((K,) * n + (2,) * n)
    slices = []
    for r in range(n):
        rest = [i for i in range(n) if i != r]
        slices.append(sites.transpose(r, n + r, *rest, *(n + i for i in rest)).reshape(2 * K, -1))
    slices = np.concatenate(slices)
    slices.flags.writeable = False  # shared by every caller
    return slices


def float_branches(tables):
    """Every branch `branches` takes of each float64 table stacked in `tables`.

    Branches run in (table, region, setting, outcome) order, and each takes
    `condition`'s float operations: the region marginal summed left to
    right from 0 at the other regions' settings 0, the branch dropped when
    that mass is close to 0 or not positive, and the slice scaled by 1.0 /
    mass.  Returns the conditioned tables and each one's index into that
    order, or None when a slice fails the constructor's float check, where
    `condition` would raise.
    """
    n, K = (tables.ndim - 1) // 2, tables.shape[1]
    slice_sites = _branch_layout(n, K)
    kids = tables.reshape(len(tables), -1)[:, slice_sites].reshape(-1, slice_sites.shape[1])
    mass = _left_sums(kids[:, :2 ** (n - 1)])
    live = np.flatnonzero((np.abs(mass) > EPS_NUM) & (mass > 0))
    kids = kids[live]
    kids *= (1.0 / mass[live])[:, None]
    kids = kids.reshape(len(live), K ** (n - 1), 2 ** (n - 1))
    if (not np.isfinite(kids).all() or (kids < -EPS_NUM).any()
            or not (np.abs(_left_sums(kids) - 1) <= EPS_NUM).all()):
        return None
    return kids.reshape(-1, *(K,) * (n - 1), *(2,) * (n - 1)), live


def branches(system, region):
    """(setting, outcome, `condition`'s system) for each branch of one region.

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
    """Independent product of one-region systems (helper for tests/catalog).

    Each entry multiplies the factors' values left to right.
    """
    if not factors:
        raise ValidationError("need at least one factor")
    K = factors[0].num_settings
    if any(f.n != 1 or f.num_settings != K for f in factors):
        raise ValidationError("factors must be one-region systems sharing K")
    labels = labels or factors[0].labels
    n = len(factors)
    table = {}
    for x, u in _target_keys(n, K):
        p = factors[0].prob(x[:1], u[:1])
        for i in range(1, n):
            p = p * factors[i].prob(x[i:i + 1], u[i:i + 1])
        table[(x, u)] = p
    return ProbabilitySystem(n, K, labels, table)
