"""The integer view's whole-array steps against the Python loops they replaced.

`model._checked_view` builds (N, D) in a few array steps of one dtype, and
`model._single_drops_hold` checks the single drops of a table of at most
`model.GATHER_CELLS` cells by one gather; `reference_model` keeps the loops,
and every answer, dtype and error text must be theirs.
"""

import json
import random
from fractions import Fraction as F

import numpy as np
import pytest

import reference_model as ref
from gaugesim import model
from gaugesim.errors import GaugeSimError
from gaugesim.model import GATHER_CELLS, ProbabilitySystem, integer_view

# -- single drops: one gather against the per-region reduce -------------------


def _consistent(gen, n, K, components=2, total=7):
    """A sum of product tables whose factors are (a, total - a) per region and
    setting, with a in [0, total]: every single drop holds."""
    N = np.zeros((K,) * n + (2,) * n, dtype=np.int64)
    for _ in range(components):
        term = np.ones_like(N)
        for i in range(n):
            a = gen.integers(0, total + 1, K)
            shape = [1] * (2 * n)
            shape[i], shape[n + i] = K, 2
            term = term * np.stack([a, total - a], axis=1).reshape(shape)
        N += term
    return N


def _variants(gen, N):
    """The table, the table with one cell raised by one, and the table with one unit
    moved between two cells that differ in one region's outcome; each as int64
    and as Python ints of at least 2**62."""
    n = N.ndim // 2
    raised, moved = N.copy(), N.copy()
    site = tuple(int(gen.integers(0, s)) for s in N.shape)
    raised[site] += 1
    r = int(gen.integers(0, n))
    partner = list(site)
    partner[n + r] = 1 - site[n + r]
    moved[site] += 1
    moved[tuple(partner)] -= 1
    tables = {"consistent": N, "raised": raised, "moved": moved}
    return [(f"{name}-{kind}", table if kind == "int64" else table.astype(object) + 2**62)
            for name, table in tables.items() for kind in ("int64", "object")]


@pytest.mark.parametrize("n", range(1, GATHER_CELLS.bit_length()))
def test_the_gather_is_the_per_region_reduce(n):
    """Every (n, K) under the cap, but at n = 1, whose K runs to GATHER_CELLS / 2,
    only K up to 64 and the two largest."""
    gen = np.random.default_rng(n)
    sizes = [K for K in range(1, GATHER_CELLS + 1) if (2 * K) ** n <= GATHER_CELLS]
    assert sizes and (2 * (sizes[-1] + 1)) ** n > GATHER_CELLS
    if n == 1:
        sizes = sizes[:64] + sizes[-2:]
    for K in sizes:
        layout = model._drop_layout(n, K)
        assert layout.dtype == np.int32 and not layout.flags.writeable
        assert layout.shape == (4, n * (K - 1) * K ** (n - 1) * 2 ** (n - 1))
        assert layout.nbytes < 2**20
        for name, N in _variants(gen, _consistent(gen, n, K)):
            want = ref.single_drops_hold(N)
            assert model._single_drops_hold(N) == want, (K, name)
            if name.startswith("consistent") or K == 1:
                assert want
            elif name.startswith("raised"):
                assert not want


@pytest.mark.parametrize("n,K", [(3, 13), (5, 4)])
def test_a_table_past_the_cap_is_reduced_region_by_region(monkeypatch, n, K):
    gen = np.random.default_rng(100 * n + K)
    N = _consistent(gen, n, K)
    assert N.size > GATHER_CELLS
    monkeypatch.setattr(model, "_drop_layout", None)  # a gather past the cap fails here
    for name, table in _variants(gen, N):
        assert model._single_drops_hold(table) == ref.single_drops_hold(table), name


# -- the integer view: whole arrays against one Python int at a time ----------


def _held(N, D):
    """dtype, shape, cells, cell types and D of a view."""
    cells = N.ravel()
    return N.dtype, N.shape, cells.tolist(), {type(c) for c in cells}, D, type(D)


def _view_outcome(checked_view, nums, dens, shape):
    """The view `checked_view` builds, or its error's type and text."""
    try:
        return _held(*checked_view(nums, dens, shape))
    except GaugeSimError as exc:
        return type(exc), str(exc)


def _split(rng, D, parts):
    """`parts` nonnegative integers summing to D."""
    cuts = sorted(rng.randrange(D + 1) for _ in range(parts - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, D])]


def _over(rng, D, n, K):
    """Entries a / D of a valid table, each written as (a, D), reduced, or scaled by c."""
    entries = []
    for _u in range(K**n):
        for a in _split(rng, D, 2**n):
            form = rng.randrange(3)
            if form == 1:
                q = F(a, D)
                a, d = q.numerator, q.denominator
            else:
                c = rng.choice((1, 2, 3, 2**40)) if form == 2 else 1
                a, d = a * c, D * c
            entries.append((a, d))
    return entries


def _many_denominators(rng, n, K):
    """A valid table whose entries have many distinct denominators."""
    entries = []
    for _u in range(K**n):
        rest = F(1)
        for _x in range(2**n - 1):
            q = rng.randint(2, 40)
            p = rest * F(rng.randint(0, q), q)
            entries.append(p)
            rest -= p
        entries.append(rest)
    return [(p.numerator, p.denominator) for p in entries]


def _broken(rng, entries):
    """The entries with one negative cell, and with one unnormalised column."""
    negative, unnormalised = list(entries), list(entries)
    i = rng.randrange(len(entries))
    a, d = negative[i]
    negative[i] = (-a - d, d)
    j = rng.randrange(len(entries))
    a, d = unnormalised[j]
    unnormalised[j] = (a + 1, d)
    return [negative, unnormalised]


def _view_cases():
    rng = random.Random(20261020)
    cases = []
    for n, K in ((1, 1), (1, 3), (2, 2), (3, 2), (2, 3)):
        for D in (96, 2**53 - 1, 2**53, 2**53 + 1, 2**62 - 1, 2**62 + 1, 2**63 + 1):
            valid = _over(rng, D, n, K)
            cases.append((f"n{n}-K{K}-D{D}", n, K, valid))
            cases += [(f"n{n}-K{K}-D{D}-{kind}", n, K, entries)
                      for kind, entries in zip(("negative", "unnormalised"),
                                               _broken(rng, valid))]
        valid = _many_denominators(rng, n, K)
        cases.append((f"n{n}-K{K}-many-denominators", n, K, valid))
        cases += [(f"n{n}-K{K}-many-denominators-{kind}", n, K, entries)
                  for kind, entries in zip(("negative", "unnormalised"), _broken(rng, valid))]
    # entries near 2**62 and 2**63 over small denominators: the column-sum bound
    for n, top in ((1, 2**62), (1, 2**63 - 1), (1, 2**63), (2, 2**61), (2, 2**61 - 1),
                   (3, 2**60 - 1), (1, 2**62 - 1)):
        for last in (1, 0, -1):
            column = [top] + [0] * (2**n - 2) + [last]
            cases.append((f"n{n}-top{top}-last{last}", n, 1, [(a, 1) for a in column]))
            cases.append((f"n{n}-top{top}-last{last}-over2", n, 1, [(2 * a, 2) for a in column]))
    # a numerator over 1 beside a denominator of 2**31: scaled past int64 from 2**32 on
    for top in (2**31, 2**32, 2**40, 2**62):
        cases.append((f"top{top}-scaled", 1, 1, [(top, 1), (1, 2**31)]))
    return cases


VIEW_CASES = _view_cases()


@pytest.mark.parametrize("name,n,K,entries", VIEW_CASES, ids=[c[0] for c in VIEW_CASES])
def test_the_view_is_the_python_int_view(name, n, K, entries):
    """Python ints, numpy int64 scalars, tuples and the int64 column views the
    file scanner hands over all give the reference's view or error, byte for byte."""
    shape = (K,) * n + (2,) * n
    nums, dens = [a for a, _d in entries], [d for _a, d in entries]
    want = _view_outcome(ref.checked_view, nums, dens, shape)
    forms = [(nums, dens), (tuple(nums), tuple(dens))]
    if all(-2**63 <= v < 2**63 for v in nums + dens):
        forms.append(([np.int64(a) for a in nums], [np.int64(d) for d in dens]))
        interleaved = np.array([v for pair in zip(nums, dens) for v in pair], dtype=np.int64)
        forms.append((interleaved[0::2], interleaved[1::2]))
    for got_nums, got_dens in forms:
        assert _view_outcome(model._checked_view, got_nums, got_dens, shape) == want
    if name.endswith("negative") or name.endswith("unnormalised"):
        assert isinstance(want[1], str)


def test_the_view_keeps_the_dtype_rule_at_its_edges():
    """int64 just below D = 2**53 and a column bound of 2**63, Python ints at them."""
    def dtype(nums, dens, n):
        return model._checked_view(nums, dens, (1,) * n + (2,) * n)[0].dtype
    assert dtype([1, 2**53 - 2], [2**53 - 1] * 2, 1) == np.int64
    assert dtype([1, 2**53 - 1], [2**53] * 2, 1) == object
    assert dtype([1, 2**53], [2**53 + 1] * 2, 1) == object
    # a valid column can reach the bound only past ten regions: 2**n entries of
    # up to 2**53 - 2 may sum past int64 at n = 11
    for n, want in ((10, np.int64), (11, object)):
        nums = [2**53 - 2, 1] + [0] * (2**n - 2)
        assert dtype(nums, [2**53 - 1] * 2**n, n) == want
    # unreduced entries past int64 that reduce to an int64 view are held as int64
    assert dtype([2**70, 2**70], [2**71] * 2, 1) == np.int64


# -- the file scanner's Python-int fallback -----------------------------------


def _file(entries):
    data = {"n": 1, "k": 1, "labels": ["t0"], "scalar": "rational",
            "table": [{"x": [x], "u": [0], "p": p} for x, p in zip((0, 1), entries)]}
    return data, json.dumps(data, separators=(",", ":"))


def _load_outcome(load, source):
    try:
        return _held(*integer_view(load(source)))
    except GaugeSimError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("entries", [
    [f"{10**24 + 7}/{2 * 10**24 + 14}"] * 2,  # 25 digits, reduced to 1/2: int64
    [f"{10**24 + 7}/{10**25}", f"{9 * 10**24 - 7}/{10**25}"],  # D = 10**25: Python ints
    [f"{10**24 + 7}/{10**25}", f"{9 * 10**24 - 6}/{10**25}"],  # a column past 1
])
def test_a_file_past_int64_is_scanned_as_from_dict_reads_it(entries):
    data, text = _file(entries)
    want = _load_outcome(ProbabilitySystem.from_dict, data)
    assert _load_outcome(model._scan_system, text) == want
    nums, dens = zip(*(map(int, p.split("/")) for p in entries))
    assert want == _view_outcome(ref.checked_view, nums, dens, (1, 2))
