"""Inequality tests and entropy measures for probability systems.

All entropies are in bits with the 0*log(0) = 0 convention.  Bipartite
mutual information equals the Kullback-Leibler divergence from the product
of the two single-region marginals; its multivariate extension is the
signed measure of the full intersection atom of the information diagram.

`classify` and the conditioned CHSH read every reachable two-region pair
from batched arrays: a consistent rational system's pairs in gathers of its
integer numerators, a float system's conditioned depth by depth with the
walk's own float operations (`model.float_branches`).  The walk through
`condition`, one system per branch, runs only for n < 2, a signalling
rational system and a float system with a slice that fails its check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from .errors import ValidationError, WrongArity
from .model import (
    branches,
    float_branches,
    float_column,
    float_marginals,
    float_table,
    integer_view,
    is_locally_consistent,
    is_separable,
    marginal,
)
from .scalars import EPS_NUM, RATIONAL

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

# Threshold below which an entanglement entropy counts as zero in scheme
# flags; nonzero values of interest are all >= 0.09 bits.
EPS_ENT = 1e-9

# Cap on the information-diagram size: 2^n - 1 atoms stay cheap up to here.
MAX_DIAGRAM_REGIONS = 12

# Float pair tables are built a group of first-step subtrees at a time, the
# group's pair cells at most this many (or one subtree): 0.5 MB of float64.
FLOAT_PAIR_CELLS = 1 << 16

# Rational pair tables past this many cells are gathered a group of first step codes at a time.
RATIONAL_PAIR_CELLS = 1 << 18

UNIFORM = "uniform"
MIXED = "mixed"


def _require_bipartite(system, what):
    if system.n != 2:
        raise WrongArity(f"{what} is defined for 2 regions, got {system.n}")


def _entropy(probs):
    """Shannon entropy (bits) of a list of floats, summed left to right."""
    return sum([0.0 if p <= 0.0 else -p * math.log2(p) for p in probs])


def hamming_divergence(system, u0, u1):
    """Expected Hamming distance between the two regions' outcomes."""
    _require_bipartite(system, "Hamming divergence")
    u = (system.setting_index(u0), system.setting_index(u1))
    _p00, p01, p10, _p11 = float_column(system, u)
    return p10 + p01


def bell_triangle_slack(system, t0, t1, t2):
    """Slack of the three-setting triangle inequality; negative = violation."""
    _require_bipartite(system, "triangle inequality")
    return (
        hamming_divergence(system, t0, t1)
        + hamming_divergence(system, t1, t2)
        - hamming_divergence(system, t0, t2)
    )


def spin_correlation(system, u0, u1, convention=UNIFORM):
    """E[s0*s1] at one setting pair under the chosen spin convention."""
    _require_bipartite(system, "spin correlation")
    u = (system.setting_index(u0), system.setting_index(u1))
    total = 0.0
    for (x0, x1), p in zip(product((0, 1), repeat=2), float_column(system, u)):
        s1 = (1 - 2 * x1) if convention == MIXED else (2 * x1 - 1)
        total += (2 * x0 - 1) * s1 * p
    return total


@dataclass(frozen=True)
class ChshResult:
    value: float
    settings: tuple  # (A, A', B, B')
    signed: float

    @property
    def classical_violation(self):
        return self.value > 2.0 + EPS_NUM

    @property
    def tsirelson_violation(self):
        return self.value > TSIRELSON_BOUND + EPS_NUM

    def __float__(self):
        return self.value


def chsh(system, a, a_prime, b, b_prime, convention=UNIFORM):
    """|E(A,B) + E(A',B) + E(A,B') - E(A',B')| with exceedance flags."""
    _require_bipartite(system, "CHSH")
    A = system.setting_index(a)
    Ap = system.setting_index(a_prime)
    B = system.setting_index(b)
    Bp = system.setting_index(b_prime)
    signed = (
        spin_correlation(system, A, B, convention)
        + spin_correlation(system, Ap, B, convention)
        + spin_correlation(system, A, Bp, convention)
        - spin_correlation(system, Ap, Bp, convention)
    )
    return ChshResult(abs(signed), (A, Ap, B, Bp), signed)


@functools.cache
def _chsh_tuples(K):
    """Every (A, A', B, B') with A != A' and B != B', in `permutations` order,
    A and A' outermost, as a tuple and as four index arrays."""
    pairs = list(permutations(range(K), 2))
    tuples = tuple((A, Ap, B, Bp) for A, Ap in pairs for B, Bp in pairs)
    return tuples, *np.array(tuples).T


def _chsh_search(corr):
    """Best CHSH tuple for each K x K correlator matrix in `corr`.

    Each signed value folds left to right as in `chsh`, and the first tuple
    of largest magnitude wins.  Returns the best signed values and tuple
    indices, one per leading index of `corr`, and the tuples.
    """
    K = corr.shape[-1]
    if K < 2:
        raise WrongArity("CHSH search needs at least two settings")
    tuples, A, Ap, B, Bp = _chsh_tuples(K)
    signed = corr[..., A, B] + corr[..., Ap, B] + corr[..., A, Bp] - corr[..., Ap, Bp]
    best = np.abs(signed).argmax(axis=-1)
    flat = signed.reshape(-1, len(tuples))
    return flat[np.arange(len(flat)), best.ravel()].reshape(best.shape), best, tuples


def chsh_max(system, convention=UNIFORM):
    """Exhaustive best CHSH value over all K^4 tuples with A != A', B != B'."""
    _require_bipartite(system, "CHSH")
    K = system.num_settings
    corr = np.array([[spin_correlation(system, p, q, convention) for q in range(K)]
                     for p in range(K)])
    signed, best, tuples = _chsh_search(corr)
    return ChshResult(abs(float(signed)), tuples[best], float(signed))


def measurement_entropy(system, regions=None, settings=None):
    """Shannon entropy (bits) of the outcome distribution of a region subset.

    `settings` gives one setting per kept region; proper subsets require
    complete local consistency of the parent.
    """
    regions = tuple(range(system.n) if regions is None else regions)
    # each setting stays with its region when the regions are put in order
    chosen = (dict.fromkeys(regions, 0) if settings is None
              else dict(zip(regions, settings, strict=True)))
    if len(chosen) != len(regions):
        raise ValueError(f"regions {regions} name a region twice")
    sub = marginal(system, chosen)
    u = tuple(sub.setting_index(chosen[r]) for r in sorted(chosen))
    return _entropy(float_column(sub, u))


def _relative_entropy(rows, u, K):
    """`relative_entropy_to_product` at u, off each region's and the whole table's rows."""
    n = len(u)
    marginals = [rows[1 << i][s] for i, s in enumerate(u)]
    column = rows[(1 << n) - 1][functools.reduce(lambda j, s: j * K + s, u, 0)]
    total = 0.0
    # `product` of the marginal rows runs over the outcome vectors in order
    for p, factors in zip(column, product(*marginals)):
        if p <= 0.0:
            continue
        q = math.prod(factors)  # left to right, as a loop from 1 would
        # q = 0 with p > 0 cannot happen against a system's own marginals.
        assert q > 0.0, "product distribution vanished on a positive target"
        total += p * math.log2(p / q)
    return total


def relative_entropy_to_product(system, u):
    """KL divergence (bits) of P(.|u) from the product of its own marginals."""
    n, u = system.n, system.setting_indices(u)
    rows = float_marginals(system, [*(1 << i for i in range(n)), (1 << n) - 1], u)
    return _relative_entropy(rows, u, system.num_settings)


def s2(system, u0, u1):
    """Bipartite entanglement entropy (mutual information) at one setting pair."""
    _require_bipartite(system, "bipartite entanglement entropy")
    return relative_entropy_to_product(system, (u0, u1))


def s2_matrix(system):
    """K x K matrix of bipartite entanglement entropies."""
    _require_bipartite(system, "entropy matrix")
    K, rows = system.num_settings, float_marginals(system, (1, 2, 3))
    return [[_relative_entropy(rows, (a, b), K) for b in range(K)] for a in range(K)]


@dataclass
class InformationDiagram:
    """Signed measures over the 2^n - 1 atoms of the n-party diagram.

    Atom masks are region subsets; `atom(mask)` is the measure of the
    intersection of the masked regions minus the union of the others.
    """

    n: int
    settings: tuple
    joint_entropies: dict  # subset mask -> I(subset), bits
    atoms: dict  # atom mask -> signed measure, bits
    total_entanglement: float  # KL divergence from the product of the marginals, bits

    def atom(self, mask):
        return self.atoms[mask]

    def reconstruct(self, subset_mask):
        """Sum of atoms covered by the union of the subset's regions."""
        return sum(m for mask, m in self.atoms.items() if mask & subset_mask)


@functools.lru_cache(maxsize=16)
def _diagram_layout(n, K):
    """The inclusion matrix (whether subset alpha meets atom m) and the
    weights (row i, column mask - 1) of region i's setting in a mask's row."""
    masks = np.arange(1, 1 << n)
    bits = masks >> np.arange(n)[:, None] & 1  # row i: which masks keep region i
    weights = bits * K ** (bits[::-1].cumsum(axis=0)[::-1] - bits)  # K^(kept regions after i)
    inclusion = (masks[:, None] & masks != 0).astype(float)
    inclusion.flags.writeable = weights.flags.writeable = False  # shared by every caller
    return inclusion, weights


def _solve_atoms(system, u=None):
    """(setting vectors, `float_marginals` rows, joint entropies, atoms), a row
    per setting vector with one stacked solve: every vector, or u alone,
    reading only its own rows."""
    n, K = system.n, system.num_settings
    if n > MAX_DIAGRAM_REGIONS:
        raise WrongArity(f"information diagram capped at {MAX_DIAGRAM_REGIONS} regions")
    if not is_locally_consistent(system):
        raise ValidationError("diagram requires complete local consistency")
    vectors = list(system.setting_vectors()) if u is None else [system.setting_indices(u)]
    masks = range(1, 1 << n)
    rows = float_marginals(system, masks, None if u is None else vectors[0])
    inclusion, weights = _diagram_layout(n, K)
    # each vector's row of each mask: its kept settings read in base K
    index = (np.array(vectors, dtype=np.intp).reshape(len(vectors), n) @ weights).tolist()
    entropy = functools.cache(lambda mask, j: _entropy(rows[mask][j]))
    joint = [[entropy(mask, j) for mask, j in zip(masks, row)] for row in index]
    # b as (vectors, 2^n - 1, 1): a stack of one-column systems on NumPy 1.x and 2.x alike
    atoms = np.linalg.solve(inclusion, np.array(joint)[:, :, None])[:, :, 0]
    return vectors, rows, joint, atoms.tolist()


def _diagrams(system, u=None):
    """The information diagram at every setting vector, or at u alone."""
    vectors, rows, joint, atoms = _solve_atoms(system, u)
    masks = range(1, 1 << system.n)
    return [InformationDiagram(system.n, u, dict(zip(masks, b)), dict(zip(masks, x)),
                               _relative_entropy(rows, u, system.num_settings))
            for u, b, x in zip(vectors, joint, atoms)]


def atom_measures(system, u):
    """Solve the inclusion-exclusion system for all diagram atoms at u."""
    return _diagrams(system, u)[0]


def s_n(system, u):
    """n-partite entanglement entropy: measure of the full intersection atom."""
    return atom_measures(system, u).atom((1 << system.n) - 1)


def total_entanglement(system, u):
    """Relative entropy of P(.|u) from the full product of its marginals."""
    if not is_locally_consistent(system):
        raise ValidationError("total entanglement requires local consistency")
    return relative_entropy_to_product(system, u)


@dataclass(frozen=True)
class EntanglementScheme:
    """Counts of entangled subsets by size, plus the total-entanglement profile."""

    flags: tuple  # (e_2, ..., e_n)
    degree: int
    max_total_entanglement: float
    maximally_entangled: bool

    def as_dict(self):
        return {
            "flags": list(self.flags),
            "degree": self.degree,
            "max_total_entanglement": self.max_total_entanglement,
            "maximally_entangled": self.maximally_entangled,
        }


def entanglement_scheme(system, diagrams=None):
    """e_m = number of m-region subsets showing m-partite entropy somewhere.

    `diagrams` are the system's own `_diagrams` (computed if not given).  A
    rational subset's marginals are the whole table's sums, the same integers
    over D, so its joint entropies are gathered from `diagrams` at setting
    vectors extending its own (Yeung, IEEE Trans. IT 37, 466, 1991) and solved
    at once.  A float subset is built by `marginal`: its sums run in another order."""
    n, K = system.n, system.num_settings
    if not is_locally_consistent(system):
        raise ValidationError("entanglement scheme requires local consistency")

    if diagrams is None:
        diagrams = _diagrams(system)
    elif [d.settings for d in diagrams] != list(system.setting_vectors()):
        raise ValueError("diagrams must hold every setting vector of the system, in order")
    joint = (np.array([list(d.joint_entropies.values()) for d in diagrams])
             if system.backend == RATIONAL else None)

    def top_atoms(combo):  # the subset's top atom at every setting vector of it
        if len(combo) == n:
            return [d.atom((1 << n) - 1) for d in diagrams]
        if joint is None:
            return [x[-1] for x in _solve_atoms(marginal(system, combo))[3]]
        m, bits = len(combo), np.array([1 << i for i in combo])
        masks = (np.arange(1, 1 << m)[:, None] >> np.arange(m) & 1) @ bits  # its sub-masks
        rows = np.indices((K,) * m).reshape(m, -1).T @ K ** (n - 1 - np.array(combo))
        b = joint[np.ix_(rows, masks - 1)][:, :, None]  # as `_solve_atoms` stacks it
        return np.linalg.solve(_diagram_layout(m, K)[0], b)[:, -1, 0].tolist()

    flags = [sum(any(abs(a) > EPS_ENT for a in top_atoms(combo))
                 for combo in combinations(range(n), m))
             for m in range(2, n + 1)]
    degree = max((m for m, count in enumerate(flags, 2) if count), default=1)
    best = max(d.total_entanglement for d in diagrams)
    return EntanglementScheme(tuple(flags), degree, best, best >= n - 1 - EPS_ENT)


SEPARABLE = "separable"
QUANTUM_COMPATIBLE = "entangled-quantum-compatible"
SUPER_QUANTUM = "super-quantum-detected"


@dataclass(frozen=True)
class Classification:
    verdict: str
    witness: tuple | None = None  # (conditioning chain, chsh result)

    def as_dict(self):
        out = {"verdict": self.verdict}
        if self.witness is not None:
            chain, result = self.witness
            out["witness"] = {
                "chain": [list(step) for step in chain],
                "chsh": result.value,
                "settings": list(result.settings),
            }
        return out


def two_region_subsystems(system):
    """(chain, 2-region system) for each distinct table reachable by collapses.

    Depth first over chains of (region, setting, positive outcome) steps,
    with regions numbered within the conditioned subsystem.
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
            for setting, outcome, branch in branches(current, region):
                stack.append((branch, chain + ((region, setting, outcome),)))


@functools.lru_cache(maxsize=16)
def _pair_layout(n, K, first=None):
    """Flat indices into N of each candidate pair table, K x K x 2 x 2, and its step codes:
    every candidate, or those whose first step code is in the range `first`.

    A candidate is a pair i < j and a (setting, outcome) for each other
    region r, coded r*2K + 2*setting + outcome in descending r; rows run in
    lexicographically descending code order, and no two share their codes.
    """
    sites = np.arange(K**n * 2**n).reshape((K,) * n + (2,) * n)
    blocks, steps = [], []
    for i, j in combinations(range(n), 2):
        others = [r for r in range(n - 1, -1, -1) if r not in (i, j)]
        axes = [a for r in others for a in (r, n + r)] + [i, j, n + i, n + j]
        m = len(others)
        codes = np.indices((2 * K,) * m).reshape(m, (2 * K)**m).T + 2 * K * np.intp(others)
        rows = slice(None) if first is None else np.isin(codes[:, 0], first)
        blocks.append(sites.transpose(axes).reshape(-1, K, K, 2, 2)[rows])
        steps.append(codes[rows])
    steps = np.concatenate(steps)
    order = np.lexsort(steps.T[::-1])[::-1] if n > 2 else np.arange(1)
    blocks, steps = np.concatenate(blocks)[order], steps[order]
    blocks.flags.writeable = steps.flags.writeable = False  # shared by every caller
    return blocks, steps


def _rational_pairs(system):
    """Step codes and float tables of the pairs a consistent rational system reaches.

    Conditioning commutes, so each is a `_pair_layout` candidate whose
    mass, summed at u_i = u_j = 0, is positive; its entries are the integer
    numerators over that mass.  The walk reaches it first by conditioning
    the other regions in descending index, which keeps their indices, and
    meets those chains in the layout's order (a table the walk yields once
    may repeat).  Past RATIONAL_PAIR_CELLS cells, they are gathered a group of
    first step codes at a time, in that order, and the layout is not kept.
    """
    (N, _D), n, K = integer_view(system), system.n, system.num_settings
    if n == 2 or 4 * K * K * math.comb(n, 2) * (2 * K) ** (n - 2) <= RATIONAL_PAIR_CELLS:
        layouts = [_pair_layout(n, K)]
    else:  # a first code's region is n - 1 (the most cells), n - 2 or n - 3
        group = max(1, RATIONAL_PAIR_CELLS // (4 * K * K * math.comb(n - 1, 2) * (2 * K)**(n - 3)))
        layouts = (_pair_layout.__wrapped__(n, K, range(stop - group, stop))
                   for stop in range(2 * K * n, 2 * K * (n - 3), -group))
    for blocks, steps in layouts:
        tables = N.ravel()[blocks]
        mass = tables[:, 0, 0].reshape(-1, 4).sum(axis=1)
        live = np.flatnonzero(mass > 0)
        if live.size:  # int64 quotients are float64 already; Python ints' are objects
            p = tables[live] / mass[live, None, None, None, None]
            yield steps[live], p.astype(float, copy=False)


def _float_pairs(system):
    """Step codes and tables of the pairs a float system reaches, in walk order,
    a group of first-step subtrees at a time, or None for a group holding a
    slice that fails the constructor's check.

    Each depth conditions every table of a group at once with
    `float_branches`, so the tables are those the walk builds, bit for bit.
    The walk pops the last branch it pushed, so it meets the chains in
    descending order, the reverse of the branches' (table, region, setting,
    outcome) order.  A group holds as many subtrees as fit FLOAT_PAIR_CELLS.
    """
    n, K = system.n, system.num_settings

    def deeper(tables, steps):  # the next depth's tables and codes, or None
        stepped = float_branches(tables)
        if stepped is None:
            return None
        width = 2 * K * ((tables.ndim - 1) // 2)  # branches of one table
        kids, live = stepped
        return kids, np.column_stack([steps[live // width], live % width])

    root = float_table(system)[None], np.empty((1, 0), dtype=np.intp)
    first = deeper(*root) if n > 2 else root
    if first is None:
        yield None
        return
    # the most pair cells one first-step subtree can reach
    cells = 4 * K * K * math.prod(2 * K * j for j in range(3, n))
    group = max(1, FLOAT_PAIR_CELLS // cells)
    for stop in range(len(first[0]), 0, -group):
        rows = slice(max(0, stop - group), stop)
        level = first[0][rows], first[1][rows]
        while level is not None and level[0].ndim > 5:  # more than two regions
            level = deeper(*level)
        if level is None:
            yield None
            return
        yield level[1][::-1], level[0][::-1]


def _walked_pairs(system):
    """Step codes and float table of each pair `two_region_subsystems` yields."""
    for chain, pair in two_region_subsystems(system):
        K = pair.num_settings
        steps = np.array([r * 2 * K + 2 * s + o for r, s, o in chain], dtype=np.intp)
        p = np.array([float_column(pair, u) for u in pair.setting_vectors()])
        yield steps[None], p.reshape(1, K, K, 2, 2)


def _first_best(chunks, bound):
    """`_chsh_witness` over the pairs in `chunks`, or None at a None chunk."""
    witness = None
    for chunk in chunks:
        if chunk is None:
            return None
        steps, p = chunk
        corr = (((0.0 + p[..., 0, 0]) - p[..., 0, 1]) - p[..., 1, 0]) + p[..., 1, 1]
        signed, best, _tuples = _chsh_search(corr)
        over = np.flatnonzero(np.abs(signed) > bound)
        i = over[0] if over.size else np.abs(signed).argmax()
        if over.size or witness is None or abs(signed[i]) > abs(witness[1]):
            witness = steps[i], float(signed[i]), int(best[i])
        if over.size:
            break
    return witness


def _chsh_witness(system, bound=math.inf):
    """(step codes, signed CHSH, best tuple index) of the walk's witness pair.

    Among the pairs in the order `two_region_subsystems` meets them, that
    is the first whose best |CHSH| is over `bound`, or else the first of
    largest |CHSH|.  A step code is region * 2K + 2 * setting + outcome,
    with regions numbered within the conditioned subsystem, and each
    correlator folds left to right as `spin_correlation` does.  The walk
    itself runs only for n < 2, for a rational system that signals, and
    for a float system with a slice that fails the constructor's check,
    where it raises or skips exactly as it always has.
    """
    rational = system.backend == RATIONAL
    if system.n < 2 or (rational and not is_locally_consistent(system)):
        chunks = [None]
    else:
        chunks = (_rational_pairs if rational else _float_pairs)(system)
    witness = _first_best(chunks, bound)
    return witness if witness is not None else _first_best(_walked_pairs(system), bound)


def classify(system):
    """Separate separable, quantum-compatible and super-quantum systems.

    Tests every reachable 2-region subsystem against the Tsirelson bound
    with an exhaustive CHSH search, from `_chsh_witness`: a rational
    system's pairs in one gather, a float one's conditioned depth by depth
    with the walk's own float operations, and a walk through `condition`
    only for n < 2, a signalling rational system or a float slice that
    fails its check.  Exceedance anywhere certifies super-quantum
    behaviour (the first one is the witness); absence of exceedance is
    reported as quantum-compatible (no evidence found).  A one-setting
    system has no CHSH tuple, so it is quantum-compatible with no witness.
    """
    if is_separable(system):
        return Classification(SEPARABLE)
    if system.num_settings < 2:
        return Classification(QUANTUM_COMPATIBLE)

    bound = TSIRELSON_BOUND + EPS_NUM
    steps, value, best = _chsh_witness(system, bound)
    K = system.num_settings
    chain = tuple((c // (2 * K), c % (2 * K) // 2, c % 2) for c in steps.tolist())
    witness = (chain, ChshResult(abs(value), _chsh_tuples(K)[0][best], value))
    return Classification(SUPER_QUANTUM if abs(value) > bound else QUANTUM_COMPATIBLE, witness)


def bloch_compatibility(system, region, settings_triple):
    """Whether three settings could be orthonormal measurement axes.

    Projects the region's outcome biases r_k = 2 Pr(0|k) - 1 and checks
    that their squared sum stays within the unit ball.
    """
    if len(settings_triple) != 3:
        raise WrongArity("exactly three settings required")
    total = 0.0
    rows = float_marginals(system, [1 << region])[1 << region]
    for s in settings_triple:
        p0 = rows[system.setting_index(s)][0]
        r = 2.0 * p0 - 1.0
        total += r * r
    return total <= 1.0 + EPS_NUM
