"""Inequality tests and entropy measures for probability systems.

All entropies are in bits with the 0*log(0) = 0 convention.  Bipartite
mutual information equals the Kullback-Leibler divergence from the product
of the two single-region marginals; its multivariate extension is the
signed measure of the full intersection atom of the information diagram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from .errors import ValidationError, WrongArity
from .model import branches, is_locally_consistent, is_separable, marginal
from .scalars import EPS_NUM

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

# Threshold below which an entanglement entropy counts as zero in scheme
# flags; nonzero values of interest are all >= 0.09 bits.
EPS_ENT = 1e-9

# Cap on the information-diagram size: 2^n - 1 atoms stay cheap up to here.
MAX_DIAGRAM_REGIONS = 12

UNIFORM = "uniform"
MIXED = "mixed"


def _require_bipartite(system, what):
    if system.n != 2:
        raise WrongArity(f"{what} is defined for 2 regions, got {system.n}")


def _plog2(p):
    p = float(p)
    if p <= 0.0:
        return 0.0
    return -p * math.log2(p)


def hamming_divergence(system, u0, u1):
    """Expected Hamming distance between the two regions' outcomes."""
    _require_bipartite(system, "Hamming divergence")
    u = (system.setting_index(u0), system.setting_index(u1))
    return float(system.prob((1, 0), u)) + float(system.prob((0, 1), u))


def bell_triangle_slack(system, t0, t1, t2):
    """Slack of the three-setting triangle inequality; negative = violation."""
    _require_bipartite(system, "triangle inequality")
    return (
        hamming_divergence(system, t0, t1)
        + hamming_divergence(system, t1, t2)
        - hamming_divergence(system, t0, t2)
    )


def _spins(x0, x1, convention):
    s0 = 2 * x0 - 1
    s1 = (1 - 2 * x1) if convention == MIXED else (2 * x1 - 1)
    return s0, s1


def spin_correlation(system, u0, u1, convention=UNIFORM):
    """E[s0*s1] at one setting pair under the chosen spin convention."""
    _require_bipartite(system, "spin correlation")
    u = (system.setting_index(u0), system.setting_index(u1))
    total = 0.0
    for x in product((0, 1), repeat=2):
        s0, s1 = _spins(x[0], x[1], convention)
        total += s0 * s1 * float(system.prob(x, u))
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


def chsh_max(system, convention=UNIFORM):
    """Exhaustive best CHSH value over all K^4 tuples with A != A', B != B'."""
    _require_bipartite(system, "CHSH")
    K = system.num_settings
    if K < 2:
        raise WrongArity("CHSH search needs at least two settings")
    best = None
    corr = {
        (p, q): spin_correlation(system, p, q, convention)
        for p in range(K)
        for q in range(K)
    }
    for A, Ap in permutations(range(K), 2):
        for B, Bp in permutations(range(K), 2):
            signed = corr[(A, B)] + corr[(Ap, B)] + corr[(A, Bp)] - corr[(Ap, Bp)]
            if best is None or abs(signed) > best.value:
                best = ChshResult(abs(signed), (A, Ap, B, Bp), signed)
    return best


def measurement_entropy(system, regions=None, settings=None):
    """Shannon entropy (bits) of the outcome distribution of a region subset.

    `settings` gives one setting per kept region; proper subsets require
    complete local consistency of the parent.
    """
    if regions is None:
        regions = tuple(range(system.n))
    regions = tuple(sorted(regions))
    sub = marginal(system, regions).system
    if settings is None:
        settings = (0,) * sub.n
    u = tuple(sub.setting_index(s) for s in settings)
    return sum(_plog2(sub.prob(x, u)) for x in sub.outcome_vectors())


def relative_entropy_to_product(system, u):
    """KL divergence (bits) of P(.|u) from the product of its own marginals."""
    u = tuple(system.setting_index(s) for s in u)
    marginals = [system.region_marginal(i, u[i]) for i in range(system.n)]
    total = 0.0
    for x in system.outcome_vectors():
        p = float(system.prob(x, u))
        if p <= 0.0:
            continue
        q = 1.0
        for i, xi in enumerate(x):
            q *= float(marginals[i][xi])
        # q = 0 with p > 0 cannot happen against a system's own marginals.
        assert q > 0.0, "product distribution vanished on a positive target"
        total += p * math.log2(p / q)
    return total


def s2(system, u0, u1):
    """Bipartite entanglement entropy (mutual information) at one setting pair."""
    _require_bipartite(system, "bipartite entanglement entropy")
    return relative_entropy_to_product(system, (u0, u1))


def s2_matrix(system):
    """K x K matrix of bipartite entanglement entropies."""
    _require_bipartite(system, "entropy matrix")
    K = system.num_settings
    return [[s2(system, a, b) for b in range(K)] for a in range(K)]


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

    def atom(self, mask):
        return self.atoms[mask]

    def reconstruct(self, subset_mask):
        """Sum of atoms covered by the union of the subset's regions."""
        return sum(m for mask, m in self.atoms.items() if mask & subset_mask)


def atom_measures(system, u):
    """Solve the inclusion-exclusion system for all diagram atoms at u."""
    n = system.n
    if n > MAX_DIAGRAM_REGIONS:
        raise WrongArity(f"information diagram capped at {MAX_DIAGRAM_REGIONS} regions")
    if not is_locally_consistent(system):
        raise ValidationError("diagram requires complete local consistency")
    u = tuple(system.setting_index(s) for s in u)

    masks = list(range(1, 1 << n))
    joint = {}
    for mask in masks:
        regions = [i for i in range(n) if mask >> i & 1]
        probs = system.outcome_marginal(regions, [u[i] for i in regions])
        joint[mask] = sum(_plog2(p) for p in probs)

    matrix = np.array(
        [[1.0 if (alpha & m) else 0.0 for m in masks] for alpha in masks]
    )
    rhs = np.array([joint[alpha] for alpha in masks])
    solution = np.linalg.solve(matrix, rhs)
    atoms = {m: float(v) for m, v in zip(masks, solution)}
    return InformationDiagram(n, u, joint, atoms)


def s_n(system, u):
    """n-partite entanglement entropy: measure of the full intersection atom."""
    diagram = atom_measures(system, u)
    return diagram.atom((1 << system.n) - 1)


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


def entanglement_scheme(system):
    """e_m = number of m-region subsets showing m-partite entropy somewhere."""
    n, K = system.n, system.num_settings
    if not is_locally_consistent(system):
        raise ValidationError("entanglement scheme requires local consistency")

    flags = []
    degree = 1
    for m in range(2, n + 1):
        count = 0
        for combo in combinations(range(n), m):
            sub = marginal(system, combo).system
            found = False
            for u in product(range(K), repeat=m):
                if abs(s_n(sub, u)) > EPS_ENT:
                    found = True
                    break
            if found:
                count += 1
        flags.append(count)
        if count:
            degree = m

    best = max(
        relative_entropy_to_product(system, u)
        for u in product(range(K), repeat=n)
    )
    return EntanglementScheme(
        tuple(flags), degree, best, best >= n - 1 - EPS_ENT
    )


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
                stack.append((branch.system, chain + ((region, setting, outcome),)))


def classify(system):
    """Separate separable, quantum-compatible and super-quantum systems.

    Tests every reachable 2-region subsystem (see `two_region_subsystems`)
    against the Tsirelson bound with an exhaustive CHSH search.  Exceedance
    anywhere certifies super-quantum behaviour; absence of exceedance is
    reported as quantum-compatible (no evidence found).
    """
    if is_separable(system):
        return Classification(SEPARABLE)

    best_witness = None
    for chain, pair in two_region_subsystems(system):
        result = chsh_max(pair)
        if result.tsirelson_violation:
            return Classification(SUPER_QUANTUM, (chain, result))
        if best_witness is None or result.value > best_witness[1].value:
            best_witness = (chain, result)
    return Classification(QUANTUM_COMPATIBLE, best_witness)


def bloch_compatibility(system, region, settings_triple):
    """Whether three settings could be orthonormal measurement axes.

    Projects the region's outcome biases r_k = 2 Pr(0|k) - 1 and checks
    that their squared sum stays within the unit ball.
    """
    if len(settings_triple) != 3:
        raise WrongArity("exactly three settings required")
    total = 0.0
    for s in settings_triple:
        k = system.setting_index(s)
        p0 = float(system.region_marginal(region, k)[0])
        r = 2.0 * p0 - 1.0
        total += r * r
    return total <= 1.0 + EPS_NUM
