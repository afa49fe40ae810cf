"""Reference lifted-CHSH screen, built pair of regions by pair.

The differential oracle for ``gaugesim.solver``'s cached screen layout:
per pair of regions a < b the targets are transposed, sliced and multiplied
against the CHSH variants, and a certificate is read off the per-pair
arrays.  The solver's flat screen must hold these values member by member,
and hand over a certificate that ``simplex._refutes`` judges as this one.
An LP stand-in here is any object with ``settings`` (the targets' setting
vectors) and ``bell``, the tuple ``screen`` yields.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from gaugesim.solver import _BELL_MARGIN, _BELL_MEMBERS, _CHSH


def screen(R, D, n, K):
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


def certificate(lp, K, gamma=None, rows=slice(None)):
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
