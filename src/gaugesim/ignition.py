"""Ignition-state indexing.

An ignition state is an auxiliary fine-grained outcome identified with an
integer ``j`` read as a bit vector over configurations.  Configuration
``gamma = k + i*K`` addresses setting ``k`` in region ``i``; bit ``gamma``
of ``j`` is the outcome region ``i`` reports when measured with setting
``k``.

`outcome_codes` is the array form of that rule: bit ``i`` of the outcome
code of ``j`` at setting vector ``u`` is region ``i``'s outcome, bit
``u_i + i*K`` of ``j``.
"""

from __future__ import annotations

import numpy as np

# Full index-space enumeration is allowed only up to this many configuration
# bits; larger systems must supply an explicit working set.
MAX_ENUM_BITS = 24


def config_index(region, setting, num_settings):
    """gamma = k + i*K."""
    return setting + region * num_settings


def config_region(gamma, num_settings):
    return gamma // num_settings


def config_setting(gamma, num_settings):
    return gamma % num_settings


def state_array(states):
    """Ignition states as an int64 array, or Python ints past its range."""
    try:
        return np.asarray(states, dtype=np.int64)
    except OverflowError:
        return np.asarray(states, dtype=object)


def outcome_code(x):
    """Outcome vector x packed with region i at bit i."""
    return sum(xi << i for i, xi in enumerate(x))


def outcome_codes(states, u, num_settings):
    """int64 code of each state at setting vector u: bit i is bit u_i + i*K."""
    states = state_array(states)
    codes = sum(((states >> (ui + i * num_settings)) & 1) << i for i, ui in enumerate(u))
    return np.asarray(codes, dtype=np.int64)


def double_plateau(num_settings):
    """The 2K double-plateau integers in trigonometric order.

    A double-plateau integer has a K-bit expansion that is a chain of
    identical bits with at most one jump.  Trigonometric order starts from
    the K-bit word with floor(K/2) leading zeros followed by ones, and walks
    the cycle so that bit k of element r equals bit 0 of element r-k.
    """
    K = num_settings
    if K < 2:
        raise ValueError("double-plateau sets need at least 2 settings")
    out = []
    for r in range(2 * K):
        j = 0
        for k in range(K):
            if plateau_projection(r - k, K):
                j |= 1 << k
        out.append(j)
    return out


def plateau_projection(r, num_settings):
    """Outcome bit of double-plateau element r under the first setting.

    The ones form a cyclic window of length K placed so the first element
    has floor(K/2) leading zeros; shifting r by the setting index gives
    every other projection: bit k of double_plateau(K)[r] equals
    plateau_projection(r - k, K).
    """
    K = num_settings
    return 1 if (r + (K - 1) // 2) % (2 * K) < K else 0


def bell_lift(j, num_settings):
    """Embed a K-bit totally-correlated ignition state into the 2K-bit space.

    Duplicates the K bits into both regions' blocks, so both regions project
    identical outcomes for identical settings.
    """
    return ((1 << num_settings) + 1) * j


def bell_support(num_settings):
    """Lifted double-plateau working set for 2-region totally correlated systems."""
    return [bell_lift(j, num_settings) for j in double_plateau(num_settings)]
