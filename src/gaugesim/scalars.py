"""Scalar backends for probability values.

Table-defined systems use exact rationals (``fractions.Fraction``), so
normalization, feasibility and fixture comparisons are decided without
rounding.  Trigonometric systems use floats compared at an absolute
tolerance of ``EPS_NUM``.
"""

from __future__ import annotations

import math
from fractions import Fraction

RATIONAL = "rational"
FLOAT = "float"

# Absolute tolerance for float comparisons.  Tabulated reference values
# carry at most 3 decimals; 1e-9 separates genuine zeros from rounding noise.
EPS_NUM = 1e-9

# Denominator bound when snapping float tables to rationals for the solver.
SNAP_DENOMINATOR = 10**6


def coerce(value, backend):
    """Coerce a raw table value to the given backend type; bools are not probabilities."""
    if isinstance(value, bool):
        raise TypeError(f"{backend} backend cannot hold bool {value!r}")
    if backend == RATIONAL:
        if isinstance(value, float):
            raise TypeError(f"rational backend cannot hold float {value!r}")
        return Fraction(value)
    return float(value)


def infer_backend(values):
    """Rational unless any value is a float."""
    for v in values:
        if isinstance(v, float):
            return FLOAT
    return RATIONAL


def deviation(a, b):
    """Absolute difference as a float (0.0 means exactly equal for rationals)."""
    if isinstance(a, Fraction) and isinstance(b, (Fraction, int)):
        return abs(float(a - b))
    return abs(float(a) - float(b))


def is_close(a, b, backend):
    if backend == RATIONAL:
        return a == b
    return abs(float(a) - float(b)) <= EPS_NUM


def snap(value):
    """Nearest small-denominator rational to a float table entry."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value).limit_denominator(SNAP_DENOMINATOR)


def parse_float(raw):
    """A float table's JSON value as a finite float: true and false raise TypeError, NaN and
    infinities ValueError, and an int past the float range OverflowError."""
    if isinstance(raw, bool):
        raise TypeError(f"table entry must be a number, got {raw!r}")
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"table entry must be finite, got {raw!r}")
    return value


def parse_rational(raw):
    """(numerator, denominator) of a JSON rational value, the denominator positive.

    A plain 'digits/digits' string is read with two `int` calls and kept in
    the terms it is written in; any other string goes to the `Fraction`
    string parser, and an integer is over 1.  Errors are those `Fraction`
    would raise: a zero denominator raises ZeroDivisionError.
    """
    if not isinstance(raw, str):
        if isinstance(raw, bool):
            raise TypeError(f"table entry must be a number, got {raw!r}")
        if isinstance(raw, int):
            return raw, 1
        raise TypeError(f"rational table entry must be a string or integer, got {raw!r}")
    num, _slash, den = raw.partition("/")
    if num.isascii() and num.isdigit() and den.isascii() and den.isdigit():
        num, den = int(num), int(den)
        if den == 0:
            raise ZeroDivisionError(f"Fraction({num}, 0)")
        return num, den
    value = Fraction(raw)
    return value.numerator, value.denominator


def format_value(value):
    """Serialize a scalar for JSON: rationals as 'num/den' strings."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return float(value)
