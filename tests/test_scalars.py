"""Scalar backend helpers."""

import math
from fractions import Fraction as F

import pytest

from gaugesim.scalars import (
    EPS_NUM,
    FLOAT,
    RATIONAL,
    coerce,
    deviation,
    format_value,
    infer_backend,
    is_close,
    parse_float,
    parse_rational,
    snap,
)


def test_backend_inference():
    assert infer_backend([F(1, 2), 1, 0]) == RATIONAL
    assert infer_backend([F(1, 2), 0.25]) == FLOAT


def test_rational_coercion_rejects_floats():
    with pytest.raises(TypeError):
        coerce(0.5, RATIONAL)
    assert coerce(1, RATIONAL) == F(1)


@pytest.mark.parametrize("backend", [RATIONAL, FLOAT])
def test_bools_are_not_probabilities(backend):
    for value in (True, False):
        with pytest.raises(TypeError):
            coerce(value, backend)
        with pytest.raises(TypeError):
            (parse_rational if backend == RATIONAL else parse_float)(value)


@pytest.mark.parametrize("text", ["3/4", "007/010", "12", "0", "-1/7", " 1/2 ", "0.25",
                                  "1e-3", "1_000/3", "\u0663/4"])
def test_rational_strings_parse_as_fraction_does(text):
    try:
        want = F(text)
    except ValueError:
        with pytest.raises(ValueError):
            parse_rational(text)
        return
    num, den = parse_rational(text)
    assert type(num) is int and type(den) is int and den > 0
    assert F(num, den) == want


def test_parse_format_round_trip():
    for value in (F(0), F(1, 3), F(7, 12)):
        assert F(*parse_rational(format_value(value))) == value
    assert parse_rational("2") == (2, 1)
    assert parse_float(0.25) == 0.25


def test_is_close_tolerances():
    assert is_close(F(1, 3), F(1, 3), RATIONAL)
    assert not is_close(F(1, 3), F(1, 3) + F(1, 10**12), RATIONAL)
    assert is_close(0.25, 0.25 + 0.5 * EPS_NUM, FLOAT)
    assert not is_close(0.25, 0.25 + 10 * EPS_NUM, FLOAT)


def test_snap_restores_simple_rationals():
    noisy = 0.25 + 3e-17
    assert snap(noisy) == F(1, 4)
    c = math.cos(math.pi / 5)
    assert abs(float(snap(0.25 * (1 + c))) - 0.25 * (1 + c)) < 1e-9


def test_deviation_exact_for_rationals():
    assert deviation(F(1, 3), F(1, 3)) == 0.0
    assert deviation(F(1, 2), F(1, 4)) == 0.25
