"""The stdlib 60-digit Q reference (``decimal_q``), and the float Q-functions against it."""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.special import erfc as scipy_erfc

import decimal_q
from decimal_q import q
from pamber import qfunc

# x from -10 to 37 in steps of 1/4: Q(37) = 5.7e-300 is still a normal float
GRID = np.arange(-40, 149) / 4.0


def relative(value: float, reference: Decimal) -> float:
    return float(abs(Decimal(value) - reference) / reference)


def test_q_of_zero_is_one_half():
    assert q(0.0) == Decimal("0.5")
    assert q(-0.0) == Decimal("0.5")


@pytest.mark.parametrize("x", [1e-300, 0.1, 1.0, 2.5, 4.24, 4.25, 8.0, 37.0])
def test_q_of_minus_x_is_one_minus_q_of_x(x):
    with localcontext() as ctx:
        ctx.prec = decimal_q.DIGITS
        assert q(x) + q(-x) == 1


def test_series_and_continued_fraction_agree_at_the_switch():
    z = Decimal(decimal_q.SERIES_LIMIT)
    with localcontext() as ctx:
        ctx.prec = decimal_q.DIGITS + decimal_q.GUARD
        series = 1 - decimal_q.erf_series(z)
        fraction = decimal_q.erfc_fraction(z)
        assert abs(series - fraction) / fraction < Decimal(10) ** -decimal_q.DIGITS


def test_erfc_agrees_with_math_erfc_wherever_q_is_a_normal_float():
    # Both sides get the same float z = x/sqrt(2): rounding that division
    # moves Q by up to 2*z^2*eps relative, far more than libm's own error.
    checked = 0
    for z in GRID / math.sqrt(2.0):
        value = 0.5 * math.erfc(z)
        if value < sys.float_info.min:
            continue
        assert relative(value, decimal_q.erfc(z) / 2) <= 1e-15, z
        checked += 1
    assert checked == GRID.size


def test_scipy_erfc_agrees_to_1e13_on_the_q_grid():
    z = GRID / math.sqrt(2.0)
    got = scipy_erfc(z)
    worst = max(relative(float(g), decimal_q.erfc(float(w))) for g, w in zip(got, z))
    assert worst <= 1e-13


@pytest.mark.xfail(strict=True, reason=(
    "qfunc rounds x/sqrt(2) to a double before erfc, and Q's relative change "
    "is about x^2 times that of its argument: 1.1e-13 at x = 27.5, 2.3e-13 "
    "at x = 36.75; up to x = 20 the worst is 5.7e-14"))
def test_qfunc_agrees_to_1e13_on_the_grid():
    got = qfunc(GRID)
    worst = max(relative(float(g), q(float(x))) for g, x in zip(got, GRID))
    assert worst <= 1e-13
