"""The stdlib 60-digit Q reference (``decimal_q``), and the float Q-functions and BERs against it."""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.special import erfc as scipy_erfc

import decimal_q
from decimal_q import q
from pamber import (
    BitPattern,
    ChannelParams,
    bd_thresholds,
    ber_from_coefficients,
    labeling_ber,
    labeling_coefficients,
    make_pam,
    named_labeling,
    pattern_coefficients,
    pattern_from_index,
    pber_general,
    qfunc,
)

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


@pytest.mark.parametrize("name", ["BRGC", "NBC", "FBC", "BSGC", "AG"])
def test_weight_form_ber_agrees_to_1e12_for_the_named_8pam_labelings(name):
    alpha = labeling_coefficients(named_labeling(name, 8))
    for snr_db in range(21):
        got = ber_from_coefficients(alpha, 8, ChannelParams.from_db(snr_db))
        assert relative(got, decimal_q.pam_ber(alpha, 8, snr_db)) <= 1e-12, snr_db


def test_brgc8_at_30_db_is_4_92e_minus_23_in_the_weight_form():
    alpha = labeling_coefficients(named_labeling("BRGC", 8))
    want = decimal_q.pam_ber(alpha, 8, 30) / 3
    assert f"{want:.2e}" == "4.92e-23"
    assert relative(ber_from_coefficients(alpha, 8, ChannelParams.from_db(30)) / 3, want) <= 1e-12


@pytest.mark.xfail(strict=True, reason=(
    "analytic._gq_sums evaluates 0.5 + sum(g*Q)/M; the Q of points below a "
    "boundary are about 1, so the sum cancels down to the answer with about "
    "1e-16 absolute accuracy, and labeling_ber(BRGC-8) returns 0.0 at 30 dB"))
def test_labeling_ber_of_brgc8_at_30_db_agrees_to_1e12():
    lab = named_labeling("BRGC", 8)
    want = decimal_q.pam_ber(labeling_coefficients(lab), 8, 30) / lab.n_bits
    got = labeling_ber(lab, make_pam(8), ChannelParams.from_db(30.0))
    assert relative(got, want) <= 1e-12


def test_interval_form_equals_the_weight_form_at_the_midpoints():
    # unit-energy 8-PAM in decimal: points d*(2i-7), midpoints d*(2i-6)
    with localcontext() as ctx:
        ctx.prec = decimal_q.DIGITS + decimal_q.GUARD
        d = (Decimal(3) / 63).sqrt()
        points = [d * (2 * i - 7) for i in range(8)]
        mids = [d * (2 * i - 6) for i in range(7)]
    for index in (15, 60, 85, 102):
        pattern = pattern_from_index(8, index)
        for snr_db in (-5, 10, 40):
            got = decimal_q.interval_pber(points, mids, pattern.bits, pattern.bits, snr_db)
            want = decimal_q.pam_ber(pattern_coefficients(pattern), 8, snr_db)
            assert abs(got - want) <= want * Decimal(10) ** -50, (index, snr_db)


def test_bd_error_rates_agree_with_the_interval_form_at_the_library_crossings():
    # pber_general and BD labeling_ber telescope over the boundaries; the
    # reference sums region probabilities at the same float crossings
    c, pattern, brgc = make_pam(8), pattern_from_index(8, 102), named_labeling("BRGC", 8)
    points = c.points.tolist()
    columns = [BitPattern(col) for col in brgc.matrix.T.tolist()]

    def reference(pat, params, snr_db):
        thr = bd_thresholds(pat, c, params)
        return decimal_q.interval_pber(points, thr.betas.tolist(), thr.bits.tolist(), pat.bits,
                                       snr_db)

    for snr_db in (-5, 0, 5, 10, 15, 20):
        params = ChannelParams.from_db(snr_db)
        got = pber_general(pattern, c, bd_thresholds(pattern, c, params), params)
        assert relative(got, reference(pattern, params, snr_db)) <= 1e-12, snr_db
        want = sum(reference(col, params, snr_db) for col in columns) / len(columns)
        assert relative(labeling_ber(brgc, c, params, "bd"), want) <= 1e-12, snr_db
