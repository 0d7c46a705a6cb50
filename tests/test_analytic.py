"""Closed-form BER tests: Q-function, both PBER forms, coefficients."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc as scipy_erfc

from pamber import (
    BitPattern,
    ChannelParams,
    Constellation,
    Labeling,
    ThresholdSet,
    abd_decide,
    ber_from_coefficients,
    exact_llr,
    labeling_ber,
    labeling_ber_pam,
    labeling_coefficients,
    make_pam,
    maxlog_llr,
    named_labeling,
    pam_spacing,
    pattern_coefficients,
    pattern_from_index,
    pber_general,
    pber_pam,
    qfunc,
    sd_decide,
)
from pamber import analytic
from pamber.analytic import _erfc
from pamber.constellation import LABELING_NAMES
from pamber.pattern_classes import (
    _masks_of_weight,
    enumerate_classes,
    invert_index,
    pattern_weights,
    reflect_index,
)
from pamber.thresholds import bd_thresholds
from pamber.verify import _quadrature_pber, interval_probs, pber_interval_form


def gauss_tail(x):
    """Quadrature oracle for Q, independent of erfc."""
    val, _ = quad(
        lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi),
        x,
        np.inf,
        epsabs=1e-15,
        epsrel=1e-13,
    )
    return val


def quad_pber(pattern, constellation, thresholds, params):
    """PBER by scipy's adaptive quadrature of the density over each opposite-bit slice."""
    snr = params.snr
    edges = np.concatenate(([-np.inf], thresholds.betas, [np.inf]))
    total = 0.0
    for s, bit in zip(constellation.points, pattern.bits):
        for k in np.flatnonzero(thresholds.bits != bit):
            part, _ = quad(
                lambda t: math.sqrt(snr / math.pi) * math.exp(-snr * (t - s) ** 2),
                edges[k],
                edges[k + 1],
                epsabs=1e-13,
            )
            total += part
    return total / constellation.size


def mids(constellation, pattern):
    """The midpoint (ABD) boundaries of a pattern, each region deciding its point's bit."""
    return ThresholdSet(constellation.midpoints(), pattern.bits)


def all_patterns(m):
    """Every balanced pattern of length m, ascending by index."""
    return [pattern_from_index(m, w) for w in _masks_of_weight(m, m // 2).tolist()]


def loop_coefficients(bits):
    """Per-pattern loop form of the weight vector, kept as an oracle.

    Entry n-1 sums step[k-1]*sign[k-n] - step[k-n]*sign[k] over the
    1-based transitions k = n..M-1, in plain integer arithmetic.
    """
    p = [int(b) for b in bits]
    m_points = len(p)
    step = [p[j + 1] - p[j] for j in range(m_points - 1)]
    sign = [1 - 2 * b for b in p]
    return [
        sum(step[k - 1] * sign[k - n] - step[k - n] * sign[k] for k in range(n, m_points))
        for n in range(1, m_points)
    ]


class TestQfunc:
    def test_half_at_zero(self):
        assert qfunc(0.0) == 0.5

    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
    def test_complement_identity(self, x):
        assert qfunc(x) + qfunc(-x) == pytest.approx(1.0, abs=1e-15)

    def test_reference_value(self):
        assert float(qfunc(1.0)) == pytest.approx(0.15865525393145707, rel=1e-12)

    @pytest.mark.parametrize("x", [-2.0, 0.3, 1.0, 4.5, 7.5])
    def test_against_quadrature(self, x):
        assert float(qfunc(x)) == pytest.approx(gauss_tail(x), rel=1e-12)

    def test_deep_tail_underflows_cleanly(self):
        assert 0.0 <= float(qfunc(40.0)) < 1e-300


def erfc_arguments():
    """Over a million arguments: every branch, both sides of each edge, and the special values."""
    rng = np.random.default_rng(29)
    edges = [1.0, 8.0, math.sqrt(7.09782712893383996843e2)]  # |a| < 1, < 8, a*a past MAXLOG
    near = [np.nextafter(e, [-np.inf, np.inf]) for e in edges] + [edges]
    special = [0.0, -0.0, 1.0, -1.0, 8.0, -8.0, 26.55, 26.6, 27.3, 1e-300, 5e-324,
               2.2250738585072014e-308, 1e308, 1.7e308, np.finfo(float).max,
               np.inf, np.nan]
    parts = [
        rng.uniform(-1.0, 1.0, 150_000),
        rng.uniform(-9.0, 9.0, 150_000),
        rng.uniform(0.0, 30.0, 100_000),
        np.linspace(-40.0, 40.0, 50_001),
        np.linspace(26.5, 27.4, 50_000),  # exp(-a*a) subnormal, then MAXLOG
        rng.uniform(-1.0, 1.0, 1000) * 1e-308,  # subnormal arguments
        np.concatenate(near), np.array(special),
    ]
    args = np.concatenate(parts)
    return np.concatenate((args, -args))


class TestErfcPort:
    """The numpy port of Cephes erfc against scipy.special.erfc, kept as the oracle."""

    def test_bit_for_bit_with_scipy_and_no_warning(self):
        args = erfc_arguments()
        assert args.size >= 1_000_000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _erfc(args)
        want = scipy_erfc(args)
        assert got.dtype == np.float64 and got.shape == args.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        mismatch = got[~nan].view(np.int64) != want[~nan].view(np.int64)
        assert not mismatch.any(), args[~nan][mismatch][:10]

    def test_special_values(self):
        assert _erfc(np.inf) == 0.0 and _erfc(-np.inf) == 2.0
        assert math.isnan(_erfc(np.nan))
        assert _erfc(0.0) == 1.0 and _erfc(-0.0) == 1.0
        assert _erfc(1e308) == 0.0 and _erfc(-1e308) == 2.0
        assert np.signbit(_erfc(30.0)) == np.signbit(scipy_erfc(30.0))

    def test_shapes_and_scalars(self):
        assert isinstance(_erfc(0.5), np.float64)
        assert isinstance(qfunc(0.5), np.float64)
        assert _erfc(np.array(0.5)).shape == ()
        grid = np.linspace(-10.0, 10.0, 24).reshape(2, 3, 4)
        assert _erfc(grid).shape == (2, 3, 4)
        assert np.array_equal(_erfc(grid), scipy_erfc(grid))
        assert qfunc([[0.0, 1.0]]).shape == (1, 2)
        assert _erfc(np.array([])).shape == (0,)


class TestIntervalProbs:
    @pytest.mark.parametrize("snr", [0.01, 1.0, 25.0])
    def test_rows_sum_to_one(self, snr):
        c = make_pam(8)
        v = interval_probs(c, c.midpoints(), ChannelParams(snr))
        np.testing.assert_allclose(v.sum(axis=1), 1.0, atol=1e-12)

    def test_entries_are_probabilities(self):
        c = make_pam(8)
        v = interval_probs(c, c.midpoints(), ChannelParams(2.0))
        assert np.all(v >= 0) and np.all(v <= 1)

    def test_first_slice_against_quadrature(self):
        c = make_pam(4)
        snr = 1.0
        v = interval_probs(c, c.midpoints(), ChannelParams(snr))
        beta1 = c.midpoints()[0]
        oracle, _ = quad(
            lambda t: math.sqrt(snr / math.pi) * math.exp(-snr * (t - c.points[0]) ** 2),
            -np.inf,
            beta1,
            epsabs=1e-13,
        )
        assert v[0, 0] == pytest.approx(oracle, abs=1e-9)
        assert v[0, 0] == pytest.approx(0.7364553715672313, rel=1e-9)


class TestPberGeneral:
    def test_bpsk_reduces_to_q(self):
        c = make_pam(2)
        pat = pattern_from_index(2, 1)
        for snr in (0.5, 1.0, 4.0):
            got = pber_general(pat, c, mids(c, pat), ChannelParams(snr))
            assert got == pytest.approx(float(qfunc(math.sqrt(2 * snr))), rel=1e-14)

    def test_zero_snr_limit_is_half(self):
        for w in (3, 5, 6):
            pat = pattern_from_index(4, w)
            assert pber_pam(pat, ChannelParams(1e-12)) == pytest.approx(0.5, abs=1e-6)

    def test_against_decision_region_quadrature(self):
        c = make_pam(8)
        pat = pattern_from_index(8, 15)
        params = ChannelParams(10.0)
        got = pber_general(pat, c, mids(c, pat), params)
        assert got == pytest.approx(quad_pber(pat, c, mids(c, pat), params), abs=1e-9)

    @pytest.mark.parametrize("snr", [0.1, 1.0, 10.0])
    def test_dual_forms_agree_exhaustively(self, snr):
        c = make_pam(8)
        params = ChannelParams(snr)
        for pat in all_patterns(8):
            a = pber_general(pat, c, mids(c, pat), params)
            b = pber_interval_form(pat, c, mids(c, pat), params)
            assert abs(a - b) <= 1e-12

    def test_rejects_boundaries_that_are_not_a_threshold_set(self):
        c, pat = make_pam(8), pattern_from_index(8, 15)
        with pytest.raises(TypeError, match="ThresholdSet, got <class 'tuple'>"):
            pber_general(pat, c, (c.midpoints(), pat.bits), ChannelParams(1.0))

    def test_probability_bounds_at_extremes(self):
        c = make_pam(8)
        for snr in (1e-9, 1e4):
            params = ChannelParams(snr)
            for w in (15, 85, 102):
                pat = pattern_from_index(8, w)
                val = pber_general(pat, c, mids(c, pat), params)
                assert 0.0 <= val <= 1.0


class TestQuadratureOracle:
    """verify's Gauss-Legendre quadrature against scipy's adaptive quadrature."""

    def cases(self):
        c8, uneven = make_pam(8), Constellation(points=[-1.9, -0.35, 0.1, 1.1])
        for index, snr in ((15, 10.0), (60, 1.0), (102, 5.0), (23, 0.5), (85, 2.0)):
            pat = pattern_from_index(8, index)  # the spots of pamber verify
            yield pat, c8, mids(c8, pat), ChannelParams(snr)
        pat = pattern_from_index(8, 102)
        for snr_db in (-5.0, 10.0):
            params = ChannelParams.from_db(snr_db)
            yield pat, c8, bd_thresholds(pat, c8, params), params
        for w in (3, 5, 6):
            pat = pattern_from_index(4, w)
            for snr in (0.4, 2.0, 30.0):
                params = ChannelParams(snr)
                yield pat, uneven, mids(uneven, pat), params
                yield pat, uneven, bd_thresholds(pat, uneven, params), params

    def test_agrees_with_scipy_quad_to_1e12(self):
        for pat, c, thr, params in self.cases():
            got = _quadrature_pber(pat, c, thr, params)
            assert abs(got - quad_pber(pat, c, thr, params)) <= 1e-12, (pat.index, thr.betas)

    def test_runs_without_the_q_function(self, monkeypatch):
        cases = list(self.cases())  # the BD crossings are solved before Q goes
        want = [_quadrature_pber(*case) for case in cases]

        def refuse(*args):
            raise AssertionError("the quadrature oracle evaluated Q")

        monkeypatch.setattr(analytic, "qfunc", refuse)
        monkeypatch.setattr(analytic, "_erfc", refuse)
        assert [_quadrature_pber(*case) for case in cases] == want


class TestPatternCoefficients:
    def test_table_values(self):
        assert tuple(pattern_coefficients(pattern_from_index(4, 3))) == (2, 2, 0)
        assert tuple(pattern_coefficients(pattern_from_index(4, 5))) == (6, -4, 2)
        assert tuple(pattern_coefficients(pattern_from_index(8, 85))) == (
            14, -12, 10, -8, 6, -4, 2,
        )

    @pytest.mark.parametrize("m", [4, 8, 12, 16])
    def test_table_matches_loop_oracle(self, m):
        masks = _masks_of_weight(m, m // 2).astype(np.int64)
        bits = (masks[:, None] >> np.arange(m - 1, -1, -1)) & 1
        oracle = np.array([loop_coefficients(b) for b in bits])
        assert oracle.shape == (math.comb(m, m // 2), m - 1)
        np.testing.assert_array_equal(pattern_weights(bits), oracle)

    @pytest.mark.parametrize("m", [4, 8])
    def test_coefficients_sum_to_m(self, m):
        # forces the zero-SNR limit of the PBER to 1/2
        for pat in all_patterns(m):
            assert int(pattern_coefficients(pat).sum()) == m

    @pytest.mark.parametrize("m", [4, 8])
    def test_leading_coefficient_range(self, m):
        for pat in all_patterns(m):
            lead = int(pattern_coefficients(pat)[0])
            assert lead % 2 == 0
            assert 2 <= lead <= 2 * (m - 1)

    @pytest.mark.parametrize("m", [4, 8])
    def test_invariant_under_symmetries(self, m):
        for w in _masks_of_weight(m, m // 2).tolist():
            a = pattern_coefficients(pattern_from_index(m, w))
            for image in (invert_index(w, m), reflect_index(w, m)):
                np.testing.assert_array_equal(a, pattern_coefficients(pattern_from_index(m, image)))


class TestPberPam:
    def test_two_term_pattern_formula(self):
        d = pam_spacing(4)
        pat = pattern_from_index(4, 3)
        for snr in (0.3, 1.0, 8.0):
            expected = 0.25 * (
                2 * float(qfunc(d * math.sqrt(2 * snr)))
                + 2 * float(qfunc(3 * d * math.sqrt(2 * snr)))
            )
            assert pber_pam(pat, ChannelParams(snr)) == pytest.approx(
                expected, rel=1e-14
            )
        assert pber_pam(pat, ChannelParams(1.0)) == pytest.approx(
            0.14621720699728383, rel=1e-13
        )

    @pytest.mark.parametrize("m", [4, 8])
    def test_equals_general_form_with_midpoints(self, m):
        c = make_pam(m)
        for pat in all_patterns(m):
            for snr in (0.2, 1.0, 15.0):
                params = ChannelParams(snr)
                assert abs(
                    pber_pam(pat, params) - pber_general(pat, c, mids(c, pat), params)
                ) <= 1e-12

    def test_strictly_decreasing_at_high_snr(self):
        grid = np.logspace(0.0, 2.0, 15)
        for pat in all_patterns(8):
            vals = [pber_pam(pat, ChannelParams(s)) for s in grid]
            assert np.all(np.diff(vals) < 0)


class TestLabelingBer:
    def test_brgc4_weights_and_curve(self):
        lab = named_labeling("BRGC", 4)
        alpha = labeling_coefficients(lab)
        np.testing.assert_array_equal(alpha, [6, 4, -2])
        d = pam_spacing(4)
        for snr in (0.5, 2.0, 10.0):
            expected = (
                6 * float(qfunc(d * math.sqrt(2 * snr)))
                + 4 * float(qfunc(3 * d * math.sqrt(2 * snr)))
                - 2 * float(qfunc(5 * d * math.sqrt(2 * snr)))
            ) / 8.0
            assert labeling_ber_pam(lab, ChannelParams(snr)) == pytest.approx(
                expected, rel=1e-14
            )

    def test_column_sum_identity(self):
        lab = named_labeling("BRGC", 4)
        parts = [pattern_coefficients(BitPattern(tuple(col))) for col in lab.matrix.T]
        np.testing.assert_array_equal(parts[0], [2, 2, 0])
        np.testing.assert_array_equal(parts[1], [4, 2, -2])
        np.testing.assert_array_equal(sum(parts), labeling_coefficients(lab))

    def test_named_weight_vectors(self):
        np.testing.assert_array_equal(
            labeling_coefficients(named_labeling("NBC", 8)),
            [22, -4, 8, -10, 8, -2, 2],
        )
        np.testing.assert_array_equal(
            labeling_coefficients(named_labeling("AG", 8)),
            [36, -18, 6, 4, -4, -2, 2],
        )

    def test_general_path_matches_coefficient_path(self):
        c = make_pam(8)
        for name in ("BRGC", "NBC", "BSGC"):
            lab = named_labeling(name, 8)
            for snr in (0.5, 5.0):
                params = ChannelParams(snr)
                assert labeling_ber(lab, c, params, "abd") == pytest.approx(
                    labeling_ber_pam(lab, params), abs=1e-12
                )

    def test_sd_alias_matches_abd(self):
        c = make_pam(8)
        lab = named_labeling("BRGC", 8)
        params = ChannelParams(4.0)
        assert labeling_ber(lab, c, params, "sd") == labeling_ber(
            lab, c, params, "abd"
        )
        # a single pattern is a one-column target: its BER is its PBER
        pat = pattern_from_index(8, 102)
        for demod, thr in (("sd", mids(c, pat)), ("abd", mids(c, pat)),
                           ("bd", bd_thresholds(pat, c, params))):
            assert labeling_ber(pat, c, params, demod) == pber_general(pat, c, thr, params)

    def test_exact_boundaries_stay_close_above_zero_db(self):
        c = make_pam(8)
        lab = named_labeling("BRGC", 8)
        for snr_db in np.arange(0.0, 21.0, 2.0):
            params = ChannelParams.from_db(snr_db)
            abd = labeling_ber(lab, c, params, "abd")
            bd = labeling_ber(lab, c, params, "bd")
            assert abs(abd - bd) / abd <= 0.02
            assert bd <= abd  # the exact rule is optimal per bit

    @pytest.mark.xfail(strict=True, reason=(
        "BD 1.18639674751e-08 is above ABD 1.18639674566e-08: analytic._gq_sums "
        "cancels down to about 1e-16 absolute (ROADMAP item 1)"))
    def test_exact_boundaries_stay_below_abd_at_25_db(self):
        # the even-dB test above never lands on an inverted SNR
        c, lab, params = make_pam(8), named_labeling("BRGC", 8), ChannelParams.from_db(25.0)
        assert labeling_ber(lab, c, params, "bd") <= labeling_ber(lab, c, params, "abd")

    @pytest.mark.xfail(strict=True, reason=(
        "BD 3.5110803153770576e-15 is 1.2% above ABD 3.469446951953614e-15: "
        "analytic._gq_sums cancels down to about 1e-16 absolute (ROADMAP item 1)"))
    def test_exact_boundaries_stay_below_abd_on_16_pam_at_34_db(self):
        c, lab, params = make_pam(16), named_labeling("BRGC", 16), ChannelParams.from_db(34.0)
        assert labeling_ber(lab, c, params, "bd") <= labeling_ber(lab, c, params, "abd")

    def test_rejects_unknown_demodulator(self):
        with pytest.raises(ValueError, match="^demodulator must be one of sd, abd, bd; got 'zf'$"):
            labeling_ber(
                named_labeling("BRGC", 4), make_pam(4), ChannelParams(1.0), "zf"
            )

    @pytest.mark.parametrize("demod", ["BD", "Abd", " sd", None])
    def test_demodulator_names_are_exact(self, demod):
        # the same names SimConfig and the --demod choices accept
        with pytest.raises(ValueError, match="one of sd, abd, bd"):
            labeling_ber(
                named_labeling("BRGC", 8), make_pam(8), ChannelParams(2.0), demod
            )


def per_column_ber(target, constellation, params, demod):
    """The per-column BER loop, kept as an oracle: each column's one-pattern BER, in order.

    BD takes ``pber_general`` at ``bd_thresholds``; ABD takes ``labeling_ber``
    of the pattern, which ``test_pber_general_is_the_one_column_case`` ties
    to ``pber_general`` and which reuses the channel's midpoint tails.
    """
    cols = target.matrix if isinstance(target, Labeling) else target.as_array()[:, None]
    total = 0.0
    for col in cols.T:
        pat = BitPattern(tuple(col))
        if demod == "bd":
            total += pber_general(pat, constellation, bd_thresholds(pat, constellation, params),
                                  params)
        else:
            total += labeling_ber(pat, constellation, params, "abd")
    return total / cols.shape[1]


def named_labelings():
    for m_points in (2, 4, 8, 16, 32):
        for name in LABELING_NAMES:
            try:
                yield named_labeling(name, m_points)
            except ValueError:  # not defined at this size
                pass


class TestBatchedColumns:
    """All of a labeling's columns in one pass, bit-identical to the column loop."""

    GRID_DB = np.arange(-10.0, 40.25, 0.5)

    def targets(self):
        targets = list(named_labelings())
        assert len(targets) == 14
        targets += list(all_patterns(8))
        rng = np.random.default_rng(2012)
        nbc = named_labeling("NBC", 8).matrix
        targets += [Labeling(nbc[rng.permutation(8)]) for _ in range(200)]
        # Numpy's summation order follows memory layout, so pin both: a
        # labeling's matrix is C-ordered (its transpose is not), and this
        # one is Fortran-ordered (its transpose is).
        fortran = Labeling(np.asfortranarray(named_labeling("AG", 8).matrix))
        assert fortran.matrix.flags.f_contiguous and not fortran.matrix.flags.c_contiguous
        return targets + [fortran]

    def test_abd_ber_is_bit_identical_to_the_column_loop(self):
        pams = {m: make_pam(m) for m in (2, 4, 8, 16, 32)}
        targets = self.targets()
        compared = 0
        for snr_db in self.GRID_DB:
            params = ChannelParams.from_db(snr_db)
            for target in targets:
                c = pams[target.size]
                got = labeling_ber(target, c, params, "abd")
                assert got == per_column_ber(target, c, params, "abd"), (target, snr_db)
                compared += 1
        assert compared == len(targets) * 101

    def test_pber_general_is_the_one_column_case(self):
        c = make_pam(8)
        for snr_db in self.GRID_DB[::4]:
            params = ChannelParams.from_db(snr_db)
            for pat in all_patterns(8):
                want = labeling_ber(pat, c, params, "abd")
                assert pber_general(pat, c, mids(c, pat), params) == want


class TestBdColumns:
    """BD columns handed to the evaluator as bit rows, bit-identical to the column loop."""

    GRID_DB = np.arange(-10.0, 40.25, 2.5)

    def test_bd_ber_is_bit_identical_to_the_column_loop(self):
        cases = [(t, make_pam(t.size)) for t in named_labelings() if t.size <= 16]
        cases.append((named_labeling("NBC", 4), Constellation([-1.9, -0.35, 0.1, 1.1])))
        classes = enumerate_classes(8)
        assert len(classes) == 23
        cases += [(cls.representative, make_pam(8)) for cls in classes]
        compared = 0
        for snr_db in self.GRID_DB:
            params = ChannelParams.from_db(snr_db)
            for target, c in cases:
                got = labeling_ber(target, c, params, "bd")
                assert got == per_column_ber(target, c, params, "bd"), (target, snr_db)
                compared += 1
        assert compared == len(cases) * 21


class TestHighSnrParameter:
    """The high-SNR BICM parameter ``2*m*(M-1) - alpha[0]``, from the leading weight."""

    def test_brgc8_value(self):
        assert labeling_coefficients(named_labeling("BRGC", 8))[0] == 14  # parameter 2*3*7 - 14 = 28

    def test_leading_weight_counts_adjacent_disagreements(self):
        # independent count straight off the label matrix
        for name in ("BRGC", "NBC", "FBC", "BSGC", "AG"):
            lab = named_labeling(name, 8)
            hamming = int(np.abs(np.diff(lab.matrix, axis=0)).sum())
            assert int(labeling_coefficients(lab)[0]) == 2 * hamming

    def test_nonnegative_for_named(self):
        for name, m in (("BRGC", 4), ("NBC", 4), ("AG", 4), ("FBC", 8), ("AG", 8)):
            lab = named_labeling(name, m)
            assert labeling_coefficients(lab)[0] <= 2 * lab.n_bits * (m - 1)


class TestArbitraryConstellation:
    """The general PBER form is not tied to uniform spacing."""

    @pytest.fixture
    def uneven(self):
        return Constellation(points=[-1.9, -0.35, 0.1, 1.1])

    def test_pber_matches_quadrature(self, uneven):
        pat = pattern_from_index(4, 5)
        params = ChannelParams(2.0)
        got = pber_general(pat, uneven, mids(uneven, pat), params)
        assert got == pytest.approx(quad_pber(pat, uneven, mids(uneven, pat), params), abs=1e-9)

    def test_dual_forms_agree(self, uneven):
        for w in (3, 5, 6, 9, 10, 12):
            pat = pattern_from_index(4, w)
            thr = mids(uneven, pat)
            for snr in (0.4, 3.0):
                params = ChannelParams(snr)
                a = pber_general(pat, uneven, thr, params)
                b = pber_interval_form(pat, uneven, thr, params)
                assert abs(a - b) <= 1e-12

    def test_interval_rows_sum_to_one(self, uneven):
        v = interval_probs(uneven, uneven.midpoints(), ChannelParams(1.3))
        np.testing.assert_allclose(v.sum(axis=1), 1.0, atol=1e-12)

    def test_demodulator_equivalence_holds(self, uneven):
        lab = named_labeling("NBC", 4)
        rng = np.random.default_rng(42)
        y = rng.uniform(-3.0, 2.0, 50_000)
        params = ChannelParams.from_db(6.0)
        abd = abd_decide(maxlog_llr(y, lab, uneven, params))
        np.testing.assert_array_equal(abd, sd_decide(y, lab, uneven))

    def test_solved_boundaries_zero_the_llr(self, uneven):
        pat = pattern_from_index(4, 5)
        params = ChannelParams.from_db(8.0)
        thr = bd_thresholds(pat, uneven, params)
        residual = exact_llr(thr.betas, pat, uneven, params)[..., 0]
        assert np.abs(residual).max() <= 1e-8

    @pytest.mark.xfail(strict=True, raises=ValueError, reason=(
        "the reach rule refuses every snr < ln(M/2)/(2e6*dmin^2), which a close "
        "pair of points moves up to 18 dB (ROADMAP item 6)"))
    def test_bd_answers_a_close_pair_at_18_db(self):
        c = Constellation((-1.5, -1, -0.5, 0, 1e-4, 0.5, 1, 1.5))
        lab, params = named_labeling("BRGC", 8), ChannelParams.from_db(18.0)
        assert labeling_ber(lab, c, params, "bd") <= labeling_ber(lab, c, params, "abd")

    def test_rejects_unsorted_or_odd_points(self):
        with pytest.raises(ValueError, match="increasing"):
            Constellation(points=[0.0, -1.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="even"):
            Constellation(points=[-1.0, 0.0, 1.0])


class TestBerFromCoefficients:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            ber_from_coefficients(np.array([1, 2]), 4, ChannelParams(1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ber_from_coefficients(np.array([2.0, bad, 0.0]), 4, ChannelParams(1.0))

    # 4.0 must neither reach range() in make_pam nor be evaluated as 4 by
    # ber_from_coefficients
    @pytest.mark.parametrize("m_points", [0, 1, 3, -8, 4.0, np.float64(4), True])
    def test_pam_size_rule_is_the_same_everywhere(self, m_points):
        # pam_spacing holds the rule; the size is checked before the weights
        weights = np.zeros(max(int(m_points) - 1, 0))
        calls = (
            lambda: pam_spacing(m_points),
            lambda: make_pam(m_points),
            lambda: ber_from_coefficients(weights, m_points, ChannelParams(1.0)),
            lambda: pattern_from_index(m_points, 0),
        )
        for call in calls:
            with pytest.raises(ValueError, match=f"M must be an even integer >= 2, got {m_points}"):
                call()

    @pytest.mark.parametrize("kind", [np.int64, np.int8, np.uint8])
    def test_numpy_integer_sizes_keep_working(self, kind):
        weights, params = np.array([2, 2, 0]), ChannelParams(1.0)
        assert ber_from_coefficients(weights, kind(4), params) == ber_from_coefficients(
            weights, 4, params)
        # 1 << np.int8(8) would wrap to 0 and put index 15 out of range
        assert pattern_from_index(kind(8), kind(15)) == pattern_from_index(8, 15)

    @pytest.mark.parametrize("kind", [np.int64, np.int8, np.uint8])
    def test_a_numpy_size_gives_the_python_float_of_the_int_size(self, kind):
        # float(...) / np.int8(8) once gave an np.float64, which == cannot tell
        params = ChannelParams.from_db(6.0)
        for weights in (np.zeros(7), np.array([4, -2, 6, 0, -2, 2, 0])):
            got = ber_from_coefficients(weights, kind(8), params)
            assert type(got) is float
            assert got.hex() == ber_from_coefficients(weights, 8, params).hex()

    def test_bd_boundaries_in_general_form(self):
        # the general expression accepts SNR-dependent boundaries
        c = make_pam(8)
        pat = pattern_from_index(8, 60)
        params = ChannelParams.from_db(3.0)
        thr = bd_thresholds(pat, c, params)
        bd = pber_general(pat, c, thr, params)
        abd = pber_pam(pat, params)
        assert bd < abd
        assert abs(bd - abd) / abd < 0.02
