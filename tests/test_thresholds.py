"""Threshold solver tests against dense-scan oracles."""

import math

import numpy as np
import pytest

from pamber import (
    ChannelParams,
    NoSignChangeError,
    bd_thresholds,
    enumerate_classes,
    make_pam,
    midpoint_thresholds,
    pattern_exact_llr,
    pattern_from_index,
    relevance_mask,
    transition_mask,
)
from pamber import thresholds
from pamber.pattern_classes import invert, iter_patterns

D4 = math.sqrt(0.2)

FIG_PATTERNS = (15, 60, 102)


def scan_roots(pattern, constellation, params, lo, hi, samples=2_000_001):
    """Independent dense sign-scan refined by interval halving."""
    grid = np.linspace(lo, hi, samples)
    vals = pattern_exact_llr(grid, pattern, constellation, params)
    hits = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    roots = []
    for i in hits:
        a, b = grid[i], grid[i + 1]
        fa = pattern_exact_llr(a, pattern, constellation, params)
        for _ in range(60):
            mid = 0.5 * (a + b)
            fm = pattern_exact_llr(mid, pattern, constellation, params)
            if (fa < 0) == (fm < 0):
                a, fa = mid, fm
            else:
                b = mid
        roots.append(0.5 * (a + b))
    return roots


class TestMidpoints:
    def test_four_point_values(self):
        thr = midpoint_thresholds(make_pam(4))
        np.testing.assert_allclose(thr.betas, [-2 * D4, 0.0, 2 * D4], atol=1e-15)

    def test_bpsk_single_zero(self):
        np.testing.assert_array_equal(midpoint_thresholds(make_pam(2)).betas, [0.0])

    def test_eight_point_center(self):
        assert midpoint_thresholds(make_pam(8)).betas[3] == 0.0


class TestRelevanceMask:
    def test_hand_evaluated_columns(self):
        g = relevance_mask(pattern_from_index(4, 3))
        np.testing.assert_array_equal(g[:, 1], [1, 1, -1, -1])
        np.testing.assert_array_equal(g[:, 0], 0)
        np.testing.assert_array_equal(g[:, 2], 0)

    def test_zero_columns_match_equal_neighbors(self):
        for pat in iter_patterns(8):
            g = relevance_mask(pat)
            zero_cols = ~np.any(g, axis=0)
            np.testing.assert_array_equal(zero_cols, ~transition_mask(pat))

    def test_invariant_under_inversion(self):
        # both factors flip sign, so the product is unchanged
        for pat in iter_patterns(8):
            np.testing.assert_array_equal(
                relevance_mask(pat), relevance_mask(invert(pat))
            )


class TestBdThresholds:
    def test_antisymmetric_pattern_center(self):
        c = make_pam(8)
        pat = pattern_from_index(8, 15)
        for snr_db in (-10.0, 0.0, 12.0):
            thr = bd_thresholds(pat, c, ChannelParams.from_db(snr_db))
            assert abs(thr.betas[3]) <= 1e-10
            np.testing.assert_array_equal(
                thr.relevant, [False, False, False, True, False, False, False]
            )

    def test_matches_dense_scan_oracle(self):
        c = make_pam(8)
        params = ChannelParams.from_db(10.0)
        pat = pattern_from_index(8, 102)
        thr = bd_thresholds(pat, c, params)
        span = c.points[-1] - c.points[0]
        oracle = scan_roots(pat, c, params, c.points[0] - span, c.points[-1] + span)
        got = thr.betas[thr.relevant]
        assert len(oracle) == len(got)
        np.testing.assert_allclose(got, oracle, atol=1e-6)

    @pytest.mark.parametrize("index", FIG_PATTERNS)
    def test_high_snr_limit_is_midpoints(self, index):
        c = make_pam(8)
        pat = pattern_from_index(8, index)
        thr = bd_thresholds(pat, c, ChannelParams(1e4))
        gap = np.abs(thr.betas - c.midpoints())[thr.relevant]
        assert gap.max() <= 1e-4

    @pytest.mark.parametrize("index", FIG_PATTERNS)
    def test_deviation_shrinks_with_snr(self, index):
        c = make_pam(8)
        pat = pattern_from_index(8, index)
        mids = c.midpoints()
        devs = []
        for snr_db in np.arange(0.0, 30.5, 1.0):
            thr = bd_thresholds(pat, c, ChannelParams.from_db(snr_db))
            devs.append(np.abs(thr.betas - mids)[thr.relevant])
        devs = np.array(devs)
        assert np.all(np.diff(devs, axis=0) <= 1e-9)

    @pytest.mark.parametrize("index", FIG_PATTERNS)
    def test_llr_vanishes_at_solution(self, index):
        c = make_pam(8)
        pat = pattern_from_index(8, index)
        params = ChannelParams.from_db(4.0)
        thr = bd_thresholds(pat, c, params)
        residual = pattern_exact_llr(thr.betas[thr.relevant], pat, c, params)
        assert np.abs(residual).max() <= 1e-8

    @pytest.mark.parametrize("index", FIG_PATTERNS)
    def test_symmetric_about_zero(self, index):
        # RE and ARE patterns on a symmetric constellation
        c = make_pam(8)
        pat = pattern_from_index(8, index)
        thr = bd_thresholds(pat, c, ChannelParams.from_db(3.0))
        rel = thr.betas[thr.relevant]
        np.testing.assert_allclose(rel, -rel[::-1], atol=1e-9)

    def test_crossing_can_leave_its_bracket(self):
        # at 0 dB the outer boundaries of this pattern sit beyond the
        # outermost points; the solver must still locate them
        c = make_pam(8)
        pat = pattern_from_index(8, 102)
        thr = bd_thresholds(pat, c, ChannelParams.from_db(0.0))
        outer = thr.betas[6]
        assert outer > c.points[-1]
        assert abs(pattern_exact_llr(outer, pat, c, ChannelParams.from_db(0.0))) <= 1e-8

    def test_reports_vanished_thresholds(self):
        # at -5 dB the exact L-value of this pattern has only two zero
        # crossings for four bit transitions
        c = make_pam(8)
        pat = pattern_from_index(8, 102)
        with pytest.raises(NoSignChangeError, match="crossings"):
            bd_thresholds(pat, c, ChannelParams.from_db(-5.0))

    def test_relevant_entries_strictly_increasing(self):
        c = make_pam(8)
        for index in FIG_PATTERNS:
            pat = pattern_from_index(8, index)
            thr = bd_thresholds(pat, c, ChannelParams.from_db(2.0))
            rel = thr.betas[thr.relevant]
            assert np.all(np.diff(rel) > 0)


class TestBisection:
    """The package's bisection repeats ``scipy.optimize.bisect`` exactly."""

    def test_matches_scipy_on_every_8pam_class(self):
        from scipy.optimize import bisect

        c = make_pam(8)
        compared = 0
        for cls in enumerate_classes(8):
            pat = cls.representative
            relevant = np.nonzero(transition_mask(pat))[0]
            for snr_db in np.arange(-2.0, 24.5, 4.0):
                params = ChannelParams.from_db(snr_db)

                def llr(y):
                    return pattern_exact_llr(y, pat, c, params)

                for k in relevant:
                    grid = np.linspace(c.points[k], c.points[k + 1], 1024)
                    for lo, hi in thresholds._crossing_brackets(grid, llr(grid)):
                        if lo == hi:
                            continue
                        want = bisect(llr, lo, hi, xtol=1e-10)
                        assert thresholds._bisect(llr, float(lo), float(hi), 1e-10) == want
                        compared += 1
        assert compared > 500

    def test_rejects_what_scipy_rejects(self):
        from scipy.optimize import bisect

        def same_sign(y):
            return y * y + 1.0

        def nan_inside(y):
            return math.nan if 0.4 < y < 0.6 else y - 0.5

        for f in (same_sign, nan_inside):
            with pytest.raises(ValueError):
                bisect(f, 0.0, 1.0, xtol=1e-10)
            with pytest.raises(ValueError):
                thresholds._bisect(f, 0.0, 1.0, 1e-10)
