"""Threshold solver tests against dense-scan oracles."""

import math

import numpy as np
import pytest

from pamber import (
    ChannelParams,
    bd_thresholds,
    enumerate_classes,
    make_pam,
    midpoint_thresholds,
    pattern_exact_llr,
    pattern_from_index,
    pber_general,
    pber_pam,
    relevance_mask,
    transition_mask,
)
from pamber import thresholds
from pamber.pattern_classes import invert, iter_patterns
from pamber.verify import pber_interval_form

D4 = math.sqrt(0.2)

FIG_PATTERNS = (15, 60, 102)
CLASS_REPS = tuple(cls.representative for cls in enumerate_classes(8))


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


def vector_illinois(f, lo, hi, flo, fhi, xtol):
    """The bracket refinement with numpy array state, kept as an oracle.

    Same rules as :func:`pamber.thresholds._illinois`, each step a handful
    of element-wise array operations over the active brackets.
    """
    lo, hi, flo, fhi = (np.array(a, dtype=float) for a in (lo, hi, flo, fhi))
    moved = np.zeros(lo.size, dtype=np.int8)  # -1: lo moved last, +1: hi
    step = 0
    while True:
        tol = xtol + thresholds._RTOL * np.maximum(np.abs(lo), np.abs(hi))
        act = np.nonzero(hi - lo >= 2 * tol)[0]
        if act.size == 0:
            return 0.5 * (lo + hi)
        a, b, fa, fb, t = lo[act], hi[act], flo[act], fhi[act], tol[act]
        if step < thresholds._ILLINOIS_STEPS:
            x = b - fb * (b - a) / (fb - fa)
        else:
            x = 0.5 * (a + b)
        x = np.clip(x, a + t, b - t)
        fx = f(x)
        left = (fx < 0) == (fa < 0)
        fhi[act] = np.where(left, np.where(moved[act] == -1, 0.5 * fb, fb), fx)
        flo[act] = np.where(left, fx, np.where(moved[act] == 1, 0.5 * fa, fa))
        lo[act] = np.where(left | (fx == 0), x, a)
        hi[act] = np.where(left & (fx != 0), b, x)
        moved[act] = np.where(left, -1, 1)
        step += 1


def assert_same_roots(f, lo, hi, flo, fhi, xtol=1e-10, refine=thresholds._illinois):
    got = refine(f, lo, hi, flo, fhi, xtol)
    want = vector_illinois(f, lo, hi, flo, fhi, xtol)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    return got


def reach(constellation, params):
    """The bound T: every crossing lies within T of the outer points."""
    gap = np.diff(constellation.points).min()
    return math.log(constellation.size / 2) / (2 * params.snr * gap)


def sign_region_pber(pattern, constellation, params, samples=20_001):
    """PBER of the rule 'bit 1 where L >= 0', from a dense scan of L.

    The regions come from :func:`scan_roots`, their bits from the sign of
    L at each region's centre, and the probabilities from ``math.erfc``.
    """
    t = reach(constellation, params)
    lo, hi = constellation.points[0] - t, constellation.points[-1] + t
    edges = [lo] + scan_roots(pattern, constellation, params, lo, hi, samples) + [hi]
    inner = [0.5 * (a + b) for a, b in zip(edges[:-1], edges[1:])]
    bits = [int(v >= 0) for v in pattern_exact_llr(np.array(inner), pattern, constellation, params)]
    edges[0], edges[-1] = -math.inf, math.inf
    scale = math.sqrt(params.snr)
    total = 0.0
    for s, p in zip(constellation.points, pattern.bits):
        for a, b, bit in zip(edges[:-1], edges[1:], bits):
            if bit != p:
                total += 0.5 * (math.erfc((a - s) * scale) - math.erfc((b - s) * scale))
    return total / constellation.size


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
            assert thr.size == 1
            assert abs(thr.betas[0]) <= 1e-10
            np.testing.assert_array_equal(thr.bits, [0, 1])

    def test_matches_dense_scan_oracle(self):
        c = make_pam(8)
        params = ChannelParams.from_db(10.0)
        pat = pattern_from_index(8, 102)
        thr = bd_thresholds(pat, c, params)
        span = c.points[-1] - c.points[0]
        oracle = scan_roots(pat, c, params, c.points[0] - span, c.points[-1] + span)
        assert len(oracle) == thr.size
        np.testing.assert_allclose(thr.betas, oracle, atol=1e-6)

    @pytest.mark.parametrize("index", FIG_PATTERNS)
    def test_high_snr_limit_is_midpoints(self, index):
        c = make_pam(8)
        pat = pattern_from_index(8, index)
        thr = bd_thresholds(pat, c, ChannelParams(1e4))
        gap = np.abs(thr.betas - c.midpoints()[transition_mask(pat)])
        assert gap.max() <= 1e-4

    @pytest.mark.parametrize("index", FIG_PATTERNS)
    def test_deviation_shrinks_with_snr(self, index):
        c = make_pam(8)
        pat = pattern_from_index(8, index)
        mids = c.midpoints()[transition_mask(pat)]
        devs = []
        for snr_db in np.arange(0.0, 30.5, 1.0):
            thr = bd_thresholds(pat, c, ChannelParams.from_db(snr_db))
            devs.append(np.abs(thr.betas - mids))
        devs = np.array(devs)
        assert np.all(np.diff(devs, axis=0) <= 1e-9)

    @pytest.mark.parametrize("index", FIG_PATTERNS)
    def test_llr_vanishes_at_solution(self, index):
        c = make_pam(8)
        pat = pattern_from_index(8, index)
        params = ChannelParams.from_db(4.0)
        thr = bd_thresholds(pat, c, params)
        residual = pattern_exact_llr(thr.betas, pat, c, params)
        assert np.abs(residual).max() <= 1e-8

    @pytest.mark.parametrize("index", FIG_PATTERNS)
    def test_symmetric_about_zero(self, index):
        # RE and ARE patterns on a symmetric constellation
        c = make_pam(8)
        pat = pattern_from_index(8, index)
        thr = bd_thresholds(pat, c, ChannelParams.from_db(3.0))
        np.testing.assert_allclose(thr.betas, -thr.betas[::-1], atol=1e-9)

    def test_crossing_can_leave_its_bracket(self):
        # at 0 dB the outer boundaries of this pattern sit beyond the
        # outermost points; the solver must still locate them
        c = make_pam(8)
        pat = pattern_from_index(8, 102)
        thr = bd_thresholds(pat, c, ChannelParams.from_db(0.0))
        assert thr.size == 4
        outer = thr.betas[-1]
        assert outer > c.points[-1]
        assert abs(pattern_exact_llr(outer, pat, c, ChannelParams.from_db(0.0))) <= 1e-8

    def test_vanished_thresholds_leave_two_crossings(self):
        # at -5 dB the exact L-value of this pattern has only two zero
        # crossings for four bit transitions; the middle region decides 1
        c = make_pam(8)
        pat = pattern_from_index(8, 102)
        params = ChannelParams.from_db(-5.0)
        thr = bd_thresholds(pat, c, params)
        t = reach(c, params)
        oracle = scan_roots(pat, c, params, c.points[0] - t, c.points[-1] + t)
        assert len(oracle) == thr.size == 2
        np.testing.assert_allclose(thr.betas, oracle, atol=1e-9)
        np.testing.assert_array_equal(thr.bits, [0, 1, 0])

    def test_relevant_entries_strictly_increasing(self):
        c = make_pam(8)
        for index in FIG_PATTERNS:
            pat = pattern_from_index(8, index)
            thr = bd_thresholds(pat, c, ChannelParams.from_db(2.0))
            assert np.all(np.diff(thr.betas) > 0)

    def test_rejects_snr_below_the_resolvable_range(self):
        c = make_pam(8)
        pat = pattern_from_index(8, 102)
        assert bd_thresholds(pat, c, ChannelParams.from_db(-50.0)).size == 2
        with pytest.raises(ValueError, match="too low"):
            bd_thresholds(pat, c, ChannelParams.from_db(-60.0))


class TestRefinement:
    """The vectorised bracket refinement on functions with known roots."""

    def test_refines_many_brackets_at_once(self):
        lo = np.array([-2.0, 0.5, 3.0])
        hi = np.array([-0.5, 2.0, 7.0])
        f = np.cos
        roots = thresholds._illinois(f, lo, hi, f(lo), f(hi), 1e-10)
        np.testing.assert_allclose(roots, [-math.pi / 2, math.pi / 2, 3 * math.pi / 2],
                                   rtol=0, atol=1e-10)

    def test_triple_root_and_far_out_bracket(self):
        # a triple root slows Illinois to a crawl, so halving takes over;
        # far out, the tolerance must grow with the spacing of floats
        f = lambda y: (y - 1e9) ** 3
        lo, hi = np.array([1e9 - 3.0]), np.array([1e9 + 5.0])
        root = thresholds._illinois(f, lo, hi, f(lo), f(hi), 1e-10)
        assert abs(root[0] - 1e9) <= 1e-10 + 4 * np.finfo(float).eps * 1e9

    def test_exact_zero_ends_the_bracket(self):
        f = lambda y: y - 0.25
        root = thresholds._illinois(f, np.array([0.0]), np.array([1.0]),
                                    np.array([-0.25]), np.array([0.75]), 1e-10)
        assert root[0] == 0.25


class TestRefinementOracle:
    """The scalar-state refinement against the array-state oracle, bit for bit."""

    @pytest.fixture
    def checked(self, monkeypatch):
        # Every refinement bd_thresholds runs is also run by the oracle on
        # the same brackets.
        brackets = []

        def both(f, lo, hi, flo, fhi, xtol):
            brackets.append(len(lo))
            return assert_same_roots(f, lo, hi, flo, fhi, xtol)

        monkeypatch.setattr(thresholds, "_illinois", both)
        return brackets

    def test_every_8pam_class_from_minus_50_to_40_db(self, checked):
        c = make_pam(8)
        for pat in CLASS_REPS:
            for snr_db in np.arange(-50.0, 40.25, 1.0):
                bd_thresholds(pat, c, ChannelParams.from_db(snr_db))
        assert len(checked) == len(CLASS_REPS) * 91
        assert sum(checked) > 0

    def test_16pam_sample(self, checked):
        c = make_pam(16)
        for pat in list(iter_patterns(16))[::643]:
            for snr_db in np.arange(-40.0, 40.25, 5.0):
                bd_thresholds(pat, c, ChannelParams.from_db(snr_db))
        assert sum(checked) > 0

    def test_triple_root_past_the_illinois_steps(self):
        f = lambda y: (y - 0.3) ** 3
        lo, hi = np.array([-1.0]), np.array([2.0])
        assert_same_roots(f, lo, hi, f(lo), f(hi))

    def test_far_out_bracket(self):
        f = lambda y: (y - 1e9) ** 3
        lo, hi = np.array([1e9 - 3.0]), np.array([1e9 + 5.0])
        assert_same_roots(f, lo, hi, f(lo), f(hi))

    def test_exact_zero(self):
        assert_same_roots(lambda y: y - 0.25, np.array([0.0]), np.array([1.0]),
                          np.array([-0.25]), np.array([0.75]))

    def test_several_brackets_and_none(self):
        lo, hi = np.array([-2.0, 0.5, 3.0]), np.array([-0.5, 2.0, 7.0])
        assert_same_roots(np.cos, lo, hi, np.cos(lo), np.cos(hi))
        assert thresholds._illinois(np.cos, [], [], [], [], 1e-10).shape == (0,)


class TestSignRegions:
    """Every 8-PAM class, across the SNRs where crossings vanish."""

    @pytest.mark.parametrize("pat", CLASS_REPS, ids=lambda p: str(p.index))
    def test_bd_never_exceeds_abd(self, pat):
        # BD is the per-bit MAP rule, so no boundary set does better.  The
        # general form starts from 1/2, so it resolves a PBER to a few ulps
        # of 1/2 (1e-15) and no finer.
        c = make_pam(8)
        for snr_db in np.arange(-10.0, 30.25, 0.5):
            params = ChannelParams.from_db(snr_db)
            bd = pber_general(pat, c, bd_thresholds(pat, c, params), params)
            assert bd <= pber_pam(pat, params) * (1 + 1e-12) + 1e-15

    @pytest.mark.parametrize("pat", CLASS_REPS, ids=lambda p: str(p.index))
    def test_crossings_obey_count_and_location_bounds(self, pat):
        c = make_pam(8)
        transitions = int(transition_mask(pat).sum())
        for snr_db in np.arange(-10.0, 30.25, 0.5):
            params = ChannelParams.from_db(snr_db)
            thr = bd_thresholds(pat, c, params)
            assert thr.size <= transitions
            assert (transitions - thr.size) % 2 == 0
            assert (thr.bits[0], thr.bits[-1]) == (pat.bits[0], pat.bits[-1])
            assert np.all(np.abs(np.diff(thr.bits)) == 1)
            t = reach(c, params)
            assert np.all((thr.betas > c.points[0] - t) & (thr.betas < c.points[-1] + t))

    def test_interval_form_agrees_with_telescoped_form(self):
        c = make_pam(8)
        for pat in CLASS_REPS:
            for snr_db in (-5.0, 0.0, 10.0):
                params = ChannelParams.from_db(snr_db)
                thr = bd_thresholds(pat, c, params)
                a = pber_general(pat, c, thr, params)
                b = pber_interval_form(pat, c, thr, params)
                assert abs(a - b) <= 1e-12

    def test_pber_matches_dense_oracle_where_crossings_vanish(self):
        c = make_pam(8)
        compared = 0
        for pat in CLASS_REPS:
            transitions = int(transition_mask(pat).sum())
            for snr_db in (-10.0, -5.0, -2.0, 1.0, 4.0):
                params = ChannelParams.from_db(snr_db)
                thr = bd_thresholds(pat, c, params)
                if thr.size == transitions:
                    continue
                got = pber_general(pat, c, thr, params)
                want = sign_region_pber(pat, c, params)
                assert got == pytest.approx(want, rel=1e-12)
                compared += 1
        assert compared >= 40
