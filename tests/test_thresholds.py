"""Threshold solver tests against dense-scan oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pamber import (
    BitPattern,
    ChannelParams,
    Constellation,
    SimConfig,
    ThresholdSet,
    bd_thresholds,
    enumerate_classes,
    exact_llr,
    labeling_ber,
    make_pam,
    named_labeling,
    pattern_from_index,
    pber_general,
    pber_pam,
    simulate,
)
from pamber import analytic, thresholds
from pamber.pattern_classes import _masks_of_weight, invert_index
from pamber.verify import pber_interval_form

D4 = math.sqrt(0.2)

FIG_PATTERNS = (15, 60, 102)
CLASS_REPS = tuple(cls.representative for cls in enumerate_classes(8))


def scan_roots(pattern, constellation, params, lo, hi, samples=2_000_001):
    """Independent dense sign-scan refined by interval halving."""
    grid = np.linspace(lo, hi, samples)
    vals = exact_llr(grid, pattern, constellation, params)[..., 0]
    hits = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    roots = []
    for i in hits:
        a, b = grid[i], grid[i + 1]
        fa = exact_llr(a, pattern, constellation, params)[..., 0]
        for _ in range(60):
            mid = 0.5 * (a + b)
            fm = exact_llr(mid, pattern, constellation, params)[..., 0]
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


def assert_same_roots(f, lo, hi, flo, fhi, refine=thresholds._illinois):
    got = refine(f, lo, hi, flo, fhi)
    want = vector_illinois(f, lo, hi, flo, fhi, 1e-10)
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
    llr = exact_llr(np.array(inner), pattern, constellation, params)[..., 0]
    bits = [int(v >= 0) for v in llr]
    edges[0], edges[-1] = -math.inf, math.inf
    scale = math.sqrt(params.snr)
    total = 0.0
    for s, p in zip(constellation.points, pattern.bits):
        for a, b, bit in zip(edges[:-1], edges[1:], bits):
            if bit != p:
                total += 0.5 * (math.erfc((a - s) * scale) - math.erfc((b - s) * scale))
    return total / constellation.size


def bit_changes(pattern):
    """True between adjacent points whose bits differ."""
    return np.diff(pattern.bits) != 0


def relevance(pattern):
    """Relevance matrix of a pattern under the midpoint rule."""
    bits = pattern.as_array().astype(np.int64)
    return analytic._relevance(bits, bits)


class TestMidpoints:
    def test_four_point_values(self):
        mids = make_pam(4).midpoints()
        np.testing.assert_allclose(mids, [-2 * D4, 0.0, 2 * D4], atol=1e-15)

    def test_bpsk_single_zero(self):
        np.testing.assert_array_equal(make_pam(2).midpoints(), [0.0])

    def test_eight_point_center(self):
        assert make_pam(8).midpoints()[3] == 0.0

    def test_threshold_set_needs_one_region_bit_more(self):
        pat = pattern_from_index(4, 5)
        thr = ThresholdSet(make_pam(4).midpoints(), pat.bits)
        np.testing.assert_array_equal(thr.bits, [0, 1, 0, 1])
        assert thr.size == 3 and not thr.bits.flags.writeable
        with pytest.raises(TypeError):
            ThresholdSet(make_pam(4).midpoints())
        with pytest.raises(ValueError, match="one region bit more"):
            ThresholdSet(make_pam(4).midpoints(), [0, 1, 0])

    @pytest.mark.parametrize(("betas", "bits", "message"), [
        ([np.nan], [0, 1], "finite"),
        ([0.0, np.inf], [0, 1, 0], "finite"),
        ([-np.inf, 0.0], [0, 1, 0], "finite"),
        ([0.5, -0.5], [0, 1, 0], "non-decreasing"),
        ([[-0.5, 0.5]], [0, 1, 0], "1-D"),
        ([0.0], [5, 7], "0 or 1"),
        ([0.0], [0.5, 1], "0 or 1"),
        ([0.0], [-1, 0], "0 or 1"),
    ])
    def test_threshold_set_rejects_what_it_cannot_represent(self, betas, bits, message):
        with pytest.raises(ValueError, match=message):
            ThresholdSet(betas, bits)

    def test_threshold_set_accepts_equal_boundaries(self):
        thr = ThresholdSet([0.0, 0.0], [True, False, True])
        np.testing.assert_array_equal(thr.bits, [1, 0, 1])


class TestRelevanceMask:
    def test_hand_evaluated_columns(self):
        g = relevance(pattern_from_index(4, 3))
        np.testing.assert_array_equal(g[:, 1], [1, 1, -1, -1])
        np.testing.assert_array_equal(g[:, 0], 0)
        np.testing.assert_array_equal(g[:, 2], 0)

    def test_zero_columns_match_equal_neighbors(self):
        for w in _masks_of_weight(8, 4).tolist():
            pat = pattern_from_index(8, w)
            g = relevance(pat)
            zero_cols = ~np.any(g, axis=0)
            np.testing.assert_array_equal(zero_cols, ~bit_changes(pat))

    def test_invariant_under_inversion(self):
        # both factors flip sign, so the product is unchanged
        for w in _masks_of_weight(8, 4).tolist():
            np.testing.assert_array_equal(
                relevance(pattern_from_index(8, w)),
                relevance(pattern_from_index(8, invert_index(w, 8))),
            )


class TestBdThresholds:
    def test_solver_sets_are_what_the_checked_constructor_builds(self):
        # bd_thresholds skips ThresholdSet's checks; its arrays must pass them
        c = make_pam(8)
        for index in FIG_PATTERNS:
            for snr_db in (-10.0, 0.0, 12.0, 30.0):
                thr = bd_thresholds(pattern_from_index(8, index), c, ChannelParams.from_db(snr_db))
                checked = ThresholdSet(thr.betas, thr.bits)
                for got, want in ((thr.betas, checked.betas), (thr.bits, checked.bits)):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                    assert not got.flags.writeable

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
        gap = np.abs(thr.betas - c.midpoints()[bit_changes(pat)])
        assert gap.max() <= 1e-4

    @pytest.mark.parametrize("index", FIG_PATTERNS)
    def test_deviation_shrinks_with_snr(self, index):
        c = make_pam(8)
        pat = pattern_from_index(8, index)
        mids = c.midpoints()[bit_changes(pat)]
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
        residual = exact_llr(thr.betas, pat, c, params)[..., 0]
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
        assert abs(exact_llr(outer, pat, c, ChannelParams.from_db(0.0))[..., 0]) <= 1e-8

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

    @pytest.mark.parametrize("index", [1, 2])
    def test_bpsk_has_one_crossing_at_zero_at_every_snr(self, index):
        # For M = 2 the bound T = ln(M/2)/(2*snr*dmin) is 0: the scan stays
        # between the two points.  The closed form 1/2 + sum(g*Q)/M rounds at
        # 1/2, so a BER of Q(sqrt(2*snr)) holds to 2^-54 absolute there, and
        # to 1e-15 relative only where Q is not small (below about 3 dB).
        c, pat = make_pam(2), pattern_from_index(2, index)
        for snr_db in np.arange(-100.0, 100.5, 0.5):
            params = ChannelParams.from_db(snr_db)
            thr = bd_thresholds(pat, c, params)
            assert thr.size == 1 and abs(thr.betas[0]) <= thresholds._XTOL
            assert thr.bits.tolist() == [pat.bits[0], 1 - pat.bits[0]]
            bd = analytic.labeling_ber(pat, c, params, "bd")
            q = float(analytic.qfunc(math.sqrt(2 * params.snr)))
            assert bd == analytic.labeling_ber(pat, c, params, "abd")
            assert math.isclose(bd, q, rel_tol=1e-15, abs_tol=2**-54)

    def test_rejects_a_pattern_of_another_size(self):
        with pytest.raises(ValueError, match="sizes differ"):
            bd_thresholds(pattern_from_index(4, 3), make_pam(8), ChannelParams.from_db(10.0))

    def test_rejects_snr_below_the_resolvable_range(self):
        c = make_pam(8)
        pat = pattern_from_index(8, 102)
        assert bd_thresholds(pat, c, ChannelParams.from_db(-50.0)).size == 2
        with pytest.raises(ValueError, match="too low"):
            bd_thresholds(pat, c, ChannelParams.from_db(-60.0))


# float.hex() of the crossings as first committed; the solver must keep
# every bit of them, not merely stay within its 1e-10 tolerance.
PINNED_BETAS = {
    (102, -5.0): (
        "-0x1.c9276c599197ep+0",
        "0x1.c9276c599197ep+0",
    ),
    (102, 0.0): (
        "-0x1.9bf0bd6d5e02bp+0",
        "-0x1.6eddc9987188cp-2",
        "0x1.6eddc9987188bp-2",
        "0x1.9bf0bd6d5e02bp+0",
    ),
    (102, 10.0): (
        "-0x1.4fcfc9cc93dccp+0",
        "-0x1.bee905705d6dcp-2",
        "0x1.bee905705d6dcp-2",
        "0x1.4fcfc9cc93dccp+0",
    ),
    (102, 20.0): (
        "-0x1.4f2ec413cb52ap+0",
        "-0x1.bee9056fb9c38p-2",
        "0x1.bee9056fb9c38p-2",
        "0x1.4f2ec413cb52ap+0",
    ),
    (105, -5.0): (
        "-0x1.3572174be8156p+1",
        "-0x1.b7cd49a163c20p-35",
        "0x1.3572174be8156p+1",
    ),
    (105, 0.0): (
        "-0x1.a9f3f280a01f4p+0",
        "0x1.b7ce0ee163c20p-35",
        "0x1.a9f3f280a01f4p+0",
    ),
    (105, 10.0): (
        "-0x1.4fcfc9cd3a177p+0",
        "-0x1.b9b3e0e75464ep-2",
        "-0x1.0000000000000p-59",
        "0x1.b9b3e0e75464ep-2",
        "0x1.4fcfc9cd3a177p+0",
    ),
    (105, 20.0): (
        "-0x1.4f2ec413cb52ap+0",
        "-0x1.bee9056fb9c38p-2",
        "-0x1.2000000000000p-58",
        "0x1.bee9056fb9c38p-2",
        "0x1.4f2ec413cb52ap+0",
    ),
}
PINNED_UNEVEN_BETAS = (
    "-0x1.1ff484080f233p+0",
    "-0x1.ffec5bf188b88p-4",
    "0x1.328748da5bb8ap-1",
)


class TestPinnedBits:
    @pytest.mark.parametrize("index, snr_db", sorted(PINNED_BETAS))
    def test_8pam_crossings_keep_their_bits(self, index, snr_db):
        thr = bd_thresholds(pattern_from_index(8, index), make_pam(8),
                            ChannelParams.from_db(snr_db))
        assert [float(b).hex() for b in thr.betas] == list(PINNED_BETAS[index, snr_db])

    def test_uneven_crossings_keep_their_bits(self):
        uneven = Constellation(points=[-1.9, -0.35, 0.1, 1.1])
        thr = bd_thresholds(pattern_from_index(4, 5), uneven, ChannelParams.from_db(8.0))
        assert [float(b).hex() for b in thr.betas] == list(PINNED_UNEVEN_BETAS)


class TestTargetType:
    def test_labeling_is_rejected(self):
        # a labeling is not read as its first column
        lab = named_labeling("BRGC", 8)
        with pytest.raises(TypeError, match="BitPattern"):
            bd_thresholds(lab, make_pam(8), ChannelParams.from_db(10.0))

    def test_bit_tuple_is_rejected(self):
        with pytest.raises(TypeError, match="BitPattern"):
            bd_thresholds((0, 0, 1, 1), make_pam(4), ChannelParams.from_db(10.0))


class TestRefinement:
    """The vectorised bracket refinement on functions with known roots."""

    def test_refines_many_brackets_at_once(self):
        lo = np.array([-2.0, 0.5, 3.0])
        hi = np.array([-0.5, 2.0, 7.0])
        f = np.cos
        roots = thresholds._illinois(f, lo, hi, f(lo), f(hi))
        np.testing.assert_allclose(roots, [-math.pi / 2, math.pi / 2, 3 * math.pi / 2],
                                   rtol=0, atol=1e-10)

    def test_triple_root_and_far_out_bracket(self):
        # a triple root slows Illinois to a crawl, so halving takes over;
        # far out, the tolerance must grow with the spacing of floats
        f = lambda y: (y - 1e9) ** 3
        lo, hi = np.array([1e9 - 3.0]), np.array([1e9 + 5.0])
        root = thresholds._illinois(f, lo, hi, f(lo), f(hi))
        assert abs(root[0] - 1e9) <= 1e-10 + 4 * np.finfo(float).eps * 1e9

    def test_exact_zero_ends_the_bracket(self):
        f = lambda y: y - 0.25
        root = thresholds._illinois(f, np.array([0.0]), np.array([1.0]),
                                    np.array([-0.25]), np.array([0.75]))
        assert root[0] == 0.25


class TestRefinementOracle:
    """The scalar-state refinement against the array-state oracle, bit for bit."""

    @pytest.fixture
    def checked(self, monkeypatch):
        # Every refinement bd_thresholds runs is also run by the oracle on
        # the same brackets.
        brackets = []

        def both(f, lo, hi, flo, fhi):
            brackets.append(len(lo))
            return assert_same_roots(f, lo, hi, flo, fhi)

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
        for w in _masks_of_weight(16, 8).tolist()[::643]:
            pat = pattern_from_index(16, w)
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
        assert thresholds._illinois(np.cos, [], [], [], []).shape == (0,)


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
        transitions = int(bit_changes(pat).sum())
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
            transitions = int(bit_changes(pat).sum())
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


def refined_scan_roots(pattern, constellation, params, per_gap=2048, outer=20_000):
    """Crossings from a scan of ``per_gap`` even steps in every gap between points and
    ``outer`` geometric steps beyond them out to T, each refined by 60 halvings, and
    the bit of the leftmost region (1 where the L-value is >= 0)."""
    points, t = constellation.points, reach(constellation, params)
    inner = points[:-1, None] + np.diff(points)[:, None] * (np.arange(per_gap) / per_gap)
    far = np.geomspace(constellation.dmin / per_gap, max(t, constellation.dmin), outer)
    grid = np.concatenate((points[0] - far[::-1], inner.ravel(), points[-1:], points[-1] + far))

    def llr(y):
        return exact_llr(y, pattern, constellation, params)[..., 0]

    values = llr(grid)
    grid, values = grid[values != 0], values[values != 0]
    hits = np.nonzero((values[:-1] < 0) != (values[1:] < 0))[0]
    lo, hi, flo = grid[hits], grid[hits + 1], values[hits]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fmid = llr(mid)
        left = (fmid < 0) == (flo < 0)
        lo, flo, hi = np.where(left, mid, lo), np.where(left, fmid, flo), np.where(left, hi, mid)
    return 0.5 * (lo + hi), int(values[0] >= 0)


def tail_pber(pattern, constellation, betas, first_bit, params):
    """PBER of the regions between ``betas``, their bits alternating from ``first_bit``.

    Each term is the Gaussian mass of one region, taken from the tail on its
    far side of the point, so a PBER far below 1e-16 keeps its relative accuracy.
    """
    edges = [-math.inf, *np.asarray(betas).tolist(), math.inf]
    scale = math.sqrt(params.snr)
    total = 0.0
    for s, p in zip(constellation.points.tolist(), pattern.bits):
        for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            if (first_bit + k) % 2 == p:
                continue
            u, v = (a - s) * scale, (b - s) * scale
            if u >= 0:
                total += 0.5 * (math.erfc(u) - math.erfc(v))
            elif v <= 0:
                total += 0.5 * (math.erfc(-v) - math.erfc(-u))
            else:
                total += 1.0 - 0.5 * (math.erfc(-u) + math.erfc(v))
    return total / constellation.size


# 8 points with three gaps far below the even scan step of 512 samples
CLUSTERED_POINTS = np.array([-3.0, -2.0, -1.0, 0.0, 0.003, 0.006, 0.009, 3.0])
CLUSTERED = Constellation(CLUSTERED_POINTS / math.sqrt(np.mean(CLUSTERED_POINTS**2)))
CLUSTERED_PATTERN = BitPattern((0, 1, 1, 0, 1, 0, 0, 1))


class TestClusteredPoints:
    """Two crossings within one even scan step, on points a tenth of a step apart."""

    @pytest.mark.parametrize("snr_db", [60.0, 70.0])
    def test_every_crossing_is_found(self, snr_db):
        params = ChannelParams.from_db(snr_db)
        thr = bd_thresholds(CLUSTERED_PATTERN, CLUSTERED, params)
        oracle, first_bit = refined_scan_roots(CLUSTERED_PATTERN, CLUSTERED, params)
        assert thr.size == oracle.size == 5
        np.testing.assert_allclose(thr.betas, oracle, rtol=0, atol=1e-9)
        assert thr.bits[0] == first_bit

    def test_bd_never_exceeds_abd(self):
        params = ChannelParams.from_db(60.0)
        bd, abd = (labeling_ber(CLUSTERED_PATTERN, CLUSTERED, params, demod)
                   for demod in ("bd", "abd"))
        assert 0.0527 < bd <= abd + 1e-15

    def test_seeded_bd_simulation_agrees_with_the_closed_forms(self):
        # BD and ABD differ by 1e-7 here, far inside the 5-sigma interval
        params = ChannelParams.from_db(60.0)
        config = SimConfig(trials=200_000, seed=0, snr_db_grid=(60.0,), demodulator="bd")
        est = simulate(CLUSTERED_PATTERN, CLUSTERED, config)[0]
        for demod in ("bd", "abd"):
            exact = labeling_ber(CLUSTERED_PATTERN, CLUSTERED, params, demod)
            assert abs(est.ber - exact) <= 5 * est.stderr, demod


@st.composite
def clustered_cases(draw):
    """Sorted unit-energy points with log-uniform gaps in [e^-7, 1], a balanced
    pattern and an SNR from 0 to 80 dB."""
    m = draw(st.sampled_from([4, 8]))
    gaps = np.exp(draw(st.lists(st.floats(-7.0, 0.0), min_size=m - 1, max_size=m - 1)))
    points = np.concatenate(([0.0], np.cumsum(gaps)))
    points -= points.mean()
    pattern = BitPattern(tuple(draw(st.permutations([0, 1] * (m // 2)))))
    snr_db = draw(st.floats(0.0, 80.0))
    return Constellation(points / math.sqrt(np.mean(points**2))), pattern, snr_db


@settings(max_examples=50, deadline=None, derandomize=True)
@given(clustered_cases())
def test_crossings_are_complete_on_random_constellations(case):
    c, pattern, snr_db = case
    params = ChannelParams.from_db(snr_db)
    assume(not thresholds._past_reach(c, params))
    thr = bd_thresholds(pattern, c, params)
    oracle, first_bit = refined_scan_roots(pattern, c, params)
    got = tail_pber(pattern, c, thr.betas, int(thr.bits[0]), params)
    want = tail_pber(pattern, c, oracle, first_bit, params)
    assert got == pytest.approx(want, rel=1e-9)
    if oracle.size < 2 or np.diff(oracle).min() >= 1e-6:
        assert thr.size == oracle.size
    # BD is the per-bit MAP rule; the general form resolves a PBER to 1e-15
    bd = pber_general(pattern, c, thr, params)
    abd = pber_general(pattern, c, ThresholdSet(c.midpoints(), pattern.bits), params)
    assert bd <= abd * (1 + 1e-12) + 1e-15
