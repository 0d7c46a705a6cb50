"""Demodulator tests: hard decisions, exact and max-log L-values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamber import (
    BitPattern,
    ChannelParams,
    Constellation,
    Labeling,
    abd_decide,
    bd_thresholds,
    exact_llr,
    make_pam,
    maxlog_llr,
    named_labeling,
    pattern_from_index,
    sd_decide,
)
from pamber.demod import _exact_few, _exact_from_rows, _nearest, _subsets
from pamber.labeling_space import sample_labelings
from pamber.pattern_classes import _masks_of_weight, invert_index, reflect_index


def naive_exact_llr(y, pattern, constellation, snr):
    """Direct two-sum evaluation; only safe at moderate exponents."""
    pts = constellation.points
    num = sum(math.exp(-snr * (y - x) ** 2) for x, b in zip(pts, pattern.bits) if b)
    den = sum(
        math.exp(-snr * (y - x) ** 2) for x, b in zip(pts, pattern.bits) if not b
    )
    return math.log(num / den)


def naive_maxlog_llr(y, pattern, constellation, snr):
    pts = constellation.points
    best1 = min((y - x) ** 2 for x, b in zip(pts, pattern.bits) if b)
    best0 = min((y - x) ** 2 for x, b in zip(pts, pattern.bits) if not b)
    return snr * (best0 - best1)


def _maxlog_from_splits(sq_one, sq_zero, snr):
    return snr * (sq_zero.min(axis=-1) - sq_one.min(axis=-1))


def _exact_from_splits(sq_one, sq_zero, snr):
    s1 = np.sort(sq_one, axis=-1)
    s0 = np.sort(sq_zero, axis=-1)
    m1 = s1[..., 0]
    m0 = s0[..., 0]
    c1 = np.log(np.exp(-snr * (s1 - m1[..., None])).sum(axis=-1))
    c0 = np.log(np.exp(-snr * (s0 - m0[..., None])).sum(axis=-1))
    return snr * (m0 - m1) + (c1 - c0)


def sort_oracle(split_kernel, y, labeling, constellation, snr):
    """Reference L-values from per-bit splits of a sample-major array, np.sort.

    For two or more samples each split is an F-ordered copy, so the sum in
    ``_exact_from_splits`` adds the sorted terms left to right; for a
    single sample numpy sums a contiguous row in its own order
    instead, so only multi-sample calls serve as the reference.
    """
    y = np.asarray(y, dtype=float)
    sq = (y[..., None] - constellation.points) ** 2
    out = np.empty(y.shape + (labeling.n_bits,))
    for j in range(labeling.n_bits):
        ones = labeling.matrix[:, j].astype(bool)
        out[..., j] = split_kernel(sq[..., ones], sq[..., ~ones], snr)
    return out


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert (got.view(np.int64) == want.view(np.int64)).all()


class TestChannelParams:
    def test_db_round_trip(self):
        for db in (-7.5, 0.0, 3.0, 21.7):
            snr = ChannelParams.from_db(db).snr
            assert 10 * math.log10(snr) == pytest.approx(db, abs=1e-12)

    def test_db_examples(self):
        assert ChannelParams.from_db(10.0).snr == pytest.approx(10.0, rel=1e-15)
        assert ChannelParams.from_db(0.0).snr == 1.0

    def test_noise_variance(self):
        p = ChannelParams(4.0)
        assert p.noise_std**2 == pytest.approx(1 / (2 * p.snr), rel=1e-15)
        assert p.noise_std == pytest.approx(math.sqrt(0.125), rel=1e-15)

    @pytest.mark.parametrize("snr", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_snr(self, snr):
        with pytest.raises(ValueError):
            ChannelParams(snr)

    @pytest.mark.parametrize("db", [4000.0, -4000.0, np.float64(4000.0), 5000])
    def test_from_db_rejects_out_of_range_db(self, db):
        # 10^(db/10) overflows or underflows a float
        with pytest.raises(ValueError, match=f"snr_db={float(db):g} has no positive finite"):
            ChannelParams.from_db(db)


class TestNonFiniteObservations:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_every_demodulator_rejects(self, bad):
        c = make_pam(8)
        lab = named_labeling("BRGC", 8)
        pat = pattern_from_index(8, 102)
        params = ChannelParams(2.0)
        calls = (
            lambda y: sd_decide(y, lab, c),
            lambda y: sd_decide(y, pat, c),
            lambda y: exact_llr(y, lab, c, params),
            lambda y: maxlog_llr(y, lab, c, params),
            lambda y: exact_llr(y, pat, c, params)[..., 0],
            lambda y: maxlog_llr(y, pat, c, params)[..., 0],
        )
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call(bad)
            with pytest.raises(ValueError, match="finite"):
                call(np.array([0.1, bad, -0.3]))
        # a target of the wrong size or type is rejected before y is read
        for target, error in ((named_labeling("BRGC", 4), ValueError),
                              (pattern_from_index(4, 5), ValueError),
                              (lab.matrix, TypeError),
                              (102, TypeError)):
            for call in (lambda: sd_decide(bad, target, c),
                         lambda: exact_llr(bad, target, c, params),
                         lambda: maxlog_llr(bad, target, c, params)):
                with pytest.raises(error, match="target"):
                    call()


class TestHugeObservations:
    """The L-value kernels need ``|y| + max|x| <= dmin/(8*eps)``."""

    def test_values_up_to_1e12_are_unchanged(self):
        c = make_pam(8)
        lab = named_labeling("BRGC", 8)
        params = ChannelParams.from_db(10.0)
        y = np.array([-1e12, -3e11, 3e11, 1e12])
        for new, split in ((exact_llr, _exact_from_splits),
                           (maxlog_llr, _maxlog_from_splits)):
            got = new(y, lab, c, params)
            assert_same_bits(got, sort_oracle(split, y, lab, c, params.snr))
            np.testing.assert_array_equal(abd_decide(got), sd_decide(y, lab, c))
            for i, yv in enumerate(y):
                assert_same_bits(new(yv, lab, c, params), got[i])

    @pytest.mark.parametrize("far", [1e16, -1e16, 1e200, -1e200])
    def test_rejected_beyond_the_bound(self, far):
        c = make_pam(8)
        lab = named_labeling("BRGC", 8)
        pat = pattern_from_index(8, 102)
        params = ChannelParams.from_db(10.0)
        calls = (
            lambda y: exact_llr(y, lab, c, params),
            lambda y: maxlog_llr(y, lab, c, params),
            lambda y: exact_llr(y, pat, c, params)[..., 0],
            lambda y: maxlog_llr(y, pat, c, params)[..., 0],
        )
        with np.errstate(all="raise"):
            for call in calls:
                for y in (far, np.array([0.1, far])):
                    with pytest.raises(ValueError, match="too large"):
                        call(y)
        # the hard decision stays total: the label of the end point
        end = lab.matrix[-1] if far > 0 else lab.matrix[0]
        np.testing.assert_array_equal(sd_decide(far, lab, c), end)

    def test_bound_is_dmin_over_8_eps(self):
        eps = np.finfo(float).eps
        for m_points in (2, 8, 64):
            c = make_pam(m_points)
            lab = named_labeling("NBC", m_points)
            params = ChannelParams.from_db(0.0)
            edge = np.diff(c.points).min() / (8 * eps) - c.points[-1]
            y = np.array([-edge, edge])
            # ABD still decides as SD at the edge; one step past it is refused
            decided = abd_decide(maxlog_llr(y, lab, c, params))
            np.testing.assert_array_equal(decided, sd_decide(y, lab, c))
            with pytest.raises(ValueError, match="too large"):
                exact_llr(edge * (1 + 4 * eps), lab, c, params)


class TestSortOracle:
    """The point-major kernels reproduce the sort-based L-values bit for bit."""

    @pytest.mark.parametrize("m_points", [2, 4, 8, 16, 32, 64])
    def test_bit_identical(self, m_points):
        c = make_pam(m_points)
        y = np.concatenate(
            (np.linspace(-40.0, 40.0, 321), np.linspace(-3.0, 3.0, 241),
             c.points, c.midpoints(), [-1e12, 1e12])
        )
        grid = y[: 24 * (y.size // 24)].reshape(24, -1)
        for name in ("BRGC", "NBC"):
            lab = named_labeling(name, m_points)
            for snr_db in range(-30, 51, 5):
                params = ChannelParams.from_db(snr_db)
                for new, split in ((exact_llr, _exact_from_splits),
                                   (maxlog_llr, _maxlog_from_splits)):
                    want = sort_oracle(split, y, lab, c, params.snr)
                    assert_same_bits(new(y, lab, c, params), want)
                    assert_same_bits(new(grid, lab, c, params),
                                     sort_oracle(split, grid, lab, c, params.snr))
                    # a single sample gets the bits it gets inside a batch
                    for i in range(0, y.size, 37):
                        assert_same_bits(new(float(y[i]), lab, c, params), want[i])

    def test_antisymmetric_patterns_vanish_at_the_centre(self):
        # reflection equals inversion: the L-value is odd in y, and the
        # sorted sums make it exactly 0 at y = 0
        c = make_pam(8)
        odd = [w for w in _masks_of_weight(8, 4).tolist()
               if reflect_index(w, 8) == invert_index(w, 8)]
        assert len(odd) == 16
        for snr_db in (-30.0, 0.0, 10.0, 50.0):
            params = ChannelParams.from_db(snr_db)
            for w in odd:
                assert exact_llr(0.0, pattern_from_index(8, w), c, params)[..., 0] == 0.0
        # pattern 102 reads the same reflected, so its L-value is even in y
        # instead: equal bit for bit at y and -y (nonzero at the centre)
        pat = pattern_from_index(8, 102)
        y = np.linspace(0.0, 3.0, 151)
        for snr_db in (-30.0, 0.0, 10.0, 50.0):
            params = ChannelParams.from_db(snr_db)
            assert_same_bits(exact_llr(-y, pat, c, params)[..., 0],
                             exact_llr(y, pat, c, params)[..., 0])


@st.composite
def few_sample_cases(draw):
    """A constellation of 2 to 64 points, PAM or clustered, a labeling on it,
    an SNR from -54 to 60 dB and 1 to 7 samples, each with a column, within
    ``[s_0 - T, s_{M-1} + T]`` or across the points alone."""
    m_points = draw(st.sampled_from([2, 4, 8, 16, 64]))
    if draw(st.booleans()):
        c = make_pam(m_points)
    else:  # log-uniform gaps in [e^-7, 1]
        gaps = np.exp(draw(st.lists(st.floats(-7.0, 0.0), min_size=m_points - 1,
                                    max_size=m_points - 1)))
        c = Constellation(np.concatenate(([0.0], np.cumsum(gaps))))
    n_bits = m_points.bit_length() - 1
    labels = np.array(draw(st.permutations(range(m_points))))
    lab = Labeling((labels[:, None] >> np.arange(n_bits - 1, -1, -1)) & 1)
    params = ChannelParams.from_db(draw(st.floats(-54.0, 60.0)))
    low, high = c.points[0], c.points[-1]
    reach = math.log(m_points / 2) / (2 * params.snr * c.dmin)
    samples = draw(st.lists(st.tuples(st.booleans(), st.floats(0.0, 1.0),
                                      st.integers(0, n_bits - 1)), min_size=1, max_size=7))
    ys = [low + u * (high - low) if inner else low - reach + u * (high - low + 2 * reach)
          for inner, u, _ in samples]
    return c, lab, params, ys, [j for _, _, j in samples]


class TestFewSamples:
    """The float evaluator of a few samples against the block kernel."""

    @given(few_sample_cases())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_bit_identical_to_the_kernel(self, case):
        c, lab, params, ys, cols = case
        subsets = _subsets(lab)
        block = np.empty((lab.n_bits, len(ys)))
        rows = np.square(np.array(ys) - c.points[:, None]).take(subsets, axis=0)
        _exact_from_rows(rows, params.snr, block)
        splits = c.points[subsets].transpose(1, 2, 0).tolist()
        got = _exact_few(ys, [splits[j] for j in cols], params.snr)
        assert np.array(got).tobytes() == block[cols, range(len(ys))].tobytes()


class TestSdDecide:
    def test_noiseless_identity(self):
        c = make_pam(4)
        lab = named_labeling("BRGC", 4)
        np.testing.assert_array_equal(sd_decide(c.points[1], lab, c), [0, 1])

    def test_far_right_is_top_label(self):
        c = make_pam(4)
        lab = named_labeling("BRGC", 4)
        np.testing.assert_array_equal(sd_decide(1e6, lab, c), [1, 0])

    def test_midpoint_tie_goes_low(self):
        c = make_pam(8)
        lab = named_labeling("NBC", 8)
        # exact center is the midpoint between points 4 and 5, whose NBC
        # labels differ in every bit
        np.testing.assert_array_equal(sd_decide(0.0, lab, c), lab.matrix[3])

    def test_vectorized_matches_scalar(self):
        c = make_pam(8)
        lab = named_labeling("BRGC", 8)
        y = np.linspace(-2, 2, 101)
        batch = sd_decide(y, lab, c)
        for i, yv in enumerate(y):
            np.testing.assert_array_equal(batch[i], sd_decide(yv, lab, c))


def _tie_inputs(c):
    """Every midpoint, its neighbouring floats on both sides, zeros, far values.

    4M + 2 values, so that they also fill two rows.
    """
    mids = c.midpoints()
    return np.concatenate([
        mids, np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf),
        c.points, [0.0, -0.0, 1e300, -1e300, 0.25],
    ])


NEAREST_CASES = [
    (make_pam(m), named_labeling("NBC", m)) for m in (2, 4, 8, 16, 64)
] + [(Constellation([-1.9, -0.35, 0.1, 1.1]), named_labeling("BRGC", 4))]


class TestNearestPoint:
    """The edge count of every demodulator equals a binary search, ties included."""

    @pytest.mark.parametrize("c, lab", NEAREST_CASES,
                             ids=["M2", "M4", "M8", "M16", "M64", "uneven4"])
    def test_matches_searchsorted(self, c, lab):
        y = _tie_inputs(c)
        shapes = [(), (), (), (y.size,), (2, y.size // 2)]
        samples = [np.float64(0.0), np.float64(-0.0), y[len(y) // 3], y, y.reshape(2, -1)]
        for want_shape, sample in zip(shapes, samples):
            oracle = np.searchsorted(c.midpoints(), sample, side="left")
            got = _nearest(sample, c.midpoints())
            assert got.shape == want_shape
            assert got.dtype == np.min_scalar_type(c.size - 1)
            np.testing.assert_array_equal(got, oracle)
            np.testing.assert_array_equal(sd_decide(sample, lab, c), lab.matrix[oracle])
        for scalar in y:  # each input alone, as a Python float
            assert _nearest(float(scalar), c.midpoints()) == np.searchsorted(
                c.midpoints(), scalar, side="left")

    def test_counts_merged_bd_edges(self):
        # the merged crossings of AG-8 at 10 dB: more edges than midpoints
        c, lab = make_pam(8), named_labeling("AG", 8)
        params = ChannelParams.from_db(10.0)
        edges = np.sort(np.concatenate([
            bd_thresholds(BitPattern(col.tolist()), c, params).betas for col in lab.matrix.T
        ]))
        assert edges.size > c.size - 1
        y = np.concatenate([edges, np.nextafter(edges, -np.inf),
                            np.nextafter(edges, np.inf), c.points, [0.0, -0.0, 1e300]])
        got = _nearest(y, edges)
        assert got.dtype == np.min_scalar_type(edges.size)
        np.testing.assert_array_equal(got, np.searchsorted(edges, y, side="left"))

    def test_signed_zeros_decide_alike(self):
        c = make_pam(8)  # 0.0 is the centre midpoint
        assert _nearest(-0.0, c.midpoints()) == _nearest(0.0, c.midpoints()) == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        # sd_decide checks its samples; _nearest trusts them
        for y in (bad, np.array([[0.1, bad], [0.0, 2.0]])):
            with pytest.raises(ValueError, match="finite"):
                sd_decide(y, named_labeling("BRGC", 8), make_pam(8))


class TestExactLlr:
    def test_symmetric_pattern_zero_at_center(self):
        c = make_pam(8)
        p15 = pattern_from_index(8, 15)
        assert exact_llr(0.0, p15, c, ChannelParams(3.7))[..., 0] == 0.0

    def test_matches_naive_sums(self):
        c = make_pam(4)
        lab = named_labeling("BRGC", 4)
        params = ChannelParams(1.0)
        got = exact_llr(0.3, lab, c, params)
        expected = [
            naive_exact_llr(0.3, BitPattern(tuple(col)), c, 1.0) for col in lab.matrix.T
        ]
        np.testing.assert_allclose(got, expected, rtol=1e-13)
        # frozen values for this exact case
        np.testing.assert_allclose(
            got, [0.7216877203916647, 1.3415057547523557], rtol=1e-13
        )
        # the single-pattern L-value is column j of the labeling's, bit for bit
        c8 = make_pam(8)
        y = np.linspace(-2.0, 2.0, 161)
        for name in ("AG", "BRGC"):
            lab = named_labeling(name, 8)
            cols = exact_llr(y, lab, c8, params)
            at = exact_llr(0.3, lab, c8, params)
            for j, col in enumerate(lab.matrix.T):
                pat = BitPattern(tuple(col))
                assert (exact_llr(y, pat, c8, params)[..., 0] == cols[:, j]).all()
                assert exact_llr(0.3, pat, c8, params)[..., 0] == at[j]

    def test_sign_far_beyond_top_point(self):
        c = make_pam(8)
        params = ChannelParams(2.0)
        for w in _masks_of_weight(8, 4).tolist():
            pat = pattern_from_index(8, w)
            val = exact_llr(10.0, pat, c, params)[..., 0]
            assert (val > 0) == bool(pat.bits[-1])

    def test_no_overflow_at_huge_exponents(self):
        c = make_pam(8)
        pat = pattern_from_index(8, 102)
        params = ChannelParams(2500.0)
        with np.errstate(over="raise"):
            val = exact_llr(c.points[-1] + 20.0, pat, c, params)[..., 0]
        assert math.isfinite(val)
        assert params.snr * (c.points[-1] + 20.0 - c.points[0]) ** 2 > 1e6

    @given(
        w=st.sampled_from(_masks_of_weight(8, 4).tolist()),
        y=st.floats(-3.0, 3.0),
        snr=st.floats(0.05, 50.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_inversion_negates(self, w, y, snr):
        c = make_pam(8)
        params = ChannelParams(snr)
        pat = pattern_from_index(8, w)
        a = exact_llr(y, pat, c, params)[..., 0]
        b = exact_llr(y, pattern_from_index(8, invert_index(w, 8)), c, params)[..., 0]
        assert a == -b  # numerator and denominator swap exactly

    @given(
        w=st.sampled_from(_masks_of_weight(8, 4).tolist()),
        y=st.floats(-3.0, 3.0),
        snr=st.floats(0.05, 50.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_reflection_covariance(self, w, y, snr):
        c = make_pam(8)
        params = ChannelParams(snr)
        pat = pattern_from_index(8, w)
        a = exact_llr(y, pat, c, params)[..., 0]
        b = exact_llr(-y, pattern_from_index(8, reflect_index(w, 8)), c, params)[..., 0]
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


class TestMaxlogLlr:
    def test_zero_at_center_for_brgc_first_bit(self):
        c = make_pam(4)
        lab = named_labeling("BRGC", 4)
        vals = maxlog_llr(0.0, lab, c, ChannelParams(1.0))
        assert vals[0] == 0.0

    def test_sign_at_constellation_points(self):
        c = make_pam(8)
        for name in ("BRGC", "NBC", "FBC"):
            lab = named_labeling(name, 8)
            vals = maxlog_llr(c.points, lab, c, ChannelParams(2.0))
            decided = abd_decide(vals)
            np.testing.assert_array_equal(decided, lab.matrix)

    def test_matches_subset_minimization(self):
        c = make_pam(8)
        pat = pattern_from_index(8, 60)
        got = maxlog_llr(0.5, pat, c, ChannelParams(1.0))[..., 0]
        assert got == pytest.approx(naive_maxlog_llr(0.5, pat, c, 1.0), rel=1e-14)
        assert got == pytest.approx(0.325468981432777, rel=1e-12)
        # the single-pattern L-value is column j of the labeling's, bit for bit
        y = np.linspace(-2.0, 2.0, 161)
        params = ChannelParams(1.0)
        for name in ("AG", "BRGC"):
            lab = named_labeling(name, 8)
            cols = maxlog_llr(y, lab, c, params)
            at = maxlog_llr(0.5, lab, c, params)
            for j, bits in enumerate(lab.matrix.T):
                col = BitPattern(tuple(bits))
                assert (maxlog_llr(y, col, c, params)[..., 0] == cols[:, j]).all()
                assert maxlog_llr(0.5, col, c, params)[..., 0] == at[j]

    def test_converges_to_exact_llr(self):
        # away from every pairwise midpoint the max-log error shrinks like
        # exp(-snr * gap); at snr = 100 it is far below 1e-6 * snr
        c = make_pam(8)
        pts = c.points
        pairmids = np.array(
            [(a + b) / 2 for i, a in enumerate(pts) for b in pts[i + 1 :]]
        )
        y = np.linspace(pts[0] - 1, pts[-1] + 1, 801)
        y = y[np.abs(y[:, None] - pairmids[None, :]).min(axis=1) > 0.15]
        params = ChannelParams(100.0)
        for w in (15, 60, 102, 43, 85):
            pat = pattern_from_index(8, w)
            gap = np.abs(
                exact_llr(y, pat, c, params)[..., 0]
                - maxlog_llr(y, pat, c, params)[..., 0]
            )
            assert gap.max() / params.snr <= 1e-6


class TestAbdDecide:
    def test_zero_maps_to_one(self):
        np.testing.assert_array_equal(abd_decide([0.0]), [1])

    def test_sign_rule(self):
        np.testing.assert_array_equal(abd_decide([-3.2, 0.1]), [0, 1])

    @pytest.mark.parametrize("snr_db", [-5.0, 0.0, 10.0])
    def test_matches_sd_on_random_samples(self, snr_db):
        c = make_pam(8)
        lab = named_labeling("BRGC", 8)
        rng = np.random.default_rng(1234)
        y = rng.uniform(c.points[0] - 2, c.points[-1] + 2, 100_000)
        params = ChannelParams.from_db(snr_db)
        abd = abd_decide(maxlog_llr(y, lab, c, params))
        np.testing.assert_array_equal(abd, sd_decide(y, lab, c))

    def test_matches_sd_for_random_labelings(self):
        c = make_pam(8)
        rng = np.random.default_rng(77)
        params = ChannelParams.from_db(5.0)
        for lab in sample_labelings(8, 3, seed=5):
            y = rng.uniform(-3, 3, 50_000)
            abd = abd_decide(maxlog_llr(y, lab, c, params))
            np.testing.assert_array_equal(abd, sd_decide(y, lab, c))
