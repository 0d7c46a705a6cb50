"""Seeded simulation tests against the closed forms."""

import bisect
import math
import sys
import threading

import numpy as np
import pytest

from pamber import (
    BitPattern,
    ChannelParams,
    Constellation,
    Labeling,
    SimConfig,
    abd_decide,
    bd_thresholds,
    enumerate_classes,
    exact_llr,
    labeling_ber,
    labeling_ber_pam,
    make_pam,
    maxlog_llr,
    named_labeling,
    pattern_from_index,
    pber_general,
    pber_pam,
    qfunc,
    sd_decide,
    simulate,
)
from pamber import montecarlo
from pamber.demod import _columns, _subsets
from pamber.montecarlo import _CHUNK, _regions
from pamber.thresholds import _crossings, _past_reach
from pamber.verify import _require_crossing_facts


class TestSimConfig:
    def test_rejects_thin_runs(self):
        with pytest.raises(ValueError, match="10\\^4"):
            SimConfig(trials=5_000, seed=1, snr_db_grid=(0.0,))

    def test_rejects_unknown_demodulator(self):
        with pytest.raises(ValueError):
            SimConfig(trials=10_000, seed=1, snr_db_grid=(0.0,), demodulator="mmse")

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            SimConfig(trials=10_000, seed=1, snr_db_grid=())

    @pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_snr(self, snr_db):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(trials=10_000, seed=1, snr_db_grid=(0.0, snr_db))

    @pytest.mark.parametrize("demod", ["sd", "abd", "bd"])
    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0])
    def test_rejects_snr_past_the_float_range_up_front(self, demod, snr_db):
        with pytest.raises(ValueError, match=f"snr_db={snr_db:g}"):
            SimConfig(trials=10_000, seed=1, snr_db_grid=(0.0, snr_db), demodulator=demod)

    def test_demodulator_names_are_exact(self):
        # labeling_ber's message: one check of the name serves both
        with pytest.raises(ValueError, match="^demodulator must be one of sd, abd, bd; got 'BD'$"):
            SimConfig(trials=10_000, seed=1, snr_db_grid=(0.0,), demodulator="BD")

    @pytest.mark.parametrize("field, value", [
        ("trials", 1e5), ("trials", "100000"), ("seed", 1.5), ("seed", 2.0),
        ("seed", True), ("seed", False), ("seed", np.True_), ("trials", True),
    ])
    def test_rejects_non_integer_counts(self, field, value):
        kwargs = {"trials": 10_000, "seed": 1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimConfig(snr_db_grid=(0.0,), **kwargs)

    def test_accepts_numpy_integers(self):
        config = SimConfig(trials=np.int64(10_000), seed=np.uint32(3), snr_db_grid=(0.0,))
        assert simulate(named_labeling("BRGC", 4), make_pam(4), config)[0].bits_sent == 20_000

    @pytest.mark.parametrize("grid", ["10", b"10", 10.0, np.float64(10.0), np.array(10.0)],
                             ids=["str", "bytes", "float", "float64", "0-d array"])
    def test_rejects_a_grid_that_is_not_a_sequence(self, grid):
        # "10" would otherwise be read character by character: 1 dB and 0 dB
        with pytest.raises(ValueError, match="^snr_db_grid must be a sequence of numbers, got "):
            SimConfig(trials=10_000, seed=1, snr_db_grid=grid)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="non-negative"):
            SimConfig(trials=10_000, seed=-1, snr_db_grid=(0.0,))


class TestDeterminism:
    def test_same_seed_same_estimates(self):
        c = make_pam(8)
        lab = named_labeling("BRGC", 8)
        config = SimConfig(trials=50_000, seed=42, snr_db_grid=(0.0, 6.0))
        first = simulate(lab, c, config)
        second = simulate(lab, c, config)
        assert [e.bit_errors for e in first] == [e.bit_errors for e in second]
        assert [e.ber for e in first] == [e.ber for e in second]

    def test_different_seeds_differ(self):
        c = make_pam(8)
        lab = named_labeling("BRGC", 8)
        a = simulate(lab, c, SimConfig(trials=50_000, seed=1, snr_db_grid=(5.0,)))
        b = simulate(lab, c, SimConfig(trials=50_000, seed=2, snr_db_grid=(5.0,)))
        assert a[0].bit_errors != b[0].bit_errors

    def test_seeded_streams_are_pinned(self):
        # bit errors of fixed seeds, frozen so that a change to the noise
        # draws or to the decision path shows up here
        c = make_pam(8)
        lab = named_labeling("BRGC", 8)
        grid = (0.0, 5.0, 10.0, 15.0)
        frozen = {
            "sd": [91362, 58715, 29258, 7212],
            "abd": [91362, 58715, 29258, 7212],
            "bd": [90565, 58516, 29257, 7212],
        }
        for demod, errors in frozen.items():
            config = SimConfig(trials=100_000, seed=1, snr_db_grid=grid,
                               demodulator=demod)
            assert [e.bit_errors for e in simulate(lab, c, config)] == errors
        config = SimConfig(trials=100_000, seed=1, snr_db_grid=(-5.0, 5.0),
                           demodulator="bd")
        pat = pattern_from_index(8, 102)
        assert [e.bit_errors for e in simulate(pat, c, config)] == [48081, 32501]

    def test_multi_chunk_streams_are_pinned(self):
        # one full chunk and a partial one; per-bit errors frozen per demodulator
        c = make_pam(8)
        lab = named_labeling("BRGC", 8)
        trials = (1 << 18) + 12_345
        frozen = {
            "sd": [23707, 47378, 89665],
            "abd": [23707, 47378, 89665],
            "bd": [23707, 47351, 89215],
        }
        for demod, errors in frozen.items():
            config = SimConfig(trials=trials, seed=3, snr_db_grid=(5.0,), demodulator=demod)
            est = simulate(lab, c, config)[0]
            assert [round(p * trials) for p in est.per_bit] == errors
            assert est.bit_errors == sum(errors)

    def test_grid_points_use_independent_streams(self):
        # estimate at 5 dB must not depend on whether 0 dB ran before it
        c = make_pam(4)
        lab = named_labeling("BRGC", 4)
        pair = simulate(lab, c, SimConfig(trials=20_000, seed=9, snr_db_grid=(0.0, 5.0)))
        # same root seed, same position in the grid
        again = simulate(lab, c, SimConfig(trials=20_000, seed=9, snr_db_grid=(0.0, 5.0)))
        assert pair[1].bit_errors == again[1].bit_errors


def _errors_per_sample(target, c, config):
    """Per-bit error rates of ``simulate``'s stream, compared one sample at a time.

    Each chunk is decided by ``sd_decide``, or by the sign of ``maxlog_llr``
    (ABD) or ``exact_llr`` (BD), and every decided label bit is compared
    with the sent one.
    """
    cols = _columns(target)  # the label of every point
    decide = {
        "sd": lambda y, params: sd_decide(y, target, c),
        "abd": lambda y, params: abd_decide(maxlog_llr(y, target, c, params)),
        "bd": lambda y, params: abd_decide(exact_llr(y, target, c, params)),
    }[config.demodulator]
    per_point = []
    children = np.random.SeedSequence(config.seed).spawn(len(config.snr_db_grid))
    for snr_db, child in zip(config.snr_db_grid, children):
        rng = np.random.default_rng(child)
        params = ChannelParams.from_db(snr_db)
        errors = np.zeros(cols.shape[1], dtype=np.int64)
        done = 0
        while done < config.trials:
            n = min(_CHUNK, config.trials - done)
            sent = rng.integers(0, c.size, n)
            y = c.points[sent] + params.noise_std * rng.standard_normal(n)
            errors += (decide(y, params) != cols[sent]).sum(axis=0)
            done += n
        per_point.append(tuple(e / config.trials for e in errors.tolist()))
    return per_point


# A labeling and a pattern on 8-PAM, and a labeling on uneven points.
TALLY_CASES = pytest.mark.parametrize("target, c", [
    (named_labeling("BRGC", 8), make_pam(8)),
    (pattern_from_index(8, 102), make_pam(8)),
    (named_labeling("NBC", 4), Constellation([-1.9, -0.35, 0.1, 1.1])),
], ids=["brgc8", "pattern102", "uneven4"])


class TestTransitionTally:
    """The transition tally equals counting label bits sample by sample."""

    @pytest.mark.parametrize("demod", ["sd", "abd", "bd"])
    @TALLY_CASES
    def test_matches_per_sample_oracle(self, target, c, demod):
        trials = (1 << 18) + 12_345
        config = SimConfig(trials=trials, seed=21, snr_db_grid=(0.0, 7.0),
                           demodulator=demod)
        got = [est.per_bit for est in simulate(target, c, config)]
        assert got == _errors_per_sample(target, c, config)

    def test_per_bit_holds_python_floats(self):
        for demod in ("sd", "abd", "bd"):
            config = SimConfig(trials=10_000, seed=1, snr_db_grid=(3.0,), demodulator=demod)
            est = simulate(named_labeling("BRGC", 8), make_pam(8), config)[0]
            assert all(type(p) is float for p in est.per_bit)
            assert "np.float64" not in repr(est)


def _kernel_codes(llr, y, target, c, params):
    """Label codes, first bit highest, from the signs of ``llr``."""
    bits = abd_decide(llr(y, target, c, params)).astype(np.int64)
    return bits @ (1 << np.arange(bits.shape[1] - 1, -1, -1))


def _bd_codes(target, c, params, y):
    """Label codes, first bit highest, of the BD regions ``simulate`` decides."""
    decide, table = _regions(target, c, params, "bd")
    bits = table[:, decide(y)].T.astype(np.int64)
    return bits @ (1 << np.arange(bits.shape[1] - 1, -1, -1))


# The 23 8-PAM class representatives and the named labelings at M = 4, 8, 16.
REGION_SWEEP = [(cls.representative, make_pam(8)) for cls in enumerate_classes(8)] + [
    (named_labeling(name, m), make_pam(m))
    for m, names in ((4, ("BRGC", "NBC", "AG")), (8, ("BRGC", "NBC", "FBC", "BSGC", "AG")),
                     (16, ("BRGC", "NBC")))
    for name in names
]
REGION_SNRS_DB = np.arange(-50.0, 40.1, 2.5)


def test_one_solve_per_target_gives_each_columns_bd_thresholds():
    # -60 dB is past the solver's reach on 8-PAM, -50 dB on 16-PAM
    for target, c in REGION_SWEEP:
        patterns = [BitPattern(col.tolist()) for col in _columns(target).T]
        for snr_db in (-60.0, *REGION_SNRS_DB):
            params = ChannelParams.from_db(snr_db)
            if _past_reach(c, params):
                with pytest.raises(ValueError) as solve:
                    _crossings(target, c, params)
                with pytest.raises(ValueError) as one:
                    bd_thresholds(patterns[0], c, params)
                assert str(solve.value) == str(one.value)
                continue
            sets = _crossings(target, c, params)
            assert len(sets) == len(patterns)
            for thr, pattern in zip(sets, patterns):
                _require_crossing_facts(pattern, thr, f"of {target} at {snr_db} dB")
                want = bd_thresholds(pattern, c, params)
                assert thr.betas.tobytes() == want.betas.tobytes(), (target, snr_db)
                assert thr.bits.tolist() == want.bits.tolist(), (target, snr_db)


class TestRegionDecisions:
    """BD decides by the regions between its solved crossings, as the signs of
    its L-values do, and by those signs alone past the solver's reach."""

    @staticmethod
    def count_kernel_samples(monkeypatch):
        seen = []
        real = montecarlo._llr_rows  # exact_llr's sample loop, unchecked

        def kernel(y, *args):
            seen.append(len(y))
            return real(y, *args)

        monkeypatch.setattr(montecarlo, "_llr_rows", kernel)
        return seen

    def test_regions_decide_as_the_kernel_on_simulated_samples(self):
        rng = np.random.default_rng(23)
        for target, c in REGION_SWEEP:
            for snr_db in REGION_SNRS_DB:
                params = ChannelParams.from_db(snr_db)
                sent = rng.integers(0, c.size, 1 << 12)
                y = c.points[sent] + params.noise_std * rng.standard_normal(sent.size)
                got = _bd_codes(target, c, params, y)
                assert np.array_equal(got, _kernel_codes(exact_llr, y, target, c, params)), \
                    (target, snr_db)

    def test_samples_at_a_crossing_follow_the_solved_crossings(self, monkeypatch):
        seen = self.count_kernel_samples(monkeypatch)
        offsets = np.array([0.0, -1e-12, 1e-12, -1e-9, 1e-9])
        for target, c in REGION_SWEEP:
            patterns = [BitPattern(col.tolist()) for col in _columns(target).T]
            for snr_db in REGION_SNRS_DB[::4]:  # every 10 dB
                params = ChannelParams.from_db(snr_db)
                if _past_reach(c, params):  # no crossings: the kernel decides every sample
                    continue
                edges = np.sort(np.concatenate([t.betas for t in _crossings(target, c, params)]))
                y = (edges[:, None] + offsets).ravel()
                decide, table = _regions(target, c, params, "bd")
                region = decide(y)
                np.testing.assert_array_equal(region, np.searchsorted(edges, y, side="left"))
                for bits, pattern in zip(table, patterns):
                    want = bd_thresholds(pattern, c, params)
                    np.testing.assert_array_equal(
                        bits[region], want.bits[np.searchsorted(want.betas, y, side="left")],
                        err_msg=f"{target}, {snr_db} dB")
        assert seen == []

    def test_simulate_within_the_solvers_reach_never_calls_the_kernel(self, monkeypatch):
        seen = self.count_kernel_samples(monkeypatch)
        config = SimConfig(trials=100_000, seed=1, snr_db_grid=(0.0, 5.0, 10.0, 15.0),
                           demodulator="bd")
        simulate(named_labeling("BRGC", 8), make_pam(8), config)
        assert seen == []

    def test_below_the_solvers_reach_the_kernel_decides_the_whole_chunk(self, monkeypatch):
        lab, c = named_labeling("BRGC", 8), make_pam(8)
        params = ChannelParams.from_db(-60.0)
        with pytest.raises(ValueError, match="too low"):
            bd_thresholds(pattern_from_index(8, 15), c, params)
        seen = self.count_kernel_samples(monkeypatch)
        rng = np.random.default_rng(60)
        sent = rng.integers(0, c.size, 1 << 12)
        y = c.points[sent] + params.noise_std * rng.standard_normal(sent.size)
        got = _bd_codes(lab, c, params, y)
        assert seen == [y.size]
        assert np.array_equal(got, _kernel_codes(exact_llr, y, lab, c, params))


class TestAccuracy:
    def test_bpsk_against_q_function(self):
        c = make_pam(2)
        pat = pattern_from_index(2, 1)
        config = SimConfig(trials=1_000_000, seed=314, snr_db_grid=(0.0,))
        est = simulate(pat, c, config)[0]
        exact = float(qfunc(math.sqrt(2.0)))
        assert abs(est.ber - exact) <= 3 * est.stderr
        assert est.bits_sent == 1_000_000
        assert est.ber == est.bit_errors / est.bits_sent

    def test_pattern_against_closed_form(self):
        c = make_pam(8)
        pat = pattern_from_index(8, 15)
        config = SimConfig(trials=1_000_000, seed=2718, snr_db_grid=(10.0,))
        est = simulate(pat, c, config)[0]
        exact = pber_pam(pat, ChannelParams(10.0))
        assert abs(est.ber - exact) <= 3 * est.stderr

    @pytest.mark.parametrize("index", [15, 60, 102])
    def test_patterns_across_the_plot_range(self, index):
        c = make_pam(8)
        pat = pattern_from_index(8, index)
        config = SimConfig(trials=200_000, seed=1000 + index,
                           snr_db_grid=(0.0, 10.0, 20.0))
        for est in simulate(pat, c, config):
            exact = pber_pam(pat, ChannelParams.from_db(est.snr_db))
            assert abs(est.ber - exact) <= 3 * est.stderr

    def test_labeling_against_closed_form(self):
        c = make_pam(8)
        lab = named_labeling("BRGC", 8)
        config = SimConfig(trials=200_000, seed=5, snr_db_grid=(0.0, 5.0, 10.0))
        for est in simulate(lab, c, config):
            exact = labeling_ber_pam(lab, ChannelParams.from_db(est.snr_db))
            assert abs(est.ber - exact) <= 3.5 * est.stderr

    def test_per_bit_average_matches_total(self):
        c = make_pam(8)
        lab = named_labeling("NBC", 8)
        config = SimConfig(trials=50_000, seed=77, snr_db_grid=(4.0,))
        est = simulate(lab, c, config)[0]
        assert np.mean(est.per_bit) == pytest.approx(est.ber, rel=1e-12)


def _draws_on_and_beside(mid: float, point: float, noise_std: float) -> list[float]:
    """Seven normal draws that ``simulate`` turns, from ``point``, into the samples
    it can reach nearest the midpoint ``mid``: three below, the first at or above
    it (``mid`` itself wherever a draw reaches it) and the three above that."""
    reached = {}  # sample -> draw; the sample grows with the draw
    start = (mid - point) / noise_std
    for direction in (-math.inf, math.inf):
        z = start
        for _ in range(256):
            reached.setdefault(z * noise_std + point, z)  # rounded as simulate's *= and +=
            z = math.nextafter(z, direction)
    samples = sorted(reached)
    first = bisect.bisect_left(samples, mid)
    assert 3 <= first <= len(samples) - 4, (mid, point, noise_std)
    return [reached[y] for y in samples[first - 3 : first + 4]]


class _FirstDraws:
    """A generator whose first draws of every chunk are ``sent`` and ``z``."""

    def __init__(self, rng, sent, z):
        self.rng, self.sent, self.z = rng, sent, z

    def integers(self, low, high, size):
        out = self.rng.integers(low, high, size)
        out[: self.sent.size] = self.sent
        return out

    def standard_normal(self, size):
        out = self.rng.standard_normal(size)
        out[: self.z.size] = self.z
        return out


class TestDemodulatorAgreement:
    def test_sd_and_abd_identical_on_shared_noise(self):
        c = make_pam(8)
        lab = named_labeling("BRGC", 8)
        grid = (0.0, 8.0)
        sd = simulate(lab, c, SimConfig(trials=100_000, seed=11, snr_db_grid=grid,
                                        demodulator="sd"))
        abd = simulate(lab, c, SimConfig(trials=100_000, seed=11, snr_db_grid=grid,
                                         demodulator="abd"))
        for a, b in zip(sd, abd):
            assert a.bit_errors == b.bit_errors
            assert a.per_bit == b.per_bit

    @TALLY_CASES
    def test_sd_and_abd_identical_with_samples_on_and_beside_the_midpoints(
            self, monkeypatch, target, c):
        # The first samples of every chunk are sent from the points below
        # the midpoints and land on them and on their nearest neighbours,
        # where rounding can flip the sign of the max-log L-value.  ABD takes
        # SD's decision there: the lower point on a midpoint, else the nearest.
        real_rng = np.random.default_rng
        sent = np.repeat(np.arange(c.size - 1), 7)
        for snr_db in (-300.0, 0.0, 7.0, 40.0):
            noise_std = ChannelParams.from_db(snr_db).noise_std
            z = np.array([draw for k, mid in enumerate(c.midpoints().tolist())
                          for draw in _draws_on_and_beside(mid, c.points[k], noise_std)])

            def default_rng(seed):
                return _FirstDraws(real_rng(seed), sent, z)

            monkeypatch.setattr(np.random, "default_rng", default_rng)
            sd, abd = (
                simulate(target, c, SimConfig(trials=10_000, seed=12, snr_db_grid=(snr_db,),
                                              demodulator=name))[0]
                for name in ("sd", "abd")
            )
            assert (abd.bit_errors, abd.per_bit) == (sd.bit_errors, sd.per_bit), snr_db

    def test_abd_neither_calls_maxlog_llr_nor_builds_a_gather_index(self, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("the max-log kernel ran")

        monkeypatch.setattr("pamber.demod._maxlog_from_rows", no_kernel)
        lab = Labeling(named_labeling("AG", 8).matrix)  # fresh: nothing derived yet
        config = SimConfig(trials=100_000, seed=5, snr_db_grid=(0.0, 5.0, 10.0),
                           demodulator="abd")
        simulate(lab, make_pam(8), config)
        assert _subsets not in vars(lab).get("_derived", {})

    def test_bd_simulation_matches_shifted_boundaries(self):
        # decisions by the sign of the exact L-value agree with the general
        # closed form evaluated at the solved boundaries
        c = make_pam(8)
        pat = pattern_from_index(8, 102)
        params = ChannelParams.from_db(2.0)
        thr = bd_thresholds(pat, c, params)
        exact = pber_general(pat, c, thr, params)
        config = SimConfig(trials=400_000, seed=6, snr_db_grid=(2.0,),
                           demodulator="bd")
        est = simulate(pat, c, config)[0]
        assert abs(est.ber - exact) <= 3 * est.stderr
        # and the midpoint rule sits measurably higher at this SNR
        assert pber_pam(pat, params) - exact > 3 * est.stderr

    def test_bd_simulation_where_crossings_vanish(self):
        # at -5 dB pattern 102 keeps two of its four crossings, and every
        # column of AG-8 has lost some of its crossings
        c = make_pam(8)
        config = SimConfig(trials=400_000, seed=8, snr_db_grid=(-5.0,),
                           demodulator="bd")
        params = ChannelParams.from_db(-5.0)
        pat = pattern_from_index(8, 102)
        est = simulate(pat, c, config)[0]
        exact = pber_general(pat, c, bd_thresholds(pat, c, params), params)
        assert abs(est.ber - exact) <= 3 * est.stderr
        lab = named_labeling("AG", 8)
        est = simulate(lab, c, config)[0]
        assert abs(est.ber - labeling_ber(lab, c, params, "bd")) <= 3 * est.stderr


class TestExtremeSnr:
    """BD needs the noise inside the L-value bound; SD and ABD answer at any SNR."""

    def test_unresolvable_snr_is_rejected_before_any_work(self, monkeypatch):
        # BD's kernel may see every sample of a point, so BD rejects the
        # point; ABD decides by the nearest point, as SD does, and answers.
        def no_work(*args):
            raise AssertionError("a chunk was demodulated")

        lab, c = named_labeling("BRGC", 8), make_pam(8)
        abd, sd = (
            simulate(lab, c, SimConfig(trials=10_000, seed=0, snr_db_grid=(0.0, -300.0),
                                       demodulator=demod))
            for demod in ("abd", "sd")
        )
        assert [e.bit_errors for e in abd] == [e.bit_errors for e in sd]
        monkeypatch.setattr(montecarlo, "_llr_rows", no_work)
        monkeypatch.setattr(montecarlo, "_crossings", no_work)
        config = SimConfig(trials=10_000, seed=0, snr_db_grid=(0.0, -300.0),
                           demodulator="bd")
        with pytest.raises(ValueError, match="snr_db=-300 is too low"):
            simulate(lab, c, config)

    @pytest.mark.parametrize("demod", ["sd", "abd"])
    def test_far_but_resolvable_snr_still_runs(self, demod):
        config = SimConfig(trials=10_000, seed=0, snr_db_grid=(-250.0,),
                           demodulator=demod)
        est = simulate(named_labeling("BRGC", 8), make_pam(8), config)[0]
        assert abs(est.ber - 0.5) <= 5 * est.stderr

    def test_bd_below_its_rounding_floor_is_rejected_before_any_work(self, monkeypatch):
        # At -250 dB the exact L-value's sign is rounding noise, not a decision.
        from pamber import montecarlo

        def no_work(*args):
            raise AssertionError("a chunk was demodulated")

        monkeypatch.setattr(montecarlo, "_llr_rows", no_work)
        monkeypatch.setattr(montecarlo, "_crossings", no_work)
        config = SimConfig(trials=10_000, seed=0, snr_db_grid=(0.0, -250.0),
                           demodulator="bd")
        with pytest.raises(ValueError, match=r"snr_db=-250 is too low for the bd .* -147\.9 dB"):
            simulate(named_labeling("BRGC", 8), make_pam(8), config)

    @pytest.mark.parametrize(("grid", "message"), [
        ((-200.0, -300.0), r"snr_db=-200 is too low for the bd demodulator"),
        ((0.0, -300.0), r"snr_db=-300 is too low for L-value demodulation"),
    ], ids=["floor-at-the-first-point", "bound-before-floor"])
    def test_bd_names_the_first_failing_point_in_grid_order(self, monkeypatch, grid,
                                                            message):
        # -200 dB fails only the BD floor; -300 dB fails the L-value bound
        # too, which is checked first at each point.
        from pamber import montecarlo

        def no_work(*args):
            raise AssertionError("a chunk was demodulated")

        monkeypatch.setattr(montecarlo, "_llr_rows", no_work)
        monkeypatch.setattr(montecarlo, "_crossings", no_work)
        config = SimConfig(trials=10_000, seed=0, snr_db_grid=grid, demodulator="bd")
        with pytest.raises(ValueError, match=message):
            simulate(named_labeling("BRGC", 8), make_pam(8), config)

    def test_2pam_bd_has_no_reach_limit_and_answers_as_sd_at_any_snr(self):
        # T = ln(M/2)/(2*snr*dmin) is 0 for two points: the solver refuses no
        # SNR, and the kernel sees only samples near the crossing at 0
        pat, c = pattern_from_index(2, 1), make_pam(2)
        grid = (-300.0, -290.0, -280.0)
        bd, sd = (
            simulate(pat, c, SimConfig(trials=10_000, seed=0, snr_db_grid=grid,
                                       demodulator=demod))
            for demod in ("bd", "sd")
        )
        assert [e.bit_errors for e in bd] == [e.bit_errors for e in sd]
        for est in bd:
            assert abs(est.ber - 0.5) <= 5 * est.stderr

    def test_bd_above_its_rounding_floor_agrees_with_sd(self):
        lab, c = named_labeling("BRGC", 8), make_pam(8)
        bd, sd = (
            simulate(lab, c, SimConfig(trials=10_000, seed=0, snr_db_grid=(-100.0,),
                                       demodulator=demod))[0]
            for demod in ("bd", "sd")
        )
        assert abs(bd.ber - sd.ber) <= 5 * math.hypot(bd.stderr, sd.stderr)

    def test_sd_stays_total(self):
        config = SimConfig(trials=10_000, seed=0, snr_db_grid=(0.0, -300.0),
                           demodulator="sd")
        est = simulate(named_labeling("BRGC", 8), make_pam(8), config)[1]
        assert abs(est.ber - 0.5) <= 5 * est.stderr


class TestParallelPoints:
    """Grid points run on a thread pool; the estimates do not depend on its size."""

    GRID = (10.0, 0.0, 15.0, 5.0)  # not sorted: results follow the grid

    @staticmethod
    def workers(monkeypatch, count):
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: count)

    @staticmethod
    def hook_chunks(monkeypatch, hook):
        """Decide every chunk ``y`` of a point by ``hook(params, y, decide)``."""
        real = montecarlo._regions

        def regions(target, c, params, demodulator):
            decide, table = real(target, c, params, demodulator)
            return (lambda y: hook(params, y, decide)), table

        monkeypatch.setattr(montecarlo, "_regions", regions)

    @pytest.mark.parametrize("demod", ["sd", "abd", "bd"])
    @pytest.mark.parametrize("target", [named_labeling("BRGC", 8), pattern_from_index(8, 102)],
                             ids=["brgc8", "pattern102"])
    def test_estimates_are_bit_identical_for_any_worker_count(self, monkeypatch, target,
                                                              demod):
        c = make_pam(8)
        config = SimConfig(trials=(1 << 18) + 999, seed=4, snr_db_grid=self.GRID,
                           demodulator=demod)
        self.workers(monkeypatch, 1)
        serial = simulate(target, c, config)
        assert [e.snr_db for e in serial] == list(self.GRID)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # many thread switches inside every point
        try:
            for count in (2, 7):  # 7 workers is more than the grid's 4 points
                self.workers(monkeypatch, count)
                assert simulate(target, c, config) == serial
        finally:
            sys.setswitchinterval(switch)

    @pytest.mark.parametrize("fresh", [lambda: Labeling(named_labeling("AG", 8).matrix),
                                       lambda: BitPattern(pattern_from_index(8, 102).bits)],
                             ids=["labeling", "pattern"])
    def test_fresh_targets_build_one_gather_index_under_any_worker_count(
            self, monkeypatch, fresh):
        # the points' crossing solves may all build the target's gather index at once
        c = make_pam(8)
        config = SimConfig(trials=20_000, seed=7, snr_db_grid=self.GRID, demodulator="bd")
        runs = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for count in (7, 2, 1):
                target = fresh()
                assert "_derived" not in vars(target)
                self.workers(monkeypatch, count)
                runs.append(simulate(target, c, config))
                assert list(vars(target)["_derived"]) == [_subsets]
        finally:
            sys.setswitchinterval(switch)
        assert runs[0] == runs[1] == runs[2]

    def test_results_follow_the_grid_when_the_first_point_finishes_last(self, monkeypatch):
        others_done = threading.Barrier(len(self.GRID), timeout=30)
        first_snr = ChannelParams.from_db(self.GRID[0]).snr

        def chunk(params, y, decide):
            if params.snr == first_snr:
                others_done.wait()  # the other points finish their only chunk first
            result = decide(y)
            if params.snr != first_snr:
                others_done.wait()
            return result

        lab, c = named_labeling("BRGC", 8), make_pam(8)
        config = SimConfig(trials=20_000, seed=4, snr_db_grid=self.GRID, demodulator="bd")
        self.workers(monkeypatch, 1)
        serial = simulate(lab, c, config)
        self.workers(monkeypatch, len(self.GRID))
        self.hook_chunks(monkeypatch, chunk)
        assert simulate(lab, c, config) == serial

    def test_an_error_in_one_point_reaches_the_caller_and_later_points_never_run(
            self, monkeypatch):
        # the error comes from the second point's crossing solve, which runs
        # once per point, for every column at once, before the point's first chunk
        real = montecarlo._crossings
        seen = []
        error = RuntimeError("solve failed")
        first, failing = (ChannelParams.from_db(s).snr for s in self.GRID[:2])

        def solve(target, c, params):
            seen.append(params.snr)
            if params.snr == failing:
                raise error
            return real(target, c, params)

        monkeypatch.setattr(montecarlo, "_crossings", solve)
        self.workers(monkeypatch, 1)
        config = SimConfig(trials=20_000, seed=4, snr_db_grid=self.GRID, demodulator="bd")
        with pytest.raises(RuntimeError) as caught:
            simulate(named_labeling("BRGC", 8), make_pam(8), config)
        assert caught.value is error
        assert seen == [first, failing]

    def test_the_first_failed_point_in_grid_order_raises(self, monkeypatch):
        first_reached, later_failed = threading.Event(), threading.Event()
        first, later = (ChannelParams.from_db(s).snr for s in self.GRID[:2])

        def chunk(params, y, decide):
            # the first point's crossing solve may end last: the later points
            # fail only once it holds a chunk, past its check of the stop
            if params.snr == first:
                first_reached.set()
                assert later_failed.wait(timeout=30)
                raise KeyError("first point")
            assert first_reached.wait(timeout=30)
            later_failed.set()
            raise KeyError("later point")

        self.hook_chunks(monkeypatch, chunk)
        self.workers(monkeypatch, len(self.GRID))
        config = SimConfig(trials=20_000, seed=4, snr_db_grid=self.GRID, demodulator="bd")
        with pytest.raises(KeyError, match="first point"):
            simulate(named_labeling("BRGC", 8), make_pam(8), config)

    def test_a_running_point_stops_at_its_next_chunk_after_a_failure(self, monkeypatch):
        first_reached, later_failed = threading.Event(), threading.Event()
        first = ChannelParams.from_db(self.GRID[0]).snr
        first_calls = []

        def chunk(params, y, decide):
            if params.snr != first:
                assert first_reached.wait(timeout=30)  # as in the test above
                later_failed.set()
                raise KeyError("later point")
            first_calls.append(len(y))
            first_reached.set()
            assert later_failed.wait(timeout=30)
            return decide(y)

        self.hook_chunks(monkeypatch, chunk)
        self.workers(monkeypatch, 2)
        config = SimConfig(trials=4 * _CHUNK, seed=4, snr_db_grid=self.GRID[:2],
                           demodulator="bd")
        with pytest.raises(KeyError, match="later point"):
            simulate(named_labeling("BRGC", 8), make_pam(8), config)
        # the failure lands while the first chunk is decided; one more chunk
        # may start before the stop is seen, not all four
        assert 1 <= len(first_calls) <= 2

    def test_points_run_under_the_callers_errstate(self, monkeypatch):
        modes = []

        def chunk(params, y, decide):
            modes.append(np.geterr()["over"])
            return decide(y)

        self.hook_chunks(monkeypatch, chunk)
        self.workers(monkeypatch, 2)
        config = SimConfig(trials=20_000, seed=4, snr_db_grid=self.GRID, demodulator="bd")
        with np.errstate(over="raise"):
            simulate(named_labeling("BRGC", 8), make_pam(8), config)
        assert modes == ["raise"] * len(self.GRID)

    def test_available_cpus_falls_back_to_cpu_count(self, monkeypatch):
        import os

        from pamber.montecarlo import _available_cpus

        if hasattr(os, "sched_getaffinity"):
            assert _available_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        assert _available_cpus() == (os.cpu_count() or 1)
