"""Seeded simulation tests against the closed forms."""

import math

import numpy as np
import pytest

from pamber import (
    ChannelParams,
    SimConfig,
    bd_thresholds,
    labeling_ber,
    labeling_ber_pam,
    make_pam,
    named_labeling,
    pattern_from_index,
    pber_general,
    pber_pam,
    qfunc,
    simulate,
)


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

    def test_grid_points_use_independent_streams(self):
        # estimate at 5 dB must not depend on whether 0 dB ran before it
        c = make_pam(4)
        lab = named_labeling("BRGC", 4)
        pair = simulate(lab, c, SimConfig(trials=20_000, seed=9, snr_db_grid=(0.0, 5.0)))
        # same root seed, same position in the grid
        again = simulate(lab, c, SimConfig(trials=20_000, seed=9, snr_db_grid=(0.0, 5.0)))
        assert pair[1].bit_errors == again[1].bit_errors


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
    """L-value demodulators need the noise inside the L-value bound."""

    def test_unresolvable_snr_is_rejected_before_any_work(self, monkeypatch):
        from pamber import montecarlo

        def no_work(*args):
            raise AssertionError("a chunk was demodulated")

        monkeypatch.setattr(montecarlo, "maxlog_llr", no_work)
        monkeypatch.setattr(montecarlo, "exact_llr", no_work)
        lab, c = named_labeling("BRGC", 8), make_pam(8)
        for demod in ("abd", "bd"):
            config = SimConfig(trials=10_000, seed=0, snr_db_grid=(0.0, -300.0),
                               demodulator=demod)
            with pytest.raises(ValueError, match="snr_db=-300 is too low"):
                simulate(lab, c, config)

    @pytest.mark.parametrize("demod", ["sd", "abd", "bd"])
    def test_far_but_resolvable_snr_still_runs(self, demod):
        config = SimConfig(trials=10_000, seed=0, snr_db_grid=(-250.0,),
                           demodulator=demod)
        est = simulate(named_labeling("BRGC", 8), make_pam(8), config)[0]
        assert abs(est.ber - 0.5) <= 5 * est.stderr

    def test_sd_stays_total(self):
        config = SimConfig(trials=10_000, seed=0, snr_db_grid=(0.0, -300.0),
                           demodulator="sd")
        est = simulate(named_labeling("BRGC", 8), make_pam(8), config)[1]
        assert abs(est.ber - 0.5) <= 5 * est.stderr
