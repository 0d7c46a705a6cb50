"""Data built once per target or constellation and reused at every SNR.

``labeling_ber``, ``pber_general`` and ``bd_thresholds`` keep what does not
depend on the SNR with the object it came from: a target's int64 bit rows,
midpoint relevance matrix and gather index (one for all its columns, read
by the BD solver for every column at once), and, for each constellation
a channel meets, its midpoint Q tails and its checked BD scan grid.
Every value on reused objects must stay bit for bit the value of the
same call on copies built afresh from the objects' values (a new
``Constellation``, a target rebuilt from its bits and a new
``ChannelParams``), whatever was evaluated before and whichever objects
were freed in between.  The values themselves are pinned in
``tests/pins.json.gz`` (``tests/test_pins.py``).
"""

import copy
import gc
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest

from pamber import (
    BitPattern,
    ChannelParams,
    Constellation,
    Labeling,
    bd_thresholds,
    labeling_ber,
    make_pam,
    named_labeling,
    pattern_from_index,
    pber_general,
)
from pamber import analytic, thresholds
from pamber.constellation import LABELING_NAMES
from pamber.labeling_space import sample_labelings
from pamber.pattern_classes import _masks_of_weight

GRID_DB = np.arange(-5.0, 20.25, 0.5)
UNEVEN = (-1.9, -0.35, 0.1, 1.1)
# 8 points with three gaps far below the even scan step
CLUSTERED = (-3.0, -2.0, -1.0, 0.0, 0.003, 0.006, 0.009, 3.0)


# --- the same calls on objects built afresh, nothing kept between calls ---


def fresh(target, c, params):
    """Copies of a target, a constellation and a channel, built from their values.

    None of them holds data kept by an earlier call.
    """
    twin = Labeling(target.matrix) if isinstance(target, Labeling) else BitPattern(target.bits)
    return twin, Constellation(points=c.points), ChannelParams(params.snr)


def bd_pber(pattern, c, params):
    """The BD boundaries of ``pattern`` and ``pber_general`` at them."""
    thr = bd_thresholds(pattern, c, params)
    return thr, pber_general(pattern, c, thr, params)


def same_bits(got, want):
    return float(got).hex() == float(want).hex()


def run_threads(work):
    """``work`` on six threads at once, switching between them every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


# --- inputs ---------------------------------------------------------------


def named_targets():
    out = []
    for m_points in (4, 8, 16):
        for name in LABELING_NAMES:
            try:
                out.append(named_labeling(name, m_points))
            except ValueError:  # not defined at this size
                pass
    assert len(out) == 10
    return out


def patterns():
    """Patterns 15, 60 and 102, with a second pattern equal to 102 by value."""
    out = [pattern_from_index(8, w) for w in (15, 60, 102)]
    twin = BitPattern(out[2].bits)
    assert twin == out[2] and twin is not out[2]
    return out + [twin]


# --- tests ----------------------------------------------------------------


class TestBitIdentity:
    """Repeated calls on the same objects against the same calls on fresh copies."""

    def test_abd_and_sd_on_named_and_seeded_labelings(self):
        pams = {m: make_pam(m) for m in (4, 8, 16)}
        targets = named_targets() + sample_labelings(8, 40, seed=18)
        targets += patterns()
        for snr_db in GRID_DB:
            params = ChannelParams.from_db(snr_db)
            for target in targets:
                c = pams[target.size]
                want = labeling_ber(*fresh(target, c, params), "abd")
                for demod_name in ("abd", "sd"):
                    got = labeling_ber(target, c, params, demod_name)
                    assert same_bits(got, want), (target, snr_db, demod_name)

    def test_bd_on_8pam_labelings(self):
        c = make_pam(8)
        named = [t for t in named_targets() if t.size == 8]
        seeded = sample_labelings(8, 40, seed=18)
        for snr_db in GRID_DB:
            params = ChannelParams.from_db(snr_db)
            # every named labeling at each point, the seeded ones every 2.5 dB
            targets = named + (seeded if snr_db % 2.5 == 0 else [])
            for target in targets:
                got = labeling_ber(target, c, params, "bd")
                assert same_bits(got, labeling_ber(*fresh(target, c, params), "bd")), (
                    target, snr_db)

    def test_bd_thresholds_and_pber_of_patterns(self):
        c = make_pam(8)
        for snr_db in GRID_DB:
            params = ChannelParams.from_db(snr_db)
            for pat in patterns():
                thr, got = bd_pber(pat, c, params)
                want, want_pber = bd_pber(*fresh(pat, c, params))
                assert thr.betas.tobytes() == want.betas.tobytes()
                assert thr.bits.tolist() == want.bits.tolist()
                assert same_bits(got, want_pber)

    def test_uneven_constellation(self):
        uneven = Constellation(points=UNEVEN)
        targets = [named_labeling("NBC", 4), named_labeling("AG", 4), pattern_from_index(4, 5)]
        for snr_db in GRID_DB:
            params = ChannelParams.from_db(snr_db)
            for target in targets:
                for demod_name in ("abd", "bd"):
                    got = labeling_ber(target, uneven, params, demod_name)
                    want = labeling_ber(*fresh(target, uneven, params), demod_name)
                    assert same_bits(got, want), (target, snr_db, demod_name)

    @pytest.mark.parametrize("demod_name", ["abd", "bd"])
    def test_interleaved_targets_a_b_a(self, demod_name):
        # B's data must not replace A's: each value of A, B, A again, against fresh copies
        c = make_pam(8)
        a, b = named_labeling("BRGC", 8), named_labeling("AG", 8)
        p, q = pattern_from_index(8, 102), pattern_from_index(8, 15)
        for snr_db in GRID_DB[::5]:
            params = ChannelParams.from_db(snr_db)
            for target in (a, b, a, p, q, p):
                got = labeling_ber(target, c, params, demod_name)
                assert same_bits(got, labeling_ber(*fresh(target, c, params), demod_name))
            for pat in (p, q, p):
                got = bd_pber(pat, c, params)[1]
                assert same_bits(got, bd_pber(*fresh(pat, c, params))[1])

    def test_two_constellations_of_one_size(self):
        # a target evaluated on two constellations keeps nothing of either
        pam, uneven = make_pam(4), Constellation(points=UNEVEN)
        lab = named_labeling("BRGC", 4)
        params = ChannelParams.from_db(6.0)
        for c in (pam, uneven, pam):
            for demod_name in ("abd", "bd"):
                got = labeling_ber(lab, c, params, demod_name)
                assert same_bits(got, labeling_ber(*fresh(lab, c, params), demod_name))


class TestFreshObjects:
    """Objects built and dropped in a loop: freed ids are reused, data must not be."""

    def test_build_and_drop_in_a_loop(self):
        rng = np.random.default_rng(18)
        pool = {m: _masks_of_weight(m, m // 2).tolist() for m in (4, 8)}
        params = [ChannelParams.from_db(s) for s in (-2.0, 7.5, 15.0)]
        for i in range(120):
            m_points = (4, 8)[i % 2]
            points = np.sort(rng.normal(size=m_points)) + np.arange(m_points) * 0.3
            c = Constellation(points=points)
            if i % 3 == 0:
                target = pattern_from_index(m_points, int(rng.choice(pool[m_points])))
            else:
                nbc = named_labeling("NBC", m_points).matrix
                target = Labeling(nbc[rng.permutation(m_points)])
            for prm in params:
                for demod_name in ("abd", "bd"):
                    got = labeling_ber(target, c, prm, demod_name)
                    assert same_bits(got, labeling_ber(*fresh(target, c, prm), demod_name)), i
                if isinstance(target, BitPattern):
                    got = bd_pber(target, c, prm)[1]
                    assert same_bits(got, bd_pber(*fresh(target, c, prm))[1]), i
            del c, target

    def test_used_objects_are_freed(self):
        c, lab, pat = make_pam(8), named_labeling("BRGC", 8), pattern_from_index(8, 102)
        params = ChannelParams.from_db(10.0)
        for demod_name in ("abd", "bd"):
            labeling_ber(lab, c, params, demod_name)
            labeling_ber(pat, c, params, demod_name)
        bd_pber(pat, c, params)
        refs = [weakref.ref(obj) for obj in (c, lab, pat)]
        del c, lab, pat
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]

    def test_constructors_build_nothing_ahead(self):
        # the data is built on first use, not by the constructors
        c, lab, pat = make_pam(8), named_labeling("AG", 8), pattern_from_index(8, 60)
        assert all("_derived" not in vars(obj) for obj in (c, lab, pat))
        labeling_ber(lab, c, ChannelParams.from_db(3.0))
        assert "_derived" not in vars(pat)


class TestMidpointTails:
    """The midpoint Q tails a channel keeps for each constellation it meets."""

    def test_kept_tails_equal_fresh_ones(self):
        for c in (make_pam(8), Constellation(points=UNEVEN), make_pam(16)):
            for snr_db in GRID_DB[::5]:
                params = ChannelParams.from_db(snr_db)
                twin = Constellation(points=c.points), ChannelParams(params.snr)
                want = analytic._midpoint_tails(*twin)
                kept = analytic._midpoint_tails(c, params)
                assert kept.tobytes() == want.tobytes()
                assert analytic._midpoint_tails(c, params) is kept
                assert not kept.flags.writeable

    def test_one_port_call_for_200_labelings_on_one_channel(self, monkeypatch):
        calls = []
        port = analytic._erfc

        def counted(a):
            calls.append(np.shape(a))
            return port(a)

        monkeypatch.setattr(analytic, "_erfc", counted)
        c, params = make_pam(8), ChannelParams.from_db(10.0)
        labelings = sample_labelings(8, 200, seed=29)
        values = [labeling_ber(lab, c, params, demod_name)
                  for lab in labelings for demod_name in ("abd", "sd")]
        assert calls == [(8, 7)]
        # an equal channel object and another constellation each miss once
        labeling_ber(labelings[0], c, ChannelParams.from_db(10.0))
        labeling_ber(labelings[0], make_pam(8), params)
        assert len(calls) == 3
        monkeypatch.undo()
        for lab, got in zip(labelings, values[::2]):
            assert same_bits(got, labeling_ber(*fresh(lab, c, params), "abd"))

    def test_threads_sharing_a_channel_see_the_same_values(self):
        # constellations built and dropped on several threads, one channel
        params = ChannelParams.from_db(7.5)
        labs = [named_labeling(name, 8) for name in ("BRGC", "NBC", "AG")]
        want = [labeling_ber(lab, make_pam(8), params) for lab in labs]
        bad = []

        def work():
            for _ in range(60):
                c = make_pam(8)
                got = [labeling_ber(lab, c, params) for lab in labs]
                if got != want:
                    bad.append(got)

        run_threads(work)
        assert bad == []


def channel_stores(params):
    """What the channel ``params`` keeps: one store per builder, keyed by constellation."""
    return vars(params).get("_per_channel", {})


class TestChannelGrid:
    """The checked BD scan grid, and its squared distances, a channel keeps for each constellation."""

    def test_kept_grid_equals_a_fresh_one(self):
        for c in (make_pam(8), Constellation(points=UNEVEN), Constellation(points=CLUSTERED),
                  make_pam(2), make_pam(16)):
            for snr_db in (-50.0, -30.0, *GRID_DB[::5], 40.0):
                params = ChannelParams.from_db(snr_db)
                if thresholds._past_reach(c, params):
                    continue
                grid, squares = thresholds._channel_grid(c, params)
                twin = Constellation(points=c.points), ChannelParams(params.snr)
                want, want_squares = thresholds._channel_grid(*twin)
                assert grid.tobytes() == want.tobytes(), (c, snr_db)
                assert squares.tobytes() == want_squares.tobytes()
                kept = thresholds._channel_grid(c, params)
                assert kept[0] is grid and kept[1] is squares
                assert not grid.flags.writeable and not squares.flags.writeable

    def test_one_grid_per_channel_for_every_pattern(self, monkeypatch):
        # a curve of 23 patterns over 51 SNRs builds 51 grids: 1,122 of
        # the 1,173 points reuse one
        built = []
        scan_grid = thresholds._scan_grid

        def counted(c, reach):
            built.append(reach)
            return scan_grid(c, reach)

        monkeypatch.setattr(thresholds, "_scan_grid", counted)
        c = make_pam(8)
        params = [ChannelParams.from_db(s) for s in GRID_DB]
        pats = [pattern_from_index(8, w) for w in _masks_of_weight(8, 4).tolist()[:23]]
        values = [bd_pber(p, c, prm)[1] for p in pats for prm in params]
        assert len(built) == len(params) and len(values) == 23 * len(params)
        monkeypatch.undo()
        for k, p in enumerate(pats[::7]):
            for prm in params[::10]:
                got = values[7 * k * len(params) + params.index(prm)]
                assert same_bits(got, bd_pber(*fresh(p, c, prm))[1])

    def test_a_refused_snr_raises_on_every_call_and_keeps_nothing(self):
        c, params = make_pam(8), ChannelParams.from_db(-60.0)
        pat = pattern_from_index(8, 102)
        for _ in range(3):
            with pytest.raises(ValueError, match="too low"):
                bd_thresholds(pat, c, params)
            with pytest.raises(ValueError, match="too low"):
                labeling_ber(named_labeling("BRGC", 8), c, params, "bd")
        assert c not in channel_stores(params).get(thresholds._channel_grid, {})

    def test_a_channel_keeps_no_constellation_alive(self):
        # neither the BD grid nor the midpoint tails
        params = ChannelParams.from_db(5.0)
        c = make_pam(8)
        bd_thresholds(pattern_from_index(8, 102), c, params)
        for demod_name in ("bd", "abd"):
            labeling_ber(named_labeling("BRGC", 8), c, params, demod_name)
        ref = weakref.ref(c)
        del c
        gc.collect()
        assert ref() is None
        stores = channel_stores(params)
        assert len(stores) == 2 and all(len(store) == 0 for store in stores.values())

    def test_copies_and_pickles_leave_the_grid_and_the_tails_behind(self):
        params = ChannelParams.from_db(5.0)
        c = make_pam(8)
        bd_thresholds(pattern_from_index(8, 102), c, params)
        labeling_ber(named_labeling("BRGC", 8), c, params)
        kept = {build for build, store in channel_stores(params).items() if c in store}
        assert kept == {thresholds._channel_grid, analytic._midpoint_tails}
        for twin in (pickle.loads(pickle.dumps(params)), copy.copy(params),
                     copy.deepcopy(params)):
            assert twin == params and vars(twin) == {"snr": params.snr}

    def test_threads_sharing_a_channel_see_the_same_grid(self):
        # one channel and one constellation shared by six threads, with
        # constellations of their own built and dropped alongside
        params, shared = ChannelParams.from_db(2.5), make_pam(8)
        pats = [pattern_from_index(8, w) for w in (15, 60, 102)]
        want = [bd_thresholds(p, make_pam(8), params).betas.tobytes() for p in pats]
        grids, bad = [], []

        def work():
            for _ in range(40):
                grids.append(thresholds._channel_grid(shared, params)[0])
                for c in (shared, make_pam(8)):
                    got = [bd_thresholds(p, c, params).betas.tobytes() for p in pats]
                    if got != want:
                        bad.append(got)

        run_threads(work)
        assert bad == []
        # every thread read the one grid the store holds once they are done
        kept = thresholds._channel_grid(shared, params)[0]
        assert all(g.tobytes() == kept.tobytes() for g in grids)
