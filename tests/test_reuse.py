"""Data built once per target or constellation and reused at every SNR.

``labeling_ber``, ``pber_general`` and ``bd_thresholds`` keep what does not
depend on the SNR with the object it came from: a target's int64 bit rows,
midpoint relevance matrix and gather index (one for all its columns, read
by the BD solver for every column at once), a constellation's
point-to-midpoint offsets, inner scan grid and outer scan steps, and, for
each constellation a channel meets, its midpoint Q tails and its checked
BD scan grid.  Every value must stay bit for bit that of a fresh
evaluation of the same sums, whatever was evaluated before and whichever
objects were freed in between.
"""

import copy
import gc
import hashlib
import math
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
    qfunc,
)
from pamber import analytic, constellation, demod, thresholds
from pamber.constellation import LABELING_NAMES
from pamber.labeling_space import sample_labelings
from pamber.pattern_classes import _masks_of_weight

GRID_DB = np.arange(-5.0, 20.25, 0.5)
UNEVEN = (-1.9, -0.35, 0.1, 1.1)
# 8 points with three gaps far below the even scan step
CLUSTERED = (-3.0, -2.0, -1.0, 0.0, 0.003, 0.006, 0.009, 3.0)


# --- the sums evaluated afresh, nothing kept between calls -------------


def fresh_gq_sums(bits, region_bits, betas, points, snr):
    """``sum g*Q`` per row of the int64 bit matrix ``bits``, built from its inputs alone."""
    tails = qfunc((betas[None, :] - points[:, None]) * math.sqrt(2.0 * snr))
    step = region_bits[..., 1:] - region_bits[..., :-1]
    g = step[..., None, :] * (1 - 2 * bits)[..., :, None]
    return (g * tails).reshape(len(bits), -1).sum(axis=1)


def fresh_scan_grid(points, reach):
    inner = np.linspace(points[0], points[-1], thresholds._SCAN_SAMPLES)
    if reach <= 0:
        return inner
    step = inner[1] - inner[0]
    count = max(1, math.ceil(math.log(reach / step, thresholds._SCAN_GROWTH)) + 1)
    outer = np.minimum(step * thresholds._SCAN_GROWTH ** np.arange(count), reach)
    return np.concatenate((points[0] - outer[::-1], inner, points[-1] + outer))


def fresh_crossings(row, points, snr):
    """BD boundaries and region bits of one 0/1 column, with a fresh grid and gather index."""
    reach = math.log(points.size / 2) / (2 * snr * float(np.diff(points).min()))
    grid = fresh_scan_grid(points, reach)
    subsets, column = demod._subsets(BitPattern(np.asarray(row).tolist())), points[:, None]

    def llr(y):
        return demod._llr_rows(y, subsets, column, snr, demod._exact_from_rows)[0]

    values = llr(grid)
    nonzero = values != 0
    grid, values = grid[nonzero], values[nonzero]
    hits = np.nonzero((values[:-1] < 0) != (values[1:] < 0))[0]
    roots = thresholds._illinois(lambda y, which: llr(y).tolist(), grid[hits], grid[hits + 1],
                                 values[hits], values[hits + 1])
    first = int(values[0] > 0)
    return roots, (first + np.arange(roots.size + 1)) % 2


def columns(target):
    if isinstance(target, Labeling):
        return np.array(target.matrix)
    return np.array(target.bits)[:, None]


def fresh_ber(target, points, snr, demod_name):
    """Today's ``labeling_ber`` sum, every array rebuilt from the bits and points."""
    cols = columns(target)
    points = np.array(points, dtype=float)
    bits = np.ascontiguousarray(cols.T, dtype=np.int64)
    if demod_name == "bd":
        sums = []
        for row in bits:
            betas, region_bits = fresh_crossings(row, points, snr)
            sums += fresh_gq_sums(row[None], region_bits[None], betas, points, snr).tolist()
    else:
        mids = 0.5 * (points[:-1] + points[1:])
        sums = fresh_gq_sums(bits, bits, mids, points, snr).tolist()
    total = 0.0
    for s in sums:
        total += 0.5 + s / cols.shape[0]
    return total / cols.shape[1]


def fresh_pber_bd(pattern, points, snr):
    """``pber_general`` at the BD boundaries, evaluated afresh."""
    points = np.array(points, dtype=float)
    betas, region_bits = fresh_crossings(np.array(pattern.bits), points, snr)
    bits = np.array([pattern.bits], dtype=np.int64)
    s = fresh_gq_sums(bits, region_bits[None], betas, points, snr)
    return 0.5 + s.item() / pattern.size


def same_bits(got, want):
    return float(got).hex() == float(want).hex()


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
    """Repeated calls on the same objects against the sums evaluated afresh."""

    def test_abd_and_sd_on_named_and_seeded_labelings(self):
        pams = {m: make_pam(m) for m in (4, 8, 16)}
        targets = named_targets() + sample_labelings(8, 40, seed=18)
        targets += patterns()
        for snr_db in GRID_DB:
            params = ChannelParams.from_db(snr_db)
            for target in targets:
                c = pams[target.size]
                want = fresh_ber(target, c.points, params.snr, "abd")
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
                assert same_bits(got, fresh_ber(target, c.points, params.snr, "bd")), (
                    target, snr_db)

    def test_bd_thresholds_and_pber_of_patterns(self):
        c = make_pam(8)
        for snr_db in GRID_DB:
            params = ChannelParams.from_db(snr_db)
            for pat in patterns():
                want_betas, want_bits = fresh_crossings(np.array(pat.bits), c.points, params.snr)
                thr = bd_thresholds(pat, c, params)
                assert [b.hex() for b in thr.betas.tolist()] == [
                    b.hex() for b in want_betas.tolist()]
                assert thr.bits.tolist() == want_bits.tolist()
                got = pber_general(pat, c, thr, params)
                assert same_bits(got, fresh_pber_bd(pat, c.points, params.snr))

    def test_uneven_constellation(self):
        uneven = Constellation(points=UNEVEN)
        targets = [named_labeling("NBC", 4), named_labeling("AG", 4), pattern_from_index(4, 5)]
        for snr_db in GRID_DB:
            params = ChannelParams.from_db(snr_db)
            for target in targets:
                for demod_name in ("abd", "bd"):
                    got = labeling_ber(target, uneven, params, demod_name)
                    want = fresh_ber(target, uneven.points, params.snr, demod_name)
                    assert same_bits(got, want), (target, snr_db, demod_name)

    @pytest.mark.parametrize("demod_name", ["abd", "bd"])
    def test_interleaved_targets_a_b_a(self, demod_name):
        # B's data must not replace A's: each value of A, B, A again, against the fresh sums
        c = make_pam(8)
        a, b = named_labeling("BRGC", 8), named_labeling("AG", 8)
        p, q = pattern_from_index(8, 102), pattern_from_index(8, 15)
        for snr_db in GRID_DB[::5]:
            params = ChannelParams.from_db(snr_db)
            for target in (a, b, a, p, q, p):
                got = labeling_ber(target, c, params, demod_name)
                assert same_bits(got, fresh_ber(target, c.points, params.snr, demod_name))
            for pat in (p, q, p):
                got = pber_general(pat, c, bd_thresholds(pat, c, params), params)
                assert same_bits(got, fresh_pber_bd(pat, c.points, params.snr))

    def test_two_constellations_of_one_size(self):
        # a target evaluated on two constellations keeps nothing of either
        pam, uneven = make_pam(4), Constellation(points=UNEVEN)
        lab = named_labeling("BRGC", 4)
        params = ChannelParams.from_db(6.0)
        for c in (pam, uneven, pam):
            for demod_name in ("abd", "bd"):
                got = labeling_ber(lab, c, params, demod_name)
                assert same_bits(got, fresh_ber(lab, c.points, params.snr, demod_name))


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
                    assert same_bits(got, fresh_ber(target, points, prm.snr, demod_name)), i
                if isinstance(target, BitPattern):
                    thr = bd_thresholds(target, c, prm)
                    got = pber_general(target, c, thr, prm)
                    assert same_bits(got, fresh_pber_bd(target, points, prm.snr)), i
            del c, target

    def test_used_objects_are_freed(self):
        c, lab, pat = make_pam(8), named_labeling("BRGC", 8), pattern_from_index(8, 102)
        params = ChannelParams.from_db(10.0)
        for demod_name in ("abd", "bd"):
            labeling_ber(lab, c, params, demod_name)
            labeling_ber(pat, c, params, demod_name)
        pber_general(pat, c, bd_thresholds(pat, c, params), params)
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
                mids = c.midpoints()
                want = qfunc((mids[None, :] - c.points[:, None]) * math.sqrt(2.0 * params.snr))
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
            assert same_bits(got, fresh_ber(lab, c.points, params.snr, "abd"))

    def test_a_channel_keeps_no_constellation_alive(self):
        params = ChannelParams.from_db(5.0)
        c = make_pam(4)
        labeling_ber(named_labeling("BRGC", 4), c, params)
        ref = weakref.ref(c)
        del c
        gc.collect()
        assert ref() is None
        assert len(vars(params)["_derived"][constellation._by_constellation]) == 0

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
        assert bad == []

    def test_copies_and_pickles_leave_the_tails_behind(self):
        params = ChannelParams.from_db(5.0)
        labeling_ber(named_labeling("BRGC", 4), make_pam(4), params)
        for twin in (pickle.loads(pickle.dumps(params)), copy.copy(params),
                     copy.deepcopy(params)):
            assert twin == params and vars(twin) == {"snr": params.snr}


def channel_store(params):
    """The per-channel store: what ``params`` keeps for each constellation."""
    return vars(params)["_derived"][constellation._by_constellation]


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
                want = thresholds._scan_grid(c, thresholds._reach(c, params))
                assert grid.tobytes() == want.tobytes(), (c, snr_db)
                assert squares.tobytes() == np.square(want - c.points[:, None]).tobytes()
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
        values = [pber_general(p, c, bd_thresholds(p, c, prm), prm) for p in pats for prm in params]
        assert len(built) == len(params) and len(values) == 23 * len(params)
        monkeypatch.undo()
        for k, p in enumerate(pats[::7]):
            for prm in params[::10]:
                got = values[7 * k * len(params) + params.index(prm)]
                assert same_bits(got, fresh_pber_bd(p, c.points, prm.snr))

    def test_a_refused_snr_raises_on_every_call_and_keeps_nothing(self):
        c, params = make_pam(8), ChannelParams.from_db(-60.0)
        pat = pattern_from_index(8, 102)
        for _ in range(3):
            with pytest.raises(ValueError, match="too low"):
                bd_thresholds(pat, c, params)
            with pytest.raises(ValueError, match="too low"):
                labeling_ber(named_labeling("BRGC", 8), c, params, "bd")
        assert thresholds._channel_grid not in channel_store(params).get(c, {})

    def test_a_channel_keeps_no_constellation_alive(self):
        params = ChannelParams.from_db(5.0)
        c = make_pam(8)
        bd_thresholds(pattern_from_index(8, 102), c, params)
        labeling_ber(named_labeling("BRGC", 8), c, params, "bd")
        ref = weakref.ref(c)
        del c
        gc.collect()
        assert ref() is None
        assert len(channel_store(params)) == 0

    def test_copies_and_pickles_leave_the_grid_behind(self):
        params = ChannelParams.from_db(5.0)
        c = make_pam(8)
        bd_thresholds(pattern_from_index(8, 102), c, params)
        assert thresholds._channel_grid in channel_store(params)[c]
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
        assert bad == []
        # every thread read the one grid the store holds once they are done
        kept = thresholds._channel_grid(shared, params)[0]
        assert all(g.tobytes() == kept.tobytes() for g in grids)


class TestOuterSteps:
    """The geometric scan steps, one table per constellation, sliced at every point."""

    @pytest.mark.parametrize("points", [make_pam(8).points, CLUSTERED], ids=["pam8", "clustered"])
    def test_every_slice_equals_the_fresh_power(self, points):
        c = Constellation(points=points)
        table = thresholds._outer_steps(c)
        step = thresholds._inner_grid(c)[1]
        assert table.size == thresholds._outer_count(thresholds._MAX_REACH_GAPS * c.dmin, step)
        for count in range(1, table.size + 1):
            fresh = step * thresholds._SCAN_GROWTH ** np.arange(count)
            assert table[:count].tobytes() == fresh.tobytes(), count

    @pytest.mark.parametrize("points", [make_pam(8).points, CLUSTERED], ids=["pam8", "clustered"])
    def test_scan_grids_out_to_the_farthest_reach(self, points):
        c = Constellation(points=points)
        inner, step = thresholds._inner_grid(c)
        farthest = thresholds._MAX_REACH_GAPS * c.dmin
        for reach in (*np.geomspace(step / 10, farthest, 60), farthest):
            count = max(1, math.ceil(math.log(reach / step, thresholds._SCAN_GROWTH)) + 1)
            outer = np.minimum(step * thresholds._SCAN_GROWTH ** np.arange(count), reach)
            want = np.concatenate((c.points[0] - outer[::-1], inner, c.points[-1] + outer))
            assert thresholds._scan_grid(c, reach).tobytes() == want.tobytes(), reach


class TestBdDigest:
    """Every 8-PAM BD crossing and PBER, and BD labeling BERs, against a fixed digest.

    The digest hashes ``float.hex`` of each crossing, the region bits and
    the PBER of all 70 8-PAM patterns, and the BD ``labeling_ber`` of the
    five named 8-PAM labelings and BRGC-16, from -5 to 30 dB in 0.5 dB
    steps.  It pins the bits of the solver and the evaluator as they stand,
    so that a change meant to keep every value must keep the digest.
    """

    DIGEST = "a4a992e395400a37d368cc67cd0e779604431da7fed9619929664fd0b0fc56db"

    def test_bd_bits_match_the_pinned_digest(self):
        c8, c16 = make_pam(8), make_pam(16)
        pats = [pattern_from_index(8, w) for w in _masks_of_weight(8, 4).tolist()]
        labs = [named_labeling(name, 8) for name in LABELING_NAMES]
        labs.append(named_labeling("BRGC", 16))
        digest = hashlib.sha256()
        for snr_db in np.arange(-5.0, 30.25, 0.5):
            params = ChannelParams.from_db(snr_db)
            for pat in pats:
                thr = bd_thresholds(pat, c8, params)
                fields = [b.hex() for b in thr.betas.tolist()]
                fields.append("".join(map(str, thr.bits.tolist())))
                fields.append(pber_general(pat, c8, thr, params).hex())
                digest.update((" ".join(fields) + "\n").encode())
            for lab in labs:
                ber = labeling_ber(lab, c16 if lab.size == 16 else c8, params, "bd")
                digest.update((ber.hex() + "\n").encode())
        assert digest.hexdigest() == self.DIGEST
