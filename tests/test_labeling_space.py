"""Labeling enumeration and the distinct-BER census."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from pamber import (
    Labeling,
    labeling_census,
    labeling_coefficients,
    named_labeling,
    pattern_coefficients,
    pattern_from_index,
)
from pamber import labeling_space, pattern_classes
from pamber.labeling_space import _bijective_sets, is_bijective_set, sample_labelings
from pamber.pattern_classes import _masks_of_weight, invert_index, pattern_weights


def shift_by_shift_bijective(m_points, indices):
    """Reference: build each row's label code bit by bit and look for a repeat."""
    codes = set()
    for shift in range(m_points):
        code = 0
        for w in indices:
            code = (code << 1) | ((w >> shift) & 1)
        if code in codes:
            return False
        codes.add(code)
    return True


class TestBijectivity:
    def test_matches_the_row_codes_on_every_eight_point_candidate(self):
        combos = list(itertools.combinations(_masks_of_weight(8, 4).tolist(), 3))
        assert len(combos) == 54740
        got = [is_bijective_set(8, c) for c in combos]
        assert got == [shift_by_shift_bijective(8, c) for c in combos]
        assert sum(got) == 6720

    @pytest.mark.parametrize(("m", "indices"), [
        (4, ()),                      # no columns: every row reads the empty label
        (2, ()),
        (1, ()),
        (1, (0,)),
        (1, (1,)),
        (2, (1,)),
        (2, (3,)),
        (4, (3, 3)),                  # a repeated column adds nothing
        (4, (3, 5, 3)),
        (8, (15, 15, 60)),
        (4, (3 | 1 << 4, 5)),         # bits above M are not rows
        (4, (3 | 1 << 9, 6 | 1 << 7)),
        (4, (-13, 5)),                # -13 has the low bits of 3
        (4, (-1, 5)),
        (4, (-4, -6)),
        (4, (3, 5, 6)),               # 2^3 > M: more columns than needed
        (4, (3, 5, 6, 9)),
        (8, (15, 51, 85, 105)),
        (8, (15, 60, 102, 195)),
    ])
    def test_edge_cases_match_the_row_codes(self, m, indices):
        assert is_bijective_set(m, indices) == shift_by_shift_bijective(m, indices)

    @pytest.mark.parametrize("m", [np.int8(8), np.int16(8), np.uint8(8), np.int64(8)])
    def test_numpy_integer_size_answers_as_the_int(self, m):
        # a narrow M once overflowed in 1 << M, or wrapped the full-row mask to -1
        for indices in ((15, 60, 195), (15, 60, 102), (15, 51), (15, 51, 85)):
            assert is_bijective_set(m, indices) == is_bijective_set(8, indices)

    @pytest.mark.parametrize("m", [0, -8, np.int8(0), np.int64(-2), True, False, 8.0,
                                   np.float64(8.0), "8", None])
    @pytest.mark.parametrize("indices", [(), (5, 3), (15, 60, 102)])
    def test_rejects_a_size_that_is_not_a_positive_integer(self, m, indices):
        with pytest.raises(ValueError, match="positive integer"):
            is_bijective_set(m, indices)


class TestEnumeration:
    def test_four_point_space(self):
        sets = _bijective_sets(4)
        assert len(sets) == 12  # 15 pairs minus the 3 complementary ones
        assert (3, 6) in sets
        assert (3, 12) not in sets

    def test_gray_set_is_valid_for_eight(self):
        assert is_bijective_set(8, (15, 60, 102))
        assert not is_bijective_set(8, (15, 60, 195))  # 195 complements 60

    def test_rejects_unsupported_size(self):
        with pytest.raises(ValueError):
            _bijective_sets(16)

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_pruned_walk_equals_the_combination_filter(self, m):
        # every m-subset in combination order, each tested by its row codes
        n_bits = m.bit_length() - 1
        want = [c for c in itertools.combinations(_masks_of_weight(m, m // 2).tolist(), n_bits)
                if shift_by_shift_bijective(m, c)]
        assert len(want) == math.factorial(m) // math.factorial(n_bits)
        assert _bijective_sets(m) == want
        # a labeling built from each set keeps its columns in that order
        assert [column_indices(Labeling.from_indices(m, s)) for s in _bijective_sets(m)] == want


def column_indices(lab):
    """The pattern index of each column of a labeling, in column order."""
    return tuple(int("".join(map(str, col)), 2) for col in lab.matrix.T)


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that logs (args, result) of each call."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args):
        result = inner(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(module, name, wrapper)
    return calls


def splits_evenly(m, columns):
    """True when the columns give each of their 2^k labels to m/2^k rows."""
    labels = Counter(tuple((w >> shift) & 1 for w in columns) for shift in range(m))
    return len(labels) == 1 << len(columns) and set(labels.values()) == {m >> len(columns)}


class TestPrunedCandidates:
    def test_four_points_test_every_pair_as_the_benchmark_counts(self, monkeypatch):
        # the benchmark's tracer counts 15 candidates, 12 accepted, and the
        # weights of 6 distinct patterns for labeling_census(4)
        tested = count_calls(monkeypatch, labeling_space, "is_bijective_set")
        weighed = count_calls(monkeypatch, pattern_classes, "pattern_coefficients")
        labeling_census(4)
        assert [args[1] for args, _ in tested] == list(
            itertools.combinations(_masks_of_weight(4, 2).tolist(), 2))
        assert sum(ok for _, ok in tested) == 12
        assert len({args[0].bits for args, _ in weighed}) == len(weighed) == 6

    def test_eight_points_test_only_sets_with_a_passing_prefix(self, monkeypatch):
        tested = count_calls(monkeypatch, labeling_space, "is_bijective_set")
        sets = _bijective_sets(8)
        pool = _masks_of_weight(8, 4).tolist()
        even = {p: splits_evenly(8, p) for p in itertools.combinations(pool, 2)}
        want = [c for c in itertools.combinations(pool, 3) if even[c[:2]]]
        assert [args[1] for args, _ in tested] == want
        assert len(want) == 28263 < math.comb(70, 3)
        assert sum(ok for _, ok in tested) == len(sets) == 6720


# Each labeling-side function, reduced to the pattern sets it returns.
LABELING_SIDE = {
    "named_labeling": lambda m: [named_labeling("BRGC", m).pattern_set],
    "labeling_census": lambda m: [cls.witness.pattern_set for cls in labeling_census(m)],
    "sample_labelings": lambda m: [lab.pattern_set for lab in sample_labelings(m, 3, seed=2)],
    # the walk the census and `pamber labelings` read directly
    "_bijective_sets": lambda m: [frozenset(s) for s in _bijective_sets(m)],
}


@pytest.mark.parametrize("func", LABELING_SIDE.values(), ids=LABELING_SIDE.keys())
class TestLabelingSizeRule:
    @pytest.mark.parametrize("kind", [np.int64, np.int8])
    def test_numpy_integer_sizes_give_the_same_labelings(self, func, kind):
        assert func(kind(8)) == func(8)

    @pytest.mark.parametrize("m", [8.0, np.float64(8), True, 6, 0])
    def test_rejects_a_size_that_is_not_a_power_of_two_integer(self, func, m):
        with pytest.raises(ValueError, match=f"M must be a power of two >= [24], got {m}"):
            func(m)


class TestCensus:
    def test_four_point_census(self):
        census = labeling_census(4)
        assert [cls.alpha for cls in census] == [
            (6, 4, -2),
            (8, -2, 2),
            (10, -2, 0),
        ]
        assert [cls.population for cls in census] == [4, 4, 4]
        assert len(census) == 3

    def test_high_snr_order_is_lexicographic(self):
        census = labeling_census(8)
        assert census == sorted(census, key=lambda cls: cls.alpha)

    def test_named_eight_point_order(self):
        named = ["BRGC", "FBC", "NBC", "BSGC", "AG"]
        alphas = [
            tuple(int(x) for x in labeling_coefficients(named_labeling(n, 8)))
            for n in named
        ]
        # NBC and BSGC share the leading weight; the second one breaks the tie
        assert alphas[2][0] == alphas[3][0] == 22
        assert alphas[2][1] < alphas[3][1]
        assert alphas == sorted(alphas)

    @pytest.mark.parametrize("m", [4, 8])
    def test_no_labeling_is_built_until_a_witness_is_read(self, m, monkeypatch):
        built = count_calls(monkeypatch, Labeling, "__post_init__")
        census = labeling_census(m)
        assert built == []
        witness = census[0].witness
        assert len(built) == 1
        assert witness.pattern_set == frozenset(census[0].witness_indices)

    @pytest.mark.parametrize("m", [4, 8])
    def test_lazy_witnesses_equal_the_eager_ones(self, m):
        # the witness as it was built eagerly: the first bijective set of
        # each weight vector in combination order, stacked in that order
        n_bits = m.bit_length() - 1
        first = {}
        for combo in itertools.combinations(_masks_of_weight(m, m // 2).tolist(), n_bits):
            if is_bijective_set(m, combo):
                alpha = tuple(int(x) for x in labeling_coefficients(Labeling.from_indices(m, combo)))
                first.setdefault(alpha, combo)
        census = labeling_census(m)
        assert len(census) == len(first)
        for cls in census:
            assert cls.witness_indices == first[cls.alpha]
            assert all(type(w) is int for w in cls.witness_indices)
            eager = Labeling.from_indices(m, first[cls.alpha])
            np.testing.assert_array_equal(cls.witness.matrix, eager.matrix)
            assert cls.witness.pattern_set == eager.pattern_set
            assert cls.witness is not cls.witness  # built on each access

    def test_witness_reproduces_alpha(self):
        for m in (4, 8):
            for cls in labeling_census(m):
                got = tuple(int(x) for x in labeling_coefficients(cls.witness))
                assert got == cls.alpha

    def test_eight_point_census_against_brute_force(self):
        # All 3-sets of balanced patterns in combination order, rows compared
        # as bit strings; the first set met with a weight vector is its witness.
        weights = {
            w: tuple(int(x) for x in pattern_coefficients(pattern_from_index(8, w)))
            for w in _masks_of_weight(8, 4).tolist()
        }
        first, count = {}, Counter()
        for combo in itertools.combinations(sorted(weights), 3):
            if len(set(zip(*(format(w, "08b") for w in combo)))) == 8:
                alpha = tuple(map(sum, zip(*(weights[w] for w in combo))))
                first.setdefault(alpha, combo)
                count[alpha] += 1
        census = labeling_census(8)
        order = sorted(first)
        assert sum(cls.population for cls in census) == math.factorial(8) // math.factorial(3)
        assert [cls.alpha for cls in census] == order
        assert [cls.population for cls in census] == [count[a] for a in order]
        assert [tuple(sorted(cls.witness.pattern_set)) for cls in census] == [
            first[a] for a in order
        ]


class TestAlphaInvariances:
    def test_column_permutation(self):
        a = Labeling.from_indices(8, [15, 60, 102])
        b = Labeling.from_indices(8, [102, 15, 60])
        np.testing.assert_array_equal(
            labeling_coefficients(a), labeling_coefficients(b)
        )

    def test_column_inversion(self):
        for lab in sample_labelings(8, 5, seed=21):
            base = labeling_coefficients(lab)
            ws = sorted(lab.pattern_set)
            flipped = [invert_index(ws[0], 8)] + ws[1:]
            other = Labeling.from_indices(8, flipped)
            np.testing.assert_array_equal(base, labeling_coefficients(other))

    def test_reflecting_all_columns(self):
        for lab in sample_labelings(8, 5, seed=22):
            base = labeling_coefficients(lab)
            mirrored = Labeling(np.asarray(lab.matrix)[::-1])
            np.testing.assert_array_equal(base, labeling_coefficients(mirrored))

    def test_high_snr_parameter_nonnegative(self):
        # 2*m*(M-1) - alpha[0] >= 0: the leading weight is at most 2*m*(M-1)
        for cls in labeling_census(4):
            assert cls.alpha[0] <= 2 * 2 * (4 - 1)
            assert labeling_coefficients(cls.witness)[0] == cls.alpha[0]
        for lab in sample_labelings(8, 10, seed=23):
            assert labeling_coefficients(lab)[0] <= 2 * 3 * (8 - 1)


def gray_paths(n_bits):
    """Every Hamiltonian path of the n-cube from label 0: the Gray labelings, depth first."""
    size, paths, path = 1 << n_bits, [], [0]

    def extend(visited):
        if len(path) == size:
            paths.append(tuple(path))
            return
        for bit in range(n_bits):
            label = path[-1] ^ (1 << bit)
            if not visited >> label & 1:
                path.append(label)
                extend(visited | 1 << label)
                path.pop()

    extend(1)
    return paths


class TestGrayLabelings:
    def test_brgc_is_the_unique_high_snr_optimum_among_gray_labelings(self):
        # The leading weight is twice the bit transitions, so the labelings
        # that are best at high SNR are Gray labelings; Agrell et al. (IEEE
        # Trans. IT 50(12), 2004) show that BRGC is the best of them for PAM.
        # XOR with a constant label inverts columns and keeps the weights, so
        # the paths from label 0 cover every Gray labeling's weight vector.
        for m, paths_from_zero in ((4, 2), (8, 18), (16, 5712)):
            n_bits = m.bit_length() - 1
            shifts = np.arange(n_bits - 1, -1, -1)  # big-endian: bit 1 is the top label bit
            paths = gray_paths(n_bits)
            assert len(paths) == paths_from_zero  # OEIS A091299
            bits = (np.array(paths)[..., None] >> shifts) & 1
            columns = bits.transpose(0, 2, 1).reshape(-1, m)  # every column of every path
            vectors = pattern_weights(columns).reshape(len(paths), n_bits, m - 1).sum(axis=1)
            for i in (0, len(paths) // 2, -1):  # the one pass against labeling by labeling
                want = labeling_coefficients(Labeling(bits[i]))
                np.testing.assert_array_equal(vectors[i], want)
            assert set(vectors[:, 0].tolist()) == {2 * (m - 1)}
            vectors = [tuple(v) for v in vectors.tolist()]
            best, brgc = min(vectors), named_labeling("BRGC", m)
            assert best == tuple(labeling_coefficients(brgc).tolist())
            column_orders = {tuple((brgc.matrix[:, list(order)] @ (1 << shifts)).tolist())
                             for order in itertools.permutations(range(n_bits))}
            assert len(column_orders) == math.factorial(n_bits)
            assert {p for p, v in zip(paths, vectors) if v == best} == column_orders
            if m == 16:
                assert len(set(vectors)) == 131
            if m == 8:  # the Gray classes are the census classes of fewest transitions
                census = {cls.alpha for cls in labeling_census(8) if cls.alpha[0] == 2 * (m - 1)}
                assert set(vectors) == census


class TestSampling:
    def test_seeded_reproducibility(self):
        a = sample_labelings(8, 4, seed=5)
        b = sample_labelings(8, 4, seed=5)
        assert [x.pattern_set for x in a] == [y.pattern_set for y in b]

    @pytest.mark.parametrize("m", [32, 64])
    def test_size_limit_raises_before_the_pool_is_built(self, m, monkeypatch):
        monkeypatch.setattr(labeling_space, "_masks_of_weight", None)  # never reached
        with pytest.raises(ValueError, match=f"M <= 24, got {m}"):
            sample_labelings(m, 1, seed=0)

    def test_streams_are_pinned(self):
        # numpy integer arguments draw the same stream as the ints
        want = [(45, 78, 197), (43, 113, 195), (54, 120, 226)]
        for args in ((8, 3, 2), (np.int64(8), np.int64(3), np.uint8(2))):
            assert [tuple(sorted(lab.pattern_set)) for lab in sample_labelings(*args)] == want
        assert [tuple(sorted(lab.pattern_set)) for lab in sample_labelings(16, 2, seed=0)] == [
            (4727, 14091, 18795, 36409), (11926, 12463, 23749, 63136)]
        # the draws index the pool, so they hold only while the pool keeps
        # the balanced masks in ascending order
        assert [tuple(sorted(lab.pattern_set)) for lab in sample_labelings(16, 5, seed=7)] == [
            (11535, 18346, 29849, 55339), (29138, 48008, 55108, 60689),
            (13639, 26420, 47952, 51137), (26410, 26779, 42105, 55849),
            (17199, 18416, 35738, 57798)]
        assert sample_labelings(8, 0, seed=0) == []

    @pytest.mark.parametrize("count", [2.5, -3, True, "3", None, np.float64(3)])
    def test_rejects_a_count_that_is_not_a_non_negative_integer(self, count):
        with pytest.raises(ValueError, match="count must be a non-negative integer"):
            sample_labelings(16, count, 0)

    @pytest.mark.parametrize("seed", [1.5, -1, np.int64(-2), False, "0", None])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            sample_labelings(8, 3, seed)

    def test_large_size_sampling_works(self):
        labs = sample_labelings(16, 3, seed=1)
        assert len(labs) == 3
        for lab in labs:
            assert lab.size == 16
            assert lab.n_bits == 4
