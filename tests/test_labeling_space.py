"""Labeling enumeration and the distinct-BER census."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from pamber import (
    Labeling,
    enumerate_labelings,
    high_snr_bicm_parameter,
    labeling_census,
    labeling_coefficients,
    named_labeling,
    pattern_coefficients,
    pattern_from_index,
)
from pamber.labeling_space import is_bijective_set, sample_labelings
from pamber.pattern_classes import invert_index, pattern_indices


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
        combos = list(itertools.combinations(pattern_indices(8), 3))
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
        labs = list(enumerate_labelings(4))
        assert len(labs) == 12  # 15 pairs minus the 3 complementary ones
        sets = {frozenset(lab.pattern_set) for lab in labs}
        assert frozenset({3, 6}) in sets
        assert frozenset({3, 12}) not in sets

    def test_gray_set_is_valid_for_eight(self):
        assert is_bijective_set(8, (15, 60, 102))
        assert not is_bijective_set(8, (15, 60, 195))  # 195 complements 60

    def test_rejects_unsupported_size(self):
        with pytest.raises(ValueError):
            list(enumerate_labelings(16))


# Each labeling-side function, reduced to the pattern sets it returns.
LABELING_SIDE = {
    "named_labeling": lambda m: [named_labeling("BRGC", m).pattern_set],
    "labeling_census": lambda m: [cls.witness.pattern_set for cls in labeling_census(m)],
    "enumerate_labelings": lambda m: [lab.pattern_set for lab in enumerate_labelings(m)],
    "sample_labelings": lambda m: [lab.pattern_set for lab in sample_labelings(m, 3, seed=2)],
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
            for w in pattern_indices(8)
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
        for cls in labeling_census(4):
            assert high_snr_bicm_parameter(cls.witness) >= 0
        for lab in sample_labelings(8, 10, seed=23):
            assert high_snr_bicm_parameter(lab) >= 0


class TestSampling:
    def test_seeded_reproducibility(self):
        a = sample_labelings(8, 4, seed=5)
        b = sample_labelings(8, 4, seed=5)
        assert [x.pattern_set for x in a] == [y.pattern_set for y in b]

    @pytest.mark.parametrize("m", [32, 64])
    def test_size_limit_raises_before_the_pool_is_built(self, m):
        with pytest.raises(ValueError, match=f"M <= 20, got {m}"):
            sample_labelings(m, 1, seed=0)

    def test_large_size_sampling_works(self):
        labs = sample_labelings(16, 3, seed=1)
        assert len(labs) == 3
        for lab in labs:
            assert lab.size == 16
            assert lab.n_bits == 4
