"""Tests for constellations, bit patterns, and labelings."""

import math
import re
from itertools import combinations

import numpy as np
import pytest

from pamber import (
    BitPattern,
    Constellation,
    Labeling,
    make_pam,
    named_labeling,
    pam_spacing,
    pattern_from_index,
)
from pamber.constellation import _bit_rows, _pack_rows
from pamber.pattern_classes import _masks_of_weight

D4 = math.sqrt(0.2)
D8 = math.sqrt(3.0 / 63.0)


class TestMakePam:
    def test_bpsk(self):
        c = make_pam(2)
        np.testing.assert_allclose(c.points, [-1.0, 1.0], atol=0)
        assert pam_spacing(2) == 1.0

    def test_four_point_values(self):
        c = make_pam(4)
        expected = np.array([-3 * D4, -D4, D4, 3 * D4])
        np.testing.assert_allclose(c.points, expected, rtol=1e-15)
        assert c.points[2] == pytest.approx(0.4472135954999579, rel=1e-14)

    def test_eight_point_progression(self):
        c = make_pam(8)
        assert D8 == pytest.approx(0.2182178902359924, rel=1e-14)
        np.testing.assert_allclose(np.diff(c.points), 2 * D8, rtol=1e-13)
        np.testing.assert_allclose(c.points[0], -7 * D8, rtol=1e-14)

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
    def test_invariants(self, m):
        c = make_pam(m)
        assert np.all(np.diff(c.points) > 0)
        assert abs(np.mean(c.points**2) - 1.0) <= 1e-12
        np.testing.assert_allclose(c.points, -c.points[::-1], atol=0)

    # 10**400 is even, but M*M passes the float range
    @pytest.mark.parametrize("m", [0, 1, 3, 7, -4, pytest.param(10**400, id="10**400")])
    def test_rejects_bad_sizes(self, m):
        with pytest.raises(ValueError):
            make_pam(m)

    @pytest.mark.parametrize("kind", [np.int64, np.int8, np.uint8, np.uint64])
    def test_numpy_integer_sizes_give_the_same_points(self, kind):
        # M*M and M - 2*i + 1 would wrap in a narrow or unsigned numpy integer
        assert pam_spacing(kind(16)) == pam_spacing(16)
        np.testing.assert_array_equal(make_pam(kind(8)).points, make_pam(8).points)

    def test_points_are_readonly(self):
        c = make_pam(4)
        with pytest.raises(ValueError):
            c.points[0] = 0.0


class TestBitPattern:
    def test_index_examples(self):
        assert pattern_from_index(4, 5).bits == (0, 1, 0, 1)
        assert pattern_from_index(8, 15).bits == (0, 0, 0, 0, 1, 1, 1, 1)
        assert pattern_from_index(4, 3).bits == (0, 0, 1, 1)

    @pytest.mark.parametrize("m", [4, 8])
    def test_index_round_trip_exhaustive(self, m):
        count = 0
        for w in _masks_of_weight(m, m // 2).tolist():
            assert pattern_from_index(m, w).index == w
            count += 1
        assert count == math.comb(m, m // 2)

    def test_pattern_counts(self):
        assert _masks_of_weight(4, 2).size == 6
        assert _masks_of_weight(8, 4).size == 70
        assert _masks_of_weight(16, 8).size == 12870

    def test_rejects_wrong_weight(self):
        with pytest.raises(ValueError):
            pattern_from_index(4, 7)  # weight 3
        with pytest.raises(ValueError):
            BitPattern((0, 0, 0, 1))

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            pattern_from_index(4, 16)
        with pytest.raises(ValueError):
            pattern_from_index(4, -1)

    @pytest.mark.parametrize("index", [15.0, np.float64(15), True])
    def test_rejects_a_non_integer_index(self, index):
        with pytest.raises(ValueError, match="index must be an integer"):
            pattern_from_index(8, index)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BitPattern((0, 2, 1, 1))

    @pytest.mark.parametrize("bits", [(1.5, 0, 1, 0), (0.5, 1, 1, 0),
                                      (np.float64(0.5), 1, 1, 0), (float("nan"), 1, 1, 0)])
    def test_rejects_fractional_entries(self, bits):
        # int() would truncate the first three to valid patterns
        with pytest.raises(ValueError, match="0 or 1"):
            BitPattern(bits)

    @pytest.mark.parametrize("bits", [(1, 0, 1, 0), (True, False, True, False),
                                      tuple(np.array([1, 0, 1, 0], dtype=np.int8)),
                                      tuple(np.array([1, 0, 1, 0], dtype=np.int64))])
    def test_integer_entries_keep_working(self, bits):
        pat = BitPattern(bits)
        assert pat.bits == (1, 0, 1, 0) and all(type(b) is int for b in pat.bits)

    @pytest.mark.parametrize("entry", [
        0, 1, 2, -1, True, False, np.True_, np.False_, np.int8(1), np.uint64(0), np.int64(2),
        1.0, 0.0, np.float64(1.0), 0.5, 1.5, np.float32(0.5), float("nan"), np.nan,
        float("inf"), 1e300, "1", "0", "a", b"1", None, 1 + 0j,
    ])
    def test_accepts_exactly_the_entries_equal_to_0_or_1(self, entry):
        # An entry is kept iff it compares equal to 0 or 1 and int() maps it
        # there; a complex 1 compares equal but has no int().
        bits = (entry, 0, 1, 0) if entry == 1 else (entry, 1, 1, 0)
        if isinstance(entry, complex) or not any(entry == b for b in (0, 1)):
            with pytest.raises(ValueError, match="0 or 1"):
                BitPattern(bits)
        else:
            pat = BitPattern(bits)
            assert pat.bits == tuple(int(b) for b in bits)
            assert all(type(b) is int for b in pat.bits)

    @pytest.mark.parametrize("bits", [(0, 1, 1), (1,)])
    def test_rejects_odd_length(self, bits):
        with pytest.raises(ValueError, match="even and >= 2"):
            BitPattern(bits)

    def test_str(self):
        assert str(pattern_from_index(8, 102)) == "01100110"


NAMED_SETS = {
    ("BRGC", 4): {3, 6},
    ("NBC", 4): {3, 5},
    ("AG", 4): {5, 6},
    ("BRGC", 8): {15, 60, 102},
    ("FBC", 8): {15, 60, 90},
    ("NBC", 8): {15, 51, 85},
    ("BSGC", 8): {60, 102, 105},
    ("AG", 8): {85, 90, 105},
}


class TestNamedLabeling:
    @pytest.mark.parametrize(("name", "m"), sorted(NAMED_SETS))
    def test_pattern_sets(self, name, m):
        assert named_labeling(name, m).pattern_set == frozenset(NAMED_SETS[name, m])

    def test_case_insensitive(self):
        assert named_labeling("brgc", 8).pattern_set == frozenset({15, 60, 102})

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
    @pytest.mark.parametrize("name", ["BRGC", "NBC"])
    def test_constructive_any_power_of_two(self, name, m):
        lab = named_labeling(name, m)
        assert lab.size == m
        # constructor enforces bijectivity and balanced columns already
        assert np.all(lab.matrix.sum(axis=0) == m // 2)

    @pytest.mark.parametrize("m", [2 << k for k in range(12)])
    def test_code_tables_match_their_definitions(self, m):
        n_bits = m.bit_length() - 1
        gray = [[0], [1]]  # reflect-and-prefix recursion
        for _ in range(n_bits - 1):
            gray = [[0] + r for r in gray] + [[1] + r for r in reversed(gray)]
        binary = [[(i >> (n_bits - 1 - j)) & 1 for j in range(n_bits)] for i in range(m)]
        for name, rows in (("BRGC", gray), ("NBC", binary)):
            lab = named_labeling(name, m)
            assert lab.matrix.dtype == np.int8
            np.testing.assert_array_equal(lab.matrix, np.array(rows, dtype=np.int8))

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            named_labeling("XYZ", 8)

    @pytest.mark.parametrize("name", [None, 8, ["BRGC"], b"BRGC"])
    def test_a_name_that_is_not_a_string_is_unknown(self, name):
        # None once raised AttributeError from name.strip()
        with pytest.raises(ValueError, match=re.escape(f"unknown labeling name {name!r}")):
            named_labeling(name, 8)

    def test_unsupported_combination(self):
        with pytest.raises(ValueError, match="not defined"):
            named_labeling("FBC", 4)
        with pytest.raises(ValueError, match="not defined"):
            named_labeling("BSGC", 16)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            named_labeling("BRGC", 6)


class TestLabeling:
    def test_rows_are_distinct_labels(self):
        lab = named_labeling("BRGC", 4)
        assert tuple(lab.matrix[0]) == (0, 0)
        assert tuple(lab.matrix[1]) == (0, 1)
        assert tuple(lab.matrix[3]) == (1, 0)

    def test_rejects_complementary_columns(self):
        # columns 3 and 12 are complements; rows repeat
        with pytest.raises(ValueError, match="distinct"):
            Labeling.from_indices(4, [3, 12])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            Labeling(np.zeros((4, 3), dtype=np.int8))

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.zeros(4, dtype=np.int8), "must be 2-D"),
            (np.zeros((4, 3), dtype=np.int8), "need 2\\^3 = 8 rows"),
            ([[0, 0], [0, 1], [1, 2], [1, 0]], "entries must be 0 or 1"),
            ([[0, 0], [0, -1], [1, 1], [1, 0]], "entries must be 0 or 1"),
            ([[0, 0], [0, 1], [0, 1], [1, 0]], "pairwise distinct"),
            # checked before the int8 cast, which would truncate 0.4 and 1.9
            # to NBC-4, wrap 256.0 to 0, and raise OverflowError for 300
            ([[0.4, 0], [0, 1.9], [1, 0], [1, 1]], "entries must be 0 or 1"),
            ([[256.0, 0], [0, 1], [1, 0], [1, 1]], "entries must be 0 or 1"),
            ([[300, 0], [0, 1], [1, 0], [1, 1]], "entries must be 0 or 1"),
            ([[-255, 0], [0, 1], [1, 0], [1, 1]], "entries must be 0 or 1"),
            # one point and no bits: 1 == 2^0 rows, but not a labeling
            (np.zeros((1, 0), dtype=np.int8), "at least one bit column"),
            # 64 rows: the columns pack to Python ints (the object path)
            (named_labeling("NBC", 64).matrix[[0, *range(63)]], "pairwise distinct"),
        ],
    )
    def test_rejections_keep_their_messages(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            Labeling(matrix)

    @pytest.mark.parametrize("matrix", [
        [[0, 0], [0, 1], [1, 0], [1, 1]],
        [[False, False], [False, True], [True, False], [True, True]],
        np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.int64),
        [[np.uint8(0), np.int16(0)], [0, 1], [1, 0], [np.int64(1), 1]],
        named_labeling("NBC", 4).matrix,
    ])
    def test_integer_and_bool_entries_keep_working(self, matrix):
        lab = Labeling(matrix)
        assert lab.matrix.dtype == np.int8
        np.testing.assert_array_equal(lab.matrix, named_labeling("NBC", 4).matrix)

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 64, 128])
    def test_pattern_set_reads_columns_big_endian(self, m):
        # 64 and more points need indices beyond 64-bit integers
        for name in ("BRGC", "NBC"):
            lab = named_labeling(name, m)
            columns = (BitPattern(tuple(col)) for col in lab.matrix.T)
            assert lab.pattern_set == frozenset(p.index for p in columns)

    @pytest.mark.parametrize("width", [1, 3, 8, 62, 63, 64, 128])
    def test_packing_inverts_the_bit_rows(self, width):
        # 63 bits is the widest int64 row; wider rows pack to Python ints
        top = (1 << width) - 1
        codes = sorted({0, 1, top, top >> 1, top // 3, (top + 1) // 2})
        bits = _bit_rows(codes, width)
        packed = _pack_rows(bits)
        assert packed.tolist() == codes
        assert all(type(code) is int for code in packed.tolist())
        np.testing.assert_array_equal(_bit_rows(packed, width), bits)

    @pytest.mark.parametrize("width", [63, 64, 65, 128])
    def test_a_plain_int_code_round_trips_at_every_width(self, width):
        # _bit_rows picks the dtype by width as _pack_rows does: a Python int
        # in [2^63, 2^64) would otherwise be read as uint64 and not shift
        for code in (0, 5, 1 << (width - 1), (1 << width) - 1):
            bits = _bit_rows(code, width)
            assert bits.shape == (width,)
            assert _pack_rows(bits) == code

    def test_from_indices_column_order(self):
        lab = Labeling.from_indices(8, [105, 60, 102])
        assert [BitPattern(tuple(col)).index for col in lab.matrix.T] == [105, 60, 102]

    @pytest.mark.parametrize("m", [4, 8, 16, 64, 128])
    def test_from_indices_stacks_the_patterns(self, m):
        # 64 and more points need indices beyond 64-bit integers
        for name in ("BRGC", "NBC"):
            columns = named_labeling(name, m).matrix.T
            indices = [BitPattern(tuple(col)).index for col in columns]
            for given in (indices, indices[::-1], np.array(indices[::-1], dtype=object)):
                lab = Labeling.from_indices(m, given)
                np.testing.assert_array_equal(lab.matrix, np.column_stack(
                    [pattern_from_index(m, w).as_array() for w in given]))
                assert lab.matrix.dtype == np.int8 and lab.matrix.flags.c_contiguous
        lab = Labeling.from_indices(np.int16(8), np.array([15, 60, 102], dtype=np.uint8))
        np.testing.assert_array_equal(lab.matrix, named_labeling("BRGC", 8).matrix)

    @pytest.mark.parametrize(("m", "indices", "message"), [
        (8, [15, 60.0, 102], "index must be an integer, got 60.0"),
        (8, [15, np.float64(60), 102], "index must be an integer, got np.float64(60.0)"),
        (4, [True, 5], "index must be an integer, got True"),
        (4, [3, "5"], "index must be an integer, got '5'"),
        (4, [3, 16], "index 16 out of range for M=4"),
        (4, [-1, 5], "index -1 out of range for M=4"),
        (4, [3, 7], "pattern of length 4 must have weight 2, got 3"),
        (8, [15, 60, 1 << 7], "pattern of length 8 must have weight 4, got 1"),
        (4, [7, 16.0], "pattern of length 4 must have weight 2, got 3"),  # first bad index wins
        (5, [3], "M must be an even integer >= 2, got 5"),
        (4.0, [3, 5], "M must be an even integer >= 2, got 4.0"),
        (True, [1], "M must be an even integer >= 2, got True"),
        (0, [0], "M must be an even integer >= 2, got 0"),
        (4, [3, 12], "labeling rows must be pairwise distinct"),
        (8, [15, 60], "matrix is 8x2; need 2^2 = 4 rows"),
    ])
    def test_from_indices_rejects_with_the_pattern_messages(self, m, indices, message):
        with pytest.raises(ValueError) as caught:
            Labeling.from_indices(m, indices)
        assert str(caught.value).startswith(message)

    def test_every_two_column_bijection_is_balanced(self):
        # weight M/2 per column is a consequence of bijectivity; spot-check
        # every valid 2-subset for M=4
        for a, b in combinations(_masks_of_weight(4, 2).tolist(), 2):
            try:
                lab = Labeling.from_indices(4, [a, b])
            except ValueError:
                continue
            assert np.all(lab.matrix.sum(axis=0) == 2)


class TestGeometry:
    @pytest.mark.parametrize("points", [make_pam(8).points, [-1.9, -0.35, 0.1, 1.1],
                                        [-3.0, -2.9, 0.0, 0.25, 0.3, 7.0]])
    def test_computed_once_from_the_points(self, points):
        c = Constellation(points=points)
        p = c.points
        assert c.dmin == np.diff(p).min()
        assert isinstance(c.dmin, float)
        mids = c.midpoints()
        np.testing.assert_array_equal(mids, 0.5 * (p[:-1] + p[1:]))
        assert mids is c.midpoints()

    @pytest.mark.parametrize("points", [[0.0], [[0.0, 1.0], [2.0, 3.0]]])
    def test_rejects_one_point_or_2d_points(self, points):
        with pytest.raises(ValueError, match="1-D array of at least two points"):
            Constellation(points)

    def test_midpoints_are_read_only(self):
        mids = make_pam(4).midpoints()
        with pytest.raises(ValueError, match="read-only"):
            mids[0] = 1.0

    @pytest.mark.parametrize("points", [[0.0, 1.0, 2.0, np.inf], [-np.inf, 0.0],
                                        [0.0, np.nan, 1.0, 2.0], [np.nan, 0.0],
                                        [0, 10**400], [-10**400, 0]])
    def test_rejects_non_finite_points(self, points):
        with pytest.raises(ValueError, match="points must be finite"):
            Constellation(points)

    @pytest.mark.parametrize("points", [[-1e308, 1e308], [1e308, 1.7e308]])
    def test_rejects_gaps_and_midpoints_past_the_float_range(self, points):
        # the suite turns numpy's overflow warning into an error, so this
        # also checks that the rejection emits no warning
        with pytest.raises(ValueError, match="must be finite"):
            Constellation(points)
