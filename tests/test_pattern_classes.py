"""Pattern symmetry operations and equivalence-class enumeration."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamber import (
    BitPattern,
    class_count_closed_form,
    enumerate_classes,
    pattern_coefficients,
    pattern_from_index,
)
from pamber.constellation import _bit_rows
from pamber.pattern_classes import (
    ClassTable, PatternClass, _mask_weights, _masks_of_weight, invert_index, pattern_weights,
    reflect_index,
)


def distinct_a1_count(m):
    """Number of distinct leading weights, read off the class table."""
    return len({cls.coefficients[0] for cls in enumerate_classes(m)})


def seen_set_classes(m):
    """Reference: a per-pattern orbit walk with a seen set, bits reversed as tuples."""
    seen, classes = set(), []
    for w in _masks_of_weight(m, m // 2).tolist():
        if w in seen:
            continue
        bits = pattern_from_index(m, w).bits
        r = BitPattern(bits[::-1]).index
        orbit = sorted({w, r, invert_index(w, m), invert_index(r, m)})
        seen.update(orbit)
        symmetry = "RE" if r == w else "ARE" if r == invert_index(w, m) else "ASY"
        classes.append(PatternClass(
            members=tuple(orbit),
            symmetry=symmetry,
            coefficients=tuple(int(x) for x in pattern_coefficients(pattern_from_index(m, w))),
        ))
    classes.sort(key=lambda c: c.coefficients)
    return classes


def bit_loop_reflect(index, m):
    """Reference: reverse the M bits one at a time."""
    out = 0
    for _ in range(m):
        out = (out << 1) | (index & 1)
        index = index >> 1
    return out


def eager_classes(m):
    """Reference: the class list built eagerly, one PatternClass per class.

    The masks come from the popcount filter (checked against
    ``itertools.combinations`` in TestMasksOfWeight), the reflections from
    the bit loop and the weights from the einsum over bit rows.
    """
    words = _masks_of_weight(m, m // 2).astype(np.int64)
    flipped = bit_loop_reflect(words, m)
    orbits = np.sort(np.stack([words, flipped, invert_index(words, m),
                               invert_index(flipped, m)], axis=1), axis=1)
    rep = orbits[:, 0] == words
    words, flipped, orbits = words[rep], flipped[rep], orbits[rep]
    weights = pattern_weights(_bit_rows(words, m))
    order = np.lexsort(weights.T[::-1])
    out = []
    for w, r, orbit, coeffs in zip(words[order].tolist(), flipped[order].tolist(),
                                   orbits[order].tolist(), weights[order].tolist()):
        symmetry = "RE" if r == w else "ARE" if r == invert_index(w, m) else "ASY"
        members = tuple(orbit) if symmetry == "ASY" else tuple(orbit[::2])
        out.append(PatternClass(members, symmetry, tuple(coeffs)))
    return out


def patterns_strategy(m):
    return st.sampled_from(_masks_of_weight(m, m // 2).tolist()).map(
        lambda w: pattern_from_index(m, w)
    )


class TestMasksOfWeight:
    @pytest.mark.parametrize("m", range(2, 21, 2))
    def test_every_balanced_mask_ascending(self, m):
        words = np.arange(1 << m)
        expected = words[np.bitwise_count(words) == m // 2]
        masks = _masks_of_weight(m, m // 2)
        assert masks.dtype == np.uint32
        np.testing.assert_array_equal(masks.astype(np.int64), expected)
        if m <= 16:  # an independent walk: the sets of m/2 bit positions
            combos = itertools.combinations(range(m), m // 2)
            assert masks.tolist() == sorted(sum(1 << i for i in c) for c in combos)

    @pytest.mark.parametrize("n_bits", range(1, 13))
    def test_every_weight_partitions_the_masks(self, n_bits):
        # enumerate_classes asks for an unbalanced weight (M/2 ones in M-1 bits)
        pools = [_masks_of_weight(n_bits, w) for w in range(n_bits + 1)]
        for w, masks in enumerate(pools):
            combos = itertools.combinations(range(n_bits), w)
            assert masks.tolist() == sorted(sum(1 << i for i in c) for c in combos)
        assert sorted(np.concatenate(pools).tolist()) == list(range(1 << n_bits))

    @pytest.mark.parametrize("m", [4, 8, 12, 16, 20])
    def test_representative_pool_is_the_balanced_masks_below_the_top_bit(self, m):
        # an orbit's smallest member is below its own inversion, so its top bit is 0
        balanced = _masks_of_weight(m, m // 2)
        np.testing.assert_array_equal(
            _masks_of_weight(m - 1, m // 2), balanced[balanced < 1 << (m - 1)])


class TestSymmetryOps:
    def test_reflect_example(self):
        assert pattern_from_index(4, reflect_index(3, 4)).bits == (1, 1, 0, 0)

    def test_invert_pairs_5_and_10(self):
        assert invert_index(5, 4) == 10
        assert pattern_from_index(4, invert_index(5, 4)).bits == (1, 0, 1, 0)

    def test_operations_commute_exhaustively(self):
        for w in _masks_of_weight(8, 4).tolist():
            assert reflect_index(invert_index(w, 8), 8) == invert_index(reflect_index(w, 8), 8)

    @given(w=st.sampled_from(_masks_of_weight(8, 4).tolist()))
    @settings(max_examples=70, deadline=None)
    def test_self_inverse(self, w):
        assert reflect_index(reflect_index(w, 8), 8) == w
        assert invert_index(invert_index(w, 8), 8) == w

    @given(pat=patterns_strategy(12))
    @settings(max_examples=60, deadline=None)
    def test_index_helpers_agree(self, pat):
        assert reflect_index(pat.index, 12) == BitPattern(pat.bits[::-1]).index
        flipped = BitPattern(tuple(1 - b for b in pat.bits))
        assert invert_index(pat.index, 12) == flipped.index

    @pytest.mark.parametrize("m", [4, 12, 20])
    def test_array_form_matches_the_scalar_form(self, m):
        words = _masks_of_weight(m, m // 2).astype(np.int64)
        before = words.copy()
        flipped = reflect_index(words, m)
        np.testing.assert_array_equal(words, before)  # the caller's array is not shifted
        assert flipped.tolist() == [reflect_index(w, m) for w in before.tolist()]
        assert invert_index(words, m).tolist() == [invert_index(w, m) for w in before.tolist()]

    @pytest.mark.parametrize("m", [4, 12, 20, 24])
    def test_uint32_arrays_keep_their_dtype(self, m):
        words = _masks_of_weight(m, m // 2)[::97]
        for out in (reflect_index(words, m), invert_index(words, m)):
            assert out.dtype == np.uint32
        assert reflect_index(words, m).tolist() == [bit_loop_reflect(w, m) for w in words.tolist()]

    @pytest.mark.parametrize("m", [2, 6, 8, 10, 16, 24, 32, 62, 100])
    def test_byte_table_matches_the_bit_loop(self, m):
        rng = np.random.default_rng(m)
        for w in [0, 1, (1 << m) - 1] + [int(x) for x in rng.integers(0, 1 << min(m, 62), 50)]:
            got = reflect_index(w, m)
            assert type(got) is int
            assert got == bit_loop_reflect(w, m)

    def test_no_pattern_is_its_own_inversion(self):
        for m in (4, 8):
            for w in _masks_of_weight(m, m // 2).tolist():
                assert invert_index(w, m) != w


class TestClassSymmetry:
    def test_reference_examples(self):
        symmetry = {w: cls.symmetry for cls in enumerate_classes(8) for w in cls.members}
        assert (symmetry[60], symmetry[43], symmetry[216]) == ("RE", "ARE", "ASY")


class TestEnumerateClasses:
    @pytest.mark.parametrize(("m", "expected"), [(4, 3), (8, 23), (12, 252)])
    def test_counts_match_closed_form(self, m, expected):
        classes = enumerate_classes(m)
        assert len(classes) == expected
        assert class_count_closed_form(m) == expected

    @pytest.mark.parametrize("m", [4, 8, 12, 16])
    def test_matches_the_seen_set_walk(self, m):
        got, want = enumerate_classes(m), seen_set_classes(m)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.representative == b.representative
            assert a.members == b.members
            assert a.symmetry == b.symmetry
            assert a.coefficients == b.coefficients
            assert all(type(x) is int for x in a.members + a.coefficients + a.representative.bits)

    def test_distinct_ber_claim_at_twenty_points(self):
        # The paper's claim that distinct classes have distinct BER curves.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            classes = enumerate_classes(20)
        assert len(classes) == class_count_closed_form(20) == 46508
        assert len({cls.coefficients for cls in classes}) == len(classes)

    def test_distinct_ber_claim_at_twenty_four_points(self):
        # The same claim at the largest enumerable M, read off the arrays.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = enumerate_classes(24)
        assert len(table) == class_count_closed_form(24) == 677294
        assert len(np.unique(table.weights, axis=0)) == len(table)
        assert len(np.unique(table.orbits[:, 0])) == len(table)

    @pytest.mark.parametrize("m", [4, 8, 12, 16, 20])
    def test_table_equals_the_eager_class_list(self, m):
        table, eager = enumerate_classes(m), eager_classes(m)
        assert isinstance(table, ClassTable)
        assert len(table) == len(eager)
        for got, want in zip(table, eager):
            assert got.members == want.members
            assert got.symmetry == want.symmetry
            assert got.coefficients == want.coefficients
        assert table == eager
        for i in (0, 1, len(eager) - 1, -1, -len(eager), np.int64(2)):
            assert table[i] == eager[i]
        assert list(table[1:3]) == eager[1:3]
        with pytest.raises(IndexError):
            table[len(eager)]

    def test_table_equality(self):
        table = enumerate_classes(8)
        assert table == enumerate_classes(8)
        assert table != enumerate_classes(4)
        assert table != table[1:]
        assert table != list(table)[::-1]
        assert table[2:5] == list(table)[2:5]
        assert table[2:5] == tuple(table)[2:5]
        assert table != "classes"
        assert repr(table) == "ClassTable(M=8, 23 classes)"

    def test_table_rows_are_the_class_fields(self):
        table = enumerate_classes(12)
        assert [PatternClass(*row) for row in table.rows()] == list(table)
        assert table.orbits[:, 0].tolist() == [cls.members[0] for cls in table]
        for array in (table.orbits, table.symmetry, table.weights):
            assert not array.flags.writeable

    def test_table_rows_cross_block_boundaries(self, monkeypatch):
        from pamber import pattern_classes

        def fields(cls):
            return cls.members, cls.symmetry, cls.coefficients

        # indexing builds each class from its own array rows, apart from rows()
        block, table = pattern_classes._ROWS_BLOCK, enumerate_classes(20)
        assert 2 * block < len(table) == 46_508 < 3 * block  # the last block is partial
        rows = list(table.rows())
        assert len(rows) == len(table)
        for i in (0, block - 1, block, 2 * block - 1, 2 * block, len(table) - 1):
            assert rows[i] == fields(table[i]), i
        small = enumerate_classes(8)  # 23 classes, every one checked at several block sizes
        want = [fields(small[i]) for i in range(len(small))]
        for block in (1, 5, 23, 24):
            monkeypatch.setattr(pattern_classes, "_ROWS_BLOCK", block)
            assert list(small.rows()) == want, block

    def test_warns_when_two_classes_share_a_weight_vector(self, monkeypatch):
        from pamber import pattern_classes

        real = pattern_classes._mask_weights
        # Keep only the leading weight, so classes with equal transition counts collide.
        monkeypatch.setattr(pattern_classes, "_mask_weights",
                            lambda masks, m: real(masks, m) * (np.arange(7) == 0))
        with pytest.warns(UserWarning, match="share a coefficient vector for M=8"):
            classes = enumerate_classes(8)
        assert len(classes) == 23

    @pytest.mark.parametrize("m", [np.int64(8), np.int8(8), np.uint64(8)])
    def test_numpy_integer_sizes_give_the_same_classes(self, m):
        assert enumerate_classes(m) == enumerate_classes(8)
        assert class_count_closed_form(m) == 23

    def test_class_sizes_and_membership(self):
        for m in (4, 8):
            classes = enumerate_classes(m)
            total = 0
            for cls in classes:
                assert len(cls.members) in (2, 4)
                expected_size = 2 if cls.symmetry in ("RE", "ARE") else 4
                assert len(cls.members) == expected_size
                assert cls.representative.index == min(cls.members)
                total += len(cls.members)
            assert total == math.comb(m, m // 2)

    @pytest.mark.parametrize("m", [4, 8, 12, 16])
    def test_symmetry_population_counts(self, m):
        tally = {"RE": 0, "ARE": 0, "ASY": 0}
        for cls in enumerate_classes(m):
            tally[cls.symmetry] += len(cls.members)
        assert tally["RE"] == math.comb(m // 2, m // 4)
        assert tally["ARE"] == 2 ** (m // 2)
        assert tally["ASY"] == math.comb(m, m // 2) - tally["RE"] - tally["ARE"]

    @pytest.mark.parametrize("m", [4, 8, 12, 16])
    def test_symmetry_agrees_with_the_definition_member_by_member(self, m):
        # the table codes a whole mask array at once; the definition reads one mask
        for cls in enumerate_classes(m):
            for w in cls.members:
                r = reflect_index(w, m)
                want = "RE" if r == w else "ARE" if r == invert_index(w, m) else "ASY"
                assert cls.symmetry == want

    def test_members_closed_under_symmetries(self):
        for cls in enumerate_classes(8):
            members = set(cls.members)
            for w in cls.members:
                assert reflect_index(w, 8) in members
                assert invert_index(w, 8) in members

    def test_coefficients_are_class_invariants(self):
        for cls in enumerate_classes(8):
            for w in cls.members:
                got = tuple(pattern_coefficients(pattern_from_index(8, w)))
                assert got == cls.coefficients

    def test_coefficients_invariant_sampled_16(self):
        classes = enumerate_classes(16)
        rng = np.random.default_rng(11)
        for cls in rng.choice(len(classes), size=60, replace=False):
            chosen = classes[cls]
            for w in chosen.members:
                got = tuple(pattern_coefficients(pattern_from_index(16, w)))
                assert got == chosen.coefficients

    def test_sorted_best_to_worst(self):
        coeffs = [cls.coefficients for cls in enumerate_classes(8)]
        assert coeffs == sorted(coeffs)

    def test_distinct_coefficient_vectors(self):
        for m in (4, 8, 16):
            classes = enumerate_classes(m)
            assert len({cls.coefficients for cls in classes}) == len(classes)

    def test_rejects_size_not_multiple_of_four(self):
        with pytest.raises(ValueError):
            enumerate_classes(6)
        with pytest.raises(ValueError):
            class_count_closed_form(10)

    @pytest.mark.parametrize("func", [enumerate_classes, class_count_closed_form,
                                      distinct_a1_count])
    @pytest.mark.parametrize("m", [0, -4, 2, 6, 8.0, np.float64(16), True])
    def test_one_class_size_rule(self, func, m):
        with pytest.raises(ValueError, match=f"positive multiple of 4, got {m}"):
            func(m)

    @pytest.mark.parametrize("func", [enumerate_classes])
    @pytest.mark.parametrize("m", [28, 40])
    def test_size_limit_raises_before_the_walk(self, func, m, monkeypatch):
        from pamber import pattern_classes

        monkeypatch.setattr(pattern_classes, "_masks_of_weight", None)  # never reached
        with pytest.raises(ValueError, match=f"M <= 24, got {m}"):
            func(m)

    def test_closed_form_count_has_no_size_limit(self):
        assert class_count_closed_form(40) == (math.comb(40, 20) + math.comb(20, 10) + 2**20) // 4


class TestWeightIdentity:
    """The autocorrelation identity against the einsum over bit rows."""

    @pytest.mark.parametrize("m", range(2, 17, 2))
    def test_every_balanced_pattern(self, m):
        masks = _masks_of_weight(m, m // 2).astype(np.int64)
        want = pattern_weights(_bit_rows(masks, m))
        got = _mask_weights(masks.astype(np.uint32), m)
        assert got.dtype == np.int16
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("m", [24, 26, 28, 30, 32])
    def test_seeded_random_balanced_masks(self, m):
        rng = np.random.default_rng(1000 + m)
        masks = []
        for _ in range(400):
            bits = rng.permutation(np.arange(m) < m // 2)
            w = int("".join("1" if b else "0" for b in bits), 2)
            assert w.bit_count() == m // 2
            masks.append(w)
        masks = np.array(masks, dtype=np.uint32)
        want = pattern_weights(_bit_rows(masks.astype(np.int64), m))
        np.testing.assert_array_equal(_mask_weights(masks, m), want)

    def test_leading_weight_counts_transitions(self):
        masks = np.array([0b0110, 0b0101, 0b0011], dtype=np.uint32)
        assert _mask_weights(masks, 4)[:, 0].tolist() == [4, 6, 2]


class TestLeadingWeightGroups:
    @pytest.mark.parametrize(("m", "expected"), [(4, 3), (8, 7), (12, 11), (16, 15)])
    def test_group_counts(self, m, expected):
        assert distinct_a1_count(m) == expected

    def test_four_point_values(self):
        leads = {
            int(pattern_coefficients(pattern_from_index(4, w))[0])
            for w in _masks_of_weight(4, 2).tolist()
        }
        assert leads == {2, 4, 6}
