"""Pattern symmetry operations and equivalence-class enumeration."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamber import (
    BitPattern,
    class_count_closed_form,
    classify,
    enumerate_classes,
    pattern_coefficients,
    pattern_from_index,
    pattern_indices,
)
from pamber.pattern_classes import PatternClass, invert_index, reflect_index


def distinct_a1_count(m):
    """Number of distinct leading weights, read off the class table."""
    return len({cls.coefficients[0] for cls in enumerate_classes(m)})


def seen_set_classes(m):
    """Reference: a per-pattern orbit walk with a seen set, bits reversed as tuples."""
    seen, classes = set(), []
    for w in pattern_indices(m):
        if w in seen:
            continue
        bits = pattern_from_index(m, w).bits
        r = BitPattern(bits[::-1]).index
        orbit = sorted({w, r, invert_index(w, m), invert_index(r, m)})
        seen.update(orbit)
        symmetry = "RE" if r == w else "ARE" if r == invert_index(w, m) else "ASY"
        classes.append(PatternClass(
            representative=pattern_from_index(m, w),
            members=tuple(orbit),
            symmetry=symmetry,
            coefficients=tuple(int(x) for x in pattern_coefficients(pattern_from_index(m, w))),
        ))
    classes.sort(key=lambda c: c.coefficients)
    return classes


def patterns_strategy(m):
    return st.sampled_from(sorted(pattern_indices(m))).map(
        lambda w: pattern_from_index(m, w)
    )


class TestPatternIndices:
    @pytest.mark.parametrize("m", [3, 0, 64, 8.0, np.float64(8), True])
    def test_rejects_a_bad_size_at_the_call(self, m):
        with pytest.raises(ValueError, match=f"got {m}|M <= 62"):
            pattern_indices(m)  # never iterated

    @pytest.mark.parametrize("m", [np.int64(8), np.int8(8), np.uint8(8)])
    def test_numpy_integer_sizes_walk_the_same_masks(self, m):
        words = list(pattern_indices(m))
        assert words == list(pattern_indices(8))
        assert all(type(w) is int for w in words)

    @pytest.mark.parametrize("m", range(2, 21, 2))
    def test_walks_every_balanced_mask_ascending(self, m):
        words = np.arange(1 << m)
        expected = words[np.bitwise_count(words) == m // 2]
        np.testing.assert_array_equal(np.fromiter(pattern_indices(m), dtype=np.int64), expected)


class TestSymmetryOps:
    def test_reflect_example(self):
        assert pattern_from_index(4, reflect_index(3, 4)).bits == (1, 1, 0, 0)

    def test_invert_pairs_5_and_10(self):
        assert invert_index(5, 4) == 10
        assert pattern_from_index(4, invert_index(5, 4)).bits == (1, 0, 1, 0)

    def test_operations_commute_exhaustively(self):
        for w in pattern_indices(8):
            assert reflect_index(invert_index(w, 8), 8) == invert_index(reflect_index(w, 8), 8)

    @given(w=st.sampled_from(sorted(pattern_indices(8))))
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
        words = np.fromiter(pattern_indices(m), np.int64)
        before = words.copy()
        flipped = reflect_index(words, m)
        np.testing.assert_array_equal(words, before)  # the caller's array is not shifted
        assert flipped.tolist() == [reflect_index(w, m) for w in before.tolist()]
        assert invert_index(words, m).tolist() == [invert_index(w, m) for w in before.tolist()]

    def test_no_pattern_is_its_own_inversion(self):
        for m in (4, 8):
            for w in pattern_indices(m):
                assert invert_index(w, m) != w


class TestClassify:
    def test_reference_examples(self):
        assert classify(pattern_from_index(8, 60)) == "RE"
        assert classify(pattern_from_index(8, 43)) == "ARE"
        assert classify(pattern_from_index(8, 216)) == "ASY"


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
        # The paper's claim that distinct classes have distinct BER curves,
        # checked at the largest enumerable M.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            classes = enumerate_classes(20)
        assert len(classes) == class_count_closed_form(20) == 46508
        assert len({cls.coefficients for cls in classes}) == len(classes)

    def test_warns_when_two_classes_share_a_weight_vector(self, monkeypatch):
        from pamber import pattern_classes

        real = pattern_classes.pattern_weights
        # Keep only the leading weight, so classes with equal transition counts collide.
        monkeypatch.setattr(pattern_classes, "pattern_weights",
                            lambda bits: real(bits) * (np.arange(7) == 0))
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
        for w in pattern_indices(m):
            tally[classify(pattern_from_index(m, w))] += 1
        assert tally["RE"] == math.comb(m // 2, m // 4)
        assert tally["ARE"] == 2 ** (m // 2)
        assert tally["ASY"] == math.comb(m, m // 2) - tally["RE"] - tally["ARE"]

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
    @pytest.mark.parametrize("m", [24, 40])
    def test_size_limit_raises_before_the_walk(self, func, m):
        with pytest.raises(ValueError, match=f"M <= 20, got {m}"):
            func(m)

    def test_closed_form_count_has_no_size_limit(self):
        assert class_count_closed_form(40) == (math.comb(40, 20) + math.comb(20, 10) + 2**20) // 4


class TestLeadingWeightGroups:
    @pytest.mark.parametrize(("m", "expected"), [(4, 3), (8, 7), (12, 11), (16, 15)])
    def test_group_counts(self, m, expected):
        assert distinct_a1_count(m) == expected

    def test_four_point_values(self):
        leads = {
            int(pattern_coefficients(pattern_from_index(4, w))[0]) for w in pattern_indices(4)
        }
        assert leads == {2, 4, 6}
