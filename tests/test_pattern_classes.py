"""Pattern symmetry operations and equivalence-class enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamber import (
    class_count_closed_form,
    classify,
    distinct_a1_count,
    enumerate_classes,
    invert,
    iter_patterns,
    pattern_coefficients,
    pattern_from_index,
    reflect,
)
from pamber.pattern_classes import invert_index, pattern_indices, reflect_index


def patterns_strategy(m):
    return st.sampled_from(sorted(pattern_indices(m))).map(
        lambda w: pattern_from_index(m, w)
    )


class TestSymmetryOps:
    def test_reflect_example(self):
        assert reflect(pattern_from_index(4, 3)).bits == (1, 1, 0, 0)

    def test_invert_pairs_5_and_10(self):
        p5 = pattern_from_index(4, 5)
        assert invert(p5).index == 10
        assert invert(p5).bits == (1, 0, 1, 0)

    def test_operations_commute_exhaustively(self):
        for pat in iter_patterns(8):
            assert reflect(invert(pat)) == invert(reflect(pat))

    @given(pat=patterns_strategy(8))
    @settings(max_examples=70, deadline=None)
    def test_self_inverse(self, pat):
        assert reflect(reflect(pat)) == pat
        assert invert(invert(pat)) == pat

    @given(pat=patterns_strategy(12))
    @settings(max_examples=60, deadline=None)
    def test_index_helpers_agree(self, pat):
        assert reflect_index(pat.index, 12) == reflect(pat).index
        assert invert_index(pat.index, 12) == invert(pat).index

    def test_no_pattern_is_its_own_inversion(self):
        for m in (4, 8):
            for pat in iter_patterns(m):
                assert invert(pat) != pat


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
        for pat in iter_patterns(m):
            tally[classify(pat)] += 1
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
    @pytest.mark.parametrize("m", [0, -4, 2, 6])
    def test_one_class_size_rule(self, func, m):
        with pytest.raises(ValueError, match=f"positive multiple of 4, got {m}"):
            func(m)


class TestLeadingWeightGroups:
    @pytest.mark.parametrize(("m", "expected"), [(4, 3), (8, 7), (16, 15)])
    def test_group_counts(self, m, expected):
        assert distinct_a1_count(m) == expected

    def test_four_point_values(self):
        leads = {int(pattern_coefficients(p)[0]) for p in iter_patterns(4)}
        assert leads == {2, 4, 6}
