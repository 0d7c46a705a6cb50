"""The public names of the package, and the one check of a target behind them."""

import numpy as np
import pytest

import pamber
from pamber import (
    ChannelParams, Constellation, SimConfig, ThresholdSet, bd_thresholds, ber_from_coefficients,
    exact_llr, labeling_ber,
    labeling_ber_pam, labeling_coefficients, make_pam, maxlog_llr, named_labeling,
    pattern_coefficients, pattern_from_index, pber_general, pber_pam, sd_decide, simulate,
)
from pamber.verify import pber_interval_form

PUBLIC_NAMES = [
    "BerEstimate",
    "BitPattern",
    "ChannelParams",
    "Constellation",
    "Labeling",
    "LabelingClass",
    "PatternClass",
    "SimConfig",
    "ThresholdSet",
    "abd_decide",
    "bd_thresholds",
    "ber_from_coefficients",
    "class_count_closed_form",
    "enumerate_classes",
    "exact_llr",
    "labeling_ber",
    "labeling_ber_pam",
    "labeling_census",
    "labeling_coefficients",
    "make_pam",
    "maxlog_llr",
    "named_labeling",
    "pam_spacing",
    "pattern_coefficients",
    "pattern_from_index",
    "pber_general",
    "pber_pam",
    "qfunc",
    "sd_decide",
    "simulate",
]

# Removed from the API, each with the path that replaces it (see README).
REMOVED_NAMES = (
    "classify",
    "distinct_a1_count",
    "enumerate_labelings",
    "high_snr_bicm_parameter",
    "invert",
    "iter_patterns",
    "midpoint_thresholds",
    "nearest_point_index",
    "pattern_exact_llr",
    "pattern_indices",
    "pattern_maxlog_llr",
    "reflect",
    "relevance_mask",
    "sample_labelings",
    "subconstellation",
    "transition_mask",
)


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 30
    assert sorted(pamber.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in pamber.__all__:
        assert getattr(pamber, name) is not None, name


def test_removed_names_are_gone():
    for name in REMOVED_NAMES:
        assert not hasattr(pamber, name), name



PARAMS = ChannelParams.from_db(5.0)
EITHER, PATTERN, LABELING = "Labeling or BitPattern", "BitPattern", "Labeling"


def midpoint_set(c):
    return ThresholdSet(c.midpoints(), np.arange(c.size) % 2)


# Every entry that takes a target: its call on (target, constellation), the
# kinds of target it accepts, and whether it takes the constellation.
TARGET_ENTRIES = {
    "labeling_ber/abd": (lambda t, c: labeling_ber(t, c, PARAMS, "abd"), EITHER, True),
    "labeling_ber/bd": (lambda t, c: labeling_ber(t, c, PARAMS, "bd"), EITHER, True),
    "simulate": (lambda t, c: simulate(t, c, SimConfig(10_000, 0, (5.0,))), EITHER, True),
    "sd_decide": (lambda t, c: sd_decide(0.0, t, c), EITHER, True),
    "exact_llr": (lambda t, c: exact_llr(0.0, t, c, PARAMS), EITHER, True),
    "maxlog_llr": (lambda t, c: maxlog_llr(0.0, t, c, PARAMS), EITHER, True),
    "pber_general": (lambda t, c: pber_general(t, c, midpoint_set(c), PARAMS), PATTERN, True),
    "bd_thresholds": (lambda t, c: bd_thresholds(t, c, PARAMS), PATTERN, True),
    "verify.pber_interval_form": (
        lambda t, c: pber_interval_form(t, c, midpoint_set(c), PARAMS), PATTERN, True),
    "pattern_coefficients": (lambda t, c: pattern_coefficients(t), PATTERN, False),
    "pber_pam": (lambda t, c: pber_pam(t, PARAMS), PATTERN, False),
    "labeling_coefficients": (lambda t, c: labeling_coefficients(t), LABELING, False),
    "labeling_ber_pam": (lambda t, c: labeling_ber_pam(t, PARAMS), LABELING, False),
}


@pytest.mark.parametrize("name", list(TARGET_ENTRIES))
def test_every_entry_checks_its_target_at_the_boundary(name):
    call, accepted, sized = TARGET_ENTRIES[name]
    kinds = accepted.split(" or ")
    four = {PATTERN: pattern_from_index(4, 3), LABELING: named_labeling("BRGC", 4)}
    for kind in kinds:  # an accepted target of the right size passes
        call(four[kind], make_pam(4))
    # a labeling is not its first column, nor a pattern a one-column labeling,
    # nor bits or a label matrix a target
    wrong = [target for kind, target in four.items() if kind not in kinds]
    for target in wrong + [(0, 0, 1, 1), four[LABELING].matrix, 102, None]:
        with pytest.raises(TypeError, match=f"^target must be a {accepted}, got <class "):
            call(target, make_pam(4))
    if sized:
        for kind in kinds:
            with pytest.raises(ValueError, match="^target and constellation sizes differ$"):
                call(four[kind], make_pam(8))


# Each one a value that a cast to float would take apart: the real part of
# a complex number, or (for the weights) no number at all.
NOT_REAL = {
    "Constellation": lambda: Constellation(np.array([-1 + 2j, 1 + 0j])),
    "ThresholdSet": lambda: ThresholdSet(np.array([0.1 + 1j]), [0, 1]),
    "sd_decide": lambda: sd_decide(0.5 + 1j, named_labeling("BRGC", 4), make_pam(4)),
    "exact_llr": lambda: exact_llr(np.array([0.5j]), named_labeling("BRGC", 4), make_pam(4),
                                   PARAMS),
    "maxlog_llr": lambda: maxlog_llr([0.5 + 0j], named_labeling("BRGC", 4), make_pam(4), PARAMS),
    "ber_from_coefficients complex": lambda: ber_from_coefficients(
        np.array([1 + 1j] * 7), 8, ChannelParams(1.0)),
    "ber_from_coefficients str": lambda: ber_from_coefficients(
        np.array(["1"] * 7), 8, ChannelParams(1.0)),
    "ber_from_coefficients object": lambda: ber_from_coefficients(
        np.array([1] * 7, dtype=object), 8, ChannelParams(1.0)),
}


@pytest.mark.parametrize("name", list(NOT_REAL))
def test_input_that_is_not_real_is_rejected_not_truncated(name):
    with pytest.raises(ValueError, match="must be real"):
        NOT_REAL[name]()
