"""The public names of the package."""

import pamber

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

