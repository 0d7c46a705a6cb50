"""Bit-error-rate analysis for one-dimensional constellations.

Closed-form and simulated error rates under three demodulators (nearest
point, exact per-bit L-value, max-log L-value), plus enumeration of the
bit patterns and labelings that determine the BER of equally spaced PAM.
"""

from .analytic import (
    ber_from_coefficients,
    high_snr_bicm_parameter,
    labeling_ber,
    labeling_ber_pam,
    labeling_coefficients,
    pattern_coefficients,
    pber_general,
    pber_pam,
    qfunc,
)
from .constellation import (
    BitPattern,
    Constellation,
    Labeling,
    make_pam,
    named_labeling,
    pam_spacing,
    pattern_from_index,
    subconstellation,
)
from .demod import (
    ChannelParams,
    abd_decide,
    exact_llr,
    maxlog_llr,
    nearest_point_index,
    pattern_exact_llr,
    pattern_maxlog_llr,
    sd_decide,
)
from .labeling_space import (
    LabelingClass,
    enumerate_labelings,
    labeling_census,
    sample_labelings,
)
from .montecarlo import BerEstimate, SimConfig, simulate
from .pattern_classes import (
    PatternClass,
    class_count_closed_form,
    classify,
    distinct_a1_count,
    enumerate_classes,
    invert,
    iter_patterns,
    reflect,
)
from .thresholds import (
    ThresholdSet,
    bd_thresholds,
    midpoint_thresholds,
    relevance_mask,
    transition_mask,
)

__version__ = "0.1.0"

__all__ = [
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
    "classify",
    "distinct_a1_count",
    "enumerate_classes",
    "enumerate_labelings",
    "exact_llr",
    "high_snr_bicm_parameter",
    "invert",
    "iter_patterns",
    "labeling_ber",
    "labeling_ber_pam",
    "labeling_census",
    "labeling_coefficients",
    "make_pam",
    "maxlog_llr",
    "midpoint_thresholds",
    "named_labeling",
    "nearest_point_index",
    "pam_spacing",
    "pattern_coefficients",
    "pattern_exact_llr",
    "pattern_from_index",
    "pattern_maxlog_llr",
    "pber_general",
    "pber_pam",
    "qfunc",
    "reflect",
    "relevance_mask",
    "sd_decide",
    "simulate",
    "subconstellation",
    "transition_mask",
]
