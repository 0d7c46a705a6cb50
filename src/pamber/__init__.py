"""Bit-error-rate analysis for one-dimensional constellations.

Closed-form and simulated error rates under three demodulators (nearest
point, exact per-bit L-value, max-log L-value), plus enumeration of the
bit patterns and labelings that determine the BER of equally spaced PAM.

The public names are exported lazily (PEP 562): ``import pamber`` loads no
submodule, and ``pamber.<name>`` imports the one module that defines it on
first access.  Only :mod:`pamber.analytic` evaluates the Q-function, and it
imports ``scipy.special`` (about 0.3 s of a cold start on a 2-core Xeon,
numpy already loaded), so a program that
only counts classes, demodulates or simulates never pays for it.
"""

import importlib

__version__ = "0.1.0"

# Each public name, under the module that defines it.
_EXPORTS = {
    "analytic": (
        "ber_from_coefficients",
        "labeling_ber",
        "labeling_ber_pam",
        "pber_general",
        "pber_pam",
        "qfunc",
    ),
    "constellation": (
        "BitPattern",
        "Constellation",
        "Labeling",
        "make_pam",
        "named_labeling",
        "pam_spacing",
        "pattern_from_index",
    ),
    "demod": (
        "ChannelParams",
        "abd_decide",
        "exact_llr",
        "maxlog_llr",
        "sd_decide",
    ),
    "labeling_space": (
        "LabelingClass",
        "enumerate_labelings",
        "labeling_census",
    ),
    "montecarlo": ("BerEstimate", "SimConfig", "simulate"),
    "pattern_classes": (
        "PatternClass",
        "class_count_closed_form",
        "classify",
        "enumerate_classes",
        "high_snr_bicm_parameter",
        "labeling_coefficients",
        "pattern_coefficients",
        "pattern_indices",
    ),
    "thresholds": ("ThresholdSet", "bd_thresholds"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys())
