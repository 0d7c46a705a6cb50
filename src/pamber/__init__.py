"""Bit-error-rate analysis for one-dimensional constellations.

Closed-form and simulated error rates under three demodulators (nearest
point, exact per-bit L-value, max-log L-value), plus enumeration of the
bit patterns and labelings that determine the BER of equally spaced PAM.

The public names are exported lazily (PEP 562): ``import pamber`` loads no
submodule, and ``pamber.<name>`` imports the one module that defines it on
first access.  numpy is the only runtime dependency:
:mod:`pamber.analytic` evaluates the Q-function with a numpy port of the
Cephes ``erfc`` that ``scipy.special`` wraps, and the quadrature oracle of
:mod:`pamber.verify` is a Gauss-Legendre rule in numpy.  scipy serves the
tests alone, as an oracle.
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
        "labeling_census",
    ),
    "montecarlo": ("BerEstimate", "SimConfig", "simulate"),
    "pattern_classes": (
        "PatternClass",
        "class_count_closed_form",
        "enumerate_classes",
        "labeling_coefficients",
        "pattern_coefficients",
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
