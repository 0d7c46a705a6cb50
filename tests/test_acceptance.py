"""Acceptance gate: one test per shipped guarantee.

Each test drives the corresponding self-check from :mod:`pamber.verify`
(the same code behind ``pamber verify``) and prints a pass line with the
check's detail, so ``pytest -v -s tests/test_acceptance.py`` doubles as a
human-readable report.  Tolerances and runtime budgets live inside the
checks themselves.
"""

import pytest

from pamber import ThresholdSet, pattern_from_index, verify

CRITERIA = (
    ("01 class tables reproduce entry-for-entry", verify.check_pattern_class_tables),
    ("02 class counts match the closed form", verify.check_class_counts),
    ("03 named labelings carry the frozen weights", verify.check_named_labeling_coefficients),
    ("04 labeling census finds 460 curves and 12 groups", verify.check_labeling_census),
    ("05 hard and max-log decisions are identical", verify.check_sd_abd_equivalence),
    ("06 dual forms and quadrature oracle agree", verify.check_dual_form_and_quadrature),
    ("07 leading weights group patterns M-1 ways", verify.check_leading_weight_grouping),
    ("08 exact boundaries stay within 2% of midpoints", verify.check_bd_abd_closeness),
    ("09 Monte-Carlo estimates sit within 3 sigma", verify.check_montecarlo_consistency),
    ("10 460 distinct curves, Gray class is best", verify.check_curve_population),
)


@pytest.mark.parametrize(("label", "check"), CRITERIA, ids=[c[0][:2] for c in CRITERIA])
def test_criterion(label, check):
    detail = check()  # raises AssertionError with context on failure
    print(f"PASS {label}: {detail}")


def test_cli_verify_covers_every_criterion():
    assert len(verify.ALL_CHECKS) == len(CRITERIA)
    wired = {func for _, func in verify.ALL_CHECKS}
    assert wired == {check for _, check in CRITERIA}


def test_leading_weight_check_names_the_failing_mask(monkeypatch):
    from pamber import pattern_classes

    real = pattern_classes.pattern_weights

    def one_lead_off(bits):
        weights = real(bits)
        if bits.shape[1] == 4:  # pattern 6 = 0110 at M = 4
            weights[(bits == [0, 1, 1, 0]).all(axis=1), 0] += 2
        return weights

    monkeypatch.setattr(pattern_classes, "pattern_weights", one_lead_off)
    with pytest.raises(AssertionError, match=r"M=4, patterns \[6\]: leading weights \[6\]"):
        verify.check_leading_weight_grouping()


@pytest.mark.parametrize(("betas", "bits", "message"), [
    ((-0.5, 0.0, 0.5), (0, 1, 0, 1), r"3 crossings, 4 transitions"),
    ((-0.6, -0.4, -0.2, 0.2, 0.4, 0.6), (0, 1, 0, 1, 0, 1, 0), r"6 crossings, 4 transitions"),
    ((-0.5, 0.5), (1, 0, 1), r"outer regions decide \(1, 1\)"),
])
def test_crossing_facts_reject_a_set_that_breaks_them(betas, bits, message):
    pattern = pattern_from_index(8, 102)  # 01100110: four transitions
    thresholds = ThresholdSet(betas, bits)
    with pytest.raises(AssertionError, match=message):
        verify._require_crossing_facts(pattern, thresholds, "here")
