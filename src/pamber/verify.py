"""End-to-end self checks behind the ``verify`` CLI subcommand.

Each check cross-validates one slice of the package against frozen
reference values or an independent numerical oracle (quadrature,
brute-force scanning, Monte-Carlo).  The oracles live here, not in the
public API: the interval form of the PBER (:func:`interval_probs`,
:func:`pber_interval_form`) and the quadrature of the channel density.
The same checks back the acceptance test module, so ``pamber verify``
failing and the test suite failing mean the same thing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import analytic, labeling_space, montecarlo, pattern_classes
from .constellation import (
    BitPattern, Constellation, _bit_rows, make_pam, named_labeling, pattern_from_index,
)
from .demod import ChannelParams, abd_decide, maxlog_llr, sd_decide
from .thresholds import ThresholdSet, bd_thresholds

# Frozen expected enumeration results: (representative index, members,
# symmetry, coefficient vector), ordered best to worst at high SNR.
REFERENCE_CLASSES_4 = (
    (3, (3, 12), "ARE", (2, 2, 0)),
    (6, (6, 9), "RE", (4, 2, -2)),
    (5, (5, 10), "ARE", (6, -4, 2)),
)

REFERENCE_CLASSES_8 = (
    (15, (15, 240), "ARE", (2, 2, 2, 2, 0, 0, 0)),
    (30, (30, 120, 135, 225), "ASY", (4, 3, 3, 2, -2, -1, -1)),
    (60, (60, 195), "RE", (4, 4, 2, 2, -2, -2, 0)),
    (23, (23, 232), "ARE", (6, -2, 2, 0, 2, 0, 0)),
    (29, (29, 71, 184, 226), "ASY", (6, 1, 2, -3, 1, 0, 1)),
    (27, (27, 39, 216, 228), "ASY", (6, 2, -3, 1, 1, 1, 0)),
    (113, (113, 142), "ARE", (6, 4, 4, -4, -2, -2, 2)),
    (57, (57, 99, 156, 198), "ASY", (6, 5, 0, -3, -3, 2, 1)),
    (51, (51, 204), "ARE", (6, 6, -4, -4, 2, 2, 0)),
    (46, (46, 116, 139, 209), "ASY", (8, -1, 2, -1, 3, -2, -1)),
    (58, (58, 92, 163, 197), "ASY", (8, -1, 3, -2, 2, -1, -1)),
    (78, (78, 114, 141, 177), "ASY", (8, 2, -1, -1, -1, 3, -2)),
    (54, (54, 108, 147, 201), "ASY", (8, 3, -6, 3, 3, -2, -1)),
    (102, (102, 153), "RE", (8, 6, -6, -4, 4, 2, -2)),
    (43, (43, 212), "ARE", (10, -6, 4, -2, 0, 2, 0)),
    (45, (45, 75, 180, 210), "ASY", (10, -3, -3, 6, -4, 1, 1)),
    (53, (53, 83, 172, 202), "ASY", (10, -3, 1, 0, -2, 1, 1)),
    (77, (77, 178), "ARE", (10, 0, -6, 2, 4, -4, 2)),
    (105, (105, 150), "ARE", (10, 0, -4, 6, -4, -2, 2)),
    (89, (89, 101, 154, 166), "ASY", (10, 0, -3, 1, 1, -3, 2)),
    (90, (90, 165), "RE", (12, -6, 0, 6, -6, 4, -2)),
    (86, (86, 106, 149, 169), "ASY", (12, -6, 3, -1, -1, 3, -2)),
    (85, (85, 170), "ARE", (14, -12, 10, -8, 6, -4, 2)),
)

# (name, M) -> (pattern index set, weight vector), best to worst per M.
REFERENCE_LABELINGS = (
    ("BRGC", 4, (3, 6), (6, 4, -2)),
    ("NBC", 4, (3, 5), (8, -2, 2)),
    ("AG", 4, (5, 6), (10, -2, 0)),
    ("BRGC", 8, (15, 60, 102), (14, 12, -2, 0, 2, 0, -2)),
    ("FBC", 8, (15, 60, 90), (18, 0, 4, 10, -8, 2, -2)),
    ("NBC", 8, (15, 51, 85), (22, -4, 8, -10, 8, -2, 2)),
    ("BSGC", 8, (105, 60, 102), (22, 10, -8, 4, -2, -2, 0)),
    ("AG", 8, (90, 105, 85), (36, -18, 6, 4, -4, -2, 2)),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def check_pattern_class_tables() -> str:
    """Exhaustive 4/8-point classes equal the frozen reference tables."""
    start = time.perf_counter()
    for m_points, reference in ((4, REFERENCE_CLASSES_4), (8, REFERENCE_CLASSES_8)):
        got = pattern_classes.enumerate_classes(m_points)
        _require(len(got) == len(reference), f"M={m_points}: {len(got)} classes")
        for cls, (rep, members, symmetry, coeffs) in zip(got, reference):
            _require(cls.representative.index == rep, f"representative {rep}")
            _require(cls.members == members, f"members of {rep}: {cls.members}")
            _require(cls.symmetry == symmetry, f"symmetry of {rep}: {cls.symmetry}")
            _require(cls.coefficients == coeffs, f"coefficients of {rep}")
    elapsed = time.perf_counter() - start
    _require(elapsed < 1.0, f"enumeration took {elapsed:.2f}s, budget 1s")
    return f"3 + 23 classes, entry-for-entry, in {elapsed * 1e3:.0f} ms"


def check_class_counts() -> str:
    """Exhaustive class counts match the closed form for M = 4, 8, 16, 20,
    and no two classes share a weight vector."""
    start = time.perf_counter()
    expected = {4: 3, 8: 23, 16: 3299, 20: 46508}
    for m_points, count in expected.items():
        table = pattern_classes.enumerate_classes(m_points)
        closed = pattern_classes.class_count_closed_form(m_points)
        _require(
            len(table) == closed == count,
            f"M={m_points}: enumerated {len(table)}, closed form {closed}",
        )
        distinct = len(np.unique(table.weights, axis=0))
        _require(distinct == count, f"M={m_points}: {distinct} distinct weight vectors")
    elapsed = time.perf_counter() - start
    _require(elapsed < 30.0, f"count check took {elapsed:.1f}s, budget 30s")
    return f"Q = 3, 23, 3299, 46508 both ways, weight vectors distinct, in {elapsed:.2f} s"


def check_named_labeling_coefficients() -> str:
    """Named labelings carry the frozen pattern sets and weight vectors."""
    for name, m_points, indices, alpha in REFERENCE_LABELINGS:
        lab = named_labeling(name, m_points)
        _require(
            lab.pattern_set == frozenset(indices),
            f"{name} {m_points}: pattern set {sorted(lab.pattern_set)}",
        )
        got = tuple(int(x) for x in pattern_classes.labeling_coefficients(lab))
        _require(got == alpha, f"{name} {m_points}: weights {got}")
        by_hand = pattern_classes.pattern_weights(_bit_rows(indices, m_points)).sum(axis=0)
        _require(tuple(int(x) for x in by_hand) == alpha, f"{name}: column sum")
    return f"{len(REFERENCE_LABELINGS)} named labelings match"


def check_labeling_census() -> str:
    """Distinct-curve counts: 3 for 4 points, 460 (12 leading) for 8."""
    start = time.perf_counter()
    _require(len(labeling_space.labeling_census(4)) == 3, "4-point census")
    census = labeling_space.labeling_census(8)
    _require(len(census) == 460, f"8-point census size {len(census)}")
    leading = {cls.alpha[0] for cls in census}
    _require(len(leading) == 12, f"{len(leading)} distinct leading weights")
    elapsed = time.perf_counter() - start
    _require(elapsed < 60.0, f"census took {elapsed:.1f}s, budget 60s")
    return f"460 weight vectors, 12 leading values, in {elapsed:.1f} s"


def check_sd_abd_equivalence() -> str:
    """Hard-decision and max-log sign decisions agree sample for sample."""
    rng = np.random.default_rng(20240817)
    total = 0
    for m_points in (4, 8):
        constellation = make_pam(m_points)
        span = constellation.points[-1] - constellation.points[0]
        lo = constellation.points[0] - span
        hi = constellation.points[-1] + span
        for lab in labeling_space.sample_labelings(m_points, 4, seed=m_points):
            for _ in range(3):
                n = 125_000
                y = rng.uniform(lo, hi, n)
                params = ChannelParams.from_db(rng.uniform(-5.0, 30.0))
                sd = sd_decide(y, lab, constellation)
                abd = abd_decide(maxlog_llr(y, lab, constellation, params))
                mismatches = int((sd != abd).sum())
                _require(
                    mismatches == 0,
                    f"M={m_points}, labeling {sorted(lab.pattern_set)}: "
                    f"{mismatches} demodulator mismatches",
                )
                total += n
    _require(total >= 2_000_000, "sample budget")
    return f"{total:,} samples, zero decision mismatches"


def interval_probs(
    constellation: Constellation, betas: np.ndarray, params: ChannelParams
) -> np.ndarray:
    """Conditional probabilities of landing between consecutive boundaries.

    Entry (i, k) is the probability that the observation falls in the k-th
    of the K+1 regions cut by the sorted boundaries ``betas``, given that
    point i was sent.  Rows sum to one.
    """
    scale = math.sqrt(2.0 * params.snr)
    tails = analytic.qfunc(
        (np.asarray(betas)[None, :] - constellation.points[:, None]) * scale
    )
    m_points = constellation.size
    above = np.hstack((np.ones((m_points, 1)), tails, np.zeros((m_points, 1))))
    return above[:, :-1] - above[:, 1:]


def pber_interval_form(
    pattern: BitPattern,
    constellation: Constellation,
    thresholds: ThresholdSet,
    params: ChannelParams,
) -> float:
    """PBER accumulated from interval probabilities.

    Independent of :func:`pamber.analytic.pber_general` apart from the
    shared Q-function; kept as a cross-check of the telescoped form.
    """
    if pattern.size != constellation.size:
        raise ValueError("pattern and constellation sizes differ")
    bits = pattern.as_array()
    disagree = bits[:, None] != thresholds.bits[None, :]
    v = interval_probs(constellation, thresholds.betas, params)
    return float(v[disagree].sum()) / constellation.size


def _quadrature_pber(pattern, constellation, thresholds, params) -> float:
    # Integrate the channel density over every opposite-bit slice.
    from scipy.integrate import quad  # only this oracle needs scipy.integrate

    bits = pattern.bits
    edges = np.concatenate(([-np.inf], thresholds.betas, [np.inf]))
    snr = params.snr
    total = 0.0
    for i, point in enumerate(constellation.points):
        density = lambda t, s=point: math.sqrt(snr / math.pi) * math.exp(
            -snr * (t - s) ** 2
        )
        for k in range(thresholds.size + 1):
            if thresholds.bits[k] != bits[i]:
                part, _ = quad(density, edges[k], edges[k + 1], epsabs=1e-13)
                total += part
    return total / constellation.size


def check_dual_form_and_quadrature() -> str:
    """Telescoped and interval forms agree; quadrature oracle concurs."""
    constellation = make_pam(8)
    mids = constellation.midpoints()
    worst = 0.0
    for index in pattern_classes._masks_of_weight(8, 4).tolist():
        pattern = pattern_from_index(8, index)
        thresholds = ThresholdSet(mids, pattern.bits)
        for snr in (0.1, 1.0, 10.0):
            params = ChannelParams(snr)
            a = analytic.pber_general(pattern, constellation, thresholds, params)
            b = pber_interval_form(pattern, constellation, thresholds, params)
            worst = max(worst, abs(a - b))
    _require(worst <= 1e-12, f"dual-form gap {worst:.2e}")

    spots = ((15, 10.0), (60, 1.0), (102, 5.0), (23, 0.5), (85, 2.0))
    worst_quad = 0.0
    for index, snr in spots:
        pattern = pattern_from_index(8, index)
        params = ChannelParams(snr)
        thresholds = ThresholdSet(mids, pattern.bits)
        a = analytic.pber_general(pattern, constellation, thresholds, params)
        q = _quadrature_pber(pattern, constellation, thresholds, params)
        worst_quad = max(worst_quad, abs(a - q))
    _require(worst_quad <= 1e-9, f"quadrature gap {worst_quad:.2e}")
    return f"dual-form gap {worst:.1e}, quadrature gap {worst_quad:.1e}"


def check_leading_weight_grouping() -> str:
    """Leading weights take M-1 values and double-count bit transitions."""
    for m_points in (4, 8, 16):
        masks = pattern_classes._masks_of_weight(m_points, m_points // 2)
        bits = _bit_rows(masks, m_points)
        leads = pattern_classes.pattern_weights(bits)[:, 0]
        transitions = np.count_nonzero(np.diff(bits, axis=1), axis=1)
        bad = np.flatnonzero(leads != 2 * transitions)[:5]
        _require(
            bad.size == 0,
            f"M={m_points}, patterns {masks[bad].tolist()}: leading weights "
            f"{leads[bad].tolist()}, transitions {transitions[bad].tolist()}",
        )
        n_leads = np.unique(leads).size
        _require(n_leads == m_points - 1, f"M={m_points}: {n_leads} leading weights")
    return "3, 7, 15 groups; leading weight = 2 x transitions everywhere"


def check_bd_abd_closeness() -> str:
    """Exact-boundary and midpoint BERs differ by at most 2% over 0-20 dB."""
    constellation = make_pam(8)
    grid_db = np.arange(0.0, 20.0 + 0.25, 0.5)
    targets = [pattern_from_index(8, w) for w in (15, 60, 102)]
    worst = 0.0
    for snr_db in grid_db:
        params = ChannelParams.from_db(snr_db)
        abd_vals = [analytic.labeling_ber(p, constellation, params) for p in targets]
        bd_vals = [analytic.labeling_ber(p, constellation, params, "bd") for p in targets]
        for a, b in zip(abd_vals, bd_vals):
            worst = max(worst, abs(a - b) / a)
        brgc_abd = sum(abd_vals) / 3.0
        brgc_bd = sum(bd_vals) / 3.0
        worst = max(worst, abs(brgc_abd - brgc_bd) / brgc_abd)
    _require(worst <= 0.02, f"relative gap {worst:.3%}")

    high = ChannelParams(1e4)
    drift = 0.0
    for pattern in targets:
        thr = bd_thresholds(pattern, constellation, high)
        mids_here = constellation.midpoints()[np.diff(pattern.bits) != 0]
        _require(thr.size == mids_here.size, f"pattern {pattern.index}: {thr.size} crossings")
        gap = np.abs(thr.betas - mids_here).max()
        drift = max(drift, float(gap))
    _require(drift <= 1e-4, f"high-SNR boundary drift {drift:.2e}")
    return f"max relative gap {worst:.2%}, boundary drift {drift:.1e}"


def check_montecarlo_consistency() -> str:
    """Simulated midpoint-rule BER sits within 3 sigma of the formulas."""
    start = time.perf_counter()
    grid = (0.0, 5.0, 10.0)
    worst = 0.0
    for m_points in (4, 8):
        constellation = make_pam(m_points)
        lab = named_labeling("BRGC", m_points)
        config = montecarlo.SimConfig(
            trials=1_000_000, seed=7 + m_points, snr_db_grid=grid, demodulator="abd"
        )
        for est in montecarlo.simulate(lab, constellation, config):
            params = ChannelParams.from_db(est.snr_db)
            exact = analytic.labeling_ber_pam(lab, params)
            sigma = abs(est.ber - exact) / est.stderr
            worst = max(worst, sigma)
            _require(
                sigma <= 3.0,
                f"BRGC {m_points}-PAM at {est.snr_db} dB: {sigma:.2f} sigma",
            )
    bpsk = make_pam(2)
    pattern = pattern_from_index(2, 1)
    config = montecarlo.SimConfig(
        trials=1_000_000, seed=99, snr_db_grid=(0.0,), demodulator="abd"
    )
    est = montecarlo.simulate(pattern, bpsk, config)[0]
    exact = float(analytic.qfunc(math.sqrt(2.0)))
    sigma = abs(est.ber - exact) / est.stderr
    _require(sigma <= 3.0, f"BPSK point off by {sigma:.2f} sigma")
    worst = max(worst, sigma)
    elapsed = time.perf_counter() - start
    _require(elapsed < 120.0, f"simulation took {elapsed:.0f}s, budget 120s")
    return f"7 points, worst deviation {worst:.2f} sigma, in {elapsed:.1f} s"


def check_curve_population() -> str:
    """460 distinct 8-point curves; the best class is the Gray-code class."""
    census = labeling_space.labeling_census(8)
    _require(len(census) == 460, f"{len(census)} classes")
    grid = [ChannelParams.from_db(s) for s in (0.0, 5.0, 10.0, 15.0, 20.0)]
    curves = {
        tuple(
            analytic.ber_from_coefficients(np.array(cls.alpha), 8, p) / 3.0
            for p in grid
        )
        for cls in census
    }
    _require(len(curves) == 460, f"{len(curves)} distinct curves")
    best = census[0]
    brgc = tuple(int(x) for x in pattern_classes.labeling_coefficients(named_labeling("BRGC", 8)))
    _require(best.alpha == brgc, f"best class {best.alpha}")
    _require(best.alpha[0] == 14, f"best leading weight {best.alpha[0]}")
    return "460 distinct curves; best class is the Gray-code class (leading 14)"


ALL_CHECKS: tuple[tuple[str, Callable[[], str]], ...] = (
    ("pattern-class-tables", check_pattern_class_tables),
    ("class-counts-closed-form", check_class_counts),
    ("named-labeling-coefficients", check_named_labeling_coefficients),
    ("labeling-census", check_labeling_census),
    ("sd-abd-equivalence", check_sd_abd_equivalence),
    ("dual-form-and-quadrature", check_dual_form_and_quadrature),
    ("leading-weight-grouping", check_leading_weight_grouping),
    ("bd-abd-closeness", check_bd_abd_closeness),
    ("montecarlo-consistency", check_montecarlo_consistency),
    ("curve-population", check_curve_population),
)


def run_all() -> list[CheckResult]:
    """Run every check; never raises: a failing or crashing check lands in the results."""
    results = []
    for name, func in ALL_CHECKS:
        start = time.perf_counter()
        passed = False
        try:
            detail, passed = func(), True
        except AssertionError as exc:
            detail = str(exc)
        except Exception as exc:  # a check that crashes has failed too
            detail = f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
