"""Closed-form bit-error rates for one-dimensional constellations.

The single-pattern error rate (PBER) of a sign demodulator with decision
boundaries ``beta_1 < ... < beta_K`` over points ``s_1 < ... < s_M``,
deciding bit ``b_k`` in the region between ``beta_k`` and ``beta_{k+1}``,
is

    P = c + (1/M) * sum_{i,k} g[i,k] * Q((beta_k - s_i) * sqrt(2*snr))

with the relevance matrix ``g[i,k] = (b_k - b_{k-1}) * (1 - 2*p_i)``
(``_relevance``) and ``c = (1/M) * sum_i [p_i + (1 - 2*p_i) * b_0]``.  A
pattern has M/2 ones, so ``c = 1/2`` whatever ``b_0`` is.  For midpoint
boundaries ``K = M-1`` and ``b = p``.  An equivalent form accumulates region
probabilities against the bit-disagreement matrix ``e[i,k] = p_i XOR b_k``;
it lives in :mod:`pamber.verify` as an oracle, and the two agree to machine
precision.  :mod:`pamber.thresholds` only finds the boundaries.

One evaluator core, ``_gq_sums``, sums ``g*Q`` for a stack of relevance
matrices against one set of boundaries in one array pass.  :func:`pber_general`
is its one-row case.  :func:`labeling_ber` hands it the m columns as rows:
all at once against the midpoints, so that their tails are evaluated once
per call, or each against its own BD crossings, all solved in one call.
The bit matrix must be C-contiguous: numpy's summation order follows the
memory layout, and only with C order does each row's sum add its ``M*K``
terms in the order of the one-pattern sum, so that a labeling's BER is
bit-identical to the average of its columns' PBERs.

Only the Q arguments, and for BD the boundaries, depend on the SNR.  A
target's int64 bit rows and midpoint relevance matrix, and a
constellation's point-to-midpoint offsets, are built on first use and
kept with that object (``constellation._derived``); every later call
reuses them, with the same operations in the same order.

For equally spaced unit-energy M-PAM with midpoint boundaries the PBER
collapses to a weighted sum of Q-functions at odd multiples of the half
spacing, which :func:`ber_from_coefficients` evaluates.  The integer
weight vectors themselves need no Q-function and live in
:mod:`pamber.pattern_classes`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc

from .constellation import BitPattern, Constellation, Labeling, _derived, _readonly, pam_spacing
from .demod import DEMODULATORS, ChannelParams, _column_matrix, _columns
from .pattern_classes import labeling_coefficients, pattern_coefficients
from .thresholds import ThresholdSet, _crossings


def qfunc(x):
    """Gaussian tail probability Q(x) = Pr{N(0,1) > x}.

    Computed as ``0.5 * erfc(x / sqrt(2))``.  Rounding ``x / sqrt(2)`` to a
    double moves Q by about ``x**2 * eps`` relative: against a 60-digit
    reference Q is within 5.7e-14 up to x = 20, 1.1e-13 at x = 27.5 and
    2.3e-13 at x = 36.75.  Values underflow gracefully.
    """
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def _relevance(bits, region_bits) -> np.ndarray:
    """Relevance matrices ``(b[k+1]-b[k]) * (1-2*p[i])``, shape (..., M, K).

    ``p`` is each row of the signed-integer bit matrix ``bits`` and ``b``
    the region bits of K boundaries.  Column k is all zero exactly when
    boundary k sits between regions that decide the same bit.
    """
    step = region_bits[..., 1:] - region_bits[..., :-1]
    return step[..., None, :] * (1 - 2 * bits)[..., :, None]


def _gq_sums(g, offsets, params: ChannelParams) -> np.ndarray:
    """Sum of ``g*Q(offsets*sqrt(2*snr))``, one sum for each matrix of ``g``.

    ``g`` is an ``(n, M, K)`` stack of relevance matrices of C-contiguous
    int64 bit rows, and ``offsets`` the ``(M, K)`` matrix
    ``beta_k - s_i``.  Sum r adds the terms of row r's one-pattern sum,
    in the same order (see the module docstring).
    """
    tails = qfunc(offsets * math.sqrt(2.0 * params.snr))
    return (g * tails).reshape(len(g), -1).sum(axis=1)


def _offsets(betas, constellation: Constellation) -> np.ndarray:
    """The ``(M, K)`` matrix ``beta_k - s_i`` of the Q arguments at unit scale."""
    return betas[None, :] - constellation.points[:, None]


def _int_rows(target) -> np.ndarray:
    """A checked target's bit columns as C-contiguous int64 rows (see the module docstring)."""
    return _readonly(np.ascontiguousarray(_columns(target).T, dtype=np.int64))


def _midpoint_relevance(target) -> np.ndarray:
    rows = _derived(target, _int_rows)
    return _readonly(_relevance(rows, rows))


def _midpoint_offsets(constellation: Constellation) -> np.ndarray:
    return _readonly(_offsets(constellation.midpoints(), constellation))


def pber_general(
    pattern: BitPattern,
    constellation: Constellation,
    thresholds: ThresholdSet,
    params: ChannelParams,
) -> float:
    """PBER of a sign demodulator with the boundaries and region bits given.

    Raises:
        TypeError: if ``pattern`` is not a :class:`BitPattern` or
            ``thresholds`` is not a :class:`ThresholdSet`.
        ValueError: if the pattern and the constellation differ in size.
    """
    if not isinstance(pattern, BitPattern):
        raise TypeError(f"pattern must be a BitPattern, got {type(pattern)!r}")
    if not isinstance(thresholds, ThresholdSet):
        raise TypeError(f"thresholds must be a ThresholdSet, got {type(thresholds)!r}")
    if pattern.size != constellation.size:
        raise ValueError("pattern and constellation sizes differ")
    g = _relevance(_derived(pattern, _int_rows), thresholds.bits[None, :])
    s = _gq_sums(g, _offsets(thresholds.betas, constellation), params)
    return 0.5 + s.item() / pattern.size


def ber_from_coefficients(
    coefficients: np.ndarray, m_points: int, params: ChannelParams
) -> float:
    """Evaluate a Q-function weight vector for unit-energy M-PAM.

    Raises:
        ValueError: if M is not an integer, is odd or is smaller than 2,
            or the M-1 weights are not all finite.
    """
    d = pam_spacing(m_points)
    coefficients = np.asarray(coefficients)
    if coefficients.shape != (m_points - 1,):
        raise ValueError(f"need {m_points - 1} coefficients, got {coefficients.shape}")
    if not np.all(np.isfinite(coefficients)):
        raise ValueError("coefficients must be finite")
    n = np.arange(1, m_points)
    args = (2 * n - 1) * d * math.sqrt(2.0 * params.snr)
    return float(coefficients @ qfunc(args)) / m_points


def pber_pam(pattern: BitPattern, params: ChannelParams) -> float:
    """PBER of a pattern over equally spaced unit-energy PAM (midpoint rule)."""
    return ber_from_coefficients(
        pattern_coefficients(pattern), pattern.size, params
    )


def labeling_ber_pam(labeling: Labeling, params: ChannelParams) -> float:
    """Average BER of a labeling over equally spaced unit-energy PAM."""
    total = ber_from_coefficients(
        labeling_coefficients(labeling), labeling.size, params
    )
    return total / labeling.n_bits


def labeling_ber(
    target,
    constellation: Constellation,
    params: ChannelParams,
    demod: str = "abd",
) -> float:
    """Average BER over the bit positions of ``target``.

    ``target`` is a :class:`Labeling`, or a :class:`BitPattern`, whose BER
    is its PBER.  ``demod`` selects the decision boundaries: ``"abd"`` (or
    ``"sd"``, which decides identically) uses midpoints; ``"bd"`` solves
    the exact L-value crossings of all columns at this SNR in one call.  The
    columns are rows of one bit matrix for ``_gq_sums`` (see the module docstring).
    """
    _column_matrix(target, constellation)
    if demod not in DEMODULATORS:
        raise ValueError(f"demod must be one of {', '.join(DEMODULATORS)}; got {demod!r}")
    rows = _derived(target, _int_rows)
    if demod == "bd":
        sums = []
        for row, (betas, region_bits) in zip(rows, _crossings(target, constellation, params)):
            g = _relevance(row[None], region_bits[None])
            sums += _gq_sums(g, _offsets(betas, constellation), params).tolist()
    else:
        g = _derived(target, _midpoint_relevance)
        sums = _gq_sums(g, _derived(constellation, _midpoint_offsets), params).tolist()
    total = 0.0
    for s in sums:  # in column order, as a sum of Python floats
        total += 0.5 + s / rows.shape[1]
    return total / len(rows)
