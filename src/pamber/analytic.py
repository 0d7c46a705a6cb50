"""Closed-form bit-error rates for one-dimensional constellations.

The single-pattern error rate (PBER) of a sign demodulator with decision
boundaries ``beta_1 < ... < beta_K`` over points ``s_1 < ... < s_M``,
deciding bit ``b_k`` in the region between ``beta_k`` and ``beta_{k+1}``,
is

    P = c + (1/M) * sum_{i,k} g[i,k] * Q((beta_k - s_i) * sqrt(2*snr))

with the relevance matrix ``g[i,k] = (b_k - b_{k-1}) * (1 - 2*p_i)`` from
:func:`pamber.thresholds.relevance_mask` and
``c = (1/M) * sum_i [p_i + (1 - 2*p_i) * b_0]``.  A pattern has M/2 ones,
so ``c = 1/2`` whatever ``b_0`` is.  For midpoint boundaries ``K = M-1``
and ``b = p``.  An equivalent form accumulates region probabilities against
the bit-disagreement matrix ``e[i,k] = p_i XOR b_k``; it lives in
:mod:`pamber.verify` as an oracle, and the two agree to machine precision.

One evaluator core, ``_gq_sums``, sums ``g*Q`` for every row of an
``(n, M)`` bit matrix against one set of boundaries in one array pass.
:func:`pber_general` is its one-row case, and :func:`labeling_ber` with
midpoints hands it all m columns at once, so the Q-functions of the
midpoint tails are evaluated once per call, not once per column.  The bit
matrix must be C-contiguous: numpy's summation order follows the memory
layout, and only with C order does each row's sum add its ``M*K`` terms in
the order of the one-pattern sum, so that a labeling's BER is
bit-identical to the average of its columns' PBERs.

For equally spaced unit-energy M-PAM with midpoint boundaries the PBER
collapses to a weighted sum of Q-functions at odd multiples of the half
spacing; the integer weight vector depends only on the pattern and fully
determines the curve.  It is bilinear in the pattern bits, so
:func:`pattern_weights` evaluates it for many patterns in one array pass.
Summing the weight vectors of a labeling's column patterns gives the
labeling's BER the same way.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc

from .constellation import BitPattern, Constellation, Labeling, pam_spacing
from .demod import ChannelParams, _column_matrix
from .thresholds import ThresholdSet, _relevance, bd_thresholds


def qfunc(x):
    """Gaussian tail probability Q(x) = Pr{N(0,1) > x}.

    Computed through the complementary error function; relative accuracy
    is a few ULP well past x = 8, and values underflow gracefully.
    """
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def _gq_sums(bits, region_bits, betas, constellation, params) -> np.ndarray:
    """Sum of ``g*Q`` over the points and boundaries, for each row of ``bits``.

    ``bits`` is a C-contiguous int64 ``(n, M)`` matrix of patterns, and
    ``region_bits`` the ``(n, K+1)`` integer bits the K boundaries
    ``betas`` decide for each of them.  Row r's terms are those of the
    one-pattern sum, added in the same order (see the module docstring).
    """
    scale = math.sqrt(2.0 * params.snr)
    tails = qfunc((betas[None, :] - constellation.points[:, None]) * scale)
    g = _relevance(bits, region_bits)
    return (g * tails).reshape(len(bits), -1).sum(axis=1)


def pber_general(
    pattern: BitPattern,
    constellation: Constellation,
    thresholds: ThresholdSet,
    params: ChannelParams,
) -> float:
    """PBER of a sign demodulator with the given decision boundaries."""
    if pattern.size != constellation.size:
        raise ValueError("pattern and constellation sizes differ")
    bits = np.array([pattern.bits], dtype=np.int64)
    region = thresholds.region_bits(pattern)[None, :]
    s = _gq_sums(bits, region, thresholds.betas, constellation, params)
    return 0.5 + float(s[0]) / constellation.size


def pattern_weights(bits) -> np.ndarray:
    """Integer Q-function weight vectors of many patterns in one array pass.

    ``bits`` holds one length-M 0/1 pattern per row; row n of the result
    is the weight vector of pattern n (see :func:`pattern_coefficients`).
    With ``step[j] = p[j+1] - p[j]`` and ``sign[i] = 1 - 2*p[i]`` the
    weight at lag ``a = 0..M-2`` is the bilinear form

        sum_j step[j] * (sign[j-a] - sign[j+a+1]),

    where sign entries outside ``0..M-1`` count as zero.
    """
    bits = np.asarray(bits, dtype=np.int64)
    m_points = bits.shape[1]
    step = np.diff(bits, axis=1)
    # Zero-pad sign by M-1 on both sides so every lagged index is in range.
    sign = np.zeros((bits.shape[0], 3 * m_points - 2), dtype=np.int64)
    sign[:, m_points - 1 : 2 * m_points - 1] = 1 - 2 * bits
    lag = np.arange(m_points - 1)[:, None]
    j = np.arange(m_points - 1)[None, :] + (m_points - 1)
    return np.einsum("naj,nj->na", sign[:, j - lag] - sign[:, j + lag + 1], step)


def pattern_coefficients(pattern: BitPattern) -> np.ndarray:
    """Integer Q-function weights of a pattern for equally spaced PAM.

    Entry n-1 (n = 1..M-1) weights Q((2n-1)*d*sqrt(2*snr)) in the PBER.
    The first entry is twice the number of adjacent points whose bits
    differ; the vector is invariant under reflection and inversion of the
    pattern.
    """
    return pattern_weights(pattern.as_array()[None, :])[0]


def ber_from_coefficients(
    coefficients: np.ndarray, m_points: int, params: ChannelParams
) -> float:
    """Evaluate a Q-function weight vector for unit-energy M-PAM."""
    coefficients = np.asarray(coefficients)
    if coefficients.shape != (m_points - 1,):
        raise ValueError(f"need {m_points - 1} coefficients, got {coefficients.shape}")
    d = pam_spacing(m_points)
    n = np.arange(1, m_points)
    args = (2 * n - 1) * d * math.sqrt(2.0 * params.snr)
    return float(coefficients @ qfunc(args)) / m_points


def pber_pam(pattern: BitPattern, params: ChannelParams) -> float:
    """PBER of a pattern over equally spaced unit-energy PAM (midpoint rule)."""
    return ber_from_coefficients(
        pattern_coefficients(pattern), pattern.size, params
    )


def labeling_coefficients(labeling: Labeling) -> np.ndarray:
    """Sum of the column patterns' Q-function weight vectors."""
    return pattern_weights(labeling.matrix.T).sum(axis=0)


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
    the exact L-value boundaries at this SNR for every column pattern.
    """
    cols = _column_matrix(target, constellation)
    kind = demod.lower()
    if kind not in ("abd", "sd", "bd"):
        raise ValueError(f"demod must be one of sd, abd, bd; got {demod!r}")
    if kind == "bd":
        pbers = []
        for bits in cols.T:
            pat = BitPattern(tuple(bits))
            thr = bd_thresholds(pat, constellation, params)
            pbers.append(pber_general(pat, constellation, thr, params))
    else:
        bits = np.ascontiguousarray(cols.T, dtype=np.int64)  # see the module docstring
        sums = _gq_sums(bits, bits, constellation.midpoints(), constellation, params)
        pbers = 0.5 + sums / constellation.size
    total = 0.0
    for pber in pbers:  # in column order, as a sum of Python floats
        total += float(pber)
    return total / cols.shape[1]


def high_snr_bicm_parameter(labeling: Labeling) -> int:
    """``2*m*(M-1)`` minus the first labeling weight.

    Equals twice the number of adjacent label pairs agreeing per bit
    position summed over positions; non-negative for every labeling.
    """
    alpha1 = int(labeling_coefficients(labeling)[0])
    return 2 * labeling.n_bits * (labeling.size - 1) - alpha1
