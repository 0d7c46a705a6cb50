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
matrices against one set of boundaries in one array pass.  Against the
midpoints, whose tails every column shares, :func:`labeling_ber` hands it
the m columns as rows at once.  Every other boundary set goes through
``_set_sums``: sign rows, each with its own :class:`ThresholdSet`, the Q
tails of all the sets' offsets evaluated in one call and sliced per row.
:func:`pber_general` is its one-set case, and a BD :func:`labeling_ber`
its all-columns case, on the sets of every column solved in one call.
The sign rows must be C-contiguous: numpy's summation order follows the
memory layout, and only with C order does each row's sum add its ``M*K``
terms in the order of the one-pattern sum, so that a labeling's BER is
bit-identical to the average of its columns' PBERs.

Only the Q arguments, and for BD the boundaries, depend on the SNR.  A
target keeps two arrays, built on first use (``constellation._derived``):
its C-contiguous float64 sign rows ``1 - 2*p``, and its midpoint
relevance stack, built from those rows and the bit columns.  Every value
in them is a small integer, exact in float64, and every later call
reuses them, with the same operations in the same order.  The
midpoint tails depend on the SNR and the constellation alone: they are
kept with the :class:`ChannelParams`, weakly keyed by the constellation
(``demod._per_channel``, which also keeps the BD scan grid), so every
target evaluated on one channel shares one Q evaluation.
A BD point makes one Q call: :func:`pber_general` on the crossings of a
pattern, or :func:`labeling_ber` on those of every column at once.

The Q-function is ``0.5*erfc(x/sqrt(2))`` with ``erfc`` a numpy port of
the Cephes ``erfc`` (S. L. Moshier, *Methods and Programs for
Mathematical Functions*, 1989), which ``scipy.special.erfc`` evaluates:
the same operations in the same order, and the C library's ``exp``
(``math.exp``) as in scipy's compiled code, so the same doubles, without
the 0.3 s import of ``scipy.special``.  On the 56 midpoint arguments of
8-PAM the port takes 35-40 us against 3 us for scipy's compiled ufunc
(2-core Xeon), which is why the midpoint tails are kept.

For equally spaced unit-energy M-PAM with midpoint boundaries the PBER
collapses to a weighted sum of Q-functions at odd multiples of the half
spacing, which :func:`ber_from_coefficients` evaluates.  The integer
weight vectors themselves need no Q-function and live in
:mod:`pamber.pattern_classes`.
"""

from __future__ import annotations

import math

import numpy as np

from .constellation import (
    _TARGETS, BitPattern, Constellation, Labeling, _checked, _derived, _readonly, pam_spacing)
from .demod import ChannelParams, _check_demodulator, _columns, _per_channel
from .pattern_classes import labeling_coefficients, pattern_coefficients
from .thresholds import ThresholdSet, _crossings


# Cephes erfc: erf's T/U for |a| < 1, erfc's P/Q for 1 <= |a| < 8 and R/S
# beyond, highest power first.  The denominators are p1evl's, whose leading
# 1.0 is written out; padding every polynomial to 9 coefficients with leading
# zeros changes no rounding, so one Horner pass over per-argument
# numerator and denominator pairs serves all three branches.
_ERFC_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
           7.00332514112805075473e3, 5.55923013010394962768e4)
_ERFC_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
           2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# _ERFC_PAIRS[k, b] is the k-th coefficient of branch b's numerator and denominator.
_ERFC_PAIRS = np.array(
    [[(0.0,) * (9 - len(c)) + c for c in pair]
     for pair in ((_ERFC_T, _ERFC_U), (_ERFC_P, _ERFC_Q), (_ERFC_R, _ERFC_S))]
).transpose(2, 0, 1).copy()
_ERFC_EDGES = np.array([1.0, 8.0])
_ERFC_MAXLOG = 7.09782712893383996843e2  # ln(DBL_MAX): past it exp(-a*a) counts as 0


def _erfc(a):
    """Cephes ``erfc``, operation for operation: the doubles of ``scipy.special.erfc``.

    ``1 - a*T(a*a)/U(a*a)`` for |a| < 1, ``exp(-a*a)*P(|a|)/Q(|a|)`` for
    1 <= |a| < 8 and the same with R/S beyond, then ``2 - y`` for a < 0,
    and 0 or 2 once ``a*a > MAXLOG``.  ``exp`` is ``math.exp``, the C
    library's, which scipy's compiled code calls too: numpy's vectorised
    ``exp`` differs from it in the last bit on some arguments.  NaN gives
    NaN, shapes are kept and a scalar gives a scalar.
    """
    a = np.asarray(a, dtype=float)
    flat = a.ravel()
    # erfc is 0 or 2 long before 64, which keeps every square finite
    x = np.minimum(np.abs(flat), 64.0)
    branch = np.searchsorted(_ERFC_EDGES, x, side="right")  # NaN sorts last: branch 2
    small = branch == 0
    squares = x * x
    pairs = _ERFC_PAIRS.take(branch, axis=1)  # (9, n, 2)
    v = np.where(small, squares, x).repeat(2).reshape(-1, 2)  # same shape: no broadcasting
    pq = pairs[0].copy()
    for pair in pairs[1:]:
        pq *= v
        pq += pair
    tails = np.array([math.exp(-t) if t <= _ERFC_MAXLOG else 0.0 for t in squares.tolist()])
    y = np.where(small, flat, tails)
    y *= pq[:, 0]
    y /= pq[:, 1]
    np.subtract(1.0, y, out=y, where=small)
    np.subtract(2.0, y, out=y, where=flat <= -1.0)  # a < 0 beyond the small branch
    return y.reshape(a.shape)[()]


def qfunc(x):
    """Gaussian tail probability Q(x) = Pr{N(0,1) > x}.

    Computed as ``0.5 * erfc(x / sqrt(2))``, with ``erfc`` a numpy port of
    the Cephes ``erfc`` that gives the same doubles as
    ``scipy.special.erfc`` (see the module docstring).  Rounding
    ``x / sqrt(2)`` to a double moves Q by about ``x**2 * eps`` relative:
    against a 60-digit reference Q is within 5.7e-14 up to x = 20,
    1.1e-13 at x = 27.5 and 2.3e-13 at x = 36.75.  Values underflow
    gracefully.
    """
    return 0.5 * _erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def _relevance(signs, region_bits) -> np.ndarray:
    """Relevance matrices ``(b[k+1]-b[k]) * (1-2*p[i])``, shape (..., M, K).

    ``signs`` holds ``1 - 2*p`` for each bit row ``p`` and ``b`` is the
    region bits of K boundaries.  Column k is all zero exactly when
    boundary k sits between regions that decide the same bit.
    """
    step = region_bits[..., 1:] - region_bits[..., :-1]
    return step[..., None, :] * signs[..., :, None]


def _gq_sums(g, tails) -> np.ndarray:
    """Sum of ``g*tails``, one sum for each matrix of ``g``.

    ``g`` is an ``(n, M, K)`` stack of relevance matrices of C-contiguous
    sign rows, its small integers held as float64, and ``tails`` the
    ``(M, K)`` matrix of :func:`_tails`.
    Sum r adds the terms of row r's one-pattern sum, in the same order
    (see the module docstring).
    """
    return np.add.reduce((g * tails).reshape(len(g), -1), axis=1)


def _tails(betas, constellation: Constellation, params: ChannelParams) -> np.ndarray:
    """The ``(M, K)`` matrix ``Q((beta_k - s_i)*sqrt(2*snr))`` of the boundaries ``betas``."""
    return qfunc((betas[None, :] - constellation.points[:, None]) * math.sqrt(2.0 * params.snr))


def _signs(target) -> np.ndarray:
    """A checked target's sign rows ``1 - 2*p``, C-contiguous float64: see the module docstring."""
    return _readonly(np.ascontiguousarray(1 - 2 * _columns(target).T, dtype=float))


def _midpoint_relevance(target) -> np.ndarray:
    """The midpoint relevance stack, float64 from the sign rows: ``g*tails`` needs no cast."""
    return _readonly(_relevance(_derived(target, _signs), _columns(target).T))


def _set_sums(signs, sets, constellation: Constellation, params: ChannelParams) -> list[float]:
    """The ``g*Q`` sum of each sign row against its own :class:`ThresholdSet`, from one Q call."""
    tails = _tails(np.concatenate([t.betas for t in sets]), constellation, params)
    sums, start = [], 0
    for row, t in zip(signs, sets):
        g = _relevance(row[None], t.bits[None])
        sums += _gq_sums(g, tails[:, start : start + t.size]).tolist()
        start += t.size
    return sums


@_per_channel
def _midpoint_tails(constellation: Constellation, params: ChannelParams) -> np.ndarray:
    """The midpoint :func:`_tails`, kept with ``params`` for each constellation."""
    return _readonly(_tails(constellation.midpoints(), constellation, params))


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
    _checked(pattern, (BitPattern,), constellation)
    if not isinstance(thresholds, ThresholdSet):
        raise TypeError(f"thresholds must be a ThresholdSet, got {type(thresholds)!r}")
    s = _set_sums(_derived(pattern, _signs), [thresholds], constellation, params)[0]
    return 0.5 + s / pattern.size


def ber_from_coefficients(
    coefficients: np.ndarray, m_points: int, params: ChannelParams
) -> float:
    """Evaluate a Q-function weight vector for unit-energy M-PAM.

    Raises:
        ValueError: if M is not an integer, is odd or is smaller than 2,
            or the M-1 weights are not all real and finite.
    """
    d = pam_spacing(m_points)
    m_points = int(m_points)  # a numpy M would make the quotient a numpy float
    coefficients = np.asarray(coefficients)
    if coefficients.shape != (m_points - 1,):
        raise ValueError(f"need {m_points - 1} coefficients, got {coefficients.shape}")
    if coefficients.dtype.kind not in "biuf" or not np.all(np.isfinite(coefficients)):
        raise ValueError(f"coefficients must be real and finite, got {coefficients!r}")
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
    columns are rows of one bit matrix (see the module docstring).

    Raises:
        TypeError: if ``target`` is neither a labeling nor a pattern.
        ValueError: if the target and the constellation differ in size, or
            ``demod`` is not one of sd, abd and bd.
    """
    _checked(target, _TARGETS, constellation)
    _check_demodulator(demod)
    if demod == "bd":
        signs = _derived(target, _signs)
        sums = _set_sums(signs, _crossings(target, constellation, params), constellation, params)
    else:
        g = _derived(target, _midpoint_relevance)
        sums = _gq_sums(g, _midpoint_tails(constellation, params)).tolist()
    total = 0.0
    for s in sums:  # in column order: the built-in sum compensates from Python 3.12
        total += 0.5 + s / constellation.size
    return total / len(sums)
