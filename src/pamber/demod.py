"""Symbol-wise and bit-wise demodulators for the real AWGN channel.

Three demodulators operate on a channel observation ``y = x + noise``
where the noise is zero-mean Gaussian with variance ``1/(2*snr)``:

* SD: hard decision on the nearest constellation point, label read off.
* BD: exact per-bit log-likelihood ratios (L-values), decided by sign.
* ABD: max-log approximate L-values, decided by sign.

Sign convention: positive L-value favors bit 1, i.e. the L-value is
``log(Pr{bit=1 | y} / Pr{bit=0 | y})``.

Tie rules: the SD resolves an exact midpoint toward the lower-indexed
point; sign decisions map an exact zero L-value to bit 1.  The two rules
can disagree only on that measure-zero set.

The demodulators act on a *target*: a :class:`Labeling`, or a
:class:`BitPattern` as one column.  One per-bit loop gives every L-value;
the ``pattern_*`` functions read its column 0.

All functions broadcast over ``y``; scalars in, scalars out.  They
reject a non-finite ``y`` with a ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import BitPattern, Constellation, Labeling


@dataclass(frozen=True)
class ChannelParams:
    """AWGN channel at average signal-to-noise ratio ``snr`` (linear).

    With unit-energy constellations the noise spectral density is
    ``n0 = 1/snr`` and the per-dimension noise variance is ``n0/2``.
    """

    snr: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "snr", float(self.snr))
        if not math.isfinite(self.snr) or self.snr <= 0:
            raise ValueError(f"snr must be positive and finite, got {self.snr}")

    @classmethod
    def from_db(cls, snr_db: float) -> "ChannelParams":
        return cls(snr=10.0 ** (snr_db / 10.0))

    @property
    def snr_db(self) -> float:
        return 10.0 * math.log10(self.snr)

    @property
    def n0(self) -> float:
        return 1.0 / self.snr

    @property
    def noise_std(self) -> float:
        """Standard deviation of the real noise sample, sqrt(n0/2)."""
        return 1.0 / math.sqrt(2.0 * self.snr)


def _observations(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("observations y must be finite")
    return y


def nearest_point_index(y, constellation: Constellation) -> np.ndarray:
    """0-based index of the constellation point closest to each ``y``.

    Exact midpoints resolve to the lower-indexed point.
    """
    y = _observations(y)
    return np.searchsorted(constellation.midpoints(), y, side="left")


def _column_matrix(target, constellation: Constellation) -> np.ndarray:
    """Bit columns of a target: a labeling's matrix, or a pattern as one column."""
    if isinstance(target, Labeling):
        cols = target.matrix
    elif isinstance(target, BitPattern):
        cols = target.as_array()[:, None]
    else:
        raise TypeError(f"target must be a Labeling or BitPattern, got {type(target)!r}")
    if cols.shape[0] != constellation.size:
        raise ValueError("target and constellation sizes differ")
    return cols


def sd_decide(y, target, constellation: Constellation) -> np.ndarray:
    """Hard symbol decision: label of the nearest point, shape ``y.shape + (m,)``.

    ``target`` is a :class:`Labeling`, or a :class:`BitPattern` read as a
    one-column labeling.
    """
    cols = _column_matrix(target, constellation)
    return cols[nearest_point_index(y, constellation)]


def _maxlog_from_splits(sq_one, sq_zero, snr: float):
    return snr * (sq_zero.min(axis=-1) - sq_one.min(axis=-1))


def _exact_from_splits(sq_one, sq_zero, snr: float):
    # Max-log term plus log-domain corrections.  Extracting the subset
    # minimum first keeps every exponent <= 0, so nothing overflows no
    # matter how large snr*(y-x)^2 gets; far-away terms underflow to 0.
    # Sorting fixes the summation order, so mirror-symmetric subsets give
    # an exactly antisymmetric L-value (zero at the symmetry center).
    s1 = np.sort(sq_one, axis=-1)
    s0 = np.sort(sq_zero, axis=-1)
    m1 = s1[..., 0]
    m0 = s0[..., 0]
    c1 = np.log(np.exp(-snr * (s1 - m1[..., None])).sum(axis=-1))
    c0 = np.log(np.exp(-snr * (s0 - m0[..., None])).sum(axis=-1))
    # grouped so that swapping the subsets negates the result exactly
    return snr * (m0 - m1) + (c1 - c0)


def _per_bit(y, target, constellation, params, kernel) -> np.ndarray:
    cols = _column_matrix(target, constellation)
    y_arr = _observations(y)
    sq = (y_arr[..., None] - constellation.points) ** 2
    out = np.empty(y_arr.shape + (cols.shape[1],))
    for j in range(cols.shape[1]):
        ones = cols[:, j].astype(bool)
        out[..., j] = kernel(sq[..., ones], sq[..., ~ones], params.snr)
    return out


def exact_llr(
    y, target, constellation: Constellation, params: ChannelParams
) -> np.ndarray:
    """Exact L-values for all m bit positions, shape ``y.shape + (m,)``.

    Column j equals ``log(sum_1 exp(-snr*(y-x)^2) / sum_0 exp(-snr*(y-x)^2))``
    with the sums running over the points whose bit j is 1 and 0.  A
    :class:`BitPattern` target gives one column.
    """
    return _per_bit(y, target, constellation, params, _exact_from_splits)


def maxlog_llr(
    y, target, constellation: Constellation, params: ChannelParams
) -> np.ndarray:
    """Max-log L-values, shape ``y.shape + (m,)``.

    Column j equals ``snr * (min_0 (y-x)^2 - min_1 (y-x)^2)``.
    """
    return _per_bit(y, target, constellation, params, _maxlog_from_splits)


def _pattern_llr(llr, y, pattern, constellation, params):
    # Column 0 of the one per-bit loop, shaped like y.  Without the type
    # check a labeling would pass and yield its first bit's L-value.
    if not isinstance(pattern, BitPattern):
        raise TypeError(f"pattern must be a BitPattern, got {type(pattern)!r}")
    out = llr(y, pattern, constellation, params)[..., 0]
    return float(out) if np.ndim(y) == 0 else out


def pattern_exact_llr(
    y, pattern: BitPattern, constellation: Constellation, params: ChannelParams
):
    """Exact L-value of the single bit governed by ``pattern``."""
    return _pattern_llr(exact_llr, y, pattern, constellation, params)


def pattern_maxlog_llr(
    y, pattern: BitPattern, constellation: Constellation, params: ChannelParams
):
    """Max-log L-value of the single bit governed by ``pattern``."""
    return _pattern_llr(maxlog_llr, y, pattern, constellation, params)


def abd_decide(llr) -> np.ndarray:
    """Sign decision on L-values: bit 1 when the L-value is >= 0."""
    return np.asarray(np.asarray(llr) >= 0, dtype=np.int8)
