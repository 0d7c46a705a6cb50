"""Decision boundaries and the bit decided between them.

A sign demodulator cuts the real line at its decision boundaries and
decides one bit in each region.  For the max-log (ABD) demodulator the
boundaries are the midpoints between adjacent points and each region
decides the bit of its point.  For the exact bit-wise (BD) demodulator
they are the zero crossings of the exact L-value.  They move with SNR and
approach the midpoints as SNR grows; at low SNR pairs of them merge and
vanish, so a region can hold several points.

Two facts bound the BD boundaries of a pattern over points
``s_0 < ... < s_{M-1}``:

* **Count.**  ``S1 - S0`` (the two sums inside the L-value) equals a
  positive factor times the exponential sum
  ``sum_i (2*p_i - 1) * exp(2*snr*s_i*y - snr*s_i**2)``.  By Laguerre's
  rule of signs it has at most as many real zeros as its coefficients
  have sign changes, which is the number of bit transitions of the
  pattern, and the same parity.
* **Location.**  Beyond ``s_{M-1} + T`` the term of the top point
  outweighs the M/2 terms of the other bit, with
  ``T = ln(M/2) / (2*snr*dmin)`` and ``dmin`` the smallest gap between
  points; likewise below ``s_0 - T``.  Every crossing therefore lies in
  ``[s_0 - T, s_{M-1} + T]``, and the outer regions decide ``p_0`` and
  ``p_{M-1}``.

The solver scans the L-value of every column of a target on one grid out
to T, which depends on the SNR and the constellation alone.  Only the
channel keeps a grid, checked against the L-value bound of
:mod:`pamber.demod`, for each constellation it meets
(``demod._per_channel``), so every target solved on one channel scans the
same samples, in the sample loop ``demod._llr_rows`` of every L-value.
The sign changes of all columns are then refined in one pass: each step
evaluates each bracket's own column at the bracket's next point, a few
samples that ``demod._exact_few`` takes on Python floats, bit for bit the
values of the scan's kernel, with one numpy exp and one log call per
step.  A bracket's steps depend on its own ends alone, so the crossings
are those of refining each column by itself.  Each column's crossings
come back as a :class:`ThresholdSet`, checked as a user's set is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import BitPattern, Constellation, _checked, _derived, _readonly, _real
from .demod import (
    ChannelParams, _exact_few, _exact_from_rows, _llr_rows, _observations, _per_channel, _subsets)

# The scan is uniform across the points and geometric beyond them, its
# step growing by _SCAN_GROWTH per sample out to the bound T.  Crossings
# outside the points drift out like 1/snr, and an inner pair that
# survives low SNR sits about 1/sqrt(snr) out; a step proportional to the
# distance resolves both, where a uniform 1024-sample scan of the same
# interval misses such pairs on 8-PAM at -55 dB.  Across the points the
# scan takes at least 8 steps per gap: on M-PAM the uniform part alone
# does so up to M = 64, and clustered points get 8 even steps per gap added.
_SCAN_SAMPLES = 512
_SCAN_GROWTH = 1.02
# Illinois steps before the refinement falls back to halving; it needs at
# most 5 on every 8-PAM pattern from -10 to 30 dB.
_ILLINOIS_STEPS = 16
_XTOL = 1e-10
_RTOL = 4 * float(np.finfo(float).eps)
# Far out, the exact L-value is a difference of large squared distances,
# and rounding flips its sign where it is small: on 8-PAM, spurious
# crossings appear from -74 dB down.  The solver rejects an SNR whose
# bound T lies beyond 1e6 point gaps (-54 dB for 8-PAM, -47 dB for 16-PAM).
_MAX_REACH_GAPS = 1e6


@dataclass(frozen=True, eq=False)
class ThresholdSet:
    """Sorted decision boundaries and the bit decided in each region.

    The K boundaries ``betas`` cut the real line into K+1 regions;
    ``bits[k]`` is the bit decided in region k, counted from the left.
    The midpoint (ABD) set of a pattern is
    ``ThresholdSet(constellation.midpoints(), pattern.bits)``: region k is
    the decision region of point k and decides that point's bit.

    Raises:
        ValueError: unless ``betas`` is real, 1-D, finite and non-decreasing, and
            ``bits`` holds one 0 or 1 per region.
    """

    betas: np.ndarray
    bits: np.ndarray

    def __post_init__(self) -> None:
        betas = np.array(_real(self.betas, "boundaries"))
        bits = np.asarray(self.bits)  # copied once, to int8, after the checks
        if betas.ndim != 1 or bits.shape != (betas.size + 1,):
            raise ValueError("need 1-D boundaries and one region bit more than boundaries")
        values = betas.tolist()  # a few boundaries: Python beats numpy's call overhead
        if not all(map(math.isfinite, values)) or values != sorted(values):
            raise ValueError("boundaries must be finite and non-decreasing")
        if not set(bits.tolist()) <= {0, 1}:
            raise ValueError("region bits must be 0 or 1")
        for name, arr in (("betas", betas), ("bits", bits.astype(np.int8))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        """Number of boundaries K."""
        return int(self.betas.size)


def _scan_grid(constellation: Constellation, reach: float) -> np.ndarray:
    points = constellation.points
    inner = np.linspace(points[0], points[-1], _SCAN_SAMPLES)
    step = float(inner[1] - inner[0])
    if step > constellation.dmin / 8:
        inner = np.union1d(inner, points[:-1, None] + np.diff(points)[:, None] * np.arange(8) / 8)
    if reach <= 0:
        return inner
    count = max(1, math.ceil(math.log(reach / step, _SCAN_GROWTH)) + 1)
    outer = np.minimum(step * _SCAN_GROWTH ** np.arange(count), reach)
    return np.concatenate((points[0] - outer[::-1], inner, points[-1] + outer))


def _illinois(f, lo, hi, flo, fhi) -> np.ndarray:
    """Roots of ``f`` in every bracket ``[lo, hi]`` (ends of opposite sign) at once.

    ``f(xs, which)`` maps a list of Python floats to a list of floats: for
    each point ``xs[k]``, the value of the function of bracket ``which[k]``.
    The brackets may belong to different functions, such as the columns of
    one target, and every step refines all of them with one call of ``f``.

    Each step is a regula falsi step, clipped at least ``tol`` inside its
    bracket, with ``tol = _XTOL + _RTOL*max(|lo|, |hi|)`` so that a clipped
    step moves even where a float's spacing exceeds ``_XTOL``.  The Illinois rule
    halves the value kept at an end that stayed put twice; after
    ``_ILLINOIS_STEPS`` steps the refinement halves brackets instead.  A
    bracket is done once it is narrower than ``2*tol``; its centre, the
    returned root, is within ``tol`` of a sign change.  A bracket's steps
    depend on its own ends alone, so refining brackets together or apart
    gives the same roots.

    The few brackets' state is kept in Python floats, whose arithmetic is
    the same IEEE double arithmetic as numpy's element-wise operations.
    """
    lo, hi, flo, fhi = (np.asarray(a, dtype=float).tolist() for a in (lo, hi, flo, fhi))
    moved = [0] * len(lo)  # -1: lo moved last, +1: hi
    active = range(len(lo))
    step = 0
    while True:
        secant = step < _ILLINOIS_STEPS
        which, xs = [], []
        for i in active:
            a, b = lo[i], hi[i]
            t = -a if -a > b else b  # max(|a|, |b|), as a <= b
            t = _XTOL + _RTOL * t
            if b - a < 2 * t:
                continue
            if secant:
                fb = fhi[i]
                x = b - fb * (b - a) / (fb - flo[i])
            else:
                x = 0.5 * (a + b)
            # min(max(x, a + t), b - t), comparison for comparison
            if a + t > x:
                x = a + t
            if b - t < x:
                x = b - t
            which.append(i)
            xs.append(x)
        if not xs:
            return np.array([0.5 * (a + b) for a, b in zip(lo, hi)])
        for i, x, fx in zip(which, xs, f(xs, which)):
            if (fx < 0) == (flo[i] < 0):
                if moved[i] == -1:
                    fhi[i] *= 0.5
                flo[i], lo[i], moved[i] = fx, x, -1
                if fx == 0:
                    hi[i] = x
            else:
                if moved[i] == 1:
                    flo[i] *= 0.5
                fhi[i], hi[i], moved[i] = fx, x, 1
                if fx == 0:
                    lo[i] = x
        active = which
        step += 1


def bd_thresholds(
    pattern: BitPattern, constellation: Constellation, params: ChannelParams
) -> ThresholdSet:
    """Every zero crossing of the exact L-value, with the bit of each region.

    One scan of the L-value over ``[s_0 - T, s_{M-1} + T]`` (see the
    module docstring) brackets the sign changes; all brackets are then
    refined together to within 1e-10.  Region bits alternate from ``p_0`` at
    the left.  The number of crossings is at most the number of bit
    transitions; fewer means that crossings have merged and vanished.

    The scan steps at most an eighth of any gap between points, so it finds
    every crossing with no other within one step; a near-tangent pair about
    to merge can still be missed, and then its narrow region is lost.

    The scan grid, kept with ``params``, is checked against the L-value
    bound of :mod:`pamber.demod` when it is built; every refinement point
    lies between its ends.

    Raises:
        TypeError: if ``pattern`` is not a :class:`BitPattern`.
        ValueError: if the pattern and the constellation differ in size.
        ValueError: if T exceeds 10^6 point gaps (below about -54 dB for
            8-PAM), where rounding in the L-value makes spurious crossings.
    """
    _checked(pattern, (BitPattern,), constellation)  # a labeling is not its first column
    return _crossings(pattern, constellation, params)[0]


def _reach(constellation: Constellation, params: ChannelParams) -> float:
    """The bound T of the module docstring."""
    return math.log(constellation.size / 2) / (2 * params.snr * constellation.dmin)


def _past_reach(constellation: Constellation, params: ChannelParams) -> bool:
    """Whether the solver refuses ``params``: T beyond ``_MAX_REACH_GAPS`` point gaps."""
    return _reach(constellation, params) > _MAX_REACH_GAPS * constellation.dmin


@_per_channel
def _channel_grid(constellation: Constellation, params: ChannelParams) -> np.ndarray:
    """The read-only scan grid out to the bound T, checked against the L-value bound.

    It depends on the SNR and the constellation alone, so it is kept with
    ``params`` for each constellation; an SNR past the solver's reach keeps
    nothing and raises on every call.
    """
    reach = _reach(constellation, params)
    if _past_reach(constellation, params):
        raise ValueError(
            f"snr_db={10 * math.log10(params.snr):g} (snr={params.snr:g}) is too low: the "
            f"exact L-value cannot be resolved out to its bound T={reach:g}"
        )
    grid = _readonly(_scan_grid(constellation, reach))
    _observations(grid[[0, -1]], constellation)  # sorted: its largest |y| is at an end
    return grid


def _sign_changes(values):
    """``(cols, left, right)``: each sign change of each row, between samples left and right.

    The ends of every row are nonzero, so stepping over exact zeros, in one
    pass over the nonzero samples of all rows, keeps every sign change.
    """
    if values.all():
        negative = values < 0
        cols, left = np.nonzero(negative[:, 1:] != negative[:, :-1])
        return cols, left, left + 1
    nonzero = values != 0
    cols, kept = np.nonzero(nonzero)  # row by row, so a row's samples are adjacent
    negative = values[nonzero] < 0
    hits = np.flatnonzero((negative[1:] != negative[:-1]) & (cols[1:] == cols[:-1]))
    return cols[hits], kept[hits], kept[hits + 1]


def _crossings(target, constellation: Constellation, params: ChannelParams) -> list[ThresholdSet]:
    """Each column's :func:`bd_thresholds`.

    One scan of every column brackets the sign changes, and one
    refinement pass refines the brackets of all columns together: each
    step evaluates each bracket's own column at its next point.
    """
    grid = _channel_grid(constellation, params)
    points, subsets, snr = constellation.points, _derived(target, _subsets), params.snr
    values = _llr_rows(grid, subsets, points[:, None], snr, _exact_from_rows)
    cols, left, right = _sign_changes(values)
    owner = cols.tolist()
    splits = points[subsets].transpose(1, 2, 0).tolist()  # splits[j][b]: column j's points of bit b

    def llr(ys, which):  # a few points: on Python floats
        return _exact_few(ys, [splits[owner[i]] for i in which], snr)

    roots = _illinois(llr, grid[left], grid[right], values[cols, left], values[cols, right])
    counts = np.bincount(cols, minlength=len(values)).tolist()
    cuts, start = [], 0  # the brackets, and so the roots, come column by column
    for count, first in zip(counts, values[:, 0].tolist()):
        bits = [(int(first > 0) + k) % 2 for k in range(count + 1)]
        cuts.append(ThresholdSet(roots[start : start + count], bits))
        start += count
    return cuts
