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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import BitPattern, Constellation, _derived, _readonly
from .demod import ChannelParams, _exact_from_rows, _llr_observations, _llr_rows, _subsets

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
        ValueError: unless ``betas`` is 1-D, finite and non-decreasing, and
            ``bits`` holds one 0 or 1 per region.
    """

    betas: np.ndarray
    bits: np.ndarray

    def __post_init__(self) -> None:
        betas = np.array(self.betas, dtype=float)
        bits = np.array(self.bits)
        if betas.ndim != 1 or bits.shape != (betas.size + 1,):
            raise ValueError("need 1-D boundaries and one region bit more than boundaries")
        values = betas.tolist()  # a few boundaries: Python beats numpy's call overhead
        if not all(map(math.isfinite, values)) or values != sorted(values):
            raise ValueError("boundaries must be finite and non-decreasing")
        if not set(bits.tolist()) <= {0, 1}:
            raise ValueError("region bits must be 0 or 1")
        self._keep(betas, bits)

    def _keep(self, betas: np.ndarray, bits: np.ndarray) -> None:
        for name, arr in (("betas", betas), ("bits", bits.astype(np.int8))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def _solved(cls, betas: np.ndarray, bits: np.ndarray) -> "ThresholdSet":
        """A set of the solver's own arrays, already sorted, finite and 0/1: kept unchecked."""
        self = object.__new__(cls)
        self._keep(betas, bits)
        return self

    @property
    def size(self) -> int:
        """Number of boundaries K."""
        return int(self.betas.size)


def _inner_grid(constellation: Constellation) -> tuple[np.ndarray, float]:
    """The scan across the points and its uniform step: built once per constellation."""
    points = constellation.points
    grid = np.linspace(points[0], points[-1], _SCAN_SAMPLES)
    step = float(grid[1] - grid[0])
    if step > constellation.dmin / 8:
        grid = np.union1d(grid, points[:-1, None] + np.diff(points)[:, None] * np.arange(8) / 8)
    return _readonly(grid), step


def _outer_count(reach: float, step: float) -> int:
    """Samples of the geometric scan from ``step`` out to ``reach``."""
    return max(1, math.ceil(math.log(reach / step, _SCAN_GROWTH)) + 1)


def _outer_steps(constellation: Constellation) -> np.ndarray:
    """``step * _SCAN_GROWTH**k`` out to the farthest reach the solver takes: built once."""
    step = _derived(constellation, _inner_grid)[1]
    count = _outer_count(_MAX_REACH_GAPS * constellation.dmin, step)
    return _readonly(step * _SCAN_GROWTH ** np.arange(count))


def _scan_grid(constellation: Constellation, reach: float) -> np.ndarray:
    inner, step = _derived(constellation, _inner_grid)
    if reach <= 0:
        return inner
    steps = _derived(constellation, _outer_steps)[: _outer_count(reach, step)]
    outer = np.minimum(steps, reach)
    points = constellation.points
    return np.concatenate((points[0] - outer[::-1], inner, points[-1] + outer))


def _root_tol(x):
    """The solver's root tolerance at ``x`` (a float or an array): ``_XTOL + _RTOL*|x|``."""
    return _XTOL + _RTOL * abs(x)


def _illinois(f, lo, hi, flo, fhi) -> np.ndarray:
    """Roots of ``f`` in every bracket ``[lo, hi]`` (ends of opposite sign) at once.

    Each step is a regula falsi step, clipped at least ``tol`` inside its
    bracket, with ``tol = _root_tol(max(|lo|, |hi|))`` so that a clipped
    step moves even where a float's spacing exceeds ``_XTOL``.  The Illinois rule
    halves the value kept at an end that stayed put twice; after
    ``_ILLINOIS_STEPS`` steps the refinement halves brackets instead.  A
    bracket is done once it is narrower than ``2*tol``; its centre, the
    returned root, is within ``tol`` of a sign change.

    The few brackets' state is kept in Python floats, whose arithmetic is
    the same IEEE double arithmetic as numpy's element-wise operations, and
    ``f`` is called once per step on an array of every active bracket's
    next point.
    """
    lo, hi, flo, fhi = (np.asarray(a, dtype=float).tolist() for a in (lo, hi, flo, fhi))
    moved = [0] * len(lo)  # -1: lo moved last, +1: hi
    active = range(len(lo))
    step = 0
    while True:
        xs = []
        for i in active:
            a, b = lo[i], hi[i]
            t = _root_tol(max(abs(a), abs(b)))
            if b - a < 2 * t:
                continue
            fa, fb = flo[i], fhi[i]
            x = b - fb * (b - a) / (fb - fa) if step < _ILLINOIS_STEPS else 0.5 * (a + b)
            xs.append((i, min(max(x, a + t), b - t)))
        if not xs:
            return np.array([0.5 * (a + b) for a, b in zip(lo, hi)])
        active = [i for i, _ in xs]
        for (i, x), fx in zip(xs, f(np.array([x for _, x in xs])).tolist()):
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

    The scan grid is checked once against the L-value bound of
    :mod:`pamber.demod`; every refinement point lies between its ends.

    Raises:
        TypeError: if ``pattern`` is not a :class:`BitPattern`.
        ValueError: if the pattern and the constellation differ in size.
        ValueError: if T exceeds 10^6 point gaps (below about -54 dB for
            8-PAM), where rounding in the L-value makes spurious crossings.
    """
    if not isinstance(pattern, BitPattern):  # not a labeling's first column
        raise TypeError(f"pattern must be a BitPattern, got {type(pattern)!r}")
    if pattern.size != constellation.size:
        raise ValueError("pattern and constellation sizes differ")
    return ThresholdSet._solved(*_crossings(pattern, constellation, params)[0])


def _reach(constellation: Constellation, params: ChannelParams) -> float:
    """The bound T of the module docstring."""
    return math.log(constellation.size / 2) / (2 * params.snr * constellation.dmin)


def _past_reach(constellation: Constellation, params: ChannelParams) -> bool:
    """Whether the solver refuses ``params``: T beyond ``_MAX_REACH_GAPS`` point gaps."""
    return _reach(constellation, params) > _MAX_REACH_GAPS * constellation.dmin


def _crossings(target, constellation: Constellation, params: ChannelParams):
    """Each column's ``(betas, region_bits)`` of :func:`bd_thresholds`, from one scan of all."""
    reach = _reach(constellation, params)
    if _past_reach(constellation, params):
        raise ValueError(
            f"snr={params.snr:g} is too low: the exact L-value cannot be "
            f"resolved out to its bound T={reach:g}"
        )
    grid = _scan_grid(constellation, reach)
    _llr_observations(grid[[0, -1]], constellation)  # sorted: its largest |y| is at an end
    subsets, column = _derived(target, _subsets), constellation.points[:, None]
    cuts = []
    for j, values in enumerate(_llr_rows(grid, subsets, column, params.snr, _exact_from_rows)):
        def llr(y, one=subsets[:, j : j + 1]):
            return _llr_rows(y, one, column, params.snr, _exact_from_rows)[0]
        # The ends are nonzero, so dropping exact zeros keeps every sign change.
        nonzero = values != 0
        ys, values = grid[nonzero], values[nonzero]
        hits = np.nonzero((values[:-1] < 0) != (values[1:] < 0))[0]
        roots = _illinois(llr, ys[hits], ys[hits + 1], values[hits], values[hits + 1])
        cuts.append((roots, (int(values[0] > 0) + np.arange(roots.size + 1)) % 2))
    return cuts
