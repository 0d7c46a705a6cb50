"""Decision thresholds separating the bit-0 and bit-1 regions.

For the max-log (ABD) demodulator the thresholds are simply the midpoints
between adjacent constellation points.  For the exact bit-wise (BD)
demodulator they are the zero crossings of the exact L-value and move
with SNR; they approach the midpoints as SNR grows.

A threshold between two points that carry the same bit does not affect
the error rate (its relevance column is all zeros), so such entries are
filled with midpoints by convention.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constellation import BitPattern, Constellation
from .demod import ChannelParams, pattern_exact_llr


class NoSignChangeError(RuntimeError):
    """The exact L-value has no usable zero crossing for some threshold.

    Happens at very low SNR where adjacent thresholds merge or vanish; the
    solver reports this instead of inventing a boundary.
    """


class MultipleCrossingsWarning(UserWarning):
    """More than one zero crossing found inside a single bracket."""


@dataclass(frozen=True, eq=False)
class ThresholdSet:
    """M-1 ordered decision boundaries, optionally with a relevance mask.

    ``relevant[k]`` is True when the bits of points k and k+1 differ, i.e.
    when boundary k actually separates a 0-region from a 1-region.  It is
    None for pattern-independent threshold sets (midpoints).
    """

    betas: np.ndarray
    relevant: np.ndarray | None = None

    def __post_init__(self) -> None:
        betas = np.array(self.betas, dtype=float)
        betas.setflags(write=False)
        object.__setattr__(self, "betas", betas)
        if self.relevant is not None:
            rel = np.array(self.relevant, dtype=bool)
            rel.setflags(write=False)
            object.__setattr__(self, "relevant", rel)
            if rel.shape != betas.shape:
                raise ValueError("relevance mask must match the threshold vector")

    @property
    def size(self) -> int:
        return int(self.betas.size)


def midpoint_thresholds(constellation: Constellation) -> ThresholdSet:
    """ABD thresholds: midpoints between adjacent points, SNR independent."""
    return ThresholdSet(betas=constellation.midpoints())


def transition_mask(pattern: BitPattern) -> np.ndarray:
    """Boolean vector of length M-1, True where adjacent bits differ."""
    bits = pattern.as_array()
    return bits[1:] != bits[:-1]


def relevance_mask(pattern: BitPattern) -> np.ndarray:
    """Signed relevance matrix with entries ``(p[k+1]-p[k]) * (1-2*p[i])``.

    Shape (M, M-1), integer entries in {0, +1, -1}.  Column k is all zero
    exactly when threshold k sits between equal bits.
    """
    bits = pattern.as_array().astype(np.int64)
    return (bits[1:] - bits[:-1])[None, :] * (1 - 2 * bits)[:, None]


def _crossing_brackets(grid: np.ndarray, values: np.ndarray) -> list[tuple[float, float]]:
    sign = np.sign(values)
    hits = np.nonzero((sign[:-1] * sign[1:]) < 0)[0]
    brackets = [(grid[i], grid[i + 1]) for i in hits]
    for i in np.nonzero(sign == 0)[0]:
        brackets.append((grid[i], grid[i]))
    return brackets


_RTOL = 4 * np.finfo(float).eps
_MAXITER = 100


def _value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
    return fx


def _bisect(f, xa: float, xb: float, xtol: float) -> float:
    """Root of ``f`` in ``[xa, xb]``, step for step as ``scipy.optimize.bisect``."""
    fa, fb = _value(f, xa), _value(f, xb)
    if fa * fb > 0:
        raise ValueError("f(a) and f(b) must have different signs")
    if fa == 0:
        return xa
    if fb == 0:
        return xb
    dm = xb - xa
    for _ in range(_MAXITER):
        dm *= 0.5
        xm = xa + dm
        fm = _value(f, xm)
        if fm * fa >= 0:
            xa = xm
        if fm == 0 or abs(dm) < xtol + _RTOL * abs(xm):
            return xm
    raise RuntimeError(f"bisection failed to converge after {_MAXITER} iterations")


def _solve(f, lo: float, hi: float, xtol: float) -> float:
    if lo == hi:
        return lo
    return _bisect(f, float(lo), float(hi), xtol)


def bd_thresholds(
    pattern: BitPattern,
    constellation: Constellation,
    params: ChannelParams,
    *,
    bracket_samples: int = 1024,
    xtol: float = 1e-10,
) -> ThresholdSet:
    """Zero crossings of the exact L-value, one per bit transition.

    Each relevant boundary is bracketed by a uniform scan of the interval
    between the two adjacent points, then bisected to ``xtol``.  If several
    crossings fall inside one bracket, the one closest to the midpoint is
    kept and a :class:`MultipleCrossingsWarning` is emitted.

    At low SNR a crossing can migrate beyond its adjacent points.  When a
    bracket scan comes up empty, all crossings are re-located by a wide
    scan of the whole axis; this succeeds as long as the L-value still has
    exactly one zero per bit transition.  Otherwise the threshold
    structure has degenerated and :class:`NoSignChangeError` is raised.

    Boundaries between equal bits are returned as midpoints; they carry no
    probability of error and are marked not relevant.
    """
    if pattern.size != constellation.size:
        raise ValueError("pattern and constellation sizes differ")
    points = constellation.points
    mids = constellation.midpoints()
    relevant = transition_mask(pattern)

    def llr(y):
        return pattern_exact_llr(y, pattern, constellation, params)

    betas = np.array(mids)
    missing: list[int] = []
    for k in np.nonzero(relevant)[0]:
        grid = np.linspace(points[k], points[k + 1], bracket_samples)
        brackets = _crossing_brackets(grid, llr(grid))
        if not brackets:
            missing.append(k)
            continue
        roots = [_solve(llr, lo, hi, xtol) for lo, hi in brackets]
        if len(roots) > 1:
            warnings.warn(
                f"{len(roots)} zero crossings between points {k} and {k + 1}; "
                "keeping the one nearest the midpoint",
                MultipleCrossingsWarning,
                stacklevel=2,
            )
        betas[k] = min(roots, key=lambda r: abs(r - mids[k]))

    if missing:
        n_rel = int(relevant.sum())
        span = points[-1] - points[0]
        grid = np.linspace(points[0] - span, points[-1] + span, 8 * bracket_samples)
        brackets = _crossing_brackets(grid, llr(grid))
        if len(brackets) != n_rel:
            raise NoSignChangeError(
                f"L-value of pattern {pattern.index} has {len(brackets)} zero "
                f"crossings for {n_rel} bit transitions at snr={params.snr:g}; "
                "thresholds merged or vanished"
            )
        roots = sorted(_solve(llr, lo, hi, xtol) for lo, hi in brackets)
        betas[np.nonzero(relevant)[0]] = roots

    order = betas[relevant]
    if np.any(np.diff(order) <= 0):
        raise NoSignChangeError(
            f"solved thresholds for pattern {pattern.index} are not increasing "
            f"at snr={params.snr:g}"
        )
    return ThresholdSet(betas=betas, relevant=relevant)
