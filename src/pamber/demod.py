"""Symbol-wise and bit-wise demodulators for the real AWGN channel.

Three demodulators operate on a channel observation ``y = x + noise``
where the noise is zero-mean Gaussian with variance ``1/(2*snr)``:

* SD: hard decision on the nearest constellation point, label read off.
* BD: exact per-bit log-likelihood ratios (L-values), decided by sign.
* ABD: max-log approximate L-values, decided by sign.

Sign convention: positive L-value favors bit 1, i.e. the L-value is
``log(Pr{bit=1 | y} / Pr{bit=0 | y})``.

Tie rules: the SD takes the index of the nearest point to be the number
of midpoints strictly below ``y``, counted in one pass per midpoint (O(M)
passes, faster than a binary search at every size up to 64 points).  An
exact midpoint therefore goes to the lower-indexed point, and ``-0.0``
and ``+0.0`` decide alike.  Sign decisions map an exact zero L-value to
bit 1.  The two rules can disagree only on that measure-zero set.

The demodulators act on a *target*: a :class:`Labeling`, or a
:class:`BitPattern` as one column.  One sample loop, ``_llr_rows``, gives
the L-values of a block of samples from one gather index per target,
``_subsets``, built on the target's first use and kept with it
(``constellation._derived``).  The L-value functions and the BD solver's
scan read that index; the solver scans every column of a target at once,
on a scan grid kept with the channel (``_per_channel``), then refines the
brackets of all columns in one pass.  A refinement step needs the exact
L-value at a few points alone, and ``_exact_few`` gives it there on
Python floats, with the kernel's operations in the kernel's order.

The L-value kernels are point-major.  For a block of samples they hold
one row of squared distances ``(y - x)**2`` per point ``x`` and gather,
for every bit at once, the rows of the points whose bit is 0 and those
whose bit is 1.  A subset minimum is an elementwise minimum over its
rows.  The exact L-value needs each subset's terms in ascending order, so
that its sum is fixed and mirror-symmetric subsets give an exactly
antisymmetric L-value (zero at the symmetry centre).  Over ascending
points the squared distances fall and then rise, rounding included, so
each subset's rows form a bitonic sequence, and a bitonic merger (a
network of elementwise minima and maxima) sorts it value for value.  The
terms ``exp(-snr*(d - d_min))`` are then added left to right, smallest
distance first.  Every sample gets the same value whatever the size and
shape of ``y``.

All functions broadcast over ``y``; scalars in, scalars out.  They check
the target (``constellation._checked``) and ``y`` on entry, and reject a
complex or non-finite ``y`` with a ValueError; the helpers behind them trust their
inputs.  The L-value functions
also reject a ``y`` far enough out that rounding hides the differences
between squared distances: an L-value compares squared distances of
neighbouring points, which differ by about ``2*dmin*|y - x|``, while each
is rounded by up to about ``1.5*eps*(y - x)**2``.  They therefore require
``|y| + max|x| <= dmin / (8*eps)``, with ``dmin`` the smallest gap between
points and ``eps`` the float64 machine epsilon: about 2.5e14 for
unit-energy 8-PAM, 3e13 for 64-PAM.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .constellation import _TARGETS, Constellation, Labeling, _checked, _derived, _readonly, _real

#: The demodulator names every entry point accepts.
DEMODULATORS = ("sd", "abd", "bd")


def _check_demodulator(name) -> None:
    """The one check of a demodulator name."""
    if name not in DEMODULATORS:
        raise ValueError(f"demodulator must be one of {', '.join(DEMODULATORS)}; got {name!r}")


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

    def __getstate__(self) -> dict:
        # a copy or a pickle leaves out the stores of _per_channel
        return {"snr": self.snr}

    @classmethod
    def from_db(cls, snr_db: float) -> "ChannelParams":
        """The channel at ``snr_db`` dB, whose linear SNR must be a positive finite float."""
        snr_db = float(snr_db)
        try:
            return cls(snr=10.0 ** (snr_db / 10.0))
        except (OverflowError, ValueError):
            raise ValueError(f"snr_db={snr_db:g} has no positive finite linear SNR") from None

    @property
    def noise_std(self) -> float:
        """Standard deviation of the real noise sample, sqrt(n0/2)."""
        return 1.0 / math.sqrt(2.0 * self.snr)


def _per_channel(build):
    """``build(constellation, params)``, kept with the channel ``params`` for each constellation.

    A decorator for read-only data that depends on one channel and one
    constellation alone, such as the midpoint Q tails and the BD scan grid.
    On each channel a builder keeps one ``weakref.WeakKeyDictionary``, keyed
    by the constellation: a channel keeps no constellation alive, and a
    constellation built later never finds another's data.  A build that
    raises keeps nothing, so the call raises again every time.  Two threads
    that miss at once may both build; their values are equal, and the store
    keeps one.
    """

    @functools.wraps(build)
    def kept(constellation, params):
        stores = vars(params).setdefault("_per_channel", {})
        store = stores.get(kept)
        if store is None:
            store = stores.setdefault(kept, weakref.WeakKeyDictionary())
        value = store.get(constellation)
        if value is None:
            value = store[constellation] = build(constellation, params)
        return value

    return kept


def _columns(target) -> np.ndarray:
    """Bit columns of a checked target: a labeling's matrix, or a pattern as one column."""
    if isinstance(target, Labeling):
        return target.matrix
    return target.as_array()[:, None]


def _nearest(y, edges) -> np.ndarray:
    """Region of each checked sample between sorted ``edges``: the edges strictly below it.

    Equal to ``np.searchsorted(edges, y, side="left")``, in the smallest
    unsigned dtype that holds ``len(edges)``.  With the midpoints as edges,
    the region is the index of the nearest point.
    """
    idx = np.zeros(np.shape(y), dtype=np.min_scalar_type(len(edges)))
    for edge in edges:
        idx += y > edge
    return idx


def sd_decide(y, target, constellation: Constellation) -> np.ndarray:
    """Hard symbol decision: label of the nearest point, shape ``y.shape + (m,)``.

    ``target`` is a :class:`Labeling`, or a :class:`BitPattern` read as a
    one-column labeling.  An exact midpoint resolves to the lower-indexed
    point.
    """
    _checked(target, _TARGETS, constellation)
    return _columns(target)[_nearest(_observations(y), constellation.midpoints())]


# Samples times bit columns times points per block of the L-value
# kernels: the block's gathered rows of squared distances, 1 MB, stay in a
# core's 2 MB cache through the kernel's dozens of passes over them.
_BLOCK = 1 << 17
_EPS = float(np.finfo(float).eps)


def _llr_limit(constellation: Constellation) -> float:
    """The bound ``dmin/(8*eps)`` on ``|y| + max|x|`` of the L-value functions."""
    return constellation.dmin / (8 * _EPS)


def _observations(y, constellation: Constellation | None = None) -> np.ndarray:
    """``y`` as a float array, after checking that it is real and finite and, given a
    constellation, within the bound of the L-value functions on it."""
    y = np.asarray(_real(y, "observations y"), dtype=float)
    peak = float(max(-y.min(initial=0.0), y.max(initial=0.0)))  # NaN if a sample is NaN
    if not math.isfinite(peak):
        raise ValueError("observations y must be finite")
    if constellation is not None:
        points, limit = constellation.points, _llr_limit(constellation)
        if peak + max(-points[0], points[-1]) > limit:
            raise ValueError(
                f"|y| = {peak:g} is too large for L-values on this constellation: "
                f"need |y| + max|x| <= dmin/(8*eps) = {limit:g}"
            )
    return y


@functools.lru_cache(maxsize=None)
def _bitonic_merger(size: int) -> tuple[tuple[int, int], ...]:
    """Comparators ``(i, j)``, i < j, that sort any bitonic sequence of ``size``.

    The merger of the next power of two, less every comparator that
    touches a position past ``size``: those positions would hold +inf,
    which a comparator leaves where it is.
    """
    width = 1 << (size - 1).bit_length()
    pairs = []
    half = width // 2
    while half:
        pairs.extend(
            (i, i + half) for i in range(width) if not i & half and i + half < size
        )
        half //= 2
    return tuple(pairs)


# The kernels take rows[i, j, b]: the squared distances to the i-th lowest
# point whose bit j is b, shape (M/2, m, 2, samples).  They may overwrite
# rows, and write the (m, samples) L-values to out.


def _maxlog_from_rows(rows, snr: float, out) -> None:
    mins = np.minimum.reduce(rows, axis=0)
    np.subtract(mins[:, 0], mins[:, 1], out=out)
    out *= snr


def _exact_from_rows(rows, snr: float, out) -> None:
    # Max-log term plus log-domain corrections.  Extracting the subset
    # minimum first keeps every exponent <= 0, so nothing overflows no
    # matter how large snr*(y-x)^2 gets; far-away terms underflow to 0.
    shape = rows.shape[1:]
    rows = list(rows.reshape(len(rows), -1))  # flat rows take numpy's fastest loops
    spare = np.empty_like(rows[0])
    for i, j in _bitonic_merger(len(rows)):
        low, high = rows[i], rows[j]
        np.minimum(low, high, out=spare)
        np.maximum(low, high, out=high)
        rows[i], spare = spare, low
    nearest = rows[0]
    corr = spare  # no longer a row
    corr.fill(1.0)  # the nearest point's term, exp(-0.0)
    for term in rows[1:]:
        np.subtract(term, nearest, out=term)
        np.multiply(term, -snr, out=term)
        np.exp(term, out=term)
        corr += term
    np.log(corr, out=corr)
    nearest, corr = nearest.reshape(shape), corr.reshape(shape)
    # grouped so that swapping the subsets negates the result exactly
    np.subtract(nearest[:, 0], nearest[:, 1], out=out)
    out *= snr
    out += corr[:, 1] - corr[:, 0]


def _exact_few(ys, splits, snr: float) -> list[float]:
    """``_exact_from_rows`` for a few samples: the same operations, on Python floats.

    ``splits[k]`` holds the points of sample ``ys[k]``'s bit as two lists of
    M/2, those whose bit is 0 and those whose bit is 1.  Each subset's
    squares ``(y - x)*(y - x)`` are sorted, as the bitonic merger sorts
    them; the terms ``(d - nearest)*-snr`` of all samples go through one
    ``np.exp``, each subset's are added onto 1.0 smallest distance first,
    and the sums go through one ``np.log``.  numpy's exp and log give an
    element the same double whatever the array, so every L-value is the
    kernel's, bit for bit, for two numpy calls in place of the kernel's
    few dozen.
    """
    size = len(splits[0][0])
    squares = [(y - x) * (y - x) for y, split in zip(ys, splits) for xs in split for x in xs]
    rows = [sorted(squares[k : k + size]) for k in range(0, len(squares), size)]
    exps = iter(np.exp([(d - row[0]) * -snr for row in rows for d in row[1:]]).tolist())
    sums = []
    for row in rows:
        total = 1.0  # the nearest point's term, exp(-0.0)
        for _ in row[1:]:  # none at M = 2
            total += next(exps)
        sums.append(total)
    logs = np.log(sums).tolist()
    return [(rows[k][0] - rows[k + 1][0]) * snr + (logs[k + 1] - logs[k])
            for k in range(0, len(rows), 2)]


def _subsets(target) -> np.ndarray:
    """Read-only gather index ``subsets[i, j, b]``: the i-th lowest point whose bit j is b."""
    cols = _columns(target)
    # Every column holds M/2 ones, so a stable sort splits each column in two
    # halves on its own: ``subsets[:, j : j + 1]`` is column j's index alone.
    halves = cols.T.argsort(axis=1, kind="stable").reshape(cols.shape[1], 2, -1)
    return _readonly(np.ascontiguousarray(halves.transpose(2, 0, 1)))


def _llr_rows(samples, subsets, points, snr: float, kernel, squares=None) -> np.ndarray:
    """The ``(m, n)`` L-values of ``n`` checked samples; ``points`` is ``(M, 1)``.

    ``squares``, if given, is ``np.square(samples - points)``, computed beforehand.
    """
    out = np.empty((subsets.shape[1], samples.size))
    step = max(1, _BLOCK // subsets.size)  # subsets.size is M*m
    for lo in range(0, samples.size, step):
        if squares is None:
            sq = np.square(samples[lo : lo + step] - points)
        else:
            sq = squares[:, lo : lo + step]
        kernel(sq.take(subsets, axis=0), snr, out[:, lo : lo + step])
    return out


def _per_bit(y, target, constellation, params, kernel) -> np.ndarray:
    _checked(target, _TARGETS, constellation)
    subsets = _derived(target, _subsets)
    y_arr = _observations(y, constellation)
    out = _llr_rows(y_arr.reshape(-1), subsets, constellation.points[:, None], params.snr, kernel)
    return out.reshape(out.shape[:1] + y_arr.shape).transpose(*range(1, y_arr.ndim + 1), 0)


def exact_llr(
    y, target, constellation: Constellation, params: ChannelParams
) -> np.ndarray:
    """Exact L-values for all m bit positions, shape ``y.shape + (m,)``.

    Column j equals ``log(sum_1 exp(-snr*(y-x)^2) / sum_0 exp(-snr*(y-x)^2))``
    with the sums running over the points whose bit j is 1 and 0.  A
    :class:`BitPattern` target gives one column.  The array is a view of
    a bit-major ``(m,) + y.shape`` array, so each column is contiguous.

    Raises:
        ValueError: if ``y`` is not finite or ``|y| + max|x|`` exceeds
            ``dmin/(8*eps)`` (see the module docstring).
    """
    return _per_bit(y, target, constellation, params, _exact_from_rows)


def maxlog_llr(
    y, target, constellation: Constellation, params: ChannelParams
) -> np.ndarray:
    """Max-log L-values, shape ``y.shape + (m,)``.

    Column j equals ``snr * (min_0 (y-x)^2 - min_1 (y-x)^2)``.  Layout and
    input bound as for :func:`exact_llr`.
    """
    return _per_bit(y, target, constellation, params, _maxlog_from_rows)


def abd_decide(llr) -> np.ndarray:
    """Sign decision on L-values: bit 1 when the L-value is >= 0."""
    return np.asarray(np.asarray(llr) >= 0, dtype=np.int8)
