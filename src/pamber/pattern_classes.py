"""Enumeration of bit patterns and their error-rate equivalence classes.

Reflecting a pattern (reversing it end to end) or inverting it (flipping
every bit) leaves its PBER over a symmetric constellation unchanged, so
patterns group into classes of size 2 or 4 under the two operations.  A
pattern can never equal its own inversion; it may equal its reflection
(RE), its inverted reflection (ARE), or neither (ASY).

For equally spaced unit-energy M-PAM with midpoint boundaries the PBER
is a weighted sum of Q-functions at odd multiples of the half spacing;
the integer weight vector depends only on the pattern and fully
determines the curve.  It is bilinear in the pattern bits, so
:func:`pattern_weights` evaluates it for many patterns in one array pass.
Summing the weight vectors of a labeling's column patterns gives the
labeling's BER the same way.  This is integer algebra: the module needs
no Q-function, and neither does anything that only counts classes.

Enumeration works on int64 arrays of bitmasks: it takes the balanced
masks from one Gosper walk, reflects and inverts them all at once, sorts
each four-mask orbit and keeps the orbits whose smallest member is the
mask itself.  The weight vectors of all representatives come from one
array pass, and a :class:`~pamber.constellation.BitPattern` is built only
for each representative, at the public surface.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constellation import BitPattern, Labeling, _is_integer

RE = "RE"
ARE = "ARE"
ASY = "ASY"


def classify(pattern: BitPattern) -> str:
    """Symmetry type of a pattern: RE, ARE, or ASY."""
    return _symmetry(pattern.index, pattern.size)


def _symmetry(index: int, m_points: int) -> str:
    r = reflect_index(index, m_points)
    if r == index:
        return RE
    if r == invert_index(index, m_points):
        return ARE
    return ASY


def reflect_index(index: int, m_points: int) -> int:
    """Bit-reversal of an M-bit pattern index, or of each entry of an int64 array."""
    out = 0
    for _ in range(m_points):
        out = (out << 1) | (index & 1)
        index = index >> 1  # not >>=, which would shift the caller's array
    return out


def invert_index(index: int, m_points: int) -> int:
    """Complement of an M-bit pattern index, or of each entry of an int64 array."""
    return index ^ ((1 << m_points) - 1)


def pattern_indices(m_points: int) -> Iterator[int]:
    """All C(M, M/2) balanced pattern indices in increasing order.

    Gosper's hack walks the fixed-popcount masks ascending without
    touching the other 2^M - C(M, M/2) words.

    Raises:
        ValueError: at the call, unless M is an even integer and 2 <= M <= 62.
    """
    if not _is_integer(m_points) or m_points < 2 or m_points % 2 != 0:
        raise ValueError(f"M must be an even integer >= 2, got {m_points}")
    if m_points > 62:
        raise ValueError("bitmask enumeration supports M <= 62")
    return _gosper(int(m_points))


def _gosper(m_points: int) -> Iterator[int]:
    word = (1 << (m_points // 2)) - 1
    top = 1 << m_points
    while word < top:
        yield word
        low = word & -word
        ripple = word + low
        word = (((ripple ^ word) >> 2) // low) | ripple


def pattern_weights(bits) -> np.ndarray:
    """Integer Q-function weight vectors of many patterns in one array pass.

    ``bits`` holds one length-M 0/1 pattern per row; row n of the result
    is the weight vector of pattern n (see :func:`pattern_coefficients`).
    With ``step[j] = p[j+1] - p[j]`` and ``sign[i] = 1 - 2*p[i]`` the
    weight at lag ``a = 0..M-2`` is the bilinear form

        sum_j step[j] * (sign[j-a] - sign[j+a+1]),

    where sign entries outside ``0..M-1`` count as zero.  The lagged sign
    rows are read through a sliding-window view, so no ``(n, M-1, M-1)``
    array is built and every temporary is a few times the size of ``bits``.
    """
    bits = np.asarray(bits, dtype=np.int64)
    m_points = bits.shape[1]
    step = np.diff(bits, axis=1)
    # Zero-pad sign by M-1 on both sides so every lagged index is in range.
    sign = np.zeros((bits.shape[0], 3 * m_points - 2), dtype=np.int64)
    sign[:, m_points - 1 : 2 * m_points - 1] = 1 - 2 * bits
    # corr[:, k] = sum_j step[j] * sign[j + k - (M-1)]
    corr = np.einsum("nkj,nj->nk", sliding_window_view(sign, m_points - 1, axis=1), step)
    # Lag a pairs k = M-1-a (sign[j-a]) with k = M+a (sign[j+a+1]).
    return corr[:, m_points - 1 : 0 : -1] - corr[:, m_points : 2 * m_points - 1]


def pattern_coefficients(pattern: BitPattern) -> np.ndarray:
    """Integer Q-function weights of a pattern for equally spaced PAM.

    Entry n-1 (n = 1..M-1) weights Q((2n-1)*d*sqrt(2*snr)) in the PBER.
    The first entry is twice the number of adjacent points whose bits
    differ; the vector is invariant under reflection and inversion of the
    pattern.
    """
    return pattern_weights(pattern.as_array()[None, :])[0]


def labeling_coefficients(labeling: Labeling) -> np.ndarray:
    """Sum of the column patterns' Q-function weight vectors."""
    return pattern_weights(labeling.matrix.T).sum(axis=0)


def high_snr_bicm_parameter(labeling: Labeling) -> int:
    """``2*m*(M-1)`` minus the first labeling weight.

    Equals twice the number of adjacent label pairs agreeing per bit
    position summed over positions; non-negative for every labeling.
    """
    alpha1 = int(labeling_coefficients(labeling)[0])
    return 2 * labeling.n_bits * (labeling.size - 1) - alpha1


@dataclass(frozen=True)
class PatternClass:
    """One equivalence class under reflection and inversion.

    The representative is the member with the smallest index; the
    coefficient vector is shared by all members.
    """

    representative: BitPattern
    members: tuple[int, ...]
    symmetry: str
    coefficients: tuple[int, ...]


#: Largest M the enumerating functions accept.  M = 20 (46,508 classes)
#: takes about 0.5 s; M = 24 (677,294 classes) took about 10 s and 1.4 GB,
#: three quarters of it building one Python object per class.
MAX_ENUMERATED_POINTS = 20


def _check_class_size(m_points: int) -> None:
    if not _is_integer(m_points) or m_points < 4 or m_points % 4 != 0:
        raise ValueError(f"M must be a positive multiple of 4, got {m_points}")


def _check_enumerable(m_points: int) -> None:
    _check_class_size(m_points)
    if m_points > MAX_ENUMERATED_POINTS:
        raise ValueError(f"enumeration walks C(M, M/2) patterns and supports "
                         f"M <= {MAX_ENUMERATED_POINTS}, got {m_points}")


def class_count_closed_form(m_points: int) -> int:
    """Number of classes: (C(M,M/2) + C(M/2,M/4) + 2^(M/2)) / 4."""
    _check_class_size(m_points)
    half = int(m_points) // 2
    return (comb(m_points, half) + comb(half, half // 2) + (1 << half)) // 4


def enumerate_classes(m_points: int) -> list[PatternClass]:
    """Partition all balanced patterns into equivalence classes.

    Classes are sorted best to worst at high SNR, i.e. ascending
    lexicographically by coefficient vector.  Distinct classes are
    expected to have distinct coefficient vectors; a warning is emitted
    if that ever fails for some M.
    """
    _check_enumerable(m_points)
    m_points = int(m_points)  # a narrow numpy integer would wrap 1 << M
    words = np.fromiter(pattern_indices(m_points), np.int64,
                        count=comb(m_points, m_points // 2))
    flipped = reflect_index(words, m_points)
    inverted = invert_index(words, m_points)
    orbits = np.sort(np.stack(
        [words, flipped, inverted, invert_index(flipped, m_points)], axis=1), axis=1)
    # Every member meets its orbit; only the smallest one keeps it.
    rep = orbits[:, 0] == words
    words, flipped, inverted, orbits = words[rep], flipped[rep], inverted[rep], orbits[rep]
    symmetry = np.where(flipped == words, 0, np.where(flipped == inverted, 1, 2))
    bits = (words[:, None] >> np.arange(m_points - 1, -1, -1)) & 1
    weights = pattern_weights(bits)
    order = np.lexsort(weights.T[::-1])  # stable: ties keep ascending representatives
    weights = weights[order]
    if np.any(np.all(weights[1:] == weights[:-1], axis=1)):
        warnings.warn(
            f"distinct classes share a coefficient vector for M={m_points}",
            stacklevel=2,
        )
    names = (RE, ARE, ASY)
    # A symmetric orbit sorts as [a, a, b, b]; its members are every other entry.
    return [
        PatternClass(
            representative=BitPattern(tuple(row)),
            members=tuple(orbit[:: 1 if kind == 2 else 2]),
            symmetry=names[kind],
            coefficients=tuple(coeffs),
        )
        for row, orbit, kind, coeffs in zip(
            bits[order].tolist(), orbits[order].tolist(),
            symmetry[order].tolist(), weights.tolist())
    ]
