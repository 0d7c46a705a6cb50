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

Enumeration walks the orbits on integer bitmasks and computes the weight
vectors of all class representatives in one array pass; a
:class:`~pamber.constellation.BitPattern` is built only for each
representative, at the public surface.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb
from typing import Iterator

import numpy as np

from .constellation import BitPattern, Labeling, pattern_from_index

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
    """Bit-reversal of an M-bit pattern index."""
    out = 0
    for _ in range(m_points):
        out = (out << 1) | (index & 1)
        index >>= 1
    return out


def invert_index(index: int, m_points: int) -> int:
    """Complement of an M-bit pattern index."""
    return index ^ ((1 << m_points) - 1)


def pattern_indices(m_points: int) -> Iterator[int]:
    """All C(M, M/2) balanced pattern indices in increasing order.

    Gosper's hack walks the fixed-popcount masks ascending without
    touching the other 2^M - C(M, M/2) words.

    Raises:
        ValueError: at the call, unless M is even and 2 <= M <= 62.
    """
    if m_points < 2 or m_points % 2 != 0:
        raise ValueError(f"M must be an even integer >= 2, got {m_points}")
    if m_points > 62:
        raise ValueError("bitmask enumeration supports M <= 62")
    return _gosper(m_points)


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


#: Largest M the enumerating functions accept: C(20, 10) patterns take about
#: 2 s, and at M = 24 the class weight pass alone would gather 2.9 GB arrays.
MAX_ENUMERATED_POINTS = 20


def _check_class_size(m_points: int) -> None:
    if m_points < 4 or m_points % 4 != 0:
        raise ValueError(f"M must be a positive multiple of 4, got {m_points}")


def _check_enumerable(m_points: int) -> None:
    _check_class_size(m_points)
    if m_points > MAX_ENUMERATED_POINTS:
        raise ValueError(f"enumeration walks C(M, M/2) patterns and supports "
                         f"M <= {MAX_ENUMERATED_POINTS}, got {m_points}")


def class_count_closed_form(m_points: int) -> int:
    """Number of classes: (C(M,M/2) + C(M/2,M/4) + 2^(M/2)) / 4."""
    _check_class_size(m_points)
    half = m_points // 2
    return (comb(m_points, half) + comb(half, half // 2) + (1 << half)) // 4


def enumerate_classes(m_points: int) -> list[PatternClass]:
    """Partition all balanced patterns into equivalence classes.

    Classes are sorted best to worst at high SNR, i.e. ascending
    lexicographically by coefficient vector.  Distinct classes are
    expected to have distinct coefficient vectors; a warning is emitted
    if that ever fails for some M.
    """
    _check_enumerable(m_points)
    seen: set[int] = set()
    orbits: list[list[int]] = []
    for w in pattern_indices(m_points):
        if w in seen:
            continue
        r = reflect_index(w, m_points)
        orbit = sorted({w, r, invert_index(w, m_points), invert_index(r, m_points)})
        seen.update(orbit)
        orbits.append(orbit)
    reps = np.array([orbit[0] for orbit in orbits], dtype=np.int64)
    shifts = np.arange(m_points - 1, -1, -1)
    weights = pattern_weights((reps[:, None] >> shifts) & 1).tolist()
    classes = [
        PatternClass(
            representative=pattern_from_index(m_points, orbit[0]),
            members=tuple(orbit),
            symmetry=_symmetry(orbit[0], m_points),
            coefficients=tuple(coeffs),
        )
        for orbit, coeffs in zip(orbits, weights)
    ]
    classes.sort(key=lambda c: c.coefficients)
    if len({c.coefficients for c in classes}) != len(classes):
        warnings.warn(
            f"distinct classes share a coefficient vector for M={m_points}",
            stacklevel=2,
        )
    return classes

