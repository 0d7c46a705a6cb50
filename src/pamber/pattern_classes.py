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

Enumeration works on uint32 arrays of bitmasks: it takes the balanced
masks from one popcount filter over a range of words, reflects them
through a 256-entry byte table, inverts them, and keeps the masks that
are the smallest of their four-mask orbit.  The weight vectors come from
the aperiodic autocorrelation of the sign sequence, one popcount per
lag (:func:`_mask_weights`); :func:`pattern_weights` computes the same
vectors from bit rows and is the independent form.  The result is a
:class:`ClassTable`, which holds the orbits, symmetry codes and weights
as arrays and builds a :class:`PatternClass`, and its
:class:`~pamber.constellation.BitPattern`, only when one is read.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from math import comb
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constellation import (
    BitPattern, Labeling, _is_integer, _readonly, pattern_from_index,
)

_SYMMETRIES = ("RE", "ARE", "ASY")


def _symmetry(index, m_points: int):
    """0, 1 or 2 (RE, ARE, ASY) for a mask, or for each entry of an int64 array."""
    flipped = reflect_index(index, m_points)
    return np.where(flipped == index, 0, np.where(flipped == invert_index(index, m_points), 1, 2))


# Entry b is the byte b with its eight bits in reverse order.
_REVERSED_BYTE = np.packbits(
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1), axis=1, bitorder="little"
).ravel()


def reflect_index(index: int, m_points: int) -> int:
    """Bit-reversal of an M-bit pattern index, or of each entry of an integer array.

    The low byte is reversed first and ends up on top; the pad bits above
    bit M-1 of the last byte land below bit 0 and are shifted out.
    """
    array = isinstance(index, np.ndarray)
    out = np.zeros_like(index) if array else 0
    for shift in range(0, m_points, 8):
        byte = _REVERSED_BYTE[(index >> shift) & 0xFF]
        out = (out << 8) | (byte if array else int(byte))
    return out >> (-m_points % 8)


def invert_index(index: int, m_points: int) -> int:
    """Complement of an M-bit pattern index, or of each entry of an int64 array."""
    return index ^ ((1 << m_points) - 1)


def _masks_of_weight(n_bits: int, weight: int) -> np.ndarray:
    """Every n-bit mask with ``weight`` ones, ascending, as uint32: one popcount filter."""
    words = np.arange(1 << n_bits, dtype=np.uint32)
    return words[np.bitwise_count(words) == weight]


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


def _mask_weights(masks: np.ndarray, m_points: int) -> np.ndarray:
    """Weight vectors of an array of M-bit masks, one popcount per lag.

    With the signs ``s_i = 1 - 2*p_i`` and their aperiodic
    autocorrelation ``R(k) = sum_i s_i*s_{i+k}``, the bilinear form of
    :func:`pattern_weights` is, at lag ``a = 0..M-2``,

        w[a] = R(a) - R(a+1) - (s_0*s_a + s_{M-1}*s_{M-1-a}) / 2.

    On a mask ``R(k) = (M-k) - 2*c(k)``, where
    ``c(k) = popcount((w ^ (w >> k)) & (2^(M-k) - 1))`` counts the bit
    pairs k apart that differ, and each end product is 1 - 2*[its two
    bits differ].  So ``w[a] = 2*(c(a+1) - c(a)) + e_0(a) + e_1(a)``, with
    ``e`` the two end-pair differences, and no bit matrix is built.  Row
    n of the int16 result is the weight vector of ``masks[n]``.
    """
    full = (1 << m_points) - 1
    top = masks >> (m_points - 1)
    out = np.empty((m_points - 1, masks.size), dtype=np.int16)
    before = 0
    for lag in range(m_points - 1):
        after = np.bitwise_count((masks ^ (masks >> (lag + 1))) & (full >> (lag + 1)))
        after = after.astype(np.int16)
        ends = ((top ^ (masks >> (m_points - 1 - lag))) & 1) + ((masks ^ (masks >> lag)) & 1)
        out[lag] = 2 * (after - before) + ends
        before = after
    return out.T


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


@dataclass(frozen=True)
class PatternClass:
    """One equivalence class under reflection and inversion.

    ``members`` holds the member masks in ascending order; the
    coefficient vector is shared by all members.
    """

    members: tuple[int, ...]
    symmetry: str
    coefficients: tuple[int, ...]

    @property
    def representative(self) -> BitPattern:
        """The member with the smallest index, built on each access."""
        return pattern_from_index(len(self.coefficients) + 1, self.members[0])


def _class_fields(orbit: list[int], kind: int, weights: list[int]) -> tuple:
    """(members, symmetry, coefficients) of one class from its table row."""
    # A symmetric orbit sorts as [a, a, b, b]; its members are every other entry.
    return tuple(orbit[:: 1 if kind == 2 else 2]), _SYMMETRIES[kind], tuple(weights)


# Classes per block of ClassTable.rows(), which turns one block at a time
# into Python lists: at M = 24 the lists of the whole table took 0.34 GB
# of peak memory, and those of a block take about 8 MB.
_ROWS_BLOCK = 1 << 14


class ClassTable(Sequence):
    """The pattern classes of one M, best to worst, held as arrays.

    A sequence of :class:`PatternClass`: ``len``, indexing, slicing and
    iteration work as on a list, and each class is built only when it is
    read.  ``==`` compares with another table, or with a list or tuple of
    classes.  The read-only arrays have one row per class:

    * ``orbits``: uint32, the four orbit masks ascending; a symmetric
      class lists each of its two members twice;
    * ``symmetry``: uint8 codes 0, 1, 2 for RE, ARE, ASY;
    * ``weights``: int16, the weight vector, M-1 entries.
    """

    def __init__(self, orbits: np.ndarray, symmetry: np.ndarray, weights: np.ndarray):
        self.orbits = _readonly(orbits)
        self.symmetry = _readonly(symmetry)
        self.weights = _readonly(weights)

    def rows(self) -> Iterator[tuple]:
        """(members, symmetry, coefficients) of each class, without building a PatternClass."""
        for lo in range(0, len(self), _ROWS_BLOCK):
            block = slice(lo, lo + _ROWS_BLOCK)
            yield from map(_class_fields, self.orbits[block].tolist(),
                           self.symmetry[block].tolist(), self.weights[block].tolist())

    def __len__(self) -> int:
        return len(self.symmetry)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ClassTable(self.orbits[index], self.symmetry[index], self.weights[index])
        return PatternClass(*_class_fields(self.orbits[index].tolist(),
                                           int(self.symmetry[index]),
                                           self.weights[index].tolist()))

    def __iter__(self) -> Iterator[PatternClass]:
        return (PatternClass(*fields) for fields in self.rows())

    def __eq__(self, other):
        if isinstance(other, ClassTable):
            return all(np.array_equal(a, b) for a, b in (
                (self.orbits, other.orbits), (self.symmetry, other.symmetry),
                (self.weights, other.weights)))
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"ClassTable(M={self.weights.shape[1] + 1}, {len(self)} classes)"


#: Largest M the enumerating functions accept.  M = 24 (677,294 classes)
#: takes about 0.8 s and 0.15 GB at peak on a 2-core Xeon; its popcount
#: filter runs over 2^23 uint32 words, 32 MB.  M = 28 would filter 2^27
#: words (512 MB) and hold 10 million classes.
MAX_ENUMERATED_POINTS = 24


def _check_class_size(m_points: int) -> None:
    if not _is_integer(m_points) or m_points < 4 or m_points % 4 != 0:
        raise ValueError(f"M must be a positive multiple of 4, got {m_points}")


def _check_enumerable(m_points: int) -> None:
    _check_class_size(m_points)
    if m_points > MAX_ENUMERATED_POINTS:
        raise ValueError(f"enumeration holds all C(M, M/2) patterns and supports "
                         f"M <= {MAX_ENUMERATED_POINTS}, got {m_points}")


def class_count_closed_form(m_points: int) -> int:
    """Number of classes: (C(M,M/2) + C(M/2,M/4) + 2^(M/2)) / 4."""
    _check_class_size(m_points)
    half = int(m_points) // 2
    return (comb(m_points, half) + comb(half, half // 2) + (1 << half)) // 4


def enumerate_classes(m_points: int) -> ClassTable:
    """Partition all balanced patterns into equivalence classes.

    Classes are sorted best to worst at high SNR, i.e. ascending
    lexicographically by coefficient vector, ties by representative.
    Distinct classes are expected to have distinct coefficient vectors; a
    warning is emitted if that ever fails for some M.
    """
    _check_enumerable(m_points)
    m_points = int(m_points)  # a narrow numpy integer would wrap 1 << M
    # An orbit's smallest member is below its own inversion: its top bit is 0.
    words = _masks_of_weight(m_points - 1, m_points // 2)
    flipped = reflect_index(words, m_points)
    # Every member meets its orbit; only the smallest one keeps it.
    rep = (words <= flipped) & (words <= invert_index(flipped, m_points))
    words, flipped = words[rep], flipped[rep]
    orbits = np.sort(np.stack([words, flipped, invert_index(words, m_points),
                               invert_index(flipped, m_points)], axis=1), axis=1)
    weights = _mask_weights(words, m_points)
    order = np.lexsort(weights.T[::-1])  # stable: ties keep ascending representatives
    weights = weights[order]
    if np.any(np.all(weights[1:] == weights[:-1], axis=1)):
        warnings.warn(
            f"distinct classes share a coefficient vector for M={m_points}",
            stacklevel=2,
        )
    symmetry = _symmetry(words[order], m_points).astype(np.uint8)
    return ClassTable(orbits[order], symmetry, weights)
