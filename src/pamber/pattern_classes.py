"""Enumeration of bit patterns and their error-rate equivalence classes.

Reflecting a pattern (reversing it end to end) or inverting it (flipping
every bit) leaves its PBER over a symmetric constellation unchanged, so
patterns group into classes of size 2 or 4 under the two operations.  A
pattern can never equal its own inversion; it may equal its reflection
(RE), its inverted reflection (ARE), or neither (ASY).

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

from .analytic import pattern_weights
from .constellation import BitPattern, pattern_from_index

RE = "RE"
ARE = "ARE"
ASY = "ASY"


def reflect(pattern: BitPattern) -> BitPattern:
    """Pattern read back to front."""
    return BitPattern(pattern.bits[::-1])


def invert(pattern: BitPattern) -> BitPattern:
    """Pattern with every bit flipped."""
    return BitPattern(tuple(1 - b for b in pattern.bits))


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
    """
    if m_points < 2 or m_points % 2 != 0:
        raise ValueError(f"M must be an even integer >= 2, got {m_points}")
    if m_points > 62:
        raise ValueError("bitmask enumeration supports M <= 62")
    word = (1 << (m_points // 2)) - 1
    top = 1 << m_points
    while word < top:
        yield word
        low = word & -word
        ripple = word + low
        word = (((ripple ^ word) >> 2) // low) | ripple


def iter_patterns(m_points: int) -> Iterator[BitPattern]:
    """All balanced patterns of length M, ascending by index."""
    for w in pattern_indices(m_points):
        yield pattern_from_index(m_points, w)


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


def class_count_closed_form(m_points: int) -> int:
    """Number of classes: (C(M,M/2) + C(M/2,M/4) + 2^(M/2)) / 4."""
    if m_points % 4 != 0:
        raise ValueError(f"class counting needs M divisible by 4, got {m_points}")
    half = m_points // 2
    return (comb(m_points, half) + comb(half, half // 2) + (1 << half)) // 4


def enumerate_classes(m_points: int) -> list[PatternClass]:
    """Partition all balanced patterns into equivalence classes.

    Classes are sorted best to worst at high SNR, i.e. ascending
    lexicographically by coefficient vector.  Distinct classes are
    expected to have distinct coefficient vectors; a warning is emitted
    if that ever fails for some M.
    """
    if m_points % 4 != 0:
        raise ValueError(f"class enumeration needs M divisible by 4, got {m_points}")
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


def distinct_a1_count(m_points: int) -> int:
    """Number of distinct leading coefficients over all patterns.

    Equals M-1 for equally spaced PAM: the leading coefficient is twice
    the count of adjacent bit disagreements, which ranges over 1..M-1.
    """
    if m_points % 4 != 0:
        raise ValueError(f"grouping count needs M divisible by 4, got {m_points}")
    firsts = set()
    for w in pattern_indices(m_points):
        # adjacent disagreements of the mask, doubled
        transitions = bin((w ^ (w >> 1)) & ((1 << (m_points - 1)) - 1)).count("1")
        firsts.add(2 * transitions)
    return len(firsts)
