"""Census of binary labelings by their error-rate curve.

A labeling is, up to column order, a set of m = log2(M) balanced
patterns whose column stack has pairwise distinct rows.  Its BER curve
over equally spaced PAM is fixed by the integer weight vector summed over
the column patterns; counting distinct weight vectors counts labelings
with genuinely different BER.

Exhaustive enumeration is practical for M in {2, 4, 8} (C(70,3) = 54740
candidate sets for M = 8).  The census works on integer pattern indices:
it keeps the bijective candidate sets, sums rows of a table holding the
weight vector of each of the C(M, M/2) patterns, groups equal sums, and
builds a :class:`~pamber.constellation.Labeling` only for one witness per
class.  For larger M a seeded sampler is provided and is explicitly
non-exhaustive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import pattern_classes
from .constellation import Labeling, _is_integer, _label_bits, pattern_from_index
from .pattern_classes import _check_enumerable, pattern_indices

_EXHAUSTIVE_SIZES = (2, 4, 8)


def is_bijective_set(m_points: int, indices: Sequence[int]) -> bool:
    """True when stacking the patterns as columns yields M distinct rows.

    The rows are kept as M-bit masks of cells, rows whose labels agree on
    the columns so far; each column splits every cell into its rows with
    a 1 and its rows with a 0.  The labels are distinct exactly when M
    non-empty cells remain.

    Raises:
        ValueError: unless M is a positive integer (see ``_is_integer``).
    """
    if type(m_points) is not int or m_points < 1:  # the census's plain ints pass here
        if not _is_integer(m_points) or m_points < 1:
            raise ValueError(f"M must be a positive integer, got {m_points!r}")
        m_points = int(m_points)  # 1 << M would wrap in a narrow numpy integer
    cells = [(1 << m_points) - 1]
    for w in indices:
        split = []
        for cell in cells:
            ones = cell & w
            zeros = cell ^ ones
            if ones:
                split.append(ones)
            if zeros:
                split.append(zeros)
        cells = split
    return len(cells) == m_points


def _bijective_sets(m_points: int) -> list[tuple[int, ...]]:
    """Pattern-index sets of every labeling, in ascending combination order."""
    n_bits = _label_bits(m_points)
    if m_points not in _EXHAUSTIVE_SIZES:
        raise ValueError(
            f"exhaustive enumeration supports M in {_EXHAUSTIVE_SIZES}, got {m_points}"
        )
    m_points = 1 << n_bits  # 1 << M would wrap in a narrow numpy integer
    return [
        combo
        for combo in itertools.combinations(pattern_indices(m_points), n_bits)
        if is_bijective_set(m_points, combo)
    ]


def enumerate_labelings(m_points: int) -> Iterator[Labeling]:
    """Every labeling of M points, one per unordered pattern set.

    Column order within a yielded labeling follows ascending pattern
    index; the BER does not depend on it.
    """
    for combo in _bijective_sets(m_points):
        yield Labeling.from_indices(m_points, combo)


def sample_labelings(
    m_points: int, count: int, seed: int
) -> list[Labeling]:
    """Random labelings for sizes too large to enumerate; NOT exhaustive."""
    n_bits = _label_bits(m_points, least=4)
    _check_enumerable(m_points)  # the pool holds every pattern
    m_points = 1 << n_bits
    pool = np.fromiter(pattern_indices(m_points), dtype=np.int64)
    rng = np.random.default_rng(seed)
    out: list[Labeling] = []
    while len(out) < count:
        combo = sorted(rng.choice(pool, size=n_bits, replace=False).tolist())
        if is_bijective_set(m_points, combo):
            out.append(Labeling.from_indices(m_points, combo))
    return out


@dataclass(frozen=True, eq=False)
class LabelingClass:
    """All labelings sharing one weight vector, hence one BER curve."""

    alpha: tuple[int, ...]
    witness: Labeling
    population: int


def labeling_census(m_points: int) -> list[LabelingClass]:
    """Group every labeling by weight vector, best to worst at high SNR.

    Classes come in ascending lexicographic order of weight vectors.  The
    witness of each class is its first set in ascending pattern-index
    (combination) order, so the census is deterministic.
    """
    sets = np.array(_bijective_sets(m_points), dtype=np.int64)
    pool = np.fromiter(pattern_indices(m_points), dtype=np.int64)
    table = np.array([
        pattern_classes.pattern_coefficients(pattern_from_index(m_points, int(w)))
        for w in pool
    ])
    alphas = table[np.searchsorted(pool, sets)].sum(axis=1)
    unique, first, population = np.unique(
        alphas, axis=0, return_index=True, return_counts=True
    )
    return [
        LabelingClass(
            alpha=tuple(alpha),
            witness=Labeling.from_indices(m_points, sets[i].tolist()),
            population=int(count),
        )
        for alpha, i, count in zip(unique.tolist(), first, population)
    ]
