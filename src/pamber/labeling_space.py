"""Census of binary labelings by their error-rate curve.

A labeling is, up to column order, a set of m = log2(M) balanced
patterns whose column stack has pairwise distinct rows.  Its BER curve
over equally spaced PAM is fixed by the integer weight vector summed over
the column patterns; counting distinct weight vectors counts labelings
with genuinely different BER.

Exhaustive enumeration is practical for M in {2, 4, 8}.  The census
works on integer pattern indices from one pool, the C(M, M/2) balanced
masks in ascending order that ``pattern_classes._masks_of_weight``
filters by popcount.  It walks column prefixes depth first and prunes
every prefix that does not split the points into equal cells, so of the
C(70,3) = 54,740 3-sets for M = 8 only the 28,263 whose first two
columns pass reach the full bijectivity test, and 6,720 are kept.  It
sums the pool's weight vectors over each set, groups equal sums with one
stable lexicographic sort, and keeps the pattern indices of one witness
per class; its :class:`~pamber.constellation.Labeling` is built when it
is read.  For larger M a seeded sampler is provided and is explicitly
non-exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import pattern_classes
from .constellation import Labeling, _is_integer, _label_bits, pattern_from_index
from .pattern_classes import _check_enumerable, _masks_of_weight

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
    """Pattern-index sets of every labeling, in ascending combination order.

    A depth-first walk over column prefixes in ascending index order.
    Distinct labels are every m-bit label once, so the first k columns
    must split the M rows into 2^k cells of M/2^k rows each; a prefix
    that fails this has no bijective completion and is pruned.  Every
    m-column set whose prefixes pass goes to :func:`is_bijective_set`.
    """
    n_bits = _label_bits(m_points)
    if m_points not in _EXHAUSTIVE_SIZES:
        raise ValueError(
            f"exhaustive enumeration supports M in {_EXHAUSTIVE_SIZES}, got {m_points}"
        )
    m_points = 1 << n_bits  # 1 << M would wrap in a narrow numpy integer
    pool = _masks_of_weight(m_points, m_points // 2).tolist()
    sets: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], cells: list[int], start: int) -> None:
        if len(prefix) == n_bits - 1:
            for w in pool[start:]:
                combo = prefix + (w,)
                if is_bijective_set(m_points, combo):
                    sets.append(combo)
            return
        rows = m_points >> (len(prefix) + 1)  # rows per cell after one more column
        for i in range(start, len(pool)):
            w = pool[i]
            split = [part for cell in cells for part in (cell & w, cell & ~w)]
            if all(part.bit_count() == rows for part in split):
                extend(prefix + (w,), split, i + 1)

    extend((), [(1 << m_points) - 1], 0)
    return sets


def sample_labelings(
    m_points: int, count: int, seed: int
) -> list[Labeling]:
    """Random labelings for sizes too large to enumerate; NOT exhaustive.

    Raises:
        ValueError: unless M is a power of two the pool can hold, and
            ``count`` and ``seed`` are non-negative integers.
    """
    n_bits = _label_bits(m_points, least=4)
    _check_enumerable(m_points)  # the pool holds every pattern
    for name, value in (("count", count), ("seed", seed)):
        if not _is_integer(value) or value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    m_points = 1 << n_bits
    pool = _masks_of_weight(m_points, m_points // 2)
    rng = np.random.default_rng(seed)
    out: list[Labeling] = []
    while len(out) < count:
        combo = sorted(rng.choice(pool, size=n_bits, replace=False).tolist())
        if is_bijective_set(m_points, combo):
            out.append(Labeling.from_indices(m_points, combo))
    return out


@dataclass(frozen=True, eq=False)
class LabelingClass:
    """All labelings sharing one weight vector, hence one BER curve.

    ``witness_indices`` are the ascending pattern indices of the class's
    first labeling in combination order.
    """

    alpha: tuple[int, ...]
    witness_indices: tuple[int, ...]
    population: int

    @property
    def witness(self) -> Labeling:
        """The witness labeling, columns in ``witness_indices`` order, built on each access."""
        return Labeling.from_indices(len(self.alpha) + 1, self.witness_indices)


def labeling_census(m_points: int) -> list[LabelingClass]:
    """Group every labeling by weight vector, best to worst at high SNR.

    Classes come in ascending lexicographic order of weight vectors.  The
    witness of each class is its first set in ascending pattern-index
    (combination) order, so the census is deterministic.
    """
    sets = np.array(_bijective_sets(m_points), dtype=np.int64)
    pool = _masks_of_weight(int(m_points), m_points // 2).astype(np.int64)
    table = np.array([
        pattern_classes.pattern_coefficients(pattern_from_index(m_points, int(w)))
        for w in pool
    ])
    alphas = table[np.searchsorted(pool, sets)].sum(axis=1)
    # A stable sort keyed on column 0 first: each run of equal rows starts
    # at its first set in combination order.
    order = np.lexsort(alphas.T[::-1])
    ranked = alphas[order]
    starts = np.flatnonzero(np.r_[True, np.any(ranked[1:] != ranked[:-1], axis=1)])
    population = np.diff(np.r_[starts, len(ranked)])
    return [
        LabelingClass(
            alpha=tuple(alpha),
            witness_indices=tuple(sets[i].tolist()),
            population=int(count),
        )
        for alpha, i, count in zip(ranked[starts].tolist(), order[starts], population)
    ]
