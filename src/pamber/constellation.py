"""One-dimensional constellations, bit patterns, and binary labelings.

Conventions used throughout the package:

* Constellation points are sorted strictly ascending and kept at full
  double precision.
* A bit pattern is a length-M binary vector of Hamming weight M/2.  Its
  decimal index reads the vector as a big-endian binary number over the
  constellation positions (leftmost bit belongs to the lowest point), so
  for M = 4 the vector [0, 1, 0, 1] has index 5.
* A labeling assigns a distinct m-bit label to each of the M = 2^m
  points.  Bit position j (1-based) is column j of the M-by-m label
  matrix; every column of a bijective labeling is a valid bit pattern.
  :func:`is_bijective_set` is the one distinct-label rule, on column indices.

All types are immutable after construction and safe to share.  Every
public function that takes a pattern or a labeling checks it with ``_checked``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

#: Every name :func:`named_labeling` knows, in the order ``pamber labelings``
#: tries them: the first name whose weight vector matches a class labels it.
LABELING_NAMES = ("BRGC", "NBC", "FBC", "BSGC", "AG")

# Pattern-index sets for named labelings that are only defined here for
# specific sizes (column order is the conventional one).
_FIXED_LABELINGS = {
    ("AG", 4): (5, 6),
    ("FBC", 8): (15, 60, 90),
    ("BSGC", 8): (105, 60, 102),
    ("AG", 8): (90, 105, 85),
}


def _is_integer(value) -> bool:
    """True for an int or a numpy integer; a bool or a float is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _even_size(m_points: int) -> int:
    """int(M), for an even integer M >= 2; M*M or 1 << M would wrap in a narrow numpy M."""
    if not _is_integer(m_points) or m_points < 2 or m_points % 2 != 0:
        raise ValueError(f"M must be an even integer >= 2, got {m_points}")
    return int(m_points)


def _label_bits(m_points: int) -> int:
    """Bits per label m = log2(M), after checking M is a power of two >= 2."""
    if not _is_integer(m_points) or m_points < 2 or m_points & (m_points - 1):
        raise ValueError(f"M must be a power of two >= 2, got {m_points}")
    return int(m_points).bit_length() - 1


def is_bijective_set(m_points: int, indices: Sequence[int]) -> bool:
    """True when stacking the patterns as columns yields M distinct rows.

    The rows are kept as M-bit masks of cells, rows whose labels agree on
    the columns so far; each column splits every cell into its rows with
    a 1 and its rows with a 0.  The labels are distinct exactly when M
    non-empty cells remain.  The cells of all columns but the last come
    from :func:`_prefix_cells`, which keeps those of the last prefix it
    was asked for: the census asks for its sets grouped by prefix, so
    each prefix is split once and each set splits only its last column.
    Column indices are integers (``operator.index``): numpy integers
    answer as the equal ints.

    Raises:
        ValueError: unless M is a positive integer (see ``_is_integer``).
    """
    if type(m_points) is not int or m_points < 1:  # the census's plain ints pass here
        if not _is_integer(m_points) or m_points < 1:
            raise ValueError(f"M must be a positive integer, got {m_points!r}")
        m_points = int(m_points)  # 1 << M would wrap in a narrow numpy integer
    if type(indices) is not tuple or not indices:  # the census's tuples pass here
        indices = tuple(indices)
        if not indices:
            return m_points == 1  # one cell, every row
    cells = _prefix_cells(m_points, indices[:-1])
    w = indices[-1]
    if type(w) is not int:
        w = operator.index(w)  # a narrow numpy integer would overflow in cell & w
    # Each cell the last column splits adds one, so M cells remain exactly
    # when it leaves this many of the k cells whole: k - (M - k).
    whole = 2 * len(cells) - m_points
    for cell in cells:
        if not 0 != cell & w != cell:
            whole -= 1
            if whole < 0:
                return False
    return whole == 0


@functools.lru_cache(maxsize=1)
def _prefix_cells(m_points: int, prefix: tuple) -> tuple[int, ...]:
    """The non-empty cells of M rows after splitting by each column of ``prefix``."""
    cells = [(1 << m_points) - 1]
    for w in map(operator.index, prefix):
        split = []
        for cell in cells:
            ones = cell & w
            zeros = cell ^ ones
            if ones:
                split.append(ones)
            if zeros:
                split.append(zeros)
        cells = split
    return tuple(cells)


def _check_weight(m_points: int, weight: int) -> None:
    """The weight rule of a pattern of length M: M/2 ones."""
    if weight != m_points // 2:
        raise ValueError(
            f"pattern of length {m_points} must have weight {m_points // 2}, got {weight}")


def _bit_rows(codes, width: int) -> np.ndarray:
    """Big-endian bits of each code: bit k of a code lands in column width-1-k."""
    codes = np.asarray(codes, dtype=object if width > 63 else np.int64)  # as _pack_rows packs
    return (codes[..., None] >> np.arange(width - 1, -1, -1)) & 1


def _pack_rows(bits) -> np.ndarray:
    """Inverse of :func:`_bit_rows`: each row of 0/1 bits read big-endian.

    Rows wider than 63 bits give Python ints in an object array, so codes
    stay exact past int64.
    """
    bits = np.asarray(bits)
    width = bits.shape[-1]
    place = np.array([1 << k for k in range(width - 1, -1, -1)],
                     dtype=object if width > 63 else np.int64)
    return bits @ place


def pam_spacing(m_points: int) -> float:
    """Half the distance between adjacent points of unit-energy M-PAM.

    Raises:
        ValueError: if M is not an integer, is odd or is smaller than 2, or
            if M*M passes the float range.
    """
    m_points = _even_size(m_points)
    try:
        return math.sqrt(3.0 / (m_points * m_points - 1.0))
    except OverflowError:  # M*M past the float range
        raise ValueError(f"M must be an even integer >= 2, got {m_points}, "
                         "whose square passes the float range") from None


def _real(values, name: str) -> np.ndarray:
    """``values`` as a float array, checked not complex (a cast to float drops the
    imaginary part) and, for an int past the float range, ``{name} must be finite``."""
    arr = np.asarray(values)
    if arr.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got {arr.dtype}")
    try:
        return arr.astype(float, copy=False)
    except OverflowError:  # a Python int in an object array
        raise ValueError(f"{name} must be finite") from None


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _derived(obj, build):
    """``build(obj)``, built on the first call and kept on ``obj`` itself.

    For read-only data that depends on one target alone, such as a
    labeling's bit rows, which the closed forms reuse at every SNR.  The
    value sits in the object's own ``__dict__``, keyed by ``build``: it
    lives as long as the object, and an object built later never finds it
    under a reused id or an equal value.
    """
    cache = vars(obj).setdefault("_derived", {})
    try:
        return cache[build]
    except KeyError:
        value = cache[build] = build(obj)
        return value


@dataclass(frozen=True, eq=False)
class Constellation:
    """Ordered real amplitudes and the geometry derived from them once.

    Attributes:
        points: strictly increasing float64 array of the M amplitudes.
        dmin: the smallest gap between adjacent points.
    """

    points: np.ndarray
    dmin: float = field(init=False)
    _midpoints: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pts = _readonly(np.array(_real(self.points, "points")))
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("need a 1-D array of at least two points")
        if pts.size % 2 != 0:
            raise ValueError(f"number of points must be even, got {pts.size}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        with np.errstate(over="ignore"):  # an overflow is rejected just below
            gaps = np.diff(pts)
            mids = 0.5 * (pts[:-1] + pts[1:])
        if not np.all(gaps > 0):
            raise ValueError("points must be strictly increasing")
        if not (np.all(np.isfinite(gaps)) and np.all(np.isfinite(mids))):
            raise ValueError("gaps and midpoints between points must be finite")
        object.__setattr__(self, "dmin", float(gaps.min()))
        object.__setattr__(self, "_midpoints", _readonly(mids))

    @property
    def size(self) -> int:
        """Number of points M."""
        return len(self.points)

    def midpoints(self) -> np.ndarray:
        """The M-1 midpoints between adjacent points, a read-only array."""
        return self._midpoints


def make_pam(m_points: int) -> Constellation:
    """Equally spaced M-PAM normalized to unit average symbol energy.

    The points are ``-d*(M-1), -d*(M-3), ..., d*(M-1)`` with
    ``d = sqrt(3/(M^2-1))``, which makes ``mean(points**2) == 1``.

    Raises:
        ValueError: if M is not an integer, is odd or is smaller than 2.
    """
    d = pam_spacing(m_points)
    m_points = int(m_points)
    pts = np.array([-d * (m_points - 2 * i + 1) for i in range(1, m_points + 1)])
    return Constellation(points=pts)


@dataclass(frozen=True)
class BitPattern:
    """Length-M binary vector of Hamming weight M/2 with its decimal index."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        bits = tuple(self.bits)
        m = len(bits)
        if m < 2 or m % 2 != 0:
            raise ValueError(f"pattern length must be even and >= 2, got {m}")
        # An entry passes only if int() maps it to an equal 0 or 1, so 1.5
        # (which int() would truncate), NaN and "1" are rejected.
        try:
            ints = tuple(map(int, bits))
        except (TypeError, ValueError, OverflowError):
            ints = None
        if ints != bits or not {0, 1}.issuperset(ints):
            raise ValueError("pattern entries must be 0 or 1")
        object.__setattr__(self, "bits", ints)
        _check_weight(m, sum(ints))

    @property
    def size(self) -> int:
        return len(self.bits)

    @property
    def index(self) -> int:
        """Decimal index: bits read as a big-endian binary number."""
        w = 0
        for b in self.bits:
            w = (w << 1) | b
        return w

    def as_array(self) -> np.ndarray:
        return np.array(self.bits, dtype=np.int8)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def pattern_from_index(m_points: int, index: int) -> BitPattern:
    """Build the pattern whose big-endian binary expansion equals ``index``.

    Raises:
        ValueError: if M is not an even integer >= 2, ``index`` is not an
            integer, or the expansion does not fit in M bits or its
            Hamming weight differs from M/2.
    """
    m_points = _even_size(m_points)
    index = _pattern_index(m_points, index)
    bits = tuple((index >> (m_points - i)) & 1 for i in range(1, m_points + 1))
    return BitPattern(bits)


def _pattern_index(m_points: int, index) -> int:
    """int(index), after checking it indexes a pattern of the even int M."""
    if not _is_integer(index):
        raise ValueError(f"index must be an integer, got {index!r}")
    index = int(index)
    if not 0 <= index < (1 << m_points):
        raise ValueError(f"index {index} out of range for M={m_points}")
    _check_weight(m_points, index.bit_count())
    return index


@dataclass(frozen=True, eq=False)
class Labeling:
    """Binary labeling of M = 2^m points, stored as an M-by-m bit matrix.

    Row i is the label of point i (0-based); rows are pairwise distinct so
    the label-to-point map is a bijection.  Column j-1 is the bit pattern
    governing bit position j.
    """

    matrix: np.ndarray
    pattern_set: frozenset[int] = field(init=False)

    def __post_init__(self) -> None:
        raw = np.asarray(self.matrix)
        if raw.ndim != 2:
            raise ValueError("labeling matrix must be 2-D")
        m_points, n_bits = raw.shape
        if n_bits < 1:
            raise ValueError("labeling matrix needs at least one bit column")
        if m_points != 1 << n_bits:
            raise ValueError(
                f"matrix is {m_points}x{n_bits}; need 2^{n_bits} = {1 << n_bits} rows"
            )
        if not np.all((raw == 0) | (raw == 1)):  # before the cast, which truncates 0.4
            raise ValueError("labeling matrix entries must be 0 or 1")
        mat = _readonly(raw.astype(np.int8))
        object.__setattr__(self, "matrix", mat)
        columns = _pack_rows(mat.T).tolist()
        if not is_bijective_set(m_points, columns):
            raise ValueError("labeling rows must be pairwise distinct (bijection)")
        # Distinct rows are every m-bit label once: each column has weight M/2.
        object.__setattr__(self, "pattern_set", frozenset(columns))

    @property
    def size(self) -> int:
        """Number of labeled points M."""
        return len(self.matrix)

    @property
    def n_bits(self) -> int:
        """Bits per label m = log2(M)."""
        return int(self.matrix.shape[1])

    @classmethod
    def from_indices(cls, m_points: int, indices: Iterable[int]) -> "Labeling":
        """Stack the patterns of ``indices`` as columns, in the order given.

        Raises:
            ValueError: as :func:`pattern_from_index` does for a bad M or
                index, or as the constructor does for the stacked matrix.
        """
        m_points = _even_size(m_points)
        codes = [_pattern_index(m_points, w) for w in indices]
        return cls(np.ascontiguousarray(_bit_rows(codes, m_points).T))


_TARGETS = (Labeling, BitPattern)  # a labeling, or a pattern as one column


def _checked(target, kinds: tuple[type, ...], constellation: Constellation | None = None):
    """``target``, after checking that it is one of ``kinds`` and, given a
    constellation, of its size: the one target check of every public entry."""
    if not isinstance(target, kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise TypeError(f"target must be a {names}, got {type(target)!r}")
    if constellation is not None and target.size != constellation.size:
        raise ValueError("target and constellation sizes differ")
    return target


def named_labeling(name: str, m_points: int) -> Labeling:
    """Standard labeling by name: BRGC, NBC, FBC, BSGC, or AG.

    BRGC (binary reflected Gray code) and NBC (natural binary code) are
    constructed for any power-of-two M.  FBC, BSGC, and AG come from fixed
    pattern-index sets and are available for M = 8 (AG also for M = 4).

    Raises:
        ValueError: unknown name, M not a power of two, or a name/size
            combination with no definition here.
    """
    n_bits = _label_bits(m_points)
    m_points = 1 << n_bits
    key = name.strip().upper() if isinstance(name, str) else None  # None is unknown below
    if key in ("BRGC", "NBC"):  # point i gets code i, or its Gray code i ^ (i >> 1)
        codes = np.arange(m_points)
        if key == "BRGC":
            codes ^= codes >> 1
        return Labeling(_bit_rows(codes, n_bits))
    try:
        indices = _FIXED_LABELINGS[(key, m_points)]
    except KeyError:
        if key not in LABELING_NAMES:
            raise ValueError(f"unknown labeling name {name!r}") from None
        raise ValueError(f"labeling {key} is not defined for M={m_points}") from None
    return Labeling.from_indices(m_points, indices)

