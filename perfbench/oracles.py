"""Correctness oracles and reference-data formats for the benchmark.

Everything here is independent of pamber: the midpoint-rule BER is
recomputed with ``math.erfc`` from the pattern bits alone, and the
reference tables are compared as text.
"""

from __future__ import annotations

import gzip
import hashlib
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

ABD_RTOL = 1e-12      # oracle vs. library midpoint-rule BER
BD_SLACK = 1e-12      # BD <= ABD * (1 + BD_SLACK): BD is the per-bit MAP rule
BINOMIAL_Z = 5.0      # half-width of the Monte-Carlo interval, in binomial sigmas


def pam_points(m_points: int) -> list[float]:
    d = math.sqrt(3.0 / (m_points * m_points - 1.0))
    return [d * (2 * i - m_points + 1) for i in range(m_points)]


def pattern_bits(m_points: int, index: int) -> list[int]:
    """Big-endian bits of a pattern index, leftmost bit on the lowest point."""
    return [(index >> (m_points - 1 - i)) & 1 for i in range(m_points)]


def _q(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def midpoint_pber(m_points: int, index: int, snr: float) -> float:
    """PBER of one pattern under midpoint decisions, summed slice by slice.

    Each term is the probability that the observation lands in a slice
    whose bit differs from the sent point's bit.  Such a slice never
    contains the sent point, so every term is a difference of two small
    tails and no cancellation against 1/2 occurs.
    """
    points = pam_points(m_points)
    mids = [(a + b) / 2 for a, b in zip(points, points[1:])]
    bits = pattern_bits(m_points, index)
    scale = math.sqrt(2.0 * snr)
    total = 0.0
    for i, s in enumerate(points):
        for k in range(m_points):
            if bits[k] == bits[i]:
                continue
            if k > i:
                near = _q((mids[k - 1] - s) * scale)
                far = _q((mids[k] - s) * scale) if k < m_points - 1 else 0.0
            else:
                near = _q((s - mids[k]) * scale)
                far = _q((s - mids[k - 1]) * scale) if k > 0 else 0.0
            total += near - far
    return total / m_points


def labeling_midpoint_ber(m_points: int, indices, snr: float, cache=None) -> float:
    """Average of the column patterns' midpoint PBERs."""
    values = []
    for w in indices:
        key = (w, snr)
        if cache is not None and key in cache:
            values.append(cache[key])
            continue
        value = midpoint_pber(m_points, w, snr)
        if cache is not None:
            cache[key] = value
        values.append(value)
    return sum(values) / len(values)


def rel_close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def bd_within_abd(bd: float, abd: float) -> bool:
    return bd <= abd * (1.0 + BD_SLACK)


def binomial_ok(errors: int, trials: int, p: float, upper_only: bool = False) -> bool:
    """True when ``errors/trials`` lies within BINOMIAL_Z binomial sigmas of ``p``.

    With ``upper_only`` only an excess over ``p`` counts, for an estimate
    bounded above by ``p`` rather than centred on it.
    """
    sigma = math.sqrt(p * (1.0 - p) / trials)
    excess = errors / trials - p
    return (excess if upper_only else abs(excess)) <= BINOMIAL_Z * sigma


def is_bijective(m_points: int, indices) -> bool:
    """Stacked as columns, the patterns give M distinct labels."""
    rows = set()
    for i in range(m_points):
        rows.add(tuple((w >> (m_points - 1 - i)) & 1 for w in indices))
    return len(rows) == m_points


def balanced_patterns(m_points: int) -> list[int]:
    return [w for w in range(1 << m_points) if bin(w).count("1") == m_points // 2]


def random_labeling_indices(rng, m_points: int, count: int) -> list[tuple[int, ...]]:
    """Seeded pattern-index sets of bijective labelings, drawn as sample_labelings does."""
    pool = balanced_patterns(m_points)
    n_bits = m_points.bit_length() - 1
    out = []
    while len(out) < count:
        combo = tuple(sorted(int(x) for x in rng.choice(pool, size=n_bits, replace=False)))
        if is_bijective(m_points, combo):
            out.append(combo)
    return out


# --- reference data -------------------------------------------------------

def census_lines(census) -> list[str]:
    """One text line per census class: weights; witness pattern set; population."""
    return [
        " ".join(str(a) for a in cls.alpha)
        + ";" + " ".join(str(w) for w in sorted(cls.witness.pattern_set))
        + ";" + str(cls.population)
        for cls in census
    ]


def census_digest(census) -> str:
    return hashlib.sha256("\n".join(census_lines(census)).encode()).hexdigest()


def class_table_lines(classes) -> list[str]:
    """Rows in the format of ``pamber classes`` (without header)."""
    return [
        f"{c.representative.index},{' '.join(str(w) for w in c.members)},"
        f"{c.symmetry},{' '.join(str(a) for a in c.coefficients)}"
        for c in classes
    ]


def read_text(name: str) -> str:
    path = REFERENCE / name
    if path.suffix == ".gz":
        return gzip.decompress(path.read_bytes()).decode()
    return path.read_text(encoding="utf-8")


def read_class_members(name: str) -> list[tuple[int, ...]]:
    """Member tuples of a committed class table, in table order."""
    lines = csv_body(read_text(name)).splitlines()[1:]
    return [tuple(int(w) for w in line.split(",")[1].split()) for line in lines]


def csv_body(text: str) -> str:
    """CSV output without its ``#`` provenance lines."""
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))


def _cells(body: str) -> list[list[str]]:
    return [line.split(",") for line in body.splitlines()]


def body_mismatch(got: str, want: str, atol: float = 0.0, rtol: float = 0.0) -> str | None:
    """Describe the first difference between two CSV bodies, or None.

    With both tolerances zero the bodies must match byte for byte.
    Otherwise numeric cells may differ by ``atol + rtol * |want|`` and
    every other cell must match exactly.
    """
    if got == want:
        return None
    if atol == 0.0 and rtol == 0.0:
        return "body differs byte-wise"
    g, w = _cells(got), _cells(want)
    if len(g) != len(w):
        return f"{len(g)} lines, want {len(w)}"
    for line, (grow, wrow) in enumerate(zip(g, w)):
        if len(grow) != len(wrow):
            return f"line {line}: {len(grow)} cells, want {len(wrow)}"
        for gc, wc in zip(grow, wrow):
            if gc == wc:
                continue
            try:
                a, b = float(gc), float(wc)
            except ValueError:
                return f"line {line}: {gc!r} != {wc!r}"
            if not abs(a - b) <= atol + rtol * abs(b):
                return f"line {line}: {a!r} vs {b!r}"
    return None


def ber_rows(body: str) -> dict[str, float]:
    """``snr_db -> ber`` from the body of ``pamber ber``."""
    rows = _cells(body)[1:]
    return {snr: float(ber) for snr, ber in rows}
