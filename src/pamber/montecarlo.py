"""Seeded AWGN simulation of the three demodulators.

Noise is drawn per SNR point from an independent child stream of one
root seed (``numpy.random.SeedSequence(seed).spawn``), so runs are
reproducible for a fixed seed and numpy version regardless of how many
grid points are simulated, and per-point streams never overlap.
Gaussian samples come from ``Generator.standard_normal`` (PCG64 +
ziggurat); symbols are drawn equiprobably.  Each chunk of observations is
decided by the public demodulators of :mod:`pamber.demod`: ``sd_decide``,
or ``abd_decide`` on ``maxlog_llr`` (ABD) or ``exact_llr`` (BD).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constellation import Constellation
from .demod import (
    ChannelParams,
    _column_matrix,
    _llr_limit,
    abd_decide,
    exact_llr,
    maxlog_llr,
    sd_decide,
)

_CHUNK = 1 << 18
# Noise reach, in standard deviations, that an L-value demodulator must
# tolerate at every grid point.  A sample beyond 10 sigma has probability
# 1.5e-23, so no feasible run meets one, and a grid point that passes the
# check up front cannot fail mid-run on the L-value bound.
_NOISE_SIGMAS = 10.0

DEMODULATORS = ("sd", "bd", "abd")


@dataclass(frozen=True)
class SimConfig:
    """Simulation plan: symbol count, root seed, SNR grid, demodulator."""

    trials: int
    seed: int
    snr_db_grid: tuple[float, ...]
    demodulator: str = "abd"

    def __post_init__(self) -> None:
        object.__setattr__(self, "snr_db_grid", tuple(float(s) for s in self.snr_db_grid))
        if self.trials < 10_000:
            raise ValueError("need at least 10^4 trials for a reportable estimate")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not self.snr_db_grid:
            raise ValueError("empty SNR grid")
        if not all(math.isfinite(s) for s in self.snr_db_grid):
            raise ValueError(f"SNR grid values must be finite, got {self.snr_db_grid}")
        if self.demodulator not in DEMODULATORS:
            raise ValueError(f"demodulator must be one of {DEMODULATORS}")


@dataclass(frozen=True)
class BerEstimate:
    """One simulated point with its binomial standard error."""

    snr_db: float
    ber: float
    stderr: float
    bit_errors: int
    bits_sent: int
    demodulator: str
    per_bit: tuple[float, ...] = field(default=())


def _check_noise_reach(constellation: Constellation, snr_db_grid) -> None:
    limit = _llr_limit(constellation)
    peak = max(-constellation.points[0], constellation.points[-1])
    for snr_db in snr_db_grid:
        reach = peak + _NOISE_SIGMAS * ChannelParams.from_db(snr_db).noise_std
        if reach > limit:
            raise ValueError(
                f"snr_db={snr_db:g} is too low for L-value demodulation: max|x| plus "
                f"{_NOISE_SIGMAS:g} noise standard deviations is {reach:g}, past the "
                f"L-value bound dmin/(8*eps) = {limit:g}; the sd demodulator has no such bound"
            )


def simulate(
    target, constellation: Constellation, config: SimConfig
) -> list[BerEstimate]:
    """Estimate the BER of ``target`` (a labeling or single pattern).

    Returns one estimate per grid point, in grid order.  Identical
    (target, constellation, config) inputs reproduce identical estimates.

    Raises:
        ValueError: for "abd" or "bd", before any work, if at some grid
            point ``max|x|`` plus 10 noise standard deviations exceeds the
            L-value bound ``dmin/(8*eps)`` of :mod:`pamber.demod` (below
            about -271 dB for unit-energy 8-PAM).  "sd" has no such bound.
    """
    cols = _column_matrix(target, constellation)
    if config.demodulator != "sd":
        _check_noise_reach(constellation, config.snr_db_grid)
    bit_rows = np.ascontiguousarray(cols.T)  # row j: bit j of every point's label
    points = constellation.points
    n_bits = cols.shape[1]
    children = np.random.SeedSequence(config.seed).spawn(len(config.snr_db_grid))
    out = []
    for snr_db, child in zip(config.snr_db_grid, children):
        params = ChannelParams.from_db(snr_db)
        rng = np.random.default_rng(child)
        errors_per_bit = np.zeros(n_bits, dtype=np.int64)
        done = 0
        while done < config.trials:
            n = min(_CHUNK, config.trials - done)
            sent = rng.integers(0, constellation.size, n)
            y = points[sent] + params.noise_std * rng.standard_normal(n)
            if config.demodulator == "sd":
                decided = sd_decide(y, target, constellation)
            else:
                llr = exact_llr if config.demodulator == "bd" else maxlog_llr
                decided = abd_decide(llr(y, target, constellation, params))
            # Counted one bit at a time on contiguous rows; the L-value
            # decisions are bit-major, so their transpose has such rows.
            for j, (got, labels) in enumerate(zip(decided.T, bit_rows)):
                errors_per_bit[j] += np.count_nonzero(got != labels[sent])
            done += n
        bits_sent = config.trials * n_bits
        bit_errors = int(errors_per_bit.sum())
        ber = bit_errors / bits_sent
        out.append(
            BerEstimate(
                snr_db=float(snr_db),
                ber=ber,
                stderr=math.sqrt(ber * (1.0 - ber) / bits_sent),
                bit_errors=bit_errors,
                bits_sent=bits_sent,
                demodulator=config.demodulator,
                per_bit=tuple(errors_per_bit / config.trials),
            )
        )
    return out
