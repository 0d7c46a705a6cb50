"""Seeded AWGN simulation of the three demodulators.

Noise is drawn per SNR point from an independent child stream of one
root seed (``numpy.random.SeedSequence(seed).spawn``), so runs are
reproducible for a fixed seed and numpy version regardless of how many
grid points are simulated, and per-point streams never overlap.
Gaussian samples come from ``Generator.standard_normal`` (PCG64 +
ziggurat); symbols are drawn equiprobably.

Errors are tallied by transition, whatever the demodulator.  Each
sample adds one to the count of its (sent point, decision) pair.  SD
decides a point, by the nearest-point rule that ``sd_decide`` also uses;
ABD and BD decide a label code, first bit highest, from the signs
(``abd_decide``) of ``maxlog_llr`` or ``exact_llr``.  Per grid point, the
errors of bit j are the sum of that tally weighted by whether bit j
differs between the sent label and the decided one: the paper's sum over
transitions, in exact integers.  The SNR grid of ABD and BD is checked in
one pass, ``_check_grid``, before any noise is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, _bit_rows, _is_integer
from .demod import (
    _EPS,
    DEMODULATORS,
    ChannelParams,
    _column_matrix,
    _llr_limit,
    _nearest,
    abd_decide,
    exact_llr,
    maxlog_llr,
)

_CHUNK = 1 << 18
# Noise reach, in standard deviations, that an L-value demodulator must
# tolerate at every grid point.  A sample beyond 10 sigma has probability
# 1.5e-23, so no feasible run meets one, and a grid point that passes the
# check up front cannot fail mid-run on the L-value bound.
_NOISE_SIGMAS = 10.0


@dataclass(frozen=True)
class SimConfig:
    """Simulation plan: symbol count, root seed, SNR grid, demodulator."""

    trials: int
    seed: int
    snr_db_grid: tuple[float, ...]
    demodulator: str = "abd"

    def __post_init__(self) -> None:
        object.__setattr__(self, "snr_db_grid", tuple(float(s) for s in self.snr_db_grid))
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.trials < 10_000:
            raise ValueError("need at least 10^4 trials for a reportable estimate")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not self.snr_db_grid:
            raise ValueError("empty SNR grid")
        for snr_db in self.snr_db_grid:  # rejects a non-finite or out-of-range value
            ChannelParams.from_db(snr_db)
        if self.demodulator not in DEMODULATORS:
            raise ValueError(f"demodulator must be one of {', '.join(DEMODULATORS)}")


@dataclass(frozen=True)
class BerEstimate:
    """One simulated point with its binomial standard error."""

    snr_db: float
    ber: float
    stderr: float
    bit_errors: int
    bits_sent: int
    demodulator: str
    per_bit: tuple[float, ...]


def _check_grid(constellation: Constellation, config: SimConfig) -> None:
    """Reject the first grid point an L-value demodulator cannot handle."""
    limit = _llr_limit(constellation)
    peak = max(-constellation.points[0], constellation.points[-1])
    # The exact L-value adds log-domain corrections of about ln(M/2), each
    # rounded by about eps*ln(M/2), to an inner bit's L-value of about
    # snr*dmin^2.  Below this SNR its sign is rounding noise.
    floor = _EPS * math.log(constellation.size / 2) / constellation.dmin**2
    for snr_db in config.snr_db_grid:
        params = ChannelParams.from_db(snr_db)
        reach = peak + _NOISE_SIGMAS * params.noise_std
        if reach > limit:
            raise ValueError(
                f"snr_db={snr_db:g} is too low for L-value demodulation: max|x| plus "
                f"{_NOISE_SIGMAS:g} noise standard deviations is {reach:g}, past the "
                f"L-value bound dmin/(8*eps) = {limit:g}; the sd demodulator has no such bound"
            )
        if config.demodulator == "bd" and params.snr < floor:
            raise ValueError(
                f"snr_db={snr_db:g} is too low for the bd demodulator: below "
                f"{10 * math.log10(floor):.1f} dB the rounding of the exact L-value, "
                f"eps*ln(M/2), exceeds the L-value itself, about snr*dmin^2; "
                f"the sd and abd demodulators have no such floor"
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
        ValueError: for "bd", before any work, if some grid point lies
            below ``snr = eps*ln(M/2)/dmin^2``, where the rounding of the
            exact L-value's log-domain corrections exceeds an inner bit's
            L-value and its sign becomes noise (-147.9 dB for unit-energy
            8-PAM).  The error names the first failing point in grid order.
    """
    cols = _column_matrix(target, constellation)
    sd = config.demodulator == "sd"
    if not sd:
        _check_grid(constellation, config)
    size, n_bits = cols.shape
    width = size if sd else 1 << n_bits
    decided = cols.T if sd else _bit_rows(np.arange(width), n_bits).T
    # flips[j, s, d]: whether bit j differs between the label of s and decision d
    flips = cols.T[:, :, None] != decided[:, None, :]
    llr = exact_llr if config.demodulator == "bd" else maxlog_llr
    children = np.random.SeedSequence(config.seed).spawn(len(config.snr_db_grid))
    out = []
    for snr_db, child in zip(config.snr_db_grid, children):
        params = ChannelParams.from_db(snr_db)
        rng = np.random.default_rng(child)
        tally = np.zeros(size * width, dtype=np.int64)  # (sent, decision) counts
        done = 0
        while done < config.trials:
            n = min(_CHUNK, config.trials - done)
            sent = rng.integers(0, size, n)
            y = rng.standard_normal(n)  # y = points[sent] + noise_std * z, in place
            y *= params.noise_std
            y += constellation.points[sent]
            if sd:  # sent becomes the transition index sent*width + decision
                sent *= size
                sent += _nearest(y, constellation)
            else:  # one contiguous row per bit: the L-values are bit-major
                for row in llr(y, target, constellation, params).T:
                    sent <<= 1
                    sent |= abd_decide(row)
            tally += np.bincount(sent, minlength=size * width)
            done += n
        errors_per_bit = (flips * tally.reshape(size, width)).sum(axis=(1, 2))
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
                per_bit=tuple((errors_per_bit / config.trials).tolist()),
            )
        )
    return out
