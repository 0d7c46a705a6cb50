"""Seeded AWGN simulation of the three demodulators.

Noise is drawn per SNR point from an independent child stream of one
root seed (``numpy.random.SeedSequence(seed).spawn``), so runs are
reproducible for a fixed seed and numpy version regardless of how many
grid points are simulated, and per-point streams never overlap.
Gaussian samples come from ``Generator.standard_normal`` (PCG64 +
ziggurat); symbols are drawn equiprobably.

Errors are tallied by transition, whatever the demodulator: each sample
adds one to the count of its (sent point, decision) pair.  SD and ABD
decide the nearest point, by the rule ``sd_decide`` uses; in one dimension
the max-log L-value of every bit changes sign at the midpoints, so ABD's
signs give the nearest point's label.  BD decides a label code, first bit
highest, by region: a sample takes the code of the region between the zero
crossings of every column's exact L-value that it falls in, counted as SD
counts midpoints.  The crossings are solved once per grid point, as BD
``labeling_ber`` solves them.  Within a guard of a crossing (``_GUARD_TOLS``
solver tolerances), and for every sample of a point whose SNR the solver
refuses (below -54 dB on 8-PAM), the signs (``abd_decide``) of
``exact_llr`` decide instead; ``_check_grid`` checks such points before any
noise is drawn.  Per grid point, the errors of bit j are the sum of the
tally weighted by whether bit j differs between the sent label and the
decided one: the paper's sum over transitions, in exact integers.

Grid points run concurrently on a thread pool with one worker per CPU the
process may run on (``os.sched_getaffinity``, else ``os.cpu_count``), and
no more workers than points.  numpy releases the interpreter lock while it
draws noise and runs its array loops, so the points overlap on separate
cores.  The estimates do not depend on the number of workers: the child
streams are spawned up front in grid order, each point owns its generator
and tally and only reads the shared inputs, and the results come back in
grid order.  Each point runs in a copy of the caller's ``contextvars``
context, so a caller's ``np.errstate`` holds inside it.  Once a point
raises, or the caller is interrupted, the other points stop before their
next chunk, and the caller gets the error of the first failed point in
grid order.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
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
)
from .thresholds import _RTOL, _XTOL, _crossings, _past_reach

_CHUNK = 1 << 18
# Noise reach, in standard deviations, that the bd demodulator must
# tolerate at every grid point.  A sample beyond 10 sigma has probability
# 1.5e-23, so no feasible run meets one, and a grid point that passes the
# check up front cannot fail mid-run on the L-value bound.
_NOISE_SIGMAS = 10.0
# BD decides a sample by the signs of its L-values when it lies within
# this many solver tolerances, _XTOL + _RTOL*|beta|, of a solved crossing
# beta.  A crossing is within one tolerance of a sign change of the L-value,
# but rounding flips that sign back and forth in a band around it, wider
# where the L-value is flat: within 10 noise standard deviations, up to
# 6.3e4 tolerances on 8-PAM at -54 dB (the solver's limit) and 2.5e4 on
# NBC-32 at 9 dB.  The guard, 1e-4 near the points, sends about 4 samples
# in 10^4 of BRGC-8 at 5 dB to the kernel.
_GUARD_TOLS = 1e6


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


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _check_grid(constellation: Constellation, config: SimConfig) -> None:
    """Reject the first grid point, past the solver's reach, that bd cannot handle."""
    limit = _llr_limit(constellation)
    peak = max(-constellation.points[0], constellation.points[-1])
    # The exact L-value adds log-domain corrections of about ln(M/2), each
    # rounded by about eps*ln(M/2), to an inner bit's L-value of about
    # snr*dmin^2.  Below this SNR its sign is rounding noise.
    floor = _EPS * math.log(constellation.size / 2) / constellation.dmin**2
    for snr_db in config.snr_db_grid:
        params = ChannelParams.from_db(snr_db)
        if not _past_reach(constellation, params):
            continue
        reach = peak + _NOISE_SIGMAS * params.noise_std
        if reach > limit:
            raise ValueError(
                f"snr_db={snr_db:g} is too low for L-value demodulation: max|x| plus "
                f"{_NOISE_SIGMAS:g} noise standard deviations is {reach:g}, past the "
                f"L-value bound dmin/(8*eps) = {limit:g}; "
                f"the sd and abd demodulators have no such bound"
            )
        if params.snr < floor:
            raise ValueError(
                f"snr_db={snr_db:g} is too low for the bd demodulator: below "
                f"{10 * math.log10(floor):.1f} dB the rounding of the exact L-value, "
                f"eps*ln(M/2), exceeds the L-value itself, about snr*dmin^2; "
                f"the sd and abd demodulators have no such floor"
            )


def _bd_decider(target, constellation: Constellation, params: ChannelParams):
    """The BD label codes of 1-D sample arrays, decided by the solved crossings.

    The crossings of every column are solved once, as BD ``labeling_ber``
    solves them, and merged into sorted edges; ``codes[k]`` is the label
    code, first bit highest, of the region above the k lowest edges.  A
    sample is decided by the number of edges below it, counted in one pass
    per edge as ``_nearest`` counts midpoints.  Within the guard of an edge
    (``_GUARD_TOLS`` solver tolerances), and for every sample at an SNR past
    the solver's reach, the signs of ``exact_llr`` decide instead.
    """

    def kernel(y: np.ndarray) -> np.ndarray:
        out = np.zeros(y.size, dtype=np.int64)
        for row in exact_llr(y, target, constellation, params).T:  # contiguous: bit-major
            out = out << 1 | abd_decide(row)
        return out

    if _past_reach(constellation, params):
        return kernel
    cuts = _crossings(target, constellation, params)
    edges = np.sort(np.concatenate([betas for betas, _ in cuts]))
    lows = np.append(-np.inf, edges)  # the lower end of every region
    codes = np.zeros(lows.size, dtype=np.int64)
    for betas, region_bits in cuts:
        codes = codes << 1 | region_bits[np.searchsorted(betas, lows, side="right")]
    guard = _GUARD_TOLS * (_XTOL + _RTOL * np.abs(edges))
    bands = list(zip((edges - guard).tolist(), (edges + guard).tolist()))
    count_type = np.min_scalar_type(edges.size)

    def decide(y: np.ndarray) -> np.ndarray:
        # past and reached count the edges a sample lies beyond by more
        # than the guard, and within it or beyond: equal outside every guard
        past = np.zeros(y.shape, dtype=count_type)
        reached = np.zeros(y.shape, dtype=count_type)
        for low, high in bands:
            past += y > high
            reached += y >= low
        out = codes[past]
        near = np.flatnonzero(past != reached)
        if near.size:
            out[near] = kernel(y[near])
        return out

    return decide


def simulate(
    target, constellation: Constellation, config: SimConfig
) -> list[BerEstimate]:
    """Estimate the BER of ``target`` (a labeling or single pattern).

    Returns one estimate per grid point, in grid order.  Identical
    (target, constellation, config) inputs reproduce identical estimates.

    "sd" and "abd" both decide by the nearest point, so their estimates are
    identical.  A sample on a midpoint, or within a few ulp of one, goes to
    the lower point, though rounding there can flip the sign of ``maxlog_llr``.

    Raises:
        ValueError: for "bd", before any work, if at some grid point past
            the solver's reach ``max|x|`` plus 10 noise standard deviations
            exceeds the L-value bound ``dmin/(8*eps)`` of :mod:`pamber.demod`
            (below about -271 dB for unit-energy 8-PAM), or the point lies
            below ``snr = eps*ln(M/2)/dmin^2``, where the rounding of the
            exact L-value's log-domain corrections exceeds an inner bit's
            L-value and its sign becomes noise (-147.9 dB for unit-energy
            8-PAM).  The error names the first failing point in grid order.
            "sd", "abd" and "bd" on 2-PAM run at any SNR.
    """
    cols = _column_matrix(target, constellation)
    bd = config.demodulator == "bd"
    if bd:
        _check_grid(constellation, config)
    size, n_bits = cols.shape
    width = 1 << n_bits if bd else size
    decided = _bit_rows(np.arange(width), n_bits).T if bd else cols.T
    # flips[j, s, d]: whether bit j differs between the label of s and decision d
    flips = cols.T[:, :, None] != decided[:, None, :]
    stop = threading.Event()  # set when a point fails or the caller is interrupted

    def point(snr_db: float, child: np.random.SeedSequence) -> BerEstimate | None:
        params = ChannelParams.from_db(snr_db)
        decide = (_bd_decider(target, constellation, params) if bd
                  else functools.partial(_nearest, constellation=constellation))
        rng = np.random.default_rng(child)
        tally = np.zeros(size * width, dtype=np.int64)  # (sent, decision) counts
        done = 0
        while done < config.trials:
            if stop.is_set():  # never read: the caller gets an error instead
                return None
            n = min(_CHUNK, config.trials - done)
            sent = rng.integers(0, size, n)
            y = rng.standard_normal(n)  # y = points[sent] + noise_std * z, in place
            y *= params.noise_std
            y += constellation.points[sent]
            sent *= width  # sent becomes the transition index sent*width + decision
            sent += decide(y)
            tally += np.bincount(sent, minlength=size * width)
            done += n
        errors_per_bit = (flips * tally.reshape(size, width)).sum(axis=(1, 2))
        bits_sent = config.trials * n_bits
        bit_errors = int(errors_per_bit.sum())
        ber = bit_errors / bits_sent
        return BerEstimate(
            snr_db=float(snr_db),
            ber=ber,
            stderr=math.sqrt(ber * (1.0 - ber) / bits_sent),
            bit_errors=bit_errors,
            bits_sent=bits_sent,
            demodulator=config.demodulator,
            per_bit=tuple((errors_per_bit / config.trials).tolist()),
        )

    def run(context: contextvars.Context, *args) -> BerEstimate | None:
        if stop.is_set():  # a point that has not started does no work, not even a BD solve
            return None
        try:
            return context.run(point, *args)
        except BaseException:
            stop.set()
            raise

    # Imported here: concurrent.futures loads logging, which no command
    # needs at start-up.
    from concurrent.futures import ThreadPoolExecutor

    grid = config.snr_db_grid
    children = np.random.SeedSequence(config.seed).spawn(len(grid))
    with ThreadPoolExecutor(min(len(grid), _available_cpus())) as pool:
        # one copy of the caller's context per point: two threads cannot
        # enter one Context at once
        futures = [
            pool.submit(run, contextvars.copy_context(), snr_db, child)
            for snr_db, child in zip(grid, children)
        ]
        try:
            return [future.result() for future in futures]
        finally:  # after a failure or an interrupt, points stop at their next chunk
            stop.set()
