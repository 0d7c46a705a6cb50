"""Seeded AWGN simulation of the three demodulators.

Noise is drawn per SNR point from an independent child stream of one
root seed (``numpy.random.SeedSequence(seed).spawn``), so runs are
reproducible for a fixed seed and numpy version regardless of how many
grid points are simulated, and per-point streams never overlap.
Gaussian samples come from ``Generator.standard_normal`` (PCG64 +
ziggurat); symbols are drawn equiprobably.

Errors are tallied by transition, whatever the demodulator: each sample
adds one to the count of its (sent point, region) pair.  Every demodulator
cuts the real line at sorted edges and decides a sample by the number of
edges strictly below it, counted in one pass per edge (``_nearest``).  SD
and ABD cut at the midpoints, by the rule ``sd_decide`` uses; in one
dimension the max-log L-value of every bit changes sign at the midpoints,
so ABD's signs give the nearest point's label.  BD cuts at the merged zero
crossings of every column's exact L-value, solved once per grid point as
BD ``labeling_ber`` solves them, and each column decides its own region
bit.  Only at a point whose SNR the solver refuses (below -54 dB on
8-PAM) do the signs (``abd_decide``) of ``exact_llr`` decide, one region
per label code; ``_check_grid`` checks such points before any noise is
drawn.  Per grid point, the errors of bit j are the sum of the tally
weighted by whether bit j differs between the sent label and the bit that
the region decides: the paper's sum over transitions, in exact integers.

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

from .constellation import (
    _TARGETS, Constellation, _bit_rows, _checked, _derived, _is_integer, _pack_rows)
from .demod import (
    _EPS,
    ChannelParams,
    _check_demodulator,
    _columns,
    _exact_from_rows,
    _llr_limit,
    _llr_rows,
    _nearest,
    _subsets,
    abd_decide,
)
from .thresholds import _crossings, _past_reach

_CHUNK = 1 << 18
# Noise reach, in standard deviations, that the bd demodulator must
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
        grid = self.snr_db_grid  # a string would be read character by character
        if isinstance(grid, (str, bytes, bytearray)) or not np.iterable(grid):
            raise ValueError(f"snr_db_grid must be a sequence of numbers, got {grid!r}")
        object.__setattr__(self, "snr_db_grid", tuple(float(s) for s in grid))
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
        _check_demodulator(self.demodulator)


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


def _regions(target, constellation: Constellation, params: ChannelParams, demodulator: str):
    """One grid point's ``decide``, from 1-D samples to regions, and the ``(m, regions)`` bits.

    Column k of the table holds the bits that region k decides.  SD and ABD
    cut at the midpoints and BD at the merged crossings of every column, and
    ``_nearest`` counts the edges below each sample.  Past the solver's
    reach the signs of ``exact_llr`` decide BD, one region per label code,
    from its sample loop without its checks: ``simulate`` has checked the
    target, and ``_check_grid`` the reach of the samples.
    """
    cols = _columns(target)
    if demodulator != "bd":
        return functools.partial(_nearest, edges=constellation.midpoints()), cols.T
    if _past_reach(constellation, params):
        subsets, column, snr = _derived(target, _subsets), constellation.points[:, None], params.snr

        def kernel(y: np.ndarray) -> np.ndarray:  # label codes, first bit highest
            return _pack_rows(abd_decide(_llr_rows(y, subsets, column, snr, _exact_from_rows).T))
        return kernel, _bit_rows(np.arange(1 << cols.shape[1]), cols.shape[1]).T
    sets = _crossings(target, constellation, params)
    edges = np.sort(np.concatenate([t.betas for t in sets]))
    lows = np.append(-np.inf, edges)  # the lower end of every region
    table = np.array([t.bits[np.searchsorted(t.betas, lows, side="right")] for t in sets])
    return functools.partial(_nearest, edges=edges), table


def simulate(
    target, constellation: Constellation, config: SimConfig
) -> list[BerEstimate]:
    """Estimate the BER of ``target`` (a labeling or single pattern).

    Returns one estimate per grid point, in grid order.  Identical
    (target, constellation, config) inputs reproduce identical estimates.

    "sd" and "abd" both decide by the nearest point, so their estimates are
    identical.  A sample on a midpoint, or within a few ulp of one, goes to
    the lower point, though rounding there can flip the sign of ``maxlog_llr``.
    "bd" decides by the solved crossings, and a sample on one goes to the
    region below it.  The sign of ``exact_llr`` can differ from them within
    the solver's tolerance of a crossing, and where the exact L-value is
    below its own rounding; it decides only past the solver's reach.

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
    cols = _columns(_checked(target, _TARGETS, constellation))
    if config.demodulator == "bd":
        _check_grid(constellation, config)
    size, n_bits = cols.shape
    stop = threading.Event()  # set when a point fails or the caller is interrupted

    def point(snr_db: float, child: np.random.SeedSequence) -> BerEstimate | None:
        params = ChannelParams.from_db(snr_db)
        decide, table = _regions(target, constellation, params, config.demodulator)
        regions = table.shape[1]
        rng = np.random.default_rng(child)
        tally = np.zeros(size * regions, dtype=np.int64)  # (sent, region) counts
        done = 0
        while done < config.trials:
            if stop.is_set():  # never read: the caller gets an error instead
                return None
            n = min(_CHUNK, config.trials - done)
            sent = rng.integers(0, size, n)
            y = rng.standard_normal(n)  # y = points[sent] + noise_std * z, in place
            y *= params.noise_std
            y += constellation.points[sent]
            sent *= regions  # sent becomes the transition index sent*regions + region
            sent += decide(y)
            tally += np.bincount(sent, minlength=size * regions)
            done += n
        # flips[j, s, r]: whether bit j differs between the label of s and region r's bit
        flips = cols.T[:, :, None] != table[:, None, :]
        errors_per_bit = (flips * tally.reshape(size, regions)).sum(axis=(1, 2))
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
