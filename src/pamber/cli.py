"""Command line front end; every subcommand emits CSV on stdout.

Subcommands hand plain values to ``_emit``, which owns the cell format:
floats are printed with 17 significant digits so curves can be compared
byte for byte between runs, tuples of ints as space-separated values.
Each output starts with a ``#`` comment line echoing the subcommand and
its full parameter set.

SNR grids are given in dB as ``start:step:stop`` (stop inclusive) or as a
single value.  Patterns are accepted as a decimal index (``102``), a bit
string (``01100110``), or comma-separated bits (``0,1,1,0,0,1,1,0``).
Labelings are accepted by name (brgc, nbc, fbc, bsgc, ag) or as
comma-separated pattern indices (``15,60,102``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

# Every command needs these; each handler imports the rest of what it uses.
from . import __version__
from .constellation import (
    LABELING_NAMES,
    BitPattern,
    Labeling,
    make_pam,
    named_labeling,
    pattern_from_index,
)
from .demod import DEMODULATORS, ChannelParams, exact_llr, maxlog_llr

MAX_GRID_POINTS = 1_000_000


def parse_grid(text: str) -> np.ndarray:
    """Parse ``start:step:stop`` (inclusive) or a single value.

    Every value must be finite, and a grid holds at most
    ``MAX_GRID_POINTS`` points.
    """
    parts = text.split(":")
    try:
        values = [float(p) for p in parts]
        if len(values) not in (1, 3):
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a value or start:step:stop, got {text!r}"
        ) from None
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"grid values must be finite, got {text!r}")
    if len(values) == 1:
        return np.array(values)
    start, step, stop = values
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError(
            f"expected a value or start:step:stop, got {text!r}"
        )
    span = (stop - start) / step
    if not span + 1 <= MAX_GRID_POINTS:  # also when the division overflowed
        raise argparse.ArgumentTypeError(
            f"grid {text!r} has more than {MAX_GRID_POINTS} points"
        )
    with np.errstate(over="ignore"):  # a point rounded past stop may overflow; it is dropped
        grid = start + step * np.arange(int(round(span)) + 1)
    return grid[grid <= stop + 1e-9]


def parse_pattern(text: str, m_points: int) -> BitPattern:
    """Decimal index, contiguous bit string, or comma-separated bits.

    Raises:
        argparse.ArgumentTypeError: if ``text`` is none of the three forms.
        ValueError: if the pattern has the wrong weight, or its index or
            bits are out of range.
    """
    text = text.strip()
    if len(text) == m_points and set(text) <= {"0", "1"}:
        return BitPattern(tuple(int(c) for c in text))
    try:
        numbers = [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid pattern {text!r}: expected a decimal index, a bit "
            f"string, or comma-separated bits"
        ) from None
    if "," in text:
        return BitPattern(tuple(numbers))
    return pattern_from_index(m_points, numbers[0])


def parse_labeling(text: str, m_points: int) -> Labeling:
    """Labeling name or comma-separated pattern indices.

    Raises:
        argparse.ArgumentTypeError: if ``text`` is neither a name in
            ``LABELING_NAMES`` nor comma-separated integers.
    """
    text = text.strip()
    if text.upper() in LABELING_NAMES:
        return named_labeling(text, m_points)
    try:
        indices = [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown labeling {text!r}: expected one of "
            f"{', '.join(LABELING_NAMES)} or comma-separated pattern indices"
        ) from None
    return Labeling.from_indices(m_points, indices)


def _provenance(args: argparse.Namespace) -> str:
    """The subcommand, its parameters, and the versions the output depends on.

    Seeded Monte-Carlo streams and the last bits of L-values can change
    with the numpy release, so the header names it with pamber.  Values
    lose their whitespace, so spaces separate the fields.
    """
    skip = {"func", "command"}
    fields = [
        f"{key}={''.join(str(value).split())}"
        for key, value in sorted(vars(args).items())
        if key not in skip and value is not None
    ]
    fields += [f"pamber={__version__}", f"numpy={np.__version__}"]
    return f"# pamber {args.command} {' '.join(fields)}"


def _emit(args, header: list[str], rows) -> None:
    """Write the provenance line, the header and one CSV line per row."""

    def cell(value) -> str:
        if isinstance(value, (float, np.floating)):
            return format(float(value), ".17g")
        if isinstance(value, (tuple, list)):
            return " ".join(map(str, value))
        return str(value)

    sys.stdout.write(_provenance(args) + "\n")
    sys.stdout.write(",".join(header) + "\n")
    for row in rows:
        sys.stdout.write(",".join(map(cell, row)) + "\n")


def _read_target(args) -> BitPattern | Labeling:
    if args.labeling is not None:
        return parse_labeling(args.labeling, args.M)
    return parse_pattern(args.pattern, args.M)


def _cmd_ber(args) -> int:
    from . import analytic  # only this command evaluates Q

    grid = parse_grid(args.snr)
    constellation = make_pam(args.M)
    target = _read_target(args)
    rows = []
    for snr_db in grid:
        params = ChannelParams.from_db(snr_db)
        rows.append((snr_db, analytic.labeling_ber(target, constellation, params, args.demod)))
    _emit(args, ["snr_db", "ber"], rows)
    return 0


def _cmd_llr(args) -> int:
    grid = parse_grid(args.snr)
    if grid.size != 1:
        print("usage: pamber llr expects a single --snr value", file=sys.stderr)
        return 2
    params = ChannelParams.from_db(float(grid[0]))
    constellation = make_pam(args.M)
    y = parse_grid(args.y)
    target = _read_target(args)
    exact = exact_llr(y, target, constellation, params)
    approx = maxlog_llr(y, target, constellation, params)
    if args.labeling is not None:
        bits = range(1, exact.shape[-1] + 1)
        header = ["y"] + [f"exact_{j}" for j in bits] + [f"maxlog_{j}" for j in bits]
    else:
        header = ["y", "exact", "maxlog"]
    rows = [(yv, *e, *a) for yv, e, a in zip(y, exact, approx)]
    _emit(args, header, rows)
    return 0


def _cmd_thresholds(args) -> int:
    from .thresholds import bd_thresholds

    grid = parse_grid(args.snr)
    constellation = make_pam(args.M)
    pattern = parse_pattern(args.pattern, args.M)
    transitions = (np.nonzero(np.diff(pattern.bits) != 0)[0] + 1).tolist()
    rows = []
    for snr_db in grid:
        params = ChannelParams.from_db(snr_db)
        thr = bd_thresholds(pattern, constellation, params)
        keys = transitions if thr.size == len(transitions) else [""] * thr.size
        for k, beta in zip(keys, thr.betas):
            rows.append((snr_db, k, beta))
    _emit(args, ["snr_db", "k", "beta"], rows)
    return 0


def _cmd_classes(args) -> int:
    from . import pattern_classes

    rows = (
        (members[0], members, symmetry, coefficients)
        for members, symmetry, coefficients in pattern_classes.enumerate_classes(args.M).rows()
    )
    _emit(args, ["representative", "members", "symmetry", "coefficients"], rows)
    return 0


def _cmd_labelings(args) -> int:
    from . import labeling_space, pattern_classes

    census = labeling_space.labeling_census(args.M)
    named = {}
    for name in LABELING_NAMES:
        try:
            lab = named_labeling(name, args.M)
        except ValueError:
            continue
        alpha = tuple(int(x) for x in pattern_classes.labeling_coefficients(lab))
        named.setdefault(alpha, name)
    rows = [
        (rank, named.get(cls.alpha, ""), cls.witness_indices, cls.alpha, cls.population)
        for rank, cls in enumerate(census, start=1)
    ]
    _emit(args, ["rank", "name", "witness_patterns", "coefficients", "population"], rows)
    return 0


def _cmd_simulate(args) -> int:
    from . import montecarlo

    grid = parse_grid(args.snr)
    constellation = make_pam(args.M)
    target = _read_target(args)
    config = montecarlo.SimConfig(
        trials=args.trials,
        seed=args.seed,
        snr_db_grid=tuple(float(s) for s in grid),
        demodulator=args.demod,
    )
    rows = [
        (est.snr_db, est.demodulator, est.ber, est.stderr, args.trials, args.seed)
        for est in montecarlo.simulate(target, constellation, config)
    ]
    _emit(args, ["snr_db", "demod", "ber", "stderr", "trials", "seed"], rows)
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    results = verify.run_all()
    width = max(len(r.name) for r in results)
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name:<{width}}  ({result.seconds:6.2f}s)  {result.detail}")
        failures += not result.passed
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


def _add_common(parser) -> None:
    parser.add_argument("--M", type=int, required=True, help="constellation size")


def _add_target(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--pattern", help="pattern index, bit string, or comma bits")
    group.add_argument("--labeling", help="labeling name or comma-separated indices")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pamber",
        description="Exact and simulated bit-error rates for PAM constellations.",
    )
    parser.add_argument("--version", action="version", version=f"pamber {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ber", help="analytic BER or PBER curve")
    _add_common(p)
    _add_target(p)
    p.add_argument("--snr", required=True, help="dB grid start:step:stop")
    p.add_argument("--demod", choices=DEMODULATORS, default="abd")
    p.set_defaults(func=_cmd_ber)

    p = sub.add_parser("llr", help="exact and max-log L-values over a y grid")
    _add_common(p)
    _add_target(p)
    p.add_argument("--snr", required=True, help="single dB value")
    p.add_argument("--y", required=True, help="observation grid start:step:stop")
    p.set_defaults(func=_cmd_llr)

    p = sub.add_parser(
        "thresholds",
        help="exact-L-value decision boundaries vs SNR",
        description=(
            "Zero crossings of the exact L-value at each SNR, in increasing "
            "order.  While every bit transition keeps its crossing, k is the "
            "1-based index of the transition (between points k and k+1).  "
            "Where crossings have merged and vanished, the surviving "
            "crossings are printed with an empty k."
        ),
    )
    _add_common(p)
    p.add_argument("--pattern", required=True)
    p.add_argument("--snr", required=True, help="dB grid start:step:stop")
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("classes", help="pattern equivalence classes")
    _add_common(p)
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("labelings", help="census of labelings by BER curve")
    _add_common(p)
    p.set_defaults(func=_cmd_labelings)

    p = sub.add_parser("simulate", help="seeded Monte-Carlo BER estimates")
    _add_common(p)
    _add_target(p)
    p.add_argument("--snr", required=True, help="dB grid start:step:stop")
    p.add_argument("--demod", choices=DEMODULATORS, default="abd")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the full self-check suite")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        # The reader of stdout went away (``pamber ... | head``).  Point
        # stdout at devnull so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except argparse.ArgumentTypeError as exc:
        print(f"usage: pamber {args.command}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"pamber: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
