"""One task of a benchmark pass, run in a fresh interpreter.

Invoked by ``run.py`` as ``python3 perfbench/runner.py --task <task>
--seed <n> [--trace --spans <path>]`` from the checkout root, with
``src`` on ``PYTHONPATH``.  It imports pamber, builds the task's inputs
from the seed, reports the monotonic time at which the inputs were
ready, runs the timed work, checks every output, and prints one JSON
object as its last line.

Tasks: ``census8``, ``classes16``, ``curves``, ``simulate``, ``cli`` and
``baselines`` (the traced run's fixed-size layer measurements).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from collections import Counter
from time import perf_counter

import oracles
import tracing

# Inputs shared with make_reference.py and the self-tests.
DEFAULT_SEED = 0
CURVE_GRID_DB = tuple(-5.0 + 0.5 * i for i in range(51))      # -5 .. 20 dB
CURVE_LABELINGS = 200
SIM_GRID_DB = (0.0, 5.0, 10.0, 15.0)
SIM_TRIALS = 1_000_000
SIM_DEMODS = ("sd", "abd", "bd")
KERNEL_SAMPLES = 1 << 18
CLI_TIMEOUT_S = 120
CALIBRATION_REPS = 3      # before and after the timed work

# name -> (arguments, absolute tolerance, relative tolerance).  Closed-form
# outputs must match byte for byte; outputs of the BD boundary solver,
# which bisects to 1e-10, may move within what that tolerance allows.
CLI_COMMANDS = {
    "classes_m8": (["classes", "--M", "8"], 0.0, 0.0),
    "labelings_m4": (["labelings", "--M", "4"], 0.0, 0.0),
    "ber_ag_abd": (["ber", "--M", "8", "--labeling", "ag", "--snr", "0:1:20"], 0.0, 0.0),
    "ber_p102_bd": (["ber", "--M", "8", "--pattern", "102", "--demod", "bd",
                     "--snr", "0:1:20"], 1e-12, 1e-6),
    "thresholds_p102": (["thresholds", "--M", "8", "--pattern", "102",
                         "--snr", "0:1:20"], 1e-9, 0.0),
    "llr_brgc": (["llr", "--M", "8", "--labeling", "brgc", "--snr", "10",
                  "--y=-2:0.01:2"], 0.0, 0.0),
    "simulate_brgc": (["simulate", "--M", "8", "--labeling", "brgc", "--snr", "0:5:15",
                       "--trials", "100000", "--seed", "1"], 0.0, 0.0),
    # Fails at 0 dB on the boundary solver as of this benchmark's creation;
    # no body is committed for it, its rows are checked BD <= ABD instead.
    "ber_ag_bd": (["ber", "--M", "8", "--labeling", "ag", "--demod", "bd",
                   "--snr", "0:1:20"], None, None),
}
CLI_ORACLE_FOR = {"ber_ag_bd": "ber_ag_abd"}


def calibration_rep() -> float:
    """Seconds for a fixed mix of interpreter work, small and bulk numpy calls.

    The mix mirrors what pamber spends time on.  Run next to the measured
    work, it tracks the speed the shared machine gives this process.
    """
    import numpy as np

    start = perf_counter()
    total = 0
    for i in range(240_000):
        total += i * i % 7
    small = np.arange(64.0)
    for _ in range(2_400):
        small = np.sqrt(small * small + 1.0) - 1.0
    # Bulk work goes through preallocated buffers: a temporary this large
    # would be mapped afresh each time, at a cost that depends on what the
    # process allocated before, which would make the mix task-dependent.
    big = np.linspace(0.0, 1.0, 1 << 18)
    buf = np.empty_like(big)
    for k in range(48):
        np.multiply(big, -k, out=buf)
        np.exp(buf, out=buf)
        buf.sum()
    return perf_counter() - start


def seeded_rng(seed: int, salt: str):
    import numpy as np

    return np.random.default_rng([seed, sum(map(ord, salt))])


class Task:
    """Accumulates one task's timings, counts and correctness findings."""

    def __init__(self, tracer: tracing.Tracer | None) -> None:
        self.tracer = tracer
        self.ready = None
        self.parts: dict[str, float] = {}
        self.latencies: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.warnings: Counter = Counter()
        self.mismatches: list[str] = []
        self.extra: dict = {}
        self.calibration: list[float] = []

    def mark_ready(self) -> None:
        """Note that the inputs are ready, then calibrate before the timed work."""
        self.ready = time.monotonic()
        self.calibrate()

    def calibrate(self) -> None:
        self.calibration += [calibration_rep() for _ in range(CALIBRATION_REPS)]

    def traced(self):
        return self.tracer if self.tracer is not None else contextlib.nullcontext()

    def set_op(self, op: int) -> None:
        if self.tracer is not None:
            self.tracer.op = op

    def attempt(self, call):
        """Run one operation; count it, and count it failed on error or non-finite."""
        self.attempted += 1
        try:
            value = call()
        except Exception as exc:  # failure accounting boundary: every error is counted
            self.failed += 1
            self.errors[type(exc).__name__] += 1
            return None
        if isinstance(value, float) and not math.isfinite(value):
            self.failed += 1
            self.errors["non-finite"] += 1
            return None
        return value

    def invoke(self, name: str, argv: list[str]) -> str | None:
        """Run one command to completion; count it, and count it failed on a nonzero exit."""
        self.attempted += 1
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            self.failed += 1
            self.errors[f"{name}: exit {proc.returncode}"] += 1
            return None
        return proc.stdout

    def note_warnings(self, caught) -> None:
        for w in caught:
            self.warnings[type(w.message).__name__] += 1

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.mismatches.append(message)

    def result(self) -> dict:
        out = {
            "ready": self.ready,
            "pass_s": sum(self.parts.values()),
            "parts": self.parts,
            "latencies": self.latencies,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": dict(self.errors),
            "warnings": dict(self.warnings),
            "mismatches": self.mismatches,
            "extra": self.extra,
            "calibration": self.calibration,
        }
        if self.tracer is not None:
            out["layer"] = tracing.layer_metrics(
                self.tracer, self.warnings.get("MultipleCrossingsWarning", 0))
            out["tracer"] = {"installed": self.tracer.installed,
                             "skipped": self.tracer.skipped,
                             "spans": len(self.tracer.finished())}
        return out


@contextlib.contextmanager
def recording_warnings(task: Task):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    task.note_warnings(caught)


def task_census8(task: Task, seed: int) -> None:
    from pamber import labeling_space

    task.mark_ready()
    with task.traced():
        task.set_op(0)
        start = perf_counter()
        census = task.attempt(lambda: labeling_space.labeling_census(8))
        task.parts["census8"] = perf_counter() - start
    if census is not None:
        want = oracles.read_text("census8.sha256").split()[0]
        task.check(len(census) == 460, f"census has {len(census)} classes, want 460")
        task.check(oracles.census_digest(census) == want, "census table digest differs")


def task_classes16(task: Task, seed: int) -> None:
    from pamber import pattern_classes

    task.mark_ready()
    with task.traced():
        task.set_op(0)
        start = perf_counter()
        classes = task.attempt(lambda: pattern_classes.enumerate_classes(16))
        task.parts["classes16"] = perf_counter() - start
    if classes is not None:
        want = oracles.csv_body(oracles.read_text("classes_M16.csv.gz")).splitlines()[1:]
        got = oracles.class_table_lines(classes)
        task.check(len(got) == 3299, f"{len(got)} classes for M=16, want 3299")
        task.check(got == want, "M=16 class table differs from the reference")


def task_curves(task: Task, seed: int) -> None:
    from pamber import analytic, constellation, demod, thresholds

    rng = seeded_rng(seed, "curves")
    targets = [int(rng.choice(m)) for m in oracles.read_class_members("cli/classes_m8.csv")]
    lab_sets = oracles.random_labeling_indices(rng, 8, CURVE_LABELINGS)
    patterns = [constellation.pattern_from_index(8, w) for w in targets]
    labelings = [constellation.Labeling.from_indices(8, s) for s in lab_sets]
    pam8 = constellation.make_pam(8)
    params = [demod.ChannelParams.from_db(s) for s in CURVE_GRID_DB]
    task.mark_ready()

    bd_values, abd_values = [], []
    bd_lat, abd_lat = [], []
    op = 0
    with task.traced():
        with recording_warnings(task):
            start = perf_counter()
            for pattern in patterns:
                for prm in params:
                    task.set_op(op)
                    op += 1
                    t0 = perf_counter()
                    value = task.attempt(lambda: analytic.pber_general(
                        pattern, pam8, thresholds.bd_thresholds(pattern, pam8, prm), prm))
                    bd_lat.append(perf_counter() - t0)
                    bd_values.append(value)
            task.parts["bd"] = perf_counter() - start
        with recording_warnings(task):
            start = perf_counter()
            for lab in labelings:
                for prm in params:
                    task.set_op(op)
                    op += 1
                    t0 = perf_counter()
                    value = task.attempt(lambda: analytic.labeling_ber(lab, pam8, prm))
                    abd_lat.append(perf_counter() - t0)
                    abd_values.append(value)
            task.parts["abd"] = perf_counter() - start
    task.latencies = {"bd": bd_lat, "abd": abd_lat}
    task.extra = {"bd_points": len(bd_values), "abd_points": len(abd_values),
                  "bd_failed": sum(v is None for v in bd_values), "targets": targets}

    cache: dict = {}
    snrs = [p.snr for p in params]
    values = iter(abd_values)
    for s in lab_sets:
        for snr_db, snr in zip(CURVE_GRID_DB, snrs):
            got = next(values)
            want = oracles.labeling_midpoint_ber(8, s, snr, cache)
            task.check(got is None or oracles.rel_close(got, want, oracles.ABD_RTOL),
                       f"ABD BER of {s} at {snr_db} dB: {got!r}, oracle {want!r}")
    values = iter(bd_values)
    for w in targets:
        for snr_db, snr in zip(CURVE_GRID_DB, snrs):
            got = next(values)
            abd = oracles.labeling_midpoint_ber(8, (w,), snr, cache)
            task.check(got is None or oracles.bd_within_abd(got, abd),
                       f"BD PBER of {w} at {snr_db} dB: {got!r} exceeds ABD {abd!r}")


def task_simulate(task: Task, seed: int) -> None:
    from pamber import analytic, constellation, demod, montecarlo

    brgc = constellation.named_labeling("BRGC", 8)
    pam8 = constellation.make_pam(8)
    configs = {
        d: montecarlo.SimConfig(trials=SIM_TRIALS, seed=seed,
                                snr_db_grid=SIM_GRID_DB, demodulator=d)
        for d in SIM_DEMODS
    }
    task.extra = {"symbols_per_demod": SIM_TRIALS * len(SIM_GRID_DB)}
    task.mark_ready()

    estimates = {}
    with task.traced():
        for op, d in enumerate(SIM_DEMODS):
            task.set_op(op)
            start = perf_counter()
            try:
                estimates[d] = montecarlo.simulate(brgc, pam8, configs[d])
            except Exception as exc:  # counted per point below
                task.errors[type(exc).__name__] += 1
            task.parts[d] = perf_counter() - start
    for d in SIM_DEMODS:
        task.attempted += len(SIM_GRID_DB)
        points = estimates.get(d)
        if points is None:
            task.failed += len(SIM_GRID_DB)
            continue
        bad = sum(not math.isfinite(e.ber) for e in points)
        if bad:
            task.failed += bad
            task.errors["non-finite"] += bad
    if len(estimates) < len(SIM_DEMODS):
        return

    errors = {d: [e.bit_errors for e in estimates[d]] for d in SIM_DEMODS}
    task.extra["bit_errors"] = errors
    task.check(errors["sd"] == errors["abd"],
               f"SD and ABD bit errors differ: {errors['sd']} vs {errors['abd']}")
    if seed == DEFAULT_SEED:
        want = json.loads(oracles.read_text("montecarlo_seed0.json"))
        task.check(errors == want, f"seed-0 bit errors {errors}, reference {want}")
    indices = sorted(brgc.pattern_set)
    for d in SIM_DEMODS:
        for est in estimates[d]:
            params = demod.ChannelParams.from_db(est.snr_db)
            closed = oracles.labeling_midpoint_ber(8, indices, params.snr)
            upper_only = False
            if d == "bd":
                try:
                    closed = analytic.labeling_ber(brgc, pam8, params, "bd")
                except Exception as exc:  # no BD closed form: BD <= ABD still holds
                    upper_only = True
                    task.extra.setdefault("bd_closed_form_errors", []).append(
                        f"{est.snr_db} dB: {type(exc).__name__}")
            task.check(oracles.binomial_ok(est.bit_errors, est.bits_sent, closed, upper_only),
                       f"{d} at {est.snr_db} dB: {est.bit_errors}/{est.bits_sent} "
                       f"outside {oracles.BINOMIAL_Z} sigma of {closed!r}")


def task_cli(task: Task, seed: int) -> None:
    rng = seeded_rng(seed, "cli")
    order = [str(n) for n in rng.permutation(sorted(CLI_COMMANDS))]
    task.mark_ready()

    outputs = {}
    probes = []
    for name in order:
        if task.tracer is not None:
            # a cold import right before each invocation, for work = invocation - import
            start = perf_counter()
            subprocess.run([sys.executable, "-c", "import pamber.cli"], check=True,
                           timeout=CLI_TIMEOUT_S)
            probes.append(perf_counter() - start)
        start = perf_counter()
        stdout = task.invoke(name, [sys.executable, "-m", "pamber.cli", *CLI_COMMANDS[name][0]])
        task.parts[name] = perf_counter() - start
        if stdout is not None:
            outputs[name] = oracles.csv_body(stdout)
    task.latencies = {"invocation": [task.parts[name] for name in order]}
    task.extra = {"order": order, "import_probes": probes}

    for name, body in outputs.items():
        _, atol, rtol = CLI_COMMANDS[name]
        if name in CLI_ORACLE_FOR:
            abd = oracles.ber_rows(oracles.read_text(f"cli/{CLI_ORACLE_FOR[name]}.csv"))
            for snr_db, bd in oracles.ber_rows(body).items():
                task.check(snr_db in abd and oracles.bd_within_abd(bd, abd[snr_db]),
                           f"{name} at {snr_db} dB: BD {bd!r} exceeds ABD")
            continue
        problem = oracles.body_mismatch(body, oracles.read_text(f"cli/{name}.csv"), atol, rtol)
        task.check(problem is None, f"{name}: {problem}")


def _ns_per(call, count: int, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return sorted(times)[reps // 2] / count * 1e9


def task_baselines(task: Task, seed: int) -> None:
    """Fixed-size layer measurements: L-value kernels, bare RNG, verify."""
    import numpy as np
    from pamber import constellation, demod, montecarlo, verify

    brgc = constellation.named_labeling("BRGC", 8)
    pam8 = constellation.make_pam(8)
    params = demod.ChannelParams.from_db(10.0)
    rng = seeded_rng(seed, "baselines")
    sent = rng.integers(0, 8, KERNEL_SAMPLES)
    y = pam8.points[sent] + params.noise_std * rng.standard_normal(KERNEL_SAMPLES)
    task.mark_ready()

    layer = {
        "demod.exact_llr.ns_per_sample": _ns_per(
            lambda: demod.exact_llr(y, brgc, pam8, params), KERNEL_SAMPLES),
        "demod.maxlog_llr.ns_per_sample": _ns_per(
            lambda: demod.maxlog_llr(y, brgc, pam8, params), KERNEL_SAMPLES),
        "demod.sd_decide.ns_per_sample": _ns_per(
            lambda: demod.sd_decide(y, brgc, pam8), KERNEL_SAMPLES),
    }

    chunk = getattr(montecarlo, "_CHUNK", 1 << 18)

    def bare_rng():
        gen = np.random.default_rng(seed)
        done = 0
        while done < SIM_TRIALS:
            n = min(chunk, SIM_TRIALS - done)
            gen.integers(0, 8, n)
            gen.standard_normal(n)
            done += n

    layer["montecarlo.rng.ns_per_sym"] = _ns_per(bare_rng, SIM_TRIALS)

    results = verify.run_all()
    for r in results:
        layer[f"verify.{r.name}.s"] = r.seconds
        task.check(r.passed, f"verify {r.name}: {r.detail}")
    layer["verify.total_s"] = sum(r.seconds for r in results)
    task.extra = {"layer": layer}


TASKS = {
    "census8": task_census8,
    "classes16": task_classes16,
    "curves": task_curves,
    "simulate": task_simulate,
    "cli": task_cli,
    "baselines": task_baselines,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--task", required=True, choices=sorted(TASKS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="CSV path for the traced spans")
    args = parser.parse_args(argv)

    import pamber  # noqa: F401  -- part of set-up: every task pays the cold import

    task = Task(tracing.Tracer() if args.trace else None)
    TASKS[args.task](task, args.seed)
    task.calibrate()
    if task.tracer is not None and args.spans:
        task.tracer.write_csv(args.spans)
    out = task.result()
    out["pamber_file"] = os.path.abspath(pamber.__file__)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
