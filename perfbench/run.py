"""pamber benchmark: four workloads, end-to-end metrics, and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload curves --seed 0 --seconds 20 --trace 0

``--workload`` is one of enumerate, curves, simulate, cli, or ``all``
(the default), which runs the four in turn.  The load is a closed loop:
one caller, passes back to back, each task of a pass in a fresh
interpreter, one process at a time.  A run repeats passes for
``--seconds`` seconds, and at least three times.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of one untraced and one traced pass plus the fixed-size layer
baselines.  Every output is checked; the run exits 1 on a mismatch, and
2 or 3 without a result when the program or a task cannot run at all.
Detailed results, provenance and traced spans go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import benchstats
import tracing

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench"

WORKLOADS = {
    "enumerate": ("census8", "classes16"),
    "curves": ("curves",),
    "simulate": ("simulate",),
    "cli": ("cli",),
}
MIN_PASSES = 3
# Median runner.calibration_rep() time on the machine the benchmark was
# defined on (2-core Xeon, Python 3.11.7, numpy 2.4.6).  The end-to-end
# times are divided by each process's own calibration relative to this, so
# they read as seconds at that machine's speed and drifts in the speed a
# shared host gives the benchmark cancel out.  Raw wall times stay in the
# report and the result file.
CALIBRATION_REF_S = 0.066
BUDGET_S = 150          # no pass starts that would likely end after this
CHILD_TIMEOUT_S = 170
IMPORT_PROBES = 3
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "ops_ok_frac": "ratio",
}

VERIFY_CHECKS = (
    "pattern-class-tables", "class-counts-closed-form", "named-labeling-coefficients",
    "labeling-census", "sd-abd-equivalence", "dual-form-and-quadrature",
    "leading-weight-grouping", "bd-abd-closeness", "montecarlo-consistency",
    "curve-population",
)

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    "pattern_classes.enumerate_s.M16": "s",
    "pattern_classes.patterns_visited.M16": "count",
    "analytic.pattern_coefficients.calls": "count",
    "analytic.pattern_coefficients.distinct": "count",
    "analytic.pattern_coefficients.useful_ratio": "ratio",
    "analytic.pattern_coefficients.self_s": "s",
    "labeling_space.candidates": "count",
    "labeling_space.accepted": "count",
    "labeling_space.accept_ratio": "ratio",
    "labeling_space.census.self_s": "s",
    "constellation.labeling_build.calls": "count",
    "constellation.labeling_build.us": "us",
    "thresholds.bd.calls": "count",
    "thresholds.bd.failed": "count",
    "thresholds.bd.multi_crossing_warnings": "count",
    "thresholds.bd.ms_p50": "ms",
    "thresholds.bd.ms_p90": "ms",
    "thresholds.bd.self_s": "s",
    "thresholds.llr_calls": "count",
    "thresholds.llr_samples": "count",
    "analytic.pber_general.us_p50": "us",
    "analytic.labeling_ber_abd.us_p50": "us",
    "demod.pattern_exact_llr.us_per_call": "us",
    "demod.exact_llr.ns_per_sample": "ns/sample",
    "demod.maxlog_llr.ns_per_sample": "ns/sample",
    "demod.sd_decide.ns_per_sample": "ns/sample",
    "montecarlo.rng.ns_per_sym": "ns/sym",
    **{f"montecarlo.simulate.ns_per_sym.{d}": "ns/sym" for d in ("sd", "abd", "bd")},
    **{f"montecarlo.overhead_ratio.{d}": "ratio" for d in ("sd", "abd", "bd")},
    "cli.import_s": "s",
    "cli.import.scipy_special_s": "s",
    "cli.import.scipy_optimize_s": "s",
    "cli.import.scipy_integrate_s": "s",
    "cli.work_ms_p50": "ms",
    **{f"verify.{name}.s": "s" for name in VERIFY_CHECKS},
    "verify.total_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in THREAD_ENV:   # the load uses no threads
        env[name] = "1"
    return env


def run_process(argv: list[str], env) -> tuple[float, subprocess.CompletedProcess]:
    """Run ``argv`` in its own session, waiting for it; return spawn time and result."""
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1:4]} did not finish in {CHILD_TIMEOUT_S} s") from None
    return spawned, subprocess.CompletedProcess(argv, proc.returncode, out, err)


def run_task(task: str, seed: int, env, spans: Path | None = None) -> dict:
    argv = [sys.executable, str(HERE / "runner.py"), "--task", task, "--seed", str(seed)]
    if spans is not None:
        argv += ["--trace", "--spans", str(spans)]
    spawned, proc = run_process(argv, env)
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-3:]
        raise BenchError(f"task {task} exited {proc.returncode}: {' | '.join(tail)}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result.pop("pamber_file")).is_relative_to(ROOT / "src"):
        raise BenchError("pamber was not imported from this checkout's src/")
    result["setup_s"] = result.pop("ready") - spawned
    return result


def run_pass(workload: str, seed: int, env, index: int, trace: bool = False) -> dict:
    """One pass: every task of the workload, each in a fresh interpreter.

    Pass ``index`` runs with hash seed ``index``, so every run averages
    over the same memory layouts instead of a random one per process.
    """
    env = {**env, "PYTHONHASHSEED": str(index)}
    start = time.monotonic()
    results = []
    for task in WORKLOADS[workload]:
        spans = OUT / f"spans-{workload}-{task}-seed{seed}.csv" if trace else None
        results.append(run_task(task, seed, env, spans))
    merged = {
        "wall_s": time.monotonic() - start,
        "setup": [r["setup_s"] for r in results],
        "calibration": [c for r in results for c in r["calibration"]],
        "pass_s": sum(r["pass_s"] for r in results),
        "parts": {k: v for r in results for k, v in r["parts"].items()},
        "latencies": {k: v for r in results for k, v in r["latencies"].items()},
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "errors": sum((Counter(r["errors"]) for r in results), Counter()),
        "warnings": sum((Counter(r["warnings"]) for r in results), Counter()),
        "mismatches": [m for r in results for m in r["mismatches"]],
        "extra": {task: r["extra"] for task, r in zip(WORKLOADS[workload], results)},
    }
    if trace:
        merged["layer"] = tracing.merge_layer_metrics([r["layer"] for r in results])
        merged["tracer"] = {task: r["tracer"] for task, r in zip(WORKLOADS[workload], results)}
    return merged


def run_passes(workload: str, seed: int, seconds: float, env) -> list[dict]:
    start = time.monotonic()
    passes: list[dict] = []
    while True:
        passes.append(run_pass(workload, seed, env, len(passes)))
        elapsed = time.monotonic() - start
        expected = statistics.median(p["wall_s"] for p in passes)
        if elapsed + expected > BUDGET_S:
            break
        if len(passes) >= MIN_PASSES and elapsed + expected > seconds:
            break
    return passes


def end_to_end(passes: list[dict]) -> dict[str, float]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    factor = slowdown(passes)
    return {
        "setup_s": statistics.median(s for p in passes for s in p["setup"]) / factor,
        # Each part (a task's step, or one CLI command) takes its median
        # over passes before summing, so one slow outlier moves nothing.
        "pass_s": sum(_median_part(passes, part) for part in passes[0]["parts"]) / factor,
        "ops_ok_frac": (attempted - failed) / attempted,
    }


def slowdown(passes: list[dict]) -> float:
    """The run's median calibration time over its reference."""
    return statistics.median(c for p in passes for c in p["calibration"]) / CALIBRATION_REF_S


def _median_part(passes, part: str) -> float:
    return statistics.median(p["parts"][part] for p in passes)


def _latency_ms(values: list[float]) -> tuple[float, float | None, str]:
    """Median, p90 (None if the percentile rule forbids it) and a note, in ms."""
    p90 = benchstats.percentile(values, 0.9)
    q, top = benchstats.highest_percentile(values) or (0.5, statistics.median(values))
    note = f"n={len(values)}; highest percentile with 10 samples beyond it: p{q * 100:g} = {top * 1e3:.4g} ms"
    return statistics.median(values) * 1e3, None if p90 is None else p90 * 1e3, note


def named_figures(workload: str, passes: list[dict]) -> list[tuple[str, object, str, str]]:
    """The workload's figures under their own names: (name, value, unit, note)."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    setups = [s for p in passes for s in p["setup"]]
    rows = [
        ("setup_s", statistics.median(setups), "s",
         f"wall, median of {len(setups)} cold starts"),
        ("slowdown", slowdown(passes), "ratio",
         "calibration time over its reference; the end-to-end times are divided by it"),
        ("ops_failed_frac", failed / attempted, "ratio",
         f"{failed} failed of {attempted} attempted operations"),
    ]
    if workload == "enumerate":
        rows += [("census8_s", _median_part(passes, "census8"), "s", "labeling_census(8)"),
                 ("classes16_s", _median_part(passes, "classes16"), "s", "enumerate_classes(16)")]
    elif workload == "curves":
        for kind in ("bd", "abd"):
            points = passes[0]["extra"]["curves"][f"{kind}_points"]
            rate = statistics.median(points / p["parts"][kind] for p in passes)
            rows.append((f"{kind}_points_per_s", rate, "1/s", f"{points} attempted points per pass"))
        p50, p90, note = _latency_ms([v for p in passes for v in p["latencies"]["bd"]])
        rows += [("bd_point_p50_ms", p50, "ms", note), ("bd_point_p90_ms", p90, "ms", note)]
    elif workload == "simulate":
        symbols = passes[0]["extra"]["simulate"]["symbols_per_demod"]
        for d in ("sd", "abd", "bd"):
            rate = statistics.median(symbols / p["parts"][d] for p in passes) * 1e-6
            rows.append((f"sim_msym_per_s.{d}", rate, "Msym/s", f"{symbols} symbols per demodulator and pass"))
    elif workload == "cli":
        p50, _, note = _latency_ms([v for p in passes for v in p["latencies"]["invocation"]])
        rows.append(("cli_p50_ms", p50, "ms", note))
    return rows


def import_breakdown(env) -> dict[str, float]:
    """Cold ``import pamber.cli``: wall time, and scipy submodules from -X importtime."""
    walls = []
    for _ in range(IMPORT_PROBES):
        spawned, proc = run_process([sys.executable, "-c", "import pamber.cli"], env)
        walls.append(time.monotonic() - spawned)
        if proc.returncode != 0:
            raise BenchError(f"cold import failed: {proc.stderr.strip()[-200:]}")
    _, proc = run_process([sys.executable, "-X", "importtime", "-c", "import pamber.cli"], env)
    cumulative = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) * 1e-6
    return {
        "cli.import_s": statistics.median(walls),
        "cli.import.scipy_special_s": cumulative.get("scipy.special", 0.0),
        "cli.import.scipy_optimize_s": cumulative.get("scipy.optimize", 0.0),
        "cli.import.scipy_integrate_s": cumulative.get("scipy.integrate", 0.0),
    }


def traced_run(workload: str, seed: int, env) -> tuple[list[dict], dict[str, float], list[str]]:
    """One untraced and one traced pass, then the fixed-size baselines."""
    plain = run_pass(workload, seed, env, 0)
    traced = run_pass(workload, seed, env, 0, trace=True)
    base = run_task("baselines", seed, env)
    layer = dict(traced["layer"])
    layer.update(base["extra"]["layer"])
    layer.update(import_breakdown(env))
    for d in ("sd", "abd", "bd"):
        sim = layer[f"montecarlo.simulate.ns_per_sym.{d}"]
        layer[f"montecarlo.overhead_ratio.{d}"] = sim / layer["montecarlo.rng.ns_per_sym"]
    invocations = traced["latencies"].get("invocation", [])
    probes = traced["extra"].get("cli", {}).get("import_probes", [])
    layer["cli.work_ms_p50"] = benchstats.median_or_zero(
        inv - probe for inv, probe in zip(invocations, probes)) * 1e3
    layer["trace.overhead_frac"] = (
        (traced["pass_s"] / slowdown([traced])) / (plain["pass_s"] / slowdown([plain])) - 1.0)
    # A verify check added later is timed in verify.total_s only; one
    # removed later reads 0, like any layer the workload does not reach.
    return [plain, traced], {k: layer.get(k, 0.0) for k in PER_LAYER}, base["mismatches"]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, env) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "seed": seed,
        "threads_env": {k: env.get(k) for k in THREAD_ENV},
        "python_hash_seed": "pass index: 0, 1, 2, ...",
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env) -> dict:
    if trace:
        passes, metrics, extra_mismatches = traced_run(workload, seed, env)
        units = PER_LAYER
    else:
        passes = run_passes(workload, seed, seconds, env)
        metrics, extra_mismatches = end_to_end(passes), []
        units = END_TO_END
    mismatches = [m for p in passes for m in p["mismatches"]] + extra_mismatches
    return {
        "workload": workload,
        "passes": len(passes),
        "correct": not mismatches,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "errors": dict(sum((p["errors"] for p in passes), Counter())),
        "warnings": dict(sum((p["warnings"] for p in passes), Counter())),
        "mismatches": mismatches[:50],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "figures": named_figures(workload, passes[:1] if trace else passes),
        "tracer": passes[-1].get("tracer"),
    }


def report(result: dict) -> None:
    print(f"workload {result['workload']}: {result['passes']} passes, "
          f"{result['attempted']} operations attempted, {result['failed']} failed "
          f"{result['errors'] or ''}, warnings {result['warnings'] or 'none'}")
    for name, value, unit, note in result["figures"]:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<24} {shown:>12} {unit:<7} {note}")
    for name, metric in result["metrics"].items():
        print(f"  [metric] {name:<44} {metric['value']:.6g} {metric['unit']}")
    for line in result["mismatches"]:
        print(f"  MISMATCH {line}")
    print(f"  correct: {result['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pamber" / "__init__.py").is_file():
        print(f"perfbench: no src/pamber under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()
    prov = provenance(args.seed, env)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace), env) for w in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    for result in results:
        report(result)
        path = OUT / f"result-{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"provenance": prov, **result}, indent=1), encoding="utf-8")
    print("provenance " + json.dumps(prov))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
