"""Regenerate the benchmark's committed reference data.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

It writes, under ``perfbench/reference/``:

* ``census8.sha256`` -- digest of the full 8-PAM labeling census
  (weights, witness pattern set, population per class);
* ``classes_M16.csv.gz`` -- the 16-PAM class table in ``pamber classes``
  format (the 8-PAM table is ``cli/classes_m8.csv``);
* ``montecarlo_seed0.json`` -- bit errors of the ``simulate`` workload at
  the default seed, per demodulator and SNR;
* ``cli/<name>.csv`` -- the CSV body, without ``#`` lines, of every CLI
  command of the ``cli`` workload that succeeds.

Regenerate only when pamber's outputs change on purpose.
"""

from __future__ import annotations

import gzip
import json
import subprocess
import sys

import oracles
import runner


def main() -> int:
    from pamber import constellation, labeling_space, montecarlo, pattern_classes

    ref = oracles.REFERENCE
    (ref / "cli").mkdir(parents=True, exist_ok=True)

    census = labeling_space.labeling_census(8)
    (ref / "census8.sha256").write_text(
        f"{oracles.census_digest(census)}  {len(census)} classes\n", encoding="utf-8")

    table = "representative,members,symmetry,coefficients\n" + "".join(
        line + "\n" for line in oracles.class_table_lines(pattern_classes.enumerate_classes(16)))
    (ref / "classes_M16.csv.gz").write_bytes(gzip.compress(table.encode(), mtime=0))

    brgc = constellation.named_labeling("BRGC", 8)
    pam8 = constellation.make_pam(8)
    errors = {}
    for d in runner.SIM_DEMODS:
        config = montecarlo.SimConfig(trials=runner.SIM_TRIALS, seed=runner.DEFAULT_SEED,
                                      snr_db_grid=runner.SIM_GRID_DB, demodulator=d)
        errors[d] = [e.bit_errors for e in montecarlo.simulate(brgc, pam8, config)]
    (ref / "montecarlo_seed0.json").write_text(json.dumps(errors) + "\n", encoding="utf-8")

    for name, (argv, _, _) in runner.CLI_COMMANDS.items():
        proc = subprocess.run([sys.executable, "-m", "pamber.cli", *argv],
                              capture_output=True, text=True, timeout=runner.CLI_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}, no body written: "
                  f"{proc.stderr.strip()}", file=sys.stderr)
            continue
        (ref / "cli" / f"{name}.csv").write_text(oracles.csv_body(proc.stdout), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
