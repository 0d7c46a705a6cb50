"""What a fresh interpreter loads: only the Q-function path pays for scipy,
and only a simulate call for the thread pool (concurrent.futures, which loads logging).

The README example runs in a fresh interpreter too, so that a removed or
renamed name cannot linger in the docs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pamber

SRC = str(Path(pamber.__file__).resolve().parents[1])
Q_FREE_MODULES = (
    "constellation",
    "demod",
    "thresholds",
    "pattern_classes",
    "labeling_space",
    "montecarlo",
)

# Left out of a cold start that does not need them.
HEAVY = ("scipy.special", "concurrent.futures", "logging")


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports pamber from this tree."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code: str) -> set[str]:
    """The modules of interest in ``sys.modules`` once ``code`` has run."""
    out = fresh(
        code
        + "\nimport sys"
        + "\nprint(*sorted(m for m in sys.modules"
        + f" if m in {HEAVY!r} or m.startswith(('pamber.', 'scipy'))))"
    )
    return set(out.splitlines()[-1].split())


def scipy_modules(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m == "scipy" or m.startswith("scipy.")}


def cli_run(*argv: str) -> str:
    """Code that runs ``pamber *argv`` as ``python -m pamber.cli`` does."""
    return (
        "import runpy, sys\n"
        f"sys.argv = ['pamber', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('pamber.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code"
    )


def test_import_pamber_loads_no_submodule():
    assert loaded_after("import pamber") == set()


@pytest.mark.parametrize("module", ["cli", *Q_FREE_MODULES])
def test_q_free_modules_leave_out_scipy_special(module):
    loaded = loaded_after(f"import pamber.{module}")
    assert f"pamber.{module}" in loaded
    assert not loaded & set(HEAVY)
    assert not scipy_modules(loaded)
    assert "pamber.analytic" not in loaded


def test_cli_classes_run_leaves_out_scipy_special():
    loaded = loaded_after(cli_run("classes", "--M", "4"))
    assert "pamber.pattern_classes" in loaded
    assert not loaded & set(HEAVY)


# Every command but ber (and verify) gives output that does not depend on scipy.
SCIPY_FREE_RUNS = {
    "classes": ("classes", "--M", "4"),
    "labelings": ("labelings", "--M", "4"),
    "llr": ("llr", "--M", "4", "--labeling", "brgc", "--snr", "3", "--y=-1:0.5:1"),
    "thresholds": ("thresholds", "--M", "4", "--pattern", "5", "--snr", "0:5:10"),
    "simulate": ("simulate", "--M", "4", "--labeling", "brgc", "--snr", "5",
                 "--trials", "10000"),
}


@pytest.mark.parametrize("command", sorted(SCIPY_FREE_RUNS))
def test_cli_runs_load_no_scipy_module(command):
    loaded = loaded_after(cli_run(*SCIPY_FREE_RUNS[command]))
    assert not scipy_modules(loaded), sorted(scipy_modules(loaded))


def test_cli_ber_run_loads_scipy_special():
    # the check above would pass vacuously if runs never showed scipy
    loaded = loaded_after(cli_run("ber", "--M", "4", "--labeling", "brgc", "--snr", "3"))
    assert "scipy.special" in loaded


def test_analytic_loads_scipy_special_when_imported():
    # The curves and simulate workloads import analytic during their set-up,
    # so the first Q evaluation must not pay for the import.
    assert "scipy.special" in loaded_after("import pamber.analytic")


def test_star_import_binds_every_public_name():
    out = fresh(
        "import pamber\n"
        "names = {}\n"
        "exec('from pamber import *', names)\n"
        "assert set(pamber.__all__) <= names.keys()\n"
        "assert set(pamber.__all__) <= set(dir(pamber))\n"
        "print(len(pamber.__all__))"
    )
    assert out.split() == ["30"]


def test_readme_example_runs():
    readme = (Path(SRC).parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library in one minute", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "simulate(gray, pam8, cfg)" in code
    fresh(code)
