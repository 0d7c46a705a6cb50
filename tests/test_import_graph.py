"""What a fresh interpreter loads: no pamber module and no command but verify
loads scipy, and only a simulate call loads the thread pool
(concurrent.futures, which loads logging).

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
# Modules whose import loads nothing heavy.  analytic is one of them: its
# Q-function is a numpy port, not scipy.special.
Q_FREE_MODULES = (
    "analytic",
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
    # only the closed forms import analytic
    assert "pamber.analytic" not in loaded - {f"pamber.{module}"}


def test_no_pamber_module_loads_scipy():
    package = Path(pamber.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert {"analytic", "cli", "verify"} <= set(modules)
    loaded = loaded_after("\n".join(f"import pamber.{m}" for m in modules))
    assert {f"pamber.{m}" for m in modules} <= loaded
    assert not scipy_modules(loaded), sorted(scipy_modules(loaded))


def test_cli_classes_run_leaves_out_scipy_special():
    loaded = loaded_after(cli_run("classes", "--M", "4"))
    assert "pamber.pattern_classes" in loaded
    assert not loaded & set(HEAVY)


# Every command but verify gives output that does not depend on scipy.
SCIPY_FREE_RUNS = {
    "ber": ("ber", "--M", "4", "--labeling", "brgc", "--snr", "3"),
    "ber_bd": ("ber", "--M", "4", "--pattern", "5", "--demod", "bd", "--snr", "0:5:10"),
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


def test_cli_ber_run_evaluates_q():
    # so the ber runs above load no scipy while they evaluate the Q-function
    assert "pamber.analytic" in loaded_after(cli_run(*SCIPY_FREE_RUNS["ber"]))


def test_scipy_shows_where_it_is_loaded():
    # the checks above would pass vacuously if the helper never showed scipy:
    # verify's quadrature oracle loads scipy.integrate
    loaded = loaded_after(
        "from pamber import verify\n"
        "from pamber.constellation import make_pam, pattern_from_index\n"
        "from pamber.demod import ChannelParams\n"
        "from pamber.thresholds import ThresholdSet\n"
        "c, p = make_pam(4), pattern_from_index(4, 5)\n"
        "verify._quadrature_pber(p, c, ThresholdSet(c.midpoints(), p.bits), ChannelParams(2.0))"
    )
    assert "scipy.integrate" in scipy_modules(loaded)


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
