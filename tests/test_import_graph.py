"""What a fresh interpreter loads and needs: numpy is the only runtime
dependency, so every pamber module and every command, ``verify`` included,
runs with scipy blocked; and only a simulate call loads the thread pool
(concurrent.futures, which loads logging).

The README example runs in a fresh interpreter too, so that a removed or
renamed name cannot linger in the docs.
"""

import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import pamber

SRC = str(Path(pamber.__file__).resolve().parents[1])
# Modules whose import loads nothing heavy.
LIGHT_MODULES = (
    "analytic",
    "constellation",
    "demod",
    "thresholds",
    "pattern_classes",
    "labeling_space",
    "montecarlo",
)

# Left out of a cold start that does not need them.
HEAVY = ("concurrent.futures", "logging")


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
        + f" if m in {HEAVY!r} or m.startswith('pamber.')))"
    )
    return set(out.splitlines()[-1].split())


def test_import_pamber_loads_no_submodule():
    assert loaded_after("import pamber") == set()


@pytest.mark.parametrize("module", ["cli", *LIGHT_MODULES])
def test_modules_load_nothing_heavy(module):
    loaded = loaded_after(f"import pamber.{module}")
    assert f"pamber.{module}" in loaded
    assert not loaded & set(HEAVY)
    # only the closed forms import analytic
    assert "pamber.analytic" not in loaded - {f"pamber.{module}"}


def test_cli_classes_run_loads_nothing_heavy():
    loaded = loaded_after("from pamber.cli import main\nassert main(['classes', '--M', '4']) == 0")
    assert "pamber.pattern_classes" in loaded
    assert not loaded & set(HEAVY)


# One run of each subcommand.
RUNS = (
    ("ber", "--M", "4", "--labeling", "brgc", "--snr", "3"),
    ("ber", "--M", "4", "--pattern", "5", "--demod", "bd", "--snr", "0:5:10"),
    ("classes", "--M", "4"),
    ("labelings", "--M", "4"),
    ("llr", "--M", "4", "--labeling", "brgc", "--snr", "3", "--y=-1:0.5:1"),
    ("thresholds", "--M", "4", "--pattern", "5", "--snr", "0:5:10"),
    ("simulate", "--M", "4", "--labeling", "brgc", "--snr", "5", "--trials", "10000"),
    ("verify",),
)


def test_every_module_and_command_runs_with_scipy_blocked():
    package = Path(pamber.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert {"analytic", "cli", "verify"} <= set(modules)
    out = fresh(
        "import sys\n"
        "sys.modules['scipy'] = None  # an import of scipy or a submodule now fails\n"
        "try:\n"
        "    import scipy.integrate\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('scipy is not blocked')\n"
        + "".join(f"import pamber.{m}\n" for m in modules)
        + "from pamber.cli import build_parser, main\n"
        f"runs = {RUNS!r}\n"
        "commands = build_parser()._subparsers._group_actions[0].choices\n"
        "assert {run[0] for run in runs} == commands.keys(), sorted(commands)\n"
        "print('exit', *[main(list(run)) for run in runs])"
    )
    assert out.splitlines()[-1] == "exit" + " 0" * len(RUNS), out
    assert "10/10 checks passed" in out, out


def test_cli_ber_run_evaluates_q():
    # so the blocked run above evaluates the Q-function without scipy
    loaded = loaded_after(f"from pamber.cli import main\nassert main({list(RUNS[0])!r}) == 0")
    assert "pamber.analytic" in loaded


def test_runtime_dependencies_are_numpy_alone():
    project = tomllib.loads((Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["dependencies"] == ["numpy>=2.0"]
    assert any(d.startswith("scipy") for d in project["project"]["optional-dependencies"]["test"])


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
