"""Self-tests of the benchmark: percentile rule, oracles, failure counting, tracing."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import benchstats  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import tracing  # noqa: E402


# --- percentile rule ------------------------------------------------------

@pytest.mark.parametrize("n, q, allowed", [
    (19, 0.5, False), (20, 0.5, True),
    (99, 0.9, False), (100, 0.9, True),
    (999, 0.99, False), (1000, 0.99, True),
])
def test_percentile_needs_ten_samples_beyond(n, q, allowed):
    assert (benchstats.percentile(range(n), q) is not None) is allowed


def test_percentile_interpolates_linearly():
    assert benchstats.percentile(range(20), 0.5) == pytest.approx(9.5)
    assert benchstats.percentile(range(100), 0.9) == pytest.approx(89.1)


def test_highest_percentile_picks_the_highest_allowed():
    assert benchstats.highest_percentile(range(1000))[0] == 0.99
    assert benchstats.highest_percentile(range(150))[0] == 0.9
    assert benchstats.highest_percentile(range(10)) is None


# --- oracles ----------------------------------------------------------------

def test_midpoint_oracle_matches_bpsk_closed_form():
    for snr in (0.1, 1.0, 10.0):
        want = 0.5 * math.erfc(math.sqrt(snr))
        assert oracles.rel_close(oracles.midpoint_pber(2, 1, snr), want, 1e-13)


def test_midpoint_oracle_matches_pamber_for_every_8pam_pattern():
    from pamber import ChannelParams, pattern_from_index, pber_pam

    for w in oracles.balanced_patterns(8):
        for snr_db in (-5.0, 5.0, 20.0):
            params = ChannelParams.from_db(snr_db)
            got = pber_pam(pattern_from_index(8, w), params)
            assert oracles.rel_close(got, oracles.midpoint_pber(8, w, params.snr),
                                     oracles.ABD_RTOL)


def test_oracles_reject_wrong_answers():
    abd = oracles.midpoint_pber(8, 102, 10.0)
    assert not oracles.rel_close(abd * (1 + 1e-10), abd, oracles.ABD_RTOL)
    assert oracles.bd_within_abd(abd, abd)
    assert not oracles.bd_within_abd(abd * (1 + 1e-10), abd)
    assert oracles.binomial_ok(1000, 100_000, 0.01)
    assert not oracles.binomial_ok(1200, 100_000, 0.01)
    assert not oracles.binomial_ok(800, 100_000, 0.01)
    assert oracles.binomial_ok(800, 100_000, 0.01, upper_only=True)


def test_labeling_oracle_is_the_column_average():
    from pamber import ChannelParams, labeling_ber_pam, named_labeling

    brgc = named_labeling("BRGC", 8)
    params = ChannelParams.from_db(7.0)
    got = oracles.labeling_midpoint_ber(8, sorted(brgc.pattern_set), params.snr)
    assert oracles.rel_close(got, labeling_ber_pam(brgc, params), oracles.ABD_RTOL)


def test_seeded_labelings_are_bijective_and_repeatable():
    import numpy as np

    a = oracles.random_labeling_indices(np.random.default_rng(5), 8, 20)
    b = oracles.random_labeling_indices(np.random.default_rng(5), 8, 20)
    assert a == b
    assert all(oracles.is_bijective(8, s) for s in a)
    assert not oracles.is_bijective(8, (15, 15, 60))


def test_body_comparison():
    want = "snr_db,ber\n0,0.25\n1,0.125\n"
    assert oracles.body_mismatch(want, want) is None
    assert oracles.body_mismatch(want.replace("0.125", "0.1250001"), want) is not None
    nudged = want.replace("0.125", "0.12500000000001")
    assert oracles.body_mismatch(nudged, want, atol=1e-9) is None
    assert oracles.body_mismatch(want.replace("0.125", "0.126"), want, atol=1e-9) is not None
    assert oracles.body_mismatch(want.replace("snr_db", "snr"), want, atol=1e-9) is not None
    assert oracles.csv_body("# pamber ber M=8\n" + want) == want


def test_committed_references_are_consistent():
    members = oracles.read_class_members("cli/classes_m8.csv")
    assert len(members) == 23 and sum(len(m) for m in members) == 70
    m16 = oracles.csv_body(oracles.read_text("classes_M16.csv.gz")).splitlines()
    assert len(m16) == 1 + 3299
    errors = json.loads(oracles.read_text("montecarlo_seed0.json"))
    assert errors["sd"] == errors["abd"]
    assert set(runner.CLI_COMMANDS) - set(runner.CLI_ORACLE_FOR) == {
        p.stem for p in (oracles.REFERENCE / "cli").glob("*.csv")}


# --- failure counting -----------------------------------------------------

def test_attempt_counts_exceptions_and_non_finite_results():
    from pamber import ChannelParams

    task = runner.Task(None)
    assert task.attempt(lambda: 0.5) == 0.5
    assert task.attempt(lambda: ChannelParams(-1.0)) is None      # rejected input
    assert task.attempt(lambda: float("nan")) is None
    assert task.attempt(lambda: float("inf")) is None
    assert (task.attempted, task.failed) == (4, 3)
    assert task.errors == {"ValueError": 1, "non-finite": 2}


def test_invoke_counts_nonzero_exits():
    task = runner.Task(None)
    assert task.invoke("ok", [sys.executable, "-c", "print('a,b')"]) == "a,b\n"
    assert task.invoke("bad", [sys.executable, "-c", "raise SystemExit(3)"]) is None
    assert (task.attempted, task.failed) == (2, 1)
    assert task.errors == {"bad: exit 3": 1}


# --- tracing ---------------------------------------------------------------

def test_tracer_restores_patched_functions_and_skips_missing_targets(monkeypatch):
    from pamber import analytic, constellation, labeling_space

    before = (analytic.pattern_coefficients, labeling_space.is_bijective_set,
              constellation.Labeling.__post_init__)
    targets = tracing.TARGETS + (("pamber.analytic", "no_such_function", "analytic.gone", None),
                                 ("pamber.no_such_module", "f", "gone.f", None))
    monkeypatch.setattr(tracing, "TARGETS", targets)
    with tracing.Tracer() as tracer:
        assert analytic.pattern_coefficients is not before[0]
        labeling_space.labeling_census(4)
    after = (analytic.pattern_coefficients, labeling_space.is_bijective_set,
             constellation.Labeling.__post_init__)
    assert after == before
    assert "pamber.analytic.no_such_function" in tracer.skipped
    assert "pamber.no_such_module.f" in tracer.skipped
    metrics = tracing.layer_metrics(tracer)
    assert metrics["labeling_space.candidates"] == 15          # C(6, 2) pattern pairs
    assert metrics["labeling_space.accepted"] == 12
    assert metrics["analytic.pattern_coefficients.distinct"] == 6
    assert metrics["thresholds.bd.ms_p90"] == 0.0               # not exercised


def test_self_time_subtracts_direct_children():
    spans = [
        tracing.Span(0, -1, 0, "a.outer", 0, 100, True, None),
        tracing.Span(1, 0, 0, "b.inner", 10, 40, True, None),
        tracing.Span(2, 1, 0, "c.leaf", 15, 25, True, None),
    ]
    assert [round(s * 1e9) for s in tracing.self_times(spans)] == [70, 20, 10]


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
