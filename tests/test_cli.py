"""Command-line interface tests."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pamber
from pamber import (
    ChannelParams,
    bd_thresholds,
    make_pam,
    pattern_from_index,
    pber_general,
)
from pamber.cli import (
    MAX_GRID_POINTS,
    build_parser,
    main,
    parse_grid,
    parse_labeling,
    parse_pattern,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out.splitlines()


class TestParsing:
    def test_grid_forms(self):
        np.testing.assert_allclose(parse_grid("3"), [3.0])
        np.testing.assert_allclose(parse_grid("0:0.5:2"), [0, 0.5, 1, 1.5, 2])
        assert parse_grid("0:0.5:20").size == 41

    def test_grid_rejects_garbage(self):
        import argparse

        for bad in ("1:2", "0:-1:5", "5:1:0", "a:b:c"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_grid(bad)

    @pytest.mark.parametrize(
        "bad", ["nan", "inf", "-inf", "0:1:nan", "nan:1:5", "0:inf:5", "-inf:1:0"]
    )
    def test_grid_rejects_non_finite(self, bad):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="finite"):
            parse_grid(bad)

    def test_grid_caps_the_point_count(self):
        import argparse

        assert parse_grid("0:1:999999").size == MAX_GRID_POINTS
        for bad in ("0:1:1000000", "0:1e-7:1", "0:1e-300:1e300"):
            with pytest.raises(argparse.ArgumentTypeError, match="points"):
                parse_grid(bad)

    def test_grid_point_rounded_past_stop_may_overflow(self):
        # round(1.7) adds a point at 2e308, past stop: it overflows and is dropped
        assert parse_grid("0:1e308:1.7e308").tolist() == [0.0, 1e308]

    def test_overflowing_grid_point_prints_no_numpy_warning(self):
        src = str(Path(pamber.__file__).resolve().parents[1])
        argv = ["ber", "--M", "8", "--labeling", "brgc", "--snr", "3000:1e308:1.7e308"]
        proc = subprocess.run([sys.executable, "-m", "pamber.cli", *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "pamber: error: snr_db=1e+308 has no positive finite linear SNR"]

    def test_pattern_forms_agree(self):
        by_index = parse_pattern("102", 8)
        by_bits = parse_pattern("01100110", 8)
        by_commas = parse_pattern("0,1,1,0,0,1,1,0", 8)
        assert by_index == by_bits == by_commas

    def test_labeling_forms(self):
        assert parse_labeling("brgc", 8).pattern_set == frozenset({15, 60, 102})
        assert parse_labeling("15,60,102", 8).pattern_set == frozenset({15, 60, 102})

    @given(db=st.floats(-30.0, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_db_conversion_round_trip(self, db):
        assert 10 * math.log10(ChannelParams.from_db(db).snr) == pytest.approx(db, abs=1e-12)


class TestSubcommands:
    def test_classes_emits_23_rows(self, capsys):
        code, lines = run_cli(capsys, "classes", "--M", "8")
        assert code == 0
        assert lines[0].startswith("# pamber classes")
        assert lines[1] == "representative,members,symmetry,coefficients"
        assert len(lines) == 2 + 23
        assert lines[2] == "15,15 240,ARE,2 2 2 2 0 0 0"
        assert lines[-1] == "85,85 170,ARE,14 -12 10 -8 6 -4 2"

    def test_ber_grid_row_count_and_range(self, capsys):
        code, lines = run_cli(
            capsys, "ber", "--M", "8", "--labeling", "brgc", "--snr", "0:0.5:20"
        )
        assert code == 0
        data = [line.split(",") for line in lines[2:]]
        assert len(data) == 41
        values = [float(v) for _, v in data]
        assert all(0.0 < v < 0.5 for v in values)
        assert values == sorted(values, reverse=True)

    def test_ber_pattern_matches_labeling_average(self, capsys):
        _, pat_lines = run_cli(
            capsys, "ber", "--M", "4", "--pattern", "3", "--snr", "5"
        )
        _, lab_lines = run_cli(
            capsys, "ber", "--M", "4", "--labeling", "3,6", "--snr", "5"
        )
        p3 = float(pat_lines[2].split(",")[1])
        _, pat6 = run_cli(capsys, "ber", "--M", "4", "--pattern", "6", "--snr", "5")
        p6 = float(pat6[2].split(",")[1])
        avg = float(lab_lines[2].split(",")[1])
        assert avg == pytest.approx((p3 + p6) / 2, rel=1e-14)

    def test_thresholds_only_relevant_entries(self, capsys):
        code, lines = run_cli(
            capsys, "thresholds", "--M", "8", "--pattern", "15", "--snr", "0:5:10"
        )
        assert code == 0
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 3  # one boundary per SNR point
        assert all(k == "4" for _, k, _beta in rows)

    def test_thresholds_vanished_crossings_have_no_transition_index(self, capsys):
        code, lines = run_cli(
            capsys, "thresholds", "--M", "8", "--pattern", "102", "--snr=-5:5:0"
        )
        assert code == 0
        assert lines[1] == "snr_db,k,beta"
        rows = [line.split(",") for line in lines[2:]]
        # two crossings survive at -5 dB; all four transitions keep theirs at 0 dB
        assert [(snr, k) for snr, k, _ in rows] == [
            ("-5", ""), ("-5", ""), ("0", "1"), ("0", "3"), ("0", "5"), ("0", "7")
        ]
        c, pat = make_pam(8), pattern_from_index(8, 102)
        want = bd_thresholds(pat, c, ChannelParams.from_db(-5.0)).betas
        assert [float(beta) for _, _, beta in rows[:2]] == list(want)

    def test_llr_header_per_bit(self, capsys):
        code, lines = run_cli(
            capsys, "llr", "--M", "8", "--labeling", "brgc", "--snr", "10",
            "--y=-0.5:0.5:0.5",
        )
        assert code == 0
        assert lines[1] == "y,exact_1,exact_2,exact_3,maxlog_1,maxlog_2,maxlog_3"
        assert len(lines) == 2 + 3

    def test_simulate_csv_shape(self, capsys):
        code, lines = run_cli(
            capsys, "simulate", "--M", "4", "--labeling", "brgc",
            "--snr", "0:5:10", "--trials", "20000", "--seed", "3",
        )
        assert code == 0
        assert lines[1] == "snr_db,demod,ber,stderr,trials,seed"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 3
        assert all(row[1] == "abd" and row[4] == "20000" and row[5] == "3"
                   for row in rows)

    def test_labelings_census_for_4(self, capsys):
        code, lines = run_cli(capsys, "labelings", "--M", "4")
        assert code == 0
        assert len(lines) == 2 + 3
        assert lines[2].split(",")[1] == "BRGC"

    def test_provenance_header_names_parameters_and_versions(self, capsys):
        from pamber import __version__

        code, lines = run_cli(capsys, "ber", "--M", "8", "--labeling", "brgc",
                              "--snr", "0:1:2")
        assert code == 0
        assert lines[0] == (
            "# pamber ber M=8 demod=abd labeling=brgc snr=0:1:2 "
            f"pamber={__version__} numpy={np.__version__}"
        )
        # the header is a comment line; the body below it is unchanged
        assert lines[1] == "snr_db,ber"

    def test_provenance_fields_hold_no_whitespace(self, capsys):
        code, lines = run_cli(capsys, "ber", "--M", "8", "--labeling", " 15, 60,\t102 ",
                              "--snr", " 0:1:2")
        assert code == 0
        assert lines[0].startswith("# pamber ber ")
        fields = lines[0].split(" ")[3:]
        assert all(field.count("=") == 1 for field in fields), lines[0]
        assert "labeling=15,60,102" in fields and "snr=0:1:2" in fields
        code, lines = run_cli(capsys, "thresholds", "--M", "8", "--pattern", " 102",
                              "--snr", "10")
        assert code == 0
        assert "pattern=102" in lines[0].split(" ")


class TestStabilityAndErrors:
    def test_byte_stable_reruns(self, capsys):
        args = ("simulate", "--M", "8", "--labeling", "nbc", "--snr", "0:5:10",
                "--trials", "20000", "--seed", "11")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_full_precision_output(self, capsys):
        _, lines = run_cli(capsys, "ber", "--M", "8", "--labeling", "brgc",
                           "--snr", "7.3")
        value = lines[2].split(",")[1]
        assert float(value) == float(format(float(value), ".17g"))
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 16

    def test_classes_beyond_the_size_limit_fails_cleanly(self, capsys):
        assert main(["classes", "--M", "40"]) == 1
        assert "M <= 24, got 40" in capsys.readouterr().err

    def test_invalid_pattern_weight_fails_cleanly(self, capsys):
        code = main(["ber", "--M", "8", "--pattern", "3", "--snr", "0:1:2"])
        err = capsys.readouterr().err
        assert code == 1
        assert "weight" in err

    def test_unreadable_pattern_is_usage_error(self, capsys):
        # neither an index, a bit string nor comma-separated integers: a
        # usage error that names the three forms
        for text in ("foo", "1,0,x"):
            code = main(["ber", "--M", "8", "--pattern", text, "--snr", "0"])
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("usage: pamber ber:") and repr(text) in err
            assert "decimal index, a bit string, or comma-separated bits" in err
        # an index out of range stays a value error
        assert main(["ber", "--M", "8", "--pattern", "256", "--snr", "0"]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_vanished_thresholds_still_give_a_ber(self, capsys):
        # two of the four crossings of pattern 102 have vanished at -5 dB
        code, lines = run_cli(capsys, "ber", "--M", "8", "--pattern", "102",
                              "--demod", "bd", "--snr=-5")
        assert code == 0
        c, pat = make_pam(8), pattern_from_index(8, 102)
        params = ChannelParams.from_db(-5.0)
        want = pber_general(pat, c, bd_thresholds(pat, c, params), params)
        assert lines[2] == f"-5,{want:.17g}"

    def test_bd_labeling_curve_with_vanished_thresholds(self, capsys):
        args = ("ber", "--M", "8", "--labeling", "ag", "--snr", "0:1:20")
        code, bd_lines = run_cli(capsys, *args, "--demod", "bd")
        assert code == 0
        _, abd_lines = run_cli(capsys, *args, "--demod", "abd")
        assert len(bd_lines) == len(abd_lines) == 2 + 21
        for bd_row, abd_row in zip(bd_lines[2:], abd_lines[2:]):
            snr_bd, bd = bd_row.split(",")
            snr_abd, abd = abd_row.split(",")
            assert snr_bd == snr_abd
            assert float(bd) <= float(abd) * (1 + 1e-12)

    def test_simulate_at_unresolvable_snr_fails_with_the_snr(self, capsys):
        code = main(["simulate", "--M", "8", "--labeling", "brgc", "--snr=-300",
                     "--demod", "bd", "--trials", "10000"])
        assert code != 0
        assert "snr_db=-300 is too low" in capsys.readouterr().err

    def test_2pam_bd_commands_all_answer_at_minus_300_db(self, capsys):
        # 2-PAM's BD crossing is solved at every SNR, so simulate answers
        # where ber and thresholds do
        for command, *extra in (["ber", "--demod", "bd"], ["thresholds"],
                                ["simulate", "--demod", "bd", "--trials", "10000"]):
            code, lines = run_cli(capsys, command, "--M", "2", "--pattern", "1",
                                  "--snr=-300", *extra)
            assert code == 0, command
            assert lines[-1].startswith("-300"), command

    @pytest.mark.parametrize("argv", [
        ["llr", "--M", "8", "--labeling", "brgc", "--snr", "4000", "--y", "0"],
        ["simulate", "--M", "8", "--labeling", "brgc", "--snr", "4000", "--demod", "sd"],
        ["simulate", "--M", "8", "--labeling", "brgc", "--snr=-4000", "--demod", "bd"],
        ["ber", "--M", "8", "--labeling", "brgc", "--snr", "4000"],
    ])
    def test_snr_past_the_float_range_fails_cleanly(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("pamber: error: snr_db=") and "Traceback" not in err

    def test_verify_exits_nonzero_when_a_check_fails(self, capsys, monkeypatch):
        from pamber import verify

        def failing():
            raise AssertionError("deliberately false")

        def crashing():
            raise ValueError("boom")

        monkeypatch.setattr(verify, "ALL_CHECKS", (
            ("passing", lambda: "ok"), ("failing", failing), ("crashing", crashing)))
        assert main(["verify"]) == 1
        captured = capsys.readouterr()
        out = captured.out
        assert "FAIL  failing " in out and "deliberately false" in out
        assert "FAIL  crashing" in out and "ValueError: boom" in out
        assert "1/3 checks passed" in out and captured.err == ""

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["ber", "--M", "8"])
        assert exc.value.code == 2

    def test_out_option_is_gone(self):
        # output goes to stdout only; redirect it with the shell
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["classes", "--M", "4", "--out", "x.csv"])
        assert exc.value.code == 2

    def test_llr_with_snr_grid_is_usage_error(self, capsys):
        code = main(["llr", "--M", "4", "--pattern", "3", "--snr", "0:1:5",
                     "--y", "0"])
        assert code == 2
        assert "single --snr" in capsys.readouterr().err

    @pytest.mark.parametrize("snr", ["nan", "0:1:inf", "a:b:c", "0:1e-7:1"])
    def test_bad_grid_is_usage_error(self, capsys, snr):
        code = main(["ber", "--M", "4", "--pattern", "3", "--snr", snr])
        assert code == 2
        assert snr in capsys.readouterr().err

    def test_unknown_labeling_name(self, capsys):
        # neither a known name nor comma-separated integers: a usage error
        # that lists the names
        for text in ("gray!", "foo", "15,sixty", "15;60;102"):
            code = main(["ber", "--M", "8", "--labeling", text, "--snr", "1"])
            err = capsys.readouterr().err
            assert code == 2
            assert repr(text) in err and "BRGC, NBC, FBC, BSGC, AG" in err
        # a known name without a definition at this size stays a value error
        assert main(["ber", "--M", "16", "--labeling", "fbc", "--snr", "1"]) == 1
        assert "not defined for M=16" in capsys.readouterr().err


class TestClosedPipe:
    """``pamber ... | head -1``: the reader leaves before the output ends."""

    @pytest.mark.parametrize("argv", [
        ["classes", "--M", "4"],
        # about 0.8 MB, far past a pipe buffer, so the write always fails
        ["llr", "--M", "8", "--labeling", "brgc", "--snr", "10", "--y=-3:0.0005:3"],
    ])
    def test_closed_stdout_gives_no_traceback(self, argv):
        src = str(Path(pamber.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "pamber.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        code = proc.wait(timeout=120)
        assert first.startswith(b"# pamber " + argv[0].encode())
        assert "Traceback" not in err and "Error" not in err, err
        if argv[0] == "llr":
            assert code == 1
