"""Tests for the command-line front end: CSV output, config handling, units."""

import argparse
import ast
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lambda_crossing import RB87, RamanParams, cli, dressed_spectrum, resonance
from lambda_crossing import resonance_report, scattering_rate, scenario_report
from lambda_crossing import default_nu_grid, probe_spectrum
from lambda_crossing.cli import COMMANDS, OUTDIR_ENV, _write_csv, build_parser, main


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


COMMON_FLAGS = {"--help", "--config", "--output", "--units", "--delta2"}
SURFACE = {
    "levels": {"--omega1", "--omega2", "--delta1-range"},
    "resonance": {"--omega1", "--omega2", "--tol"},
    "shift-scan": {"--omega2", "--ratio-range", "--tol"},
    "probe-spectrum": {
        "--omega1", "--omega2", "--delta1", "--omega-p", "--duration", "--nu-range"
    },
    "probe-resonance": {"--omega1", "--omega2", "--delta1-range", "--omega-p", "--duration"},
    "resolvent": {"--omega1", "--omega2", "--delta1", "--tol", "--max-iter"},
    "experiment": {"--preset", "--scenario", "--omega", "--omega1", "--omega2", "--delta1"},
}


def test_parser_surface():
    # every subcommand's long flags and the fixed choices, as the CLI exposes them
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(SURFACE)
    for name, subparser in sub.choices.items():
        flags = {o for a in subparser._actions for o in a.option_strings if o.startswith("--")}
        assert flags == COMMON_FLAGS | SURFACE[name], name
        choices = {a.option_strings[-1]: list(a.choices) for a in subparser._actions if a.choices}
        expected = {"--units": ["dimensionless", "hz"]}
        if name == "experiment":
            expected["--scenario"] = ["optical", "microwave"]
        assert choices == expected, name


def per_value_csv(path, header, rows):
    """Reference writer: each value formatted on its own."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{float(v):.17g}" for v in row) + "\n")


SPECIAL = [-0.0, math.inf, -math.inf, math.nan, 1e300, 5e-324, -5e-324, 0.1, 1.0 / 3.0]


def _edge_values():
    """Values where an exact %.17g is easiest to get wrong, and their negatives."""
    values = [0.0, math.inf, math.nan, 5e-324, sys.float_info.max,
              1e14 + 0.125,  # an exact tie, broken half-even
              123456789012345.25,  # exactly 17 digits
              1e-5, 1e-4, 1e16, 1e17,  # where %g switches between notations
              99999999999999999.0]  # parses as 1e17
    for k in range(-30, 31):
        p = float(f"1e{k}")
        values += [math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)]
    return values + [-v for v in values]


EDGES = _edge_values()


class TestWriteCsv:
    @pytest.mark.parametrize(
        "rows",
        [
            [SPECIAL[i : i + 3] for i in range(0, 9, 3)],
            np.random.default_rng(7).standard_normal((40, 3)) * 1e-7,
            [[1, np.int64(2), np.float64(2.5)], [True, 0.0, -1e-310]],
            [],
            # 210000 random 64-bit patterns: 52 row blocks of the vector writer
            np.random.default_rng(8).integers(0, 2**64, (70000, 3), np.uint64).view(float),
            # every edge value in each column, on the vector writer
            np.array(EDGES * 3).reshape(-1, 3),
        ],
        ids=["special", "array", "mixed", "empty", "bits", "edges"],
    )
    def test_bytes_match_per_value_writer(self, tmp_path, rows):
        header = ["a", "b", "c"]
        per_value_csv(tmp_path / "ref.csv", header, rows)
        _write_csv(tmp_path / "out.csv", header, rows)
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_edge_values_alone(self, tmp_path):
        # one value is a table for the % template
        out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
        for value in EDGES:
            per_value_csv(ref, ["x"], [[value]])
            _write_csv(out, ["x"], [[value]])
            assert out.read_bytes() == ref.read_bytes(), value

    def test_few_values_left_to_per_value_fallback(self, tmp_path, monkeypatch):
        # ordinary values are formatted as whole arrays, and specials and
        # rounding ties one at a time, so a table formatted by the % template
        # alone fails here
        left, fmt = [], cli._fmt
        monkeypatch.setattr(cli, "_fmt", lambda value: left.append(value) or fmt(value))
        rows = np.random.default_rng(10).uniform(-0.3, 1.7, (25000, 4))
        planted = [math.nan, -0.0, math.inf, 1e14 + 0.125, -(1e14 + 0.375)]
        rows[[3, 7000, 9000, 12345, 24999], [0, 2, 1, 3, 3]] = planted
        per_value_csv(tmp_path / "ref.csv", list("abcd"), rows)
        _write_csv(tmp_path / "out.csv", list("abcd"), rows)
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert {repr(v) for v in left} >= {repr(v) for v in planted}
        assert len(left) <= len(planted) + 5


class TestLevels:
    def test_csv_schema_and_values(self, tmp_path):
        out = tmp_path / "levels.csv"
        rc = main(
            [
                "levels",
                "--omega1", "0.5",
                "--omega2", "0.5",
                "--delta1-range", "0:2:21",
                "--output", str(out),
            ]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["delta1", "eps1", "eps2", "eps3", "gap32"]
        assert len(rows) == 21
        # spot-check one row against the library
        d1 = rows[10][0]
        e = dressed_spectrum(RamanParams(0.5, 0.5, d1, 1.0)).energies
        np.testing.assert_allclose(rows[10][1:4], e, atol=1e-12)
        assert rows[10][4] == pytest.approx(e[2] - e[1], abs=1e-12)

    def test_deterministic_output(self, tmp_path):
        args = [
            "levels",
            "--omega1", "0.3",
            "--omega2", "0.4",
            "--delta1-range", "0.5:1.5:11",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("count, units", [(2001, "dimensionless"), (40000, "hz")])
    def test_blocks_match_whole_table(self, tmp_path, count, units):
        # 40000 rows take 49 blocks; the bytes are those of one table
        out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
        assert main(["levels", "--omega1", "0.3", "--omega2", "0.4", "--delta2", "1.1",
                     "--delta1-range", f"0:2:{count}", "--units", units,
                     "--output", str(out)]) == 0
        s = 2.0 * math.pi if units == "hz" else 1.0
        grid = np.linspace(0.0, 2.0, count) * s
        e = dressed_spectrum(RamanParams(0.3 * s, 0.4 * s, 1.1 * s, 1.1 * s), grid).energies
        rows = np.column_stack([grid, e, e[:, 2] - e[:, 1]]) / s
        _write_csv(ref, ["delta1", "eps1", "eps2", "eps3", "gap32"], rows)
        assert out.read_bytes() == ref.read_bytes()

    def test_large_table_in_bounded_memory(self, tmp_path):
        # a whole-table build peaked at 166.8 MB at this count, about 0.5 KB
        # a row. The child reads its own VmHWM: its ru_maxrss keeps the
        # spawning test process's peak across exec
        script = (
            "from lambda_crossing.cli import main\n"
            "assert main(['levels', '--omega1', '0.2', '--omega2', '0.5',\n"
            "             '--delta1-range', '0:2:262144', '--output', 'levels.csv']) == 0\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) / 1024 <= 80.0
        assert len((tmp_path / "levels.csv").read_text().splitlines()) == 262145

    def test_grid_error_leaves_no_file(self, tmp_path, capsys):
        # the grid is checked whole before the first block is written
        out = tmp_path / "x.csv"
        assert main(["levels", "--omega1", "0.5", "--omega2", "0.5", "--units", "hz",
                     "--delta1-range", "0:1e308:3", "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: delta1_grid must be finite")
        assert not out.exists()

    def test_missing_required_flag(self, tmp_path, capsys):
        assert main(["levels", "--omega1", "0.5", "--output", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == "error: missing required option --omega2\n"

    def test_malformed_range_names_key(self, tmp_path, capsys):
        assert main(["levels", "--omega1", "0.5", "--omega2", "0.5", "--delta1-range", "0:2",
                     "--output", str(tmp_path / "x.csv")]) == 1
        assert "delta1-range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0:2:x", "error: delta1-range: malformed range '0:2:x'"),
            ("0:2:1", "error: delta1-range: range count must be >= 2"),
        ],
    )
    def test_bad_range(self, tmp_path, capsys, text, message):
        out = tmp_path / "x.csv"
        assert main(["levels", "--omega1", "0.5", "--omega2", "0.5", "--delta1-range", text,
                     "--output", str(out)]) == 1
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()


class TestResonance:
    def test_report_row(self, tmp_path):
        out = tmp_path / "res.csv"
        assert main(["resonance", "--omega1", "0.2", "--omega2", "0.5", "--output", str(out)]) == 0
        header, rows = read_csv(out)
        report = resonance_report(RamanParams(0.2, 0.5, 1.0, 1.0))
        for name, value in zip(header, rows[0]):
            assert value == pytest.approx(getattr(report, name), rel=1e-12)


    @pytest.mark.parametrize("attr", ["structural_exact", "dynamical_exact_full"])
    def test_reads_locus_through_resonance_module(self, tmp_path, monkeypatch, attr):
        # the benchmark injects its CLI resonance faults at these attributes
        argv = ["resonance", "--omega1", "0.2", "--omega2", "0.5", "--output"]
        clean, faulty = tmp_path / "clean.csv", tmp_path / "faulty.csv"
        assert main(argv + [str(clean)]) == 0
        original = getattr(resonance, attr)
        monkeypatch.setattr(resonance, attr, lambda *a, **k: original(*a, **k) + 1e-6)
        assert main(argv + [str(faulty)]) == 0
        header, rows_clean = read_csv(clean)
        _, rows_faulty = read_csv(faulty)
        column = header.index(attr)
        assert rows_faulty[0][column] == pytest.approx(rows_clean[0][column] + 1e-6, abs=1e-15)


class TestShiftScan:
    def test_columns(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(
            ["shift-scan", "--omega2", "0.2", "--ratio-range", "0.25:1:4", "--output", str(out)]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["ratio", "shift_exact", "shift_approx"]
        for ratio, _, approx in rows:
            assert approx == pytest.approx((ratio * 0.2) ** 2 * 0.2**2 / 4.0, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_underflowing_coupling_product_is_a_row(self, tmp_path, capsys):
        # omega1 * omega2 underflows to 0 at both ratios: two rows of shift 0, no stderr
        out = tmp_path / "scan.csv"
        argv = ["shift-scan", "--omega2", "1e-170", "--ratio-range", "1e-10:1:2"]
        assert main(argv + ["--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, rows = read_csv(out)
        assert rows == [[1e-10, 0.0, 0.0], [1.0, 0.0, 0.0]]


class TestProbeSpectrum:
    def test_spectrum_and_peaks_sidecar(self, tmp_path):
        out = tmp_path / "spec.csv"
        rc = main(
            [
                "probe-spectrum",
                "--omega1", "0.2",
                "--omega2", "0.5",
                "--delta1", "1.0",
                "--omega-p", "1e-4",
                "--duration", str(125 * 2 * math.pi),
                "--output", str(out),
            ]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["nu", "probability"]
        assert len(rows) > 100
        peaks_header, peaks = read_csv(tmp_path / "spec_peaks.csv")
        assert peaks_header == ["position", "height", "width"]
        # the sidecar holds the spectrum's two lines, the one at -gap first
        params, duration = RamanParams(0.2, 0.5, 1.0, 1.0), 125 * 2 * math.pi
        spectrum = probe_spectrum(params, 1e-4, duration, default_nu_grid(params, duration))
        assert peaks == [[pk.position, pk.height, pk.width] for pk in spectrum.peaks]
        assert len(peaks) == 2 and peaks[0][0] < 0.0 < peaks[1][0]

    def test_large_spectrum_in_bounded_memory(self, tmp_path):
        # 2^20 nu points: the whole table as one tuple and one string peaked
        # at 231.6 MB, written in row blocks at 139.3 MB (VmHWM, read as in
        # TestLevels.test_large_table_in_bounded_memory)
        script = (
            "from lambda_crossing.cli import main\n"
            "assert main(['probe-spectrum', '--omega1', '0.2', '--omega2', '0.5',\n"
            "             '--delta1', '1.0', '--omega-p', '1e-5', '--duration', '100',\n"
            "             '--nu-range=-1:1:1048576', '--output', 'spec.csv']) == 0\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) / 1024 <= 185.0
        assert len((tmp_path / "spec.csv").read_text().splitlines()) == 1048577

    def test_nu_range_sets_grid(self, tmp_path):
        out = tmp_path / "spec.csv"
        argv = PROBE_SPECTRUM + ["--omega-p", "1e-4", "--duration", "785.4"]
        assert main(argv + ["--nu-range=-0.2:0.2:801", "--output", str(out)]) == 0
        _, rows = read_csv(out)
        np.testing.assert_array_equal([row[0] for row in rows], np.linspace(-0.2, 0.2, 801))


class TestProbeResonance:
    def test_prints_location(self, tmp_path, capsys):
        out = tmp_path / "pr.csv"
        rc = main(
            [
                "probe-resonance",
                "--omega1", "0.2",
                "--omega2", "0.5",
                "--delta1-range", "1.04:1.06:11",
                "--omega-p", "1e-5",
                "--duration", str(125 * 2 * math.pi),
                "--output", str(out),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "probed_structural_resonance = " in printed
        value = float(printed.split("=")[1])
        assert value == pytest.approx(1.0505, abs=0.002)


class TestResolvent:
    def test_levels_row(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(
            [
                "resolvent",
                "--omega1", "0.2",
                "--omega2", "0.5",
                "--delta1", "1.0",
                "--output", str(out),
            ]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["e_minus", "e_plus", "iterations_minus", "iterations_plus"]
        e = dressed_spectrum(RamanParams(0.2, 0.5, 1.0, 1.0)).energies
        assert rows[0][0] == pytest.approx(e[1], abs=1e-10)
        assert rows[0][1] == pytest.approx(e[2], abs=1e-10)


class TestExperiment:
    def test_microwave_report(self, tmp_path):
        out = tmp_path / "exp.txt"
        rc = main(
            [
                "experiment",
                "--preset", "rb87",
                "--scenario", "microwave",
                "--omega", "300e3",
                "--delta2", "1e6",
                "--units", "hz",
                "--output", str(out),
            ]
        )
        assert rc == 0
        text = out.read_text()
        values = {}
        for line in text.splitlines():
            key, _, value = line.partition(" = ")
            values[key] = value
        assert float(values["dynamical_shift_Hz"]) == pytest.approx(2025.0, rel=0.001)
        assert float(values["probe_time_bound_s"]) == pytest.approx(500e-6, rel=0.02)
        assert values["feasible"] == "true"

    def test_optical_report_has_scattering_rate(self, tmp_path):
        out = tmp_path / "exp.txt"
        argv = ["experiment", "--preset", "rb87", "--scenario", "optical",
                "--omega", "200e6", "--delta2", "10e9", "--output", str(out)]
        assert main(argv) == 0
        values = dict(line.split(" = ", 1) for line in out.read_text().splitlines())
        rate = scattering_rate(RB87, 200e6, 200e6, 10e9)
        assert values["scattering_rate_per_s"] == f"{rate:.17g}"
        assert values["feasible"] == "false"

    def test_separate_couplings(self, tmp_path):
        out = tmp_path / "exp.txt"
        argv = ["experiment", "--preset", "rb87", "--scenario", "microwave",
                "--omega1", "100e3", "--omega2", "300e3", "--delta2", "1e6", "--output", str(out)]
        assert main(argv) == 0
        values = dict(line.split(" = ", 1) for line in out.read_text().splitlines())
        shift = scenario_report(RB87, 100e3, 300e3, 1e6).dynamical_shift
        assert values["dynamical_shift_Hz"] == f"{shift:.17g}"
        assert "scattering_rate_per_s" not in values

    def test_delta2_required(self, tmp_path, capsys):
        rc = main(
            [
                "experiment",
                "--preset", "rb87",
                "--scenario", "microwave",
                "--omega", "300e3",
                "--output", str(tmp_path / "exp.txt"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: missing required option --delta2\n"
        assert not (tmp_path / "exp.txt").exists()

    def test_unknown_preset(self, tmp_path, capsys):
        rc = main(
            [
                "experiment",
                "--preset", "cs133",
                "--scenario", "microwave",
                "--omega", "1e3",
                "--delta2", "1e6",
                "--output", str(tmp_path / "exp.txt"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: unknown preset 'cs133'\n"
        assert not (tmp_path / "exp.txt").exists()


class TestConfigHandling:
    def test_file_values_used(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# reference scan\nomega1 = 0.3\nomega2 = 0.4\ndelta1-range = 0.5:1.5:11\n"
        )
        out = tmp_path / "levels.csv"
        rc = main(["levels", "--config", str(cfg), "--output", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 11

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega1 = 0.3\nomega2 = 0.4\ndelta1-range = 0.5:1.5:11\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["levels", "--config", str(cfg), "--output", str(out1)])
        main(["levels", "--config", str(cfg), "--omega1", "0.6", "--output", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_file_delta2_used(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta2 = 2\n")
        args = ["levels", "--omega1", "0.3", "--omega2", "0.4", "--delta1-range", "1.5:2.5:11"]
        from_file, from_flag = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--config", str(cfg), "--output", str(from_file)]) == 0
        assert main(args + ["--delta2", "2", "--output", str(from_flag)]) == 0
        assert from_file.read_bytes() == from_flag.read_bytes()

    def test_calls_share_no_state(self, tmp_path, capsys):
        # the parser is built once per process; a flag a config file filled
        # in one call must not leak into the next
        assert build_parser() is build_parser()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega1 = 0.3\n")
        args = ["levels", "--omega2", "0.4", "--delta1-range", "0.5:1.5:11"]
        assert main(args + ["--config", str(cfg), "--output", str(tmp_path / "a.csv")]) == 0
        assert main(args + ["--output", str(tmp_path / "b.csv")]) == 1
        assert "missing required option --omega1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "error: config: [Errno 2] No such file or directory: "),
            ("omega1 = 0.3\nomega2 0.4\n", "error: config line 2: expected key = value"),
            ("units = bogus\n", "error: units must be dimensionless or hz, got 'bogus'"),
        ],
        ids=["missing-file", "no-equals", "bogus-units"],
    )
    def test_bad_config(self, tmp_path, capsys, text, message):
        cfg, out = tmp_path / "run.cfg", tmp_path / "x.csv"
        if text is not None:
            cfg.write_text(text)
        args = ["--omega1", "0.3", "--omega2", "0.4", "--delta1-range", "0.5:1.5:5"]
        assert main(["levels", "--config", str(cfg)] + args + ["--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega9 = 0.3\n")
        assert main(["levels", "--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == "error: config: unknown key 'omega9'\n"
        assert not (tmp_path / "x.csv").exists()

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTDIR_ENV, str(tmp_path))
        rc = main(
            [
                "levels",
                "--omega1", "0.3",
                "--omega2", "0.4",
                "--delta1-range", "0.5:1.5:5",
                "--output", "sub.csv",
            ]
        )
        assert rc == 0
        assert (tmp_path / "sub.csv").exists()


HZ_NOTE = " (any frequency quoted is angular, 2π × Hz)"
PROBE_SPECTRUM = ["probe-spectrum", "--omega1", "0.2", "--omega2", "0.5", "--delta1", "1.0"]
PROBE_RESONANCE = [
    "probe-resonance", "--omega1", "0.2", "--omega2", "0.5", "--delta1-range", "1.04:1.06:11"
]
OPTICAL = [
    "experiment", "--preset", "rb87", "--scenario", "optical", "--omega", "200e6",
    "--delta2", "10e9",
]
LEVELS = ["levels", "--omega1", "0.5", "--omega2", "0.5"]


def config(text=None):
    """An argv token that with_configs turns into the path of a config file
    holding text (or of no file, for None)."""
    return ("config", text)


def with_configs(argv, directory):
    """argv with each config() token replaced by the path of run.cfg in directory."""
    out = []
    for token in argv:
        if isinstance(token, tuple):
            path = directory / "run.cfg"
            if token[1] is not None:
                path.write_text(token[1])
            token = str(path)
        out.append(token)
    return out


# Each input error that main once left to a SystemExit, as (argv, message),
# then couplings 1e300 times delta2 (past the slopes' clamp at 1e150), a run
# cut by a float overflow, grids that overflow (under --units hz,
# and in the range's own steps), an --units hz error that quotes no
# frequency, a shift whose closed form overflows and couplings whose ratio
# to delta2 overflows.
FLAG_ERRORS = [
    (LEVELS + ["--delta1-range", "0:2"],
     "delta1-range: range must be start:stop:count, got '0:2'"),
    (LEVELS + ["--delta1-range", "a:2:5"], "delta1-range: malformed range 'a:2:5'"),
    (LEVELS + ["--delta1-range", "0:2:1"], "delta1-range: range count must be >= 2"),
    (LEVELS + ["--delta1-range", "0:2:5", "--config", config()],
     "config: [Errno 2] No such file or directory: "),
    (LEVELS + ["--delta1-range", "0:2:5", "--config", config("omega1 = 0.5\nomega2 0.5\n")],
     "config line 2: expected key = value"),
    (LEVELS + ["--delta1-range", "0:2:5", "--config", config("omega9 = 0.3\n")],
     "config: unknown key 'omega9'"),
    (["levels", "--omega1", "0.5", "--delta1-range", "0:2:5"],
     "missing required option --omega2"),
    (LEVELS + ["--delta1-range", "0:2:5", "--config", config("units = bogus\n")],
     "units must be dimensionless or hz, got 'bogus'"),
    (["experiment", "--preset", "xx", "--scenario", "microwave", "--omega", "1e3",
      "--delta2", "1e6"],
     "unknown preset 'xx'"),
]
OVERFLOW_ERRORS = [
    (["resonance", "--omega1", "1", "--omega2", "1", "--delta2", "1e-300"],
     "structural locus 1.5e-300 is at the edge of the search bracket [5e-301, 1.5e-300]; "
     "parameters are outside the isolated-crossing regime"),
    (["experiment", "--preset", "rb87", "--scenario", "microwave", "--omega", "1e200",
      "--delta2", "1"],
     "closed form overflows at omega1 = 1e+200, omega2 = 1e+200, delta2 = 1"),
    (["levels", "--omega1", "1", "--omega2", "0.45", "--delta1-range", "0:1e308:3",
      "--units", "hz"],
     "delta1_grid must be finite" + HZ_NOTE),
    (PROBE_SPECTRUM + ["--omega-p", "1e-4", "--duration", "785.4", "--nu-range",
                       "-1e308:1e308:5"],
     "nu_grid must be finite and strictly ascending"),
    (["probe-resonance", "--omega1", "0.2", "--omega2", "0.5", "--delta1-range",
      "0.165:0.169:11", "--omega-p", "1e-5", "--duration", "785.4", "--units", "hz"],
     "measured-splitting minimum is on the delta1 grid edge" + HZ_NOTE),
    (["experiment", "--preset", "rb87", "--scenario", "optical", "--omega", "1e150",
      "--delta2", "1e6"],
     "closed form overflows at omega1 = 1e+150, omega2 = 1e+150, delta2 = 1e+06"),
    (["resonance", "--omega1", "1e200", "--omega2", "1e200", "--delta2", "1e-200"],
     "structural locus 1.5e-200 is at the edge of the search bracket [5e-201, 1.5e-200]; "
     "parameters are outside the isolated-crossing regime"),
]


class TestUnits:
    def test_hz_round_trip(self, tmp_path):
        # dimensionless run and an hz run with the same numbers must agree:
        # frequencies are converted in by 2 pi and back out on write
        args = ["--omega1", "0.3", "--omega2", "0.4", "--delta1-range", "0.5:1.5:11"]
        a, b = tmp_path / "dimless.csv", tmp_path / "hz.csv"
        main(["levels"] + args + ["--output", str(a)])
        main(["levels"] + args + ["--units", "hz", "--output", str(b)])
        _, rows_a = read_csv(a)
        _, rows_b = read_csv(b)
        # atol absorbs scale-and-rescale roundoff on near-zero eigenvalues
        np.testing.assert_allclose(rows_a, rows_b, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["resonance", "--omega1", "0.2", "--omega2", "0.5", "--delta2", "0"],
             "delta2 must be positive"),
            (["resonance", "--omega1", "0.2", "--omega2", "0.5", "--tol", "-1"],
             "tol must be positive"),
            (["levels", "--omega1", "0.5", "--omega2", "0.5", "--delta1-range", "nan:1:5"],
             "delta1-range: range bounds must be finite"),
            (["levels", "--omega1", "nan", "--omega2", "0.5", "--delta1-range", "0:1:5"],
             "omega1 must be finite"),
            (["experiment", "--preset", "rb87", "--scenario", "microwave", "--omega", "300e3",
              "--delta2", "0", "--units", "hz"],
             "delta2 must be positive"),
            (["resolvent", "--omega1", "0.2", "--omega2", "0.5", "--delta1", "1.0",
              "--max-iter", "2.5"],
             "max_iter: malformed number '2.5'"),
            (["resonance", "--omega1", "0.2", "--omega2", "0.5", "--tol", "abc"],
             "tol: malformed number 'abc'"),
            (PROBE_SPECTRUM + ["--omega-p", "1e-4", "--duration", "0"],
             "duration must be finite and positive"),
            (PROBE_RESONANCE + ["--omega-p", "1e-5", "--duration", "0"],
             "duration must be finite and positive"),
            (PROBE_SPECTRUM + ["--omega-p", "1e-4", "--duration", "-1"],
             "duration must be finite and positive"),
            (PROBE_SPECTRUM + ["--omega-p", "1e-4", "--duration", "nan"],
             "duration must be finite"),
            (PROBE_SPECTRUM + ["--omega-p", "nan", "--duration", "785.4"],
             "omega_p must be finite"),
            (PROBE_SPECTRUM + ["--omega-p", "1", "--duration", "785.4"],
             "omega_p = 1 is too strong for the first-order probe: peak probability 1.08e+05 "
             "exceeds PERTURBATIVE_CEILING = 0.5"),
            (["resonance", "--omega1", "0.2", "--omega2", "0.5", "--tol", "inf"],
             "tol must be positive and finite, got inf"),
            (["resonance", "--omega1", "0.2", "--omega2", "0.5", "--tol", "nan"],
             "tol must be positive and finite, got nan"),
            (["shift-scan", "--omega2", "0.5", "--ratio-range", "0.1:1.5:3", "--tol", "inf"],
             "tol must be positive and finite, got inf"),
            (["resolvent", "--omega1", "0.2", "--omega2", "0.5", "--delta1", "1.05",
              "--tol", "inf"],
             "tol must be positive and finite, got inf"),
            (["shift-scan", "--omega2", "0", "--ratio-range", "0.1:1.5:3"],
             "omega2 must be finite and positive, got 0.0"),
            (["resolvent", "--omega1", "0.2", "--omega2", "0.5", "--delta1", "1.0",
              "--max-iter", "0"],
             "max_iter must be a positive integer, got 0"),
            (PROBE_RESONANCE + ["--omega-p", "1", "--duration", "785.4"],
             "omega_p = 1.0 is too strong for the first-order probe at delta1 = 1.04: peak "
             "probability"),
            (["resonance", "--omega1", "2", "--omega2", "0.1", "--units", "hz"],
             "structural locus 3.14159 is at the edge of the search bracket [3.14159, 9.42478]; "
             "parameters are outside the isolated-crossing regime" + HZ_NOTE),
            (PROBE_RESONANCE + ["--omega-p", "1", "--duration", "785.4", "--units", "hz"],
             "omega_p = 6.283185307179586 is too strong for the first-order probe at "
             "delta1 = 6.53451: peak probability 2.07e+06 exceeds PERTURBATIVE_CEILING = 0.5"
             + HZ_NOTE),
            (OPTICAL + ["--delta1", "0"], "delta1 must be nonzero"),
            (OPTICAL + ["--delta1", "nan"], "delta1 must be finite, got nan"),
            (OPTICAL + ["--delta1", "inf"], "delta1 must be finite, got inf"),
            (["probe-resonance", "--omega1", "0.2", "--omega2", "0.5", "--delta1-range",
              "1.05:1.05:5", "--omega-p", "1e-5", "--duration", "785.4"],
             "delta1_grid must be monotone"),
            (PROBE_SPECTRUM + ["--omega-p", "1e-4", "--duration", "1e15"],
             "duration = 1e+15 needs 4.15e+14 nu points, over the cap of 4194304"),
            (["resolvent", "--omega1", "0.2", "--omega2", "0.5", "--delta1", "-inf"],
             "delta1 must be finite, got -inf"),
            (["levels", "--omega1", "0.5", "--omega2", "0.5", "--delta1-range",
              "0:1:1000000000000000"],
             "delta1-range: range count 1000000000000000 is over the cap of 4194304"),
            (["shift-scan", "--omega2", "0.5", "--ratio-range", "0.1:1:1000000000000000"],
             "ratio-range: range count 1000000000000000 is over the cap of 4194304"),
            (["levels", "--omega1", "0.5", "--omega2", "0.5", "--delta1-range", "0:1:4194305"],
             "delta1-range: range count 4194305 is over the cap of 4194304"),
            *FLAG_ERRORS,
            *OVERFLOW_ERRORS,
            (["shift-scan", "--omega2", "1e-320", "--ratio-range", "1e-10:1:2"],
             "structural resonance requires omega1 * omega2 > 0"),
            (["probe-spectrum", "--omega1", "0", "--omega2", "0", "--delta1", "1",
              "--omega-p", "1e-4", "--duration", "10"],
             "the default nu grid spans +/- 1.6 gap and the splitting gap = eps3 - eps2 is 0"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, argv, message):
        rc = main(with_configs(argv, tmp_path) + ["--output", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_vanishing_coupling_ratio_is_one_row(self, tmp_path, capsys):
        # at Omega / delta2 = 1e-300 both loci sit at delta2 and the shift is 0
        out = tmp_path / "r.csv"
        argv = ["resonance", "--omega1", "1", "--omega2", "1", "--delta2", "1e300"]
        assert main(argv + ["--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        header, rows = read_csv(out)
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        for locus in ("structural_exact", "dynamical_exact_full"):
            assert abs(row[locus] - 1e300) <= resonance.DEFAULT_TOL * 1e300
        assert row["shift_exact"] == 0.0

    @pytest.mark.parametrize(
        "argv",
        [
            PROBE_SPECTRUM + ["--omega-p", "1", "--duration", "785.4", "--units", "hz"],
            ["resonance", "--omega1", "0.2x", "--omega2", "0.5", "--units", "hz"],
            ["levels", "--omega1", "0.5", "--omega2", "0.5", "--delta1-range", "nan:1:5",
             "--units", "hz"],
            ["experiment", "--preset", "rb87", "--scenario", "microwave", "--omega", "300e3",
             "--delta2", "0", "--units", "hz"],
        ],
        ids=["probe-spectrum-flag", "malformed-number", "range", "experiment"],
    )
    def test_hz_note_only_for_angular_values(self, tmp_path, capsys, argv):
        # these messages quote the flags as given, or experiment's Hz inputs
        assert main(argv + ["--output", str(tmp_path / "x.csv")]) == 1
        assert HZ_NOTE not in capsys.readouterr().err

    def test_error_exit_code(self, tmp_path, capsys):
        # bracket failure inside the library surfaces as exit 1, one line
        rc = main(
            [
                "resonance",
                "--omega1", "0",
                "--omega2", "0.5",
                "--output", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


class TestNegativeValues:
    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["resolvent", "--omega1", "0.2", "--omega2", "0.5"], "--delta1", "-5e-1"),
            (["levels", "--omega1", "0.5", "--omega2", "0.5"], "--delta1-range", "-0.5:0.5:3"),
            (PROBE_SPECTRUM + ["--omega-p", "1e-4", "--duration", "785.4"],
             "--nu-range", "-2e-1:2e-1:801"),
            # a negative exponent, at a delta2 where unscaled slopes underflow
            (["resonance", "--omega1", "2e-111", "--omega2", "5e-111"], "--delta2", "1e-110"),
        ],
        ids=["exponent", "range", "exponent-range", "tiny-scale"],
    )
    def test_dash_value_matches_equals_form(self, tmp_path, argv, flag, value):
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert main(argv + [flag, value, "--output", str(spaced)]) == 0
        assert main(argv + [f"{flag}={value}", "--output", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()

    def test_missing_value_is_still_a_usage_error(self, tmp_path):
        argv = ["resolvent", "--omega2", "0.5", "--delta1", "--omega1", "0.2"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "x.csv").exists()


# One run of each subcommand, and a run of levels whose CSV is longer than
# any of them.
WRITES = {
    "levels": ["levels", "--omega1", "0.3", "--omega2", "0.4", "--delta1-range", "0.5:1.5:5"],
    "resonance": ["resonance", "--omega1", "0.2", "--omega2", "0.5"],
    "shift-scan": ["shift-scan", "--omega2", "0.2", "--ratio-range", "0.25:1:4"],
    "probe-spectrum": PROBE_SPECTRUM + ["--omega-p", "1e-4", "--duration", "100",
                                        "--nu-range=-0.2:0.2:81"],
    "probe-resonance": PROBE_RESONANCE + ["--omega-p", "1e-5", "--duration", "785.4"],
    "resolvent": ["resolvent", "--omega1", "0.2", "--omega2", "0.5", "--delta1", "1.0"],
    "experiment": OPTICAL,
}
LONG_LEVELS = ["levels", "--omega1", "0.3", "--omega2", "0.4", "--delta1-range", "0:2:201"]


def written_files(argv, directory, monkeypatch, name="out.csv"):
    """Run argv with its output under directory; return {file name: bytes}."""
    monkeypatch.setenv(OUTDIR_ENV, str(directory))
    assert main(argv + ["--output", name]) == 0
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestWriter:
    def test_every_subcommand_covered(self):
        assert set(WRITES) == set(COMMANDS)

    @pytest.mark.parametrize("command", WRITES)
    def test_shorter_rewrite_leaves_no_tail(self, tmp_path, monkeypatch, command):
        # every file of the command is first a longer levels CSV
        (tmp_path / "fresh").mkdir()
        rewritten = tmp_path / "rewritten"
        rewritten.mkdir()
        fresh = written_files(WRITES[command], tmp_path / "fresh", monkeypatch)
        for name in fresh:
            longer = written_files(LONG_LEVELS, rewritten, monkeypatch, name)[name]
            assert len(longer) > len(fresh[name])
        assert written_files(WRITES[command], rewritten, monkeypatch) == fresh

    def test_rewrite_keeps_inode(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(LONG_LEVELS + ["--output", str(out)]) == 0
        inode = out.stat().st_ino
        assert main(WRITES["levels"] + ["--output", str(out)]) == 0
        assert out.stat().st_ino == inode

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
    def test_new_file_mode_matches_open(self, tmp_path, umask):
        out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
        old = os.umask(umask)
        try:
            assert main(WRITES["levels"] + ["--output", str(out)]) == 0
            open(ref, "w").close()
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(ref.stat().st_mode)

    @pytest.mark.parametrize("command", ["levels", "experiment"])
    def test_devnull_output(self, command):
        assert main(WRITES[command] + ["--output", os.devnull]) == 0

    def test_directory_output_is_one_error_line(self, tmp_path, capsys):
        assert main(WRITES["levels"] + ["--output", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 21] Is a directory: ")
        assert len(err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", WRITES)
    def test_one_writer_for_every_output(self, tmp_path, monkeypatch, command):
        # every file a subcommand leaves goes through _write_text, so no
        # output path can bring back a truncating open
        written = []
        original = cli._write_text

        def counting(path, text):
            written.append(path.name)
            original(path, text)

        monkeypatch.setattr(cli, "_write_text", counting)
        files = written_files(WRITES[command], tmp_path, monkeypatch)
        assert len(written) == (2 if command == "probe-spectrum" else 1)
        assert sorted(written) == sorted(files)


def default_names(command):
    """The files a run of command leaves when --output is not given."""
    if command == "experiment":
        return {"experiment.txt"}
    stem = command.replace("-", "_")
    return {stem + ".csv", stem + "_peaks.csv"} if command == "probe-spectrum" else {stem + ".csv"}


class TestRunPath:
    @pytest.mark.parametrize("command", WRITES)
    def test_bad_config_units_refused(self, tmp_path, capsys, command):
        # experiment takes Hz under either --units, and refuses a bad value too
        cfg, out = tmp_path / "run.cfg", tmp_path / "x.csv"
        cfg.write_text("units = bogus\n")
        assert main(WRITES[command] + ["--config", str(cfg), "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: units must be dimensionless or hz, got 'bogus'\n"
        assert not out.exists()


def run_process(argv, cwd):
    """Run the console entry point in a fresh interpreter, as a shell does."""
    env = {key: value for key, value in os.environ.items() if key != OUTDIR_ENV}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "lambda_crossing.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def files_in(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


class TestEntryPoint:
    @pytest.mark.parametrize("command", WRITES)
    def test_success_matches_in_process_run(self, tmp_path, monkeypatch, capsys, command):
        shell, here = tmp_path / "shell", tmp_path / "here"
        shell.mkdir()
        here.mkdir()
        proc = run_process(WRITES[command], shell)
        assert (proc.returncode, proc.stderr) == (0, "")
        monkeypatch.setenv(OUTDIR_ENV, str(here))
        assert main(WRITES[command]) == 0
        assert proc.stdout == capsys.readouterr().out
        assert set(files_in(shell)) == default_names(command)
        assert files_in(shell) == files_in(here)

    @pytest.mark.parametrize(
        "argv, status, start",
        [
            (["resonance", "--omega1", "0", "--omega2", "0.5"], 1,
             "error: structural resonance requires omega1 * omega2 > 0\n"),
            (["levels", "--omega1", "0.3", "--omega2", "0.4", "--delta1-range", "0:2"], 1,
             "error: delta1-range: range must be start:stop:count, got '0:2'\n"),
            (["resolvent", "--omega2", "0.5", "--delta1", "--omega1", "0.2"], 2,
             "usage: lambda-crossing resolvent "),
            # the whole line, where no path or OS error text follows the message
            *[(argv, 1, f"error: {message}" + ("" if message.endswith(": ") else "\n"))
              for argv, message in FLAG_ERRORS + OVERFLOW_ERRORS],
        ],
        ids=["library-error", "flag-error", "usage-error", "range-fields", "range-count-text",
             "range-count", "config-missing", "config-no-equals", "config-unknown-key",
             "missing-flag", "config-units", "unknown-preset", "clamped-ratio",
             "overflow-experiment", "overflow-hz-grid", "overflow-nu-range",
             "hz-note-no-frequency", "overflow-shift", "overflow-ratio"],
    )
    def test_error_exit_status(self, tmp_path, argv, status, start):
        argv = with_configs(argv, tmp_path)
        before = files_in(tmp_path)
        proc = run_process(argv + ["--output", "x.csv"], tmp_path)
        assert proc.returncode == status
        assert proc.stdout == ""
        assert proc.stderr.startswith(start)
        if status == 1:
            assert len(proc.stderr.splitlines()) == 1
        assert files_in(tmp_path) == before

    def test_vanishing_coupling_ratio_exits_zero(self, tmp_path):
        # at Omega / delta2 = 1e-300 both loci sit at delta2: exit 0, one row
        argv = ["resonance", "--omega1", "1", "--omega2", "1", "--delta2", "1e300"]
        proc = run_process(argv + ["--output", "r.csv"], tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        _, rows = read_csv(tmp_path / "r.csv")
        assert len(rows) == 1


def test_main_is_the_only_exit():
    # every failure reaches main's handler: no SystemExit, and no sys.exit,
    # outside the if __name__ == "__main__" block, and no sys.stderr outside
    # main, so a command reports nothing but through main's one error line
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    entry = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    allowed = {id(node) for block in entry for node in ast.walk(block)}
    exits = [
        node.lineno for node in ast.walk(tree)
        if id(node) not in allowed
        and (isinstance(node, ast.Name) and node.id == "SystemExit"
             or isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.exit")
    ]
    mains = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"
    ]
    in_main = {id(node) for block in mains for node in ast.walk(block)}
    stderr = [
        node.lineno for node in ast.walk(tree)
        if id(node) not in in_main
        and isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stderr"
    ]
    assert len(entry) == 1 and len(mains) == 1
    assert exits == []
    assert stderr == []
