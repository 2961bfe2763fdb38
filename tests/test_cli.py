"""Tests for the command-line front end: CSV output, config handling, units."""

import argparse
import math

import numpy as np
import pytest

from lambda_crossing import RB87, RamanParams, dressed_spectrum, resonance, resonance_report
from lambda_crossing import scattering_rate, scenario_report
from lambda_crossing.cli import OUTDIR_ENV, _write_csv, build_parser, main


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


class TestWriteCsv:
    @pytest.mark.parametrize(
        "rows",
        [
            [SPECIAL[i : i + 3] for i in range(0, 9, 3)],
            np.random.default_rng(7).standard_normal((40, 3)) * 1e-7,
            [[1, np.int64(2), np.float64(2.5)], [True, 0.0, -1e-310]],
            [],
        ],
        ids=["special", "array", "mixed", "empty"],
    )
    def test_bytes_match_per_value_writer(self, tmp_path, rows):
        header = ["a", "b", "c"]
        per_value_csv(tmp_path / "ref.csv", header, rows)
        _write_csv(tmp_path / "out.csv", header, rows)
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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

    def test_missing_required_flag(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["levels", "--omega1", "0.5", "--output", str(tmp_path / "x.csv")])

    def test_malformed_range_names_key(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["levels", "--omega1", "0.5", "--omega2", "0.5", "--delta1-range", "0:2"])
        assert "delta1-range" in str(exc.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0:2:x", "error: delta1-range: malformed range '0:2:x'"),
            ("0:2:1", "error: delta1-range: range count must be >= 2"),
        ],
    )
    def test_bad_range(self, tmp_path, text, message):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["levels", "--omega1", "0.5", "--omega2", "0.5", "--delta1-range", text,
                  "--output", str(out)])
        assert str(exc.value) == message
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
        assert peaks

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

    def test_delta2_required(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "experiment",
                    "--preset", "rb87",
                    "--scenario", "microwave",
                    "--omega", "300e3",
                    "--output", str(tmp_path / "exp.txt"),
                ]
            )
        assert str(exc.value) == "error: missing required option --delta2"
        assert not (tmp_path / "exp.txt").exists()

    def test_unknown_preset(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "experiment",
                    "--preset", "cs133",
                    "--scenario", "microwave",
                    "--omega", "1e3",
                    "--delta2", "1e6",
                ]
            )


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

    def test_calls_share_no_state(self, tmp_path):
        # the parser is built once per process; a flag a config file filled
        # in one call must not leak into the next
        assert build_parser() is build_parser()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega1 = 0.3\n")
        args = ["levels", "--omega2", "0.4", "--delta1-range", "0.5:1.5:11"]
        assert main(args + ["--config", str(cfg), "--output", str(tmp_path / "a.csv")]) == 0
        with pytest.raises(SystemExit, match="missing required option --omega1"):
            main(args + ["--output", str(tmp_path / "b.csv")])

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "error: config: [Errno 2] No such file or directory: "),
            ("omega1 = 0.3\nomega2 0.4\n", "error: config line 2: expected key = value"),
            ("units = bogus\n", "error: units must be dimensionless or hz, got 'bogus'"),
        ],
        ids=["missing-file", "no-equals", "bogus-units"],
    )
    def test_bad_config(self, tmp_path, text, message):
        cfg, out = tmp_path / "run.cfg", tmp_path / "x.csv"
        if text is not None:
            cfg.write_text(text)
        args = ["--omega1", "0.3", "--omega2", "0.4", "--delta1-range", "0.5:1.5:5"]
        with pytest.raises(SystemExit) as exc:
            main(["levels", "--config", str(cfg)] + args + ["--output", str(out)])
        assert str(exc.value).startswith(message)
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega9 = 0.3\n")
        with pytest.raises(SystemExit):
            main(["levels", "--config", str(cfg)])

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


HZ_NOTE = " (frequencies quoted in angular units, 2π × Hz)"
PROBE_SPECTRUM = ["probe-spectrum", "--omega1", "0.2", "--omega2", "0.5", "--delta1", "1.0"]
PROBE_RESONANCE = [
    "probe-resonance", "--omega1", "0.2", "--omega2", "0.5", "--delta1-range", "1.04:1.06:11"
]
OPTICAL = [
    "experiment", "--preset", "rb87", "--scenario", "optical", "--omega", "200e6",
    "--delta2", "10e9",
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
        ],
    )
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, argv, message):
        rc = main(argv + ["--output", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "x.csv").exists()

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
