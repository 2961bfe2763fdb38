"""Command-line front end: parameter scans written as plot-ready CSV.

Subcommands: levels, resonance, shift-scan, probe-spectrum,
probe-resonance, resolvent, experiment. Flags may be preloaded from a
flat `key = value` config file (# comments allowed); flags override file
values. With --units hz all frequency inputs are ordinary frequencies,
converted to angular internally and back on output. main reports every
failure but a usage error (exit 2) as one "error:" line and returns 1. A
value may be negative in any form float() reads (-1e-3, -inf, -0.5:0.5:3).
Output files are rewritten in place, not atomically (see _write_text).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import re
import stat
import sys
from pathlib import Path

import numpy as np

from . import experiment as exp
from . import probe as probe_mod
from . import resonance as res
from .errors import LambdaCrossingError
from .hamiltonian import RamanParams, _finite_grid, _gap, dressed_spectrum
from .probe import _MAX_NU_POINTS
from .resolvent import DEFAULT_MAX_ITER, _LEVEL_TOL, iterate_levels

OUTDIR_ENV = "LAMBDA_CROSSING_OUTDIR"
# Appended to a library error under --units hz: the library sees, and its
# messages quote, angular frequencies (some errors quote none).
_HZ_NOTE = " (any frequency quoted is angular, 2π × Hz)"
# Rows of a levels table computed and written at a time.
_LEVELS_BLOCK = 2**14


class _FlagError(ValueError):
    """A bad or missing flag or config value, as the user gave it (never angular)."""


def _fmt(value) -> str:
    return f"{float(value):.17g}"


def _open_in_place(path, flags):
    # open(path, "w") without O_TRUNC, and with the mode bits open() uses
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_text(path: Path, text):
    """Write text, a str or an iterable of str written in turn, as UTF-8 over
    path in place: the one writer of every output.

    Opened without O_TRUNC, then cut to the written length if it is a regular
    file (not a FIFO or /dev/null): truncating to zero on open makes ext4
    start writeback on close. Not atomic: a crash mid-write leaves the new
    bytes followed by the old tail, where open(path, "w") leaves a short file."""
    with open(path, "w", encoding="utf-8", opener=_open_in_place) as fh:
        fh.writelines([text] if isinstance(text, str) else text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _csv_lines(header, blocks):
    """A header line, then one line per row of each block of rows, every
    value as _fmt does, formatted by one template per block."""
    yield ",".join(header) + "\n"
    line = ",".join(["%.17g"] * len(header)) + "\n"
    for rows in blocks:
        values = np.asarray(rows, dtype=float).reshape(-1, len(header))
        yield (line * len(values)) % tuple(values.ravel().tolist())


def _write_csv(path: Path, header, rows):
    """Write a header line and one line per row, as one block."""
    _write_text(path, "".join(_csv_lines(header, [rows])))


def _parse_range(text: str, key: str, scale: float = 1.0) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise _FlagError(f"{key}: range must be start:stop:count, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise _FlagError(f"{key}: malformed range {text!r}") from None
    if count < 2:
        raise _FlagError(f"{key}: range count must be >= 2")
    if count > _MAX_NU_POINTS:
        raise _FlagError(f"{key}: range count {count} is over the cap of {_MAX_NU_POINTS}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise _FlagError(f"{key}: range bounds must be finite, got {text!r}")
    # an overflow to inf or nan is left for the command's grid check to name
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linspace(start, stop, count) * scale


def _load_config(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise _FlagError(f"config: {err}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _FlagError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _merge_config(args: argparse.Namespace):
    """Fill unset flags from the config file, leaving flag values in charge."""
    if not getattr(args, "config", None):
        return
    config = _load_config(args.config)
    for key, value in config.items():
        if not hasattr(args, key):
            raise _FlagError(f"config: unknown key {key!r}")
        if getattr(args, key) is None:
            setattr(args, key, value)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _require(args, *keys):
    for key in keys:
        if getattr(args, key) is None:
            raise _FlagError(f"missing required option {_flag(key)}")


def _num(args, key, default=None, parse=float):
    """The flag's value read by parse (float or int), or default if unset."""
    value = getattr(args, key)
    if value is None:
        return default
    try:
        return parse(value)
    except ValueError:
        raise _FlagError(f"{key}: malformed number {value!r}") from None


def _scale(args) -> float:
    units = args.units or "dimensionless"
    if units not in ("dimensionless", "hz"):
        raise _FlagError(f"units must be dimensionless or hz, got {units!r}")
    return 2.0 * math.pi if units == "hz" else 1.0


def _params(args, s: float, delta1_flag=None) -> RamanParams:
    """Drive parameters scaled to angular units by s; delta1 is read from
    delta1_flag, or set to delta2 for commands that scan it."""
    d2 = _num(args, "delta2", RamanParams.delta2) * s
    d1 = _num(args, delta1_flag) * s if delta1_flag else d2
    return RamanParams(_num(args, "omega1") * s, _num(args, "omega2") * s, d1, d2)


def cmd_levels(args, s: float, out: Path):
    grid = _parse_range(args.delta1_range, "delta1-range", s)
    params = _params(args, s)
    # checked whole before out is opened; dressed_spectrum sees one block
    _finite_grid(grid)

    def blocks():
        # spectra and text per block of rows, so memory is bounded at any count
        for start in range(0, len(grid), _LEVELS_BLOCK):
            part = grid[start : start + _LEVELS_BLOCK]
            e = dressed_spectrum(params, part).energies
            yield np.column_stack([part, e, _gap(e)]) / s

    _write_text(out, _csv_lines(["delta1", "eps1", "eps2", "eps3", "gap32"], blocks()))


def cmd_resonance(args, s: float, out: Path):
    report = res.resonance_report(_params(args, s), _num(args, "tol", res.DEFAULT_TOL))
    header = [field.name for field in dataclasses.fields(report)]
    row = [getattr(report, name) / s for name in header]
    _write_csv(out, header, [row])


def cmd_shift_scan(args, s: float, out: Path):
    ratios = _parse_range(args.ratio_range, "ratio-range")
    d2 = _num(args, "delta2", RamanParams.delta2) * s
    tol = _num(args, "tol", res.DEFAULT_TOL)
    rows_out, skipped = res.shift_scan(_num(args, "omega2") * s, ratios, tol=tol, delta2=d2)
    for ratio, message in skipped:
        print(f"shift-scan: skipped ratio {ratio:g}: {message}", file=sys.stderr)
    rows = [[r.ratio, r.shift_exact / s, r.shift_approx / s] for r in rows_out]
    _write_csv(out, ["ratio", "shift_exact", "shift_approx"], rows)


def cmd_probe_spectrum(args, s: float, out: Path):
    params = _params(args, s, "delta1")
    # Durations are absolute times (seconds when --units hz): no conversion.
    duration = _num(args, "duration")
    omega_p = _num(args, "omega_p") * s
    if args.nu_range is not None:
        nu_grid = _parse_range(args.nu_range, "nu-range", s)
    else:
        nu_grid = probe_mod.default_nu_grid(params, duration)
    spectrum = probe_mod.probe_spectrum(params, omega_p, duration, nu_grid)
    if spectrum.perturbative_flag:
        raise _FlagError(*probe_mod._strong_probe(args.omega_p, spectrum.probabilities).args)
    rows = np.column_stack([spectrum.nu_grid / s, spectrum.probabilities])
    _write_csv(out, ["nu", "probability"], rows)
    peaks = [[pk.position / s, pk.height, pk.width / s] for pk in spectrum.peaks]
    _write_csv(out.with_name(out.stem + "_peaks.csv"), ["position", "height", "width"], peaks)


def cmd_probe_resonance(args, s: float, out: Path):
    params = _params(args, s)
    grid = _parse_range(args.delta1_range, "delta1-range", s)
    result = probe_mod.probed_structural_resonance(
        params, grid, _num(args, "omega_p") * s, _num(args, "duration")
    )
    rows = np.column_stack([result.delta1_grid / s, result.splittings / s])
    _write_csv(out, ["delta1", "measured_splitting"], rows)
    print(f"probed_structural_resonance = {_fmt(result.delta1 / s)}")


def cmd_resolvent(args, s: float, out: Path):
    levels = iterate_levels(
        _params(args, s, "delta1"),
        tol=_num(args, "tol", _LEVEL_TOL),
        max_iter=_num(args, "max_iter", DEFAULT_MAX_ITER, parse=int),
    )
    header = ["e_minus", "e_plus", "iterations_minus", "iterations_plus"]
    row = [levels.e_minus / s, levels.e_plus / s, *levels.iterations]
    _write_csv(out, header, [row])


def cmd_experiment(args, s: float, out: Path):
    # inputs and outputs are in Hz under either --units: s goes unused
    preset = exp.PRESETS.get(str(args.preset).lower())
    if preset is None:
        raise _FlagError(f"unknown preset {args.preset!r}")
    if args.omega is not None:
        omega1 = omega2 = _num(args, "omega")
    else:
        _require(args, "omega1", "omega2")
        omega1, omega2 = _num(args, "omega1"), _num(args, "omega2")
    report = exp.scenario_report(
        preset,
        omega1,
        omega2,
        _num(args, "delta2"),
        delta1=_num(args, "delta1"),
        scenario=str(args.scenario),
    )
    lines = [
        f"scenario = {report.scenario}",
        f"bias_field_G = {_fmt(report.bias_field)}",
        f"delta_e31_Hz = {_fmt(report.delta_e31)}",
        f"delta_e23_Hz = {_fmt(report.delta_e23)}",
        f"delta_e21_Hz = {_fmt(report.delta_e21)}",
        f"dynamical_shift_Hz = {_fmt(report.dynamical_shift)}",
        f"probe_time_bound_s = {_fmt(report.probe_time_bound)}",
        f"probe_rabi_bound_Hz = {_fmt(report.probe_rabi_bound)}",
    ]
    if report.scattering_rate is not None:
        lines.append(f"scattering_rate_per_s = {_fmt(report.scattering_rate)}")
    lines.append(f"feasible = {str(report.feasible).lower()}")
    lines.append(f"notes = {report.notes}")
    _write_text(out, "\n".join(lines) + "\n")


# name: (help, handler, required flags, optional flags); every command also
# takes COMMON_FLAGS. main calls handler(args, s, out) with the unit scale s
# and the output path out, and the handler writes its table. Flags carry no
# argparse defaults, so config values can fill any flag not given on the
# command line.
COMMANDS = {
    "levels": ("dressed energies over a delta1 scan", cmd_levels,
               ("omega1", "omega2", "delta1_range"), ()),
    "resonance": ("all resonance loci and the shift", cmd_resonance,
                  ("omega1", "omega2"), ("tol",)),
    "shift-scan": ("dynamical shift vs coupling ratio", cmd_shift_scan,
                   ("omega2", "ratio_range"), ("tol",)),
    "probe-spectrum": ("probe transition probability vs nu", cmd_probe_spectrum,
                       ("omega1", "omega2", "delta1", "omega_p", "duration"), ("nu_range",)),
    "probe-resonance": ("structural resonance via the probe protocol", cmd_probe_resonance,
                        ("omega1", "omega2", "delta1_range", "omega_p", "duration"), ()),
    "resolvent": ("iterated implicit-Hamiltonian levels", cmd_resolvent,
                  ("omega1", "omega2", "delta1"), ("tol", "max_iter")),
    "experiment": ("alkali-atom scenario report (inputs in Hz)", cmd_experiment,
                   ("preset", "scenario", "delta2"), ("omega", "omega1", "omega2", "delta1")),
}
COMMON_FLAGS = ("config", "output", "units", "delta2")
# No flag looks like a number, so a token that starts with "-" and then a
# digit, ".", inf or nan is always a value (argparse alone takes -1e-3 and
# -1:1:5 for unknown options).
_NEGATIVE_VALUE = re.compile(r"-(?:[\d.]|inf|nan)", re.IGNORECASE)
FLAG_SETTINGS = {
    "config": {"help": "flat key = value config file"},
    "output": {"help": "output file path"},
    "units": {"choices": ["dimensionless", "hz"]},
    "scenario": {"choices": ["optical", "microwave"]},
    "omega": {"help": "shorthand for equal omega1 and omega2"},
    "delta1_range": {"help": "start:stop:count"},
    "ratio_range": {"help": "start:stop:count"},
    "nu_range": {"help": "start:stop:count"},
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="lambda-crossing",
        description="Avoided-crossing resonance analysis of a driven 3-level Lambda system",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, required, optional) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_VALUE
        for key in dict.fromkeys(COMMON_FLAGS + required + optional):
            p.add_argument(_flag(key), dest=key, **FLAG_SETTINGS.get(key, {}))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _merge_config(args)
        _, handler, required, _ = COMMANDS[args.command]
        _require(args, *required)
        default = "experiment.txt" if args.command == "experiment" else args.command + ".csv"
        out = Path(args.output or default.replace("-", "_"))
        outdir = os.environ.get(OUTDIR_ENV)
        if outdir and not out.is_absolute():
            out = Path(outdir) / out
        handler(args, _scale(args), out)
        return 0
    except (LambdaCrossingError, ValueError, OSError, ArithmeticError) as err:
        angular = args.units == "hz" and args.command != "experiment"
        angular = angular and not isinstance(err, (_FlagError, OSError))
        # a float overflow's own text, (34, 'Numerical result out of range'), names no cause
        kind = f"{type(err).__name__}: " if isinstance(err, ArithmeticError) else ""
        print(f"error: {kind}{err}{_HZ_NOTE if angular else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
