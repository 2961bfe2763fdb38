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
from .resolvent import iterate_levels

OUTDIR_ENV = "LAMBDA_CROSSING_OUTDIR"
# Appended to a library error under --units hz: the library sees, and its
# messages quote, angular frequencies (some errors quote none).
_HZ_NOTE = " (any frequency quoted is angular, 2π × Hz)"
# Most values of a block of a table computed, formatted and written at once.
_BLOCK_VALUES = 2**12
# Blocks of fewer values keep the % template: below this the fixed cost of
# _fmt_exact (about 40 us) outweighs its saving per value (measured crossover).
_VECTOR_MIN = 200


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
    """A header line, then one line per row of each block of rows: every value
    in exactly the bytes of %.17g (as _fmt gives them), comma-separated.

    A block of at least _VECTOR_MIN values goes to _fmt_exact, a smaller one
    to one % template."""
    ncols = len(header)
    yield ",".join(header) + "\n"
    line = ",".join(["%.17g"] * ncols) + "\n"
    for rows in blocks:
        values = np.asarray(rows, dtype=float).reshape(-1, ncols)
        if values.size < _VECTOR_MIN:
            yield (line * len(values)) % tuple(values.ravel().tolist())
            continue
        yield _fmt_exact(values.ravel(), ncols)


def _row_blocks(rows, ncols):
    """rows in near-equal slices of at most _BLOCK_VALUES values, at least one row each."""
    count = max(1, -(-len(rows) // max(1, _BLOCK_VALUES // ncols)))
    edges = [len(rows) * k // count for k in range(count + 1)]
    return (rows[a:b] for a, b in zip(edges, edges[1:]))


def _write_csv(path: Path, header, rows):
    """Write a header line and one line per row, formatted and written in
    _row_blocks, so memory is bounded at any row count."""
    _write_text(path, _csv_lines(header, _row_blocks(rows, len(header))))


# _fmt_exact lays each value out in _WIDTH fixed byte slots, then drops the
# zero bytes. Slot 0 holds the sign, 1-5 the lead "0.000" of 0.0001 <= |x| < 1,
# 6-7 a "%s" that marks a value left to _fmt, 8-27 the integer digits (digit i
# of 17 at 11 + i), 30 the point, 31-47 the fraction digits (digit i at 31 + i),
# 48-52 the exponent "e+123" and 53 the separator. Every digit sits in both
# copies; a mask per (form, last nonzero digit, sign) keeps the right bytes.
_WIDTH = 56
_LEAD = b"-0.000%s"
_SPLIT = 2.0**27 + 1.0  # Dekker's splitter for float64


@functools.cache
def _fmt_tables():
    """Tables of _fmt_exact, built on first use by numpy arithmetic: the
    4-digit groups as uint32, the same with the first three bytes 0, 0 and
    ".", each group's last nonzero digit (-100 for 0000), the exponent words,
    the masks, and an empty cache of 10^n as double-doubles (see _pow10)."""
    group = np.arange(10000)
    digits = (group[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    nonzero = digits != 48
    last = np.where(nonzero.any(1), 3 - np.argmax(nonzero[:, ::-1], 1), -100)
    pointed = digits.copy()
    pointed[:, :3] = [0, 0, 46]
    k = np.arange(-400, 401)
    exponent = np.zeros((k.size, 8), np.uint8)
    exponent[:, 0] = 101
    exponent[:, 1] = np.where(k < 0, 45, 43)
    exponent[:, 2] = np.where(abs(k) >= 100, abs(k) // 100 + 48, 0)
    exponent[:, 3] = abs(k) // 10 % 10 + 48
    exponent[:, 4] = abs(k) % 10 + 48
    # form f is fixed notation at k = f - 4 (f < 21) or the exponent form
    # (f = 21); it has p digits before the point (0 for k < 0)
    f = np.arange(22)[:, None, None, None]
    last_digit = np.arange(17)[:, None, None]
    negative = np.arange(2)[:, None] == 1
    fixed, small = f < 21, f < 4
    p = np.where(fixed, np.maximum(f - 3, 0), 1)
    i = np.arange(17)
    keep = np.zeros((22, 17, 2, _WIDTH), bool)
    keep[..., :1] = negative
    keep[..., 1:3] = small
    keep[..., 3:6] = small & (np.arange(3) < 3 - f)
    keep[..., 11:28] = i < p
    keep[..., 30:31] = (p >= 1) & (last_digit >= p)
    keep[..., 31:48] = (i >= p) & (i <= last_digit)
    keep[..., 48:53] = ~fixed
    keep[..., 53] = True
    fallback = np.zeros((1, _WIDTH), bool)
    fallback[0, [6, 7, 53]] = True
    masks = np.concatenate([keep.reshape(-1, _WIDTH), fallback]) * np.uint8(255)
    return (digits.view("<u4").ravel(), pointed.view("<u4").ravel(), last,
            exponent.view("<u8").ravel(), masks.view("<u8"), np.full((3, 600), np.nan))


def _pow10(n):
    """(hh, hl, lo): 10^n exactly as the double-double hi + lo, with hi
    split by Dekker into hh + hl."""
    num, den = (10**n, 1) if n >= 0 else (1, 10**-n)
    hi = num / den  # int / int rounds correctly
    a, b = hi.as_integer_ratio()
    c = _SPLIT * hi
    hh = c - (c - hi)
    return hh, hi - hh, (num * b - a * den) / (den * b)


def _fmt_exact(x, ncols) -> str:
    """The 1-D float array x, ncols values a row, as ((",".join(["%.17g"] *
    ncols) + "\\n") * rows) % tuple(x) gives it, formatted as whole arrays.

    From k = floor(log10|x|), D = round(|x| 10^(16 - k)) is the 17-digit
    integer of %.17g: |x| times 10^(16 - k) held as a double-double, by
    Dekker's error-free product, is exact to about 1e-13. A carry to 10^17
    moves k up by one. Values within 1e-6 of a rounding tie (which %.17g
    breaks half-even on the exact binary value), outside [10^16, 10^17)
    after a wrong k, and +-0, inf, nan and |x| outside [1e-280, 1e280] are
    left to _fmt one at a time and spliced into the text."""
    dig32, pointed32, last_in, exp64, masks, pow10 = _fmt_tables()
    ax = np.abs(x)
    ok = (ax >= 1e-280) & (ax <= 1e280)
    ax[~ok] = 1.0
    k = np.floor(np.log10(ax)).astype(np.int64)
    n = 316 - k  # column of 10^(16 - k) in pow10
    hh = pow10[0].take(n)
    if np.isnan(hh).any():
        for col in set(n[np.isnan(hh)].tolist()):
            pow10[:, col] = _pow10(col - 300)
        hh = pow10[0].take(n)
    hl, lo = pow10[1].take(n), pow10[2].take(n)
    c = _SPLIT * ax
    xh = c - (c - ax)
    xl = ax - xh
    hi = ax * (hh + hl)
    err = ((xh * hh - hi) + xh * hl + xl * hh) + xl * hl + ax * lo
    r = np.rint(err)
    D = hi.astype(np.int64) + r.astype(np.int64)
    below = (hi < 1e16) | ((hi == 1e16) & (err < 0))
    left = ~ok | below | (D > 10**17) | (np.abs(np.abs(err - r) - 0.5) < 1e-6)
    carry = D == 10**17
    D[carry] = 10**16
    k += carry
    D[left] = 10**16
    g0, rest = np.divmod(D, 10**16)
    g1, rest = np.divmod(rest, 10**12)
    g2, rest = np.divmod(rest, 10**8)
    g3, g4 = np.divmod(rest, 10**4)
    last = last_in.take(g4) + 13  # index of the last nonzero digit of D
    for offset, g in ((9, g3), (5, g2), (1, g1), (-3, g0)):
        np.maximum(last, last_in.take(g) + offset, out=last)
    form = np.where((k >= -4) & (k < 17), k + 4, 21)
    key = (form * 17 + last) * 2 + (x < 0)
    key[left] = len(masks) - 1
    out = np.empty((len(x), _WIDTH), np.uint8)
    words, longs = out.view("<u4"), out.view("<u8")
    longs[:, 0] = np.frombuffer(_LEAD, "<u8")[0]
    for col, g in enumerate((g0, g1, g2, g3, g4), 2):
        words[:, col] = dig32.take(g)
    words[:, 7] = pointed32.take(g0)
    words[:, 8:12] = words[:, 3:7]
    longs[:, 6] = exp64.take(k + 400)
    out[:, 53] = 44
    out[ncols - 1 :: ncols, 53] = 10
    longs &= masks.take(key, axis=0)
    text = out.tobytes().translate(None, b"\0").decode("ascii")
    if left.any():
        parts = text.split("%s")
        values = [_fmt(v) for v in x[left].tolist()] + [""]
        text = "".join([s for pair in zip(parts, values) for s in pair])
    return text


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
    values, seen = {}, {}
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
        key = key.strip().replace("-", "_")
        if key in seen:
            raise _FlagError(f"config: key {key!r} repeated on lines {seen[key]} and {lineno}")
        values[key], seen[key] = value.strip(), lineno
    return values


def _merge_config(args: argparse.Namespace):
    """Fill the command's unset flags from the config file; flag values win."""
    if not getattr(args, "config", None):
        return
    _, _, required, optional = COMMANDS[args.command]
    flags = set(COMMON_FLAGS + required + optional) - {"config"}
    for key, value in _load_config(args.config).items():
        if key not in flags:
            raise _FlagError(f"config: unknown key {key!r}")
        if getattr(args, key) is None:
            setattr(args, key, value)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _require(args, *keys):
    for key in keys:
        if getattr(args, key) is None:
            raise _FlagError(f"missing required option {_flag(key)}")


def _num(args, key, default=None):
    """The flag's value as a float, or default if unset."""
    value = getattr(args, key)
    if value is None:
        return default
    try:
        return float(value)
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
    header = ["delta1", "eps1", "eps2", "eps3", "gap32"]

    def blocks():
        # spectra and text per block of rows, so memory is bounded at any count
        for part in _row_blocks(grid, len(header)):
            e = dressed_spectrum(params, part).energies
            yield np.column_stack([part, e, _gap(e)]) / s

    _write_text(out, _csv_lines(header, blocks()))


def cmd_resonance(args, s: float, out: Path):
    report = res.resonance_report(_params(args, s))
    header = [field.name for field in dataclasses.fields(report)]
    row = [getattr(report, name) / s for name in header]
    _write_csv(out, header, [row])


def cmd_shift_scan(args, s: float, out: Path):
    ratios = _parse_range(args.ratio_range, "ratio-range")
    d2 = _num(args, "delta2", RamanParams.delta2) * s
    scan = res.shift_scan(_num(args, "omega2") * s, ratios, delta2=d2)
    rows = [[r.ratio, r.shift_exact / s, r.shift_approx / s] for r in scan]
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
    levels = iterate_levels(_params(args, s, "delta1"))
    header = ["e_minus", "e_plus", "iterations_minus", "iterations_plus"]
    row = [levels.e_minus / s, levels.e_plus / s, *levels.iterations]
    _write_csv(out, header, [row])


def cmd_experiment(args, s: float, out: Path):
    # inputs and outputs are in Hz under either --units: s goes unused
    preset = exp.PRESETS.get(str(args.preset).lower())
    if preset is None:
        raise _FlagError(f"unknown preset {args.preset!r}")
    report = exp.scenario_report(
        preset,
        _num(args, "omega1"),
        _num(args, "omega2"),
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
                  ("omega1", "omega2"), ()),
    "shift-scan": ("dynamical shift vs coupling ratio", cmd_shift_scan,
                   ("omega2", "ratio_range"), ()),
    "probe-spectrum": ("probe transition probability vs nu", cmd_probe_spectrum,
                       ("omega1", "omega2", "delta1", "omega_p", "duration"), ("nu_range",)),
    "probe-resonance": ("structural resonance via the probe protocol", cmd_probe_resonance,
                        ("omega1", "omega2", "delta1_range", "omega_p", "duration"), ()),
    "resolvent": ("iterated implicit-Hamiltonian levels", cmd_resolvent,
                  ("omega1", "omega2", "delta1"), ()),
    "experiment": ("alkali-atom scenario report (inputs in Hz)", cmd_experiment,
                   ("preset", "scenario", "delta2", "omega1", "omega2"), ("delta1",)),
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
    "delta1_range": {"help": "start:stop:count"},
    "ratio_range": {"help": "start:stop:count"},
    "nu_range": {"help": "start:stop:count"},
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="lambda-crossing", allow_abbrev=False,
        description="Avoided-crossing resonance analysis of a driven 3-level Lambda system",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, required, optional) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
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
