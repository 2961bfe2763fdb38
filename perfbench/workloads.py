"""The benchmark's workloads: seeded task inputs, the calls, and their checks.

A task is one user-level call into lambda_crossing. Each workload cycles
through a fixed list of task kinds (closed loop, one client: the next
task starts when the previous one returns). Inputs come from a seeded
low-discrepancy stream per kind, so every prefix of a run covers its
parameter ranges evenly and the figures of two seeds differ little,
while the same seed always yields the same inputs.

Couplings O1, O2 are drawn log-uniform over [1e-3, 0.6] delta2, from the
flat weak-coupling minimum to strong level repulsion.

Library calls go through module attributes looked up at call time
(`lib.resonance.resonance_report`), so the tracer's wrappers see them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref

COUPLING_RANGE = (1e-3, 0.6)


class Stream:
    """Point j of a Kronecker (R_d) sequence shifted by a seeded offset.

    alpha_i = phi_d^-i with phi_d the positive root of x^(d+1) = x + 1
    (Roberts' generalized golden ratio): each coordinate, and every prefix
    of the sequence, stays evenly spread over [0, 1).

    The first `sizes` coordinates set problem sizes (grid points, steps).
    Their offset does not depend on the seed, so every seed runs the same
    schedule of sizes, and so the same amount of work, on other inputs.
    """

    def __init__(self, seed: int, salt: int, dim: int, sizes: int = 0):
        self.offset = np.random.default_rng([seed, salt]).random(dim)
        self.offset[:sizes] = 0.5
        phi = 2.0
        for _ in range(60):
            phi = (1.0 + phi) ** (1.0 / (dim + 1))
        self.alpha = phi ** -np.arange(1.0, dim + 1.0)

    def point(self, j: int) -> np.ndarray:
        return (self.offset + (j + 1) * self.alpha) % 1.0


def log_uniform(u: float, lo: float, hi: float) -> float:
    return float(lo * (hi / lo) ** u)


def uniform(u: float, lo: float, hi: float) -> float:
    return float(lo + u * (hi - lo))


def couplings(u0: float, u1: float, d2: float):
    return log_uniform(u0, *COUPLING_RANGE) * d2, log_uniform(u1, *COUPLING_RANGE) * d2


def _r(x: float) -> str:
    return repr(float(x))


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


@dataclass
class Verdict:
    ok: bool
    detail: str = ""
    locus_err: float | None = None  # worst exact-locus error, in delta2 units
    csv_bytes: int | None = None  # bytes a CLI call wrote


@dataclass(frozen=True)
class Kind:
    """One kind of task: input from a unit point, the call, the check."""

    name: str
    dim: int
    sizes: int  # leading coordinates of the unit point that set problem sizes
    make: Callable[[np.ndarray], dict]
    run: Callable[[Any, dict, Path], Any]
    check: Callable[[dict, Any], Verdict]


def _fail(*parts) -> Verdict:
    return Verdict(False, "; ".join(str(p) for p in parts))


# --- loci --------------------------------------------------------------------


def _make_point(u) -> dict:
    d2 = log_uniform(u[2], 0.5, 2.0)
    o1, o2 = couplings(u[0], u[1], d2)
    return {"o1": o1, "o2": o2, "d2": d2}


def _check_loci(x: dict, values: dict) -> Verdict:
    """Check a resonance report (attribute names as in ResonanceReport)."""
    o1, o2, d2 = x["o1"], x["o2"], x["d2"]
    L = ref.loci(o1, o2, d2)
    err_s = abs(values["structural_exact"] - L.structural)
    err_d = abs(values["dynamical_exact_full"] - L.dynamical)
    bad = []
    if not err_s <= L.structural_tol:
        bad.append(f"structural_exact off by {err_s:.3g} > {L.structural_tol:.3g}")
    if not err_d <= L.dynamical_tol:
        bad.append(f"dynamical_exact_full off by {err_d:.3g} > {L.dynamical_tol:.3g}")
    shift_err = abs(values["shift_exact"] - L.shift)
    if not shift_err <= L.structural_tol + L.dynamical_tol:
        bad.append(f"shift_exact off by {shift_err:.3g}")
    eff = ref.effective_locus(o1, o2, d2)
    if not abs(values["dynamical_exact_effective"] - eff) <= 1e-12 * d2:
        bad.append(f"dynamical_exact_effective {values['dynamical_exact_effective']!r} != {eff!r}")
    for name, exact in (
        ("structural_approx", L.structural),
        ("dynamical_approx", L.dynamical),
        ("shift_approx", L.shift),
    ):
        if not ref.within_fourth_order(values[name], exact, o1, o2, d2):
            bad.append(f"{name} {values[name]!r} not within fourth order of {exact!r}")
    return Verdict(not bad, "; ".join(bad), locus_err=max(err_s, err_d) / d2)


def _run_report(lib, x, out):
    p = lib.hamiltonian.RamanParams(x["o1"], x["o2"], x["d2"], x["d2"])
    return lib.resonance.resonance_report(p)


def _check_report(x, report) -> Verdict:
    return _check_loci(x, vars(report))


def _run_resolvent(lib, x, out):
    p = lib.hamiltonian.RamanParams(x["o1"], x["o2"], x["d2"], x["d2"])
    return lib.resolvent.resolvent_structural_resonance(p)


def _check_resolvent(x, locus) -> Verdict:
    expected, _, tol = ref.structural(x["o1"], x["o2"], x["d2"])
    err = abs(locus - expected)
    if not err <= tol:
        return _fail(f"resolvent structural locus off by {err:.3g} > {tol:.3g}")
    return Verdict(True, locus_err=err / x["d2"])


RESONANCE_COLUMNS = (
    "structural_exact",
    "structural_approx",
    "dynamical_exact_effective",
    "dynamical_exact_full",
    "dynamical_approx",
    "shift_exact",
    "shift_approx",
)


def _run_cli_resonance(lib, x, out):
    path = out / "resonance.csv"
    argv = ["resonance", "--omega1", _r(x["o1"]), "--omega2", _r(x["o2"])]
    argv += ["--delta2", _r(x["d2"]), "--output", str(path)]
    return lib.cli.main(argv), path


def _check_cli_resonance(x, result) -> Verdict:
    code, path = result
    if code != 0:
        return _fail(f"exit code {code}")
    header = path.read_text(encoding="utf-8").splitlines()[0].split(",")
    if tuple(header) != RESONANCE_COLUMNS:
        return _fail(f"columns {header}")
    verdict = _check_loci(x, dict(zip(RESONANCE_COLUMNS, _read_csv(path)[0])))
    verdict.csv_bytes = path.stat().st_size
    return verdict


LOCI = [
    Kind("resonance_report", 3, 0, _make_point, _run_report, _check_report),
    Kind("resolvent_structural_resonance", 3, 0, _make_point, _run_resolvent, _check_resolvent),
    Kind("cli_resonance", 3, 0, _make_point, _run_cli_resonance, _check_cli_resonance),
]


# --- scans -------------------------------------------------------------------


def _make_levels(u) -> dict:
    d2 = log_uniform(u[3], 0.5, 2.0)
    o1, o2 = couplings(u[1], u[2], d2)
    half = uniform(u[4], 0.2, 0.5) * d2
    return {"o1": o1, "o2": o2, "d2": d2, "n": int(round(uniform(u[0], 401, 2001))),
            "start": d2 - half, "stop": d2 + half}


def _run_cli_levels(lib, x, out):
    path = out / "levels.csv"
    argv = ["levels", "--omega1", _r(x["o1"]), "--omega2", _r(x["o2"]), "--delta2", _r(x["d2"])]
    argv += ["--delta1-range", f"{x['start']!r}:{x['stop']!r}:{x['n']}", "--output", str(path)]
    return lib.cli.main(argv), path


def _check_cli_levels(x, result) -> Verdict:
    code, path = result
    if code != 0:
        return _fail(f"exit code {code}")
    rows = _read_csv(path)
    grid = np.linspace(x["start"], x["stop"], x["n"])
    if rows.shape != (x["n"], 5):
        return _fail(f"shape {rows.shape}, expected {(x['n'], 5)}")
    if not np.allclose(rows[:, 0], grid, rtol=4 * ref.EPS, atol=0.0):
        return _fail("delta1 column is not the requested grid")
    e = ref.energies(x["o1"], x["o2"], grid, x["d2"])
    tol = ref.EIGENVALUE_RTOL * max(x["d2"], x["o1"], x["o2"], abs(x["start"]), abs(x["stop"]))
    err = np.abs(rows[:, 1:4] - e).max()
    gap_err = np.abs(rows[:, 4] - (e[:, 2] - e[:, 1])).max()
    if not (err <= tol and gap_err <= 2.0 * tol):
        return _fail(f"energies off by {err:.3g}, gap by {gap_err:.3g} (tol {tol:.3g})")
    return Verdict(True, csv_bytes=path.stat().st_size)


def _make_track(u) -> dict:
    d2 = log_uniform(u[3], 0.5, 2.0)
    o1, o2 = couplings(u[1], u[2], d2)
    half = uniform(u[4], 0.2, 0.4) * d2
    grid = np.linspace(d2 - half, d2 + half, int(round(uniform(u[0], 201, 801))))
    return {"o1": o1, "o2": o2, "d2": d2, "grid": grid}


def _run_track(lib, x, out):
    p = lib.hamiltonian.RamanParams(x["o1"], x["o2"], x["d2"], x["d2"])
    scan = lib.hamiltonian.track_character(p, x["grid"])
    return scan, lib.hamiltonian.character_swap_point(scan)


# The package flags a label ambiguous when the top two squared overlaps
# differ by at most 1e-9 (track_character's ambig_tol); labels are only
# compared where the reference margin clears that by a wide factor.
AMBIGUITY_TOL = 1e-9


def _check_track(x, result) -> Verdict:
    scan, swap = result
    grid = x["grid"]
    labels, margin = ref.character_labels(x["o1"], x["o2"], grid, x["d2"])
    clear = margin > 10.0 * AMBIGUITY_TOL
    if not np.array_equal(np.asarray(scan.labels)[clear], labels[clear]):
        return _fail("dominant-state labels differ from the reference")
    if np.any(np.asarray(scan.ambiguous)[clear]) or not np.all(
        np.asarray(scan.ambiguous)[margin < 0.1 * AMBIGUITY_TOL]
    ):
        return _fail("ambiguity flags differ from the reference")
    expected = ref.swap_point(grid, labels)
    if not abs(swap - expected) <= 4 * ref.EPS * abs(expected):
        return _fail(f"swap point {swap!r} != {expected!r}")
    return Verdict(True)


def _probe_duration(nu_points: float, gap: float) -> float:
    """Duration giving about nu_points points on the default nu grid, which
    spans +-1.6 gap with spacing (2 pi / duration) / 12."""
    return 2.0 * math.pi * nu_points / (38.4 * gap)


def _make_probe_spectrum(u) -> dict:
    d2 = 1.0
    o1, o2 = couplings(u[1], u[2], d2)
    L = ref.loci(o1, o2, d2)
    d1 = L.structural + uniform(u[3], -1.0, 1.0) * L.width
    g = float(ref.gap(o1, o2, d1, d2)[0])
    duration = _probe_duration(log_uniform(u[0], 1e2, 1e4), g)
    return {"o1": o1, "o2": o2, "d2": d2, "d1": d1, "duration": duration,
            "omega_p": 0.2 / duration, "width": L.width}


def _run_cli_probe_spectrum(lib, x, out):
    path = out / "probe_spectrum.csv"
    argv = ["probe-spectrum", "--omega1", _r(x["o1"]), "--omega2", _r(x["o2"])]
    argv += ["--delta1", _r(x["d1"]), "--delta2", _r(x["d2"]), "--omega-p", _r(x["omega_p"])]
    argv += ["--duration", _r(x["duration"]), "--output", str(path)]
    return lib.cli.main(argv), path, out / "probe_spectrum_peaks.csv"


def _check_cli_probe_spectrum(x, result) -> Verdict:
    code, path, peaks_path = result
    if code != 0:
        return _fail(f"exit code {code}")
    rows, peaks = _read_csv(path), _read_csv(peaks_path)
    o1, o2, d2, t = x["o1"], x["o2"], x["d2"], x["duration"]
    lv = ref.probe_levels(o1, o2, x["d1"], d2)
    g = float(lv.gap[0])
    nu, p = rows[:, 0], rows[:, 1]
    spacing = (2.0 * math.pi / t) / 12.0
    edge_tol = 1e-9 * g
    if not (abs(nu[0] + 1.6 * g) <= edge_tol and abs(nu[-1] - 1.6 * g) <= edge_tol):
        return _fail(f"nu grid [{nu[0]!r}, {nu[-1]!r}] does not span +-1.6 gap = {1.6 * g!r}")
    if not np.max(np.diff(nu)) <= spacing * (1.0 + 1e-9):
        return _fail("nu grid coarser than (2 pi / duration) / 12")
    p_ref = ref.probe_probability(lv.gap, lv.a, lv.b, x["omega_p"], nu, t)[0]
    tol = ref.probe_rtol(o1, o2, d2, x["width"], t) * p_ref.max()
    err = np.abs(p - p_ref).max()
    if not err <= tol:
        return _fail(f"probabilities off by {err:.3g} > {tol:.3g}")
    negative = peaks[peaks[:, 0] < 0.0]
    if negative.size == 0:
        return _fail("no peak at negative nu")
    found = negative[np.argmax(negative[:, 1]), 0]
    if not _peaks_ok(lv, x["omega_p"], t, [found]):
        return _fail(f"negative-nu peak at {found!r} is not the highest")
    return Verdict(True, csv_bytes=path.stat().st_size + peaks_path.stat().st_size)


def _peaks_ok(levels, omega_p: float, duration: float, found) -> bool:
    """The package refines a peak's position between the samples next to
    its highest one, so within one spacing of the reported position the
    spectrum must reach what the highest sample is owed."""
    spacing = (2.0 * math.pi / duration) / 12.0
    reach = ref.highest_near(levels, omega_p, duration, found, spacing)
    floor = ref.negative_peak_floor(levels, omega_p, duration)
    return bool(np.all(reach >= floor * (1.0 - 1e-9)))


def _make_probed(u) -> dict:
    d2 = 1.0
    o1, o2 = couplings(u[2], u[3], d2)
    L = ref.loci(o1, o2, d2)
    # Within two crossing widths of the locus both probe peaks stand clear;
    # 300-1000 nu points at the narrowest gap resolve them to a few 0.1 %.
    half = uniform(u[4], 1.0, 2.0) * L.width
    centre = L.structural + uniform(u[5], -0.3, 0.3) * L.width
    grid = np.linspace(centre - half, centre + half, int(round(uniform(u[0], 21, 41))))
    duration = _probe_duration(uniform(u[1], 300.0, 1000.0), L.width)
    return {"o1": o1, "o2": o2, "d2": d2, "grid": grid, "duration": duration,
            "omega_p": 0.2 / duration}


def _run_probed(lib, x, out):
    p = lib.hamiltonian.RamanParams(x["o1"], x["o2"], x["d2"], x["d2"])
    return lib.probe.probed_structural_resonance(p, x["grid"], x["omega_p"], x["duration"])


def _check_probed(x, result) -> Verdict:
    grid, t = x["grid"], x["duration"]
    lv = ref.probe_levels(x["o1"], x["o2"], grid, x["d2"])
    if not _peaks_ok(lv, x["omega_p"], t, -np.asarray(result.splittings)):
        return _fail("a measured splitting is not at the highest negative-nu peak")
    split = np.asarray(result.splittings)
    i = int(np.argmin(split))
    if not 0 < i < grid.size - 1:
        return _fail("measured-splitting minimum on the grid edge was not refused")
    # Vertex of the parabola through the minimum and its neighbours, on
    # the evenly spaced grid.
    y0, y1, y2 = split[i - 1:i + 2]
    step = grid[1] - grid[0]
    vertex = grid[i] + 0.5 * step * (y0 - y2) / (y0 - 2.0 * y1 + y2)
    if not abs(result.delta1 - vertex) <= 1e-9 * step + 4.0 * ref.EPS * abs(vertex):
        return _fail(f"probed resonance {result.delta1!r}, vertex of the splittings {vertex!r}")
    return Verdict(True)


def _make_experiment(u) -> dict:
    d2 = log_uniform(u[2], 1e6, 1e11)
    o1, o2 = couplings(u[0], u[1], d2)
    scenario = "optical" if u[3] < 0.5 else "microwave"
    return {"o1": o1, "o2": o2, "d2": d2, "scenario": scenario,
            "d1": d2 * uniform(u[4], 0.9, 1.1)}


def _run_cli_experiment(lib, x, out):
    path = out / "experiment.txt"
    argv = ["experiment", "--preset", "rb87", "--scenario", x["scenario"], "--units", "hz"]
    argv += ["--omega1", _r(x["o1"]), "--omega2", _r(x["o2"]), "--delta2", _r(x["d2"])]
    argv += ["--delta1", _r(x["d1"]), "--output", str(path)]
    return lib.cli.main(argv), path


def _check_cli_experiment(x, result) -> Verdict:
    code, path = result
    if code != 0:
        return _fail(f"exit code {code}")
    lines = path.read_text(encoding="utf-8").splitlines()
    values = dict(line.split(" = ", 1) for line in lines if " = " in line)
    bad = [
        f"{key} = {values.get(key)}"
        for key, (quoted, rtol) in ref.RB87_QUOTED.items()
        if not abs(float(values.get(key, "nan")) - quoted) <= rtol * quoted
    ]
    o1, o2, d2, d1 = x["o1"], x["o2"], x["d2"], x["d1"]
    lowest = o1**2 * o2**2 / (4.0 * d2**3)
    shift = float(values["dynamical_shift_Hz"])
    # Lowest-order shift: O1^2 O2^2 / (4 delta2^3), or half that under the
    # other fourth-order convention.
    if not 0.5 * lowest * (1 - 1e-12) <= shift <= lowest * (1 + 1e-12):
        bad.append(f"dynamical_shift_Hz = {shift!r}, lowest order {lowest!r}")
    if not math.isclose(float(values["probe_time_bound_s"]), 1.0 / shift, rel_tol=1e-12):
        bad.append("probe_time_bound_s is not 1 / shift")
    if x["scenario"] == "optical":
        rate = 2.0 * math.pi * ref.RB87_GAMMA_HZ * (o1**2 + o2**2) / (8.0 * d1**2)
        got = float(values.get("scattering_rate_per_s", "nan"))
        if not math.isclose(got, rate, rel_tol=1e-12):
            bad.append(f"scattering_rate_per_s = {got!r}, expected {rate!r}")
        feasible = rate < 0.1 * 2.0 * math.pi * shift
    else:
        feasible = True
    if values.get("feasible") != str(feasible).lower():
        bad.append(f"feasible = {values.get('feasible')}, expected {feasible}")
    verdict = Verdict(not bad, "; ".join(bad))
    verdict.csv_bytes = path.stat().st_size
    return verdict


SCANS = [
    Kind("cli_levels", 5, 1, _make_levels, _run_cli_levels, _check_cli_levels),
    Kind("track_character", 5, 1, _make_track, _run_track, _check_track),
    Kind("cli_probe_spectrum", 4, 1, _make_probe_spectrum, _run_cli_probe_spectrum,
         _check_cli_probe_spectrum),
    Kind("probed_structural_resonance", 6, 2, _make_probed, _run_probed, _check_probed),
    Kind("cli_experiment", 5, 0, _make_experiment, _run_cli_experiment, _check_cli_experiment),
]


# --- oracles -----------------------------------------------------------------


def _make_oracle(u) -> dict:
    d2 = 1.0
    o1, o2 = couplings(u[1], u[2], d2)
    L = ref.loci(o1, o2, d2)
    d1 = L.structural + uniform(u[3], -1.0, 1.0) * L.width
    lv = ref.probe_levels(o1, o2, d1, d2)
    g = float(lv.gap[0])
    steps = int(round(log_uniform(u[0], 3000, 20000)))
    # The oracle needs 50 steps per period of its fastest frequency; the
    # duration uses 50-90 % of the steps' reach, so `steps` clears it.
    # |nu| exceeds the gap by at most pi / (4 duration), far below delta1.
    fastest = max(g, o1, o2, abs(d1))
    duration = uniform(u[4], 0.5, 0.9) * steps * 2.0 * math.pi / (50.0 * fastest)
    sign = 1.0 if u[5] < 0.5 else -1.0
    nu = sign * g + uniform(u[6], -0.25, 0.25) * math.pi / duration
    return {"o1": o1, "o2": o2, "d2": d2, "d1": d1, "steps": steps, "duration": duration,
            "nu": nu, "omega_p": 0.02 / duration, "levels": lv}


def _run_oracle(lib, x, out):
    p = lib.hamiltonian.RamanParams(x["o1"], x["o2"], x["d1"], x["d2"])
    probe = lib.probe.ProbeParams(x["omega_p"], x["nu"], x["duration"])
    return lib.probe.probe_time_domain_oracle(p, probe, x["steps"])


def _check_oracle(x, p) -> Verdict:
    lv = x["levels"]
    closed = ref.probe_probability(lv.gap, lv.a, lv.b, x["omega_p"], x["nu"], x["duration"]).item()
    if not abs(p - closed) <= ref.ORACLE_RTOL * closed:
        return _fail(f"oracle {p!r} vs first-order closed form {closed!r}")
    return Verdict(True)


def _make_envelope(u) -> dict:
    d2 = 1.0
    o1, o2 = couplings(u[0], u[1], d2)
    L = ref.loci(o1, o2, d2)
    return {"o1": o1, "o2": o2, "d2": d2, "d1": L.dynamical + uniform(u[2], -2.0, 2.0) * L.width}


def _run_envelope(lib, x, out):
    p = lib.hamiltonian.RamanParams(x["o1"], x["o2"], x["d1"], x["d2"])
    return lib.dynamics.transfer_envelope(p)


def _check_envelope(x, value) -> Verdict:
    lo, hi = ref.envelope_bounds(x["o1"], x["o2"], x["d1"], x["d2"])
    if not lo <= value <= hi:
        return _fail(f"envelope {value!r} outside [{lo!r}, {hi!r}]")
    return Verdict(True)


def _make_levels_point(u) -> dict:
    d2 = 1.0
    o1, o2 = couplings(u[0], u[1], d2)
    return {"o1": o1, "o2": o2, "d2": d2, "d1": uniform(u[2], 0.8, 1.2) * d2}


def _run_iterate(lib, x, out):
    p = lib.hamiltonian.RamanParams(x["o1"], x["o2"], x["d1"], x["d2"])
    return lib.resolvent.iterate_levels(p)


def _check_iterate(x, levels) -> Verdict:
    e = ref.energies(x["o1"], x["o2"], x["d1"], x["d2"])[0]
    err = max(abs(levels.e_minus - e[1]), abs(levels.e_plus - e[2]))
    if not (levels.converged and err <= ref.LEVEL_TOL * x["d2"]):
        return _fail(f"levels off by {err:.3g} (converged={levels.converged})")
    return Verdict(True)


ORACLE = Kind("probe_time_domain_oracle", 7, 1, _make_oracle, _run_oracle, _check_oracle)
ENVELOPE = Kind("transfer_envelope", 3, 0, _make_envelope, _run_envelope, _check_envelope)
ITERATE = Kind("iterate_levels", 3, 0, _make_levels_point, _run_iterate, _check_iterate)

# Each cycle of a workload runs its kinds in this order. In `oracles` the
# RK4 oracle is one task in five, which puts the 90th percentile of task
# time at its median while a run still collects enough tasks; the median
# task is a transfer envelope.
WORKLOADS = {
    "loci": LOCI,
    "scans": SCANS,
    "oracles": [ORACLE, ENVELOPE, ITERATE, ENVELOPE, ITERATE],
}
