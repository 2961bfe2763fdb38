"""Compare the public spectral, locus and probe calls of two checkouts, drive by drive.

    python3 tools/parity.py PARENT CHANGE [--scale 1.0]

PARENT and CHANGE are the roots of two checkouts of this repository. Each is
imported from its own `src/` in one subprocess, which evaluates the same
seeded drives and prints every outcome: the float, or the error's type and
text. The drive families are

  pow2     delta2 = 2^n, n uniform on -60..60 (exact power-of-two scalings)
  near1    delta2 = e^U(-0.7, 0.7)
  wide     delta2 = 2^U(-1000, 1000), Omega = 10^U(-300, 0.5) delta2
  wide-np  the wide drives again, as numpy.float64 inputs
  extreme  a 4096-drive grid of 0, subnormal, tiny, unit, huge and near-max
           values of omega1, omega2, delta1 and delta2
  probe    200 drives like the benchmark's oracle tasks, at delta2 = 1:
           omega1, omega2 log-uniform on 1e-3..0.6, delta1 within
           omega1 omega2 of the structural locus, 3000-20000 steps at
           50-90 % of the oracle's resolution limit, nu = -+gap and
           omega_p = 0.02 / duration

with omega1, omega2 log-uniform on 1e-3..0.6 delta2 and delta1 within
omega1 omega2 / delta2 of delta2 in pow2 and near1. The calls are gap32,
transfer_supremum, p13_full (at t = 3 / delta2), transfer_envelope,
structural_exact, dynamical_exact_full, resolvent_structural_resonance,
both iterate_levels energies, each resonance_report field, and
track_character's labels and ambiguous flags on 41 points of [0.5, 1.5]
delta2 (ending at the largest double where 1.5 delta2 is past it); on the
probe family they are probe_time_domain_oracle and
probe_transition_probability. The probe drives take their locus and gap
from numpy's eigvalsh, not from either tree, so both trees get the same.

For each family and call it prints the number of equal outcomes, the
largest and median ulp and relative shift of the changed floats, the
changed outcomes grouped by kind (numbers in error texts shown as #), the
count of calls that emitted a RuntimeWarning in each tree, and, per family,
the count of calls that ran numpy's eigvalsh in each tree.

Every changed float, and every changed label that neither tree flags
ambiguous, is judged against the mpmath.eigsy spectrum of this checkout's
tests/_reference.py for the float drive, at 50 digits or at as many more
as resolve its smallest level gap to 30: the line counts the values that
moved closer to it and farther from it, the worst error of each tree and,
for gap32, the farther moves larger than one ulp of the larger of the
drive's scale, max(omega1 / 2, omega2 / 2, |delta1|, delta2), and the two
upper levels. Loci, the resolvent's included, are judged against the root
of their 50-digit slope (Hellmann-Feynman, from the eigenvectors),
iterate_levels energies against the nearest 50-digit level,
transfer_envelope against the best crest of the 50-digit P where its
window holds at most 1e6 fast crests, labels against the largest 50-digit
squared overlap. Longer windows and the probe calls have no such
reference; their changed values are counted as unjudged. On pow2 and
near1 the worst errors of gap32, transfer_supremum and p13_full cover
every finite value, not only the changed ones. It is not a test: it
compares two trees, and its output is cited, not asserted.
--scale multiplies the drive counts of the seeded families.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import struct
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

# the 50-digit reference of this checkout's tests
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from _reference import spectrum  # noqa: E402

REPORT_FIELDS = ["structural_exact", "structural_approx", "dynamical_exact_effective",
                 "dynamical_exact_full", "dynamical_approx", "shift_exact", "shift_approx"]
LEVEL_FIELDS = ["e_minus", "e_plus"]
OMEGAS = [0.0, 5e-324, 1e-300, 1e-10, 1.0, 1e10, 1e300, 1.7e308]
DELTA1S = [-1.7e308, -1e300, -1.0, 0.0, 1e-300, 1.0, 1e300, 1.7e308]
DELTA2S = [5e-324, 1e-310, 1e-300, 1e-10, 1.0, 1e10, 1e300, 1.7e308]


def families(scale: float):
    """{name: [(omega1, omega2, delta1, delta2)]}, seeded and identical for both trees."""
    import numpy as np

    def near(rng, d2):
        o1, o2 = (np.exp(rng.uniform(math.log(1e-3), math.log(0.6), 2)) * d2).tolist()
        return (o1, o2, d2 + rng.uniform(-1.0, 1.0) * o1 * o2 / d2, d2)

    n = int(2000 * scale)
    rng = np.random.default_rng(2301)
    pow2 = [near(rng, math.ldexp(1.0, int(rng.integers(-60, 61)))) for _ in range(n)]
    near1 = [near(rng, math.exp(rng.uniform(-0.7, 0.7))) for _ in range(n)]
    wide = []
    for _ in range(int(4282 * scale)):
        d2 = 2.0 ** rng.uniform(-1000.0, 1000.0)
        o1, o2 = (10.0 ** rng.uniform(-300.0, 0.5, 2) * d2).tolist()
        wide.append((o1, o2, d2, d2))
    extreme = [(o1, o2, d1, d2) for o1 in OMEGAS for o2 in OMEGAS for d1 in DELTA1S
               for d2 in DELTA2S]
    return {"pow2": pow2, "near1": near1, "wide": wide, "wide-np": wide, "extreme": extreme,
            "probe": _probe_drives(np.random.default_rng(2302), int(200 * scale))}


def _probe_drives(rng, count: int) -> list:
    """[(omega1, omega2, delta1, delta2, omega_p, nu, duration, steps)] of the
    probe family, the structural locus refined on three nested 2001-point
    grids of the eigvalsh gap."""
    import numpy as np

    def gaps(o1, o2, d1):
        h = np.zeros((np.size(d1), 3, 3))
        h[:, 0, 1] = h[:, 1, 0] = o1 / 2.0
        h[:, 1, 2] = h[:, 2, 1] = o2 / 2.0
        h[:, 1, 1], h[:, 2, 2] = -d1, 1.0 - d1
        e = np.linalg.eigvalsh(h)
        return e[:, 2] - e[:, 1]

    drives = []
    for _ in range(count):
        o1, o2 = (1e-3 * 600.0 ** rng.random(2)).tolist()
        grid = np.linspace(0.5, 1.5, 2001)
        for _ in range(3):
            i = int(np.argmin(gaps(o1, o2, grid)))
            grid = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)], 2001)
        d1 = float(grid[1000]) + rng.uniform(-1.0, 1.0) * o1 * o2
        gap = float(gaps(o1, o2, d1)[0])
        steps = int(3000 * (20 / 3) ** rng.random())
        duration = rng.uniform(0.5, 0.9) * steps * 2 * math.pi / (50 * max(gap, o1, o2, abs(d1)))
        nu = float(rng.choice([-1.0, 1.0])) * gap
        drives.append((o1, o2, d1, 1.0, 0.02 / duration, nu, duration, steps))
    return drives


# calls of numpy's eigvalsh in the child, counted by the wrapper child installs
_EIGVALSH = [0]


def character_grid(d2: float):
    """track_character's 41 delta1 points of [0.5, 1.5] delta2, or of
    [0.5 delta2, the largest double] where 1.5 delta2 is past it."""
    import numpy as np

    if 1.5 * d2 < math.inf:
        return np.linspace(0.5, 1.5, 41) * d2
    return np.linspace(0.5 * d2, sys.float_info.max, 41)


def _outcome(call):
    """(value or "Type: text", warned, lapack) of call(): whether it emitted a
    RuntimeWarning, and whether it ran numpy's eigvalsh."""
    calls = _EIGVALSH[0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = call()
        except Exception as err:  # every error is an outcome to compare
            value = f"{type(err).__name__}: {err}"
    warned = any(issubclass(w.category, RuntimeWarning) for w in caught)
    if isinstance(value, float):
        value = value.hex()
    return value, warned, _EIGVALSH[0] > calls


def child(scale: float) -> None:
    """Evaluate every call on every drive with the lambda_crossing on sys.path."""
    import numpy as np

    import lambda_crossing as lc

    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        _EIGVALSH[0] += 1
        return eigvalsh(*args, **kwargs)

    np.linalg.eigvalsh = counted
    out = {}
    for name, drives in families(scale).items():
        rows = []
        if name == "probe":
            for *drive, omega_p, nu, duration, steps in drives:
                p, probe = lc.RamanParams(*drive), lc.ProbeParams(omega_p, nu, duration)
                rows.append({
                    "probe_time_domain_oracle":
                        _outcome(lambda: lc.probe_time_domain_oracle(p, probe, steps)),
                    "probe_transition_probability":
                        _outcome(lambda: lc.probe_transition_probability(p, probe))})
            out[name] = rows
            continue
        for drive in drives:
            drive = tuple(np.float64(v) for v in drive) if name == "wide-np" else drive
            try:
                p = lc.RamanParams(*drive)
            except ValueError as err:
                rows.append({"params": (f"ValueError: {err}", False, False)})
                continue
            d2 = float(p.delta2)
            t = _p13_time(d2)
            calls = {"gap32": lambda: lc.gap32(p),
                     "transfer_supremum": lambda: lc.transfer_supremum(p),
                     "p13_full": lambda: lc.p13_full(p, t),
                     "transfer_envelope": lambda: lc.transfer_envelope(p),
                     "structural_exact": lambda: lc.structural_exact(p),
                     "dynamical_exact_full": lambda: lc.dynamical_exact_full(p),
                     "resolvent_structural_resonance":
                         lambda: lc.resolvent_structural_resonance(p)}
            row = {key: _outcome(call) for key, call in calls.items()}
            for call, fields in ((lc.resonance_report, REPORT_FIELDS),
                                 (lc.iterate_levels, LEVEL_FIELDS)):
                outcome, warned, lapack = _outcome(lambda: call(p))
                for field in fields:
                    value = (outcome if isinstance(outcome, str) else
                             float(getattr(outcome, field)).hex())
                    row[f"{call.__name__}.{field}"] = (value, warned, lapack)

            def scan():
                s = lc.track_character(p, character_grid(d2))
                return "labels " + "".join(map(str, s.labels.ravel())) + " ambiguous " + "".join(
                    "1" if a else "0" for a in s.ambiguous.ravel())

            row["track_character"] = _outcome(scan)
            rows.append(row)
        out[name] = rows
    json.dump(out, sys.stdout)


def run_tree(root: Path, scale: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child",
                           "--scale", str(scale)], env=env, cwd=str(root), capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def _float(value):
    return float.fromhex(value) if isinstance(value, str) and value[:3] in ("0x1", "0x0",
                                                                           "-0x", "inf",
                                                                           "-in", "nan") else None


def _ulps(x: float, y: float) -> int:
    """Doubles between x and y (both finite)."""
    def key(v):
        i = struct.unpack("<q", struct.pack("<d", v))[0]
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)
    return abs(key(x) - key(y))


def _kind(value) -> str:
    if value.startswith("labels"):
        return "labels"
    if _float(value) is not None:
        return "value" if math.isfinite(_float(value)) else "non-finite value"
    return re.sub(r"-?\d[\d.e+\-]*", "#", value)


def _firm_points(was: str, now: str) -> list:
    """Indices into the raveled (point, level) labels of two track_character
    outcomes where the labels differ and neither tree flags the level
    ambiguous."""
    (_, lp, _, ap), (_, lc, _, ac) = was.split(), now.split()
    return [i for i, (x, y, a, b) in enumerate(zip(lp, lc, ap, ac)) if x != y and a == b == "0"]


def _p13_time(d2: float) -> float:
    """The time of the p13_full call, 3 / delta2, capped at 1.7e308."""
    return 3.0 / d2 if 3.0 / d2 < math.inf else 1.7e308


_SPECTRA = {}


def _mp_spectrum(o1, o2, d1, d2):
    """The reference spectrum of the drive at 50 digits, or at as many more
    (up to 2400) as resolve its smallest level gap to 30 digits of its
    largest level."""
    import mpmath

    key = (o1, o2, d1, d2)
    if key in _SPECTRA:
        return _SPECTRA[key]
    dps = 50
    while True:
        s = spectrum(o1, o2, d1, d2, dps)
        top, gap = max(abs(x) for x in s.e), min(s.gaps)
        if gap == 0 or gap > top * mpmath.mpf(10) ** (30 - dps) or dps >= 2400:
            break
        dps = min(2 * dps, 2400)
    if len(_SPECTRA) < 100000 and all(isinstance(x, float) for x in key):
        _SPECTRA[key] = s
    return s


_ROOTS = {}


def _mp_locus(kind, drive, xs):
    """The root of the locus kind's 50-digit Spectrum.slope within [0.5001,
    1.4999] delta2 (the bracket less the loci's edge margin, where the slope
    at 0.5 delta2 may be 0), bracketed out from the float loci xs and
    bisected to 1e-25 relative; None where the slope keeps its sign there."""
    if (kind, drive) not in _ROOTS:
        _ROOTS[kind, drive] = _bisect_slope(kind, drive, xs)
    return _ROOTS[kind, drive]


def _bisect_slope(kind, drive, xs):
    import mpmath

    o1, o2, _, d2 = drive

    def slope(d1):
        return _mp_spectrum(o1, o2, d1, d2).slope(kind)

    lo, hi = mpmath.mpf(min(xs)), mpmath.mpf(max(xs))
    width = max(hi - lo, mpmath.mpf(math.ulp(max(xs))))
    edge_lo, edge_hi = mpmath.mpf(d2) * mpmath.mpf("0.5001"), mpmath.mpf(d2) * mpmath.mpf("1.4999")
    while True:
        lo, hi = max(lo - width, edge_lo), min(hi + width, edge_hi)
        if slope(lo) < 0 < slope(hi):
            break
        if lo == edge_lo and hi == edge_hi:
            return None
        width *= 16
    with mpmath.workdps(60):
        while hi - lo > mpmath.mpf(1e-25) * abs(hi):
            mid = (lo + hi) / 2
            if slope(mid) < 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


_LOCI = {"structural_exact": "structural", "dynamical_exact_full": "dynamical",
         "resonance_report.structural_exact": "structural",
         "resonance_report.dynamical_exact_full": "dynamical",
         "resolvent_structural_resonance": "structural"}
_LEVELS = ("iterate_levels.e_minus", "iterate_levels.e_plus")


def _mp_envelope(drive):
    """The maximum of the 50-digit P(t) over [0, T], T = 4 pi / |omega_eff|
    with omega_eff = omega1 omega2 / (4 delta1): P at every crest of the
    faster gap and at T in double precision, then each value within 1e-12
    of the best maximised by golden section within its half period, in
    40-digit steps. None where the window holds more than 1e6 fast crests."""
    import mpmath
    import numpy as np

    o1, o2, d1, d2 = drive
    s = _mp_spectrum(o1, o2, d1, d2)
    p, c, (h, g) = s.transfer, s.residues, s.gaps
    fast = max(h, g)
    window = 16 * mpmath.pi * abs(mpmath.mpf(d1)) / (mpmath.mpf(o1) * mpmath.mpf(o2))
    count = fast * window / (2 * mpmath.pi)
    if not count <= 1e6:
        return None
    # the crests are screened in double precision on the real form of P,
    # -4 sum_{j<k} c_j c_k sin^2((e_k - e_j) t / 2), which sum_k c_k = 0 allows
    ts = np.append(np.minimum((2.0 * np.arange(int(count) + 1) + 1.0) * math.pi / float(fast),
                              float(window)), float(window))
    ps = sum(float(-4 * c[j] * c[k]) * np.sin(float(w / 2) * ts) ** 2
             for j, k, w in ((0, 1, h), (0, 2, h + g), (1, 2, g)))
    best = mpmath.mpf(0)
    with mpmath.workdps(40):
        for t in ts[ps >= ps.max() - 1e-12][:16]:
            lo = max(mpmath.mpf(t) - mpmath.pi / fast, 0)
            hi = min(mpmath.mpf(t) + mpmath.pi / fast, window)
            best = max(best, p(window), p(lo), p(hi))
            for _ in range(80):
                m1, m2 = hi - (hi - lo) * 0.618, lo + (hi - lo) * 0.618
                if p(m1) < p(m2):
                    lo = m1
                else:
                    hi = m2
            best = max(best, p((lo + hi) / 2))
    return best


def _mp_reference(drive, what, xs):
    """The 50-digit value of call what on the float drive, or None where the
    tool has none: gap32, transfer_supremum, p13_full (at _p13_time),
    transfer_envelope (_mp_envelope), the loci and shift_exact (roots of
    the slope near the float values xs), and for an iterate_levels energy
    the level nearest the parent's value xs[0]."""
    o1, o2, d1, d2 = drive
    if what == "transfer_envelope":
        return _mp_envelope(drive)
    if what in _LOCI:
        return _mp_locus(_LOCI[what], drive, xs)
    if what == "resonance_report.shift_exact":
        s, d = (_mp_locus(kind, drive, [d2]) for kind in ("structural", "dynamical"))
        return None if s is None or d is None else s - d
    if what not in ("gap32", "transfer_supremum", "p13_full", *_LEVELS):
        return None
    s = _mp_spectrum(o1, o2, d1, d2)
    if what == "gap32":
        return s.gaps[1]
    if what == "transfer_supremum":
        return s.supremum
    if what == "p13_full":
        return s.transfer(_p13_time(d2))
    return min(s.e, key=lambda e: abs(e - xs[0]))


def _slow_beats(drive) -> float:
    """The slow beats in transfer_envelope's window T = 4 pi / |omega_eff|,
    omega_eff = omega1 omega2 / (4 delta1): min(h, g) T / (2 pi) from the
    50-digit levels."""
    import mpmath

    o1, o2, d1, d2 = drive
    slow = min(_mp_spectrum(o1, o2, d1, d2).gaps)
    return float(8 * abs(mpmath.mpf(d1)) * slow / (mpmath.mpf(o1) * mpmath.mpf(o2)))


def _label_verdicts(drive, was, now):
    """(parent right, change right) counts over the firm label changes of
    one track_character outcome pair, against the largest 50-digit squared
    overlap of each point's level (the last bare index on exact ties)."""
    o1, o2, _, d2 = drive
    grid = character_grid(d2)
    right = [0, 0]
    for i in _firm_points(was, now):
        point, level = divmod(i, 3)
        weights = [row[level] for row in _mp_spectrum(o1, o2, float(grid[point]), d2).weights]
        label = str(max(range(3), key=lambda j: (weights[j], j)))
        right[0] += was.split()[1][i] == label
        right[1] += now.split()[1][i] == label
    return right


def _line(key, rows_p, rows_c, drives, everywhere: bool) -> list:
    """The report lines of one call over one family; everywhere, the worst
    50-digit errors cover every finite value, not only the changed ones."""
    same, shifts, moves, warns, errors = 0, [], Counter(), [0, 0], [Counter(), Counter()]
    closer = farther = beyond = unjudged = 0
    beats = []
    firm, right = 0, [0, 0]
    worst = [0.0, 0.0]
    for drive, rp, rc in zip(drives, rows_p, rows_c):
        (vp, wp, _), (vc, wc, _) = rp.get(key, rp.get("params")), rc.get(key, rc.get("params"))
        warns[0] += wp
        warns[1] += wc
        xp, xc = _float(vp), _float(vc)
        for tree, (v, x) in enumerate(((vp, xp), (vc, xc))):
            if x is None and not v.startswith("labels"):
                errors[tree][v.split(":")[0]] += 1
        finite = xp is not None and xc is not None and math.isfinite(xp) and math.isfinite(xc)
        if finite and (vp != vc or everywhere):
            ref = _mp_reference(drive, key, (xp, xc))
            unjudged += ref is None and vp != vc
            if key == "transfer_envelope" and vp != vc and ref is None:
                beats.append(_slow_beats(drive))
            if ref is not None and ref != 0:
                # gap and loci relative, the shift relative to delta2, probabilities absolute
                scale = (abs(ref) if key == "gap32" or key in _LOCI or key in _LEVELS else
                         drive[3] if key.endswith("shift_exact") else 1)
                ep, ec = float(abs(xp - ref) / scale), float(abs(xc - ref) / scale)
                worst = [max(worst[0], ep), max(worst[1], ec)]
                closer += vp != vc and ec < ep
                farther += vp != vc and ec > ep
                if key == "gap32" and ec > ep:
                    e = _mp_spectrum(*drive).e
                    top = max(drive[0] / 2, drive[1] / 2, abs(drive[2]), drive[3],
                              float(abs(e[1])), float(abs(e[2])))
                    beyond += float(abs(xc - ref) - abs(xp - ref)) > math.ulp(top)
        if vp == vc:
            same += 1
        elif finite:
            shifts.append((_ulps(xp, xc), abs(xc - xp) / abs(xp) if xp else math.inf))
        elif vp.startswith("labels") and vc.startswith("labels"):
            firm += len(_firm_points(vp, vc))
            right = [r + v for r, v in zip(right, _label_verdicts(drive, vp, vc))]
            moves[("labels", "labels")] += 1
        else:
            moves[(_kind(vp), _kind(vc))] += 1
    line = f"{key:40s} == {same}/{len(drives)}"
    if shifts:
        ulps, rel = zip(*shifts)
        line += (f"; {len(shifts)} values moved, ulps max {max(ulps)} "
                 f"median {statistics.median(ulps):g}, rel max {max(rel):.2g} "
                 f"median {statistics.median(rel):.2g}")
    if worst != [0.0, 0.0]:
        kind = ("abs" if key in ("transfer_supremum", "p13_full", "transfer_envelope") else
                "rel to delta2" if key.endswith("shift_exact") else "rel")
        line += (f"; vs 50 digits: {closer} closer, {farther} farther, worst {kind} "
                 f"{worst[0]:.2g} -> {worst[1]:.2g}")
        if key == "gap32":
            line += f", {beyond} farther by over 1 ulp of the scale or level"
    if unjudged:
        line += f"; {unjudged} moved values without a 50-digit reference"
        if beats:
            line += f" (windows of {min(beats):.2g} to {max(beats):.2g} slow beats)"
    if moves[("labels", "labels")]:
        line += (f"; labels changed at {firm} points that neither tree flags ambiguous, "
                 f"right by 50 digits {right[0]} -> {right[1]}")
    if warns != [0, 0]:
        line += f"; RuntimeWarning {warns[0]} -> {warns[1]}"
    lines = [line]
    if errors[0] != errors[1]:
        kinds = sorted(set(errors[0]) | set(errors[1]))
        lines.append("    errors " + ", ".join(f"{k} {errors[0][k]} -> {errors[1][k]}"
                                                for k in kinds))
    for (was, now), count in sorted(moves.items(), key=lambda m: -m[1]):
        lines.append(f"    {count:5d}  {was}  ->  {now}")
    return lines


def _calls(row) -> dict:
    """{call: ran numpy's eigvalsh} of one drive; the fields of a call such
    as resonance_report count once."""
    return {key.split(".")[0]: outcome[2] for key, outcome in row.items() if key != "params"}


def _eigvalsh_calls(rows) -> int:
    """Calls of one family that ran numpy's eigvalsh."""
    return sum(sum(_calls(row).values()) for row in rows)


def compare(parent: dict, change: dict, scale: float) -> None:
    sweeps = families(scale)
    for name in parent:
        calls = sum(len(_calls(row)) for row in parent[name])
        print(f"\n== {name}: {len(sweeps[name])} drives; calls that ran eigvalsh: "
              f"{_eigvalsh_calls(parent[name])} -> {_eigvalsh_calls(change[name])} of {calls}")
        keys = sorted({k for row in parent[name] for k in row} - {"params"},
                      key=lambda k: (k.startswith("track"), k.startswith("resonance"), k))
        for key in keys:
            everywhere = name in ("pow2", "near1") and key in ("gap32", "transfer_supremum",
                                                              "p13_full")
            print("\n".join(_line(key, parent[name], change[name], sweeps[name], everywhere)),
                  flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.scale)
        return
    if not (args.parent and args.change):
        parser.error("PARENT and CHANGE are required")
    trees = [Path(args.parent).resolve(), Path(args.change).resolve()]
    parent, change = (run_tree(root, args.scale) for root in trees)
    print(f"parent {trees[0]}\nchange {trees[1]}")
    compare(parent, change, args.scale)


if __name__ == "__main__":
    main()
