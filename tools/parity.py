"""Compare the public spectral and locus calls of two checkouts, drive by drive.

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

with omega1, omega2 log-uniform on 1e-3..0.6 delta2 and delta1 within
omega1 omega2 / delta2 of delta2 in the first two. The calls are gap32,
transfer_supremum, p13_full (at t = 3 / delta2), transfer_envelope,
structural_exact, dynamical_exact_full, each resonance_report field, and
track_character's labels and ambiguous flags on 41 points of [0.5, 1.5]
delta2.

For each family and call it prints the number of equal outcomes, the
largest and median ulp shift of the changed floats, the changed outcomes
grouped by kind (numbers in error texts shown as #), and the count of
calls that emitted a RuntimeWarning in each tree. On the pow2 and
near1 families, where a 50-digit mpmath.eigsy spectrum resolves the drive,
it also counts, for gap32, transfer_supremum and p13_full,
the changed values that moved closer to it or farther from it, and the
largest relative error of each tree over all finite values. It is not a
test: it compares two trees, and its output is cited, not asserted.
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

REPORT_FIELDS = ["structural_exact", "structural_approx", "dynamical_exact_effective",
                 "dynamical_exact_full", "dynamical_approx", "shift_exact", "shift_approx"]
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
    return {"pow2": pow2, "near1": near1, "wide": wide, "wide-np": wide, "extreme": extreme}


def _outcome(call):
    """(value or "Type: text", warned) of call(), with RuntimeWarnings recorded."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = call()
        except Exception as err:  # every error is an outcome to compare
            value = f"{type(err).__name__}: {err}"
    warned = any(issubclass(w.category, RuntimeWarning) for w in caught)
    if isinstance(value, float):
        value = value.hex()
    return value, warned


def child(scale: float) -> None:
    """Evaluate every call on every drive with the lambda_crossing on sys.path."""
    import numpy as np

    import lambda_crossing as lc

    out = {}
    for name, drives in families(scale).items():
        rows = []
        for drive in drives:
            drive = tuple(np.float64(v) for v in drive) if name == "wide-np" else drive
            try:
                p = lc.RamanParams(*drive)
            except ValueError as err:
                rows.append({"params": (f"ValueError: {err}", False)})
                continue
            d2 = float(p.delta2)
            t = 3.0 / d2 if 3.0 / d2 < math.inf else 1.7e308
            calls = {"gap32": lambda: lc.gap32(p),
                     "transfer_supremum": lambda: lc.transfer_supremum(p),
                     "p13_full": lambda: lc.p13_full(p, t),
                     "transfer_envelope": lambda: lc.transfer_envelope(p),
                     "structural_exact": lambda: lc.structural_exact(p),
                     "dynamical_exact_full": lambda: lc.dynamical_exact_full(p)}
            row = {key: _outcome(call) for key, call in calls.items()}
            report, warned = _outcome(lambda: lc.resonance_report(p))
            for field in REPORT_FIELDS:
                value = report if isinstance(report, str) else float(getattr(report, field)).hex()
                row["resonance_report." + field] = (value, warned)

            def scan():
                s = lc.track_character(p, np.linspace(0.5, 1.5, 41) * d2)
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


def _firm_label_changes(was: str, now: str) -> int:
    """Points of two track_character outcomes whose labels differ where
    neither flags the level ambiguous."""
    (_, lp, _, ap), (_, lc, _, ac) = was.split(), now.split()
    return sum(x != y and a == b == "0" for x, y, a, b in zip(lp, lc, ap, ac))


def _mp_reference(drive, what):
    """gap32, transfer_supremum or p13_full (at t = 3 / delta2) of a 50-digit
    mpmath.eigsy spectrum of the float drive."""
    import mpmath
    o1, o2, d1, d2 = drive
    with mpmath.workdps(50):
        a, b = mpmath.mpf(o1) / 2, mpmath.mpf(o2) / 2
        h = mpmath.matrix([[0, a, 0], [a, -mpmath.mpf(d1), b],
                           [0, b, mpmath.mpf(d2) - mpmath.mpf(d1)]])
        e, v = mpmath.eigsy(h)
        c = [v[0, k] * v[2, k] for k in range(3)]
        if what == "gap32":
            e1, e2, e3 = sorted(e)
            return e3 - e2
        if what == "p13_full":
            t = mpmath.mpf(3.0 / d2)
            return abs(sum(c[k] * mpmath.expj(-e[k] * t) for k in range(3))) ** 2
        return min(sum(abs(ck) for ck in c) ** 2, 1)


def _line(key, rows_p, rows_c, drives, reference: bool) -> list:
    """The report lines of one call over one family."""
    same, shifts, moves, warns, errors = 0, [], Counter(), [0, 0], [Counter(), Counter()]
    closer = farther = firm = 0
    worst = [0.0, 0.0]
    for drive, rp, rc in zip(drives, rows_p, rows_c):
        (vp, wp), (vc, wc) = rp.get(key, rp.get("params")), rc.get(key, rc.get("params"))
        warns[0] += wp
        warns[1] += wc
        xp, xc = _float(vp), _float(vc)
        for tree, (v, x) in enumerate(((vp, xp), (vc, xc))):
            if x is None and not v.startswith("labels"):
                errors[tree][v.split(":")[0]] += 1
        finite = xp is not None and xc is not None and math.isfinite(xp) and math.isfinite(xc)
        if reference and finite:
            ref = _mp_reference(drive, key)
            scale = abs(ref) if key == "gap32" else 1  # relative gap, absolute probability
            if ref != 0:
                ep, ec = float(abs(xp - ref) / scale), float(abs(xc - ref) / scale)
                worst = [max(worst[0], ep), max(worst[1], ec)]
                closer += vp != vc and ec < ep
                farther += vp != vc and ec > ep
        if vp == vc:
            same += 1
        elif finite:
            shifts.append(_ulps(xp, xc))
        elif vp.startswith("labels") and vc.startswith("labels"):
            firm += _firm_label_changes(vp, vc)
            moves[("labels", "labels")] += 1
        else:
            moves[(_kind(vp), _kind(vc))] += 1
    line = f"{key:40s} == {same}/{len(drives)}"
    if shifts:
        line += (f"; {len(shifts)} values moved, ulps max {max(shifts)} "
                 f"median {statistics.median(shifts):g}")
    if worst != [0.0, 0.0]:
        kind = "rel" if key == "gap32" else "abs"
        line += (f"; vs 50 digits: {closer} closer, {farther} farther, worst {kind} "
                 f"{worst[0]:.2g} -> {worst[1]:.2g}")
    if moves[("labels", "labels")]:
        line += f"; labels changed at {firm} points that neither tree flags ambiguous"
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


def compare(parent: dict, change: dict, scale: float) -> None:
    sweeps = families(scale)
    for name in parent:
        print(f"\n== {name}: {len(sweeps[name])} drives")
        keys = sorted({k for row in parent[name] for k in row} - {"params"},
                      key=lambda k: (k.startswith("track"), k.startswith("resonance"), k))
        for key in keys:
            reference = name in ("pow2", "near1") and key in ("gap32", "transfer_supremum",
                                                             "p13_full")
            print("\n".join(_line(key, parent[name], change[name], sweeps[name], reference)))


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
