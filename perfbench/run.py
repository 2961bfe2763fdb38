"""Benchmark of lambda_crossing: one closed-loop client, in process.

    python3 perfbench/run.py --workload loci --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5

Runs seeded tasks of one workload (loci, scans, oracles; `all` runs each
in its own process) against the working tree's `src/`, checks every
output against an independent reference (perfbench/reference.py), and
prints each metric by name and unit. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics:
  task_ms_p50, task_ms_p90  wall time per task (median, 90th percentile)
  tasks_per_s               tasks completed per second of timed task time
  setup_s                   median over fresh processes of importing the
                            package and one warm-up call per task kind
  peak_rss_mb               peak resident memory of this process
fail_frac (failed / attempted) is printed with them; the JSON carries it
as "failed" and "attempted".

--trace 1 alternates untraced and traced cycles of tasks and reports the
per-layer metrics of perfbench/tracing.py, plus the tracing overhead:
traced minus untraced task_ms_p50. Spans and a run record are written
under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

# One BLAS thread: a single client's 3x3 and small batched solves gain
# nothing from more, and extra threads only add scheduling noise. Set
# before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 180
# Stop starting tasks after WALL_FACTOR times the requested seconds of
# wall time, and WALL_LIMIT_S after the process started, so that a run on
# a slow host, or one that checks slowly, still ends well inside its time
# limit.
WALL_FACTOR = 2.5
WALL_LIMIT_S = 150
# On a shared host, code runs at speeds that drift by up to 2x, from
# one task to the next and from one hour to the next (measured on a
# 2-vCPU virtual machine: the same call took 3.1 ms in one hour and
# 5.8 ms in the next, with CPU time equal to wall time, so this is
# contention, not stolen time). Every
# timing metric is therefore scaled to a nominal host speed: a fixed
# calibration workload is timed just before and just after each task,
# and the task's wall time is multiplied by CALIBRATION_NOMINAL_S over
# their mean. Over five runs of one loci seed this cut the run-to-run
# spread (IQR / median) from 12 % to 1.4 % (median), 20 % to 2.3 % (90th
# percentile) and 11 % to 1.6 % (throughput); pooling calibrations from
# further away in time did worse. Raw wall times are printed alongside.
CALIBRATION_NOMINAL_S = 80e-6
PROCESS_START = time.perf_counter()

END_TO_END = [
    ("task_ms_p50", "ms"),
    ("task_ms_p90", "ms"),
    ("tasks_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def use_working_tree() -> bool:
    """Import lambda_crossing from the checkout's src/ (PYTHONPATH=src, also
    for child processes); False when there is no source to import."""
    if not (SRC / "lambda_crossing" / "__init__.py").is_file():
        return False
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path[:0] = [str(SRC), str(HERE)]
    WORK.mkdir(exist_ok=True)
    return True


def _fatal(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _unique(kinds):
    return list({k.name: k for k in kinds}.values())


def setup(workload: str, out: Path):
    """Import the package and make one warm-up call per task kind.

    Returns (lib, kinds, seconds). Only the import and the calls are
    timed; the warm-up inputs, which run reference code, are not.
    """
    t0 = time.perf_counter()
    import lambda_crossing  # noqa: F401
    from lambda_crossing import (cli, dynamics, effective, experiment, hamiltonian, probe,
                                 resolvent, resonance)
    elapsed = time.perf_counter() - t0
    if not Path(lambda_crossing.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"lambda_crossing imported from {lambda_crossing.__file__}, not {SRC}")
    lib = argparse.Namespace(cli=cli, dynamics=dynamics, effective=effective,
                             experiment=experiment, hamiltonian=hamiltonian, probe=probe,
                             resolvent=resolvent, resonance=resonance)
    import numpy as np

    import workloads

    kinds = workloads.WORKLOADS[workload]
    warm = [(k, k.make(np.zeros(k.dim))) for k in _unique(kinds)]
    t0 = time.perf_counter()
    for kind, x in warm:
        kind.run(lib, x, out)
    return lib, kinds, elapsed + time.perf_counter() - t0


def _child(args: list, timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.Popen([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def _setup_samples(workload: str) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = _child(["--workload", workload, "--setup-sample"], CHILD_TIMEOUT_S / 4)
        if done.returncode != 0:
            raise RuntimeError(f"setup sample failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def _calibrate() -> float:
    """Best of three timings of a fixed calibration workload.

    Small numpy operations and float formatting, the two kinds of work
    the package's calls spend their time in: its slowdown under host
    contention tracks theirs (log-slope 0.85 and 1.1 for the two halves),
    where a pure-Python loop's does not (1.8). The first timing after a
    long task reads up to 1.5x slow from cold caches, hence the best of
    three.
    """
    import numpy as np

    m = np.array([[0.0, 0.1, 0.0], [0.1, -1.0, 0.25], [0.0, 0.25, 0.0]])
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for k in range(10):
            float(np.abs(m @ (m + k)).max())
        ",".join(f"{k * 1.1:.17g}" for k in range(100))
        best = min(best, time.perf_counter() - start)
    return best


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def measure(lib, kinds, seed: int, seconds: float, out: Path, tracer=None):
    """Closed loop over the workload's task cycle until `seconds` of task
    time, scaled to the nominal host, are spent; a run then does the same
    work however fast the host happens to be. With a tracer, odd cycles
    are traced."""
    import workloads

    streams = {k.name: workloads.Stream(seed, zlib.crc32(k.name.encode()), k.dim, k.sizes)
               for k in _unique(kinds)}
    used = {name: 0 for name in streams}
    stats = {name: {"attempted": 0, "failed": 0} for name in streams}
    tasks, locus_errors, csv_bytes, failures = [], [], [], []
    spent = 0.0
    i = 0
    deadline = min(time.perf_counter() + WALL_FACTOR * seconds, PROCESS_START + WALL_LIMIT_S)
    while spent < seconds and time.perf_counter() < deadline:
        cycle, pos = divmod(i, len(kinds))
        traced = tracer is not None and cycle % 2 == 1
        if tracer is not None and pos == 0:
            tracer.install() if traced else tracer.uninstall()
        kind = kinds[pos]
        x = kind.make(streams[kind.name].point(used[kind.name]))
        used[kind.name] += 1
        stats[kind.name]["attempted"] += 1
        before = _calibrate()
        start = time.perf_counter()
        try:
            if traced:
                result = tracer.task(i, lambda: kind.run(lib, x, out))
            else:
                result = kind.run(lib, x, out)
            elapsed = time.perf_counter() - start
            after = _calibrate()
            verdict = kind.check(x, result)
        except Exception as err:  # any exception fails the task, and the run goes on
            elapsed = time.perf_counter() - start
            after = _calibrate()
            verdict = workloads.Verdict(False, f"{type(err).__name__}: {err}")
        scale = 2.0 * CALIBRATION_NOMINAL_S / (before + after)
        spent += elapsed * scale
        i += 1
        tasks.append((kind.name, elapsed, traced, scale, verdict.ok))
        if verdict.locus_err is not None:
            locus_errors.append(verdict.locus_err)
        if verdict.csv_bytes is not None:
            csv_bytes.append(verdict.csv_bytes)
        if not verdict.ok:
            stats[kind.name]["failed"] += 1
            failures.append(f"{kind.name} #{used[kind.name] - 1}: {verdict.detail}")
    if tracer is not None:
        tracer.uninstall()
    done = [t for t in tasks if t[4]]
    for name in stats:
        raw = [t[1] for t in done if t[0] == name]
        stats[name]["median_ms"] = 1e3 * statistics.median(raw) if raw else None
    return {"samples": [t[1] * t[3] for t in done], "raw": [t[1] for t in done],
            "traced": [t[2] for t in done], "stats": stats,
            "locus_errors": locus_errors, "csv_bytes": csv_bytes, "failures": failures}


def _p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def _print_metric(name, value, unit, note=""):
    print(f"{name:36s} {value:14.6g} {unit:12s} {note}")


def run_workload(args) -> int:
    workload, seed, seconds = args.workload, args.seed, args.seconds
    out = WORK / f"out-{workload}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        setup_samples = _setup_samples(workload) if not args.trace else []
        lib, kinds, _ = setup(workload, out)
        import numpy as np

        import tracing

        tracer = tracing.Tracer() if args.trace else None
        run = measure(lib, kinds, seed, seconds, out, tracer)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    samples = run["samples"]
    attempted = sum(s["attempted"] for s in run["stats"].values())
    failed = sum(s["failed"] for s in run["stats"].values())
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "blas_threads": BLAS_THREADS, "cpus": os.cpu_count(), "src_lines": _src_lines()}
    print(f"# workload={workload} seed={seed} seconds={seconds} trace={args.trace}")
    print("# env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, s in run["stats"].items():
        med = s["median_ms"] if s["median_ms"] is not None else float("nan")
        print(f"# kind {name:32s} attempted {s['attempted']:6d} failed {s['failed']:4d} "
              f"raw median {med:10.4f} ms")
    for line in run["failures"][:10]:
        print(f"# FAILED {line}", file=sys.stderr)

    metrics = {}
    if not samples:
        print("# no task completed", file=sys.stderr)
    elif not args.trace:
        ms, raw = [1e3 * v for v in samples], [1e3 * v for v in run["raw"]]
        p90 = _p90(ms)
        setup_times = [v["setup_s"] for v in setup_samples]
        values = {
            "task_ms_p50": statistics.median(ms),
            "task_ms_p90": p90,
            "tasks_per_s": len(samples) / math.fsum(samples),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        beyond = sum(1 for v in ms if v > p90)
        notes = {
            "task_ms_p50": f"(n={len(ms)}; raw {statistics.median(raw):.4g})",
            "task_ms_p90": f"(n={len(ms)}, {beyond} beyond; raw {_p90(raw):.4g})",
            "tasks_per_s": f"({len(ms)} tasks; raw {len(raw) / math.fsum(raw) * 1e3:.4g})",
            "setup_s": f"(median of {len(setup_times)}; raw "
                       + ", ".join(f"{v['raw_s']:.3f}" for v in setup_samples) + ")",
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            _print_metric(name, values[name], unit, notes.get(name, ""))
        _print_metric("fail_frac", failed / attempted, "fraction", f"({failed}/{attempted})")
    else:
        plain = [1e3 * s for s, t in zip(samples, run["traced"]) if not t]
        traced = [1e3 * s for s, t in zip(samples, run["traced"]) if t]
        metrics = tracing.layer_metrics(tracer, run["locus_errors"], run["csv_bytes"])
        if plain and traced:
            metrics["trace.overhead_ms"] = {
                "value": statistics.median(traced) - statistics.median(plain), "unit": "ms"}
        metrics["src.lines"] = {"value": env["src_lines"], "unit": "lines"}
        for name, m in metrics.items():
            _print_metric(name, m["value"], m["unit"])
        print(f"# traced tasks {len(traced)}, untraced {len(plain)}; "
              f"absent: {sorted(set(n for n, *_ in tracing.LAYER_METRICS) - set(metrics)) or 'none'}")
        spans_path = WORK / f"spans-{workload}-seed{seed}.tsv"
        tracer.write(spans_path)
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": args.trace,
              "env": env, "metrics": metrics, "attempted": attempted, "failed": failed,
              "kinds": run["stats"]}
    (WORK / f"result-{workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0 and bool(samples), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (peak memory is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ("loci", "scans", "oracles"):
        done = _child(["--workload", workload, "--seed", str(args.seed), "--seconds",
                       str(args.seconds), "--trace", str(args.trace)], CHILD_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            return _fatal(f"workload {workload} exited with {done.returncode}")
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["loci", "scans", "oracles", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not use_working_tree():
        return _fatal(f"no package source at {SRC}; run from a checkout of the repository")

    if args.workload == "all":
        if args.setup_sample:
            return _fatal("--setup-sample needs a single workload")
        return run_all(args)
    if args.setup_sample:
        out = WORK / f"setup-{os.getpid()}"
        out.mkdir(parents=True, exist_ok=True)
        try:
            _, _, elapsed = setup(args.workload, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        scale = CALIBRATION_NOMINAL_S / statistics.median(_calibrate() for _ in range(9))
        print(json.dumps({"setup_s": elapsed * scale, "raw_s": elapsed}))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
