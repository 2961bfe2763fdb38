"""Per-module tracing from outside the package.

The tracer replaces public functions at the module attributes their
callers look up (for example `lambda_crossing.hamiltonian.diagonalize`,
which `dressed_spectrum` calls through its module globals, and
`lambda_crossing.resonance.gap32`, imported by name into `resonance`)
with wrappers that record a span per call. The package itself is not
modified. A site whose module or attribute no longer exists is skipped,
and the metrics that depend only on skipped sites are reported absent.

Spans (name, start, end, parent, task id, note) are kept in memory and
written out when the run ends; a span's self time is its duration less
that of its direct children.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field

PACKAGE = "lambda_crossing"


def _first(args, kwargs, key, index):
    return kwargs[key] if key in kwargs else args[index]


# (module, attribute, span name, note taken from (args, kwargs, result)).
SITES = [
    ("hamiltonian", "diagonalize", "hamiltonian.diagonalize", None),
    ("hamiltonian", "dressed_spectrum", "hamiltonian.dressed_spectrum", None),
    ("cli", "dressed_spectrum", "hamiltonian.dressed_spectrum", None),
    ("dynamics", "dressed_spectrum", "hamiltonian.dressed_spectrum", None),
    ("probe", "dressed_spectrum", "hamiltonian.dressed_spectrum", None),
    ("hamiltonian", "track_character", "hamiltonian.track_character", None),
    ("resonance", "gap32", "hamiltonian.gap32", None),
    ("_minimize", "minimize_scalar", "minimize", None),
    ("resonance", "minimize_scalar", "minimize", None),
    ("resonance", "maximize_scalar", "minimize", None),
    ("resolvent", "minimize_scalar", "minimize", None),
    ("dynamics", "maximize_scalar", "minimize", None),
    ("resonance", "resonance_report", "resonance.resonance_report", None),
    ("resonance", "structural_exact", "resonance.structural_exact", None),
    ("resonance", "dynamical_exact_full", "resonance.dynamical_exact_full", None),
    ("resonance", "transfer_supremum", "dynamics.transfer_supremum", None),
    ("dynamics", "transfer_supremum", "dynamics.transfer_supremum", None),
    ("dynamics", "p13_full", "dynamics.p13_full", None),
    ("dynamics", "transfer_envelope", "dynamics.transfer_envelope", None),
    ("dynamics", "eliminate", "effective.eliminate", None),
    ("effective", "eliminate", "effective.eliminate", None),
    ("resolvent", "iterate_levels", "resolvent.iterate_levels",
     lambda a, k, r: sum(r.iterations)),
    ("cli", "iterate_levels", "resolvent.iterate_levels", lambda a, k, r: sum(r.iterations)),
    ("resolvent", "resolvent_structural_resonance", "resolvent.structural_resonance", None),
    ("probe", "default_nu_grid", "probe.default_nu_grid", None),
    ("probe", "probe_spectrum", "probe.probe_spectrum",
     lambda a, k, r: len(_first(a, k, "nu_grid", 3))),
    ("probe", "probed_structural_resonance", "probe.probed_resonance", None),
    ("probe", "probe_time_domain_oracle", "probe.oracle", lambda a, k, r: _first(a, k, "steps", 2)),
    ("experiment", "scenario_report", "experiment.scenario_report", None),
    ("cli", "main", "cli.main", lambda a, k, r: _first(a, k, "argv", 0)[0]),
]

MINIMIZE = "minimize"
OBJECTIVE = "minimize.objective"
TASK = "task"


class Tracer:
    """Span recorder; install() patches the sites, uninstall() restores them.

    Spans are stored column-wise (a span's name as an index into
    `names`), since a traced run records hundreds of thousands of them.
    """

    def __init__(self):
        self.names = list(dict.fromkeys([TASK, OBJECTIVE, MINIMIZE] + [s[2] for s in SITES]))
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task_of = array("i")
        self.notes = {}
        self.stack = []
        self.task_id = -1
        self.present = set()
        self.sites = []
        for module, attr, name, note in SITES:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{module}")
                original = getattr(mod, attr)
            except (ImportError, AttributeError):
                continue
            self.sites.append((mod, attr, original, self._wrap(original, name, note)))
            self.present.add(name)

    def install(self):
        for mod, attr, _, wrapper in self.sites:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self.sites:
            setattr(mod, attr, original)

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.task_of.append(self.task_id)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, start: float):
        self.end[idx] = time.perf_counter()
        self.start[idx] = start
        self.stack.pop()

    def _wrap(self, fn, name, note):
        tracer = self
        name_id = self.name_ids[name]
        minimize_id = self.name_ids[MINIMIZE]

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if name_id == minimize_id and not (stack and tracer.name[stack[-1]] == minimize_id):
                # Outermost solve: count its objective evaluations.
                args = (tracer._wrap(args[0], OBJECTIVE, None),) + args[1:]
            idx = tracer._open(name_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, start)
            if note is not None:
                tracer.notes[idx] = note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def task(self, task_id: int, fn):
        """Run fn() as the root span of one task."""
        self.task_id = task_id
        idx = self._open(0)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(idx, start)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("task\tname\tstart\tend\tparent\tnote\n")
            for i, name_id in enumerate(self.name):
                note = self.notes.get(i, "")
                fh.write(f"{self.task_of[i]}\t{self.names[name_id]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\t{note}\n")


@dataclass
class Totals:
    calls: int = 0
    time: float = 0.0
    self_time: float = 0.0
    notes: list = field(default_factory=list)


def totals(tracer: Tracer) -> dict:
    """Calls, total time and self time per span name (plus cli.main by
    subcommand, and outermost minimize spans as minimize.solve)."""
    n = len(tracer.name)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if tracer.parent[i] >= 0:
            child[tracer.parent[i]] += dur[i]
    names = tracer.names
    out = defaultdict(Totals)
    for i in range(n):
        name = names[tracer.name[i]]
        note = tracer.notes.get(i)
        keys = [name]
        if name == "cli.main":
            keys.append(f"cli.{note}")
        parent = tracer.parent[i]
        if name == MINIMIZE and (parent < 0 or names[tracer.name[parent]] != MINIMIZE):
            keys.append("minimize.solve")
        for key in keys:
            t = out[key]
            t.calls += 1
            t.time += dur[i]
            t.self_time += dur[i] - child[i]
            if note is not None:
                t.notes.append(note)
    return out


# Per-layer metrics: (name, unit, span names it needs, what it should move).
# "moves" records which end-to-end metric, on which workload, an
# optimisation of that layer should change.
LAYER_METRICS = [
    ("hamiltonian.diagonalize.calls", "calls/task", ["hamiltonian.diagonalize"],
     "task_ms_p50 and tasks_per_s on loci and scans; about nothing on oracles"),
    ("hamiltonian.diagonalize.us", "us", ["hamiltonian.diagonalize"], "same as calls"),
    ("hamiltonian.diagonalize.share", "fraction", ["hamiltonian.diagonalize"], "same as calls"),
    ("minimize.evals_per_solve", "evals/solve", [MINIMIZE], "task_ms_p50 on loci"),
    ("minimize.self_us", "us/solve", [MINIMIZE], "task_ms_p50 on loci"),
    ("resonance.structural_exact.ms", "ms", ["resonance.structural_exact"], "loci"),
    ("resonance.dynamical_exact_full.ms", "ms", ["resonance.dynamical_exact_full"], "loci"),
    ("resonance.locus_err_max", "delta2", [], "loci (accuracy, not time)"),
    ("resolvent.iterate_levels.us", "us", ["resolvent.iterate_levels"], "loci, oracles"),
    ("resolvent.iterations", "iter/call", ["resolvent.iterate_levels"], "loci, oracles"),
    ("dynamics.transfer_supremum.calls", "calls/task", ["dynamics.transfer_supremum"],
     "task_ms_p50 on loci"),
    ("dynamics.p13_full.calls", "calls/task", ["dynamics.p13_full"], "oracles"),
    ("dynamics.transfer_envelope.ms", "ms", ["dynamics.transfer_envelope"], "oracles"),
    ("effective.eliminate.calls", "calls/task", ["effective.eliminate"], "oracles"),
    ("probe.probe_spectrum.ms", "ms", ["probe.probe_spectrum"], "scans (closed form)"),
    ("probe.nu_points", "points/call", ["probe.probe_spectrum"], "scans"),
    ("probe.probed_resonance.ms", "ms", ["probe.probed_resonance"], "scans"),
    ("probe.oracle.steps", "steps/call", ["probe.oracle"], "task_ms_p90 on oracles (RK4)"),
    ("probe.oracle.us_per_step", "us/step", ["probe.oracle"], "task_ms_p90 on oracles (RK4)"),
    ("experiment.scenario_report.us", "us", ["experiment.scenario_report"],
     "scans; expected to be negligible"),
    ("cli.levels.ms", "ms", ["cli.main"], "scans"),
    ("cli.resonance.ms", "ms", ["cli.main"], "loci"),
    ("cli.probe-spectrum.ms", "ms", ["cli.main"], "scans"),
    ("cli.experiment.ms", "ms", ["cli.main"], "scans"),
    ("cli.self_ms", "ms", ["cli.main"], "scans; setup_s for import"),
    ("cli.csv_bytes", "bytes/call", [], "scans"),
]


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(tracer: Tracer, locus_errors, csv_bytes) -> dict:
    """Per-layer numbers from the traced tasks; absent when a span is gone.

    Per-call figures read 0 when a workload makes no such call.
    """
    t = totals(tracer)
    tasks = t[TASK]
    n_tasks = max(tasks.calls, 1)
    solves = t["minimize.solve"].calls
    value = {
        "hamiltonian.diagonalize.calls": t["hamiltonian.diagonalize"].calls / n_tasks,
        "hamiltonian.diagonalize.us": 1e6 * _mean(t["hamiltonian.diagonalize"].time,
                                                  t["hamiltonian.diagonalize"].calls),
        "hamiltonian.diagonalize.share": _mean(t["hamiltonian.diagonalize"].time, tasks.time),
        "minimize.evals_per_solve": _mean(t[OBJECTIVE].calls, solves),
        "minimize.self_us": 1e6 * _mean(t[MINIMIZE].self_time, solves),
        "resonance.structural_exact.ms": 1e3 * _mean(t["resonance.structural_exact"].time,
                                                     t["resonance.structural_exact"].calls),
        "resonance.dynamical_exact_full.ms": 1e3 * _mean(
            t["resonance.dynamical_exact_full"].time, t["resonance.dynamical_exact_full"].calls),
        "resonance.locus_err_max": max(locus_errors, default=0.0),
        "resolvent.iterate_levels.us": 1e6 * _mean(t["resolvent.iterate_levels"].time,
                                                   t["resolvent.iterate_levels"].calls),
        "resolvent.iterations": _mean(sum(t["resolvent.iterate_levels"].notes),
                                      len(t["resolvent.iterate_levels"].notes)),
        "dynamics.transfer_supremum.calls": t["dynamics.transfer_supremum"].calls / n_tasks,
        "dynamics.p13_full.calls": t["dynamics.p13_full"].calls / n_tasks,
        "dynamics.transfer_envelope.ms": 1e3 * _mean(t["dynamics.transfer_envelope"].time,
                                                     t["dynamics.transfer_envelope"].calls),
        "effective.eliminate.calls": t["effective.eliminate"].calls / n_tasks,
        "probe.probe_spectrum.ms": 1e3 * _mean(t["probe.probe_spectrum"].time,
                                               t["probe.probe_spectrum"].calls),
        "probe.nu_points": _mean(sum(t["probe.probe_spectrum"].notes),
                                 len(t["probe.probe_spectrum"].notes)),
        "probe.probed_resonance.ms": 1e3 * _mean(t["probe.probed_resonance"].time,
                                                 t["probe.probed_resonance"].calls),
        "probe.oracle.steps": _mean(sum(t["probe.oracle"].notes), len(t["probe.oracle"].notes)),
        "probe.oracle.us_per_step": 1e6 * _mean(t["probe.oracle"].time,
                                                sum(t["probe.oracle"].notes)),
        "experiment.scenario_report.us": 1e6 * _mean(t["experiment.scenario_report"].time,
                                                     t["experiment.scenario_report"].calls),
        "cli.self_ms": 1e3 * _mean(t["cli.main"].self_time, t["cli.main"].calls),
        "cli.csv_bytes": _mean(sum(csv_bytes), len(csv_bytes)),
    }
    for sub in ("levels", "resonance", "probe-spectrum", "experiment"):
        value[f"cli.{sub}.ms"] = 1e3 * _mean(t[f"cli.{sub}"].time, t[f"cli.{sub}"].calls)
    out = {}
    for name, unit, needs, _ in LAYER_METRICS:
        if all(span in tracer.present for span in needs):
            out[name] = {"value": float(value[name]), "unit": unit}
    return out
