"""Self-test: a deliberately wrong result counts as a failed task.

    python3 perfbench/selftest.py

For every task kind of every workload, runs the benchmark's own loop
(run.measure) briefly on the intact package, where no task may fail, and
again with one fault injected at a module attribute the task depends on,
where every task must fail. Exits 0 when each fault is caught.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys

import run

SECONDS = 0.05  # task time per kind: one or a few tasks


def _shift(delta):
    return lambda fn: lambda *a, **k: fn(*a, **k) + delta


def _scale(factor):
    return lambda fn: lambda *a, **k: fn(*a, **k) * factor


def _replace(**changes):
    """Wrap fn so that fields of its dataclass result are transformed."""
    def wrap(fn):
        def faulty(*a, **k):
            result = fn(*a, **k)
            return dataclasses.replace(
                result, **{f: g(getattr(result, f)) for f, g in changes.items()})
        return faulty
    return wrap


def _nudge_minimum(fn):
    return lambda *a, **k: (lambda x, fx: (x + 1e-6, fx))(*fn(*a, **k))


def _swap_alpha(fn):
    def faulty(*a, **k):
        alpha = fn(*a, **k)
        return dataclasses.replace(alpha, alpha13=alpha.alpha31, alpha31=alpha.alpha13)
    return faulty


# kind -> (module, attribute, fault applied to the original function)
FAULTS = {
    "resonance_report": ("resonance", "structural_exact", _shift(1e-6)),
    "resolvent_structural_resonance": ("resolvent", "minimize_scalar", _nudge_minimum),
    "cli_resonance": ("resonance", "dynamical_exact_full", _shift(1e-6)),
    "cli_levels": ("cli", "dressed_spectrum", _replace(energies=lambda e: e + 1e-9)),
    "track_character": ("hamiltonian", "character_swap_point", _shift(1e-6)),
    "cli_probe_spectrum": ("probe", "alpha_elements", _swap_alpha),
    "probed_structural_resonance": ("probe", "measured_splitting", _scale(1.05)),
    "cli_experiment": ("experiment", "scenario_report",
                       _replace(dynamical_shift=lambda v: 3.0 * v)),
    "probe_time_domain_oracle": ("probe", "probe_time_domain_oracle", _scale(1.1)),
    "transfer_envelope": ("dynamics", "transfer_envelope", _scale(0.5)),
    "iterate_levels": ("resolvent", "iterate_levels", _replace(e_plus=lambda e: e + 1e-8)),
}


def _tally(lib, kind, out):
    stats = run.measure(lib, [kind], 1, SECONDS, out)["stats"][kind.name]
    return stats["attempted"], stats["failed"]


def main() -> int:
    if not run.use_working_tree():
        print(f"selftest: no package source at {run.SRC}", file=sys.stderr)
        return 2
    out = run.WORK / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    bad = 0
    try:
        for workload in ("loci", "scans", "oracles"):
            lib, kinds, _ = run.setup(workload, out)
            for kind in run._unique(kinds):
                module, attr, fault = FAULTS[kind.name]
                mod = getattr(lib, module)
                clean = _tally(lib, kind, out)
                original = getattr(mod, attr)
                setattr(mod, attr, fault(original))
                try:
                    faulty = _tally(lib, kind, out)
                finally:
                    setattr(mod, attr, original)
                ok = clean[1] == 0 and faulty[0] > 0 and faulty[1] == faulty[0]
                bad += not ok
                print(f"{'ok  ' if ok else 'FAIL'} {kind.name:32s} intact {clean[1]}/{clean[0]} "
                      f"failed; with {module}.{attr} broken {faulty[1]}/{faulty[0]} failed")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
