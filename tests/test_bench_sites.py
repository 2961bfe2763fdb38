"""The benchmark's hooks into the package, and the result line it prints.

perfbench/tracing.py patches module attributes of the package (its SITES),
and a per-layer metric is reported only when every span it needs has its
site. perfbench/selftest.py injects faults at module attributes (its
FAULTS). Renaming or deleting one of these attributes makes the benchmark
drop metrics or fail its self-test without any error here, so these tests
pin them, run the self-test, and run each workload briefly to check its
last line of output.
"""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_layer_metric_has_its_sites():
    tracing = _load("tracing")
    present = tracing.Tracer().present
    missing = {name: [span for span in needs if span not in present]
               for name, _, needs, _ in tracing.LAYER_METRICS}
    assert {name: spans for name, spans in missing.items() if spans} == {}


def _faults():
    """selftest.FAULTS as {kind: (module, attribute)}, read without importing
    selftest, whose import of run.py sets BLAS environment variables."""
    tree = ast.parse((BENCH / "selftest.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["FAULTS"]:
            return {ast.literal_eval(key): (ast.literal_eval(value.elts[0]),
                                            ast.literal_eval(value.elts[1]))
                    for key, value in zip(node.value.keys, node.value.values)}
    raise AssertionError("selftest.py has no FAULTS")


@pytest.mark.parametrize(
    "kind, module, attribute", [(kind, *site) for kind, site in sorted(_faults().items())]
)
def test_fault_site_exists(kind, module, attribute):
    assert hasattr(importlib.import_module(f"lambda_crossing.{module}"), attribute)


def test_selftest_catches_every_fault():
    # hasattr alone passes a refactor that keeps a site but stops reading it
    # through its module; the self-test injects each fault and sees it fail
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == len(_faults()) == 11
    assert all(line.startswith("ok") for line in lines), done.stdout


def _no_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("workload", ["loci", "scans", "oracles"])
def test_traced_run_ends_in_a_result(workload):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seconds", "0.2",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1], parse_constant=_no_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
