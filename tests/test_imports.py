"""The package's import layering, read from the source with ast, the
names the benchmark looks up in the package, and which of its paths load
scipy.special.

Function-level imports count too, so a lazy import cannot hide a cycle.
"""

import ast
import importlib
import json
import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fbmc_preamble"
BENCH = ROOT / "bench"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def sibling_imports(module: str) -> set[str]:
    """The modules of this package that `module` imports anywhere in its source."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module.removeprefix("fbmc_preamble.")]
        elif isinstance(node, ast.Import):
            names = [a.name.removeprefix("fbmc_preamble.") for a in node.names]
        else:
            continue
        found.update(name.split(".")[0] for name in names)
    return found & (MODULES - {module})


@pytest.mark.parametrize("module, allowed", [("sequences", {"checks"}), ("prototype", {"checks"}),
                                             ("workers", set()),
                                             ("waveform", {"checks", "prototype"}),
                                             ("__init__", set()), ("checks", set())])
def test_lower_layers_import_only_what_they_may(module, allowed):
    assert sibling_imports(module) <= allowed


def test_analysis_does_not_import_cli():
    assert "cli" not in sibling_imports("analysis")


def test_sees_the_imports_that_are_there():
    assert {"prototype", "waveform", "workers"} <= sibling_imports("analysis")
    assert {"analysis", "sequences", "waveform"} <= sibling_imports("cli")


def bench_traced_names() -> list[str]:
    """The `FUNCTIONS` entries of bench/spans.py, read without importing it."""
    for node in ast.walk(ast.parse((BENCH / "spans.py").read_text())):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "FUNCTIONS" for t in node.targets)):
            return list(ast.literal_eval(node.value))
    raise AssertionError("bench/spans.py defines no FUNCTIONS")


def bench_workload_names() -> set[str]:
    """Every `lib.<module>.<name>` that bench/workloads.py reads, as
    "<module>.<name>"."""
    found = set()
    for node in ast.walk(ast.parse((BENCH / "workloads.py").read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            owner = node.value.value        # lib, or the attribute of self.lib
            if "lib" in (getattr(owner, "id", None), getattr(owner, "attr", None)):
                found.add(f"{node.value.attr}.{node.attr}")
    return found


# What the traced bench run patches and its workloads call; a deletion that
# removed one would break `bench/run.py` while the package's own tests pass.
BENCH_NAMES = sorted({*bench_traced_names(), *bench_workload_names(),
                      "prototype.PrototypeFilter.__call__",
                      "analysis.RicianPointModel.at_time"})


def test_bench_names_are_found():
    assert {"waveform.synthesize", "waveform.build_frame", "analysis.monte_carlo_ccdf",
            "analysis.AnalysisWindow", "cli.main"} <= set(BENCH_NAMES)
    assert len(bench_workload_names()) >= 15


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_bench_names_resolve(name):
    module, attr = name.split(".", 1)
    assert callable(operator.attrgetter(attr)(
        importlib.import_module(f"fbmc_preamble.{module}")))


# Imports every module, runs a command and a Monte Carlo call that shards
# onto a worker, then reads whether this process and the worker loaded
# scipy.special; last, one marcum_q1 call.
COLD_START = """
import json, sys
from fbmc_preamble import analysis, cli, prototype, sequences, waveform, workers

loaded = lambda: "scipy.special" in sys.modules
assert cli.main(["--json", "bounds", "--filter", "phydyas4"]) == 0
analysis.cpu_count = lambda: 2          # shard also on a single CPU
cfg = waveform.FrameConfig(subcarriers=64, guards=2, rng_seed=3)
filt = prototype.phydyas_taps(4, cfg.samples_per_symbol)
analysis.monte_carlo_ccdf(sequences.sparse_golay_preamble(64, 8), filt, cfg,
                          2 * analysis.DEFAULT_CHUNK)
sharded = len(workers.POOL._workers)
worker = workers.POOL.run(eval, [("0",), ('"scipy.special" in __import__("sys").modules',)])
caller = loaded()
a, b = 1.5, 2.25
q = analysis.marcum_q1(a, b)
import scipy.special
print(json.dumps({"caller": caller, "worker": worker, "sharded": sharded,
                  "after_q1": loaded(),
                  "q1_bits": q == 1.0 - float(scipy.special.chndtr(b * b, 2, a * a))}))
"""


def test_only_the_rician_model_loads_scipy_special():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", COLD_START], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1]) == {
        "caller": False, "worker": [0, False], "sharded": 1, "after_q1": True,
        "q1_bits": True}
