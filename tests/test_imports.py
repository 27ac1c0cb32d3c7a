"""The package's import layering, read from the source with ast, and the
names the benchmark looks up in the package.

Function-level imports count too, so a lazy import cannot hide a cycle.
"""

import ast
import importlib
import operator
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


@pytest.mark.parametrize("module, allowed", [("sequences", set()), ("prototype", set()),
                                             ("workers", set()), ("waveform", {"prototype"}),
                                             ("__init__", set())])
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
