"""The package's import layering, read from the source with ast.

Function-level imports count too, so a lazy import cannot hide a cycle.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fbmc_preamble"
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
