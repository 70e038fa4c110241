"""Every name a demo imports from bfl, or the benchmark reaches in bfl, must exist."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def bfl_imports(path: Path):
    """(module, name) for each `from bfl... import name`; name None for `import bfl...`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bfl":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "bfl")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_imports_resolve(demo):
    imports = list(bfl_imports(demo))
    assert imports
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{demo.name}: {module}.{name}"


def bfl_chains(path: Path):
    """Each dotted `bfl.<module>.<name>...` chain the code reads, and each
    (prefix, module, name) row of a `TRACED` table as `<module>.<name>`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            yield from (f"{module}.{name}" for _, module, name in ast.literal_eval(node.value))
        elif isinstance(node, ast.Attribute):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id == "bfl" and len(parts) >= 2:
                yield ".".join(["bfl"] + parts[::-1])


# the benchmark looks these names up only when it runs, so a deleted or
# renamed one would surface as a failed benchmark run, not a failed test
CHAINS = sorted({c for path in BENCH for c in bfl_chains(path)})


@pytest.mark.parametrize("chain", CHAINS)
def test_benchmark_names_resolve(chain):
    _, module, *attrs = chain.split(".")
    obj = importlib.import_module(f"bfl.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
