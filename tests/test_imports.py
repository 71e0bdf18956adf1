"""No module-level import in the package or the tests goes unused.

Stdlib-only stand-in for a linter's unused-import rule.  An imported name
counts as used when its module references it, lists it in ``__all__``, or
when another scanned module imports it from there; ``from __future__``
imports always count.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "homlab"
SCANNED = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _module_name(path: Path) -> str:
    if path.parent == PACKAGE:
        return "homlab" if path.stem == "__init__" else f"homlab.{path.stem}"
    return f"tests.{path.stem}"


def _absolute(module: str, node: ast.ImportFrom) -> str:
    """The module a ``from`` import reads, with relative levels resolved."""
    if not node.level:
        return node.module or ""
    package = module.split(".")
    if not module.endswith("homlab"):  # a submodule, not the package
        package = package[:-1]
    base = package[:len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _imports(tree: ast.Module, module: str):
    """(bound name, (source module, name read there), line) per import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, (alias.name, None), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = _absolute(module, node)
            for alias in node.names:
                yield (alias.asname or alias.name, (source, alias.name),
                       node.lineno)


def _referenced(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return used


def unused_imports(paths=SCANNED) -> list[str]:
    parsed = {_module_name(p): (p, ast.parse(p.read_text(encoding="utf-8")))
              for p in paths}
    imports = {mod: list(_imports(tree, mod))
               for mod, (_, tree) in parsed.items()}
    reexported = {read for found in imports.values()
                  for _, read, _ in found}
    out = []
    for mod, (path, tree) in parsed.items():
        used = _referenced(tree)
        for name, _, line in imports[mod]:
            if name not in used and (mod, name) not in reexported:
                out.append(f"{path.name}:{line}: {name}")
    return out


def test_no_unused_module_level_imports():
    assert unused_imports() == []


def test_scan_flags_an_unused_import(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from __future__ import annotations\n"
                      "import os\nimport sys\n"
                      "from json import dumps, loads as parse\n"
                      "__all__ = ['dumps']\n"
                      "print(sys.argv)\n", encoding="utf-8")
    assert unused_imports([sample]) == ["sample.py:2: os",
                                        "sample.py:4: parse"]


def test_benchmark_tracer_finds_every_wrapped_name():
    """perfbench/tracing.py wraps homlab functions by name; a rename or a
    deletion fails here rather than in a benchmark run.  Wrapped functions
    must stay plain functions: wrapping a generator would time only its
    creation."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    found = tracing.originals()
    wrapped = {f"{mod}:{name}" for mod, table in tracing.FUNCTIONS.items()
               for name in table}
    assert wrapped <= set(found)
    for key in wrapped:
        assert inspect.isfunction(found[key]), key
        assert not inspect.isgeneratorfunction(found[key]), key
