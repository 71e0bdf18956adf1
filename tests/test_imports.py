"""No import goes unused, and no package name lacks a caller.

Stdlib-only stand-in for a linter's unused-import rule.  A module-level
imported name counts as used when its module references it, lists it in
``__all__``, or when another scanned module imports it from there;
``from __future__`` imports always count.  An import in a function body
counts as used when that function reads the name, a function nested in it
included.

The second scan keeps the package's surface to what runs: every top-level
definition in ``src/homlab`` must be reachable from the CLI, the experiment
registry, the package exports or the benchmark (the names ``perfbench``
imports, and the functions and attributes ``perfbench/tracing.py`` wraps).
A name only the tests call is dead code, unless :data:`KEPT` says why not.

The third scan keeps the command line to what runs: every option a verb
accepts must be read by that verb, unless :data:`UNREAD` says why not.

The fourth scan keeps every enumeration bounded: each package call to an
enumerator in :data:`ENUMERATORS` must pass its limit.

The fifth scan keeps every package check alive under ``python -O``: no
``assert`` statement in ``src/homlab``, since ``-O`` strips them.

The sixth scan keeps every dataclass field to what is read: some file in
``src/homlab``, ``tests`` or ``perfbench`` must read ``.<field>``, unless
:data:`KEPT` says why not (keyed ``Class.field``).

The seventh scan keeps every parameter to what is read: each function in
``src/homlab`` must read each of its parameters in its body, unless
:data:`KEPT` says why not (keyed ``function(parameter)``, with a method
named ``Class.method``).

The eighth scan keeps every local variable to what is read: a name a
function binds by plain assignment must be read somewhere in that function,
a nested function, lambda or comprehension included.

The ninth scan keeps the dependencies to what ``pyproject.toml`` declares:
``src/homlab`` imports only the standard library and ``homlab``, and the
tests also :data:`TEST_IMPORTS` and one another.  A package that happens to
be installed, such as ``networkx``, is not a dependency.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "homlab"
BENCH = ROOT / "perfbench"
SCANNED = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))

# Names no root reaches, fields nothing reads (``Class.field``), or
# parameters their function never reads (``function(parameter)``), that stay
# anyway, each with its reason.
KEPT = {
    ("homlab.homology", "homology_connectivity"):
        "the connectivity bound of the planned chromatic lower bound",
}

# Options a verb accepts without reading them, each with its reason.
UNREAD = {
    "seedless": "documented as an interface-compatibility no-op: nothing "
                "in homlab is random, so there is no seed to set",
}

# Third-party modules the tests may import besides the package's own.
TEST_IMPORTS = {"pytest", "hypothesis", "sympy"}

# Enumerators -> the positional index of their limit (a method's index
# does not count ``self``).  The limit is a required int; the scan also
# refuses a literal None passed for it.
ENUMERATORS = {"all_faces": 0, "iter_chains": 1, "maximal_chains": 1}


def _module_name(path: Path) -> str:
    if path.parent.name == "homlab":
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


def _unused_local_imports(tree: ast.Module):
    """(line, bound name) per import in a function body that neither the
    function nor a function nested in it reads."""
    for _, func in _functions(tree.body):
        read = {node.id for stmt in func.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)}
        for node in _own_nodes(func.body):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        yield node.lineno, name


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
        found = [(line, name) for name, _, line in imports[mod]
                 if name not in used and (mod, name) not in reexported]
        found += _unused_local_imports(tree)
        out += [f"{path.name}:{line}: {name}"
                for line, name in sorted(found, key=lambda f: f[0])]
    return out


def _definitions(tree: ast.Module) -> dict[str, list[ast.AST]]:
    """Top-level name -> the statements that bind it (imports excluded)."""
    out: dict[str, list[ast.AST]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for t in node.targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name != "__all__":
                out.setdefault(name, []).append(node)
    return out


def _module_roots(tree: ast.Module) -> list[ast.AST]:
    """Top-level statements that run on import and bind no name."""
    return [node for node in tree.body
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef, ast.Assign, ast.AnnAssign,
                                     ast.Import, ast.ImportFrom))]


def _table(tree: ast.Module, name: str):
    """The literal value assigned to ``name`` at module level."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    return {}


def benchmark_roots(bench: Path = BENCH) -> set[tuple[str, str]]:
    """Every homlab name perfbench imports, and every name its tracer wraps
    (a method or property counts as a use of its class)."""
    out = set()
    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("homlab")):
                out |= {(node.module, alias.name) for alias in node.names}
        if path.name == "tracing.py":
            out |= {(mod, name) for mod, table in
                    _table(tree, "FUNCTIONS").items() for name in table}
            out |= {(mod, cls) for mod, cls, _ in _table(tree, "ATTRIBUTES")}
    return out


def unreached_names(package: Path = PACKAGE,
                    bench: Path = BENCH) -> list[str]:
    """Top-level package names that no root reaches, as ``module:name``.

    Roots: ``cli.main``, the experiment registry, the package exports,
    everything module-level code runs on import, and
    :func:`benchmark_roots`.  A reached definition reaches every name its
    statement mentions, resolved through the package's own imports.
    """
    parsed = {_module_name(p): ast.parse(p.read_text(encoding="utf-8"))
              for p in sorted(package.glob("*.py"))}
    defs = {mod: _definitions(tree) for mod, tree in parsed.items()}
    imported = {mod: {name: read for name, read, _ in _imports(tree, mod)}
                for mod, tree in parsed.items()}

    def resolve(mod: str, name: str):
        seen = set()
        while (mod, name) not in seen:
            seen.add((mod, name))
            if name in defs.get(mod, {}):
                return mod, name
            read = imported.get(mod, {}).get(name)
            if read is None or read[1] is None:
                return None
            mod, name = read
        return None

    def mentioned(mod: str, nodes):
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    target = resolve(mod, sub.id)
                    if target:
                        yield target

    init = parsed["homlab"]
    roots = [("homlab.cli", "main"), ("homlab.harness", "EXPERIMENTS")]
    roots += [("homlab", name) for name in _table(init, "__all__")]
    roots += sorted(benchmark_roots(bench))
    for mod, tree in parsed.items():
        roots += mentioned(mod, _module_roots(tree))
    reached = set()
    todo = [r for r in (resolve(*root) for root in roots) if r]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        todo += mentioned(key[0], defs[key[0]][key[1]])
    return sorted(f"{mod}:{name}" for mod, names in defs.items()
                  for name in names if (mod, name) not in reached)


def test_no_unused_imports():
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


def test_scan_flags_an_unused_import_in_a_function(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import os\n"
                      "def load():\n"
                      "    import json\n"
                      "    from math import floor, ceil as up\n"
                      "    def inner():\n"
                      "        import re\n"
                      "        return json.loads(os.sep)\n"
                      "    return inner, up\n\n"
                      "class Store:\n"
                      "    def save(self):\n"
                      "        from collections import deque\n"
                      "        return [deque]\n\n"
                      "def floor_of(x):\n"
                      "    from pathlib import Path\n"
                      "    return floor(x)\n", encoding="utf-8")
    assert unused_imports([sample]) == ["sample.py:4: floor",
                                        "sample.py:6: re",
                                        "sample.py:16: Path"]


def test_every_public_name_has_a_caller():
    kept = {f"{mod}:{name}" for mod, name in KEPT
            if "." not in name and "(" not in name}
    unreached = set(unreached_names())
    assert sorted(unreached - kept) == []  # delete these, or say in KEPT why not
    assert sorted(kept - unreached) == []  # these have callers now: unlist them


def test_scan_flags_an_uncalled_function(tmp_path):
    package, bench = tmp_path / "homlab", tmp_path / "perfbench"
    package.mkdir()
    bench.mkdir()
    (package / "__init__.py").write_text(
        "from .core import api\n__all__ = ['api']\n", encoding="utf-8")
    (package / "cli.py").write_text("def main():\n    return 0\n",
                                    encoding="utf-8")
    (package / "core.py").write_text(
        "LIMIT = 3\n\n"
        "def api():\n    return _helper()\n\n"
        "def _helper():\n    return LIMIT\n\n"
        "def traced():\n    return 1\n\n"
        "class Store:\n    def load(self):\n        return None\n\n"
        "def orphan():\n    return api()\n", encoding="utf-8")
    (bench / "tracing.py").write_text(
        "FUNCTIONS = {'homlab.core': {'traced': 'core.self'}}\n"
        "ATTRIBUTES = {('homlab.core', 'Store', 'load'): 'core.load'}\n",
        encoding="utf-8")
    assert unreached_names(package, bench) == ["homlab.core:orphan"]


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


def unbounded_enumerations(paths=sorted(PACKAGE.glob("*.py"))) -> list[str]:
    """Calls to an :data:`ENUMERATORS` name that pass no limit, or None."""
    out = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if name not in ENUMERATORS:
                continue
            at = ENUMERATORS[name]
            limit = node.args[at] if len(node.args) > at else next(
                (k.value for k in node.keywords if k.arg == "limit"), None)
            if limit is None or (isinstance(limit, ast.Constant)
                                 and limit.value is None):
                out.append(f"{path.name}:{node.lineno}: {name}")
    return out


def test_every_enumeration_passes_a_limit():
    assert unbounded_enumerations() == []


def test_scan_flags_an_unbounded_enumeration(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("x.all_faces()\n"
                      "x.all_faces(guards.complex_faces)\n"
                      "iter_chains(p, limit=None)\n"
                      "iter_chains(p, limit=n)\n"
                      "maximal_chains(p)\n"
                      "maximal_chains(p, n)\n",
                      encoding="utf-8")
    assert unbounded_enumerations([sample]) == [
        "sample.py:1: all_faces", "sample.py:3: iter_chains",
        "sample.py:5: maximal_chains"]


def package_asserts(paths=sorted(PACKAGE.glob("*.py"))) -> list[str]:
    """Every ``assert`` statement, which ``python -O`` would skip."""
    return [f"{path.name}:{node.lineno}"
            for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert)]


def test_package_checks_raise_instead_of_asserting():
    assert package_asserts() == []  # raise ValueError there instead


def test_scan_flags_an_assert(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("def f(x):\n"
                      "    assert x, 'bad'\n"
                      "    if not x:\n"
                      "        raise ValueError('bad')\n"
                      "    return [y for y in x if y]\n\n"
                      "class C:\n"
                      "    def g(self):\n"
                      "        assert self\n", encoding="utf-8")
    assert package_asserts([sample]) == ["sample.py:2", "sample.py:9"]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return True
    return False


def unread_fields(package: Path = PACKAGE,
                  readers=SCANNED + sorted(BENCH.glob("*.py"))) -> list[str]:
    """Dataclass fields of the package, as ``module:Class.field``, whose
    name no file in ``readers`` reads as an attribute."""
    read = set()
    for path in readers:
        read |= {node.attr for node in ast.walk(ast.parse(
                     path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)}
    out = []
    for path in sorted(package.glob("*.py")):
        module = _module_name(path)
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                out += [f"{module}:{cls.name}.{node.target.id}"
                        for node in cls.body
                        if isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)
                        and node.target.id not in read]
    return out


def test_every_dataclass_field_is_read():
    kept = {f"{mod}:{name}" for mod, name in KEPT
            if "." in name and "(" not in name}
    unread = set(unread_fields())
    assert sorted(unread - kept) == []  # delete these, or say in KEPT why not
    assert sorted(kept - unread) == []  # these are read now: unlist them


def test_scan_flags_an_unread_field(tmp_path):
    package = tmp_path / "homlab"
    package.mkdir()
    (package / "core.py").write_text(
        "from dataclasses import dataclass\nimport dataclasses\n\n"
        "@dataclass(frozen=True)\nclass Point:\n    x: int\n    y: int\n"
        "    label: str = ''\n\n"
        "@dataclasses.dataclass\nclass Box:\n    corner: Point\n\n"
        "class Plain:\n    z: int\n\n"
        "def norm(p: Point) -> int:\n    return p.x\n", encoding="utf-8")
    reader = tmp_path / "test_core.py"
    reader.write_text("def test_label(p, box):\n"
                      "    box.corner = p\n"
                      "    assert p.label == ''\n", encoding="utf-8")
    assert unread_fields(package, sorted(package.glob("*.py")) + [reader]) \
        == ["homlab.core:Point.y", "homlab.core:Box.corner"]


def _functions(body, prefix: str = ""):
    """(qualified name, node) of every function defined in ``body``, at any
    depth: methods as ``Class.method``, nested functions as ``outer.inner``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.")
        else:
            for part in ("body", "orelse", "finalbody", "handlers"):
                yield from _functions(getattr(node, part, []), prefix)


def unread_parameters(paths=sorted(PACKAGE.glob("*.py"))) -> list[str]:
    """Parameters, as ``module:function(parameter)``, that their function's
    body never reads; a read inside a nested function or lambda counts."""
    out = []
    for path in paths:
        module = _module_name(path)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, func in _functions(tree.body):
            a = func.args
            params = [arg.arg for arg in (*a.posonlyargs, *a.args, a.vararg,
                                          *a.kwonlyargs, a.kwarg) if arg]
            read = set()
            for node in (sub for stmt in func.body for sub in ast.walk(stmt)):
                if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                                 ast.Store):
                    read.add(node.id)
                elif isinstance(node, ast.AugAssign) and isinstance(
                        node.target, ast.Name):
                    read.add(node.target.id)
            out += [f"{module}:{name}({p})" for p in params if p not in read]
    return out


def test_every_parameter_is_read():
    kept = {f"{mod}:{name}" for mod, name in KEPT if "(" in name}
    unread = set(unread_parameters())
    assert sorted(unread - kept) == []  # delete these, or say in KEPT why not
    assert sorted(kept - unread) == []  # these are read now: unlist them


def test_scan_flags_an_unread_parameter(tmp_path):
    package = tmp_path / "homlab"
    package.mkdir()
    (package / "core.py").write_text(
        "def build(k, m, guards=None):\n    return k * m\n\n"
        "def count(n, *rest, step=1, **extra):\n"
        "    total = 0\n    total += n\n"
        "    return (lambda: total + step)()\n\n"
        "class Store:\n    def load(self, key):\n"
        "        def inner(x, unused):\n            return self, x\n"
        "        return inner(key, 0)\n", encoding="utf-8")
    assert unread_parameters([package / "core.py"]) == [
        "homlab.core:build(guards)", "homlab.core:count(rest)",
        "homlab.core:count(extra)", "homlab.core:Store.load.inner(unused)"]


def _own_nodes(body):
    """The nodes of a function body, without descending into the bodies
    of the functions, lambdas and classes it defines."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
            stack += ast.iter_child_nodes(node)


def unused_locals(paths=SCANNED) -> list[str]:
    """Locals, as ``module:function(name)``, that a function binds by plain
    assignment (``name = ...`` or an annotated one with a value) and never
    reads; a read in a nested function, lambda or comprehension counts,
    and a name declared ``global`` or ``nonlocal`` is not a local."""
    out = []
    for path in paths:
        module = _module_name(path)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, func in _functions(tree.body):
            bound = set()  # (line, name)
            declared = set()
            for node in _own_nodes(func.body):
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    declared.update(node.names)
                elif isinstance(node, ast.Assign):
                    bound.update((node.lineno, t.id) for t in node.targets
                                 if isinstance(t, ast.Name))
                elif isinstance(node, ast.AnnAssign) and node.value and \
                        isinstance(node.target, ast.Name):
                    bound.add((node.lineno, node.target.id))
            read = set()
            for node in (sub for stmt in func.body for sub in ast.walk(stmt)):
                if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                                 ast.Store):
                    read.add(node.id)
                elif isinstance(node, ast.AugAssign) and isinstance(
                        node.target, ast.Name):
                    read.add(node.target.id)
            out += [f"{module}:{name}({v})" for _, v in sorted(bound)
                    if v not in read and v not in declared]
    return out


def test_every_local_is_read():
    assert unused_locals() == []  # delete these assignments


def test_scan_flags_an_unused_local(tmp_path):
    package = tmp_path / "homlab"
    package.mkdir()
    (package / "core.py").write_text(
        "def build(atoms):\n"
        "    pos = {a: i for i, a in enumerate(atoms)}\n"
        "    size: int = len(atoms)\n"
        "    count: int\n"
        "    a, b = atoms[:2]\n"
        "    total = 0\n    total += size\n"
        "    key = 1\n"
        "    seen = kept = []\n"
        "    def inner():\n"
        "        nonlocal key\n"
        "        key = 2\n"
        "        spare = 3\n"
        "        return [x for x in seen]\n"
        "    return inner, (lambda: total)\n\n"
        "class Store:\n"
        "    def load(self):\n"
        "        self.cache = None\n"
        "        value = self.cache\n", encoding="utf-8")
    assert unused_locals([package / "core.py"]) == [
        "homlab.core:build(pos)", "homlab.core:build(key)",
        "homlab.core:build(kept)", "homlab.core:build.inner(spare)",
        "homlab.core:Store.load(value)"]


def args_reads(tree: ast.Module, entry: str) -> set[str]:
    """Names ``entry`` and the module functions it calls, transitively, read
    off ``args``: ``args.<name>`` and ``getattr(args, "<name>", ...)``."""
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    reads, seen, todo = set(), set(), [entry]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                reads.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func,
                                                           ast.Name):
                if (node.func.id == "getattr" and len(node.args) >= 2
                        and isinstance(node.args[0], ast.Name)
                        and node.args[0].id == "args"
                        and isinstance(node.args[1], ast.Constant)):
                    reads.add(node.args[1].value)
                elif node.func.id in functions:
                    todo.append(node.func.id)
    return reads


def test_every_cli_option_is_read():
    from homlab import cli
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    (verbs,) = [action for action in cli._build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)]
    assert set(verbs.choices) == set(cli._VERBS)
    unread = set()
    for verb, parser in verbs.choices.items():
        accepted = {action.dest for action in parser._actions
                    if not isinstance(action, argparse._HelpAction)}
        missing = accepted - args_reads(tree, cli._VERBS[verb].__name__)
        unread |= {(verb, name) for name in missing}
    # drop these options, or say in UNREAD why not
    assert sorted(pair for pair in unread if pair[1] not in UNREAD) == []
    # these are read now: unlist them
    assert sorted(set(UNREAD) - {name for _, name in unread}) == []


def test_scan_collects_args_reads():
    tree = ast.parse("def _cmd(args):\n    return _helper(args), args.a\n\n"
                     "def _helper(args):\n"
                     "    return getattr(args, 'b', None)\n\n"
                     "def _other(args):\n    return args.c\n")
    assert args_reads(tree, "_cmd") == {"a", "b"}


def foreign_imports(package: Path = PACKAGE,
                    tests: Path = ROOT / "tests") -> list[str]:
    """Imports, as ``file:line: module``, of a module that is neither in
    the standard library nor ``homlab``, nor, in ``tests``, one of
    :data:`TEST_IMPORTS` or a test module; an import inside a function
    counts too, and a relative one stays in its package."""
    own = {path.stem for path in tests.glob("*.py")}
    out = []
    for root, allowed in ((package, set()), (tests, TEST_IMPORTS | own)):
        for path in sorted(root.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                out += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in
                        sys.stdlib_module_names | {"homlab"} | allowed]
    return out


def test_only_declared_dependencies_are_imported():
    assert foreign_imports() == []


def test_scan_flags_an_undeclared_dependency(tmp_path):
    package, tests = tmp_path / "homlab", tmp_path / "tests"
    package.mkdir()
    tests.mkdir()
    (package / "core.py").write_text(
        "import os.path\nimport networkx as nx\n"
        "from . import graphs\nfrom homlab.limits import Guards\n"
        "def solve():\n    import sympy\n    return sympy\n",
        encoding="utf-8")
    (tests / "test_core.py").write_text(
        "from __future__ import annotations\nimport pytest, sympy\n"
        "from hypothesis import given\nfrom test_other import helper\n"
        "from networkx.algorithms import isomorphism\n", encoding="utf-8")
    (tests / "test_other.py").write_text("import numpy\n", encoding="utf-8")
    assert foreign_imports(package, tests) == [
        "core.py:2: networkx", "core.py:6: sympy",
        "test_core.py:5: networkx.algorithms", "test_other.py:1: numpy"]
