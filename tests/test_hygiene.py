"""Every name a module of the package imports is used in that module,
every private definition is referred to from outside itself, no module
names another module's private names, every function and method is named
outside its own definition, and every private module-level function reads
each of its parameters.

Package ``__init__.py`` files are exempt from the import check: their
imports are re-exports."""

import ast
import dataclasses
import functools
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import proofkit

PACKAGE = Path(proofkit.__file__).parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(bound name, line) for every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, node.lineno


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as "Formula" name types too
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"unused imports: {', '.join(unused)}"


SOURCES = sorted(PACKAGE.rglob("*.py"))


def _references(tree):
    """Counter of the names a tree refers to, as names or attributes."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.split(".")[-1]] += 1
    return refs


def test_every_private_definition_is_referenced():
    # a private def or class referred to only from inside itself is dead
    trees = {p: ast.parse(p.read_text()) for p in SOURCES}
    refs = sum(map(_references, trees.values()), Counter())
    dead = [
        f"{path.relative_to(PACKAGE)}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and refs[node.name] == _references(node)[node.name]
    ]
    assert not dead, f"unreferenced private definitions: {', '.join(dead)}"


def _own_names(tree):
    """The names a module defines: its functions and classes, the names it
    binds, and the attributes it assigns on self or cls."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
        ):
            names.add(node.attr)
    return names


def test_no_module_names_another_modules_private_names():
    # x._name, for x other than self or cls, must name something of this
    # module: what another module keeps private is its own to change
    foreign = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        own = _own_names(tree)
        foreign += [
            f"{path.relative_to(PACKAGE)}:{node.lineno} {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.endswith("__")
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
            and node.attr not in own
        ]
    assert not foreign, f"private names of other modules: {', '.join(foreign)}"


# Where a function of the package may be named: the package, the tests and
# the benchmark harness.
REPO = Path(__file__).resolve().parents[1]
CALLERS = sorted(p for d in ("src", "tests", "perfbench") for p in (REPO / d).rglob("*.py"))


def test_every_function_is_named_outside_its_definition():
    # a function or method that nothing names, called or passed, is dead;
    # dunder methods are called by the language itself
    refs = sum((_references(ast.parse(p.read_text())) for p in CALLERS), Counter())
    dead = [
        f"{path.relative_to(PACKAGE)}:{node.lineno} {node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and refs[node.name] == _references(node)[node.name]
    ]
    assert not dead, f"functions named only in their own definition: {', '.join(dead)}"


def _unread_parameters(fn):
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    read = {
        n.id
        for stmt in fn.body
        for n in ast.walk(stmt)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [p for p in params if p not in read]


def test_private_functions_read_every_parameter():
    # every call site of a private function passes what it never reads;
    # closures nested in a function are not checked
    unread = [
        f"{path.relative_to(PACKAGE)}:{node.lineno} {node.name}({p})"
        for path in SOURCES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        for p in _unread_parameters(node)
    ]
    assert not unread, f"unread parameters: {', '.join(unread)}"


# The refuter's side of propcalc: the search, the congruence closure and
# the certificate emitter.
REFUTER = {
    "_Emitter",
    "_refute",
    "_clauses",
    "_conjunctive",
    "_Terms",
    "clausify",
    "CongruenceCore",
    "_UnionFind",
    "_theory_conflict",
    "normform",
    "to_conjunctive",
}


def _reached(tree, root):
    """The module-level definitions that `root` reaches by name, root
    included."""
    defs = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    reached: dict = {}
    todo = [root]
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached[name] = defs[name]
            todo.extend(_references(defs[name]))
    return reached


def test_certificate_checker_shares_no_code_with_the_refuter():
    # replay must not trust what it checks: it and its side-condition
    # helpers refer to nothing of the search or the emitter (normform's
    # to_conjunctive goes through the refuter's clausify)
    checker = _reached(ast.parse((PACKAGE / "propcalc.py").read_text()), "replay")
    assert {"replay", "resolvent", "is_equality_axiom_instance"} <= set(checker)
    refs = set().union(*map(_references, checker.values()))
    assert not refs & REFUTER, f"the checker refers to {sorted(refs & REFUTER)}"


def _module_level_names(tree):
    """The names a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_brute_force_oracle_shares_no_code_with_propcalc():
    # the oracle that tests the refuter enumerates valuations with helpers
    # of its own: they name neither propcalc nor anything it defines
    tree = ast.parse((REPO / "tests" / "conftest.py").read_text())
    oracle = _reached(tree, "brute_force_quasitaut_unsat")
    helpers = {"truth_table_unsat", "elementary_subformulas", "atom_patterns", "bitvec_value"}
    assert helpers | {"axiom_instances"} <= set(oracle)
    own = _module_level_names(ast.parse((PACKAGE / "propcalc.py").read_text()))
    foreign = set().union(*map(_references, oracle.values())) & (own | {"propcalc"})
    assert not foreign, f"the oracle refers to {sorted(foreign)}"


# The paper's metatheory lives in proofkit.meta: it imports the verdict
# path, and neither the command line nor the benchmark's layers import it.
META = "proofkit.meta"


def _absolute_imports(path):
    """(line, absolute module name) for every module an import in path
    names, `from X import y` naming both X and X.y."""
    package = ".".join(("proofkit",) + path.relative_to(PACKAGE).parent.parts)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield node.lineno, a.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            base = package.split(".")
            if node.level:
                base = base[: len(base) - node.level + 1]
            else:
                base = []
            module = ".".join(base + ([node.module] if node.module else []))
            yield node.lineno, module
            for a in node.names:
                yield node.lineno, f"{module}.{a.name}"


def test_only_meta_imports_meta():
    inside = PACKAGE / "meta"
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line} {name}"
        for path in SOURCES
        if inside not in path.parents
        for line, name in _absolute_imports(path)
        if name == META or name.startswith(META + ".")
    ]
    assert not offenders, f"imports of {META} outside it: {', '.join(offenders)}"


@functools.cache
def _verdict_path_modules() -> tuple[str, ...]:
    """The proofkit modules that `import proofkit.cli` and the bench's eight
    layers (perfbench/tracing.LAYERS) load, read in a fresh interpreter."""
    code = (
        "import importlib, sys\n"
        f"sys.path.insert(0, {str(REPO / 'perfbench')!r})\n"
        "import tracing\n"
        "import proofkit.cli\n"
        "for layer in tracing.LAYERS:\n"
        "    importlib.import_module('proofkit.' + layer)\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('proofkit'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return tuple(done.stdout.split())


def test_the_cli_and_the_bench_layers_load_no_meta_module():
    loaded = _verdict_path_modules()
    assert "proofkit.cli" in loaded and "proofkit.hilbertack" in loaded
    meta = [m for m in loaded if m == META or m.startswith(META + ".")]
    assert not meta, f"loaded: {', '.join(meta)}"


# The dataclasses the verdict path keeps.  A record nothing mutates is a
# typing.NamedTuple: it is built and hashed in C, and making its class
# execs no generated methods at start-up.
_NODES = "the tests use dataclasses.replace, fields and FrozenInstanceError on nodes"
_SYMBOLS = "as tuples, FnSym('f', 1) would equal PredSym('f', 1) in propcalc's term codes"
KEPT_DATACLASSES = {
    **{
        f"proofkit.syntax.{name}": _NODES
        for name in ("Var", "App", "SpecialConst", "Atom", "Not", "Or", "Exists")
    },
    "proofkit.syntax.FnSym": _SYMBOLS,
    "proofkit.syntax.PredSym": _SYMBOLS,
    "proofkit.syntax.Language": "validates its symbols in __post_init__",
    "proofkit.machines.Machine": "validates its commands in __post_init__",
    "proofkit.stringarith.TheoryBundle": "the bench calls dataclasses.replace on it",
    "proofkit.kernel.scripts.Entry": "a theorem's entry is marked checked after it is built",
    "proofkit.kernel.scripts.ScriptVerdict": "the corpus driver adds the oracle's verdict to it",
    "proofkit.kernel.scripts.Script": "its lines field has a default_factory",
    "proofkit.extend.Stage": "its respects field has a default_factory",
}


def test_every_verdict_path_dataclass_is_on_the_allow_list():
    found = {
        f"{name}.{cls.__qualname__}"
        for name in _verdict_path_modules()
        for cls in vars(importlib.import_module(name)).values()
        if isinstance(cls, type) and cls.__module__ == name and dataclasses.is_dataclass(cls)
    }
    unlisted = sorted(found - KEPT_DATACLASSES.keys())
    assert not unlisted, f"not NamedTuples and not listed with a reason: {', '.join(unlisted)}"
    stale = sorted(KEPT_DATACLASSES.keys() - found)
    assert not stale, f"listed but no longer dataclasses: {', '.join(stale)}"
