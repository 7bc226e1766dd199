"""The package surface: each module's `__all__`, re-exported as one list,
and import hygiene: no unused imports or unreferenced private names."""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pathway_entropy

MODULES = ("errors", "quadrature", "entropy_discrete", "entropy_continuous",
           "pathway", "maxent", "ode_check", "divergence", "ppp")


def test_every_module_is_re_exported_or_is_the_cli():
    found = {info.name for info in pkgutil.iter_modules(pathway_entropy.__path__)}
    assert found == set(MODULES) | {"cli"}


def test_each_public_name_resolves_to_the_module_object():
    for name in MODULES:
        module = importlib.import_module(f"pathway_entropy.{name}")
        for attr in module.__all__:
            assert getattr(pathway_entropy, attr) is getattr(module, attr), attr


def test_all_is_the_module_lists_in_order():
    expected = ["__version__"]
    for name in MODULES:
        expected += importlib.import_module(f"pathway_entropy.{name}").__all__
    assert pathway_entropy.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from pathway_entropy import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(pathway_entropy.__all__)


SOURCES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted(Path(pathway_entropy.__file__).parent.glob("*.py"))}


def _references(node: ast.AST) -> list[str]:
    """Every name that code under `node` reads: a loaded name, an attribute
    (`module._name`), or a name imported from another module."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.append(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found += [alias.name for alias in sub.names]
    return found


def test_no_module_imports_a_name_it_never_uses():
    for name, tree in SOURCES.items():
        used = {sub.id for sub in ast.walk(tree)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    assert bound == "*" or bound in used, f"{name}: {bound}"


def _private_definitions(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [sub.id for t in targets for sub in ast.walk(t)
                 if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_module_name_is_referenced_beyond_its_definition():
    everywhere = Counter(ref for tree in SOURCES.values() for ref in _references(tree))
    for name, tree in SOURCES.items():
        for stmt in tree.body:
            own = _references(stmt)
            for private in _private_definitions(stmt):
                assert everywhere[private] > own.count(private), f"{name}: {private}"


def test_dir_lists_every_public_name_before_first_use():
    src = Path(pathway_entropy.__file__).parent.parent
    probe = ("import pathway_entropy as pe\n"
             "names = dir(pe)\n"
             "print(sorted(set(pe.__all__) - set(names)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_scipy_is_imported_only_inside_pathway_special():
    # scipy.special costs import time and memory, so one lazy import serves
    # the cdf and quantile, and nothing else loads scipy
    found = []
    for name, tree in SOURCES.items():
        scopes = [(None, tree)] + [(node.name, node) for node in ast.walk(tree)
                                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        innermost = {}
        for scope, node in scopes:   # outer scopes come first, so inner ones win
            for sub in ast.walk(node):
                innermost[id(sub)] = (scope, sub)
        for scope, sub in innermost.values():
            modules = ([alias.name for alias in sub.names] if isinstance(sub, ast.Import)
                       else [sub.module or ""] if isinstance(sub, ast.ImportFrom) else [])
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                found.append((name, scope))
    assert found == [("pathway.py", "_special")]
