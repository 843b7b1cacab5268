"""The package stays dependency-free: importing it loads only the standard library,
every name a module imports is used in that module, and every name the package
exports has a reader in the library or in the acceptance suite."""

from __future__ import annotations

import ast
import glob
import inspect
import os
import subprocess
import sys

import depthtwo

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def _modules_loaded_by(statement: str) -> set[str]:
    """The names in sys.modules after running ``statement`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    code = f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return set(done.stdout.split())


def test_importing_the_package_loads_only_the_standard_library():
    added = _modules_loaded_by("import depthtwo") - _modules_loaded_by("pass")
    assert "depthtwo.galois" in added
    foreign = sorted(name for name in added
                     if name != "depthtwo" and not name.startswith("depthtwo.")
                     and name.split(".")[0] not in sys.stdlib_module_names)
    assert foreign == []


def _unused_imports(path: str) -> list[str]:
    """Names bound by an import in ``path`` that no expression in it reads.

    Imports on a line marked ``# noqa: F401`` are re-exports and exempt.
    """
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines = source.splitlines()
    tree = ast.parse(source, path)
    imported = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                and "# noqa: F401" not in lines[node.lineno - 1]):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{os.path.basename(path)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def _library_paths() -> list[str]:
    # __init__.py imports names only to re-export them
    paths = sorted(p for p in glob.glob(os.path.join(SRC, "depthtwo", "*.py"))
                   if os.path.basename(p) != "__init__.py")
    assert paths
    return paths


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def test_every_imported_name_is_used_in_its_module():
    assert [entry for path in _library_paths() for entry in _unused_imports(path)] == []


def test_every_exported_name_has_a_reader():
    # a reader loads the name in a library module, or the acceptance suite imports it
    loaded = set()
    for path in _library_paths():
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    accepted = {alias.name
                for node in ast.walk(_parse(os.path.join(TESTS, "test_acceptance.py")))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    exported = [name for name in depthtwo.__all__
                if not inspect.ismodule(getattr(depthtwo, name))]
    assert exported
    assert [name for name in exported if name not in loaded | accepted] == []
