"""The package stays dependency-free: importing it loads only the standard library,
and every name a module imports is used in that module."""

from __future__ import annotations

import ast
import glob
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


def test_every_imported_name_is_used_in_its_module():
    # __init__.py imports names only to re-export them
    paths = sorted(p for p in glob.glob(os.path.join(SRC, "depthtwo", "*.py"))
                   if os.path.basename(p) != "__init__.py")
    assert paths
    assert [entry for path in paths for entry in _unused_imports(path)] == []
