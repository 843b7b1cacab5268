"""The package stays dependency-free: importing it loads only the standard library."""

from __future__ import annotations

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
