"""numpy is the one runtime dependency, both declared and imported.

A new entry in ``pyproject.toml`` fails the first test; a new third-party
import in the package (scipy, say) fails the second.  The third keeps the
thread pool, and the logging it imports, off the serial paths.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "edgesense"}


def test_declared_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]


def test_package_imports_stdlib_and_numpy_only():
    imported = {}
    for path in sorted((ROOT / "src" / "edgesense").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            for top in tops:
                imported.setdefault(top, path.name)
    assert "numpy" in imported
    stray = {top: where for top, where in imported.items() if top not in ALLOWED}
    assert not stray, stray


# Runs in a fresh interpreter: the CLI's import, a steady solve and a serial
# sweep, then prints the pool and logging modules that got loaded.
SERIAL_RUN = """
import json, sys
from edgesense.cli import main
raw = {"lattice": {"kind": "ssh", "L": 4}, "leads": {"M": 8},
       "sweep": {"axis": "delta", "values": [-0.1, 0.0, 0.1]}}
open("cfg.json", "w").write(json.dumps(raw))
assert main(["steady", "--config", "cfg.json", "--out", "o"]) == 0
assert main(["sweep-gate", "--config", "cfg.json", "--out", "o"]) == 0
print(json.dumps(sorted({"concurrent.futures", "logging"} & set(sys.modules))))
"""


def test_serial_paths_skip_the_thread_pool_import(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SERIAL_RUN], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
