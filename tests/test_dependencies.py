"""numpy is the one runtime dependency, both declared and imported, and the entry point starts lean.

A new entry in ``pyproject.toml`` fails the first test; a new third-party
import in the package (scipy, say) fails the second.  The third keeps the
thread pool, and the logging it imports, off the serial paths.  The rest
pin how a process starts: ``import edgesense`` loads no numpy, the
``edgesense`` command is ``python -m edgesense``'s ``main``, and that
entry point starts OpenBLAS on one thread unless the caller set a count.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
from edgesense import cli

ROOT = Path(__file__).resolve().parents[1]
# the built-in SHA-256 modules of every supported Python: 3.11's
# stdlib_module_names lists _sha256 but not 3.12's _sha2
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "edgesense", "_sha2", "_sha256"}


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
# sweep, then prints the pool, logging and OpenSSL hash modules that got loaded.
SERIAL_RUN = """
import json, sys
from edgesense.cli import main
raw = {"lattice": {"kind": "ssh", "L": 4}, "leads": {"M": 8},
       "sweep": {"axis": "delta", "values": [-0.1, 0.0, 0.1]}}
open("cfg.json", "w").write(json.dumps(raw))
assert main(["steady", "--config", "cfg.json", "--out", "o"]) == 0
assert main(["sweep-gate", "--config", "cfg.json", "--out", "o"]) == 0
print(json.dumps(sorted({"concurrent.futures", "logging", "hashlib", "_hashlib"} & set(sys.modules))))
"""


def run_child(code: str, env: dict[str, str], cwd: Path | None = None) -> object:
    """The JSON value a fresh interpreter prints last, running code in cwd."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_serial_paths_skip_the_thread_pool_import(tmp_path):
    assert run_child(SERIAL_RUN, child_env(), tmp_path) == []


def test_package_import_loads_no_numpy():
    # python -m edgesense imports the package before __main__ runs
    code = "import json, sys, edgesense; print(json.dumps('numpy' in sys.modules))"
    assert run_child(code, child_env()) is False


START_THREADS = """
import json
import edgesense.__main__
from edgesense.master_eq import _openblas_threads
threads = _openblas_threads()
print(json.dumps(None if threads is None else threads[0]()))
"""


@pytest.mark.parametrize("caller", [None, "2"])
def test_entry_point_starts_openblas_on_one_thread(caller):
    # unset, the entry point asks for one thread; a caller's count is kept
    # (OpenBLAS caps it at the cores it may run on)
    env = child_env() if caller is None else child_env(OPENBLAS_NUM_THREADS=caller)
    got = run_child(START_THREADS, env)
    if got is None:
        pytest.skip("no OpenBLAS thread control")
    assert got == (1 if caller is None else min(int(caller), len(os.sched_getaffinity(0))))


def test_console_script_is_the_module_entry_point(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"edgesense": "edgesense.__main__:main"}
    # importing the entry point sets the variable if unset: undone after the test
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    module, attr = scripts["edgesense"].split(":")
    assert getattr(importlib.import_module(module), attr) is cli.main
