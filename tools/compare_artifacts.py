"""Run every edgesense command on the shipped configs of two checkouts and compare the artifacts.

Usage:

    python3 tools/compare_artifacts.py PARENT CHANGE

PARENT and CHANGE are the roots of two edgesense checkouts.  Each command
runs in a fresh ``python -m edgesense`` process, with PYTHONPATH at that
checkout's ``src`` and no OpenBLAS, GotoBLAS, OpenMP or MKL thread variable
set, so each side starts its threads as a user's command does, and on that
checkout's own ``configs/<name>.json``: ``spectrum`` and ``steady`` on every
config, ``sweep-gate`` or ``sweep-kappa`` as the config's sweep axis asks,
and ``fit`` on the ``sweep_kappa.csv`` it wrote.

Prints one JSON object with a key "<config>/<artifact>" per artifact, whose
value is "identical" or a report of what differs:

* a CSV, column by column (the fingerprint line and the column names are the
  column "#header"), and a JSON document, leaf by leaf (a list of scalars is
  one column whose cells are its indices), give for each differing column
  {"differing": cells that differ, "max_rel": their largest relative
  difference |a - b| / max(|a|, |b|) (null if a cell is not a number),
  "cells": the first MAX_CELLS as [cell, parent, change]}; the
  ``diagnostics.wall_time`` of ``steady_state.json`` is left out;
* ``spdm.npy`` gives {"max_rel": max |a - b| / max |a|}, or the two shapes
  and dtypes where those differ;
* an artifact that only one checkout wrote gives "missing in parent" or
  "missing in change".

Each command adds "<config>/<command>": {"exit": [parent, change], "stderr":
[parent, change]}, also where both sides exit alike, so a command that fails
in both checkouts shows.  Each side's stderr writes its checkout root as
``<root>``, its output directory as ``<out>`` and the line number a warning
names as ``<line>``, so a warning reads alike on both sides, also where the
code above the line it names moved.  The outputs go to a temporary
directory, removed at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CONFIGS = ("fig1", "fig2", "fig3", "fig4")
SWEEP_COMMANDS = {"delta": "sweep-gate", "kappa": "sweep-kappa"}
MAX_CELLS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_commands(root: Path, name: str, out: Path) -> dict[str, tuple[int, str]]:
    """Run the commands on root's config ``name`` into out; {command: (exit code, stderr)}."""
    config = root / "configs" / f"{name}.json"
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    axis = (json.loads(config.read_text()).get("sweep") or {}).get("axis")
    commands = [["spectrum"], ["steady"]]
    if axis in SWEEP_COMMANDS:
        commands.append([SWEEP_COMMANDS[axis]])
    results = {}
    out.mkdir(parents=True)
    for argv in commands:
        argv = [*argv, "--config", str(config), "--out", str(out)]
        results[argv[0]] = run(argv, env, root, out)
    if (out / "sweep_kappa.csv").exists():
        argv = ["fit", str(out / "sweep_kappa.csv"), "--out", str(out)]
        results["fit"] = run(argv, env, root, out)
    return results


def run(argv: list[str], env: dict[str, str], root: Path, out: Path) -> tuple[int, str]:
    """(exit code, stderr) of one command run in out; stderr writes <root>, <out> and <line>."""
    proc = subprocess.run(
        [sys.executable, "-m", "edgesense", *argv], env=env, cwd=out, capture_output=True, text=True
    )
    stderr = proc.stderr.replace(str(out), "<out>").replace(str(root), "<root>")
    # a warning reads "<file>.py:<n>: <category>: <message>"
    return proc.returncode, re.sub(r"(\.py):\d+: ", r"\1:<line>: ", stderr)


def rel(a: object, b: object) -> float | None:
    """|a - b| / max(|a|, |b|) for two numbers (or cells that parse as numbers), else None."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if math.isfinite(scale) else None


def compare_columns(parent: dict, change: dict) -> dict:
    """Each column whose cells differ, from two {column: {cell: value}} maps."""
    report = {}
    for column in sorted(set(parent) | set(change), key=str):
        a, b = parent.get(column, {}), change.get(column, {})
        cells = [c for c in sorted(set(a) | set(b), key=str) if a.get(c) != b.get(c)]
        if not cells:
            continue
        rels = [rel(a.get(c), b.get(c)) for c in cells]
        report[column] = {
            "differing": len(cells),
            "max_rel": None if None in rels else max(rels),
            "cells": [[c, a.get(c), b.get(c)] for c in cells[:MAX_CELLS]],
        }
    return report


def csv_columns(path: Path) -> dict:
    """{column: {row: cell}} of an artifact CSV; its two header lines are the column "#header"."""
    lines = path.read_text().splitlines()
    columns: dict = {"#header": dict(enumerate(lines[:2]))}
    names = lines[1].split(",") if len(lines) > 1 else []
    for row, line in enumerate(lines[2:]):
        for name, cell in zip(names, line.split(",")):
            columns.setdefault(name, {})[row] = cell
    return columns


def json_columns(x: object, path: str = "", columns: dict | None = None) -> dict:
    """{leaf path: {cell: value}} of a JSON document; a list of scalars is one column."""
    columns = {} if columns is None else columns
    if isinstance(x, dict):
        for key, value in x.items():
            json_columns(value, f"{path}.{key}" if path else key, columns)
    elif isinstance(x, list) and not any(isinstance(v, (dict, list)) for v in x):
        columns[path] = dict(enumerate(x))
    elif isinstance(x, list):
        for i, value in enumerate(x):
            json_columns(value, f"{path}[{i}]", columns)
    else:
        columns[path] = {"": x}
    return columns


def load_json(path: Path) -> dict:
    doc = json.loads(path.read_text())
    if path.name == "steady_state.json":
        doc.get("diagnostics", {}).pop("wall_time", None)
    return json_columns(doc)


def compare_npy(parent: Path, change: Path) -> str | dict:
    a, b = np.load(parent), np.load(change)
    if a.shape != b.shape or a.dtype != b.dtype:
        return {"shape": [list(a.shape), list(b.shape)], "dtype": [str(a.dtype), str(b.dtype)]}
    if a.tobytes() == b.tobytes():
        return "identical"
    return {"max_rel": float(np.abs(a - b).max() / np.abs(a).max())}


def compare_file(parent: Path, change: Path) -> str | dict:
    if not parent.exists():
        return "missing in parent"
    if not change.exists():
        return "missing in change"
    if parent.suffix == ".npy":
        return compare_npy(parent, change)
    load = csv_columns if parent.suffix == ".csv" else load_json
    report = compare_columns(load(parent), load(change))
    return report or "identical"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the reference checkout")
    parser.add_argument("change", type=Path, help="root of the checkout to compare with it")
    args = parser.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="compare-"))
    report: dict = {}
    try:
        for name in CONFIGS:
            roots = args.parent.resolve(), args.change.resolve()
            outs = [work / side / name for side in ("parent", "change")]
            runs = [run_commands(root, name, out) for root, out in zip(roots, outs)]
            for command in sorted(set(runs[0]) | set(runs[1])):
                codes, stderr = zip(*(r.get(command, (None, "")) for r in runs))
                report[f"{name}/{command}"] = {
                    "exit": list(codes),
                    "stderr": [text.strip() for text in stderr],
                }
            files = sorted({p.name for out in outs for p in out.iterdir()})
            for file in files:
                report[f"{name}/{file}"] = compare_file(outs[0] / file, outs[1] / file)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
