"""Fast self-check of the benchmark: contract, metric names and JSON shape.

Usage, from the root of an edgesense checkout:

    python3 perfbench/selfcheck.py

Checks BENCHMARK.json against the benchmark contract, then runs every
workload at a tiny size (small lattices, one second, one set-up) with
``--trace 0`` and ``--trace 1`` and checks that the last output line has
exactly the keys ``correct``, ``attempted``, ``failed`` and ``metrics``,
that the metrics are exactly the declared ones with their units, and that
the run was correct.  Last, it runs the benchmark in a directory holding
only BENCHMARK.json and perfbench/, where it must fail without a result.
Takes about a minute; exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

# The metric names this benchmark was specified with, by mode.
END_TO_END = {"setup_s", "op_wall_p50_s", "op_wall_tail_s", "ops_per_s", "cpu_s_per_op",
              "peak_rss_mb"}
LAYERS = ("config", "lattice", "leads", "master_eq", "observables", "experiments", "cli")
PER_LAYER = {
    "config.parse_s", "config.fingerprint_s", "lattice.build_s", "lattice.spectrum_s",
    "lattice.classify_s", "leads.assemble_s", "leads.assemble_calls", "master_eq.solve_s",
    "master_eq.solve_calls", "master_eq.inner_solves", "master_eq.dark_pair_warnings",
    "master_eq.eig_floor_s", "master_eq.above_floor_ratio", "master_eq.residual_max",
    "master_eq.conservation_rel_max", "master_eq.spdm_to_json_s", "observables.profile_s",
    "observables.populations_s", "experiments.sweep_s", "experiments.sweep_self_s",
    "experiments.worker_busy_frac", "experiments.csv_write_s", "experiments.csv_read_s",
    "experiments.fit_s", "cli.import_s", "cli.main_self_s", "cli.process_overhead_s",
    "cli.artifact_bytes", "trace.overhead_ratio",
} | {f"{layer}.self_s" for layer in LAYERS}


def fail(message: str) -> None:
    raise SystemExit(f"selfcheck: {message}")


def check_spec(spec: dict) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    if not (1 <= len(spec["paths"]) <= 16 and all(PATH.match(p) and ".." not in p
                                                  for p in spec["paths"])):
        fail("paths")
    if not (len(spec["command"]) <= 32 and all(len(c) <= 200 for c in spec["command"])):
        fail("command")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        fail("run_seconds")
    if not 2 <= len(spec["workloads"]) <= 8:
        fail("workload count")
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"workload {w['name']}")
    for item in spec["end_to_end"]:
        if set(item) != {"name", "unit", "better", "bound"} or not 0 < item["bound"] <= 0.25:
            fail(f"end_to_end {item}")
    for item in spec["per_layer"]:
        if set(item) != {"name", "unit", "better"}:
            fail(f"per_layer {item}")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    if len(names) != len(set(names)) or not all(NAME.match(n) for n in names):
        fail("names must be unique and well formed")
    if not all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics):
        fail("units or directions")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be declared in s, lower is better")
    if setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s should carry the largest bound")
    if {m["name"] for m in spec["end_to_end"]} != END_TO_END:
        fail("end_to_end names differ from the specified set")
    if {m["name"] for m in spec["per_layer"]} != PER_LAYER:
        fail("per_layer names differ from the specified set")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(last)}")
    if not (last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1):
        fail(f"{workload} trace={trace} was not correct: {proc.stdout[-800:]}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(last["metrics"]) != set(declared):
        fail(f"{workload}: metrics {sorted(set(last['metrics']) ^ set(declared))} differ")
    for name, item in last["metrics"].items():
        value = item["value"]
        if (set(item) != {"value", "unit"} or item["unit"] != declared[name]
                or not isinstance(value, (int, float)) or not math.isfinite(value)):
            fail(f"{workload}: metric {name} = {item}")
    print(f"ok  {workload:14s} trace={trace}  {last['attempted']} ops")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work"))
        proc = run(bare, "cli-cold", 0)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode == 0 or last[0].startswith("{"):
            fail("a directory without the edgesense sources must fail without a result")
    print("ok  bare directory fails without a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    print("ok  BENCHMARK.json")
    (HERE / "_work").mkdir(exist_ok=True)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
