"""edgesense benchmark: one workload, one seed, one run.

Usage, from the root of an edgesense checkout:

    python3 perfbench/run.py --workload gate-ssh-par2 --seed 0 --seconds 30 --trace 0

Workloads: gate-ssh-par2, kappa-serial, cli-cold (see README.md).  With
``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Above it the run prints every metric as a ``name value unit`` line and a
``report`` JSON line with the machine block, sample counts and any failure
messages.  The run exits non-zero, printing no result, when the checkout
lacks the edgesense sources or a metric cannot be measured.

This script uses the standard library only (tracing.py is stdlib too).  Each measurement runs in a
fresh worker process (worker.py) that imports edgesense from ``src/`` of
the checkout; the thread environment is passed on unchanged.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from tracing import median, steal_s

HERE = Path(__file__).resolve().parent
REQUIRED = ("src/edgesense/__init__.py", "src/edgesense/cli.py", "configs/fig1.json",
            "configs/fig2.json", "configs/fig3.json", "configs/fig4.json", "BENCHMARK.json")
# setup_s is the median of this many fresh-process set-ups, the measuring one included.
SETUP_RUNS = 7
# Everything, the loop's last operation included, ends within this budget.
RUN_BUDGET_S = 170.0


def start_worker(args, root: Path, work: Path, mode: str, env: dict, deadline: float) -> dict:
    result = work / f"result-{mode}.json"
    result.unlink(missing_ok=True)
    steal_at = steal_s()
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--spawned-at", repr(spawned_at), "--steal-at", repr(steal_at),
           "--root", str(root), "--work", str(work), "--result", str(result)]
    if args.tiny:
        cmd.append("--tiny")
    # Its own session, so a timeout can stop the worker and any CLI child of it.
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{mode} worker did not finish within the run budget")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0 or not result.exists():
        raise SystemExit(f"{mode} worker failed with exit code {code}")
    return json.loads(result.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="0 runs the shipped grids and checks them against reference values")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small lattices and one set-up, for the self-check")
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so the worker is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + RUN_BUDGET_S

    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"not an edgesense checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    try:
        setups, setups_raw = [], []
        setup_failures = []
        for _ in range(1 if args.tiny else SETUP_RUNS - 1):
            res = start_worker(args, root, work, "setup", env, deadline)
            setups.append(res["setup_s"])
            setups_raw.append(res["setup_raw_s"])
            setup_failures += res["setup_failures"]
        res = start_worker(args, root, work, "measure", env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res["setup_s"])
    setups_raw.append(res["setup_raw_s"])
    setup_failures += res["setup_failures"]
    measured = dict(res["metrics"], setup_s=median(setups))

    metrics = {}
    for item in declared:
        value = measured.get(item["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            print(f"metric {item['name']} was not measured ({value!r})", file=sys.stderr)
            return 1
        metrics[item["name"]] = {"value": value, "unit": item["unit"]}
        print(f"{item['name']:32s} {value:.6g} {item['unit']}")

    failed = res["failed"] + (1 if setup_failures else 0)
    attempted = res["attempted"] + (1 if setup_failures else 0)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": res["machine"],
        "setup_runs_s": setups, "setup_runs_raw_s": setups_raw, "samples": res["samples"],
        "steal_per_cpu_s": res["steal_per_cpu_s"],
        "error_rate": failed / attempted,
        "failures": setup_failures + res["failures"],
    }
    for key in ("untraced", "traced"):
        if key in res:
            report[key] = res[key]
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
