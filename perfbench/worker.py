"""One measuring process: set up a workload, run its loop, report as JSON.

Started by run.py in a fresh interpreter, so that set-up time and peak
memory belong to the workload alone.  In ``--mode setup`` the process only
sets up and reports how long that took; run.py starts several of these to
take the median.  In ``--mode measure`` it goes on to run the closed loop
for ``--seconds`` seconds and writes every metric to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

# Keep every heavy import after this point timed as a cold import.
_start = time.perf_counter()
import edgesense.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _start

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from tracing import median  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "EDGESENSE_THREADS")
# A loop stops at the first complete cycle after its time is up, but never
# runs more than this far past it.
OVERRUN_S = 30.0
FLOOR_REPEATS = 3


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {name: os.environ.get(name) for name in THREAD_VARS}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_env": env,
        "thread_env_set_by_caller": any(v is not None for v in env.values()),
    }


def run_loop(wl, seconds: float, traced: bool, first_k: int) -> list:
    results = []
    deadline = time.perf_counter() + seconds
    k = first_k
    while True:
        results.append(wl.op(k, traced))
        k += 1
        now = time.perf_counter()
        if now >= deadline and ((k - first_k) % wl.cycle == 0 or now >= deadline + OVERRUN_S):
            return results


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and which one.

    Below 21 samples that percentile would not reach the median, so the
    maximum is reported instead, as percentile 100.
    """
    vals = sorted(values)
    n = len(vals)
    if n < 21:
        return vals[-1], 100.0
    return vals[n - 11], 100.0 * (n - 10) / n


def eig_floor(systems) -> list[float]:
    """np.linalg.eig + inv on A = iH + Delta, the per-solve floor of the Sylvester route."""
    times = []
    for system, kappa in systems:
        rates = 0.5 * (system.gamma_by_index + kappa * system.lattice_mask)
        a = 1j * system.h_total + np.diag(rates)
        for _ in range(FLOOR_REPEATS):
            start = time.perf_counter()
            _, v = np.linalg.eig(a)
            np.linalg.inv(v)
            times.append(time.perf_counter() - start)
    return times


def end_to_end(ops, peak_rss_mb: float) -> tuple[dict, dict]:
    """Op times are wall times less the host's steal while each op ran."""
    walls = [op.wall - op.steal for op in ops]
    tail_s, tail_pct = tail(walls)
    metrics = {
        "op_wall_p50_s": median(walls),
        "op_wall_tail_s": tail_s,
        "ops_per_s": median([op.rows / w for op, w in zip(ops, walls)]),
        "cpu_s_per_op": sum(op.cpu for op in ops) / len(ops),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, {"samples": len(walls), "tail_percentile": tail_pct,
                     "op_wall_raw_p50_s": median([op.wall for op in ops]),
                     "op_walls_raw_s": [round(op.wall, 6) for op in ops],
                     "op_steals_s": [round(op.steal, 3) for op in ops]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--steal-at", type=float, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    root = Path(args.root)
    source = Path(edgesense.cli.__file__).resolve()
    if root.resolve() / "src" not in source.parents:
        raise SystemExit(f"edgesense was imported from {source}, not from {root}/src")

    work = Path(args.work)
    tracer = tracing.Tracer("setup") if args.trace else None
    if tracer is not None:
        tracer.install()
    wl = WORKLOADS[args.workload](root, work, args.seed, args.tiny, tracer)
    wl.setup()
    setup_raw_s = time.monotonic() - args.spawned_at
    setup_s = setup_raw_s - (tracing.steal_s() - args.steal_at)
    result = {"setup_s": setup_s, "setup_raw_s": setup_raw_s,
              "setup_failures": wl.setup_failures}
    if args.mode == "setup":
        Path(args.result).write_text(json.dumps(result))
        return 0

    result["machine"] = machine()
    cold = args.workload == "cli-cold"
    steal0 = tracing.steal_s()
    if tracer is None:
        ops = run_loop(wl, args.seconds, False, 0)
        plain = ops
    else:
        # Half the time untraced, half traced; their p50 ratio is the overhead.
        tracer.uninstall()
        plain = run_loop(wl, args.seconds / 2, False, 0)
        tracer.install()
        tracer.phase = "preflight"
        wl.preflight()
        traced = run_loop(wl, args.seconds / 2, True, len(plain))
        tracer.uninstall()
        ops = plain + traced

    result["steal_per_cpu_s"] = tracing.steal_s() - steal0
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF)
    peak_rss_mb = usage.ru_maxrss / 1024.0
    failures = [f for op in ops for f in op.failures]
    result["attempted"] = len(ops)
    result["failed"] = sum(1 for op in ops if op.failures)
    result["failures"] = failures[:20]
    e2e, samples = end_to_end(plain, peak_rss_mb)
    result["samples"] = samples
    if tracer is None:
        result["metrics"] = e2e
    else:
        floor = eig_floor(tracer.solved or wl.floor_systems())
        traced_p50 = median([op.wall - op.steal for op in traced])
        ratio = traced_p50 / e2e["op_wall_p50_s"]
        result["metrics"] = tracing.layer_metrics(
            [tracer.spans] + wl.cold.spans,
            n_ops=len(traced),
            floor_s=floor,
            overhead_ratio=ratio,
            artifact_bytes_per_op=sum(op.bytes for op in traced) / len(traced),
            import_s=wl.cold.import_s or [IMPORT_S],
            process_overhead_s=wl.cold.overhead_s,
        )
        result["untraced"] = {"op_wall_p50_s": e2e["op_wall_p50_s"], **samples}
        result["traced"] = {"op_wall_p50_s": traced_p50,
                            "samples": len(traced)}
        tracer.dump(work.parent / f"spans-{args.workload}-seed{args.seed}.json",
                    children=wl.cold.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
