"""Spans around the calls into each edgesense layer, and what they add up to.

Tracing is done from outside the package: ``install`` replaces the names
that ``edgesense.config``, ``edgesense.experiments`` and ``edgesense.cli``
import (``solve_steady_state``, ``assemble_composite``, ``build_ssh``, ...)
with wrappers that record a span per call, and ``uninstall`` puts the
originals back.  Spans stay in memory and are written once, when a run
ends.  This module imports nothing from numpy or edgesense at import time,
so that a traced CLI child can still time a cold ``import edgesense``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import threading
import time

LAYERS = ("config", "lattice", "leads", "master_eq", "observables", "experiments", "cli")

# (module, attribute, span name).  A span's layer is the part of its name
# before the dot.  One wrapper serves every module that imports the same
# function, so a call is recorded once whichever module made it.
TARGETS = (
    ("edgesense.cli", "parse_config_dict", "config.parse"),
    ("edgesense.cli", "apply_overrides", "config.overrides"),
    ("edgesense.config", "build_ssh", "lattice.build"),
    ("edgesense.config", "build_rhombic", "lattice.build"),
    ("edgesense.cli", "spectrum", "lattice.spectrum"),
    ("edgesense.cli", "classify_edge_states", "lattice.classify"),
    ("edgesense.config", "assemble_composite", "leads.assemble"),
    ("edgesense.experiments", "solve_steady_state", "master_eq.solve"),
    ("edgesense.cli", "solve_steady_state", "master_eq.solve"),
    ("edgesense.cli", "spdm_to_json", "master_eq.spdm_to_json"),
    ("edgesense.experiments", "current_profile", "observables.profile"),
    ("edgesense.cli", "current_profile", "observables.profile"),
    ("edgesense.experiments", "site_populations", "observables.populations"),
    ("edgesense.cli", "site_populations", "observables.populations"),
    ("edgesense.experiments", "edge_imbalance", "observables.imbalance"),
    ("edgesense.experiments", "population_gradient", "observables.gradient"),
    ("edgesense.cli", "sweep_gate", "experiments.sweep"),
    ("edgesense.cli", "sweep_decoherence", "experiments.sweep"),
    ("edgesense.cli", "write_sweep_csv", "experiments.csv_write"),
    ("edgesense.cli", "read_sweep_csv", "experiments.csv_read"),
    ("edgesense.cli", "fit_esaki_tsu", "experiments.fit"),
    ("edgesense.cli", "main", "cli.main"),
)

# Every workload solves at most this many distinct systems worth timing
# against the eig+inv floor; keeping references to more only costs memory.
FLOOR_SAMPLES = 6


def _solve_attrs(tracer, args, kwargs, out):
    _, diag = out
    if tracer.phase == "op" and len(tracer.solved) < FLOOR_SAMPLES:
        kappa = args[1] if len(args) > 1 else kwargs["kappa"]
        tracer.solved.append((args[0], float(kappa)))
    dark = any("degenerate" in note for note in diag.warnings)
    return {"iters": diag.iterations, "residual": diag.residual, "dark": dark}


def _profile_attrs(tracer, args, kwargs, out):
    rel = out.max_deviation / abs(out.mean) if out.mean else math.inf
    return {"rel": rel}


def _sweep_attrs(tracer, args, kwargs, out):
    return {"workers": max(1, min(int(kwargs.get("parallel", 1)), out.n_rows))}


ATTRS = {
    "master_eq.solve": _solve_attrs,
    "observables.profile": _profile_attrs,
    "experiments.sweep": _sweep_attrs,
}


class Tracer:
    """In-memory span recorder; one per process.

    A span is (id, parent, name, start, end, thread, phase, attrs).  Spans
    opened on a thread with nothing open yet, such as a sweep's pool
    workers, take the innermost span open on the thread that made the
    tracer as their parent: with one client driving the program, that is
    the sweep which started the pool.
    """

    def __init__(self, phase: str = "setup"):
        self.phase = phase
        self.spans: list[tuple] = []
        self.solved: list[tuple] = []
        self._ids = itertools.count(1)
        self._root_thread = threading.get_ident()
        self._root_stack: list[int] = []
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._root_stack[-1] if self._root_stack else 0
            sid = next(self._ids)
            phase = self.phase
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, threading.get_ident(),
                                   phase, {"error": type(err).__name__}))
                raise
            end = time.perf_counter()
            stack.pop()
            attrs = attrs_of(self, args, kwargs, out) if attrs_of else None
            self.spans.append((sid, parent, name, start, end, threading.get_ident(), phase, attrs))
            return out

        return traced

    def install(self) -> None:
        """Swap every target (and RunConfig.fingerprint) for a traced wrapper."""
        if self._patched:
            return
        wrappers: dict[int, object] = {}
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = self.wrap(name, original)
            self._patched.append((module, attr, original))
            setattr(module, attr, wrappers[id(original)])
        run_config = importlib.import_module("edgesense.config").RunConfig
        original = run_config.__dict__["fingerprint"]
        self._patched.append((run_config, "fingerprint", original))
        run_config.fingerprint = self.wrap("config.fingerprint", original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _, start, end, *_ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, start, end, *_ in spans:
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = (end - start) - covered
    return out


def steal_s() -> float:
    """CPU time the hypervisor has given to other guests so far, per usable CPU.

    The mean over the CPUs this process may run on of the ``steal`` column
    of ``/proc/stat`` (Linux), in seconds; 0.0 where that is not available.
    A closed loop that keeps these CPUs busy is held up by about this much
    more wall time than it would be on its own host.
    """
    try:
        cpus = {f"cpu{n}" for n in os.sched_getaffinity(0)}
        with open("/proc/stat") as fh:
            ticks = [int(line.split()[8]) for line in fh if line.split(" ", 1)[0] in cpus]
        return sum(ticks) / len(ticks) / os.sysconf("SC_CLK_TCK")
    except (OSError, AttributeError, IndexError, ValueError, ZeroDivisionError):
        return 0.0


def median(values) -> float:
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        return math.nan
    mid = n // 2
    return vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])


def layer_metrics(processes, n_ops: int, floor_s: list[float], overhead_ratio: float,
                  artifact_bytes_per_op: float, import_s: list[float],
                  process_overhead_s: list[float]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run.

    ``processes`` is a list of span lists, one per process (the measuring
    process, then each traced CLI child), since span ids and parents only
    mean something within one process.  Per-call times are medians over
    the calls made by timed operations; a layer the operations never call
    falls back to its calls in set-up and preflight, so every metric is
    measured on every workload.  Counts and self times are per operation
    and come from timed operations only.
    """
    every: dict[str, list[float]] = {}
    in_ops: dict[str, list[float]] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    counts = {"leads.assemble": 0, "master_eq.solve": 0}
    inner = dark = 0
    residual_max = rel_max = 0.0
    for spans in processes:
        selfs = self_times(spans)
        child_time: dict[int, float] = {}
        for sid, parent, name, start, end, *_ in spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for sid, parent, name, start, end, _, phase, attrs in spans:
            samples = {name: end - start, name + ".self": selfs[sid]}
            if name == "experiments.sweep" and attrs and "workers" in attrs:
                samples["experiments.busy"] = child_time.get(sid, 0.0) / (
                    attrs["workers"] * (end - start))
            for key, value in samples.items():
                every.setdefault(key, []).append(value)
                if phase == "op":
                    in_ops.setdefault(key, []).append(value)
            if phase != "op":
                continue
            layer_self[name.split(".", 1)[0]] += selfs[sid]
            if name in counts:
                counts[name] += 1
            if attrs and "error" not in attrs:
                if name == "master_eq.solve":
                    inner += attrs["iters"]
                    dark += bool(attrs["dark"])
                    residual_max = max(residual_max, attrs["residual"])
                elif name == "observables.profile":
                    rel_max = max(rel_max, attrs["rel"])

    def p50(key):
        return median(in_ops.get(key) or every.get(key) or [])

    ops = max(n_ops, 1)
    solve_s = p50("master_eq.solve")
    floor = median(floor_s)
    out = {
        "config.parse_s": p50("config.parse"),
        "config.fingerprint_s": p50("config.fingerprint"),
        "lattice.build_s": p50("lattice.build"),
        "lattice.spectrum_s": p50("lattice.spectrum"),
        "lattice.classify_s": p50("lattice.classify"),
        "leads.assemble_s": p50("leads.assemble"),
        "leads.assemble_calls": counts["leads.assemble"] / ops,
        "master_eq.solve_s": solve_s,
        "master_eq.solve_calls": counts["master_eq.solve"] / ops,
        "master_eq.inner_solves": inner / ops,
        "master_eq.dark_pair_warnings": dark / ops,
        "master_eq.eig_floor_s": floor,
        "master_eq.above_floor_ratio": solve_s / floor if floor > 0 else math.nan,
        "master_eq.residual_max": residual_max,
        "master_eq.conservation_rel_max": rel_max,
        "master_eq.spdm_to_json_s": p50("master_eq.spdm_to_json"),
        "observables.profile_s": p50("observables.profile"),
        "observables.populations_s": p50("observables.populations"),
        "experiments.sweep_s": p50("experiments.sweep"),
        "experiments.sweep_self_s": p50("experiments.sweep.self"),
        "experiments.worker_busy_frac": p50("experiments.busy"),
        "experiments.csv_write_s": p50("experiments.csv_write"),
        "experiments.csv_read_s": p50("experiments.csv_read"),
        "experiments.fit_s": p50("experiments.fit"),
        "cli.import_s": median(import_s),
        "cli.main_self_s": p50("cli.main.self"),
        "cli.process_overhead_s": median(process_overhead_s),
        "cli.artifact_bytes": artifact_bytes_per_op,
        "trace.overhead_ratio": overhead_ratio,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / ops
    return out
