"""The three benchmark workloads: what one operation is, and how it is checked.

Every workload is a closed loop with one client: the next operation starts
only when the previous one has finished and been checked.  Checks run
outside the timed region.  See README.md for why each workload exists.

* ``gate-ssh-par2``: ``edgesense sweep-gate --parallel 2`` on blocks of
  the fig1 gate grid, run in-process through ``cli.main``.
* ``kappa-serial``: ``edgesense sweep-kappa`` on fig2 and fig4 sub-grids,
  then ``edgesense fit`` on the fig4 CSV, in-process and serial.
* ``cli-cold``: fresh ``python -m edgesense`` processes, one at a time,
  two per operation (spectrum + steady fig1, steady fig3 + fit).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from edgesense import cli
from edgesense.master_eq import SolverConfig
from tracing import steal_s

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "default_seed.json"
BOOTSTRAP = HERE / "bootstrap.py"

# Thread layout moves results in the 12th digit (1.65734089981e-05 against
# 1.65734089995e-05, a relative 8e-11); a wrong answer moves them by far
# more than 1e-7.  Sweep currents also get an absolute floor of 1e-7 times
# the largest reference current, for rows far from resonance.
REL_TOL = 1e-7
# Relative spread of the cut currents allowed in one steady state.  The
# shipped configs measure at most 4e-9; 1e-13 absolute covers rows whose
# current is itself near roundoff.
CONSERVATION_REL = 1e-6
CONSERVATION_ABS = 1e-13
CHILD_TIMEOUT_S = 60
# The shipped configs set no solver block, so they solve to the default target.
RESIDUAL_TOL = SolverConfig().residual_tol

SUMMARY = {
    "sweep": re.compile(
        r"^sweep-(gate|kappa): (\d+) points, max\|jbar\|=(\S+), residual<=(\S+), wall=(\S+)s -> (.+)$"),
    "fit": re.compile(r"^fit: a=(\S+) c=(\S+) kappa_peak=(\S+) rel_residual=(\S+) wall=(\S+)s$"),
    "steady": re.compile(r"^steady: jbar=(\S+) residual=(\S+) wall=(\S+)s$"),
    "spectrum": re.compile(r"^spectrum: (\d+) levels, (\d+) edge states, wall=(\S+)s -> (.+)$"),
}

# Smaller inputs for the self-check: same code paths, a fraction of the work.
# Rings of 20 sites still put lead levels inside the bias window.
TINY = {
    "ssh": {"lattice": {"L": 10}, "leads": {"M": 20}},
    "rhombic": {"lattice": {"L": 5}, "leads": {"M": 20}},
}


@dataclass
class OpResult:
    wall: float
    cpu: float
    rows: int
    steal: float = 0.0  # per-CPU steal while the op ran (tracing.steal_s)
    bytes: int = 0
    failures: list[str] = field(default_factory=list)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def close(value: float, ref: float, scale: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - ref) <= REL_TOL * (abs(ref) + scale)


def shifted_gate_grid(cfg, seed: int) -> np.ndarray:
    """The shipped gate grid, moved by a seed-drawn fraction of one step."""
    grid = cfg.sweep.materialize()
    if seed == 0:
        return grid
    return grid + (random.Random(seed).random() - 0.5) * cfg.sweep.step


def gate_offset(seed: int, step: float = 0.01) -> float:
    """A sub-step gate offset for single-point commands; 0 for the default seed."""
    return 0.0 if seed == 0 else (random.Random(seed).random() - 0.5) * step


def jittered_kappa_grid(cfg, seed: int, salt: str) -> np.ndarray:
    """The shipped log grid with each point moved by up to a quarter log-step."""
    grid = cfg.sweep.materialize()
    if seed == 0:
        return grid
    lo, hi = cfg.sweep.log_span
    dlog = (math.log10(hi) - math.log10(lo)) / (cfg.sweep.points - 1)
    rng = random.Random(f"{seed}:{salt}")
    return np.array([10 ** (math.log10(k) + 0.25 * dlog * (2 * rng.random() - 1)) for k in grid])


def config_doc(root: Path, name: str, tiny: bool) -> dict:
    doc = json.loads((root / "configs" / f"{name}.json").read_text())
    if tiny:
        for section, values in TINY[doc["lattice"]["kind"]].items():
            doc[section].update(values)
    return doc


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_main(argv: list[str]) -> tuple[int, str, float, float, float, list[str]]:
    """One in-process ``edgesense`` command: exit code, stdout, wall, CPU, steal, errors."""
    buf = io.StringIO()
    errors: list[str] = []
    steal0 = steal_s()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # any crash is a failed operation, not a crashed benchmark
        rc = -1
        errors.append(traceback.format_exc(limit=3))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    return rc, buf.getvalue(), wall, cpu, steal_s() - steal0, errors


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Workload:
    """Base: set-up, one operation, and the traced-run extras."""

    name = ""
    cycle = 1  # operations per complete pass over the inputs

    def __init__(self, root: Path, work: Path, seed: int, tiny: bool, tracer=None):
        self.root = root
        self.work = work
        self.seed = seed
        self.tiny = tiny
        self.tracer = tracer
        self.ref = load_reference() if seed == 0 and not tiny else None
        self.setup_failures: list[str] = []
        self.cold = ColdCli(root, work / "cold", tracer)

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def write_config(self, doc: dict, axis: str, values, name: str) -> Path:
        doc = dict(doc)
        doc["sweep"] = {"axis": axis, "values": [float(v) for v in values]}
        path = self.work / f"{name}.json"
        path.write_text(json.dumps(doc))
        return path

    def check_solve(self, cfg, gate, kappa: float, ref: float | None, what: str,
                    failures: list[str]) -> None:
        """One library solve: residual, current conservation, and the reference."""
        system = cfg.build_system(gate=gate)
        rho, diag = cli.solve_steady_state(system, kappa, cfg.solver)
        profile = cli.current_profile(rho, system)
        if not diag.residual <= cfg.solver.residual_tol:
            failures.append(f"{what}: residual {diag.residual:.3e}")
        if profile.max_deviation > CONSERVATION_REL * abs(profile.mean) + CONSERVATION_ABS:
            failures.append(f"{what}: cut currents spread {profile.max_deviation:.3e} "
                            f"around {profile.mean:.6e}")
        if ref is not None and not close(profile.mean, ref):
            failures.append(f"{what}: current {profile.mean!r} != reference {ref!r}")

    def check_sweep(self, out: Path, stem: str, values, stdout: str, rc: int, tol: float,
                    ref, failures: list[str]) -> None:
        """Exit code, summary line and CSV rows of one in-process sweep command."""
        if rc != 0:
            failures.append(f"{stem}: exit code {rc}")
            return
        lines = [ln for ln in stdout.splitlines() if ln.startswith("sweep-")]
        match = SUMMARY["sweep"].match(lines[-1]) if lines else None
        if match is None or int(match.group(2)) != len(values):
            failures.append(f"{stem}: unexpected summary {stdout!r}")
        table = cli.read_sweep_csv(out / f"{stem}.csv")
        if table.n_rows != len(values):
            failures.append(f"{stem}: {table.n_rows} rows for {len(values)} points")
            return
        if not np.allclose(table.axis_values, values, rtol=1e-11, atol=0):
            failures.append(f"{stem}: axis does not match the requested grid")
        bad = ~((table.extra_columns["converged"] == 1.0)
                & (table.residuals <= tol) & np.isfinite(table.current))
        if bad.any():
            failures.append(f"{stem}: {int(bad.sum())} rows unconverged or above tolerance")
        if ref is not None:
            ref = np.asarray(ref)
            scale = float(np.abs(ref).max()) if ref.size else 0.0
            off = [i for i, (j, r) in enumerate(zip(table.current, ref)) if not close(j, r, scale)]
            if off:
                i = off[0]
                failures.append(f"{stem}: {len(off)} currents off reference, "
                                f"row {i}: {table.current[i]!r} != {ref[i]!r}")

    # --- hooks -------------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def op(self, k: int, traced: bool) -> OpResult:
        raise NotImplementedError

    def preflight(self) -> None:
        """Traced runs only: call the layers this workload's loop never calls."""

    def floor_systems(self) -> list[tuple]:
        """(system, kappa) pairs for the eig+inv floor when spans hold none."""
        return []


class GateSweep(Workload):
    """``sweep-gate --parallel 2`` on cyclic blocks of the 241-point fig1 grid."""

    name = "gate-ssh-par2"
    parallel = 2

    def setup(self) -> None:
        self.doc = config_doc(self.root, "fig1", self.tiny)
        self.cfg = cli.parse_config_dict(self.doc)
        self.grid = shifted_gate_grid(self.cfg, self.seed)
        self.block = 4 if self.tiny else 10
        # The config's own point, unshifted, against the reference on every seed.
        ref = None if self.tiny else load_reference()["fig1_jbar"]
        self.check_solve(self.cfg, None, self.cfg.decoherence, ref, "set-up fig1",
                         self.setup_failures)

    def op(self, k: int, traced: bool) -> OpResult:
        n = self.grid.size
        idx = [(k * self.block + j) % n for j in range(self.block)]
        values = self.grid[idx]
        path = self.write_config(self.doc, "delta", values, "gate_block")
        out = fresh_dir(self.work / "out")
        self.phase("op")
        rc, stdout, wall, cpu, steal, failures = run_main(
            ["sweep-gate", "--config", str(path), "--parallel", str(self.parallel),
             "--out", str(out)])
        self.phase("check")
        ref = None if self.ref is None else [self.ref["gate_fig1"][i] for i in idx]
        self.check_sweep(out, "sweep_gate", values, stdout, rc,
                         self.cfg.solver.residual_tol, ref, failures)
        row = k % self.block
        self.check_solve(self.cfg, float(values[row]), self.cfg.decoherence, None,
                         f"gate {values[row]:.6g}", failures)
        return OpResult(wall, cpu, rows=len(values), steal=steal, bytes=dir_bytes(out),
                        failures=failures)

    def preflight(self) -> None:
        config = self.write_config(self.doc, "delta", self.grid[:2], "preflight")
        for args in (["spectrum", "--config", str(config)],
                     ["steady", "--config", str(config)],
                     ["fit", str(HERE / "reference" / "fig4_sweep_kappa.csv")]):
            self.cold.run(args, "preflight", [])


class KappaPipeline(Workload):
    """Serial ``sweep-kappa`` on fig2 and fig4 sub-grids, then ``fit`` on fig4."""

    name = "kappa-serial"
    stride = 5  # op k takes every 5th kappa point starting at k % 5: 6 of 30

    def setup(self) -> None:
        self.docs = {name: config_doc(self.root, name, self.tiny) for name in ("fig2", "fig4")}
        self.cfgs = {name: cli.parse_config_dict(doc) for name, doc in self.docs.items()}
        self.grids = {name: jittered_kappa_grid(cfg, self.seed, name)
                      for name, cfg in self.cfgs.items()}
        ref = None if self.tiny else load_reference()["kappa_fig2"][0]
        fig2 = self.cfgs["fig2"]
        self.check_solve(fig2, None, float(fig2.sweep.materialize()[0]), ref, "set-up fig2",
                         self.setup_failures)

    def op(self, k: int, traced: bool) -> OpResult:
        part = k % self.stride
        outs, paths, values = {}, {}, {}
        for name in ("fig2", "fig4"):
            values[name] = self.grids[name][part::self.stride]
            paths[name] = self.write_config(self.docs[name], "kappa", values[name], name)
            outs[name] = fresh_dir(self.work / "out" / name)
        commands = [["sweep-kappa", "--config", str(paths[name]), "--parallel", "1",
                     "--out", str(outs[name])] for name in ("fig2", "fig4")]
        commands.append(["fit", str(outs["fig4"] / "sweep_kappa.csv"), "--out", str(outs["fig4"])])
        wall = cpu = steal = 0.0
        results = []
        self.phase("op")
        for argv in commands:
            rc, stdout, w, c, s, errors = run_main(argv)
            wall += w
            cpu += c
            steal += s
            results.append((rc, stdout, errors))
        self.phase("check")
        failures = [e for _, _, errors in results for e in errors]
        for (rc, stdout, _), name in zip(results, ("fig2", "fig4")):
            ref = None
            if self.ref is not None:
                ref = self.ref[f"kappa_{name}"][part::self.stride]
            self.check_sweep(outs[name], "sweep_kappa", values[name], stdout, rc,
                             self.cfgs[name].solver.residual_tol, ref, failures)
        rc, stdout, _ = results[2]
        check_fit(outs["fig4"], rc, stdout, failures,
                  None if self.ref is None else self.ref["fit_fig4_stride5"][part])
        name = ("fig2", "fig4")[k % 2]
        kappa = float(values[name][(k // 2) % len(values[name])])
        self.check_solve(self.cfgs[name], None, kappa, None, f"{name} kappa {kappa:.6g}", failures)
        rows = len(values["fig2"]) + len(values["fig4"])
        return OpResult(wall, cpu, rows=rows, steal=steal, bytes=dir_bytes(self.work / "out"),
                        failures=failures)

    def preflight(self) -> None:
        config = self.write_config(self.docs["fig4"], "kappa", self.grids["fig4"][:2], "preflight")
        for args in (["spectrum", "--config", str(config)], ["steady", "--config", str(config)]):
            self.cold.run(args, "preflight", [])


def check_fit(out: Path, rc: int, stdout: str, failures: list[str], ref=None) -> None:
    """Exit code, summary line and parameters of one ``fit``; ref is [a, c] or None."""
    if rc != 0:
        failures.append(f"fit: exit code {rc}")
        return
    if not SUMMARY["fit"].match(stdout.strip().splitlines()[-1] if stdout.strip() else ""):
        failures.append(f"fit: unexpected summary {stdout!r}")
    fit = json.loads((out / "esaki_tsu_fit.json").read_text())
    if not (fit["a"] > 0 and fit["c"] > 0 and math.isfinite(fit["relative_residual"])):
        failures.append(f"fit: implausible parameters {fit}")
    if ref is not None and not (close(fit["a"], ref[0]) and close(fit["c"], ref[1])):
        failures.append(f"fit: a={fit['a']!r} c={fit['c']!r} != reference {ref}")


class ColdCli:
    """Runs one fresh ``python -m edgesense`` process, traced or not.

    A traced child starts through ``bootstrap.py``, which installs the span
    wrappers before calling ``cli.main`` and writes its spans to a file;
    ``spans`` keeps one span list per traced child.
    """

    def __init__(self, root: Path, work: Path, tracer):
        self.root = root
        self.work = work
        self.tracer = tracer
        self.spans: list[list] = []
        self.import_s: list[float] = []
        self.overhead_s: list[float] = []

    def run(self, args: list[str], phase: str, failures: list[str]):
        """Run one command; returns (exit code, stdout, out dir, wall, CPU, steal)."""
        out = fresh_dir(self.work)
        traced = self.tracer is not None and phase != "untraced"
        span_file = self.work.with_name("child_spans.json")
        if traced:
            cmd = [sys.executable, str(BOOTSTRAP), "--spans", str(span_file),
                   "--phase", phase, "--", *args, "--out", str(out)]
        else:
            cmd = [sys.executable, "-m", "edgesense", *args, "--out", str(out)]
        steal0 = steal_s()
        cpu0 = children_cpu()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures.append(f"{args[0]}: no exit within {CHILD_TIMEOUT_S} s")
            return (-1, "", out, time.perf_counter() - t0, children_cpu() - cpu0,
                    steal_s() - steal0)
        wall = time.perf_counter() - t0
        cpu = children_cpu() - cpu0
        steal = steal_s() - steal0
        if proc.returncode != 0:
            failures.append(f"{args[0]}: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if traced and span_file.exists():
            data = json.loads(span_file.read_text())
            span_file.unlink()
            self.spans.append(data["spans"])
            self.import_s.append(data["import_s"])
            mains = [s for s in data["spans"] if s[2] == "cli.main"]
            if mains:
                self.overhead_s.append(wall - (mains[0][4] - mains[0][3]))
        return proc.returncode, proc.stdout, out, wall, cpu, steal


class ColdCommands(Workload):
    """Fresh CLI processes, two per op: spectrum + steady on fig1, then steady fig3 + fit.

    Alone, the cheap commands (spectrum, fit) take about 0.33 s and the
    steady ones about 0.55 s, so a median over single processes would sit
    on the gap between the two groups and jump with any shift in either.
    Each pair holds one of each and takes about 0.9 s.
    """

    name = "cli-cold"
    cycle = 2

    def setup(self) -> None:
        ref = None if self.tiny else load_reference()
        fig1 = cli.parse_config_dict(config_doc(self.root, "fig1", self.tiny))
        self.check_solve(fig1, None, fig1.decoherence, ref and ref["fig1_jbar"], "set-up fig1",
                         self.setup_failures)
        # The fit input: a 10-point fig4 decoherence sweep, written as CSV.
        fig4 = cli.parse_config_dict(config_doc(self.root, "fig4", self.tiny))
        kappas = jittered_kappa_grid(fig4, self.seed, "fig4")[::3]
        table = cli.sweep_decoherence(fig4, kappas)
        self.fit_input = self.work / "fit_input.csv"
        cli.write_sweep_csv(table, self.fit_input)
        if self.ref is not None:
            want = self.ref["kappa_fig4"][::3]
            scale = max(abs(x) for x in want)
            if not all(close(j, r, scale) for j, r in zip(table.current, want)):
                self.setup_failures.append("set-up fig4 sweep: currents off reference")

        self.offset = gate_offset(self.seed)
        self.overrides = {}
        for name in ("fig1", "fig3"):
            extra = []
            if self.tiny:
                kind = "ssh" if name == "fig1" else "rhombic"
                extra = [f"{sec}.{key}={val}" for sec, vals in TINY[kind].items()
                         for key, val in vals.items()]
            if self.offset:
                extra.append(f"lattice.delta={self.offset!r}")
            self.overrides[name] = [a for item in extra for a in ("--override", item)]
        self.pairs = [
            (["spectrum", "--config", "configs/fig1.json", *self.overrides["fig1"]],
             ["steady", "--config", "configs/fig1.json", *self.overrides["fig1"]]),
            (["steady", "--config", "configs/fig3.json", *self.overrides["fig3"]],
             ["fit", str(self.fit_input)]),
        ]

    def op(self, k: int, traced: bool) -> OpResult:
        result = OpResult(0.0, 0.0, rows=2)
        for args in self.pairs[k % self.cycle]:
            rc, stdout, out, wall, cpu, steal = self.cold.run(
                args, "op" if traced else "untraced", result.failures)
            result.wall += wall
            result.cpu += cpu
            result.steal += steal
            result.bytes += dir_bytes(out)
            if rc == 0:
                check = {"spectrum": self.check_spectrum, "steady": self.check_steady,
                         "fit": self.check_fit}[args[0]]
                check(args, out, stdout, result.failures)
        return result

    def check_spectrum(self, args, out: Path, stdout: str, failures: list[str]) -> None:
        match = SUMMARY["spectrum"].match(stdout.strip())
        rows = out.joinpath("spectrum.csv").read_text().splitlines()[2:]
        energies = np.array([float(r.split(",")[1]) for r in rows])
        edges = sorted(r.split(",")[2] for r in rows if r.split(",")[2])
        if match is None or int(match.group(1)) != energies.size:
            failures.append(f"spectrum: unexpected summary {stdout!r}")
        if self.tiny:
            return
        ref = load_reference()["spectrum_fig1"]
        # A uniform gate moves every level by exactly the gate offset.
        if not np.allclose(energies - self.offset, ref["energies"], rtol=0, atol=1e-9):
            failures.append("spectrum: levels off reference")
        if edges != sorted(e for e in ref["edge"] if e):
            failures.append(f"spectrum: edge flags {edges} off reference")

    def check_steady(self, args, out: Path, stdout: str, failures: list[str]) -> None:
        if SUMMARY["steady"].match(stdout.strip()) is None:
            failures.append(f"steady: unexpected summary {stdout!r}")
        payload = json.loads(out.joinpath("steady_state.json").read_text())
        data, diag = payload["data"], payload["diagnostics"]
        jbar = data["jbar"]
        if not diag["residual"] <= RESIDUAL_TOL:
            failures.append(f"steady: residual {diag['residual']:.3e}")
        if data["max_deviation"] > CONSERVATION_REL * abs(jbar) + CONSERVATION_ABS:
            failures.append(f"steady: cut currents spread {data['max_deviation']:.3e}")
        if self.ref is not None:
            name = Path(args[2]).stem
            if not close(jbar, self.ref[f"{name}_jbar"]):
                failures.append(f"steady {name}: jbar {jbar!r} != {self.ref[f'{name}_jbar']!r}")

    def check_fit(self, args, out: Path, stdout: str, failures: list[str]) -> None:
        check_fit(out, 0, stdout, failures,
                  None if self.ref is None else self.ref["fit_fig4_stride3"])

    def floor_systems(self) -> list[tuple]:
        systems = []
        for name in ("fig1", "fig3"):
            cfg = cli.parse_config_dict(config_doc(self.root, name, self.tiny))
            systems.append((cfg.build_system(gate=cfg.lattice.delta + self.offset),
                            cfg.decoherence))
        return systems


WORKLOADS = {cls.name: cls for cls in (GateSweep, KappaPipeline, ColdCommands)}
