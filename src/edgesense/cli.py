"""Command line front end: parse a config, run one command, write artifacts.

Commands map one-to-one onto library calls; all heavy lifting stays in the
library so results are identical whether driven from here or from Python.
Exit codes: 0 success, 1 bad config or fit failure, 2 solver did not
converge, 3 I/O failure.  Errors go to stderr as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, apply_overrides, parse_config_dict
from .experiments import (
    EsakiTsuFitError,
    _fmt,
    _one_blas_thread,
    fit_esaki_tsu,
    read_sweep_csv,
    sweep_decoherence,
    sweep_gate,
    write_artifact_csv,
    write_sweep_csv,
)
from .lattice import classify_edge_states, spectrum
from .master_eq import SolverError, solve_steady_state, spdm_to_json
from .observables import current_profile, site_populations

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SOLVER = 2
EXIT_IO = 3


def _emit_error(kind: str, message: str, **detail: object) -> None:
    payload: dict[str, object] = {"error": kind, "message": message}
    if detail:
        payload["detail"] = detail
    print(json.dumps(payload), file=sys.stderr)


def _load_config(args: argparse.Namespace) -> RunConfig:
    text = Path(args.config).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"not valid JSON: {err}") from err
    raw = apply_overrides(raw, args.override or [])
    return parse_config_dict(raw, allow_reverse_bias=args.allow_reverse_bias)


def _out_dir(args: argparse.Namespace, cfg: RunConfig | None) -> Path:
    path = args.out or (cfg.output.path if cfg is not None else ".")
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parallel(args: argparse.Namespace) -> int:
    if args.parallel is not None:
        return max(1, args.parallel)
    env = os.environ.get("EDGESENSE_THREADS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def _gap_intervals(cfg: RunConfig) -> list[tuple[float, float]]:
    """Band-gap intervals from the closed-form dispersion, gate shift included.

    The zero-energy flat band of the rhombic chain is excluded by a small
    pad so its (bulk) states are never mistaken for in-gap ones.
    """
    lat = cfg.lattice
    pad = 1e-6
    d = lat.delta
    if lat.kind == "ssh":
        inner = 0.5 * abs(lat.J - lat.J_tilde)
        return [(d - inner + pad, d + inner - pad)]
    inner = lat.J_abs * math.sqrt(max(0.0, 1.0 - abs(math.cos(0.5 * lat.phi))))
    return [(d + pad, d + inner - pad), (d - inner + pad, d - pad)]


def _cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    t0 = time.perf_counter()
    lat = cfg.build_lattice()
    energies, states = spectrum(lat)
    reports = []
    for gap in _gap_intervals(cfg):
        if gap[0] < gap[1]:
            # short chains cannot host the default 4-site end window
            reports += classify_edge_states(
                energies, states, gap, end_sites=min(4, lat.n_sites // 2)
            )
    side = {r.eigen_index: r.side for r in reports}

    rows = ((i, e, side.get(i, "")) for i, e in enumerate(energies))
    write_artifact_csv(out / "spectrum.csv", cfg.fingerprint(), ["index", "energy", "edge"], rows)

    wall = time.perf_counter() - t0
    print(
        f"spectrum: {energies.size} levels, {len(reports)} edge states, "
        f"wall={wall:.3f}s -> {out / 'spectrum.csv'}"
    )
    return EXIT_OK


def _cmd_steady(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    t0 = time.perf_counter()
    with _one_blas_thread():
        system = cfg.build_system()
        rho, diag = solve_steady_state(system, cfg.decoherence, cfg.solver)
        profile = current_profile(rho, system)
        pops = site_populations(rho, system)
    wall = time.perf_counter() - t0
    fingerprint = cfg.fingerprint()

    payload = {
        "fingerprint": fingerprint,
        "data": {
            "jbar": profile.mean,
            "max_deviation": profile.max_deviation,
            "populations": [float(p) for p in pops],
            "spdm": json.loads(spdm_to_json(rho)),
        },
        "diagnostics": {
            "method": diag.method.value,
            "iterations": diag.iterations,
            "residual": diag.residual,
            "wall_time": wall,
            "warnings": diag.warnings,
        },
    }
    (out / "steady_state.json").write_text(json.dumps(payload, sort_keys=True))

    cuts = zip(profile.cut_labels, profile.currents)
    write_artifact_csv(out / "profile.csv", fingerprint, ["cut", "current"], cuts)
    sites = enumerate(pops)
    write_artifact_csv(out / "populations.csv", fingerprint, ["site", "population"], sites)

    print(f"steady: jbar={_fmt(profile.mean)} residual={diag.residual:.3e} wall={wall:.3f}s")
    return EXIT_OK


def _sweep_values(cfg: RunConfig, expected_axis: str, command: str) -> np.ndarray:
    if cfg.sweep is None:
        raise ConfigError(f"sweep: {command} needs a sweep section")
    if cfg.sweep.axis != expected_axis:
        raise ConfigError(f"sweep.axis: {command} expects '{expected_axis}'")
    values = cfg.sweep.materialize()
    if expected_axis == "kappa" and values.min() < 0:
        raise ConfigError(f"sweep: kappa values must be non-negative, got {_fmt(values.min())}")
    return values


def _run_sweep_command(args: argparse.Namespace, axis: str, command: str) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    values = _sweep_values(cfg, axis, command)
    t0 = time.perf_counter()
    if axis == "delta":
        table = sweep_gate(cfg, values, parallel=_parallel(args))
    else:
        table = sweep_decoherence(cfg, values, parallel=_parallel(args))
    wall = time.perf_counter() - t0

    target = out / f"{command.replace('-', '_')}.csv"
    write_sweep_csv(table, target)
    done = table.extra_columns["converged"]
    n_ok = int(done.sum())
    if n_ok == 0:
        _emit_error("solver", f"no sweep row converged ({table.n_rows} attempted)")
        return EXIT_SOLVER
    jmax = float(np.nanmax(np.abs(table.current)))
    note = "" if n_ok == table.n_rows else f" ({table.n_rows - n_ok} rows failed)"
    print(
        f"{command}: {table.n_rows} points, max|jbar|={_fmt(jmax)}, "
        f"residual<={np.nanmax(table.residuals):.3e}, wall={wall:.3f}s{note} -> {target}"
    )
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    table = read_sweep_csv(args.table)
    try:
        fit = fit_esaki_tsu(table)
    except EsakiTsuFitError as err:
        _emit_error(
            "fit",
            str(err),
            grid_best={"a": err.best.a, "c": err.best.c,
                       "relative_residual": err.best.relative_residual},
        )
        return EXIT_ERROR
    wall = time.perf_counter() - t0

    payload = {
        "fingerprint": table.config_fingerprint,
        "a": fit.a,
        "c": fit.c,
        "kappa_peak": fit.kappa_peak,
        "relative_residual": fit.relative_residual,
    }
    (out / "esaki_tsu_fit.json").write_text(json.dumps(payload, sort_keys=True))
    print(
        f"fit: a={_fmt(fit.a)} c={_fmt(fit.c)} kappa_peak={_fmt(fit.kappa_peak)} "
        f"rel_residual={fit.relative_residual:.4f} wall={wall:.3f}s"
    )
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, *, config_required: bool) -> None:
    if config_required:
        parser.add_argument("--config", required=True, help="path to a run config JSON")
        parser.add_argument(
            "--override",
            action="append",
            metavar="KEY=VALUE",
            help="override a config entry by dotted path, repeatable",
        )
        parser.add_argument(
            "--allow-reverse-bias",
            action="store_true",
            help="accept configs with mu_L < mu_R",
        )
    parser.add_argument("--out", help="output directory (default: config output.path)")
    parser.add_argument(
        "--parallel",
        type=int,
        help="concurrent solves for sweeps (default: EDGESENSE_THREADS or 1)",
    )


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValueError, so main emits it as an input error."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="edgesense",
        description="Steady-state transport through finite lattices with edge states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues and edge-state flags")
    _add_common(p, config_required=True)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("steady", help="single steady-state solve")
    _add_common(p, config_required=True)
    p.set_defaults(handler=_cmd_steady)

    p = sub.add_parser("sweep-gate", help="current versus gate offset")
    _add_common(p, config_required=True)
    p.set_defaults(handler=lambda a: _run_sweep_command(a, "delta", "sweep-gate"))

    p = sub.add_parser("sweep-kappa", help="current versus decoherence rate")
    _add_common(p, config_required=True)
    p.set_defaults(handler=lambda a: _run_sweep_command(a, "kappa", "sweep-kappa"))

    p = sub.add_parser("fit", help="rate-law fit of a decoherence sweep CSV")
    p.add_argument("table", help="sweep CSV produced by sweep-kappa")
    _add_common(p, config_required=False)
    p.set_defaults(handler=_cmd_fit)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except ConfigError as err:
        _emit_error("config", str(err))
        return EXIT_ERROR
    except SolverError as err:
        detail = {}
        if err.diagnostics is not None:
            detail = {"residual": err.diagnostics.residual,
                      "iterations": err.diagnostics.iterations}
        _emit_error("solver", str(err), **detail)
        return EXIT_SOLVER
    except OSError as err:
        _emit_error("io", str(err))
        return EXIT_IO
    except ValueError as err:
        _emit_error("input", str(err))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
