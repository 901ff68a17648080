"""Regenerate the reference values the benchmark checks outputs against.

Usage, from the root of an edgesense checkout:

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes perfbench/reference/default_seed.json (currents, levels and fit
parameters on the shipped grids, i.e. seed 0) and
perfbench/reference/fig4_sweep_kappa.csv (the full fig4 decoherence sweep,
the ``fit`` input of the traced gate run's preflight).  Run it only when a
change to edgesense is meant to change these numbers, and say so.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from edgesense import cli
from edgesense.config import parse_config

from workloads import KappaPipeline

HERE = Path(__file__).resolve().parent


def load(name: str):
    return parse_config((Path("configs") / f"{name}.json").read_text())


def fit_of(table, tmp: Path) -> list[float]:
    """Fit through the CSV round trip, as the ``fit`` command sees the data."""
    path = tmp / "table.csv"
    cli.write_sweep_csv(table, path)
    fit = cli.fit_esaki_tsu(cli.read_sweep_csv(path))
    return [fit.a, fit.c]


def solve_jbar(cfg) -> float:
    system = cfg.build_system()
    rho, _ = cli.solve_steady_state(system, cfg.decoherence, cfg.solver)
    return cli.current_profile(rho, system).mean


def main() -> None:
    fig1, fig2, fig3, fig4 = (load(f"fig{i}") for i in range(1, 5))
    ref: dict = {"fig1_jbar": solve_jbar(fig1), "fig3_jbar": solve_jbar(fig3)}
    ref["gate_fig1"] = cli.sweep_gate(fig1, fig1.sweep.materialize()).current.tolist()
    ref["kappa_fig2"] = cli.sweep_decoherence(fig2, fig2.sweep.materialize()).current.tolist()
    kappas = fig4.sweep.materialize()
    full = cli.sweep_decoherence(fig4, kappas)
    ref["kappa_fig4"] = full.current.tolist()
    stride = KappaPipeline.stride
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ref["fit_fig4_stride5"] = [
            fit_of(cli.sweep_decoherence(fig4, kappas[part::stride]), tmp)
            for part in range(stride)
        ]
        ref["fit_fig4_stride3"] = fit_of(cli.sweep_decoherence(fig4, kappas[::3]), tmp)
        cli.main(["spectrum", "--config", "configs/fig1.json", "--out", str(tmp)])
        rows = [r.split(",") for r in (tmp / "spectrum.csv").read_text().splitlines()[2:]]
    ref["spectrum_fig1"] = {"energies": [float(r[1]) for r in rows], "edge": [r[2] for r in rows]}
    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    (out / "default_seed.json").write_text(json.dumps(ref, indent=1) + "\n")
    cli.write_sweep_csv(full, out / "fig4_sweep_kappa.csv")


if __name__ == "__main__":
    main()
