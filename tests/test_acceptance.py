"""End-to-end checks of the headline physics claims, one test per claim.

Each test pins a production configuration (the shipped configs/ files) and
asserts the structural behavior it is expected to show, at fixed tolerances.
Shared sweeps are computed once per session in module fixtures.
"""

import dataclasses
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from edgesense.config import parse_config
from edgesense.experiments import (
    conduction_window,
    fit_esaki_tsu,
    peak_metrics,
    sweep_decoherence,
    sweep_gate,
)
from edgesense.lattice import (
    build_custom,
    build_rhombic,
    build_ssh,
    classify_edge_states,
    spectrum,
)
from edgesense.leads import RingLead, assemble_composite
from edgesense.master_eq import (
    DegenerateSteadyStateWarning,
    apply_liouvillian,
    solve_steady_state,
)
from edgesense.observables import (
    current_profile,
    edge_imbalance,
    population_gradient,
    site_populations,
)

from oracle import full_linear_solve

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
MU = math.pi / 40
GAMMA = 0.05
KAPPA_LADDER = (0.0005, 0.001, 0.002, 0.003)


def load(name):
    return parse_config((CONFIGS / name).read_text())


def quiet_solve(system, kappa, cfg=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSteadyStateWarning)
        return solve_steady_state(system, kappa, cfg)


def row_at(table, x):
    return float(table.current[np.isclose(table.axis_values, x, atol=1e-9)][0])


@pytest.fixture(scope="module")
def fig1_cfg():
    return load("fig1.json")


@pytest.fixture(scope="module")
def fig2_cfg():
    return load("fig2.json")


@pytest.fixture(scope="module")
def fig3_cfg():
    return load("fig3.json")


@pytest.fixture(scope="module")
def fig4_cfg():
    return load("fig4.json")


@pytest.fixture(scope="module")
def gate_sweep_k0(fig1_cfg):
    """241-point gate sweep of the coherent chain, with its wall time."""
    grid = fig1_cfg.sweep.materialize()
    t0 = time.perf_counter()
    table = sweep_gate(fig1_cfg, grid, kappa=0.0, parallel=8)
    return table, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ingap_sweeps(fig1_cfg):
    """Fine gate sweeps across the conduction window at each kappa rung."""
    grid = np.linspace(-0.14, 0.14, 29)
    return {
        kappa: sweep_gate(fig1_cfg, grid, kappa=kappa, parallel=8)
        for kappa in KAPPA_LADDER
    }


def test_criterion_01_ssh_spectrum_and_edge_pair(fig1_cfg):
    t0 = time.perf_counter()
    lat = fig1_cfg.build_lattice()
    energies, states = spectrum(lat)
    in_gap = np.abs(energies) < 0.05
    reports = classify_edge_states(
        energies, states, (-0.2, 0.2), threshold=0.99, end_sites=10
    )
    wall = time.perf_counter() - t0

    assert lat.n_sites == 60
    bulk = np.abs(energies[~in_gap])
    assert bulk.min() > 0.25 - 1e-3, f"band floor at {bulk.min():.6f}"
    assert bulk.max() < 0.75 + 1e-3, f"band ceiling at {bulk.max():.6f}"
    assert int(in_gap.sum()) == 2, f"{int(in_gap.sum())} states with |E| < 0.05"
    assert len(reports) == 2, "edge pair must hold > 0.99 weight within 10 end sites"
    assert {r.side for r in reports} == {"left", "right"}
    assert wall < 1.0, f"spectrum pipeline took {wall:.2f}s"


def test_criterion_02_ballistic_window(fig1_cfg, gate_sweep_k0):
    table, wall = gate_sweep_k0
    assert wall < 300.0, f"241-point sweep took {wall:.1f}s"
    assert table.column("converged").all()

    axis = table.axis_values
    j = np.abs(table.current)
    j_band = min(abs(row_at(table, 0.4)), abs(row_at(table, -0.4)))
    _, w_hi = conduction_window(MU, -MU, GAMMA)
    deep = (np.abs(axis) >= w_hi + GAMMA / 2) & (np.abs(axis) <= 0.25 - w_hi)
    baseline = float(np.median(j[deep]))

    assert j_band > 10.0 * baseline, (
        f"in-band current {j_band:.3e} vs gap baseline {baseline:.3e}"
    )

    # The raw in-gap current is the Lorentzian tail of the biased ring level
    # reaching the band edges, so it scales with the lead broadening.  What
    # the edge pair carries is the part left as gamma -> 0; with j linear in
    # gamma that limit is 2 j(gamma/2) - j(gamma).
    leads = dataclasses.replace(fig1_cfg.leads, gamma=fig1_cfg.leads.gamma / 2)
    narrow = dataclasses.replace(fig1_cfg, leads=leads).build_system(gate=0.0)
    rho, _ = quiet_solve(narrow, 0.0, fig1_cfg.solver)
    j_coh = 2.0 * current_profile(rho, narrow).mean - row_at(table, 0.0)
    assert abs(j_coh) < 0.01 * j_band, (
        f"coherent in-gap current extrapolated to gamma -> 0 is "
        f"{100 * abs(j_coh) / j_band:.3f}% of the in-band current "
        f"({j_coh:.3e} vs {j_band:.3e}); bound 1%"
    )


def test_criterion_03_decoherence_opened_window(gate_sweep_k0, ingap_sweeps):
    window = conduction_window(MU, -MU, GAMMA)
    width = window[1] - window[0]
    table_k0, _ = gate_sweep_k0
    j0_ingap = abs(row_at(table_k0, 0.0))

    heights, fwhms = {}, {}
    for kappa, table in ingap_sweeps.items():
        assert table.column("converged").all()
        pm = peak_metrics(table, window=window, exclusion=GAMMA / 2)
        assert pm is not None, f"no peak found at kappa={kappa}"
        assert abs(pm.center) <= 0.011, f"peak sits at delta={pm.center}"
        heights[kappa] = pm.height
        fwhms[kappa] = pm.fwhm

    assert heights[0.003] >= 10.0 * j0_ingap, (
        f"peak height {heights[0.003]:.3e} vs coherent in-gap current {j0_ingap:.3e}"
    )

    k = np.array(sorted(heights))
    h = np.array([heights[x] for x in sorted(heights)])
    slope = float(h @ k) / float(k @ k)
    r2 = 1.0 - float(np.sum((h - slope * k) ** 2)) / float(np.sum((h - h.mean()) ** 2))
    assert r2 > 0.99, f"height-vs-kappa line through the origin has R^2={r2:.4f}"

    f = np.array(list(fwhms.values()))
    spread = float((f.max() - f.min()) / f.mean())
    assert spread < 0.10, f"FWHM varies by {100 * spread:.1f}% across kappa"
    assert abs(f.mean() - width) <= 0.01, (
        f"peak FWHM {f.mean():.4f} vs conduction window width {width:.4f}; "
        f"they differ by {abs(f.mean() - width):.4f} > one 0.01 grid step. "
        f"The FWHM does not move with mu: the M=40 rings have levels at 0 and "
        f"+-0.156, so every mu between them gives the same zero-temperature "
        f"occupations and the same in-gap profile. The width follows the "
        f"ring's level spacing, not the mu +- gamma/2 window"
    )


def test_criterion_04_destructive_side_suppression(fig2_cfg):
    kappas = (0.0,) + KAPPA_LADDER
    for delta in (0.4, -0.4):
        table = sweep_decoherence(fig2_cfg, kappas, delta=delta)
        assert table.column("converged").all()
        j = table.current
        drop = np.abs(j[1:] - j[0]) / abs(j[0])
        assert drop.max() < 0.05, (
            f"at delta={delta} the current moves by {100 * drop.max():.2f}% "
            f"for kappa <= 0.003"
        )


def test_criterion_05_imbalance_precondition(fig2_cfg):
    # Full occupation of one edge state and none of the other gives a k-site
    # imbalance of the pair's mean |psi|^2 on the first k sites (0.75 / 2 on
    # the SSH end), so imbalance / ceiling is the contrast n_left - n_right.
    k = 2
    energies, states = spectrum(fig2_cfg.build_lattice())
    pair = np.argsort(np.abs(energies))[:2]
    ceiling = float(np.sum(np.abs(states[:k, pair]) ** 2)) / k

    resonant = fig2_cfg.build_system(gate=0.0)
    rho, _ = quiet_solve(resonant, 0.0)
    imb_resonant = edge_imbalance(site_populations(rho, resonant), k)
    contrast = imb_resonant / ceiling

    # delta=0.125 parks both edge states and both band edges outside the window
    shifted = fig2_cfg.build_system(gate=0.125)
    rho_off, _ = quiet_solve(shifted, 0.0)
    imb_off = edge_imbalance(site_populations(rho_off, shifted), k)

    assert abs(imb_off) < 0.05, f"off-resonant imbalance {imb_off:.4f}"
    assert contrast > 0.5, (
        f"resonant edge-occupation contrast is {contrast:.4f} (imbalance "
        f"{imb_resonant:.4f} over the edge pair's {k}-site ceiling "
        f"{ceiling:.4f}); bound 0.5"
    )


def test_criterion_06_rhombic_caging(fig4_cfg):
    caged = build_rhombic(15, 1.0, math.pi, termination="arm")
    energies, _ = spectrum(caged)
    dist = np.abs(energies[:, None] - np.array([-1.0, 0.0, 1.0])[None, :]).min(axis=1)
    assert dist.max() < 1e-10, f"caged spectrum deviates by {dist.max():.2e}"

    hub = build_rhombic(15, 1.0, math.pi - 0.4)
    e_hub, _ = spectrum(hub)
    n_gap = int(((np.abs(e_hub) > 0.05) & (np.abs(e_hub) < 0.85)).sum())
    assert n_gap == 4, f"{n_gap} in-gap states at flux pi - 0.4"

    # gate the E=-1 flat manifold into the window: caging still blocks flow
    system = fig4_cfg.build_system(gate=1.0)
    rho, _ = quiet_solve(system, 0.0)
    jbar = current_profile(rho, system).mean
    assert abs(jbar) < 1e-8, f"ballistic current {jbar:.3e} through the caged chain"


def test_criterion_07_esaki_tsu_rate_law(fig4_cfg):
    kappas = fig4_cfg.sweep.materialize()
    assert kappas.size == 30
    t0 = time.perf_counter()
    table = sweep_decoherence(fig4_cfg, kappas, parallel=4)
    wall = time.perf_counter() - t0
    assert wall < 600.0, f"30-point decoherence sweep took {wall:.1f}s"
    assert table.column("converged").all()

    j = np.abs(table.current)
    i_peak = int(np.argmax(j))
    assert 0 < i_peak < kappas.size - 1, "j(kappa) must rise and then fall"

    fit = fit_esaki_tsu(table)
    log_step = math.log(kappas[1] / kappas[0])
    off = abs(math.log(kappas[i_peak]) - math.log(fit.kappa_peak))
    assert off <= log_step + 1e-9, (
        f"measured maximum at kappa={kappas[i_peak]:.4g} vs fitted sqrt(c)="
        f"{fit.kappa_peak:.4g}"
    )

    # The lead interface adds a series resistance R, so the law reads
    # j = a k / (k^2 + b k + c) with b = a R; its maximum is still at sqrt(c).
    # k / j is quadratic in k.  Scaling its rows by j^2 / k turns the target
    # into j, so the linear least squares measures the residual in j.
    scale = j**2 / kappas
    design = np.column_stack([np.ones_like(kappas), kappas, kappas**2]) * scale[:, None]
    (p0, p1, p2), *_ = np.linalg.lstsq(design, j, rcond=None)
    a, b, c = 1.0 / p2, p1 / p2, p0 / p2
    assert a > 0 and b >= 0 and c > 0, f"series-resistance fit a={a:.3e} b={b:.3e} c={c:.3e}"
    model = a * kappas / (kappas**2 + b * kappas + c)
    residual = float(np.linalg.norm(model - j) / np.linalg.norm(j))
    assert residual < 0.05, (
        f"series-resistance rate law leaves {100 * residual:.1f}% relative "
        f"residual; bound 5%"
    )
    off = abs(math.log(kappas[i_peak]) - 0.5 * math.log(c))
    assert off <= log_step + 1e-9, (
        f"measured maximum at kappa={kappas[i_peak]:.4g} vs series-resistance "
        f"sqrt(c)={math.sqrt(c):.4g}"
    )


def test_criterion_08_transport_regime_contrast(fig3_cfg):
    flat = dataclasses.replace(fig3_cfg.lattice, phi=math.pi)
    cases = {
        math.pi: (flat, math.sqrt(0.5)),
        math.pi - 0.4: (fig3_cfg.lattice, 0.693011723),
    }
    grads = {}
    for phi, (lat_settings, delta) in cases.items():
        cfg = dataclasses.replace(fig3_cfg, lattice=lat_settings)
        system = cfg.build_system(gate=delta)
        rho, _ = quiet_solve(system, 0.001)
        grads[phi] = population_gradient(site_populations(rho, system))

    assert abs(grads[math.pi]) > abs(grads[math.pi - 0.4]), (
        f"flux-pi gradient {grads[math.pi]:.3e} should exceed "
        f"flux-(pi-0.4) gradient {grads[math.pi - 0.4]:.3e}"
    )


def test_criterion_09_solver_oracle_equivalence():
    lat = build_ssh(4, 0.5, 1.0)
    left = RingLead(size=8, mu=MU, gamma=GAMMA)
    right = RingLead(size=8, mu=-MU, gamma=GAMMA)
    system = assemble_composite(lat, left, right, 0.2)

    t0 = time.perf_counter()
    rho, diag = solve_steady_state(system, 0.002)
    full = full_linear_solve(system, 0.002)
    wall = time.perf_counter() - t0
    scale = max(1.0, np.abs(system.target).max())
    oracle_residual = np.abs(apply_liouvillian(system, full, 0.002)).max() / scale
    assert diag.residual < 1e-9, f"Sylvester residual {diag.residual:.2e}"
    assert oracle_residual < 1e-9, f"oracle residual {oracle_residual:.2e}"
    assert np.abs(rho - full).max() < 1e-7

    prof = current_profile(rho, system)
    assert prof.max_deviation / abs(prof.mean) < 1e-6
    assert wall < 10.0, f"two N=20 solves took {wall:.1f}s"


def test_criterion_10_symmetry_suite(fig3_cfg):
    lat = build_ssh(60, 0.5, 1.0)

    balanced = assemble_composite(
        lat, RingLead(size=40, mu=MU), RingLead(size=40, mu=MU), 0.2
    )
    rho_eq, _ = solve_steady_state(balanced, 0.002)
    assert abs(current_profile(rho_eq, balanced).mean) < 1e-12

    forward = assemble_composite(
        lat, RingLead(size=40, mu=MU), RingLead(size=40, mu=-MU), 0.2
    )
    backward = assemble_composite(
        lat, RingLead(size=40, mu=-MU), RingLead(size=40, mu=MU), 0.2
    )
    rho_f, _ = solve_steady_state(forward, 0.002)
    rho_b, _ = solve_steady_state(backward, 0.002)
    j_f = current_profile(rho_f, forward).mean
    j_b = current_profile(rho_b, backward).mean
    assert abs(j_f + j_b) < 1e-9 * abs(j_f)
    imb_f = edge_imbalance(site_populations(rho_f, forward), 2)
    imb_b = edge_imbalance(site_populations(rho_b, backward), 2)
    assert abs(imb_f + imb_b) < 1e-9 * abs(imb_f)

    # random on-site phases relocate into the (loop-free) contact bonds, so
    # the steady current cannot move
    delta = 0.693011723
    system = fig3_cfg.build_system(gate=delta)
    rho, _ = solve_steady_state(system, 0.001)
    jbar = current_profile(rho, system).mean

    rng = np.random.default_rng(42)
    base = fig3_cfg.build_lattice(gate=delta)
    u = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, base.n_sites))
    hop = base.hamiltonian - delta * np.eye(base.n_sites)
    gauged_lat = build_custom(u[:, None] * hop * u.conj()[None, :], gate=delta)
    left, right = fig3_cfg.leads.build()
    gauged = assemble_composite(gauged_lat, left, right, fig3_cfg.coupling)
    rho_g, _ = solve_steady_state(gauged, 0.001)
    j_gauged = current_profile(rho_g, gauged).mean

    assert abs(jbar - j_gauged) < 1e-10, (
        f"gauge conjugation moved jbar by {abs(jbar - j_gauged):.2e}"
    )
