import dataclasses
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from edgesense import config, master_eq
from edgesense.config import parse_config
from edgesense.experiments import (
    EsakiTsuFit,
    conduction_window,
    sweep_decoherence,
    sweep_gate,
    write_sweep_csv,
)
from edgesense.lattice import Lattice, build_custom, build_rhombic, build_ssh
from edgesense.leads import CompositeSystem, IndexMap, RingLead, assemble_composite, contact_bonds
from edgesense.master_eq import (
    DegenerateSteadyStateWarning,
    SolverConfig,
    SolverError,
    SolverMethod,
    apply_liouvillian,
    at_gate,
    solve_steady_state,
    spdm_to_json,
    validate_spdm,
    _SylvesterFactorization,
)
from edgesense.observables import current_profile

from conftest import MU_BIAS, make_ssh_system
from oracle import build_superoperator, full_linear_solve
from time_march import propagate

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def dephasing_free_system(n_lattice=2, ring=4):
    """H = 0 and no lead relaxation: the generator is pure dephasing."""
    imap = IndexMap(n_lattice=n_lattice, n_left=ring, n_right=ring)
    n = imap.size
    mask = np.zeros(n, dtype=bool)
    mask[imap.lattice] = True
    return CompositeSystem(
        h_total=np.zeros((n, n), dtype=complex),
        index_map=imap,
        lattice=None,
        target=np.zeros((n, n), dtype=complex),
        drive=np.zeros((n, n), dtype=complex),
        gamma_by_index=np.zeros(n),
        lattice_mask=mask,
    )


def near_pi_rhombic_system(offset):
    lat = build_rhombic(4, 1.0, math.pi - offset, gate=1 / math.sqrt(2))
    leads = RingLead(size=8, mu=MU_BIAS), RingLead(size=8, mu=-MU_BIAS)
    return assemble_composite(lat, *leads, 0.2)


# Parameter corners that time marching could not settle (it stalled or ran
# for minutes): (system builder, kappa).  Occupations and current
# conservation there are left to other checks.
CORNERS = {
    "gamma=1e-6": (lambda: make_ssh_system(gamma=1e-6), 0.001),
    "kappa=1e4": (make_ssh_system, 1e4),
    "phi=pi-1e-6": (lambda: near_pi_rhombic_system(1e-6), 0.0),
    "phi=pi-1e-3": (lambda: near_pi_rhombic_system(1e-3), 0.0),
    "beta=0": (lambda: make_ssh_system(beta=0.0), 0.002),
}


def nan_in_composite():
    sys = make_ssh_system()
    sys.h_total[0, 0] = math.nan
    sys.validate()


def nan_in_spdm():
    rho = 0.5 * np.eye(4, dtype=complex)
    rho[1, 2] = rho[2, 1] = math.nan
    validate_spdm(rho)


# entry point and the message it refuses with; beta = inf stays legal
NON_FINITE = {
    "ring-gamma-nan": (lambda: RingLead(8, gamma=math.nan), "gamma must be positive and finite"),
    "ring-gamma-inf": (lambda: RingLead(8, gamma=math.inf), "gamma must be positive and finite"),
    "ring-hop-nan": (lambda: RingLead(8, hop=math.nan), "hopping must be positive and finite"),
    "ring-hop-inf": (lambda: RingLead(8, hop=math.inf), "hopping must be positive and finite"),
    "ring-beta-nan": (lambda: RingLead(8, beta=math.nan), "beta must be non-negative"),
    "ring-mu-nan": (lambda: RingLead(8, mu=math.nan), "mu must be a number"),
    "ssh-hop-nan": (lambda: build_ssh(4, math.nan, 1.0), "hopping amplitudes must be positive"),
    "ssh-hop-inf": (lambda: build_ssh(4, 0.5, math.inf), "non-finite entry"),
    "ssh-gate-nan": (lambda: build_ssh(4, 0.5, 1.0, gate=math.nan), "non-finite entry"),
    "rhombic-hop-nan": (lambda: build_rhombic(2, math.nan, math.pi), "hop must be positive"),
    "rhombic-flux-nan": (lambda: build_rhombic(2, 1.0, math.nan), "non-finite entry"),
    "lattice-gate-offset-nan": (
        lambda: Lattice("custom", 2, np.zeros((2, 2), dtype=complex), ["1", "2"], math.nan).validate(),
        "diagonal must equal the gate offset",
    ),
    "epsilon-nan": (
        lambda: assemble_composite(build_ssh(4, 0.5, 1.0), RingLead(8), RingLead(8), math.nan),
        "epsilon must be non-negative and finite",
    ),
    "epsilon-inf": (
        lambda: assemble_composite(build_ssh(4, 0.5, 1.0), RingLead(8), RingLead(8), math.inf),
        "epsilon must be non-negative and finite",
    ),
    "composite-nan": (nan_in_composite, "composite Hamiltonian has a non-finite entry"),
    "residual-tol-nan": (lambda: SolverConfig(residual_tol=math.nan), "residual_tol must be positive and finite"),
    "residual-tol-inf": (lambda: SolverConfig(residual_tol=math.inf), "residual_tol must be positive and finite"),
    "spdm-nan": (nan_in_spdm, "density matrix has a non-finite entry"),
    "window-gamma-nan": (lambda: conduction_window(0.1, -0.1, math.nan), "gamma must be nonnegative and finite"),
    "window-gamma-inf": (lambda: conduction_window(0.1, -0.1, math.inf), "gamma must be nonnegative and finite"),
    "window-mu-left-nan": (lambda: conduction_window(math.nan, 0.0, 0.1), "mu_left and mu_right must be numbers"),
    "window-mu-right-nan": (lambda: conduction_window(0.1, math.nan, 0.1), "mu_left and mu_right must be numbers"),
    "fit-a-nan": (lambda: EsakiTsuFit(math.nan, 1.0, 0.0), "a and c must be positive and finite"),
    "fit-c-nan": (lambda: EsakiTsuFit(1.0, math.nan, 0.0), "a and c must be positive and finite"),
    "fit-a-inf": (lambda: EsakiTsuFit(math.inf, 1.0, 0.0), "a and c must be positive and finite"),
    "fit-c-inf": (lambda: EsakiTsuFit(1.0, math.inf, 0.0), "a and c must be positive and finite"),
}
# entry point given a size that is not an integer, and the name it refuses it by
NON_INTEGRAL = {
    "ring-size": (lambda: RingLead(size=8.5), "ring size"),
    "ring-size-nan": (lambda: RingLead(size=math.nan), "ring size"),
    "ssh-length": (lambda: build_ssh(4.5, 0.5, 1.0), "length"),
    "ssh-length-text": (lambda: build_ssh("4", 0.5, 1.0), "length"),
    "rhombic-cells": (lambda: build_rhombic(2.5, 1.0, math.pi), "n_cells"),
    "rhombic-cells-inf": (lambda: build_rhombic(math.inf, 1.0, math.pi), "n_cells"),
}


class TestGenerator:
    def test_superoperator_matches_elementwise_action(self):
        # apply_liouvillian for any rho, and the solve's one-pass residual for
        # a rho that is Hermitian bit for bit, as the solve makes it
        sys = make_ssh_system(length=4, ring=4)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(sys.size,) * 2) + 1j * rng.normal(size=(sys.size,) * 2)
        rho = x + np.conjugate(x.T)
        rho *= 0.5
        assert np.array_equal(rho, rho.conj().T)
        for kappa in (0.0, 0.07):
            lin = build_superoperator(sys, kappa)
            for m in (x, rho):
                direct = apply_liouvillian(sys, m, kappa)
                vec = (lin @ m.reshape(-1) + sys.drive.reshape(-1)).reshape(sys.size, sys.size)
                assert_allclose(vec, direct, atol=1e-12)
            dense = np.abs(vec).max() / master_eq._residual_scale(sys)
            residual = master_eq._residual(sys, rho, kappa, master_eq._Workspace(sys.size, 0))
            assert abs(residual - dense) <= 1e-14 * dense

    def test_dephasing_block_pattern(self, small_system):
        # L(kappa) - L(0) must damp lattice coherences at kappa, mixed
        # coherences at kappa/2, and leave diagonals and lead blocks alone
        sys = small_system
        m = sys.index_map
        x = random_hermitian(sys.size, seed=11)
        kappa = 0.31
        diff = apply_liouvillian(sys, x, kappa) - apply_liouvillian(sys, x, 0.0)
        assert abs(np.trace(diff)) < 1e-13
        lat = m.lattice
        block = diff[lat, lat]
        expected = -kappa * x[lat, lat].copy()
        np.fill_diagonal(expected, 0.0)
        assert_allclose(block, expected, atol=1e-13)
        assert_allclose(diff[lat, m.left], -0.5 * kappa * x[lat, m.left], atol=1e-13)
        assert_allclose(diff[m.right, lat], -0.5 * kappa * x[m.right, lat], atol=1e-13)
        assert np.abs(diff[m.left, m.left]).max() < 1e-15
        assert np.abs(diff[m.left, m.right]).max() < 1e-15

    def test_negative_kappa_rejected(self, small_system):
        with pytest.raises(ValueError, match="non-negative"):
            apply_liouvillian(small_system, np.zeros((20, 20)), -0.1)
        with pytest.raises(ValueError, match="non-negative"):
            solve_steady_state(small_system, -0.1)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf])
    def test_non_finite_kappa_rejected(self, small_system, kappa):
        with pytest.raises(ValueError, match="kappa must be non-negative and finite"):
            apply_liouvillian(small_system, np.zeros((20, 20)), kappa)
        with pytest.raises(ValueError, match="kappa must be non-negative and finite"):
            solve_steady_state(small_system, kappa)

    @pytest.mark.parametrize("gate", [math.nan, math.inf, -math.inf])
    def test_non_finite_gate_rejected(self, small_system, gate):
        with pytest.raises(ValueError, match="gate must be finite"):
            at_gate(small_system, gate)

    @pytest.mark.parametrize("name", list(NON_FINITE))
    def test_non_finite_parameters_rejected(self, name):
        # each range check is written so that NaN fails it
        call, message = NON_FINITE[name]
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("name", list(NON_INTEGRAL))
    def test_non_integral_sizes_rejected(self, name):
        call, what = NON_INTEGRAL[name]
        with pytest.raises(ValueError, match=f"{what} must be an integer"):
            call()

    def test_integral_sizes_accepted(self):
        # numpy integers, and floats with no fraction as the config parser casts them
        assert RingLead(size=np.int64(8)).size == RingLead(size=8.0).size == 8
        assert type(RingLead(size=8.0).size) is int
        assert build_ssh(4.0, 0.5, 1.0).n_sites == build_ssh(np.int32(4), 0.5, 1.0).n_sites == 4
        assert build_rhombic(2.0, 1.0, math.pi).n_sites == build_rhombic(2, 1.0, math.pi).n_sites

    def test_solver_method_checked_on_construction(self):
        # a method name is coerced to SolverMethod, and an unknown one, the
        # dense oracle's former name included, is refused before any solve
        assert SolverConfig(method="SylvesterIteration").method is SolverMethod.SYLVESTER
        for name in ("bogus", "FullLinearSolve"):
            with pytest.raises(ValueError, match=name):
                SolverConfig(method=name)

    def test_disconnected_thermal_state_is_stationary(self):
        sys = make_ssh_system(epsilon=0.0)
        assert np.abs(apply_liouvillian(sys, sys.target, 0.0)).max() < 1e-13


class TestPropagate:
    def test_zero_time_is_identity(self, small_system):
        rho0 = random_hermitian(20, seed=5)
        out = propagate(small_system, rho0, 0.1, 0.0)
        assert_allclose(out, rho0, atol=0)
        assert out is not rho0

    def test_negative_time_rejected(self, small_system):
        with pytest.raises(ValueError, match="non-negative"):
            propagate(small_system, np.zeros((20, 20)), 0.0, -1.0)

    def test_lead_relaxation_rate(self):
        # with epsilon=0 a lead-block deviation decays as exp(-gamma t) in
        # Frobenius norm: the unitary part preserves the norm exactly
        sys = make_ssh_system(epsilon=0.0, gamma=0.05)
        m = sys.index_map
        delta = 0.1 * random_hermitian(m.n_left, seed=9)
        rho0 = sys.target.copy()
        rho0[m.left, m.left] += delta
        t = 7.0
        out = propagate(sys, rho0, 0.0, t, step_tol=1e-12)
        dev = out - sys.target
        assert np.abs(dev[m.lattice, m.lattice]).max() < 1e-10
        norm = np.linalg.norm(dev[m.left, m.left])
        assert_allclose(norm, math.exp(-0.05 * t) * np.linalg.norm(delta), rtol=1e-6)

    def test_pure_dephasing_closed_form(self):
        sys = dephasing_free_system()
        m = sys.index_map
        kappa, t = 0.8, 2.5
        rho0 = random_hermitian(sys.size, seed=21)
        out = propagate(sys, rho0, kappa, t, step_tol=1e-12)
        chi = sys.lattice_mask.astype(float)
        decay = np.exp(-0.5 * kappa * t * (chi[:, None] + chi[None, :]))
        expected = rho0 * decay
        # the lattice diagonal is immune: dephasing only kills coherences
        for p in range(m.n_lattice):
            expected[p, p] = rho0[p, p]
        assert_allclose(out, expected, atol=1e-9)

    def test_long_march_reaches_steady_state(self):
        # strong contact and lead relaxation: every mode damps at >= 0.075,
        # so t=400 leaves a transient below 1e-13
        sys = make_ssh_system(gamma=0.4, epsilon=1.0)
        exact = full_linear_solve(sys, 0.01)
        out = propagate(sys, sys.target.copy(), 0.01, 400.0)
        assert_allclose(out, exact, atol=1e-8)

    def test_trajectory_stays_physical(self, small_system):
        state = small_system.target.copy()
        for _ in range(3):
            state = propagate(small_system, state, 0.01, 5.0)
            assert_allclose(state, state.conj().T, atol=1e-14)
            validate_spdm(state, tol=1e-6)


class TestSteadyState:
    def test_direct_methods_agree(self, small_system):
        for kappa in (0.0, 0.002):
            syl, d1 = solve_steady_state(small_system, kappa)
            full = full_linear_solve(small_system, kappa)
            assert d1.method is SolverMethod.SYLVESTER
            assert d1.residual < 1e-9 and oracle_residual(small_system, full, kappa) < 1e-9
            assert_allclose(syl, full, atol=1e-9)

    def test_time_march_unique_limit(self):
        # marching from the thermal target and from the empty state must
        # reach one limit, and that limit is the Sylvester steady state;
        # every mode of this system damps at >= 0.075, so t=400 suffices
        sys = make_ssh_system(gamma=0.4, epsilon=1.0)
        ref, _ = solve_steady_state(sys, 0.01)
        a = propagate(sys, sys.target.copy(), 0.01, 400.0)
        b = propagate(sys, np.zeros_like(sys.target), 0.01, 400.0)
        assert_allclose(a, b, atol=1e-8)
        assert_allclose(a, ref, atol=1e-8)

    def test_infinite_temperature_gives_half_filling(self):
        sys = make_ssh_system(beta=0.0)
        for kappa in (0.0, 0.05):
            rho, _ = solve_steady_state(sys, kappa)
            assert_allclose(rho, 0.5 * np.eye(20), atol=1e-10)

    def test_dark_sector_minimal_norm(self):
        # at flux pi every rhombic eigenstate is caged, so undamped pairs
        # survive at kappa=0 and the stationary state is not unique
        lat = build_rhombic(15, 1.0, math.pi)
        sys = assemble_composite(lat, RingLead(size=12, mu=0.1), RingLead(size=12, mu=-0.1), 0.2)
        with pytest.warns(DegenerateSteadyStateWarning, match="dissipation-free"):
            rho, diag = solve_steady_state(sys, 0.0)
        assert diag.residual < 1e-9
        validate_spdm(rho, tol=1e-6)

    @pytest.mark.parametrize(
        "cells, ring, gate",
        [(2, 4, 0.0), (2, 4, 1 / math.sqrt(2)), (3, 4, 0.3), (2, 6, 0.0)],
        ids=["cells2-ring4-gate0", "cells2-ring4-gate0.707", "cells3-ring4-gate0.3", "cells2-ring6-gate0"],
    )
    def test_oracle_at_flux_pi(self, cells, ring, gate):
        # caged states leave the generator singular at kappa = 0: the oracle
        # returns the minimal-norm steady state, as the Sylvester guard does,
        # and says that L is singular; each warning names its solve's caller
        leads = RingLead(size=ring, mu=0.3, beta=5.0), RingLead(size=ring, mu=-0.1, beta=5.0)
        sys = assemble_composite(build_rhombic(cells, 1.0, math.pi, gate=gate), *leads, 0.2)
        with pytest.warns(DegenerateSteadyStateWarning, match="dissipation-free") as dark:
            syl, _ = solve_steady_state(sys, 0.0)
        with pytest.warns(DegenerateSteadyStateWarning, match="generator is singular") as singular:
            full = full_linear_solve(sys, 0.0)
        assert {w.filename for w in [*dark, *singular]} == {__file__}
        assert oracle_residual(sys, full, 0.0) <= SolverConfig().residual_tol
        validate_spdm(full)
        assert np.abs(full - syl).max() <= 1e-10

    def test_disconnected_device_warns(self):
        sys = make_ssh_system(epsilon=0.0)
        with pytest.warns(DegenerateSteadyStateWarning, match="epsilon=0"):
            solve_steady_state(sys, 0.01)

    def test_device_without_contact_bonds_warns(self):
        # assembled at epsilon 0.2, but h_total holds no bond between the
        # lattice and the leads, so the lattice's state is not unique; with
        # one contact left the lattice relaxes into that lead and nothing warns
        sys = make_ssh_system()
        c, r, _ = contact_bonds(sys)
        assert c.size == 2

        def cut(bonds):
            h = sys.h_total.copy()
            h[c[bonds], r[bonds]] = h[r[bonds], c[bonds]] = 0.0
            return dataclasses.replace(sys, h_total=h)

        for kappa in (0.0, 0.01):
            with pytest.warns(DegenerateSteadyStateWarning) as record:
                _, diag = solve_steady_state(cut([0, 1]), kappa)
            assert any("no bond joins the lattice" in str(w.message) for w in record)
            # the report holds every warning the solve raised, in order
            assert diag.warnings == [str(w.message) for w in record]
            solve_quietly(cut([0]), kappa)

    def test_solver_config_validation(self, small_system):
        with pytest.raises(ValueError):
            SolverConfig(residual_tol=-1e-9)
        with pytest.raises(ValueError):
            SolverConfig(residual_tol=0.0)
        rho0 = small_system.target.copy()
        for step in ({"dt": 0.0}, {"step_tol": -1e-10}, {"max_iters": 0}):
            with pytest.raises(ValueError, match="must be positive"):
                propagate(small_system, rho0, 0.0, 1.0, **step)

    def test_nonconvergence_carries_diagnostics(self, small_system):
        # a target below round-off cannot be met
        cfg = SolverConfig(residual_tol=1e-30)
        with pytest.raises(SolverError) as err:
            solve_steady_state(small_system, 0.0, cfg)
        diag = err.value.diagnostics
        assert diag is not None
        assert diag.residual > 1e-30
        assert diag.method is SolverMethod.SYLVESTER

    @pytest.mark.filterwarnings("ignore::edgesense.master_eq.DegenerateSteadyStateWarning")
    @pytest.mark.parametrize("corner", list(CORNERS))
    def test_sylvester_converges_at_corners(self, corner):
        build, kappa = CORNERS[corner]
        cfg = SolverConfig()
        _, diag = solve_steady_state(build(), kappa, cfg)
        assert diag.residual <= cfg.residual_tol

    def test_steady_state_linear_in_drive(self, small_system):
        rho1, _ = solve_steady_state(small_system, 0.003)
        scaled = dataclasses.replace(
            small_system, target=2.5 * small_system.target, drive=2.5 * small_system.drive
        )
        rho2, _ = solve_steady_state(scaled, 0.003)
        assert_allclose(rho2, 2.5 * rho1, atol=1e-10)

    def test_solution_is_stationary_and_physical(self, small_system):
        rho, diag = solve_steady_state(small_system, 0.002)
        assert np.abs(apply_liouvillian(small_system, rho, 0.002)).max() < 1e-9
        validate_spdm(rho, tol=1e-8)
        assert diag.wall_time >= 0.0

    def test_spdm_json_payload(self, small_system, tmp_path):
        rho, _ = solve_steady_state(small_system, 0.0)
        payload = spdm_to_json(rho, small_system.index_map, tmp_path / "spdm.npy")
        assert payload == {
            "N": 20,
            "index_map": ["lattice"] * 4 + ["left_lead"] * 8 + ["right_lead"] * 8,
            "file": "spdm.npy",
        }
        assert json.loads(json.dumps(payload)) == payload
        saved = np.load(tmp_path / "spdm.npy")
        assert saved.dtype == np.complex128 and saved.shape == (20, 20)
        assert saved.flags.c_contiguous
        assert saved.tobytes() == rho.tobytes()


def two_ring_system(m_left, m_right, beta=np.inf):
    lat = build_ssh(4, 0.5, 1.0, 0.0)
    left = RingLead(size=m_left, mu=MU_BIAS, beta=beta)
    right = RingLead(size=m_right, mu=-MU_BIAS, beta=beta)
    return assemble_composite(lat, left, right, 0.2)


def odd_projector(sys):
    """(1 - R)/2 for R mirroring each lead block about its site 0 (m <-> M - m)."""
    n = sys.size
    mirror = np.arange(n)
    for block in (sys.index_map.left, sys.index_map.right):
        m = np.arange(block.stop - block.start)
        mirror[block] = block.start + (-m) % m.size
    return 0.5 * (np.eye(n) - np.eye(n)[mirror])


def solve_quietly(sys, kappa, cfg=None):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return solve_steady_state(sys, kappa, cfg)


def oracle_quietly(sys, kappa):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return full_linear_solve(sys, kappa)


def oracle_residual(sys, rho, kappa):
    """The solve's residual measure of rho, |d rho/dt|_inf over max(1, |target|_inf)."""
    return np.abs(apply_liouvillian(sys, rho, kappa)).max() / max(1.0, np.abs(sys.target).max())


def random_phases(n, seed):
    return np.exp(2j * np.pi * np.random.default_rng(seed).random(n))


def gauged(sys, u, fields=("h_total", "target", "drive")):
    """sys with U x U^dag, U = diag(u), in place of each of the fields."""
    return dataclasses.replace(sys, **{f: u[:, None] * getattr(sys, f) * u.conj() for f in fields})


def without_reflection(name):
    """A hand-built SSH system whose leads break the ring reflection in one way."""
    sys = make_ssh_system()
    left = sys.index_map.left
    l0 = left.start
    h = sys.h_total.copy()
    if name == "contact-at-site-1":
        h[0, l0] = h[l0, 0] = 0.0
        h[0, l0 + 1] = h[l0 + 1, 0] = -0.1
        return dataclasses.replace(sys, h_total=h)
    if name == "random-lead-block":
        h[left, left] = random_hermitian(left.stop - l0, seed=4)
        return dataclasses.replace(sys, h_total=h)
    if name == "uneven-ring-rates":
        gamma = sys.gamma_by_index.copy()
        gamma[l0 + 1] *= 3.0
        return dataclasses.replace(sys, gamma_by_index=gamma)
    # The next three break exactly one of the split's conditions each.
    if name == "lattice-to-empty-odd-mode":
        # R no longer commutes with H; the odd target stays stationary, as
        # the odd mode the lattice reaches (k = 3, above mu) is empty
        m = np.arange(left.stop - l0)
        odd_mode = np.sin(2 * np.pi * 3 * m / m.size) / np.sqrt(m.size / 2)
        assert np.abs(sys.target[left, left] @ odd_mode).max() < 1e-15
        h[1, left] = h[left, 1] = 0.1 * odd_mode
        return dataclasses.replace(sys, h_total=h)
    if name == "uneven-rates-in-empty-ring":
        # R no longer commutes with the rates; the left ring's target is
        # zero, so its odd block is trivially stationary
        gamma, target = sys.gamma_by_index.copy(), sys.target.copy()
        gamma[l0 + 1] *= 3.0
        target[left, left] = 0.0
        return dataclasses.replace(
            sys, gamma_by_index=gamma, target=target, drive=gamma[:, None] * target
        )
    if name == "drive-couples-odd-to-even":
        # R commutes with A and the odd target is unchanged, but the drive
        # feeds odd-even coherences: only the stationarity check sees it
        p_odd = odd_projector(sys)
        x = np.zeros_like(h)
        x[left, left] = random_hermitian(left.stop - l0, seed=7)
        p_even = np.eye(sys.size) - p_odd
        extra = p_odd @ x @ p_even
        return dataclasses.replace(sys, drive=sys.drive + 0.01 * (extra + extra.conj().T))
    if name == "ring-gauged-in-h-only":
        # the left ring takes site phases in h_total alone: the reflection
        # holds up to those phases, but the target, left as it was, is not
        # stationary in the odd block
        u = np.ones(sys.size, dtype=complex)
        u[left] = random_phases(left.stop - l0, seed=5)
        return gauged(sys, u, fields=("h_total",))
    # target commutes with the reflection but is not stationary in the odd sector
    x = random_hermitian(left.stop - l0, seed=6)
    mirror = (-np.arange(x.shape[0])) % x.shape[0]
    target = sys.target.copy()
    target[left, left] += 0.01 * (x + x[mirror][:, mirror])
    return dataclasses.replace(sys, target=target, drive=sys.gamma_by_index[:, None] * target)


class TestCoupledSector:
    @pytest.mark.parametrize("beta", [np.inf, 5.0, 0.0], ids=["beta=inf", "beta=5", "beta=0"])
    @pytest.mark.parametrize("rings", [(4, 4), (5, 5), (8, 8), (5, 8), (8, 4), (4, 5)], ids=str)
    def test_reduction_matches_oracle(self, rings, beta):
        sys = two_ring_system(*rings, beta=beta)
        assert sys.size <= 40
        p_odd = odd_projector(sys)
        n_e = 4 + rings[0] // 2 + 1 + rings[1] // 2 + 1
        # equal rings keep the whole-system mirror: two blocks of n_e / 2
        blocks = (n_e // 2, n_e // 2) if rings[0] == rings[1] else (n_e,)
        for kappa in (0.0, 0.01, 3.0):
            fact = _SylvesterFactorization(sys, kappa)
            assert fact.v.shape == (sys.size, n_e)
            assert fact.sectors.block_sizes == blocks
            rho, diag = solve_quietly(sys, kappa)
            full = oracle_quietly(sys, kappa)
            assert_allclose(rho, full, atol=1e-10)
            assert diag.residual < 1e-12
            assert diag.iterations == (4 + 2 if kappa > 0 else 1)
            # the decoupled block is the target's, and it does not mix
            assert_allclose(p_odd @ rho @ p_odd, p_odd @ sys.target @ p_odd, atol=1e-12)
            assert np.abs((np.eye(sys.size) - p_odd) @ rho @ p_odd).max() < 1e-12

    @pytest.mark.parametrize(
        "name",
        [
            "contact-at-site-1",
            "random-lead-block",
            "uneven-ring-rates",
            "odd-target-not-stationary",
            "lattice-to-empty-odd-mode",
            "uneven-rates-in-empty-ring",
            "drive-couples-odd-to-even",
            "ring-gauged-in-h-only",
        ],
    )
    def test_no_reflection_solves_in_full_basis(self, name):
        sys = without_reflection(name)
        for kappa in (0.0, 0.01):
            assert _SylvesterFactorization(sys, kappa).v.shape == (sys.size, sys.size)
            rho, diag = solve_quietly(sys, kappa)
            full = oracle_quietly(sys, kappa)
            assert_allclose(rho, full, atol=1e-10)
            assert diag.iterations == (4 + 2 if kappa > 0 else 1)

    def test_undamped_odd_modes_stay_in_full_basis(self):
        # a left ring that neither relaxes nor is driven: its odd modes are
        # conserved, so they must stay visible as dark pairs
        sys = make_ssh_system()
        left = sys.index_map.left
        gamma, target = sys.gamma_by_index.copy(), sys.target.copy()
        gamma[left] = 0.0
        target[left, left] = 0.0
        sys = dataclasses.replace(
            sys, gamma_by_index=gamma, target=target, drive=gamma[:, None] * target
        )
        fact = _SylvesterFactorization(sys, 0.01)
        assert fact.v.shape == (sys.size, sys.size)
        assert fact.dark_pairs.any()
        with pytest.warns(DegenerateSteadyStateWarning, match="dissipation-free"):
            solve_steady_state(sys, 0.01)

    @pytest.mark.parametrize("fig, n_lattice, coupled", [("fig1", 60, 102), ("fig3", 46, 88)])
    def test_shipped_sector_sizes(self, fig, n_lattice, coupled):
        sys = parse_config((CONFIGS / f"{fig}.json").read_text()).build_system()
        assert sys.index_map.n_lattice == n_lattice
        assert _SylvesterFactorization(sys, 0.001).v.shape == (sys.size, coupled)
        _, diag = solve_quietly(sys, 0.001)
        assert diag.iterations == n_lattice + 2

    def test_fig4_dark_pairs_unchanged(self):
        sys = parse_config((CONFIGS / "fig4.json").read_text()).build_system()
        assert int(_SylvesterFactorization(sys, 0.0).dark_pairs.sum()) == 588
        with pytest.warns(DegenerateSteadyStateWarning) as record:
            _, diag = solve_steady_state(sys, 0.0)
        assert len(record) == 1
        assert diag.iterations == 1
        assert len(diag.warnings) == 1


class TestSiteGauge:
    @pytest.mark.parametrize("name", ["ssh-4", "fig2", "fig4"])
    def test_blocks_and_state_follow_a_site_gauge(self, name):
        # site phases U on h_total, target and drive: both involutions hold up
        # to phases, so the gauged system keeps the ungauged blocks and
        # eigendecompositions (a ring reflection checked as a plain
        # permutation kept (10, 10), (70, 70) and (63, 63)), and its steady
        # state is U rho U^dag
        sys = make_ssh_system() if name == "ssh-4" else named_system(name)
        u = random_phases(sys.size, seed=11)
        sys_g = gauged(sys, u)
        rho, diag = solve_quietly(sys, 0.01)
        rho_g, diag_g = solve_quietly(sys_g, 0.01)
        assert master_eq._sectors(sys_g).block_sizes == master_eq._sectors(sys).block_sizes
        assert diag_g.eig_blocks == diag.eig_blocks
        assert np.abs(rho_g - u[:, None] * rho * u.conj()).max() <= 1e-12

    def test_gauged_system_splits_to_the_oracle(self):
        sys = gauged(make_ssh_system(), random_phases(20, seed=12))
        for kappa in (0.0, 0.01):
            assert _SylvesterFactorization(sys, kappa).sectors.block_sizes == (7, 7)
            rho, _ = solve_quietly(sys, kappa)
            full = oracle_quietly(sys, kappa)
            assert_allclose(rho, full, atol=1e-10)


def mirror_test_system(name):
    """A small system whose whole-system mirror holds or is broken in one way."""
    leads = RingLead(size=4, mu=0.3, beta=5.0), RingLead(size=4, mu=-0.02, beta=5.0)
    if name == "ssh-chain":
        return assemble_composite(build_ssh(4, 0.5, 1.0), *leads, 0.2)
    if name == "mirrored-onsite":
        # mirror-symmetric on-site terms keep the mirror and break the fold
        sys = assemble_composite(build_ssh(4, 0.5, 1.0), *leads, 0.2)
        h = sys.h_total.copy()
        h[0, 0] = h[3, 3] = 0.1
        return dataclasses.replace(sys, h_total=h)
    if name == "gated-ssh-chain":
        # the gate keeps the mirror and breaks the chiral fold
        return assemble_composite(build_ssh(4, 0.5, 1.0, gate=0.3), *leads, 0.2)
    if name == "odd-uniform-chain":
        # the mirror fixes the middle site
        return assemble_composite(build_ssh(5, 1.0, 1.0, allow_odd_length=True), *leads, 0.2)
    if name == "unequal-gammas":
        right = dataclasses.replace(leads[1], gamma=0.08)
        return assemble_composite(build_ssh(4, 0.5, 1.0), leads[0], right, 0.2)
    if name == "odd-ssh-chain":
        return assemble_composite(build_ssh(5, 0.5, 1.0, allow_odd_length=True), *leads, 0.2)
    if name == "custom-onsite":
        hop = -0.5 * (np.eye(4, k=1) + np.eye(4, k=-1))
        sys = assemble_composite(build_custom(hop), *leads, 0.2)
        h = sys.h_total.copy()
        h[1, 1] += 0.1
        return dataclasses.replace(sys, h_total=h)
    if name == "both-contacts-at-site-1":
        # both rings break the ring reflection alike, so the mirror splits
        # the full basis
        sys = assemble_composite(build_ssh(4, 0.5, 1.0), *leads, 0.2)
        h = sys.h_total.copy()
        for block in (sys.index_map.left, sys.index_map.right):
            contact = h[:4, block.start].copy()
            h[:4, block.start] = h[block.start, :4] = 0.0
            h[:4, block.start + 1] = contact
            h[block.start + 1, :4] = contact.conj()
        return dataclasses.replace(sys, h_total=h)
    if name == "square-plaquette":
        # bonds 0-1, 0-2, 3-1 and 3-2: the mirror 0 <-> 3, 1 <-> 2 keeps each
        # sublattice, so C maps the + block onto itself and must not fold
        hop = np.zeros((4, 4))
        for i, j in ((0, 1), (0, 2), (3, 1), (3, 2)):
            hop[i, j] = hop[j, i] = -0.5
        return assemble_composite(build_custom(hop), *leads, 0.2)
    if name == "rhombic-chain-at-pi":
        # real hoppings and a mirror gauge d = +-i: the chiral fold holds
        return assemble_composite(build_rhombic(3, 1.0, math.pi), *leads, 0.2)
    rhombic = build_rhombic(3, 1.0, 2.74)
    if name == "rhombic-chain":
        # the mirror holds up to the Peierls gauge phases
        return assemble_composite(rhombic, *leads, 0.2)
    if name == "rhombic-arm-termination":
        # odd length: the mirror fixes the middle hub, in a gauge with d != 1
        return assemble_composite(build_rhombic(2, 1.0, 1.3, termination="arm"), *leads, 0.2)
    if name == "rhombic-arm-onsite":
        # an on-site term on one arm site (B1) is gauge-invariant
        sys = assemble_composite(rhombic, *leads, 0.2)
        h = sys.h_total.copy()
        h[1, 1] += 0.1
        return dataclasses.replace(sys, h_total=h)
    assert name == "rhombic-unequal-flux"
    # flux 1.0 through the last cell instead of 2.74: the mirror swaps the
    # first and last cells, whose fluxes no gauge can change
    hop = rhombic.hamiltonian.copy()
    a3, b3 = rhombic.site_labels.index("A3"), rhombic.site_labels.index("B3")
    hop[b3, a3] = -0.5 * np.exp(1j * 1.0)
    hop[a3, b3] = np.conj(hop[b3, a3])
    return assemble_composite(build_custom(hop), *leads, 0.2)


# name: (block sizes, sizes of the eigendecompositions run, kappas).  The
# odd uniform chain (whose middle site is a fixed point), the chain with
# both contacts moved and the rhombic chains (through their gauge phases)
# keep the mirror; each other case breaks it one way.  Where the chiral
# fold holds (an even chain with real hoppings, no on-site term and gate 0)
# one eigendecomposition serves both blocks; the square plaquette is
# bipartite too, but its mirror keeps the sublattices, so it does not fold.
# Unequal rings are inputs of TestCoupledSector.test_reduction_matches_oracle.
MIRROR_CASES = {
    "ssh-chain": ((5, 5), (5,), (0.0, 0.01, 3.0)),
    "gated-ssh-chain": ((5, 5), (5, 5), (0.0, 0.01, 3.0)),
    "mirrored-onsite": ((5, 5), (5, 5), (0.0, 0.01, 3.0)),
    "odd-uniform-chain": ((6, 5), (6, 5), (0.0, 0.01, 3.0)),
    "both-contacts-at-site-1": ((6, 6), (6,), (0.0, 0.01, 3.0)),
    "unequal-gammas": ((10,), (10,), (0.0, 0.01, 3.0)),
    "odd-ssh-chain": ((11,), (11,), (0.0, 0.01, 3.0)),
    "custom-onsite": ((10,), (10,), (0.0, 0.01, 3.0)),
    # at kappa = 0 sites 1 and 2 hold a dark state, (|1> - |2>)/sqrt(2)
    "square-plaquette": ((5, 5), (5, 5), (0.01, 3.0)),
    # at kappa = 0 the rhombic chains hold caged, dark lattice states
    "rhombic-chain-at-pi": ((8, 8), (8,), (0.01, 3.0)),
    "rhombic-chain": ((8, 8), (8, 8), (0.01, 3.0)),
    "rhombic-arm-termination": ((9, 8), (9, 8), (0.01, 3.0)),
    "rhombic-arm-onsite": ((16,), (16,), (0.01, 3.0)),
    "rhombic-unequal-flux": ((16,), (16,), (0.01, 3.0)),
}


def named_system(name):
    """A shipped config's system ("fig1-gate0.3": fig1 at gate 0.3) or a ``mirror_test_system``."""
    if name.startswith("fig"):
        fig, _, gate = name.partition("-gate")
        cfg = parse_config((CONFIGS / f"{fig}.json").read_text())
        return cfg.build_system(gate=float(gate) if gate else None)
    return mirror_test_system(name)


SHIPPED_BLOCKS = {"fig1": (51, 51), "fig2": (51, 51), "fig3": (44, 44), "fig4": (44, 44)}
# at the configs' own gates: fig1 and fig2 at 0 fold, fig3's flux and fig4's
# gate do not
SHIPPED_EIG_BLOCKS = {"fig1": (51,), "fig2": (51,), "fig3": (44, 44), "fig4": (44, 44)}


def one_block(imap, q, a_q, tol):
    """``_mirror_split`` that never splits."""
    return np.arange(a_q.shape[0]), [(q, a_q)]


def no_fold(c, blocks, tol):
    """``_chiral_fold`` that never folds."""
    return None


def refined(sys, kappa, rho, steps=2):
    """rho after Newton steps on L rho + drive = 0 through the split factorization.

    Each step adds L^-1(-r), r = L rho + drive, by the solver's own affine solve.
    """
    fact = _SylvesterFactorization(sys, kappa)
    for _ in range(steps):
        rho = rho + fact.apply(apply_liouvillian(sys, rho, kappa))
    return rho


class TestBondCommutator:
    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4", *MIRROR_CASES])
    def test_commutator_over_bonds(self, name):
        # against the commutator as two dense products, for a matrix that is
        # not Hermitian (as propagate's Runge-Kutta stages are not) and for
        # one that is (as the solvers' states are); and on the solved state,
        # one routine with the solve's residual, which it matches bit for bit
        if name.startswith("fig"):
            sys = parse_config((CONFIGS / f"{name}.json").read_text()).build_system()
        else:
            sys = mirror_test_system(name)
        rng = np.random.default_rng(17)
        x = rng.normal(size=(sys.size,) * 2) + 1j * rng.normal(size=(sys.size,) * 2)
        hermitian = 0.5 * (x + x.conj().T)
        h = sys.h_total
        for m, kappa in itertools.product((x, hermitian), (0.0, 0.01)):
            dense = -1j * (h @ m - m @ h)
            half = 0.5 * (sys.gamma_by_index + kappa * sys.lattice_mask)
            dense -= half[:, None] * m + m * half[None, :]
            dense += sys.drive
            latt = np.flatnonzero(sys.lattice_mask)
            dense[latt, latt] += kappa * m[latt, latt]
            out = apply_liouvillian(sys, m, kappa)
            assert np.abs(out - dense).max() <= 1e-14 * np.abs(dense).max()
        for kappa in (0.0, 0.01):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateSteadyStateWarning)
                rho, diag = solve_steady_state(sys, kappa)
            scale = max(1.0, np.abs(sys.target).max())
            assert np.abs(apply_liouvillian(sys, rho, kappa)).max() / scale == diag.residual


class TestMirrorSector:
    @pytest.mark.parametrize("fig, blocks", list(SHIPPED_BLOCKS.items()))
    def test_shipped_block_sizes(self, fig, blocks):
        cfg = parse_config((CONFIGS / f"{fig}.json").read_text())
        fact = _SylvesterFactorization(cfg.build_system(), 0.001)
        assert fact.sectors.block_sizes == blocks
        assert fact.eig_blocks == SHIPPED_EIG_BLOCKS[fig]
        assert fact.lam.shape == (sum(blocks),)

    @pytest.mark.parametrize("name", list(MIRROR_CASES))
    def test_split_only_under_the_mirror(self, name):
        # leads with unequal mu and beta < inf: the target breaks the mirror,
        # which the split must tolerate, since only A has to decouple
        blocks, eig_blocks, kappas = MIRROR_CASES[name]
        sys = mirror_test_system(name)
        for kappa in kappas:
            assert _SylvesterFactorization(sys, kappa).sectors.block_sizes == blocks
            rho, diag = solve_quietly(sys, kappa)
            assert diag.eig_blocks == eig_blocks
            full = oracle_quietly(sys, kappa)
            assert_allclose(rho, full, atol=1e-10)
            assert diag.residual < 1e-12

    @pytest.mark.parametrize(
        "fig, kappa, gate",
        [
            ("fig1", 0.0, 0.0),
            ("fig1", 0.002, 0.0),
            ("fig1", 0.0, 0.3),
            ("fig2", 1e-4, 0.0),
            ("fig2", 3e-3, 0.0),
            ("fig3", 1e-3, None),
            ("fig3", 1.0, None),
            ("fig4", 1e-3, None),
            ("fig4", 1.0, None),
        ],
    )
    def test_split_matches_one_block(self, monkeypatch, fig, kappa, gate):
        # the same formula with both mirror blocks eigendecomposed, and with
        # eig of the whole coupled block; a system keeps the sector structure
        # of its first solve, so each reference solve takes a freshly built
        # system
        cfg = parse_config((CONFIGS / f"{fig}.json").read_text())
        sys = cfg.build_system(gate=gate)
        blocks = SHIPPED_BLOCKS[fig]
        assert _SylvesterFactorization(sys, kappa).sectors.block_sizes == blocks
        rho, diag = solve_quietly(sys, kappa)
        # the SSH chain folds at gate 0 alone
        assert diag.eig_blocks == (blocks[:1] if gate == 0.0 else blocks)
        split = current_profile(rho, sys)
        monkeypatch.setattr(master_eq, "_chiral_fold", no_fold)
        sys = cfg.build_system(gate=gate)
        rho, diag = solve_quietly(sys, kappa)
        assert diag.eig_blocks == blocks
        unfolded = current_profile(rho, sys)
        monkeypatch.setattr(master_eq, "_mirror_split", one_block)
        sys = cfg.build_system(gate=gate)
        assert _SylvesterFactorization(sys, kappa).sectors.block_sizes == (sum(blocks),)
        whole = current_profile(solve_quietly(sys, kappa)[0], sys)
        for reference in (unfolded, whole):
            assert abs(split.mean - reference.mean) <= 1e-9 * abs(reference.mean)
        assert split.max_deviation <= 1e-6 * abs(split.mean)

    @pytest.mark.parametrize("fig", ["fig3", "fig4"])
    def test_split_closer_than_one_block_at_large_kappa(self, monkeypatch, fig):
        # At kappa = 100, I - kappa M has condition number 2e3 and the current
        # is a small gradient of the lattice diagonal, so the one-block solve
        # is itself 7e-9 (fig3) and 1.5e-8 (fig4) from the refined current,
        # and the split 7e-10 and 1e-10: each is held against the refined
        # current instead of against the other.
        kappa = 100.0
        cfg = parse_config((CONFIGS / f"{fig}.json").read_text())
        sys = cfg.build_system()
        rho = solve_quietly(sys, kappa)[0]
        split = current_profile(rho, sys)
        exact = current_profile(refined(sys, kappa, rho), sys).mean
        monkeypatch.setattr(master_eq, "_mirror_split", one_block)
        whole_sys = cfg.build_system()
        assert _SylvesterFactorization(whole_sys, kappa).sectors.block_sizes == (88,)
        whole = current_profile(solve_quietly(whole_sys, kappa)[0], whole_sys).mean
        assert abs(split.mean - exact) <= abs(whole - exact)
        assert split.max_deviation <= 1e-6 * abs(split.mean)

    @pytest.mark.parametrize(
        "name",
        [
            "fig2",
            "fig4",
            # the half lattice (23 sites) is not a multiple of the chunk
            "fig3",
            # two blocks, neither folded
            "fig1-gate0.3",
            # half lattices smaller than one chunk
            "ssh-chain",
            "rhombic-chain-at-pi",
            "odd-uniform-chain",
            "rhombic-unequal-flux",
        ],
    )
    def test_folded_dephasing_map(self, monkeypatch, name):
        # M against its definition, one unit source per lattice site, with
        # the chiral fold where it holds and then with it disabled; each
        # source's escape against what the leads relax of its solution
        folds = name in ("fig2", "ssh-chain", "rhombic-chain-at-pi")
        for fold in (True, False):
            if not fold:
                monkeypatch.setattr(master_eq, "_chiral_fold", no_fold)
            sys = named_system(name)
            fact = _SylvesterFactorization(sys, 0.01)
            assert fact.folded == (fold and folds)
            latt = np.flatnonzero(sys.lattice_mask)
            leads = ~sys.lattice_mask
            if name == "rhombic-unequal-flux":
                assert fact.sectors.block_sizes == (16,)
            else:
                assert len(fact.sectors.block_sizes) == 2
            direct = np.empty((latt.size, latt.size))
            relaxed = np.empty(latt.size)
            for j, site in enumerate(latt):
                source = np.zeros((sys.size, sys.size), dtype=complex)
                source[site, site] = 1.0
                x = np.real(np.diag(fact.back(fact.rotate(source))))
                direct[:, j] = x[latt]
                relaxed[j] = sys.gamma_by_index[leads] @ x[leads]
            folded, escape = fact.dephasing_map()
            assert np.abs(folded - direct).max() <= 1e-12 * np.abs(direct).max()
            assert np.abs(escape - relaxed).max() <= 1e-13

    @pytest.mark.parametrize("name", ["fig2", "fig4", "rhombic-unequal-flux"])
    def test_lattice_diagonal_from_the_ring_columns(self, name):
        # d0 read from the drive's ring columns and v's lattice rows, against
        # the full N x N solve
        if name.startswith("fig"):
            sys = parse_config((CONFIGS / f"{name}.json").read_text()).build_system()
        else:
            sys = mirror_test_system(name)
        fact = _SylvesterFactorization(sys, 0.01)
        latt = np.flatnonzero(sys.lattice_mask)
        t = fact.vinv @ sys.drive @ fact.vinv.conj().T
        full = fact.v @ (t * fact.inv_denom) @ fact.v.conj().T
        expected = np.real(np.diag(full))[latt]
        d0 = fact.lattice_diagonal(fact.rotate(sys.drive))
        assert np.abs(d0 - expected).max() <= 1e-14


class TestIndexMaps:
    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4", *MIRROR_CASES])
    def test_blocks_are_index_maps(self, name):
        # each block keeps its basis Q_s as one entry per site row; built
        # densely from those entries here, the blocks are orthonormal, leave
        # out exactly the ring-odd block, decouple A_0 and give B_s, and the
        # factorization's gathers equal the products Q_s V_s and
        # V_s^-1 Q_s^dag
        sys = named_system(name)
        n, kappa = sys.size, 0.01
        sectors = master_eq._sectors(sys)
        fact = _SylvesterFactorization(sys, kappa)
        gate = sys.lattice.gate_offset
        a0 = 1j * (sys.h_total - gate * np.diag(sys.lattice_mask)) + np.diag(0.5 * sys.gamma_by_index)
        z = complex(0.5 * kappa, gate)
        qs, start = [], 0
        for k, (col, w, b_s, lat_s) in enumerate(sectors.blocks):
            assert col.shape == w.shape == (n,)
            q_s = np.zeros((n, b_s.shape[0]), dtype=complex)
            q_s[np.arange(n), col] = w
            qs.append(q_s)
            assert np.abs(q_s.conj().T @ a0 @ q_s - b_s).max() <= 1e-14
            if fact.folded and k == 1:
                # the + block's eigenvectors mapped by C x = c * conj(x), in
                # this block's basis: the gathers then equal Q_- V_- only if
                # C maps them into the span of Q_-
                c = sectors.chiral
                v = q_s.conj().T @ (c[:, None] * (qs[0] @ v).conj())
                vinv = ((vinv @ qs[0].conj().T).conj() * c.conj()) @ q_s
            else:
                a_s = b_s.copy()
                a_s[lat_s, lat_s] += z
                v = np.linalg.eig(a_s)[1]
                vinv = np.linalg.inv(v)
            cols = slice(start, start + b_s.shape[0])
            start = cols.stop
            assert np.abs(fact.v[:, cols] - q_s @ v).max() <= 1e-15 * np.abs(v).max()
            assert np.abs(fact.vinv[cols] - vinv @ q_s.conj().T).max() <= 1e-15 * np.abs(vinv).max()
        q = np.hstack(qs)
        assert start == q.shape[1] == fact.v.shape[1]
        assert np.abs(q.conj().T @ q - np.eye(q.shape[1])).max() <= 1e-14
        kept = np.eye(n) - (odd_projector(sys) if q.shape[1] < n else 0.0)
        assert np.abs(q @ q.conj().T - kept).max() <= 1e-14
        if len(qs) == 2:
            assert np.abs(qs[0].conj().T @ a0 @ qs[1]).max() <= 1e-14


# the systems whose mirror blocks the chiral fold serves by one eigendecomposition
FOLDING = ["fig1", "fig2", "ssh-chain", "both-contacts-at-site-1", "rhombic-chain-at-pi"]


class TestChiralFold:
    @pytest.mark.parametrize("name", FOLDING)
    def test_minus_block_is_the_site_phase_map(self, name):
        # the - columns of v, the - rows of vinv and lam_- are the map
        # x -> c * conj(x) of the + block, to the bit, and each - column is an
        # eigenvector of A at its eigenvalue
        sys = named_system(name)
        kappa = 0.01
        fact = _SylvesterFactorization(sys, kappa)
        assert fact.folded
        c = master_eq._sectors(sys).chiral
        assert np.abs(np.abs(c) - 1.0).max() <= 1e-15
        n_e = fact.sectors.block_sizes[0]
        plus, minus = slice(0, n_e), slice(n_e, None)
        assert fact.lam[minus].tobytes() == fact.lam[plus].conj().tobytes()
        assert fact.v[:, minus].tobytes() == (c[:, None] * fact.v[:, plus].conj()).tobytes()
        assert fact.vinv[minus].tobytes() == (fact.vinv[plus].conj() * c.conj()).tobytes()
        a = 1j * sys.h_total + np.diag(0.5 * (sys.gamma_by_index + kappa * sys.lattice_mask))
        v = fact.v[:, minus]
        assert np.abs(a @ v - v * fact.lam[minus]).max() <= 1e-13

    @pytest.mark.parametrize("name", ["square-plaquette", "mirrored-onsite", "rhombic-chain"])
    def test_refused(self, name):
        # the square's sublattice sign is a symmetry of A_0 but maps each
        # mirror block onto itself; an on-site term or a flux off pi leaves no
        # phases c with c conj(A_0) conj(c) = A_0, which _gauge reports as None
        sys = mirror_test_system(name)
        sectors = master_eq._sectors(sys)
        assert sectors.block_sizes == MIRROR_CASES[name][0]
        assert sectors.chiral is None
        assert not _SylvesterFactorization(sys, 0.01).folded
        gate = sys.lattice.gate_offset
        a0 = 1j * (sys.h_total - gate * np.diag(sys.lattice_mask)) + np.diag(0.5 * sys.gamma_by_index)
        c = master_eq._gauge(a0, a0.conj(), 1e-12)
        assert (c is not None) == (name == "square-plaquette")


class TestLatticeSystem:
    @pytest.mark.parametrize("kappa", [1e-3, 1.0, 100.0])
    @pytest.mark.parametrize("fig", ["fig2", "fig4"])
    def test_column_sum_identity(self, fig, kappa):
        # tr(A X_j + X_j A^dag) = 1 for X_j = back(rotate(|j><j|)): the leads relax
        # what the dephasing does not feed back, e_j = 1 - kappa sum_i M_ij,
        # and the columns of the lattice system sum to e_j
        sys = named_system(fig)
        fact = _SylvesterFactorization(sys, kappa)
        m, escape = fact.dephasing_map()
        assert np.abs(escape + kappa * m.sum(axis=0) - 1.0).max() <= 5e-12
        k = fact.shift
        assert np.abs(k.sum(axis=0) - escape).max() <= 1e-12 * max(1.0, kappa)
        off = ~np.eye(fact.latt.size, dtype=bool)
        assert np.array_equal(k[off], -kappa * m[off])

    @pytest.mark.parametrize("fig", ["fig2", "fig4"])
    def test_conservation_at_large_kappa(self, fig):
        # kappa M_jj -> 1 at large kappa, where 1 - kappa M_jj would cancel:
        # the escape form of the diagonal keeps the current the same through
        # every cut (relative spread 8e-7 on fig2 with 1 - kappa M_jj)
        sys = named_system(fig)
        rho, _ = solve_quietly(sys, 100.0)
        prof = current_profile(rho, sys)
        assert prof.max_deviation <= 1e-8 * abs(prof.mean)


class TestSharedSectors:
    def test_one_structure_per_sweep(self, monkeypatch, tmp_path):
        # a sweep assembles one system and finds its blocks and chiral phases
        # once, serial or pooled
        calls = {"assemble": 0, "split": 0, "fold": 0}

        def counted(name, f):
            def call(*args):
                calls[name] += 1
                return f(*args)

            return call

        monkeypatch.setattr(config, "assemble_composite", counted("assemble", assemble_composite))
        monkeypatch.setattr(master_eq, "_mirror_split", counted("split", master_eq._mirror_split))
        monkeypatch.setattr(master_eq, "_chiral_fold", counted("fold", master_eq._chiral_fold))
        fig4 = parse_config((CONFIGS / "fig4.json").read_text())
        sweep_decoherence(fig4, np.logspace(-3, 1, 5))
        assert calls == {"assemble": 1, "split": 1, "fold": 1}
        fig1 = parse_config((CONFIGS / "fig1.json").read_text())
        gates = np.linspace(-0.3, 0.3, 7)
        for parallel in (1, 3):
            calls.update(assemble=0, split=0, fold=0)
            table = sweep_gate(fig1, gates, parallel=parallel)
            assert calls == {"assemble": 1, "split": 1, "fold": 1}
            assert table.extra_columns["converged"].all()
            write_sweep_csv(table, tmp_path / f"parallel{parallel}.csv")
        assert (tmp_path / "parallel1.csv").read_bytes() == (tmp_path / "parallel3.csv").read_bytes()

    @pytest.mark.parametrize(
        "fig, kappa, axis",
        [
            ("fig1", None, (-0.3, 0.0, 0.37)),
            ("fig1", 0.002, (-0.3, 0.0, 0.37)),
            ("fig4", None, (1e-3, 1.0, 10.0)),
        ],
    )
    def test_shared_rows_match_fresh_systems(self, fig, kappa, axis):
        # each row's current is that of a freshly assembled system, to the bit;
        # each fresh solve holds BLAS at one thread, as the sweep does
        cfg = parse_config((CONFIGS / f"{fig}.json").read_text())
        if fig == "fig1":
            table = sweep_gate(cfg, axis, kappa, parallel=2)
            kappa = cfg.decoherence if kappa is None else kappa
            rows = [(gate, kappa) for gate in axis]
        else:
            table = sweep_decoherence(cfg, axis, parallel=2)
            rows = [(None, k) for k in axis]
        for (gate, k), shared in zip(rows, table.current):
            sys = cfg.build_system(gate=gate)
            rho, _ = solve_steady_state(sys, k)
            assert shared == current_profile(rho, sys).mean

    @pytest.mark.parametrize("fig", ["fig1", "fig3"])
    def test_at_gate_matches_assembly(self, fig):
        # a row derived from the assembled system holds the bytes a fresh
        # assembly at its gate holds, and carries the one structure
        cfg = parse_config((CONFIGS / f"{fig}.json").read_text())
        base = cfg.build_system()
        h_base = base.h_total.copy()
        assert base._sectors is None
        for gate in cfg.sweep.materialize():
            row = at_gate(base, gate)
            fresh = cfg.build_system(gate=gate)
            assert row.h_total.tobytes() == fresh.h_total.tobytes()
            assert row.lattice.hamiltonian.tobytes() == fresh.lattice.hamiltonian.tobytes()
            assert row.lattice.gate_offset == fresh.lattice.gate_offset
            assert row._sectors is base._sectors is not None
        assert base.h_total.tobytes() == h_base.tobytes()

    def test_edit_in_place_is_refused(self):
        # the structure kept on sys is stale once h_total is edited in place;
        # the residual reads h_total afresh and refuses the solve, and a copy
        # made by dataclasses.replace solves to the oracle's state
        def build():
            leads = RingLead(size=8, mu=0.1), RingLead(size=8, mu=-0.1)
            return assemble_composite(build_ssh(4, 0.5, 1.0), *leads, 0.2)

        sys = build()
        solve_steady_state(sys, 0.01)
        sys.h_total[1, 2] = sys.h_total[2, 1] = -0.9
        with pytest.raises(SolverError) as err:
            solve_steady_state(sys, 0.01)
        assert err.value.diagnostics.residual > 1e-3
        fresh = build()
        fresh.h_total[1, 2] = fresh.h_total[2, 1] = -0.9
        full = full_linear_solve(fresh, 0.01)
        rho, _ = solve_steady_state(dataclasses.replace(sys), 0.01)
        assert np.abs(rho - full).max() <= 1e-10

    @pytest.mark.parametrize("name", ["unequal-gammas", "custom-onsite"])
    def test_replace_rederives_the_structure(self, name):
        # a mirror-symmetric system is solved, which builds its two blocks,
        # then a replace breaks the mirror as MIRROR_CASES[name] does: the
        # copy must not inherit the split
        leads = RingLead(size=4, mu=0.3, beta=5.0), RingLead(size=4, mu=-0.02, beta=5.0)
        if name == "unequal-gammas":
            lattice = build_ssh(4, 0.5, 1.0)
        else:
            lattice = build_custom(-0.5 * (np.eye(4, k=1) + np.eye(4, k=-1)))
        sys = assemble_composite(lattice, *leads, 0.2)
        solve_quietly(sys, 0.01)
        assert _SylvesterFactorization(sys, 0.01).sectors.block_sizes == (5, 5)
        if name == "unequal-gammas":
            gamma = sys.gamma_by_index.copy()
            gamma[sys.index_map.right] = 0.08
            sys = dataclasses.replace(sys, gamma_by_index=gamma, drive=gamma[:, None] * sys.target)
        else:
            h = sys.h_total.copy()
            h[1, 1] += 0.1
            sys = dataclasses.replace(sys, h_total=h)
        broken = mirror_test_system(name)
        for field in ("h_total", "gamma_by_index", "drive"):
            assert_allclose(getattr(sys, field), getattr(broken, field), rtol=0, atol=1e-15)
        blocks, _, kappas = MIRROR_CASES[name]
        assert blocks == (10,)
        for kappa in kappas:
            assert _SylvesterFactorization(sys, kappa).sectors.block_sizes == blocks
            rho, _ = solve_quietly(sys, kappa)
            full = oracle_quietly(sys, kappa)
            assert_allclose(rho, full, atol=1e-10)


def kappa_derivative(sys, kappa):
    """(rho, rho') with rho' = d rho/d kappa = L^-1(-D rho), through the solver's affine solve.

    Differentiating L(kappa) rho = -drive gives L rho' = -D rho with
    D rho = diag_P(rho) - (P rho + rho P)/2, P the lattice projector.
    """
    rho = solve_quietly(sys, kappa)[0]
    fact = _SylvesterFactorization(sys, kappa)
    p = sys.lattice_mask.astype(float)
    source = -0.5 * (p[:, None] * rho + rho * p)
    source[fact.latt, fact.latt] += rho[fact.latt, fact.latt].real
    return rho, fact.apply(source)


def current(sys, kappa):
    return current_profile(solve_quietly(sys, kappa)[0], sys).mean


class TestAffineSolve:
    @pytest.mark.parametrize("fig, kappa", [("fig1", 0.002), ("fig2", 1e-3), ("fig4", 0.01)])
    def test_kappa_derivative_matches_central_differences(self, fig, kappa):
        # at h = 1e-3 kappa the difference quotient is 3e-10 to 1.1e-9 from rho'
        sys = named_system(fig)
        _, deriv = kappa_derivative(sys, kappa)
        prof = current_profile(deriv, sys)
        h = 1e-3 * kappa
        fd = (current(sys, kappa + h) - current(sys, kappa - h)) / (2 * h)
        assert abs(prof.mean - fd) <= 1e-8 * abs(fd)
        assert prof.max_deviation <= 1e-12 * abs(prof.mean)

    def test_kappa_derivative_at_zero_matches_forward_differences(self):
        # the forward difference is off by h j''/2, 2.3e-6 of j' at h = 1e-7;
        # fig3 and fig4 hold dark sectors at kappa = 0 and are left out
        sys = named_system("fig1")
        _, deriv = kappa_derivative(sys, 0.0)
        prof = current_profile(deriv, sys)
        h = 1e-7
        fd = (current(sys, h) - current(sys, 0.0)) / h
        assert prof.mean == pytest.approx(0.168877, rel=1e-5)
        assert abs(prof.mean - fd) <= 3e-6 * abs(fd)
        assert prof.max_deviation <= 1e-12 * abs(prof.mean)

    @pytest.mark.parametrize(
        "name, low, high",
        [("fig1", 1e3, np.inf), ("fig1-gate0.3", 0.0, 1e2), ("trivial", 0.0, 1e2)],
        ids=["fig1", "fig1-gate0.3", "trivial"],
    )
    def test_edge_states_amplify_weak_dephasing(self, name, low, high):
        # (dj/dkappa)/j at kappa = 0: 1.02e4 through the edge states of fig1,
        # 5.9 once the gate moves them off the window and 14.3 on the
        # trivial chain, which has none
        if name == "trivial":
            cfg = parse_config((CONFIGS / "fig1.json").read_text())
            lattice = dataclasses.replace(cfg.lattice, J=0.5, J_tilde=1.0)
            sys = dataclasses.replace(cfg, lattice=lattice).build_system()
        else:
            sys = named_system(name)
        rho, deriv = kappa_derivative(sys, 0.0)
        gain = current_profile(deriv, sys).mean / current_profile(rho, sys).mean
        assert low < gain <= high

    @pytest.mark.parametrize("kappa", [0.01, 3.0])
    @pytest.mark.parametrize(
        "name", ["rings-5-8", "ssh-chain", "odd-uniform-chain", "rhombic-chain", "random-lead-block"]
    )
    def test_apply_matches_superoperator(self, name, kappa):
        # X = L^-1(-S) for a random Hermitian source, against a dense solve of
        # L vec(X) = -vec(S); where the ring-odd block is dropped the source
        # is taken in the blocks kept
        if name == "rings-5-8":
            sys = two_ring_system(5, 8, beta=5.0)
        elif name == "random-lead-block":
            sys = without_reflection(name)
        else:
            sys = mirror_test_system(name)
        n = sys.size
        assert n <= 40
        fact = _SylvesterFactorization(sys, kappa)
        kept = np.eye(n) - (odd_projector(sys) if fact.v.shape[1] < n else 0.0)
        source = kept @ random_hermitian(n, seed=23) @ kept
        dense = np.linalg.solve(build_superoperator(sys, kappa), -source.reshape(-1))
        dense = dense.reshape(n, n)
        assert np.abs(fact.apply(source) - dense).max() <= 1e-12 * np.abs(dense).max()
