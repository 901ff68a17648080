import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from edgesense.lattice import build_rhombic
from edgesense.leads import CompositeSystem, IndexMap, RingLead, assemble_composite
from edgesense.master_eq import (
    SPDM,
    DegenerateSteadyStateWarning,
    SolverConfig,
    SolverError,
    SolverMethod,
    apply_liouvillian,
    build_superoperator,
    propagate,
    solve_steady_state,
    spdm_to_json,
)

from conftest import MU_BIAS, make_ssh_system


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
        epsilon=0.0,
        lattice=None,
        left=None,
        right=None,
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


class TestGenerator:
    def test_superoperator_matches_elementwise_action(self):
        sys = make_ssh_system(length=4, ring=4)
        rho = random_hermitian(sys.size, seed=3)
        for kappa in (0.0, 0.07):
            lin = build_superoperator(sys, kappa)
            direct = apply_liouvillian(sys, rho, kappa)
            vec = (lin @ rho.reshape(-1) + sys.drive.reshape(-1)).reshape(sys.size, sys.size)
            assert_allclose(vec, direct, atol=1e-12)

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

    def test_disconnected_thermal_state_is_stationary(self):
        sys = make_ssh_system(epsilon=0.0)
        assert np.abs(apply_liouvillian(sys, sys.target, 0.0)).max() < 1e-13


class TestPropagate:
    def test_zero_time_is_identity(self, small_system):
        rho0 = SPDM(matrix=random_hermitian(20, seed=5), time=1.5)
        out = propagate(small_system, rho0, 0.1, 0.0)
        assert out.time == 1.5
        assert_allclose(out.matrix, rho0.matrix, atol=0)
        assert out.matrix is not rho0.matrix

    def test_negative_time_rejected(self, small_system):
        with pytest.raises(ValueError, match="non-negative"):
            propagate(small_system, SPDM(matrix=np.zeros((20, 20))), 0.0, -1.0)

    def test_lead_relaxation_rate(self):
        # with epsilon=0 a lead-block deviation decays as exp(-gamma t) in
        # Frobenius norm: the unitary part preserves the norm exactly
        sys = make_ssh_system(epsilon=0.0, gamma=0.05)
        m = sys.index_map
        delta = 0.1 * random_hermitian(m.n_left, seed=9)
        rho0 = sys.target.copy()
        rho0[m.left, m.left] += delta
        t = 7.0
        out = propagate(sys, SPDM(matrix=rho0), 0.0, t, step_tol=1e-12)
        dev = out.matrix - sys.target
        assert np.abs(dev[m.lattice, m.lattice]).max() < 1e-10
        norm = np.linalg.norm(dev[m.left, m.left])
        assert_allclose(norm, math.exp(-0.05 * t) * np.linalg.norm(delta), rtol=1e-6)

    def test_pure_dephasing_closed_form(self):
        sys = dephasing_free_system()
        m = sys.index_map
        kappa, t = 0.8, 2.5
        rho0 = random_hermitian(sys.size, seed=21)
        out = propagate(sys, SPDM(matrix=rho0), kappa, t, step_tol=1e-12)
        chi = sys.lattice_mask.astype(float)
        decay = np.exp(-0.5 * kappa * t * (chi[:, None] + chi[None, :]))
        expected = rho0 * decay
        # the lattice diagonal is immune: dephasing only kills coherences
        for p in range(m.n_lattice):
            expected[p, p] = rho0[p, p]
        assert_allclose(out.matrix, expected, atol=1e-9)

    def test_long_march_reaches_steady_state(self):
        # strong contact and lead relaxation: every mode damps at >= 0.075,
        # so t=400 leaves a transient below 1e-13
        sys = make_ssh_system(gamma=0.4, epsilon=1.0)
        cfg = SolverConfig(method=SolverMethod.FULL_LINEAR)
        exact, _ = solve_steady_state(sys, 0.01, cfg)
        out = propagate(sys, SPDM(matrix=sys.target.copy()), 0.01, 400.0)
        assert_allclose(out.matrix, exact.matrix, atol=1e-8)

    def test_trajectory_stays_physical(self, small_system):
        state = SPDM(matrix=small_system.target.copy())
        for _ in range(3):
            state = propagate(small_system, state, 0.01, 5.0)
            assert_allclose(state.matrix, state.matrix.conj().T, atol=1e-14)
            state.validate(tol=1e-6)
        assert state.time == pytest.approx(15.0)


class TestSteadyState:
    def test_direct_methods_agree(self, small_system):
        for kappa in (0.0, 0.002):
            syl, d1 = solve_steady_state(small_system, kappa)
            full, d2 = solve_steady_state(
                small_system, kappa, SolverConfig(method=SolverMethod.FULL_LINEAR)
            )
            assert d1.method is SolverMethod.SYLVESTER
            assert d2.method is SolverMethod.FULL_LINEAR
            assert d1.converged and d2.converged
            assert d1.residual < 1e-9 and d2.residual < 1e-9
            assert_allclose(syl.matrix, full.matrix, atol=1e-9)

    def test_time_march_unique_limit(self):
        # marching from the thermal target and from the empty state must
        # reach one limit, and that limit is the Sylvester steady state;
        # every mode of this system damps at >= 0.075, so t=400 suffices
        sys = make_ssh_system(gamma=0.4, epsilon=1.0)
        ref, _ = solve_steady_state(sys, 0.01)
        a = propagate(sys, SPDM(matrix=sys.target.copy()), 0.01, 400.0)
        b = propagate(sys, SPDM(matrix=np.zeros_like(sys.target)), 0.01, 400.0)
        assert_allclose(a.matrix, b.matrix, atol=1e-8)
        assert_allclose(a.matrix, ref.matrix, atol=1e-8)

    def test_infinite_temperature_gives_half_filling(self):
        sys = make_ssh_system(beta=0.0)
        for kappa in (0.0, 0.05):
            rho, _ = solve_steady_state(sys, kappa)
            assert_allclose(rho.matrix, 0.5 * np.eye(20), atol=1e-10)

    def test_dark_sector_minimal_norm(self):
        # at flux pi every rhombic eigenstate is caged, so undamped pairs
        # survive at kappa=0 and the stationary state is not unique
        lat = build_rhombic(15, 1.0, math.pi)
        sys = assemble_composite(lat, RingLead(size=12, mu=0.1), RingLead(size=12, mu=-0.1), 0.2)
        with pytest.warns(DegenerateSteadyStateWarning, match="dissipation-free"):
            rho, diag = solve_steady_state(sys, 0.0)
        assert diag.converged
        assert diag.residual < 1e-9
        rho.validate(tol=1e-6)

    def test_disconnected_device_warns(self):
        sys = make_ssh_system(epsilon=0.0)
        with pytest.warns(DegenerateSteadyStateWarning, match="epsilon=0"):
            solve_steady_state(sys, 0.01)

    def test_full_linear_size_gate(self):
        sys = make_ssh_system(length=30, ring=8)
        with pytest.raises(ValueError, match="gated"):
            solve_steady_state(sys, 0.0, SolverConfig(method=SolverMethod.FULL_LINEAR))

    def test_solver_config_validation(self, small_system):
        with pytest.raises(ValueError):
            SolverConfig(residual_tol=-1e-9)
        with pytest.raises(ValueError):
            SolverConfig(residual_tol=0.0)
        rho0 = SPDM(matrix=small_system.target.copy())
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
        assert not diag.converged
        assert diag.residual > 1e-30
        assert diag.method is SolverMethod.SYLVESTER

    @pytest.mark.filterwarnings("ignore::edgesense.master_eq.DegenerateSteadyStateWarning")
    @pytest.mark.parametrize("corner", list(CORNERS))
    def test_sylvester_converges_at_corners(self, corner):
        build, kappa = CORNERS[corner]
        cfg = SolverConfig()
        _, diag = solve_steady_state(build(), kappa, cfg)
        assert diag.converged
        assert diag.residual <= cfg.residual_tol

    def test_steady_state_linear_in_drive(self, small_system):
        rho1, _ = solve_steady_state(small_system, 0.003)
        scaled = dataclasses.replace(
            small_system, target=2.5 * small_system.target, drive=2.5 * small_system.drive
        )
        rho2, _ = solve_steady_state(scaled, 0.003)
        assert_allclose(rho2.matrix, 2.5 * rho1.matrix, atol=1e-10)

    def test_solution_is_stationary_and_physical(self, small_system):
        rho, diag = solve_steady_state(small_system, 0.002)
        assert np.abs(apply_liouvillian(small_system, rho.matrix, 0.002)).max() < 1e-9
        rho.validate(tol=1e-8)
        assert rho.time == np.inf
        assert diag.wall_time >= 0.0

    def test_spdm_json_payload(self, small_system):
        rho, _ = solve_steady_state(small_system, 0.0)
        payload = json.loads(spdm_to_json(rho))
        assert payload["N"] == 20
        assert payload["index_map"] == ["lattice"] * 4 + ["left_lead"] * 8 + ["right_lead"] * 8
        assert len(payload["matrix"]) == 400
        re, im = payload["matrix"][0]
        assert_allclose(complex(re, im), rho.matrix[0, 0], atol=0)
        bare = json.loads(spdm_to_json(SPDM(matrix=np.eye(2, dtype=complex))))
        assert bare["index_map"] is None
