import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from edgesense.lattice import (
    Lattice,
    build_custom,
    build_rhombic,
    build_ssh,
    classify_edge_states,
    spectrum,
)

# Decay length of the dimerized edge state: |psi|^2 drops by (0.5/1.0)^2 per
# two-site cell, so the per-site intensity slope is -ln 2.
XI_DIMERIZED = 2.0 / math.log(2.0)


class TestDimerizedChain:
    def test_matrix_structure(self):
        lat = build_ssh(6, 0.5, 1.0)
        h = lat.hamiltonian
        assert h.shape == (6, 6)
        assert_allclose(h, h.conj().T, atol=0)
        assert_allclose(np.diag(h), np.zeros(6), atol=0)
        # bonds alternate weak, strong, weak, ... with the weak value at both ends
        off = np.diag(h, k=1)
        assert_allclose(off, [-0.25, -0.5, -0.25, -0.5, -0.25], atol=0)

    def test_band_interval_and_chiral_symmetry(self):
        lat = build_ssh(60, 0.5, 1.0)
        energies, _ = spectrum(lat)
        # spectrum mirrors around zero (bipartite chain)
        assert_allclose(energies, -energies[::-1], atol=1e-10)
        bulk = energies[np.abs(energies) > 0.05]
        assert bulk.size == 58
        assert np.abs(bulk).min() > 0.25 - 1e-3
        assert np.abs(bulk).max() < 0.75 + 1e-12

    def test_gate_rigid_shift(self):
        e0, _ = spectrum(build_ssh(20, 0.5, 1.0))
        e1, _ = spectrum(build_ssh(20, 0.5, 1.0, gate=0.37))
        assert_allclose(e1, e0 + 0.37, atol=1e-12)

    def test_edge_pair_classification(self):
        lat = build_ssh(60, 0.5, 1.0)
        energies, states = spectrum(lat)
        reports = classify_edge_states(energies, states, (-0.2, 0.2))
        assert len(reports) == 2
        assert {r.side for r in reports} == {"left", "right"}
        for r in reports:
            assert abs(r.energy) < 1e-6
            assert_allclose(r.localization_length, XI_DIMERIZED, rtol=0.01)
            assert r.ipr > 0.1

    def test_end_weight_concentration(self):
        # geometric envelope: weight within 10 sites of the end is
        # 1 - (0.5/1.0)^10 = 0.999023
        lat = build_ssh(60, 0.5, 1.0)
        energies, states = spectrum(lat)
        reports = classify_edge_states(
            energies, states, (-0.2, 0.2), threshold=0.99, end_sites=10
        )
        assert len(reports) == 2

    def test_uniform_chain_has_no_edge_states(self):
        lat = build_ssh(60, 1.0, 1.0)
        energies, states = spectrum(lat)
        assert classify_edge_states(energies, states, (-0.2, 0.2)) == []

    def test_odd_length_rejected_unless_forced(self):
        with pytest.raises(ValueError, match="odd length"):
            build_ssh(7, 0.5, 1.0)
        lat = build_ssh(7, 0.5, 1.0, allow_odd_length=True)
        energies, states = spectrum(lat)
        reports = classify_edge_states(energies, states, (-0.2, 0.2), end_sites=3)
        assert [r.side for r in reports] == ["left"]

    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_ssh(1, 0.5, 1.0)
        with pytest.raises(ValueError, match="positive"):
            build_ssh(4, 0.0, 1.0)


class TestRhombicChain:
    def test_geometry_and_cuts(self):
        lat = build_rhombic(15, 1.0, math.pi - 0.4)
        assert lat.n_sites == 46
        assert lat.site_labels[0] == "A1"
        assert lat.site_labels[-1] == "A16"
        assert len(lat.cuts) == 30
        assert all(len(cut.bonds) == 2 for cut in lat.cuts)

    def test_arm_termination_geometry(self):
        lat = build_rhombic(15, 1.0, math.pi, termination="arm")
        assert lat.n_sites == 50
        assert "B0" in lat.site_labels and "C16" in lat.site_labels

    def test_plaquette_flux(self):
        flux = math.pi - 0.4
        lat = build_rhombic(4, 1.0, flux)
        h = lat.hamiltonian
        idx = {label: i for i, label in enumerate(lat.site_labels)}
        # directed loop A1 -> B1 -> A2 -> C1 -> A1 picks up the full flux
        loop = (
            h[idx["B1"], idx["A1"]]
            * h[idx["A2"], idx["B1"]]
            * h[idx["C1"], idx["A2"]]
            * h[idx["A1"], idx["C1"]]
        )
        assert_allclose(np.angle(loop), flux, atol=1e-12)

    def test_flux_periodic_mod_two_pi(self):
        a = build_rhombic(5, 1.0, 0.7)
        b = build_rhombic(5, 1.0, 0.7 + 2 * math.pi)
        assert_allclose(a.hamiltonian, b.hamiltonian, atol=1e-12)

    def test_dispersive_band_edges(self):
        # Bloch bands E = +-J sqrt(1 + cos(flux/2) cos q), so the dispersive
        # states fill +-[sqrt(1-|cos(flux/2)|), sqrt(1+|cos(flux/2)|)]
        flux = math.pi - 0.4
        lat = build_rhombic(15, 1.0, flux)
        energies, _ = spectrum(lat)
        inner = math.sqrt(1.0 - abs(math.cos(flux / 2)))
        outer = math.sqrt(1.0 + abs(math.cos(flux / 2)))
        assert_allclose(inner, 0.895171, atol=1e-6)
        assert_allclose(outer, 1.094838, atol=1e-6)
        dispersive = energies[np.abs(energies) > inner - 1e-9]
        assert dispersive.size == 28
        assert np.abs(dispersive).max() < outer + 1e-9
        assert np.abs(dispersive).min() > inner - 1e-9

    def test_full_caging_at_pi_hub(self):
        lat = build_rhombic(15, 1.0, math.pi)
        energies, _ = spectrum(lat)
        targets = np.array([-1.0, -math.sqrt(0.5), 0.0, math.sqrt(0.5), 1.0])
        dist = np.abs(energies[:, None] - targets[None, :]).min(axis=1)
        assert dist.max() < 1e-10
        assert np.sum(np.abs(np.abs(energies) - math.sqrt(0.5)) < 1e-10) == 4

    def test_full_caging_at_pi_arm(self):
        lat = build_rhombic(15, 1.0, math.pi, termination="arm")
        energies, _ = spectrum(lat)
        targets = np.array([-1.0, 0.0, 1.0])
        dist = np.abs(energies[:, None] - targets[None, :]).min(axis=1)
        assert dist.max() < 1e-10

    def test_hub_compact_state_weights(self):
        lat = build_rhombic(15, 1.0, math.pi)
        energies, states = spectrum(lat)
        reports = classify_edge_states(energies, states, (0.01, 0.99))
        assert len(reports) == 2
        assert {r.side for r in reports} == {"left", "right"}
        for r in reports:
            assert_allclose(r.energy, math.sqrt(0.5), atol=1e-10)
            assert r.localization_length < 1.0
        # the degenerate pair spans one compact mode per end; its projector
        # puts 1/2 on each terminal hub and 1/4 on each attached arm site
        deg = np.flatnonzero(np.abs(energies - math.sqrt(0.5)) < 1e-10)
        assert deg.size == 2
        proj = np.real(np.einsum("ij,ij->i", states[:, deg], states[:, deg].conj()))
        idx = {label: i for i, label in enumerate(lat.site_labels)}
        support = ["A1", "B1", "C1", "A16", "B15", "C15"]
        expected = np.zeros(lat.n_sites)
        expected[[idx[s] for s in support]] = [0.5, 0.25, 0.25, 0.5, 0.25, 0.25]
        assert_allclose(proj, expected, atol=1e-10)

    def test_hub_in_gap_quartet_off_pi(self):
        lat = build_rhombic(15, 1.0, math.pi - 0.4)
        energies, _ = spectrum(lat)
        in_gap = energies[(np.abs(energies) > 0.05) & (np.abs(energies) < 0.85)]
        assert in_gap.size == 4
        assert_allclose(np.sort(np.abs(in_gap)), 0.693011723, atol=1e-8)

    def test_arm_termination_has_no_in_gap_states_off_pi(self):
        lat = build_rhombic(15, 1.0, math.pi - 0.4, termination="arm")
        energies, _ = spectrum(lat)
        in_gap = energies[(np.abs(energies) > 0.05) & (np.abs(energies) < 0.85)]
        assert in_gap.size == 0


class TestGenericLattice:
    def test_gauge_conjugation_preserves_spectrum(self):
        rng = np.random.default_rng(7)
        lat = build_rhombic(6, 1.0, 2.3, gate=0.1)
        u = np.exp(1j * rng.uniform(0.0, 2 * math.pi, lat.n_sites))
        hop = lat.hamiltonian - 0.1 * np.eye(lat.n_sites)
        gauged = build_custom(u[:, None] * hop * u.conj()[None, :], gate=0.1)
        e0, _ = spectrum(lat)
        e1, _ = spectrum(gauged)
        assert_allclose(e1, e0, atol=1e-12)

    def test_custom_rejects_diagonal_and_nonhermitian(self):
        with pytest.raises(ValueError, match="diagonal"):
            build_custom(np.eye(3, dtype=complex))
        bad = np.zeros((3, 3), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            build_custom(bad)

    def test_eigenbasis_is_orthonormal(self):
        lat = build_rhombic(8, 1.3, 1.1, gate=-0.2)
        energies, states = spectrum(lat)
        assert_allclose(states.conj().T @ states, np.eye(lat.n_sites), atol=1e-12)
        resid = lat.hamiltonian @ states - states * energies[None, :]
        assert np.abs(resid).max() < 1e-10

    def test_validate_rejects_tampered_matrix(self):
        lat = build_ssh(4, 0.5, 1.0)
        lat.hamiltonian[0, 0] = 0.3
        with pytest.raises(ValueError, match="gate offset"):
            lat.validate()
