import dataclasses
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from edgesense.config import parse_config
from edgesense.lattice import build_custom, build_ssh
from edgesense.leads import RingLead, assemble_composite
from edgesense.master_eq import DegenerateSteadyStateWarning, solve_steady_state
from edgesense.observables import (
    bond_current,
    current_profile,
    edge_imbalance,
    population_gradient,
    site_populations,
)

from conftest import make_ssh_system

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestBondCurrent:
    def test_two_site_values(self):
        h = np.array([[0.0, -0.5], [-0.5, 0.0]], dtype=complex)
        toy = SimpleNamespace(h_total=h)
        rho = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]])
        assert_allclose(bond_current(rho, toy, 0, 1), 0.2, atol=1e-15)
        assert_allclose(bond_current(rho, toy, 1, 0), -0.2, atol=1e-15)

    def test_real_state_carries_no_current(self):
        h = np.array([[0.0, -0.5], [-0.5, 0.0]], dtype=complex)
        toy = SimpleNamespace(h_total=h)
        rho = np.array([[0.4, 0.25], [0.25, 0.6]], dtype=complex)
        assert bond_current(rho, toy, 0, 1) == 0.0

    def test_matches_commutator_continuity(self):
        # sum of inflows equals the diagonal rate of change under -i[H, rho]
        sys = make_ssh_system(length=4, ring=4)
        rng = np.random.default_rng(2)
        a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        rho = 0.5 * (a + a.conj().T)
        comm = -1j * (sys.h_total @ rho - rho @ sys.h_total)
        for p in range(12):
            inflow = sum(bond_current(rho, sys, p, n) for n in range(12) if n != p)
            assert_allclose(inflow, comm[p, p].real, atol=1e-12)

    def test_index_arrays_match_single_bonds(self):
        # over index arrays, each bond's current to the bit as it comes alone
        sys = make_ssh_system(length=4, ring=4)
        rng = np.random.default_rng(3)
        a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        rho = 0.5 * (a + a.conj().T)
        m, n = np.nonzero(sys.h_total)
        j = bond_current(rho, sys, m, n)
        single = [bond_current(rho, sys, int(p), int(q)) for p, q in zip(m, n)]
        assert j.shape == m.shape
        assert j.tobytes() == np.asarray(single).tobytes()

    def test_steady_state_interior_continuity(self):
        sys = make_ssh_system()
        rho, _ = solve_steady_state(sys, 0.004)
        for p in range(4):
            inflow = sum(bond_current(rho, sys, p, n) for n in range(sys.size) if n != p)
            assert abs(inflow) < 1e-10


class TestCurrentProfile:
    def test_uniform_across_cuts(self):
        sys = make_ssh_system()
        rho, _ = solve_steady_state(sys, 0.002)
        prof = current_profile(rho, sys)
        assert len(prof.currents) == 5
        assert prof.cut_labels[0] == "L|1"
        assert prof.cut_labels[-1] == "4|R"
        assert prof.mean != 0.0
        assert prof.max_deviation / abs(prof.mean) < 1e-6
        assert_allclose(prof.currents[0], prof.currents[-1], rtol=1e-8)

    def test_disconnected_device_is_currentless(self):
        # nothing escapes a closed lattice, so its dephasing self-consistency
        # is singular but for rounding, at small and large kappa alike
        sys = make_ssh_system(epsilon=0.0)
        for kappa in (0.01, 1.0, 100.0):
            with pytest.warns(DegenerateSteadyStateWarning):
                rho, _ = solve_steady_state(sys, kappa)
            prof = current_profile(rho, sys)
            assert abs(prof.mean) < 1e-12
            assert np.abs(prof.currents).max() < 1e-12
            # no bond joins either lead: both contact cuts are exactly 0.0
            assert prof.currents[[0, -1]].tobytes() == np.zeros(2).tobytes()

    @pytest.mark.parametrize("fig, kappa", [("fig1", 0.0), ("fig2", 1e-3), ("fig3", 1e-3), ("fig4", 1.0)])
    def test_matches_a_loop_over_bonds(self, fig, kappa):
        # the gathered profile against bond_current summed cut by cut, to the bit
        sys = parse_config((CONFIGS / f"{fig}.json").read_text()).build_system()
        rho, _ = solve_steady_state(sys, kappa)
        imap = sys.index_map
        loop = [bond_current(rho, sys, 0, imap.left.start)]
        loop += [sum(bond_current(rho, sys, b, a) for a, b in cut.bonds) for cut in sys.lattice.cuts]
        loop.append(bond_current(rho, sys, imap.right.start, imap.n_lattice - 1))
        prof = current_profile(rho, sys)
        assert prof.currents.tobytes() == np.asarray(loop).tobytes()
        assert prof.cut_labels[1:-1] == tuple(cut.label for cut in sys.lattice.cuts)

    def test_contacts_read_from_h_total(self):
        # both rings moved onto their site 1 by dataclasses.replace: the
        # contact cuts are the bonds h_total holds, and carry the current
        # that flows through the device
        leads = RingLead(size=4, mu=0.3, beta=5.0), RingLead(size=4, mu=-0.02, beta=5.0)
        sys = assemble_composite(build_ssh(4, 0.5, 1.0), *leads, 0.2)
        h = sys.h_total.copy()
        for block in (sys.index_map.left, sys.index_map.right):
            contact = h[:4, block.start].copy()
            h[:4, block.start] = h[block.start, :4] = 0.0
            h[:4, block.start + 1] = contact
            h[block.start + 1, :4] = contact.conj()
        sys = dataclasses.replace(sys, h_total=h)
        rho, diag = solve_steady_state(sys, 0.01)
        assert diag.residual < 1e-12
        prof = current_profile(rho, sys)
        inner = prof.currents[1:-1]
        assert abs(inner.mean()) > 1e-3
        for contact in (prof.currents[0], prof.currents[-1]):
            assert np.abs(contact - inner).max() <= 1e-12 * abs(inner.mean())
        assert prof.max_deviation <= 1e-12 * abs(prof.mean)

    def test_cuts_of_many_bonds(self):
        # next-nearest hoppings put three bonds through each inner cut, which
        # are summed in bond order, as the loop sums them, to the bit
        n = 6
        hop = -0.5 * (np.eye(n, k=1) + np.eye(n, k=-1)) - 0.2 * (np.eye(n, k=2) + np.eye(n, k=-2))
        leads = RingLead(size=6, mu=0.3, beta=5.0), RingLead(size=6, mu=-0.1, beta=5.0)
        sys = assemble_composite(build_custom(hop), *leads, 0.2)
        rho, _ = solve_steady_state(sys, 0.01)
        assert max(len(cut.bonds) for cut in sys.lattice.cuts) == 3
        loop = [sum(bond_current(rho, sys, b, a) for a, b in cut.bonds) for cut in sys.lattice.cuts]
        prof = current_profile(rho, sys)
        assert prof.currents[1:-1].tobytes() == np.asarray(loop).tobytes()
        assert prof.max_deviation <= 1e-9 * abs(prof.mean)


class TestPopulations:
    def test_site_populations_match_diagonal(self):
        sys = make_ssh_system()
        rho, _ = solve_steady_state(sys, 0.002)
        pops = site_populations(rho, sys)
        assert pops.shape == (4,)
        assert_allclose(pops, np.real(np.diag(rho))[:4], atol=0)
        assert pops.min() > -1e-8 and pops.max() < 1 + 1e-8

    def test_bias_tilts_the_bulk_profile(self):
        # strong dephasing makes transport diffusive: filling drops from the
        # source side toward the drain
        sys = make_ssh_system(length=8, ring=8)
        rho, _ = solve_steady_state(sys, 0.1)
        slope = population_gradient(site_populations(rho, sys), window=1.0)
        assert slope < 0

    def test_gradient_of_linear_ramp(self):
        pops = np.linspace(1.0, 0.0, 25)
        assert_allclose(population_gradient(pops, window=1.0), -1.0 / 24.0, atol=1e-14)
        assert_allclose(population_gradient(pops, window=0.6), -1.0 / 24.0, atol=1e-14)

    def test_gradient_of_flat_profile(self):
        assert abs(population_gradient(np.full(30, 0.37))) < 1e-15

    def test_gradient_window_validation(self):
        pops = np.linspace(0, 1, 30)
        with pytest.raises(ValueError, match="window"):
            population_gradient(pops, window=0.0)
        with pytest.raises(ValueError, match="window"):
            population_gradient(pops, window=1.5)
        with pytest.raises(ValueError, match="4 sites"):
            population_gradient(np.ones(3), window=1.0)

    def test_edge_imbalance(self):
        assert_allclose(edge_imbalance(np.array([1.0, 1.0, 0.0, 0.0])), 1.0, atol=0)
        assert edge_imbalance(np.array([0.3, 0.5, 0.5, 0.3])) == 0.0
        pops = np.array([0.9, 0.7, 0.5, 0.2, 0.1, 0.05])
        assert_allclose(edge_imbalance(pops[::-1], k=3), -edge_imbalance(pops, k=3), atol=0)
        with pytest.raises(ValueError, match="k must"):
            edge_imbalance(pops, k=0)
        with pytest.raises(ValueError, match="k must"):
            edge_imbalance(pops, k=4)
