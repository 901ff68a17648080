"""Thermal ring leads and their coupling to a device lattice.

Each lead is a closed ring of M sites with nearest-neighbor hopping
-hop/2, so its quasimomentum modes disperse as E_k = -hop*cos(2*pi*k/M).
A lead relaxes at rate gamma toward the grand-canonical target that is
diagonal in its quasimomentum basis with Fermi-Dirac occupations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import HERMITICITY_TOL, Lattice, integral

MIN_RING_SIZE = 4


@dataclass(frozen=True)
class RingLead:
    """One relaxing ring reservoir.

    mu and beta set the Fermi-Dirac occupations of the ring modes; beta may
    be numpy.inf for a sharp Fermi step (exact ties fill to 1/2).
    """

    size: int
    hop: float = 1.0
    mu: float = 0.0
    beta: float = np.inf
    gamma: float = 0.05

    def __post_init__(self) -> None:
        # a frozen field is set through object
        object.__setattr__(self, "size", integral(self.size, "ring size"))
        if self.size < MIN_RING_SIZE:
            raise ValueError(f"ring size must be at least {MIN_RING_SIZE}")
        # each check is written so that NaN fails it; beta = inf is a sharp step
        if not 0 < self.hop < np.inf:
            raise ValueError("lead hopping must be positive and finite")
        if np.isnan(self.mu):
            raise ValueError("mu must be a number")
        if not self.beta >= 0:
            raise ValueError("beta must be non-negative")
        if not 0 < self.gamma < np.inf:
            raise ValueError("relaxation rate gamma must be positive and finite")


def lead_dispersion(lead: RingLead) -> np.ndarray:
    """Mode energies E_k = -hop*cos(2*pi*k/M) for k = 0..M-1."""
    k = np.arange(lead.size)
    return -lead.hop * np.cos(2.0 * np.pi * k / lead.size)


def thermal_occupations(lead: RingLead) -> np.ndarray:
    """Fermi-Dirac occupation of each ring mode.

    Stable for any beta: the exponential is only ever taken of a
    non-positive argument.  At beta=inf the step is sharp with ties at 1/2.
    """
    e = lead_dispersion(lead)
    if np.isinf(lead.beta):
        # modes exactly at mu must come out half filled; cos() leaves
        # O(1e-16) fuzz on mathematically-zero energies, so snap ties
        tol = 1e-12 * max(1.0, lead.hop)
        return np.where(e < lead.mu - tol, 1.0, np.where(e > lead.mu + tol, 0.0, 0.5))
    x = lead.beta * (e - lead.mu)
    n = np.empty_like(x)
    pos = x >= 0
    n[pos] = np.exp(-x[pos]) / (1.0 + np.exp(-x[pos]))
    n[~pos] = 1.0 / (1.0 + np.exp(x[~pos]))
    return n


def ring_modes(lead: RingLead) -> np.ndarray:
    """Unitary F with F[m, k] = exp(2*pi*i*m*k/M)/sqrt(M) (site <- mode)."""
    m = np.arange(lead.size)
    return np.exp(2j * np.pi * np.outer(m, m) / lead.size) / np.sqrt(lead.size)


def _ring_hamiltonian(lead: RingLead) -> np.ndarray:
    h = np.zeros((lead.size, lead.size), dtype=complex)
    for i in range(lead.size):
        j = (i + 1) % lead.size
        h[i, j] = -0.5 * lead.hop
        h[j, i] = -0.5 * lead.hop
    return h


def thermal_target(lead: RingLead) -> np.ndarray:
    """Relaxation target in the site basis: F diag(n_k) F^dagger."""
    f = ring_modes(lead)
    return (f * thermal_occupations(lead)) @ f.conj().T


@dataclass(frozen=True)
class IndexMap:
    """Block layout of the composite index space: [lattice, left, right]."""

    n_lattice: int
    n_left: int
    n_right: int

    @property
    def size(self) -> int:
        return self.n_lattice + self.n_left + self.n_right

    @property
    def lattice(self) -> slice:
        return slice(0, self.n_lattice)

    @property
    def left(self) -> slice:
        return slice(self.n_lattice, self.n_lattice + self.n_left)

    @property
    def right(self) -> slice:
        return slice(self.n_lattice + self.n_left, self.size)

    def labels(self) -> list[str]:
        return (
            ["lattice"] * self.n_lattice
            + ["left_lead"] * self.n_left
            + ["right_lead"] * self.n_right
        )


@dataclass
class CompositeSystem:
    """Lattice + two leads, holding what the master equation reads.

    ``h_total`` holds the contact bonds too; ``drive`` is the relaxation
    source gamma*target embedded in the full index space; ``gamma_by_index``
    is zero on lattice indices.
    """

    h_total: np.ndarray
    index_map: IndexMap
    lattice: Lattice
    target: np.ndarray
    drive: np.ndarray
    gamma_by_index: np.ndarray
    lattice_mask: np.ndarray
    # the master equation's sector structure (``master_eq._Sectors``), with
    # the idle workspaces of the solves on it, built on the first solve;
    # ``master_eq.at_gate`` carries it to each row a sweep derives from this
    # system; an edit of h_total in place leaves it stale, which the residual
    # refuses, and dataclasses.replace starts the copy without it
    _sectors: object = field(default=None, init=False, compare=False, repr=False)

    @property
    def size(self) -> int:
        return self.index_map.size

    def validate(self) -> None:
        n = self.size
        if self.h_total.shape != (n, n):
            raise ValueError("composite Hamiltonian has the wrong shape")
        if not np.isfinite(self.h_total).all():
            raise ValueError("composite Hamiltonian has a non-finite entry")
        dev = np.abs(self.h_total - self.h_total.conj().T).max()
        if dev > HERMITICITY_TOL:
            raise ValueError(f"composite Hamiltonian is not Hermitian (max deviation {dev:.3e})")


def contact_bonds(sys: CompositeSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bonds between the lattice and the leads, as h_total holds them.

    Returns (lattice sites c, lead sites r, h_total[c, r]), one entry per
    nonzero of h_total's lattice-by-leads block, in row-major order.
    """
    imap = sys.index_map
    c, r = np.nonzero(sys.h_total[imap.lattice, imap.n_lattice :])
    r += imap.n_lattice
    return c, r, sys.h_total[c, r]


def assemble_composite(
    lat: Lattice,
    left: RingLead,
    right: RingLead,
    epsilon: float,
) -> CompositeSystem:
    """Join lattice and leads with a single contact bond of amplitude -epsilon/2.

    The left ring's site 0 couples to the first lattice site, the right
    ring's site 0 to the last.  epsilon=0 is allowed but leaves the device
    disconnected, so the steady state is not unique.
    """
    lat.validate()
    if not 0 <= epsilon < np.inf:
        raise ValueError("contact coupling epsilon must be non-negative and finite")

    imap = IndexMap(n_lattice=lat.n_sites, n_left=left.size, n_right=right.size)
    n = imap.size
    h = np.zeros((n, n), dtype=complex)
    h[imap.lattice, imap.lattice] = lat.hamiltonian
    h[imap.left, imap.left] = _ring_hamiltonian(left)
    h[imap.right, imap.right] = _ring_hamiltonian(right)

    first, last = 0, lat.n_sites - 1
    left0 = imap.left.start
    right0 = imap.right.start
    h[first, left0] = -0.5 * epsilon
    h[left0, first] = -0.5 * epsilon
    h[last, right0] = -0.5 * epsilon
    h[right0, last] = -0.5 * epsilon

    target = np.zeros((n, n), dtype=complex)
    target[imap.left, imap.left] = thermal_target(left)
    target[imap.right, imap.right] = thermal_target(right)

    drive = np.zeros_like(target)
    drive[imap.left, imap.left] = left.gamma * target[imap.left, imap.left]
    drive[imap.right, imap.right] = right.gamma * target[imap.right, imap.right]

    gamma_by_index = np.zeros(n)
    gamma_by_index[imap.left] = left.gamma
    gamma_by_index[imap.right] = right.gamma

    lattice_mask = np.zeros(n, dtype=bool)
    lattice_mask[imap.lattice] = True

    sys = CompositeSystem(
        h_total=h,
        index_map=imap,
        lattice=lat,
        target=target,
        drive=drive,
        gamma_by_index=gamma_by_index,
        lattice_mask=lattice_mask,
    )
    sys.validate()
    return sys
