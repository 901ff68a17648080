"""Tight-binding device lattices: builders, spectra, edge-state detection.

Two chain geometries are provided.  ``build_ssh`` makes a dimerized chain
whose terminal bonds are the weak ones, so a topologically nontrivial
dimerization hosts one exponentially localized state at each end.
``build_rhombic`` makes a chain of flux-pierced rhombi (diamond chain);
at flux pi the dispersive bands collapse onto {-J, 0, +J} (Aharonov-Bohm
caging) while compact states bound to the terminal rhombi sit inside the
gaps at +-J/sqrt(2).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-12


def integral(value: object, name: str) -> int:
    """value as an int: an int, a numpy integer or a float with no fraction; else a ValueError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        if isinstance(value, float) and value.is_integer():
            return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Cut:
    """A vertical cut through the chain and the bonds it crosses.

    Each bond is an ordered pair (left_site, right_site) of site indices,
    left-to-right in the transport direction.
    """

    label: str
    bonds: tuple[tuple[int, int], ...]


@dataclass
class Lattice:
    """Device Hamiltonian plus the bookkeeping observables need.

    The diagonal of ``hamiltonian`` is the uniform gate offset; hoppings
    carry the conventional -1/2 prefactor so a uniform chain with unit
    hopping has bandwidth 1.
    """

    kind: str
    n_sites: int
    hamiltonian: np.ndarray
    site_labels: list[str]
    gate_offset: float
    cuts: list[Cut] = field(default_factory=list)

    def validate(self) -> None:
        h = self.hamiltonian
        if h.shape != (self.n_sites, self.n_sites):
            raise ValueError(f"hamiltonian shape {h.shape} does not match n_sites={self.n_sites}")
        if len(self.site_labels) != self.n_sites:
            raise ValueError("one site label per site is required")
        if not np.isfinite(h).all():
            raise ValueError("hamiltonian has a non-finite entry")
        dev = np.abs(h - h.conj().T).max()
        if dev > HERMITICITY_TOL:
            raise ValueError(f"hamiltonian is not Hermitian (max deviation {dev:.3e})")
        # written so that a NaN gate offset fails it
        if not np.abs(np.diag(h) - self.gate_offset).max() <= HERMITICITY_TOL:
            raise ValueError("diagonal must equal the gate offset on every site")


@dataclass(frozen=True)
class EdgeStateReport:
    """One detected in-gap localized state."""

    eigen_index: int
    energy: float
    localization_length: float
    ipr: float
    side: str  # "left", "right" or "both"


def build_ssh(
    length: int,
    hop_intra: float,
    hop_inter: float,
    gate: float = 0.0,
    *,
    allow_odd_length: bool = False,
) -> Lattice:
    """Dimerized chain with alternating bonds, weak bond at both ends.

    Bonds alternate [intra, inter, intra, ...] starting and ending with the
    intra-cell value, which requires an even number of sites.  For
    hop_intra < hop_inter both terminations are topological and the chain
    carries a pair of near-degenerate mid-gap edge states.

    Parameters
    ----------
    length : number of sites.
    hop_intra : bond within a dimer cell; also the terminal bond value.
    hop_inter : bond between neighboring cells.
    gate : uniform on-site offset applied to every site.
    allow_odd_length : permit odd ``length`` (breaks the symmetric
        weak-bond termination; only one end hosts an edge state).
    """
    length = integral(length, "length")
    if length < 2:
        raise ValueError("length must be at least 2")
    if length % 2 and not allow_odd_length:
        raise ValueError("odd length breaks the weak-bond termination; pass allow_odd_length=True to force")
    if not (hop_intra > 0 and hop_inter > 0):
        raise ValueError("hopping amplitudes must be positive")

    h = np.zeros((length, length), dtype=complex)
    np.fill_diagonal(h, gate)
    for bond in range(length - 1):
        amp = hop_intra if bond % 2 == 0 else hop_inter
        h[bond, bond + 1] = -0.5 * amp
        h[bond + 1, bond] = -0.5 * amp

    labels = [str(i + 1) for i in range(length)]
    cuts = [
        Cut(label=f"{labels[i]}|{labels[i + 1]}", bonds=((i, i + 1),))
        for i in range(length - 1)
    ]
    lat = Lattice(
        kind="ssh",
        n_sites=length,
        hamiltonian=h,
        site_labels=labels,
        gate_offset=gate,
        cuts=cuts,
    )
    # an infinite hopping or a non-finite gate fails here
    lat.validate()
    return lat


RHOMBIC_TERMINATIONS = ("hub", "arm")


def build_rhombic(
    n_cells: int,
    hop: float,
    flux: float,
    gate: float = 0.0,
    termination: str = "hub",
) -> Lattice:
    """Chain of rhombi threaded by a uniform flux.

    Cell n is a hub site A_n connected to an arm pair (B_n, C_n) which
    reconnects at the next hub A_{n+1}.  The flux enters through a Peierls
    phase exp(i*flux) on the A_n -> B_n bond of every cell, so each closed
    plaquette encloses ``flux``.  All bonds have magnitude hop/2.

    termination:
        "hub"  -- the chain starts and ends on a hub site (default).  Each
                  terminal rhomb binds a compact state pair; at flux=pi
                  they sit exactly at -+hop/sqrt(2) inside the gaps.
        "arm"  -- an extra dangling arm pair is attached outside each
                  terminal hub.  The dangling pairs contribute zero-energy
                  modes instead of in-gap states.
    """
    n_cells = integral(n_cells, "n_cells")
    if n_cells < 2:
        raise ValueError("n_cells must be at least 2")
    if not hop > 0:
        raise ValueError("hop must be positive")
    if termination not in RHOMBIC_TERMINATIONS:
        raise ValueError(f"unknown termination {termination!r}; supported: {RHOMBIC_TERMINATIONS}")

    amp = -0.5 * hop
    phase = np.exp(1j * flux)

    labels: list[str] = []
    for n in range(n_cells):
        labels += [f"A{n + 1}", f"B{n + 1}", f"C{n + 1}"]
    labels.append(f"A{n_cells + 1}")
    if termination == "arm":
        labels = [f"B0", f"C0"] + labels + [f"B{n_cells + 1}", f"C{n_cells + 1}"]

    n_sites = len(labels)
    pos = {lab: i for i, lab in enumerate(labels)}
    h = np.zeros((n_sites, n_sites), dtype=complex)
    np.fill_diagonal(h, gate)

    def connect(a: str, b: str, value: complex) -> None:
        i, j = pos[a], pos[b]
        h[j, i] = value
        h[i, j] = np.conj(value)

    for n in range(1, n_cells + 1):
        connect(f"A{n}", f"B{n}", amp * phase)  # the flux lives on this bond
        connect(f"A{n}", f"C{n}", amp)
        connect(f"B{n}", f"A{n + 1}", amp)
        connect(f"C{n}", f"A{n + 1}", amp)
    if termination == "arm":
        connect(f"B0", f"A1", amp)
        connect(f"C0", f"A1", amp)
        connect(f"A{n_cells + 1}", f"B{n_cells + 1}", amp * phase)
        connect(f"A{n_cells + 1}", f"C{n_cells + 1}", amp)

    cuts: list[Cut] = []
    for n in range(1, n_cells + 1):
        a, b, c, a2 = pos[f"A{n}"], pos[f"B{n}"], pos[f"C{n}"], pos[f"A{n + 1}"]
        cuts.append(Cut(label=f"A{n}|arms{n}", bonds=((a, b), (a, c))))
        cuts.append(Cut(label=f"arms{n}|A{n + 1}", bonds=((b, a2), (c, a2))))

    lat = Lattice(
        kind="rhombic",
        n_sites=n_sites,
        hamiltonian=h,
        site_labels=labels,
        gate_offset=gate,
        cuts=cuts,
    )
    # an infinite hop or a non-finite flux or gate fails here
    lat.validate()
    return lat


def build_custom(hoppings: np.ndarray, gate: float = 0.0, site_labels: list[str] | None = None) -> Lattice:
    """Wrap an arbitrary Hermitian hopping matrix (zero diagonal) as a Lattice.

    Cuts are placed between consecutive site indices, which is meaningful
    only if the caller's matrix describes a chain ordered left to right.
    """
    hop = np.asarray(hoppings, dtype=complex)
    if hop.ndim != 2 or hop.shape[0] != hop.shape[1]:
        raise ValueError("hoppings must be a square matrix")
    n = hop.shape[0]
    if np.abs(np.diag(hop)).max(initial=0.0) > HERMITICITY_TOL:
        raise ValueError("hoppings must have zero diagonal; pass the offset through gate")
    h = hop + gate * np.eye(n)
    labels = site_labels if site_labels is not None else [str(i + 1) for i in range(n)]
    cuts = []
    for i in range(n - 1):
        bonds = tuple(
            (a, b)
            for a in range(i + 1)
            for b in range(i + 1, n)
            if abs(h[a, b]) > 0
        )
        if bonds:
            cuts.append(Cut(label=f"{labels[i]}|{labels[i + 1]}", bonds=bonds))
    lat = Lattice(
        kind="custom",
        n_sites=n,
        hamiltonian=h,
        site_labels=list(labels),
        gate_offset=gate,
        cuts=cuts,
    )
    lat.validate()
    return lat


def spectrum(lat: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decompose the device Hamiltonian.

    Returns (energies, states) with energies ascending and states column-wise
    orthonormal, states[:, i] belonging to energies[i].
    """
    lat.validate()
    energies, states = np.linalg.eigh(lat.hamiltonian)
    return energies, states


# In-gap levels closer than this form one cluster, rotated into position
# eigenstates before their end weights are measured.
_DEGENERACY_TOL = 1e-7


def _localize_degenerate(states: np.ndarray, members: list[int]) -> None:
    # Degenerate in-gap pairs come out of eigh as arbitrary mixtures; rotate
    # each cluster into position eigenstates so left/right is well defined.
    x = np.arange(states.shape[0], dtype=float)
    sub = states[:, members]
    xmat = sub.conj().T @ (x[:, None] * sub)
    _, rot = np.linalg.eigh(0.5 * (xmat + xmat.conj().T))
    states[:, members] = sub @ rot


def _tail_length(weight: np.ndarray, start: int, step: int) -> float:
    # Exponential fit of the |psi|^2 tail walking inward from the dominant
    # end.  Sites below the floor are skipped (dimerized states vanish on
    # alternate sites); if the support terminates before the far end, one
    # floored point is kept so compact states report a sub-site length.
    n = weight.size
    floor = 1e-16 * weight.max()
    xs, ys = [], []
    dist = 0
    idx = start
    while 0 <= idx < n:
        if weight[idx] > floor:
            xs.append(dist)
            ys.append(math.log(weight[idx]))
        idx += step
        dist += 1
    if not xs:
        return math.inf
    past_support = start + step * (max(xs) + 1)
    if 0 <= past_support < n:  # true compact support, not just the chain end
        xs.append(max(xs) + 1)
        ys.append(math.log(floor))
    if len(xs) < 2:
        return math.inf
    slope = np.polyfit(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), 1)[0]
    if slope >= 0:
        return math.inf
    return float(-2.0 / slope)


def classify_edge_states(
    energies: np.ndarray,
    states: np.ndarray,
    gap: tuple[float, float],
    threshold: float = 0.5,
    *,
    end_sites: int = 4,
) -> list[EdgeStateReport]:
    """Report in-gap states whose weight concentrates on the chain ends.

    A state qualifies if its energy lies strictly inside ``gap`` and the
    summed |psi|^2 over the ``end_sites`` outermost sites of either end
    exceeds ``threshold``.
    """
    lo, hi = gap
    if not lo < hi:
        raise ValueError("gap interval must satisfy lo < hi")
    n = states.shape[0]
    if end_sites < 1 or 2 * end_sites > n:
        raise ValueError("end_sites must satisfy 1 <= end_sites <= n_sites/2")

    inside = [i for i, e in enumerate(energies) if lo < e < hi]
    work = states.copy()

    # rotate near-degenerate clusters before measuring localization
    cluster: list[int] = []
    for i in inside + [None]:
        if cluster and (i is None or energies[i] - energies[cluster[-1]] > _DEGENERACY_TOL):
            if len(cluster) > 1:
                _localize_degenerate(work, cluster)
            cluster = []
        if i is not None:
            cluster.append(i)

    reports = []
    for i in inside:
        psi = work[:, i]
        weight = np.abs(psi) ** 2
        left = float(weight[:end_sites].sum())
        right = float(weight[-end_sites:].sum())
        if left + right <= threshold:
            continue
        ratio = left / (left + right)
        if ratio > 0.75:
            side = "left"
            peak = int(np.argmax(weight[:end_sites]))
            xi = _tail_length(weight, peak, +1)
        elif ratio < 0.25:
            side = "right"
            peak = n - end_sites + int(np.argmax(weight[-end_sites:]))
            xi = _tail_length(weight, peak, -1)
        else:
            side = "both"
            xi = _tail_length(weight, int(np.argmax(weight)), +1 if np.argmax(weight) < n // 2 else -1)
        reports.append(
            EdgeStateReport(
                eigen_index=i,
                energy=float(energies[i]),
                localization_length=xi,
                ipr=float((weight**2).sum()),
                side=side,
            )
        )
    return reports

