"""Currents, populations and end-localization measures on a steady state."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .leads import CompositeSystem, contact_bonds


@dataclass(frozen=True)
class CurrentProfile:
    """Current through every vertical cut, left contact first.

    In a valid steady state all entries agree; ``max_deviation`` is the
    largest |j_cut - mean|.
    """

    cut_labels: tuple[str, ...]
    currents: np.ndarray
    mean: float
    max_deviation: float


def bond_current(
    rho: np.ndarray, sys: CompositeSystem, m: int | np.ndarray, n: int | np.ndarray
) -> float | np.ndarray:
    """Particle current flowing from site n into site m.

    j = 2 Im(H[m, n] rho[n, m]); with (n, m) ordered left to right a
    positive value means flow from the left lead toward the right one.
    Derived from continuity: d rho_mm/dt under the commutator alone equals
    the sum of bond currents into m.  Given two sites it returns a float;
    given index arrays m and n of one shape, the array of the currents of
    the bonds (m[k], n[k]), each to the bit as it comes one bond at a time.
    """
    h, x = sys.h_total[m, n], rho[n, m]
    # 2 Im(h x), spelled out: numpy's complex product on arrays may fuse a
    # multiply-add that its product of two scalars does not
    j = 2.0 * (h.real * x.imag + h.imag * x.real)
    return float(j) if np.ndim(j) == 0 else j


def current_profile(rho: np.ndarray, sys: CompositeSystem) -> CurrentProfile:
    """Currents through the two contacts and every internal cut of the device.

    The contacts are the bonds between the lattice and each lead that
    h_total holds (``contact_bonds``), so a contact moved off the end sites
    is still counted; a lead with no bond carries zero.  Every bond current
    is taken in one call of ``bond_current`` over index arrays, and one
    ``np.bincount`` sums each cut's bonds in bond order, as a loop over them
    does.
    """
    imap = sys.index_map
    lattice = sys.lattice
    first, last = 0, imap.n_lattice - 1
    c, r, _ = contact_bonds(sys)
    to_left = r < imap.right.start
    # the current flows from n into m: the left contact (lead into lattice),
    # each cut's bonds (left site, right site), the right contact (lattice
    # into lead), and each a cut of its own
    bonds = np.array([bond for cut in lattice.cuts for bond in cut.bonds], dtype=np.intp)
    left, right = bonds.reshape(-1, 2).T
    m = np.concatenate((c[to_left], right, r[~to_left]))
    n = np.concatenate((r[to_left], left, c[~to_left]))
    j = bond_current(rho, sys, m, n)
    counts = np.array([to_left.sum(), *(len(cut.bonds) for cut in lattice.cuts), (~to_left).sum()])
    currents = np.bincount(np.repeat(np.arange(counts.size), counts), j, minlength=counts.size)

    labels = (
        f"L|{lattice.site_labels[first]}",
        *(cut.label for cut in lattice.cuts),
        f"{lattice.site_labels[last]}|R",
    )
    mean = float(currents.mean())
    return CurrentProfile(
        cut_labels=labels,
        currents=currents,
        mean=mean,
        max_deviation=float(np.abs(currents - mean).max()),
    )


def site_populations(rho: np.ndarray, sys: CompositeSystem) -> np.ndarray:
    """Occupation of each lattice site (leads excluded)."""
    return np.real(np.diag(rho)[sys.index_map.lattice]).copy()


def population_gradient(populations: np.ndarray, window: float = 0.6) -> float:
    """Least-squares slope of population versus site index.

    Fitted over the central ``window`` fraction of the chain so contact
    and edge-state pileups do not bias the bulk slope.  A vanishing slope
    signals ballistic (or fully localized) transport; in the diffusive
    regime the profile is linear and the slope measures its steepness.
    """
    pops = np.asarray(populations, dtype=float)
    n = pops.size
    if not 0 < window <= 1:
        raise ValueError("window must be in (0, 1]")
    lo = int(np.floor(n * (1.0 - window) / 2.0))
    hi = n - lo
    if hi - lo < 4:
        raise ValueError("window contains fewer than 4 sites")
    x = np.arange(lo, hi, dtype=float)
    slope = np.polyfit(x, pops[lo:hi], 1)[0]
    return float(slope)


def edge_imbalance(populations: np.ndarray, k: int = 2) -> float:
    """Mean population of the first k sites minus the mean of the last k."""
    pops = np.asarray(populations, dtype=float)
    if k < 1 or 2 * k > pops.size:
        raise ValueError("k must satisfy 1 <= k <= n_sites/2")
    return float(pops[:k].mean() - pops[-k:].mean())
