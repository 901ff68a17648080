"""Dense least-squares steady state of the single-particle master equation, an independent check of the solve.

The library solves for the steady state by one eigendecomposition of
A = iH + Delta per symmetry block.  The tests also solve the vectorized
equation L vec(rho) = -vec(drive) whole, by one least-squares solve of the
N^2 x N^2 generator, and compare.  The generator is built here from the
system's Hamiltonian, lead rates and lattice mask alone, so it shares no
code with the solve it checks.  It holds N^4 entries: keep N to about 40.
"""

import warnings

import numpy as np

from edgesense.leads import CompositeSystem
from edgesense.master_eq import DegenerateSteadyStateWarning


def build_superoperator(sys: CompositeSystem, kappa: float) -> np.ndarray:
    """Vectorized generator L with vec(d rho/dt) = L vec(rho) + vec(drive).

    Row-major vectorization, vec(A X B) = (A kron B^T) vec(X), turns
    -(A rho + rho A^dag), with A = iH + diag(gamma/2 on the leads, kappa/2
    on the lattice), into -(A kron 1 + 1 kron conj(A)); the dephasing feeds
    kappa back on the lattice-diagonal pairs.
    """
    n = sys.size
    latt = np.flatnonzero(sys.lattice_mask)
    a = 1j * sys.h_total + np.diag(0.5 * sys.gamma_by_index)
    a[latt, latt] += 0.5 * kappa
    eye = np.eye(n)
    lin = -(np.kron(a, eye) + np.kron(eye, a.conj()))
    lin[latt * (n + 1), latt * (n + 1)] += kappa
    return lin


def full_linear_solve(sys: CompositeSystem, kappa: float) -> np.ndarray:
    """The Hermitian part of the least-squares rho with L vec(rho) = -vec(drive).

    Where L is exactly singular (the dark sectors at kappa = 0) lstsq gives
    the minimal-norm steady state, the solve's convention, and warns, as the
    solve does, naming the caller.  Near such a point lstsq's rank cut and
    the solve's denominator guard differ, and their agreement there is
    untested.
    """
    n = sys.size
    x, _, rank, _ = np.linalg.lstsq(build_superoperator(sys, kappa), -sys.drive.reshape(-1), rcond=None)
    if rank < n * n:
        warnings.warn(
            "generator is singular; least-squares minimal-norm steady state returned",
            DegenerateSteadyStateWarning,
            stacklevel=2,
        )
    rho = x.reshape(n, n)
    return 0.5 * (rho + rho.conj().T)
