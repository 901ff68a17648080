"""Single-particle density matrix dynamics and steady-state solvers.

Because the Hamiltonian is quadratic, the lead relaxation is linear and
the dephasing acts site-diagonally, the Lindblad dynamics closes on the
N x N single-particle density matrix rho:

    d rho / dt = -i [H, rho] - (Delta rho + rho Delta)
                 + gamma * target + kappa * diag_lattice(rho)

with Delta the diagonal half-rate matrix (gamma/2 on lead indices,
kappa/2 on lattice indices).  Two steady-state routes are provided:

* ``SylvesterIteration`` (default): one eigendecomposition of
  A = iH + Delta turns every solve of A rho + rho A^dag = S into two
  basis rotations.  The dephasing back-feed only couples to the lattice
  diagonal, so its fixed point is pinned down exactly by one small
  linear solve over that diagonal.  Only the lattice-coupled sector is
  eigendecomposed: each ring lead touches the lattice at its site 0 and
  relaxes uniformly, so H, the rates and the thermal target commute with
  the ring reflection m <-> M - m.  The reflection-odd modes
  (|m> - |M-m>)/sqrt(2) vanish on the contact site and never exchange
  particles or coherence with the rest; their steady state is the
  target's odd block, exactly.  When the lattice is mirror-symmetric and
  the two leads are identical up to mu and beta, A also commutes with the
  whole-system mirror (lattice site i <-> n - 1 - i, left and right rings
  swapped), and the coupled sector splits again into a mirror-even and a
  mirror-odd block.  The split is taken only when that permutation
  commutes with the coupled block of A to SECTOR_TOL.  The per-solve
  floor is two LAPACK ``zgeev`` at 51 for fig1/fig2 (N_e = 102, N = 140)
  and one at N_e = 88 for fig3/fig4 (N = 126), whose flux phases keep
  the mirror from holding entry by entry.
* ``FullLinearSolve``: direct solve of the vectorized N^2 generator,
  gated to small N; serves as an independent oracle.

``propagate`` integrates the same equation of motion over a finite time,
for the transient.
"""

from __future__ import annotations

import enum
import json
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .leads import CompositeSystem, IndexMap

FULL_LINEAR_MAX_SIZE = 40
DENOMINATOR_GUARD = 1e-12
# Tolerance on every condition that lets the ring-odd sector be split off,
# relative to the largest entry of H, target, drive and the rates (at least 1),
# and on the mirror commuting with the coupled block of A (relative to its
# largest entry, at least 1).
SECTOR_TOL = 1e-12


class SolverMethod(str, enum.Enum):
    SYLVESTER = "SylvesterIteration"
    FULL_LINEAR = "FullLinearSolve"


@dataclass(frozen=True)
class SolverConfig:
    method: SolverMethod = SolverMethod.SYLVESTER
    residual_tol: float = 1e-9   # in units of max(1, |target|_inf)

    def __post_init__(self) -> None:
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")


@dataclass
class SPDM:
    """Single-particle density matrix at a given time."""

    matrix: np.ndarray
    index_map: object = None
    time: float = 0.0

    def validate(self, tol: float = 1e-8) -> None:
        m = self.matrix
        if np.abs(m - m.conj().T).max() > tol:
            raise ValueError("density matrix is not Hermitian")
        ev = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if ev.min() < -tol or ev.max() > 1.0 + tol:
            raise ValueError(f"occupations outside [0, 1]: [{ev.min():.3e}, {ev.max():.3e}]")


@dataclass
class SolveDiagnostics:
    method: SolverMethod
    iterations: int
    residual: float
    wall_time: float
    converged: bool
    warnings: list[str] = field(default_factory=list)


class SolverError(RuntimeError):
    """Steady-state solve failed; carries the diagnostics gathered so far."""

    def __init__(self, message: str, diagnostics: SolveDiagnostics | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics


class DegenerateSteadyStateWarning(UserWarning):
    """The steady state is not unique; a minimal-norm representative is returned."""


def _as_matrix(rho: SPDM | np.ndarray) -> np.ndarray:
    return rho.matrix if isinstance(rho, SPDM) else rho


def _half_rates(sys: CompositeSystem, kappa: float) -> np.ndarray:
    return 0.5 * (sys.gamma_by_index + kappa * sys.lattice_mask)


def _residual_scale(sys: CompositeSystem) -> float:
    return max(1.0, float(np.abs(sys.target).max()))


def apply_liouvillian(sys: CompositeSystem, rho: SPDM | np.ndarray, kappa: float) -> np.ndarray:
    """Right-hand side of the closed single-particle master equation.

    Lead dissipator: relaxation of every element touching a lead index at
    gamma/2 per index plus the thermal drive; cross-lead coherences decay
    with no source.  Dephasing: inter-site coherences decay at kappa
    (kappa/2 per lattice index) while the lattice diagonal is untouched.
    """
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    m = _as_matrix(rho)
    h = sys.h_total
    out = -1j * (h @ m - m @ h)
    half = _half_rates(sys, kappa)
    out -= half[:, None] * m
    out -= m * half[None, :]
    out += sys.drive
    if kappa > 0:
        latt = sys.lattice_mask
        idx = np.where(latt)[0]
        out[idx, idx] += kappa * np.real(m[idx, idx])
    return out


def _residual(sys: CompositeSystem, m: np.ndarray, kappa: float) -> float:
    return float(np.abs(apply_liouvillian(sys, m, kappa)).max()) / _residual_scale(sys)


# Cash-Karp embedded Runge-Kutta 5(4) tableau
_CK_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)


def propagate(
    sys: CompositeSystem,
    rho0: SPDM,
    kappa: float,
    t_final: float,
    *,
    dt: float = 0.05,
    step_tol: float = 1e-10,
    max_iters: int = 2_000_000,
) -> SPDM:
    """Propagate rho0 forward by t_final with an adaptive embedded RK5(4).

    dt is the first step, step_tol the local truncation error allowed per
    step (relative to max(1, |rho|_inf)) and max_iters the cap on accepted
    plus rejected steps.  Hermiticity is restored after every accepted
    step.  Raises SolverError on step underflow or once max_iters step
    attempts are exhausted.
    """
    if t_final < 0:
        raise ValueError("t_final must be non-negative")
    if dt <= 0 or step_tol <= 0 or max_iters < 1:
        raise ValueError("dt, step_tol and max_iters must be positive")
    m = _as_matrix(rho0).astype(complex).copy()
    if t_final == 0:
        return SPDM(matrix=m, index_map=sys.index_map, time=rho0.time)

    t = 0.0
    dt = min(dt, t_final)
    dt_floor = 1e-13 * max(1.0, t_final)
    attempts = 0
    while t < t_final:
        dt = min(dt, t_final - t)
        k = []
        for row in _CK_A:
            stage = m
            if row:
                stage = m + dt * sum(a * ki for a, ki in zip(row, k))
            k.append(apply_liouvillian(sys, stage, kappa))
        m5 = m + dt * sum(b * ki for b, ki in zip(_CK_B5, k))
        m4 = m + dt * sum(b * ki for b, ki in zip(_CK_B4, k))
        err = float(np.abs(m5 - m4).max())
        tol = step_tol * max(1.0, float(np.abs(m).max()))
        if err <= tol:
            m = 0.5 * (m5 + m5.conj().T)
            t += dt
        factor = 0.9 * (tol / err) ** 0.2 if err > 0 else 5.0
        dt *= min(5.0, max(0.2, factor))
        if dt < dt_floor:
            raise SolverError(
                f"step underflow at t={t:.6g} (dt={dt:.3e}); the generator may be stiff "
                f"beyond what step_tol={step_tol:.1e} allows"
            )
        attempts += 1
        if attempts > max_iters:
            raise SolverError(f"exceeded max_iters={max_iters} RK step attempts")
    return SPDM(matrix=m, index_map=sys.index_map, time=rho0.time + t_final)


def _pair_basis(perm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real orthonormal bases of the +1 and -1 eigenspaces of an involutive permutation.

    Each pair lo < hi = perm[lo] gives the column (|lo> + |hi>)/sqrt(2) to the
    + basis and (|lo> - |hi>)/sqrt(2) to the - basis; each fixed point i gives
    |i> to the + basis.  Columns keep the order of lo (or i).
    """
    idx = np.arange(perm.size)
    lo = np.flatnonzero(perm > idx)
    hi = perm[lo]
    q = np.eye(perm.size)
    q[lo, lo] = q[hi, lo] = q[lo, hi] = np.sqrt(0.5)
    q[hi, hi] = -np.sqrt(0.5)
    odd = perm < idx
    return q[:, ~odd], q[:, odd]


def _coupled_sector(sys: CompositeSystem) -> tuple[np.ndarray, IndexMap, np.ndarray]:
    """Basis Q_e of the lattice-coupled sector, its column layout, and the rest's steady state.

    The reflection R maps site m of each lead block to M - m (mod M) and
    fixes the lattice.  Its +1 eigenspace is spanned by the lattice sites,
    each ring's site 0, the pair sums (|m> + |M-m>)/sqrt(2) and, for even M,
    |M/2>: those columns form Q_e.  The pair differences form Q_o.  The odd
    sector is split off only when it provably decouples: Q_e^T X Q_o
    vanishes for X = H, target, drive and the rates; target_o is stationary
    under the odd block of the generator, -i[H_o, target_o] - {G_o,
    target_o} + drive_o = 0 (for a ring, H_o commutes with target_o); and
    the odd rates G_o are positive definite, so that block has a unique
    solution and no dark pair.  Each check holds to SECTOR_TOL, whatever
    built the system.  Otherwise Q_e is the identity and the returned odd
    steady state is zero.  The layout is the ``IndexMap`` of Q_e's columns
    (lattice, then each ring's columns in the order m = 0, 1, ...), and the
    third return value is P_o target P_o with P_o = Q_o Q_o^T, in the site
    basis.
    """
    imap = sys.index_map
    n = sys.size
    idx = np.arange(n)
    reflection = idx.copy()
    for block in (imap.left, imap.right):
        m = idx[block] - block.start
        reflection[block] = block.start + (-m) % m.size
    q_e, q_o = _pair_basis(reflection)

    half_gamma = 0.5 * sys.gamma_by_index
    mats = (sys.h_total, sys.target, sys.drive)
    scale = max(1.0, float(half_gamma.max(initial=0.0)), *(float(np.abs(x).max()) for x in mats))
    tol = SECTOR_TOL * scale
    xq = [x @ q_o for x in mats] + [half_gamma[:, None] * q_o]
    leak = max(float(np.abs(q_e.T @ y).max(initial=0.0)) for y in xq)
    h_o, t_o, d_o, g_o = (q_o.T @ y for y in xq)
    stationary = -1j * (h_o @ t_o - t_o @ h_o) - (g_o @ t_o + t_o @ g_o) + d_o
    if (
        leak > tol
        or np.abs(stationary).max(initial=0.0) > tol
        or np.linalg.eigvalsh(g_o).min(initial=np.inf) <= tol
    ):
        return np.eye(n), imap, np.zeros((n, n), dtype=complex)
    layout = IndexMap(imap.n_lattice, imap.n_left // 2 + 1, imap.n_right // 2 + 1)
    return q_e, layout, q_o @ t_o @ q_o.T


def _mirror_blocks(
    q_e: np.ndarray, a_e: np.ndarray, layout: IndexMap
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split A_e = Q_e^T A Q_e by the whole-system mirror where it is a symmetry.

    The mirror maps lattice site i to n_lattice - 1 - i and swaps the two
    rings site for site.  On the columns of Q_e (see ``_coupled_sector``)
    it is the permutation r that reverses the lattice columns and swaps
    each left-ring column with the right-ring column of the same position.
    When the rings have as many columns and r commutes with A_e to
    SECTOR_TOL, A_e is block diagonal in r's pair basis (P_+, P_-), and the
    pairs (Q_e P, P^T A_e P) are returned for both signs.  Only A has to
    split: the Sylvester solve takes any source, so mu, beta and the target
    need not be mirror-symmetric.  Otherwise the one pair (Q_e, A_e) is
    returned.
    """
    whole = [(q_e, a_e)]
    if layout.n_left != layout.n_right:
        return whole
    idx = np.arange(layout.size)
    r = np.concatenate([idx[layout.lattice][::-1], idx[layout.right], idx[layout.left]])
    tol = SECTOR_TOL * max(1.0, float(np.abs(a_e).max()))
    if np.abs(a_e[r][:, r] - a_e).max() > tol:
        return whole
    return [(q_e @ p, p.T @ a_e @ p) for p in _pair_basis(r)]


class _SylvesterFactorization:
    """Eigendecomposition of A = iH + Delta, one symmetry sector at a time.

    A is block diagonal between the coupled sector Q_e and the ring-odd
    sector (see ``_coupled_sector``), so only A_e = Q_e^T A Q_e, of size
    n_lattice + (M_L//2 + 1) + (M_R//2 + 1) (102 for fig1, 88 for fig3),
    is eigendecomposed.  Where the whole-system mirror commutes with A_e
    (see ``_mirror_blocks``), A_e splits further into a mirror-even and a
    mirror-odd block with bases Q_+ and Q_- (51 + 51 for fig1/fig2; the
    rhombic fig3/fig4 lattices keep one block of 88), and each block is
    eigendecomposed on its own: Q_s^T A Q_s = V_s diag(lam_s) V_s^-1.
    ``lam`` concatenates the blocks' eigenvalues, ``v = [Q_+ V_+, Q_- V_-]``
    (N x N_e) and ``vinv = [V_+^-1 Q_+^T; V_-^-1 Q_-^T]`` (N_e x N) act in
    the site basis, so ``solve(source)`` returns the coupled-sector solution
    Q_e X_e Q_e^T of A X + X A^dag = S via X_e = V ((vinv S vinv^dag) / D)
    V^dag with D_ab = lam_a + conj(lam_b); the source need not respect any
    symmetry.  ``block_sizes`` records the block sizes.  The odd sector's
    steady state does not depend on kappa or on the lattice, and is kept as
    ``rho_odd``.  Pairs with |D| below the guard correspond to conserved
    (dark) sectors; their components are projected out, which selects the
    minimal-norm steady state.
    """

    def __init__(self, sys: CompositeSystem, kappa: float):
        q_e, layout, self.rho_odd = _coupled_sector(sys)
        a = 1j * sys.h_total + np.diag(_half_rates(sys, kappa))
        lams, vs, vinvs = [], [], []
        for q, a_block in _mirror_blocks(q_e, q_e.T @ a @ q_e, layout):
            lam, v = np.linalg.eig(a_block)
            lams.append(lam)
            vs.append(q @ v)
            vinvs.append(np.linalg.inv(v) @ q.T)
        self.block_sizes = tuple(lam.size for lam in lams)
        self.lam = lam = np.concatenate(lams)
        self.v = np.hstack(vs)
        self.vinv = np.vstack(vinvs)
        denom = lam[:, None] + lam[None, :].conj()
        guard = DENOMINATOR_GUARD * max(1.0, float(np.abs(lam).max()))
        self.dark_pairs = np.abs(denom) < guard
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / denom
        inv[self.dark_pairs] = 0.0
        self.inv_denom = inv

    def solve(self, source: np.ndarray) -> np.ndarray:
        t = self.vinv @ source @ self.vinv.conj().T
        return self.v @ (t * self.inv_denom) @ self.v.conj().T


def _solve_sylvester(
    sys: CompositeSystem,
    kappa: float,
    cfg: SolverConfig,
) -> tuple[np.ndarray, int, float, list[str]]:
    notes: list[str] = []
    fact = _SylvesterFactorization(sys, kappa)
    if fact.dark_pairs.any():
        notes.append(
            "degenerate dissipation-free sector detected; returning the minimal-norm steady state"
        )
        warnings.warn(notes[-1], DegenerateSteadyStateWarning, stacklevel=3)

    rho = fact.solve(sys.drive)
    solves = 1
    if kappa > 0:
        # Self-consistency over the lattice diagonal d: the solve is affine,
        # d = d0 + kappa*M d, so one small linear system replaces a fixed
        # point iteration that stalls once kappa exceeds the escape rates.
        latt = np.where(sys.lattice_mask)[0]
        nl = latt.size
        v_latt = fact.v[latt, :]
        u = fact.vinv[:, latt]
        m = np.empty((nl, nl))
        for j in range(nl):
            y = (u[:, j][:, None] * u[:, j].conj()[None, :]) * fact.inv_denom
            z = v_latt @ y
            m[:, j] = np.real(np.sum(z * v_latt.conj(), axis=1))
            solves += 1
        d0 = np.real(rho[latt, latt])
        d = np.linalg.solve(np.eye(nl) - kappa * m, d0)
        source = sys.drive.copy()
        source[latt, latt] += kappa * d
        rho = fact.solve(source)
        solves += 1
    rho = rho + fact.rho_odd
    rho = 0.5 * (rho + rho.conj().T)
    return rho, solves, _residual(sys, rho, kappa), notes


def build_superoperator(sys: CompositeSystem, kappa: float) -> np.ndarray:
    """Vectorized generator L with vec(d rho/dt) = L vec(rho) + vec(drive).

    Row-major vectorization: vec(A X B) = (A kron B^T) vec(X).
    """
    n = sys.size
    h = sys.h_total
    eye = np.eye(n)
    lin = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    half = _half_rates(sys, kappa)
    lin -= np.diag((half[:, None] + half[None, :]).reshape(-1))
    if kappa > 0:
        for p in np.where(sys.lattice_mask)[0]:
            lin[p * n + p, p * n + p] += kappa
    return lin


def _solve_full_linear(
    sys: CompositeSystem,
    kappa: float,
    cfg: SolverConfig,
) -> tuple[np.ndarray, int, float, list[str]]:
    n = sys.size
    if n > FULL_LINEAR_MAX_SIZE:
        raise ValueError(
            f"FullLinearSolve builds an N^2 x N^2 system and is gated to N <= {FULL_LINEAR_MAX_SIZE} (got N={n})"
        )
    notes: list[str] = []
    lin = build_superoperator(sys, kappa)
    b = -sys.drive.reshape(-1)
    try:
        x = np.linalg.solve(lin, b)
    except np.linalg.LinAlgError:
        x = None
    if x is None or not np.isfinite(x).all():
        x = np.linalg.lstsq(lin, b, rcond=None)[0]
        notes.append("generator is singular; least-squares minimal-norm steady state returned")
        warnings.warn(notes[-1], DegenerateSteadyStateWarning, stacklevel=3)
    rho = x.reshape(n, n)
    rho = 0.5 * (rho + rho.conj().T)
    res = _residual(sys, rho, kappa)
    if res > cfg.residual_tol and not notes:
        # ill-conditioned direct solve; retry with the pseudo-inverse route
        x = np.linalg.lstsq(lin, b, rcond=None)[0]
        rho = x.reshape(n, n)
        rho = 0.5 * (rho + rho.conj().T)
        res = _residual(sys, rho, kappa)
        notes.append("direct solve was ill-conditioned; refined by least squares")
    return rho, 1, res, notes


def solve_steady_state(
    sys: CompositeSystem,
    kappa: float,
    cfg: SolverConfig | None = None,
) -> tuple[SPDM, SolveDiagnostics]:
    """Find the stationary density matrix of the driven composite system.

    Raises SolverError if the method finishes without meeting
    cfg.residual_tol (measured as |d rho/dt|_inf over max(1, |target|_inf)).
    """
    cfg = cfg or SolverConfig()
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    if sys.epsilon == 0:
        warnings.warn(
            "epsilon=0 leaves the lattice disconnected; the steady state is not unique",
            DegenerateSteadyStateWarning,
            stacklevel=2,
        )

    start = time.perf_counter()
    if cfg.method == SolverMethod.SYLVESTER:
        m, iters, res, notes = _solve_sylvester(sys, kappa, cfg)
    elif cfg.method == SolverMethod.FULL_LINEAR:
        m, iters, res, notes = _solve_full_linear(sys, kappa, cfg)
    else:
        raise ValueError(f"unknown solver method {cfg.method!r}")
    wall = time.perf_counter() - start

    diag = SolveDiagnostics(
        method=cfg.method,
        iterations=iters,
        residual=res,
        wall_time=wall,
        converged=res <= cfg.residual_tol,
        warnings=notes,
    )
    if not diag.converged:
        raise SolverError(
            f"{cfg.method.value} finished with residual {res:.3e} > {cfg.residual_tol:.1e}",
            diag,
        )
    return SPDM(matrix=m, index_map=sys.index_map, time=np.inf), diag


def spdm_to_json(rho: SPDM) -> str:
    """Serialize an SPDM; the matrix is stored row-major as [re, im] pairs."""
    m = rho.matrix
    labels = rho.index_map.labels() if rho.index_map is not None else None
    payload = {
        "N": m.shape[0],
        "index_map": labels,
        "matrix": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }
    return json.dumps(payload, sort_keys=True)
