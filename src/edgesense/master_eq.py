"""Single-particle density matrix dynamics and steady-state solvers.

Because the Hamiltonian is quadratic, the lead relaxation is linear and
the dephasing acts site-diagonally, the Lindblad dynamics closes on the
N x N single-particle density matrix rho:

    d rho / dt = -i [H, rho] - (Delta rho + rho Delta)
                 + gamma * target + kappa * diag_lattice(rho)

with Delta the diagonal half-rate matrix (gamma/2 on lead indices,
kappa/2 on lattice indices): the first two terms are -(A rho + rho A^dag)
with the generator A = iH + Delta.  Two steady-state routes are provided:

* ``SylvesterIteration`` (default): one eigendecomposition of
  A = iH + Delta turns every solve of A rho + rho A^dag = S into two
  basis rotations.  The dephasing back-feed only couples to the lattice
  diagonal, so its fixed point is pinned down exactly by one small
  linear solve over that diagonal.  A is eigendecomposed one symmetry
  block at a time, by one rule: an involution S that permutes the sites,
  up to a phase per site, and commutes with A splits it into S's +1 and
  -1 blocks.  The ring reflection m <-> M - m drops its odd block, whose
  modes vanish on the contact site and whose steady state is the
  target's odd block; the whole-system mirror (lattice site i <-> n - 1 - i,
  rings swapped) then halves what is left.  The mirror takes phases d,
  S x = d * x[mirror]: d = 1 on the SSH chains, and on the rhombic chains
  d undoes the Peierls phases, which the mirror moves from A_n -> B_n onto
  another bond.  The per-solve floor is two LAPACK ``zgeev`` at 51 for
  fig1/fig2 (N = 140) and two at 44 for fig3/fig4 (N = 126).  The
  dephasing reduction is folded by the same mirror: it builds the columns
  of one half of the lattice from the two blocks and their cross term.
  At gate 0 the chiral fold halves the floor where it holds: on a
  bipartite lattice with real hoppings (up to a gauge) and no on-site
  term, the sublattice sign c makes x -> c * conj(x) a symmetry of A, and
  where it maps the mirror's + block onto its - block the - block is the
  conjugate of the + block (``_chiral_fold``).  Then one ``zgeev`` at 51
  serves fig1/fig2 at delta = 0; fig3 (flux off pi) and fig4 (delta off 0)
  keep two at 44.
  The blocks do not depend on the gate or kappa (``_Sectors``), so they
  are found once per system and kept on it (a gate sweep shares them
  between its rows, ``share_sectors``), and a solve pays for the
  eigendecomposition of each block, not for finding the blocks.
* ``FullLinearSolve``: one SVD least-squares solve of the vectorized
  N^2 generator, gated to small N; where the generator is exactly
  singular it warns and returns the minimal-norm steady state, as the
  guard does, and it serves as an independent oracle.

Each solve reports the residual of the equation of motion, taken over
the bonds of A as h_total holds them at that call: it keeps nothing on
the system, so it checks the reused blocks rather than trusting them.
``propagate`` integrates the same equation over a finite time, for the
transient.
"""

from __future__ import annotations

import enum
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .leads import CompositeSystem, IndexMap

FULL_LINEAR_MAX_SIZE = 40
DENOMINATOR_GUARD = 1e-12
# Tolerance on every condition for a symmetry split of A = iH + Delta (a
# permutation commuting with A, and the ring-odd block's steady state),
# relative to the largest entry of A and at least 1.
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
    # sizes of the eigendecompositions the solve ran, in order
    eig_blocks: tuple[int, ...] = ()


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


def _liouvillian(sys: CompositeSystem, kappa: float) -> Callable[[np.ndarray], np.ndarray]:
    """rho -> d rho/dt = drive - A rho - rho A^dag + kappa diag_lattice(rho), A = iH + Delta.

    Both products are summed over A's diagonal and its bonds, the
    off-diagonal entries, which are read from h_total on every call, so an
    edit in place is seen at once: row i of idx lists the j != i with
    h[i, j] != 0, padded with column 0 and amplitude 0, a few per site for a
    chain plus two rings.  A's rows give both, for any rho:
    (A rho)[i] = diag[i] rho[i] + sum_k amp[i, k] rho[idx[i, k]] and
    (rho A^dag)[:, i] = rho[:, i] conj(diag[i]) + sum_k rho[:, idx[i, k]] conj(amp[i, k]).
    """
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    h = sys.h_total
    n = h.shape[0]
    bonds = h != 0
    np.fill_diagonal(bonds, False)
    rows, cols = np.divmod(np.flatnonzero(bonds), n)
    counts = np.bincount(rows, minlength=n)
    slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    idx = np.zeros((n, counts.max(initial=0)), dtype=np.intp)
    amp = np.zeros(idx.shape, dtype=complex)
    idx[rows, slot] = cols
    amp[rows, slot] = 1j * h[rows, cols]
    diag = 1j * h.diagonal() + _half_rates(sys, kappa)
    latt = np.flatnonzero(sys.lattice_mask)

    def rhs(m: np.ndarray) -> np.ndarray:
        out = sys.drive - diag[:, None] * m
        out -= m * diag.conj()
        for k in range(idx.shape[1]):
            out -= amp[:, k, None] * m[idx[:, k]]
            out -= m[:, idx[:, k]] * amp[:, k].conj()
        out[latt, latt] += kappa * m[latt, latt].real
        return out

    return rhs


def apply_liouvillian(sys: CompositeSystem, rho: SPDM | np.ndarray, kappa: float) -> np.ndarray:
    """Right-hand side of the closed single-particle master equation.

    Lead dissipator: relaxation of every element touching a lead index at
    gamma/2 per index plus the thermal drive; cross-lead coherences decay
    with no source.  Dephasing: inter-site coherences decay at kappa
    (kappa/2 per lattice index) while the lattice diagonal is untouched.
    Both, and the commutator with H, are -(A rho + rho A^dag), taken over
    the bonds of A (``_liouvillian``).
    """
    return _liouvillian(sys, kappa)(_as_matrix(rho))


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

    rhs = _liouvillian(sys, kappa)
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
            k.append(rhs(stage))
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


def _commutes(perm: np.ndarray, x: np.ndarray, tol: float) -> bool:
    """Whether the permutation perm of x's indices commutes with the matrix x, to tol."""
    return float(np.abs(x[np.ix_(perm, perm)] - x).max(initial=0.0)) <= tol


def _pair_basis(perm: np.ndarray, d: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the +1 and -1 eigenspaces of the involution S x = d * x[perm].

    Each pair lo < hi = perm[lo] gives the column (|lo> + d_hi |hi>)/sqrt(2) to
    the + basis and (|lo> - d_hi |hi>)/sqrt(2) to the - basis; each fixed point
    i gives |i> to the basis of the sign of d_i.  Columns keep the order of lo
    (or i).  The phases d (unit modulus, d_i d[perm[i]] = 1) default to 1,
    which gives the real bases of the plain permutation.
    """
    d = np.ones(perm.size) if d is None else d
    idx = np.arange(perm.size)
    lo = np.flatnonzero(perm > idx)
    hi = perm[lo]
    q = np.eye(perm.size, dtype=d.dtype)
    q[lo, lo] = q[hi, lo] = q[lo, hi] = np.sqrt(0.5)
    q[hi, hi] = -np.sqrt(0.5)
    q[hi] *= d[hi, None]
    odd = (perm < idx) | ((perm == idx) & (d.real < 0))
    return q[:, ~odd], q[:, odd]


def _drop_ring_odd(
    sys: CompositeSystem, a: np.ndarray, half: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Basis left once the ring reflection drops its odd block, and that block's steady state.

    The reflection r maps site m of each ring to M - m (mod M) and fixes the
    lattice; its odd modes vanish on the contact sites.  The odd block Q_o
    is dropped, with steady state P_o target P_o (P_o = Q_o Q_o^T), when r
    commutes with A, that state is stationary, A rho + rho A^dag = P_o drive
    with P_o X = (X - X[r])/2 (which also rules out a drive between the odd
    and even blocks), and every odd mode relaxes, so the odd block has one
    steady state and no dark pair.  Otherwise the basis is the identity and
    the steady state zero.
    """
    imap = sys.index_map
    n = imap.size
    r = np.arange(n)
    for block in (imap.left, imap.right):
        m = r[block] - block.start
        r[block] = block.start + (-m) % m.size
    q, q_o = _pair_basis(r)
    rho_odd = q_o @ (q_o.T @ (sys.target @ q_o)) @ q_o.T
    # A rho_odd + rho_odd A^dag - P_o drive; rho_odd is zero off the rings
    rings = slice(imap.n_lattice, n)
    x = a[:, rings] @ rho_odd[rings, rings]
    stationary = 0.5 * (sys.drive[r] - sys.drive)
    stationary[:, rings] += x
    stationary[rings] += x.conj().T
    if (
        _commutes(r, a, tol)
        and np.abs(stationary).max() <= tol
        and half[r < np.arange(n)].min(initial=np.inf) > tol
    ):
        return q, rho_odd
    return np.eye(n), np.zeros((n, n), dtype=complex)


def _gauge(a: np.ndarray, b: np.ndarray, tol: float, s: np.ndarray | None = None) -> np.ndarray:
    """Unit phases d for d_i b[i, j] conj(d_j) = a[i, j]: if any phases satisfy it, these do.

    One depth-first walk over the bonds of a (its entries above tol) fixes d
    on a spanning tree of each connected part: a bond i -> j sets
    d_j = d_i * phase(conj(a[i, j]) b[i, j]), so d = 1 where b = a, and a
    part's first site takes d = 1.  With an involution s and
    b = a[s][:, s] (the mirror), d is also made to satisfy d_i d[s_i] = 1, so
    that S x = d * x[s] is a unitary involution that commutes with a: a
    part's first site takes conj(d) of its image if that is set already, and
    a part mapped onto itself is rotated by one common phase.  The walk
    does not check the relation off the tree: the caller does.
    """
    n = a.shape[0]
    rows, cols = np.divmod(np.flatnonzero(np.abs(a) > tol), n)
    w = a[rows, cols].conj() * b[rows, cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (w / np.abs(w)).tolist()
    starts = np.searchsorted(rows, np.arange(n + 1)).tolist()
    cols = cols.tolist()
    d: list = [None] * n
    root = list(range(n))
    for r in range(n):
        if d[r] is not None:
            continue
        d[r] = 1.0 + 0j if s is None or d[s[r]] is None else d[s[r]].conjugate()
        stack = [r]
        while stack:
            i = stack.pop()
            for k in range(starts[i], starts[i + 1]):
                j = cols[k]
                if d[j] is None:
                    d[j] = d[i] * w[k]
                    root[j] = r
                    stack.append(j)
    d = np.array(d)
    if s is not None:
        root = np.array(root)
        d /= np.sqrt(d[root] * d[s[root]])
    return d


def _mirror_split(
    imap: IndexMap, q: np.ndarray, a_q: np.ndarray, tol: float
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The mirror of q's columns and the blocks (Q_s, Q_s^dag A Q_s), given a_q = q^T A q.

    The mirror maps lattice site i to n_lattice - 1 - i and left ring site
    m to right ring site m, and q's columns onto each other as
    s = argmax(q^T q[mirror], axis=0).  Where the rings have equal size and
    a gauge d makes S x = d * x[s] commute with a_q (``_gauge``), q
    splits into the + and - blocks of S (``_pair_basis``): d = 1 on the SSH
    chains, and the Peierls phases of the rhombic chains need d != 1.
    Otherwise the mirror is the identity and (q, a_q) the one block.  Only A
    has to split, since the solve takes any source: mu, beta and the target
    need not be mirror-symmetric.
    """
    if imap.n_left == imap.n_right:
        idx = np.arange(imap.size)
        mirror = np.concatenate([idx[imap.lattice][::-1], idx[imap.right], idx[imap.left]])
        s = np.argmax(q.T @ q[mirror], axis=0)
        a_s = a_q[np.ix_(s, s)]
        d = _gauge(a_q, a_s, tol, s)
        if np.abs(d[:, None] * a_s * d.conj() - a_q).max() <= tol:
            return s, [(q @ p, p.conj().T @ a_q @ p) for p in _pair_basis(s, d)]
    return np.arange(q.shape[1]), [(q, a_q)]


def _chiral_fold(
    a: np.ndarray, blocks: list[tuple], tol: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """(p, g) with B_-[p][:, p] = g conj(B_+) conj(g) for the two mirror blocks, or None.

    Phases c with c conj(a) conj(c) = a (``_gauge`` against conj(a)) make
    C x = c * conj(x) an antiunitary symmetry of a.  They exist where the
    lattice and the rings form a bipartite graph with hoppings real up to a
    gauge and no on-site energy, so that a's diagonal is the real rates;
    then c is the sublattice sign.  Where C anticommutes with the mirror S
    (an even SSH chain, whose mirror swaps the sublattices, or a rhombic
    chain at flux pi, whose mirror gauge is imaginary), C maps the + block
    onto the - block, c conj(Q_+) = Q_-[:, p] diag(g) for a column
    permutation p and unit phases g, and the blocks are related as above.
    Both relations are checked on every entry, which checks c on the kept
    blocks, where the solve needs it.  blocks holds (Q_s, Q_s^dag, B_s, ...)
    of ``_Sectors``.
    """
    if len(blocks) != 2 or blocks[0][2].shape != blocks[1][2].shape:
        return None
    c = _gauge(a, a.conj(), tol)
    (q_p, _, b_p, _), (q_m, qh_m, b_m, _) = blocks
    cq = c[:, None] * q_p.conj()
    w = qh_m @ cq
    p = np.argmax(np.abs(w), axis=0)
    g = w[p, np.arange(p.size)]
    if (
        np.abs(q_m[:, p] * g - cq).max() <= tol
        and np.abs(b_m[np.ix_(p, p)] - g[:, None] * b_p.conj() * g.conj()).max() <= tol
    ):
        return p, g
    return None


def _re_row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re sum_b x[i, b] conj(y[i, b]) for each row i of two C-contiguous complex arrays."""
    return np.einsum("ij,ij->i", x.view(float), y.view(float))


class _Sectors:
    """The symmetry blocks of A = iH + Delta, which leave out the gate and kappa.

    Every lattice site has the on-site energy ``gate`` (the lattice's
    gate_offset) and the dephasing rate kappa/2, so A = A_0 + z P with
    z = i gate + kappa/2, P the projector on the lattice and
    A_0 = i (H - gate P) + Gamma/2.  Both involutions map lattice sites to
    lattice sites, so they commute with P, and Q_s^dag P Q_s is 0 or 1 on
    each basis column.  So the split found on A_0 (``_drop_ring_odd``,
    ``_mirror_split``) holds for every gate and kappa, and each block is
    Q_s^dag A Q_s = B_s + z p_s with B_s = Q_s^dag A_0 Q_s.  A_0 differs
    from A only by z on the lattice diagonal, where it is 0, so its
    tolerance is no larger than that of any A.  ``blocks`` holds
    (Q_s, Q_s^dag, B_s, the indices where p_s = 1), + block first,
    ``block_sizes`` their sizes, ``lattice_mirror`` the mirror of the
    lattice sites (the identity when A does not split) and ``chiral`` the
    relation (p, g) between B_+ and B_- of ``_chiral_fold``, or None.  The
    conjugation in that relation takes z to conj(z), so it carries over to
    the blocks of A only where z is real: at gate 0.
    """

    def __init__(self, sys: CompositeSystem):
        imap = sys.index_map
        half = _half_rates(sys, 0.0)
        gate = np.diag(sys.lattice.gate_offset * sys.lattice_mask)
        a = 1j * (sys.h_total - gate) + np.diag(half)
        tol = SECTOR_TOL * max(1.0, float(np.abs(a).max()))

        q, self.rho_odd = _drop_ring_odd(sys, a, half, tol)
        mirror, blocks = _mirror_split(imap, q, q.T @ a @ q, tol)
        # q's first n_lattice columns are the lattice sites
        self.lattice_mirror = mirror[: imap.n_lattice]
        self.blocks = []
        for q_s, b_s in blocks:
            q_s = q_s.astype(complex)
            on_lattice = np.flatnonzero(np.abs(q_s[imap.lattice]).max(axis=0) > 0)
            self.blocks.append((q_s, np.ascontiguousarray(q_s.conj().T), b_s, on_lattice))
        self.block_sizes = tuple(b_s.shape[0] for _, b_s in blocks)
        self.chiral = _chiral_fold(a, self.blocks, tol)


def _sectors(sys: CompositeSystem) -> _Sectors:
    """sys's sector structure, built on first use and kept on sys."""
    if sys._sectors is None:
        sys._sectors = _Sectors(sys)
    return sys._sectors


def share_sectors(sys: CompositeSystem, source: CompositeSystem | None = None) -> CompositeSystem:
    """sys, carrying the sector structure of source (sys itself by default); returns sys.

    The structure is built once, on source, and leaves out the gate and
    kappa, so sys may differ from source in those alone: a gate sweep
    builds it on one row and shares it with the others.  Every solve still
    checks its own residual against sys.
    """
    sys._sectors = _sectors(sys if source is None else source)
    return sys


class _SylvesterFactorization:
    """Eigendecomposition of A = iH + Delta, one block of ``_Sectors`` at a time.

    Each block, B_s + z p_s in the basis Q_s, is eigendecomposed on its own,
    Q_s^dag A Q_s = V_s diag(lam_s) V_s^-1, except that where ``_Sectors``
    holds the chiral relation (p, g) and z is real (``folded``) the - block
    follows from the + block: lam_- = conj(lam_+), V_-[p] = g conj(V_+) and
    V_-^-1[:, p] = conj(V_+^-1) conj(g).  ``eig_blocks`` lists the sizes of
    the eigendecompositions run; ``rho_odd``, ``block_sizes`` and
    ``lattice_mirror`` are those of ``_Sectors``.  ``lam`` concatenates the
    eigenvalues, and ``v = [Q_1 V_1, ...]`` and ``vinv = [V_1^-1 Q_1^dag; ...]``
    act in the site basis, so ``solve(source)`` returns the kept blocks'
    solution of A X + X A^dag = S as v ((vinv S vinv^dag) / D) v^dag with
    D_ab = lam_a + conj(lam_b); the source need not respect either symmetry.
    Pairs with |D| below the guard correspond to conserved (dark) sectors;
    their components are projected out, which selects the minimal-norm
    steady state.  ``solve`` is ``back(rotate(source))``, and a source that
    is nonzero on a few sites (the drive, on the rings) is rotated over
    those alone; ``lattice_diagonal`` reads the lattice diagonal of a
    solution from v's lattice rows, and ``dephasing_map`` is the
    lattice-diagonal part of ``solve``.
    """

    def __init__(self, sys: CompositeSystem, kappa: float):
        sectors = _sectors(sys)
        self.rho_odd = sectors.rho_odd
        self.lattice_mirror = sectors.lattice_mirror
        self.block_sizes = sectors.block_sizes
        z = complex(0.5 * kappa, sys.lattice.gate_offset)
        self.folded = sectors.chiral is not None and z.imag == 0
        lams, vs, vinvs, eig_blocks = [], [], [], []
        for q_s, qh_s, b_s, lat_s in sectors.blocks:
            if self.folded and lams:
                p, g = sectors.chiral
                lam, v_c, vinv_c = lam.conj(), v.conj(), vinv.conj()
                v, vinv = np.empty_like(v), np.empty_like(vinv)
                v[p] = g[:, None] * v_c
                vinv[:, p] = vinv_c * g.conj()
            else:
                a_s = b_s.copy()
                a_s[lat_s, lat_s] += z
                lam, v = np.linalg.eig(a_s)
                vinv = np.linalg.inv(v)
                eig_blocks.append(lam.size)
            lams.append(lam)
            vs.append(q_s @ v)
            vinvs.append(vinv @ qh_s)
        self.eig_blocks = tuple(eig_blocks)
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

    def rotate(self, source: np.ndarray) -> np.ndarray:
        """vinv S vinv^dag, over the rows and columns where the source S is nonzero."""
        nonzero = source != 0
        on = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
        u = self.vinv[:, on]
        return u @ source[np.ix_(on, on)] @ u.conj().T

    def back(self, t: np.ndarray) -> np.ndarray:
        """The solution v (t / D) v^dag for a rotated source t."""
        return self.v @ (t * self.inv_denom) @ self.v.conj().T

    def solve(self, source: np.ndarray) -> np.ndarray:
        return self.back(self.rotate(source))

    def lattice_diagonal(self, t: np.ndarray, latt: np.ndarray) -> np.ndarray:
        """Re diag(back(t)) over the lattice sites latt, from v's lattice rows alone."""
        v = self.v[latt]
        return _re_row_dot(v @ (t * self.inv_denom), v)

    def dephasing_map(self, latt: np.ndarray) -> np.ndarray:
        """Real M with M[i, j] = Re solve(|latt_j><latt_j|)[latt_i, latt_i].

        Column j is Re diag(v Y_j v^dag) over the lattice rows, with
        Y_j = (u_j u_j^dag) * inv_denom and u_j = vinv[:, latt_j], taken row by
        row as Re sum_b (w inv_denom)_ib conj(w_ib) with w = v * u_j^T.  The mirror
        folds it: S commutes with A, so M[Si, Sj] = M[i, j], and v's rows and
        vinv's columns at Si are those at i up to a phase and the sign of their
        block.  For j in the half of the lattice that each mirror pair enters
        once (lo and the fixed sites), the same-block pairs of Y_j give E and
        the (+, -) pair X = 2 Re sum; then M[i, j] = M[Si, Sj] = E + X and
        M[Si, j] = M[i, Sj] = E - X, over rows i in the same half.  Unsplit,
        the mirror is the identity and there is no - block, so X = 0.  Folded
        by C, the - block is the conjugate of the + block, whose (-, -) term
        is the complex conjugate of its (+, +) term: E is twice the latter.
        """
        nl = latt.size
        mir = self.lattice_mirror
        half = np.flatnonzero(mir >= np.arange(nl))
        e, o = slice(0, self.block_sizes[0]), slice(self.block_sizes[0], None)
        v = self.v[latt[half]]
        v_e, v_o = v[:, e], v[:, o]
        inv_ee, inv_oo, inv_eo = (
            np.ascontiguousarray(self.inv_denom[x, y]) for x, y in ((e, e), (o, o), (e, o))
        )
        u = self.vinv[:, latt]
        m = np.empty((nl, nl))
        for j in half:
            w_e, w_o = v_e * u[e, j], v_o * u[o, j]
            same = _re_row_dot(w_e @ inv_ee, w_e)
            same = 2.0 * same if self.folded else same + _re_row_dot(w_o @ inv_oo, w_o)
            cross = 2.0 * _re_row_dot(w_e @ inv_eo, w_o)
            m[half, j] = m[mir[half], mir[j]] = same + cross
            m[mir[half], j] = m[half, mir[j]] = same - cross
        return m


def _solve_sylvester(
    sys: CompositeSystem,
    kappa: float,
    cfg: SolverConfig,
) -> tuple[np.ndarray, int, float, list[str], tuple[int, ...]]:
    notes: list[str] = []
    fact = _SylvesterFactorization(sys, kappa)
    if fact.dark_pairs.any():
        notes.append(
            "degenerate dissipation-free sector detected; returning the minimal-norm steady state"
        )
        warnings.warn(notes[-1], DegenerateSteadyStateWarning, stacklevel=3)

    t = fact.rotate(sys.drive)
    solves = 1
    if kappa > 0:
        # Self-consistency over the lattice diagonal d: the solve is affine,
        # d = d0 + kappa*M d, so one small linear system replaces a fixed
        # point iteration that stalls once kappa exceeds the escape rates.
        # The source drive + kappa diag(d) is rotated as two terms, the
        # drive's read for d0 on the lattice rows alone.
        latt = np.where(sys.lattice_mask)[0]
        nl = latt.size
        m = fact.dephasing_map(latt)
        solves += nl
        d0 = fact.lattice_diagonal(t, latt)
        d = np.linalg.solve(np.eye(nl) - kappa * m, d0)
        u = fact.vinv[:, latt]
        t = t + (u * (kappa * d)) @ u.conj().T
        solves += 1
    rho = fact.back(t)
    rho = rho + fact.rho_odd
    rho = 0.5 * (rho + rho.conj().T)
    return rho, solves, _residual(sys, rho, kappa), notes, fact.eig_blocks


def build_superoperator(sys: CompositeSystem, kappa: float) -> np.ndarray:
    """Vectorized generator L with vec(d rho/dt) = L vec(rho) + vec(drive).

    Row-major vectorization, vec(A X B) = (A kron B^T) vec(X), turns
    -(A rho + rho A^dag) into -(A kron 1 + 1 kron conj(A)); the dephasing
    feeds kappa back on the lattice-diagonal pairs.
    """
    n = sys.size
    a = 1j * sys.h_total + np.diag(_half_rates(sys, kappa))
    eye = np.eye(n)
    lin = -(np.kron(a, eye) + np.kron(eye, a.conj()))
    latt = np.flatnonzero(sys.lattice_mask)
    lin[latt * (n + 1), latt * (n + 1)] += kappa
    return lin


def _solve_full_linear(
    sys: CompositeSystem,
    kappa: float,
    cfg: SolverConfig,
) -> tuple[np.ndarray, int, float, list[str], tuple[int, ...]]:
    """The least-squares rho with L vec(rho) = -vec(drive), minimal-norm where L is singular.

    Where L is exactly singular (the dark sectors at kappa = 0) that is the
    guard's convention; near such a point lstsq's rank cut and the guard's
    denominator cut differ, and their agreement there is untested.
    """
    n = sys.size
    if n > FULL_LINEAR_MAX_SIZE:
        raise ValueError(
            f"FullLinearSolve builds an N^2 x N^2 system and is gated to N <= {FULL_LINEAR_MAX_SIZE} (got N={n})"
        )
    notes: list[str] = []
    lin = build_superoperator(sys, kappa)
    x, _, rank, _ = np.linalg.lstsq(lin, -sys.drive.reshape(-1), rcond=None)
    if rank < n * n:
        notes.append("generator is singular; least-squares minimal-norm steady state returned")
        warnings.warn(notes[-1], DegenerateSteadyStateWarning, stacklevel=3)
    rho = x.reshape(n, n)
    rho = 0.5 * (rho + rho.conj().T)
    return rho, 1, _residual(sys, rho, kappa), notes, ()


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
        m, iters, res, notes, eig_blocks = _solve_sylvester(sys, kappa, cfg)
    elif cfg.method == SolverMethod.FULL_LINEAR:
        m, iters, res, notes, eig_blocks = _solve_full_linear(sys, kappa, cfg)
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
        eig_blocks=eig_blocks,
    )
    if not diag.converged:
        raise SolverError(
            f"{cfg.method.value} finished with residual {res:.3e} > {cfg.residual_tol:.1e}",
            diag,
        )
    return SPDM(matrix=m, index_map=sys.index_map, time=np.inf), diag


def spdm_to_json(rho: SPDM) -> dict:
    """JSON object of an SPDM; the matrix is stored row-major as [re, im] pairs."""
    m = rho.matrix
    return {
        "N": m.shape[0],
        "index_map": rho.index_map.labels() if rho.index_map is not None else None,
        "matrix": np.stack((m.real, m.imag), -1).reshape(-1, 2).tolist(),
    }
