"""Single-particle density matrix dynamics and steady-state solvers.

Because the Hamiltonian is quadratic, the lead relaxation is linear and
the dephasing acts site-diagonally, the Lindblad dynamics closes on the
N x N single-particle density matrix rho:

    d rho / dt = -i [H, rho] - (Delta rho + rho Delta)
                 + gamma * target + kappa * diag_lattice(rho)

with Delta the diagonal half-rate matrix (gamma/2 on lead indices,
kappa/2 on lattice indices): the first two terms are -(A rho + rho A^dag)
with the generator A = iH + Delta.  The steady state has one route,
``SylvesterIteration``, the one value of ``SolverMethod``: one
eigendecomposition of A turns every solve of A X + X A^dag = S into two
basis rotations.  The dephasing back-feed only couples to the lattice
diagonal, so L(kappa) X = -S is affine in that diagonal and one small
linear solve over it pins X down exactly.  That one solve,
``_SylvesterFactorization.apply``, takes any Hermitian source S: the
steady state is it applied to the drive.  A is eigendecomposed one symmetry
block at a time, by one rule (``_split``): an involution S x = d * x[s]
that permutes the sites s, up to a phase d per site, and commutes with A
splits it into S's +1 and -1 blocks.  Both involutions take phases: d = 1
on the shipped systems' ring reflection and on the SSH chains' mirror,
and any site gauge of the system moves into d.  The ring reflection
m <-> M - m drops its odd block, whose modes vanish on the contact site,
where that block is decoupled in its own basis: the drive does not join
it to the even block, the target's odd block is its steady state, and
every odd mode relaxes.  The whole-system mirror (lattice site
i <-> n - 1 - i, rings swapped) then halves what is left; on the rhombic
chains its d undoes the Peierls phases, which the mirror moves from
A_n -> B_n onto another bond.  The per-solve floor is two LAPACK
``zgeev`` at 51 for fig1/fig2 (N = 140) and two at 44 for fig3/fig4
(N = 126).  The dephasing reduction is folded by the same mirror: it
builds the columns of one half of the lattice from the two blocks and
their cross term.
At gate 0 the chiral fold halves the floor where it holds: on a
bipartite lattice with real hoppings (up to a gauge) and no on-site
term, the sublattice sign c makes C x = c * conj(x) a symmetry of A, and
where C maps the mirror's + block onto its - block, C of each + block
eigenvector at lam is a - block eigenvector at conj(lam)
(``_chiral_fold``).  Then one ``zgeev`` at 51 serves fig1/fig2 at
delta = 0; fig3 (flux off pi) and fig4 (delta off 0) keep two at 44.
The blocks do not depend on the gate or kappa (``_Sectors``), so they
are found once per system, with the chiral phases, and kept on it.  A
sweep assembles one system and derives each row from it with
``at_gate``, which carries the blocks, so a solve pays for the
eigendecomposition of each block, not for finding the blocks.  Each
block's basis composes the two pair bases and so has one nonzero per
site row; it is kept as that row's column and weight, and every product
with it (the blocks themselves, and Q_s V_s and V_s^-1 Q_s^dag in the
solve) is a gather.  The dephasing
reduction stacks several lattice columns into one product per block
pair.  Its linear system takes each diagonal entry from probability
conservation, as the escape into the leads plus the dephasing out of
the site, which does not cancel at large kappa.

The equation of motion is written once (``_motion``), over the bonds of A
as h_total holds them at that call: it keeps nothing on the system, so
the residual each solve reports checks the reused blocks rather than
trusting them.  The state it takes is Hermitian bit for bit, so one row
gather gives both A rho and rho A^dag; ``apply_liouvillian`` takes any
rho through its Hermitian and anti-Hermitian parts.  The large arrays of
a solve live in a workspace kept with the system's blocks
(``_Sectors.idle``), so the rows of a sweep pass it on to each other and
it is freed with the system.
"""

from __future__ import annotations

import ctypes
import enum
import functools
import threading
import time
import warnings
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .leads import CompositeSystem, IndexMap, contact_bonds

DENOMINATOR_GUARD = 1e-12
# Tolerance on every condition for a symmetry split of A = iH + Delta (an
# involution commuting with A, and the ring-odd block's decoupling),
# relative to the largest entry of A and at least 1.
SECTOR_TOL = 1e-12
# The dephasing map stacks the rows of several lattice columns into one
# product, up to this many bytes per temporary: within glibc's default mmap
# threshold, so each temporary comes from the heap rather than fresh pages.
MAP_CHUNK_BYTES = 1 << 17


class SolverMethod(str, enum.Enum):
    SYLVESTER = "SylvesterIteration"


@dataclass(frozen=True)
class SolverConfig:
    method: SolverMethod = SolverMethod.SYLVESTER
    residual_tol: float = 1e-9   # in units of max(1, |target|_inf)

    def __post_init__(self) -> None:
        # a frozen field is set through object; an unknown name raises here, before any solve
        object.__setattr__(self, "method", SolverMethod(self.method))
        if not 0 < self.residual_tol < np.inf:
            raise ValueError("residual_tol must be positive and finite")


@dataclass
class SolveDiagnostics:
    """What one solve reports; the CLI writes it as steady_state.json's ``diagnostics``."""

    method: SolverMethod
    iterations: int
    residual: float
    wall_time: float
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


class _Workspace:
    """The large working arrays of one solve at N sites and n kept columns, views of one allocation.

    ``v``, ``vinv`` and ``inv_denom`` hold the factorization, and
    ``scratch`` and ``product`` are N x N: ``back`` stages its two N x n
    products in their first N n entries (``head``), and the Hermitian part
    and the residual, which run after the last ``back``, use them whole.
    Every user writes what it reads first, so nothing one solve leaves
    there reaches the next.  A solve returns its workspace to the idle list
    of the system's blocks (``_Sectors.idle``), and the next solve on those
    blocks, such as the next row of a sweep, takes it from there: made
    afresh per row, the arrays would be trimmed off the heap by the
    allocator and faulted back in by the next row.  They are one
    allocation (1.25 MB at N = 140, n = 102) rather than five: when the
    system that keeps it is freed, glibc raises its mmap threshold to that
    size, and the temporaries of later sweeps stay on the heap instead of
    being trimmed and faulted in again.
    """

    def __init__(self, n_sites: int, n_kept: int):
        shapes = [(n_sites, n_kept), (n_kept, n_sites), (n_kept, n_kept), (n_sites, n_sites),
                  (n_sites, n_sites)]
        ends = np.cumsum([0] + [a * b for a, b in shapes])
        self.block = np.empty(ends[-1], dtype=complex)
        self.v, self.vinv, self.inv_denom, self.scratch, self.product = (
            self.block[start:stop].reshape(shape)
            for start, stop, shape in zip(ends[:-1], ends[1:], shapes)
        )

    @staticmethod
    def head(a: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
        """The first entries of the contiguous array a, as a contiguous array of that shape."""
        return a.reshape(-1)[: shape[0] * shape[1]].reshape(shape)


def _half_rates(sys: CompositeSystem, kappa: float) -> np.ndarray:
    return 0.5 * (sys.gamma_by_index + kappa * sys.lattice_mask)


def _residual_scale(sys: CompositeSystem) -> float:
    return max(1.0, float(np.abs(sys.target).max()))


def _check_kappa(kappa: float) -> None:
    if not 0 <= kappa < np.inf:
        raise ValueError(f"kappa must be non-negative and finite, got {kappa}")


def _check_gate(gate: float) -> None:
    if not np.isfinite(gate):
        raise ValueError(f"gate must be finite, got {gate}")


def _bonds(sys: CompositeSystem, kappa: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(idx, amp, diag): the rows of A = iH + Delta as h_total holds them at this call.

    A[i, i] = diag[i], and the bonds, the off-diagonal entries, are read
    from h_total on every call, so an edit in place is seen at once: row i
    of idx lists the j != i with h[i, j] != 0, whose A[i, j] is amp[i, k],
    padded with column 0 and amplitude 0, a few per site for a chain plus
    two rings.
    """
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
    return idx, amp, 1j * h.diagonal() + _half_rates(sys, kappa)


def apply_liouvillian(sys: CompositeSystem, rho: np.ndarray, kappa: float) -> np.ndarray:
    """Right-hand side of the closed single-particle master equation.

    Lead dissipator: relaxation of every element touching a lead index at
    gamma/2 per index plus the thermal drive; cross-lead coherences decay
    with no source.  Dephasing: inter-site coherences decay at kappa
    (kappa/2 per lattice index) while the lattice diagonal is untouched.
    Both, and the commutator with H, are -(A rho + rho A^dag).  The map is
    linear but for the drive, so with x = (rho + rho^dag)/2 and
    y = (rho - rho^dag)/(2i), both Hermitian bit for bit,
    L(rho) = L(x) + i (L(y) - drive), each term the solve's own equation of
    motion (``_motion``): exact for any rho, and for a Hermitian rho, where
    y = 0, that equation bit for bit.  x and y go through one gather, as
    one stack.
    """
    _check_kappa(kappa)
    rho = np.asarray(rho, dtype=complex)
    rho_dag = np.conjugate(rho.T)
    parts = np.stack([0.5 * (rho + rho_dag), -0.5j * (rho - rho_dag)])
    x, y = _motion(sys, parts, kappa, np.empty_like(parts), np.empty_like(parts))
    x += 1j * (y - sys.drive)
    return x


def _motion(sys: CompositeSystem, m: np.ndarray, kappa: float, out: np.ndarray,
            p: np.ndarray) -> np.ndarray:
    """d m/dt = drive - A m - m A^dag + kappa diag_lattice(m), in out, for an m that is Hermitian bit for bit.

    Then m A^dag = (A m)^dag, so one row gather over A's rows (``_bonds``)
    gives both products: d m/dt = drive - (p + p^dag) + kappa diag_lattice(m)
    with p = A m.  m may be a stack of N x N matrices, each taken alone,
    and out and p are arrays of its shape.  It reads h_total and m, and
    out and p only after it has written them.
    """
    idx, amp, diag = _bonds(sys, kappa)
    np.multiply(diag[:, None], m, out=p)
    for k in range(idx.shape[1]):
        # mode="clip" gathers straight into out; the default mode gathers into a copy first
        np.take(m, idx[:, k], axis=-2, out=out, mode="clip")
        out *= amp[:, k, None]
        p += out
    np.conjugate(np.swapaxes(p, -1, -2), out=out)
    out += p
    np.subtract(sys.drive, out, out=out)
    latt = np.flatnonzero(sys.lattice_mask)
    out[..., latt, latt] += kappa * m[..., latt, latt]
    return out


def _residual(sys: CompositeSystem, m: np.ndarray, kappa: float, ws: _Workspace) -> float:
    """|d m/dt|_inf over max(1, |target|_inf), for an m that is Hermitian bit for bit (``_motion``)."""
    out = _motion(sys, m, kappa, ws.scratch, ws.product)
    # A m is spent: the real part of its array takes |out|
    return float(np.abs(out, out=ws.product.real).max()) / _residual_scale(sys)


def _pair_basis(perm: np.ndarray, d: np.ndarray) -> tuple[tuple, tuple]:
    """Orthonormal bases of the +1 and -1 eigenspaces of the involution S x = d * x[perm].

    Each pair lo < hi = perm[lo] gives the column (|lo> + d_hi |hi>)/sqrt(2) to
    the + basis, in the place of lo, and (|lo> - d_hi |hi>)/sqrt(2) to the -
    basis, in the place of hi; each fixed point i gives |i> to the basis of
    the sign of d_i.  The phases d have unit modulus and d_i d[perm[i]] = 1;
    d = 1 gives the real bases of the plain permutation.  A column has
    at most two nonzeros, so each basis is returned as (rows, w) of shape
    (2, columns): column k is w[0, k] |rows[0, k]> + w[1, k] |rows[1, k]>,
    with w[1, k] = 0 at a fixed point.
    """
    idx = np.arange(perm.size)
    fixed = perm == idx
    h = np.sqrt(0.5)
    own = idx[(perm > idx) | (fixed & (d.real > 0))]
    other = perm[own]
    pair = other != own
    w = np.where(pair, h, 1.0), np.where(pair, h * d[other], 0.0)
    even = np.stack([own, other]), np.stack(w)
    own = idx[(perm < idx) | (fixed & (d.real < 0))]
    other = perm[own]
    pair = other != own
    w = np.where(pair, -h * d[own], 1.0), np.where(pair, h, 0.0)
    odd = np.stack([own, other]), np.stack(w)
    return even, odd


def _row_map(basis: tuple, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(col, w) with w[i] in column col[i] the one nonzero of row i of a ``_pair_basis`` basis.

    A row the basis does not reach has w = 0 (and col = 0).
    """
    rows, w = basis
    col = np.zeros(n, dtype=np.intp)
    weight = np.zeros(n, dtype=w.dtype)
    k = np.arange(rows.shape[1])
    col[rows[1]], weight[rows[1]] = k, w[1]
    # written last, so that a fixed point keeps its weight
    col[rows[0]], weight[rows[0]] = k, w[0]
    return col, weight


def _pair_rows(x: np.ndarray, basis: tuple, conj: bool) -> np.ndarray:
    """Q^T x for a ``_pair_basis`` basis Q (Q^dag x if conj), gathering two rows of x per column of Q."""
    rows, w = basis
    w = w.conj() if conj else w
    y = x[rows[0]]
    y *= w[0, :, None]
    other = x[rows[1]]
    other *= w[1, :, None]
    y += other
    return y


def _project(x: np.ndarray, basis: tuple, right: tuple | None = None) -> np.ndarray:
    """Q^dag x R for ``_pair_basis`` bases Q and R (R = Q by default), by two gathers instead of two products."""
    right = basis if right is None else right
    return _pair_rows(_pair_rows(x, basis, conj=True).T, right, conj=False).T


def _split(a: np.ndarray, perm: np.ndarray, tol: float) -> list[tuple[tuple, np.ndarray]] | None:
    """The + and - blocks of a under an involution that permutes its indices up to a phase each, or None.

    ``_gauge`` finds phases d with which S x = d * x[perm] commutes with a,
    to tol, or reports that none exist (None).  Each block is then
    (its ``_pair_basis`` basis Q, Q^dag a Q), the + block first.
    """
    d = _gauge(a, a[np.ix_(perm, perm)], tol, perm)
    if d is None:
        return None
    return [(p, _project(a, p)) for p in _pair_basis(perm, d)]


def _drop_ring_odd(
    sys: CompositeSystem, a: np.ndarray, tol: float
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """Basis left once the ring reflection drops its odd block, A in that basis, and the block's steady state.

    The reflection r maps site m of each ring to M - m (mod M) and fixes the
    lattice, up to a phase per site (``_split``); its odd modes vanish on
    the contact sites.  The odd block Q_o, with B_o = Q_o^dag A Q_o, is
    dropped where it is decoupled in its own basis: Q_o^dag drive Q_e = 0,
    so the drive does not join it to the even block Q_e; the target's odd
    block T = Q_o^dag target Q_o solves B_o T + T B_o^dag = Q_o^dag drive Q_o;
    and Re diag B_o > tol, which is B_o's Hermitian part (Delta is diagonal
    and the basis columns have disjoint rows), so every odd mode relaxes and
    the block has one steady state and no dark pair.  That state is
    rho_odd = Q_o T Q_o^dag, two gathers with Q_o's row map.  The basis left
    is returned as Q_e's row map (``_row_map``), with Q_e^dag A Q_e.
    Otherwise the basis is the identity, A is returned as it is, and the
    steady state is zero.
    """
    imap = sys.index_map
    n = imap.size
    r = np.arange(n)
    for block in (imap.left, imap.right):
        m = r[block] - block.start
        r[block] = block.start + (-m) % m.size
    split = _split(a, r, tol)
    if split is not None:
        (even, b_e), (odd, b_o) = split
        t = _project(sys.target, odd)
        rest = b_o @ t + t @ b_o.conj().T - _project(sys.drive, odd)
        coupled = np.abs(_project(sys.drive, odd, even)).max(initial=0.0)
        if b_o.size and max(coupled, np.abs(rest).max()) <= tol < b_o.diagonal().real.min():
            col, w = _row_map(odd, n)
            rho_odd = w[:, None] * t[np.ix_(col, col)] * w.conj()
            return _row_map(even, n), b_e, rho_odd
    return (np.arange(n), np.ones(n)), a, np.zeros((n, n), dtype=complex)


@np.errstate(divide="ignore", invalid="ignore")
def _gauge(
    a: np.ndarray, b: np.ndarray, tol: float, s: np.ndarray | None = None
) -> np.ndarray | None:
    """Unit phases d with d_i b[i, j] conj(d_j) = a[i, j] on every entry to tol, or None if none exist.

    One depth-first walk over the bonds of a (its entries above tol) fixes d
    on a spanning tree of each connected part: a bond i -> j sets
    d_j = d_i * phase(conj(a[i, j]) b[i, j]), so d = 1 where b = a, and a
    part's first site takes d = 1.  With an involution s and
    b = a[s][:, s] (``_split``), d is also made to satisfy d_i d[s_i] = 1, so
    that S x = d * x[s] is a unitary involution that commutes with a: a
    part's first site takes conj(d) of its image if that is set already, and
    a part mapped onto itself is rotated by one common phase.  The walk
    sets d from the tree alone, so the relation is then checked on every
    entry: if any phases satisfy it, these do.  A bond of a that b lacks
    gives its far site a NaN phase, which fails the check, without a
    floating-point warning.  d = 1 is tried first, by one vectorised
    comparison: it holds on every shipped ring reflection and SSH mirror,
    and there the walk, a Python step per bond, would find it too.
    """
    n = a.shape[0]
    # one N x N temporary, reused: each fresh one past the mmap threshold costs page faults
    x = np.subtract(b, a)
    if np.abs(x).max(initial=0.0) <= tol:
        return np.ones(n, dtype=complex)
    rows, cols = np.divmod(np.flatnonzero(np.abs(a) > tol), n)
    w = a[rows, cols].conj() * b[rows, cols]
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
    np.multiply(d[:, None], b, out=x)
    x *= d.conj()
    return d if np.abs(np.subtract(x, a, out=x)).max() <= tol else None


def _mirror_split(
    imap: IndexMap, q: tuple[np.ndarray, np.ndarray], a_q: np.ndarray, tol: float
) -> tuple[np.ndarray, list[tuple[tuple[np.ndarray, np.ndarray], np.ndarray]]]:
    """The mirror of q's columns and the blocks (row map of Q_s, Q_s^dag A Q_s), given a_q = q^dag A q.

    q is a basis with one nonzero per row, given as its row map (col, w).
    The mirror maps lattice site i to n_lattice - 1 - i and left ring site
    m to right ring site m, and so q's columns onto each other: column k
    goes to the column that holds the mirror image of any of its rows.
    Where the rings have equal size and ``_split`` finds phases d that make
    S x = d * x[s] commute with a_q, q splits into the + and - blocks P_s
    of S: d = 1 on the SSH chains, and the Peierls phases of the rhombic
    chains need d != 1.  Q_s = q P_s keeps one nonzero per row,
    which P_s's row map gives.  Otherwise the mirror is the identity and
    (q, a_q) the one block.  Only A has to split, since the solve takes any
    source: mu, beta and the target need not be mirror-symmetric.
    """
    col, w = q
    if imap.n_left == imap.n_right:
        idx = np.arange(imap.size)
        mirror = np.concatenate([idx[imap.lattice][::-1], idx[imap.right], idx[imap.left]])
        row_of = np.empty(a_q.shape[0], dtype=np.intp)
        row_of[col] = idx
        s = col[mirror[row_of]]
        split = _split(a_q, s, tol)
        if split is not None:
            maps = [(_row_map(p, s.size), b_p) for p, b_p in split]
            return s, [((col_p[col], w * w_p[col]), b_p) for (col_p, w_p), b_p in maps]
    return np.arange(a_q.shape[0]), [(q, a_q)]


def _chiral_fold(c: np.ndarray | None, blocks: list[tuple], tol: float) -> np.ndarray | None:
    """c if C x = c * conj(x) maps the + mirror block onto the - block, else None.

    c holds the unit phases with c conj(a) conj(c) = a, from ``_gauge``
    against conj(a), or None where there are none; they make C an
    antiunitary symmetry of a.  They exist where the lattice and the
    rings form a bipartite graph with hoppings real up to a gauge and no
    on-site energy, so that a's diagonal is the real rates; then c is the
    sublattice sign times the gauge's phases.  Where C anticommutes with
    the mirror S (an even SSH chain, whose mirror swaps the sublattices, or
    a rhombic chain at flux pi, whose mirror gauge is imaginary), C maps
    the + block onto the - block: each column of C Q_+ lies in the span of
    Q_-, so the columns of Q_-^dag C Q_+ have unit norm.  Then an
    eigenvector x of a in the + block, at lam, gives C x in the - block, at
    conj(lam).  blocks holds (col, w, B_s, ...) of ``_Sectors``: row i of
    Q_s is w[i] in column col[i], so Q_-^dag C Q_+ sums
    conj(w_-i) c_i conj(w_+i) into (col_-i, col_+i).
    """
    if c is None or len(blocks) != 2 or blocks[0][2].shape != blocks[1][2].shape:
        return None
    (col_p, w_p, _, _), (col_m, w_m, b_m, _) = blocks
    w = np.zeros(b_m.shape, dtype=complex)
    np.add.at(w, (col_m, col_p), w_m.conj() * c * w_p.conj())
    return c if np.abs(np.linalg.norm(w, axis=0) - 1.0).max() <= tol else None


def _re_row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re sum_b x[i, b] conj(y[i, b]) for each row i of two C-contiguous complex arrays."""
    return np.einsum("ij,ij->i", x.view(float), y.view(float))


class _Sectors:
    """The symmetry blocks of A = iH + Delta, which leave out the gate and kappa.

    Every lattice site has the on-site energy ``gate`` (the lattice's
    gate_offset) and the dephasing rate kappa/2, so A = A_0 + z P with
    z = i gate + kappa/2, P the projector on the lattice and
    A_0 = i (H - gate P) + Gamma/2.  Both involutions, the ring reflection
    and the mirror, are found by one ``_split`` each, up to a phase per
    site, and map lattice sites to lattice sites, so they commute with P,
    and Q_s^dag P Q_s is 0 or 1 on each basis column.  So the split found on
    A_0 (``_drop_ring_odd``, ``_mirror_split``) holds for every gate and
    kappa, and each block is Q_s^dag A Q_s = B_s + z p_s with
    B_s = Q_s^dag A_0 Q_s.  A_0 differs from A only by z on the lattice
    diagonal, where it is 0, so its tolerance is no larger than that of any
    A.  Each Q_s composes the two pair bases, so it has one nonzero per site
    row, and it is kept as that row map: row i holds w[i] in column col[i]
    (w[i] = 0 where the block does not reach site i).  B_s, Q_e^dag A Q_e,
    the ring-odd block's decoupling and steady state rho_odd, and the
    mirror of Q_e's columns are found by gathering rows and columns,
    without an N x N product.  ``blocks`` holds (col, w, B_s, the indices
    where p_s = 1), + block first, ``block_sizes`` their sizes,
    ``lattice_mirror`` the mirror of the lattice sites (the identity when A
    does not split), and ``contacts`` the bonds between the lattice and the
    leads (``leads.contact_bonds``).  ``chiral`` holds the site phases c of
    ``_chiral_fold``, with which C x = c * conj(x) maps the + block onto
    the - block, or None; they are found on A_0 with the blocks.  C commutes
    with P and takes z to conj(z), so it is a symmetry of A only where z is
    real, at gate 0, and only a solve there uses them.  ``idle`` holds the
    workspaces (``_Workspace``) of the solves on these blocks that have
    finished, at most one per solve that ran at the same time: a solve pops
    one or makes a fresh one (``_new_workspace``), and returns it after its
    residual; a pooled sweep puts one per worker there before its pool
    starts, so its rows make none.  The list
    is the one part that changes after the build; ``list.pop`` and
    ``list.append`` are atomic, so the rows of a pooled sweep share the
    structure, and each running row holds its own workspace.
    """

    def __init__(self, sys: CompositeSystem):
        imap = sys.index_map
        half = _half_rates(sys, 0.0)
        a = 1j * sys.h_total
        a.flat[:: sys.size + 1] += half - 1j * (sys.lattice.gate_offset * sys.lattice_mask)
        tol = SECTOR_TOL * max(1.0, float(np.abs(a).max()))
        # the chiral phases' walk first, while A_0 is the only N x N array
        # alive: its temporaries would otherwise add to the sectors' peak memory
        c = _gauge(a, a.conj(), tol)

        q, a_q, self.rho_odd = _drop_ring_odd(sys, a, tol)
        mirror, blocks = _mirror_split(imap, q, a_q, tol)
        # q's first n_lattice columns are the lattice sites
        self.lattice_mirror = mirror[: imap.n_lattice]
        self.blocks = []
        for (col, w), b_s in blocks:
            w = w.astype(complex)
            reached = col[imap.lattice][w[imap.lattice] != 0]
            on_lattice = np.flatnonzero(np.bincount(reached, minlength=b_s.shape[0]))
            self.blocks.append((col, w, b_s, on_lattice))
        self.block_sizes = tuple(b_s.shape[0] for _, b_s in blocks)
        self.chiral = _chiral_fold(c, self.blocks, tol)
        self.contacts = contact_bonds(sys)
        self.idle: list[_Workspace] = []


def _sectors(sys: CompositeSystem) -> _Sectors:
    """sys's sector structure, built on first use and kept on sys."""
    if sys._sectors is None:
        sys._sectors = _Sectors(sys)
    return sys._sectors


def _new_workspace(sys: CompositeSystem) -> _Workspace:
    """A fresh workspace for a solve on sys's blocks: N sites, the blocks' columns kept."""
    return _Workspace(sys.size, sum(_sectors(sys).block_sizes))


def at_gate(sys: CompositeSystem, gate: float) -> CompositeSystem:
    """A copy of sys whose lattice sites all sit at the on-site energy gate.

    The copy's h_total lattice diagonal, lattice.hamiltonian diagonal and
    lattice.gate_offset hold gate; its other fields are sys's own objects.
    It carries sys's sector structure, the blocks and the chiral phases,
    built on sys first if it is missing: the structure leaves out the gate
    (``_Sectors``), so a sweep builds it once on the system it assembles
    and derives every row from that.
    Every solve still checks its own residual against the copy.
    """
    gate = float(gate)
    _check_gate(gate)
    sectors = _sectors(sys)
    hamiltonian = sys.lattice.hamiltonian.copy()
    np.fill_diagonal(hamiltonian, gate)
    h = sys.h_total.copy()
    np.fill_diagonal(h[sys.index_map.lattice, sys.index_map.lattice], gate)
    lattice = replace(sys.lattice, hamiltonian=hamiltonian, gate_offset=gate)
    row = replace(sys, h_total=h, lattice=lattice)
    row._sectors = sectors
    return row


class _SylvesterFactorization:
    """L(kappa)^-1 from the eigendecomposition of A = iH + Delta, one block of ``_Sectors`` at a time.

    Each block, B_s + z p_s in the basis Q_s, is eigendecomposed on its own,
    Q_s^dag A Q_s = V_s diag(lam_s) V_s^-1, except that where ``_Sectors``
    holds the chiral phases c and z is real (``folded``) the - block is the
    image of the + block under C x = c * conj(x), taken in the site basis:
    lam_- = conj(lam_+), Q_- V_- = c * conj(Q_+ V_+) and
    V_-^-1 Q_-^dag = conj(V_+^-1 Q_+^dag) * conj(c), the latter since C maps
    the + block onto the - block unitarily.  ``sectors`` is the ``_Sectors``
    it reads, and ``eig_blocks`` lists the sizes of the eigendecompositions
    run.  ``lam`` concatenates the eigenvalues, and
    ``v = [Q_1 V_1, ...]`` and ``vinv = [V_1^-1 Q_1^dag; ...]``
    act in the site basis, so ``back(rotate(S))`` is the kept blocks'
    solution of A X + X A^dag = S, v ((vinv S vinv^dag) / D) v^dag with
    D_ab = lam_a + conj(lam_b); the source need not respect either symmetry.
    Q_s has one nonzero per row (its row map in ``_Sectors``), so Q_s V_s is
    a row gather of V_s times a weight per row and V_s^-1 Q_s^dag a column
    gather, each written straight into v and vinv.  Pairs with |D| below the
    guard correspond to conserved (dark) sectors; their components are
    projected out, which selects the minimal-norm steady state.  A source
    that is nonzero on a few sites (the drive, on the rings) is rotated over
    those alone.  ``apply(S)`` adds the dephasing: it returns X with
    A X + X A^dag - kappa diag_lattice(X) = S, in the kept blocks, for any
    Hermitian S.  ``latt`` holds the lattice sites; ``lattice_diagonal``
    reads the lattice diagonal of ``back(t)`` from v's lattice rows,
    ``dephasing_map`` is that diagonal for each unit source on the lattice,
    with its escape into the leads, and ``lattice_system`` the matrix
    I - kappa M of the dephasing self-consistency, built once at kappa > 0
    as ``shift``.  v, vinv, inv_denom and ``back``'s two N x n products live
    in the workspace ``ws``, popped from the blocks' idle list, or a fresh
    one (``_new_workspace``) if that is empty; the caller may hand it back
    (``solve_steady_state``).
    """

    def __init__(self, sys: CompositeSystem, kappa: float):
        self.sectors = sectors = _sectors(sys)
        self.kappa = kappa
        self.latt = np.flatnonzero(sys.lattice_mask)
        z = complex(0.5 * kappa, sys.lattice.gate_offset)
        self.folded = z.imag == 0 and sectors.chiral is not None
        try:
            self.ws = ws = sectors.idle.pop()
        except IndexError:
            self.ws = ws = _new_workspace(sys)
        self.v, self.vinv = ws.v, ws.vinv
        lams, eig_blocks, start = [], [], 0
        for col_s, w_s, b_s, lat_s in sectors.blocks:
            cols = slice(start, start + b_s.shape[0])
            start = cols.stop
            if self.folded and lams:
                c, plus = sectors.chiral, slice(0, lams[0].size)
                lams.append(lams[0].conj())
                np.multiply(c[:, None], self.v[:, plus].conj(), out=self.v[:, cols])
                np.multiply(self.vinv[plus].conj(), c.conj(), out=self.vinv[cols])
            else:
                a_s = b_s.copy()
                a_s[lat_s, lat_s] += z
                lam, v = np.linalg.eig(a_s)
                lams.append(lam)
                eig_blocks.append(lam.size)
                np.multiply(w_s[:, None], v[col_s], out=self.v[:, cols])
                np.multiply(np.linalg.inv(v)[:, col_s], w_s.conj(), out=self.vinv[cols])
        self.eig_blocks = tuple(eig_blocks)
        self.lam = lam = np.concatenate(lams)
        inv = np.add.outer(lam, lam.conj(), out=ws.inv_denom)
        guard = DENOMINATOR_GUARD * max(1.0, float(np.abs(lam).max()))
        self.dark_pairs = np.abs(inv) < guard
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(1.0, inv, out=inv)
        inv[self.dark_pairs] = 0.0
        self.inv_denom = inv
        if kappa > 0:
            self.shift = self.lattice_system()

    def rotate(self, source: np.ndarray) -> np.ndarray:
        """vinv S vinv^dag, over the rows and columns where the source S is nonzero."""
        nonzero = source != 0
        on = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
        u = self.vinv[:, on]
        return u @ source[np.ix_(on, on)] @ u.conj().T

    def back(self, t: np.ndarray) -> np.ndarray:
        """The solution v (t / D) v^dag, a new array, for a rotated source t, which it scales in place."""
        t *= self.inv_denom
        head = self.ws.head
        vt = np.matmul(self.v, t, out=head(self.ws.product, self.v.shape))
        return vt @ np.conjugate(self.v, out=head(self.ws.scratch, self.v.shape)).T

    def apply(self, source: np.ndarray) -> np.ndarray:
        """X = L(kappa)^-1(-S): A X + X A^dag - kappa diag_lattice(X) = S, for a Hermitian source S.

        The dephasing feeds back on the lattice diagonal d alone, so the
        solve is affine in it, d = d0 + kappa M d: one small linear system
        replaces a fixed-point iteration that stalls once kappa exceeds the
        escape rates.  The source S + kappa diag(d) is rotated as two terms,
        S's read for d0 on the lattice rows alone.  Only the kept blocks are
        solved: S's part in a dropped ring-odd block is left out.  Any
        source serves: the drive, a residual to refine, or the kappa
        derivative's D rho.
        """
        t = self.rotate(source)
        if self.kappa > 0:
            d = np.linalg.solve(self.shift, self.lattice_diagonal(t))
            u = self.vinv[:, self.latt]
            t += (u * (self.kappa * d)) @ u.conj().T
        return self.back(t)

    def lattice_diagonal(self, t: np.ndarray) -> np.ndarray:
        """Re diag(back(t)) over the lattice sites, from v's lattice rows alone."""
        v = self.v[self.latt]
        return _re_row_dot(v @ (t * self.inv_denom), v)

    def dephasing_map(self) -> tuple[np.ndarray, np.ndarray]:
        """(M, e): M[i, j] = Re X_j[latt_i, latt_i] and e_j the escape of X_j = back(rotate(|latt_j><latt_j|)).

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
        by C, v's - columns are c * conj(v's + columns) and vinv's - rows
        conj(vinv's + rows) * conj(c), with |c| = 1, so the (-, -) term is the
        complex conjugate of the (+, +) term: E is twice the latter.
        The columns j are taken in chunks: the rows w of every j in a chunk are
        stacked, so each block pair costs one product per chunk, and a chunk
        holds as many columns as keep each temporary within MAP_CHUNK_BYTES.
        The escape e_j = -sum 2 Im(h_cr conj(X_j[c, r])) over the bonds from
        lattice site c to lead site r (``_Sectors.contacts``) is the current
        X_j sends into the leads.  Its sum over the bonds is one quadratic form
        in u_j, 2 Im u_j^T G conj(u_j), so one product with G gives it for the
        whole half; e_Sj = e_j.
        """
        latt = self.latt
        nl = latt.size
        mir = self.sectors.lattice_mirror
        half = np.flatnonzero(mir >= np.arange(nl))
        n_e = self.sectors.block_sizes[0]
        e, o = slice(0, n_e), slice(n_e, None)
        v = self.v[latt[half]]
        v_e, v_o = np.ascontiguousarray(v[:, e]), np.ascontiguousarray(v[:, o])
        inv_ee, inv_oo, inv_eo = (
            np.ascontiguousarray(self.inv_denom[x, y]) for x, y in ((e, e), (o, o), (e, o))
        )
        # row j of u is u_j for the j-th site of the half
        u = self.vinv[:, latt[half]].T
        u_e, u_o = np.ascontiguousarray(u[:, e]), np.ascontiguousarray(u[:, o])
        plus, minus = np.empty((2, half.size, half.size))
        step = max(1, MAP_CHUNK_BYTES // (16 * half.size * n_e))
        for start in range(0, half.size, step):
            cols = slice(start, start + step)
            # rows (j, i) for j in the chunk and i in the half
            w_e = (v_e * u_e[cols, None]).reshape(-1, n_e)
            w_o = (v_o * u_o[cols, None]).reshape(w_e.shape[0], -1)
            same = _re_row_dot(w_e @ inv_ee, w_e)
            same = 2.0 * same if self.folded else same + _re_row_dot(w_o @ inv_oo, w_o)
            cross = 2.0 * _re_row_dot(w_e @ inv_eo, w_o)
            plus[:, cols] = (same + cross).reshape(-1, half.size).T
            minus[:, cols] = (same - cross).reshape(-1, half.size).T
        m = np.empty((nl, nl))
        m[np.ix_(half, half)] = m[np.ix_(mir[half], mir[half])] = plus
        m[np.ix_(mir[half], half)] = m[np.ix_(half, mir[half])] = minus
        # sum_b conj(h_b) X_j[c_b, r_b] = u_j^T G conj(u_j) with
        # G = inv_denom * sum_b conj(h_b) v[c_b]^T conj(v[r_b])
        c, r, h_cr = self.sectors.contacts
        g = (self.v[c].T * h_cr.conj()) @ self.v[r].conj()
        g *= self.inv_denom
        escape = np.empty(nl)
        escape[half] = escape[mir[half]] = 2.0 * np.einsum("ja,ja->j", u @ g, u.conj()).imag
        return m, escape

    def lattice_system(self) -> np.ndarray:
        """I - kappa M, the matrix of the lattice diagonal's self-consistency (I - kappa M) d = d0.

        Probability is conserved: tr(A X_j + X_j A^dag) = tr |latt_j><latt_j|
        gives 1 - kappa sum_i M_ij = e_j, the escape of ``dephasing_map``.
        So each diagonal entry is set to e_j + kappa sum_{i != j} M_ij, a sum
        of non-negative terms, instead of 1 - kappa M_jj, which cancels as
        kappa M_jj -> 1 at large kappa (the Grassmann-Taksar-Heyman device
        for Markov chains).  Without a contact bond (epsilon = 0) nothing
        escapes, the columns sum to zero and the steady state is not unique
        (``solve_steady_state`` warns); there the diagonal stays
        1 - kappa M_jj, whose rounding leaves the matrix invertible.
        """
        m, escape = self.dephasing_map()
        k = -self.kappa * m
        if self.sectors.contacts[0].size == 0:
            k[np.diag_indices(self.latt.size)] += 1.0
            return k
        np.fill_diagonal(k, 0.0)
        np.fill_diagonal(k, escape - k.sum(axis=0))
        return k


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) thread-count functions of the loaded OpenBLAS, or None; found on first use."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps if "openblas" in line.lower()]
    except OSError:
        return None
    for path in sorted({f[5].strip() for f in fields if len(f) == 6}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


_pin_lock = threading.Lock()
_pin_depth = 0  # sweeps and solves currently pinned
_pin_saved = 1  # the caller's thread count, restored by the last one out


@contextmanager
def _one_blas_thread(stacklevel: int = 4):
    """Run OpenBLAS on one thread until the last open holder exits, then restore the caller's count.

    Every ``solve_steady_state`` holds it, and a sweep holds it over all
    its rows, so the count does not flap between pooled rows.  One thread
    per solve keeps pool workers from oversubscribing the cores and makes
    the bytes independent of the caller's count and --parallel.  The count
    is process-wide: BLAS calls on other threads meanwhile run on one
    thread too.  Without OpenBLAS thread control the first holder in warns
    once, at ``stacklevel``, and BLAS keeps the caller's threads.
    """
    global _pin_depth, _pin_saved
    threads = _openblas_threads()
    with _pin_lock:
        first = _pin_depth == 0
        if first and threads is not None:
            _pin_saved = threads[0]()
            threads[1](1)
        _pin_depth += 1
    try:
        if first and threads is None:
            warnings.warn(
                "no OpenBLAS thread control found: the last digits of the results "
                "may depend on the thread layout",
                RuntimeWarning,
                stacklevel=stacklevel,
            )
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0 and threads is not None:
                threads[1](_pin_saved)


def solve_steady_state(
    sys: CompositeSystem,
    kappa: float,
    cfg: SolverConfig | None = None,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Find the stationary density matrix of the driven composite system.

    Returns it as the complex N x N array in ``sys.index_map`` order, with
    the solve's diagnostics, whose ``warnings`` hold every warning the
    solve raised.  Raises SolverError, carrying the diagnostics, if the
    solve finishes without meeting cfg.residual_tol (measured as
    |d rho/dt|_inf over max(1, |target|_inf)).  The solve runs OpenBLAS on
    one thread and restores the caller's count after
    (``_one_blas_thread``).  It works in a workspace from the idle list of
    sys's blocks and returns it there after the residual, whether or not
    the target was met, for the next solve on those blocks
    (``_Sectors.idle``); the returned array is always its own.
    """
    cfg = cfg or SolverConfig()
    _check_kappa(kappa)
    start = time.perf_counter()
    notes = []
    with _one_blas_thread():
        fact = _SylvesterFactorization(sys, kappa)
        if fact.sectors.contacts[0].size == 0:
            notes.append(
                "no bond joins the lattice to the leads (as at epsilon=0); the steady state is not unique"
            )
        if fact.dark_pairs.any():
            notes.append(
                "degenerate dissipation-free sector detected; returning the minimal-norm steady state"
            )
        for note in notes:
            warnings.warn(note, DegenerateSteadyStateWarning, stacklevel=2)
        m = fact.apply(sys.drive)
        m += fact.sectors.rho_odd
        # rho is Hermitian to rounding: return, and check, its Hermitian part,
        # which is Hermitian bit for bit, as _residual needs
        m += np.conjugate(m.T, out=fact.ws.scratch)
        m *= 0.5
        res = _residual(sys, m, kappa, fact.ws)
        fact.sectors.idle.append(fact.ws)
    wall = time.perf_counter() - start

    diag = SolveDiagnostics(
        method=cfg.method,
        # the drive's solve, and at kappa > 0 one per unit source of M and the dephasing source's
        iterations=fact.latt.size + 2 if kappa > 0 else 1,
        residual=res,
        wall_time=wall,
        warnings=notes,
        eig_blocks=fact.eig_blocks,
    )
    if not res <= cfg.residual_tol:
        raise SolverError(
            f"{cfg.method.value} finished with residual {res:.3e} > {cfg.residual_tol:.1e}",
            diag,
        )
    return m, diag


def validate_spdm(matrix: np.ndarray, tol: float = 1e-8) -> None:
    """Raise ValueError unless the density matrix is Hermitian with occupations in [0, 1], to tol."""
    if not np.isfinite(matrix).all():
        raise ValueError("density matrix has a non-finite entry")
    if np.abs(matrix - matrix.conj().T).max() > tol:
        raise ValueError("density matrix is not Hermitian")
    ev = np.linalg.eigvalsh(0.5 * (matrix + matrix.conj().T))
    if ev.min() < -tol or ev.max() > 1.0 + tol:
        raise ValueError(f"occupations outside [0, 1]: [{ev.min():.3e}, {ev.max():.3e}]")


def spdm_to_json(matrix: np.ndarray, index_map: IndexMap, path: Path) -> dict:
    """Write the density matrix to ``path`` as ``.npy``; return the JSON object describing it.

    The file holds one complex128 N x N array in C order, rows and columns in
    ``index_map`` order, so ``np.load(path)`` is ``matrix`` bit for bit.
    """
    with open(path, "wb") as f:
        np.save(f, np.ascontiguousarray(matrix, dtype=complex))
    return {"N": matrix.shape[0], "index_map": index_map.labels(), "file": Path(path).name}
