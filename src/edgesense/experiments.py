"""Parameter sweeps and the analyses built on them.

Gate and decoherence sweeps run one steady-state solve per grid point and
collect current, residual, edge imbalance and bulk population gradient into
a SweepTable.  On top of that live the conduction-window predictor, the
in-gap peak extractor and the kappa/(kappa^2+c) rate-law fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import ConfigError, RunConfig
from .master_eq import (
    SolverError,
    SolverMethod,
    _check_gate,
    _check_kappa,
    _new_workspace,
    _one_blas_thread,
    _sectors,
    at_gate,
    solve_steady_state,
)
from .observables import (
    current_profile,
    edge_imbalance,
    population_gradient,
    site_populations,
)

__all__ = [
    "CSV_HEADER_PREFIX",
    "SweepTable",
    "PeakMetrics",
    "EsakiTsuFit",
    "conduction_window",
    "sweep_gate",
    "sweep_decoherence",
    "peak_metrics",
    "fit_esaki_tsu",
    "write_artifact_csv",
    "write_sweep_csv",
    "read_sweep_csv",
]

CSV_HEADER_PREFIX = "# edgesense v1, fingerprint="


def _fmt(x: float) -> str:
    """Render a float with 12 significant digits."""
    return f"{float(x):.12g}"


@dataclass(frozen=True)
class SweepTable:
    """One row per grid point; extra_columns holds named diagnostics.

    The 'converged' extra column flags rows whose solve met the residual
    target; failed rows keep NaN in every derived column and the sweep
    carries on.
    """

    axis_values: np.ndarray
    current: np.ndarray
    residuals: np.ndarray
    extra_columns: dict[str, np.ndarray] = field(default_factory=dict)
    config_fingerprint: str = ""

    def __post_init__(self) -> None:
        n = np.asarray(self.axis_values).size
        for name, col in [("current", self.current), ("residuals", self.residuals)] + list(
            self.extra_columns.items()
        ):
            if np.asarray(col).size != n:
                raise ValueError(f"column '{name}' does not match the axis length")

    @property
    def n_rows(self) -> int:
        return int(np.asarray(self.axis_values).size)

    def column(self, name: str) -> np.ndarray:
        if name == "axis":
            return self.axis_values
        if name == "current":
            return self.current
        if name == "residual":
            return self.residuals
        return self.extra_columns[name]


def conduction_window(mu_left: float, mu_right: float, gamma: float) -> tuple[float, float]:
    """Energy interval a level must sit in to carry resonant current.

    The lead relaxation broadens each chemical-potential step by gamma/2,
    so the interval is (mu_right - gamma/2, mu_left + gamma/2).
    """
    # each check is written so that NaN fails it
    if not mu_left >= mu_right:
        raise ValueError("mu_left and mu_right must be numbers, mu_left not below mu_right")
    if not 0 <= gamma < math.inf:
        raise ValueError("gamma must be nonnegative and finite")
    return (mu_right - 0.5 * gamma, mu_left + 0.5 * gamma)


# Sites at each chain end whose populations make up a sweep's edge imbalance.
_EDGE_SITES = 2


def _run_sweep(
    cfg: RunConfig,
    axis: np.ndarray,
    gates: np.ndarray,
    kappas: np.ndarray,
    parallel: int,
) -> SweepTable:
    """Row i is the system cfg assembles, at gate gates[i], solved at kappas[i]."""
    n = axis.size
    if n == 0:
        raise ValueError("empty sweep grid")

    current = np.full(n, np.nan)
    residual = np.full(n, np.nan)
    imbalance = np.full(n, np.nan)
    gradient = np.full(n, np.nan)
    converged = np.zeros(n)

    def run_row(i: int) -> None:
        # at_gate copies the system: a row at the first row's gate reads base itself
        system = base if gates[i] == gates[0] else at_gate(base, gates[i])
        try:
            rho, diag = solve_steady_state(system, float(kappas[i]), cfg.solver)
        except SolverError as err:
            if err.diagnostics is not None:
                residual[i] = err.diagnostics.residual
            return
        current[i] = current_profile(rho, system).mean
        residual[i] = diag.residual
        pops = site_populations(rho, system)
        imbalance[i] = edge_imbalance(pops, _EDGE_SITES)
        gradient[i] = population_gradient(pops)
        converged[i] = 1.0

    # the whole grid is checked before any row is solved, so a bad point loses no row
    for gate, kappa in zip(gates, kappas):
        _check_gate(gate)
        _check_kappa(kappa)
    workers = max(1, min(int(parallel), n))
    # each row's solve nests in this pin, which also covers at_gate's build
    with _one_blas_thread(stacklevel=5):
        # every row is derived from one assembled system and differs from it
        # in the gate and kappa alone, which its sector structure leaves out:
        # at_gate builds that structure here, once, before the pool starts,
        # and the rows pass their workspaces on through its idle list
        system = cfg.build_system()
        if system.index_map.n_lattice < 2 * _EDGE_SITES:
            raise ConfigError(
                f"lattice.L: a sweep's edge imbalance needs {2 * _EDGE_SITES} lattice "
                f"sites or more, got {system.index_map.n_lattice}"
            )
        base = at_gate(system, gates[0])
        if workers == 1:
            for i in range(n):
                run_row(i)
        else:
            # imported here: the pool module pulls in logging and costs a
            # serial or single-solve process several ms of import
            from concurrent.futures import ThreadPoolExecutor

            if cfg.solver.method is SolverMethod.SYLVESTER:
                # no more rows run at once than there are workers, so no row
                # makes a workspace: one made in a worker thread comes from
                # that thread's malloc arena, which keeps the pages resident
                # after the sweep frees it
                _sectors(base).idle.extend(_new_workspace(base) for _ in range(workers))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(run_row, range(n)))

    return SweepTable(
        axis_values=axis,
        current=current,
        residuals=residual,
        extra_columns={"imbalance": imbalance, "gradient": gradient, "converged": converged},
        config_fingerprint=cfg.fingerprint(),
    )


def sweep_gate(
    cfg: RunConfig,
    delta_values: Sequence[float],
    kappa: float | None = None,
    *,
    parallel: int = 1,
) -> SweepTable:
    """Steady current versus gate offset at fixed decoherence rate."""
    kap = cfg.decoherence if kappa is None else float(kappa)
    gates = np.asarray(delta_values, dtype=float)
    return _run_sweep(cfg, gates, gates, np.full(gates.size, kap), parallel)


def sweep_decoherence(
    cfg: RunConfig,
    kappa_values: Sequence[float],
    delta: float | None = None,
    *,
    parallel: int = 1,
) -> SweepTable:
    """Steady current versus decoherence rate at fixed gate offset."""
    kappas = np.asarray(kappa_values, dtype=float)
    gate = cfg.lattice.delta if delta is None else float(delta)
    return _run_sweep(cfg, kappas, np.full(kappas.size, gate), kappas, parallel)


@dataclass(frozen=True)
class PeakMetrics:
    """Baseline-referenced description of an isolated resonance peak.

    support is the axis interval where the current clears baseline + 3 sigma;
    fwhm (half height above baseline, linear interpolation) comes out
    narrower because the peak is a rounded dome rather than a box.  Neither
    width tracks the conduction window: at zero temperature the lead
    occupations change only when mu crosses a ring level, so on fig1 both
    stay put while mu moves inside the ring's level spacing.
    """

    height: float
    center: float
    fwhm: float
    baseline: float
    noise: float
    support: tuple[float, float]


def peak_metrics(
    table: SweepTable,
    *,
    window: tuple[float, float] | None = None,
    exclusion: float = 0.0,
) -> PeakMetrics | None:
    """Locate and measure the peak of a sweep, or return None if there is none.

    window restricts the peak search to an axis interval and removes it
    from the baseline estimate; exclusion widens the removed interval so
    thermally smeared shoulders do not leak into the baseline.  The
    baseline is the median of the remaining rows, the noise scale their
    MAD (floored by the worst solver residual), and a peak must clear
    baseline + 3 noise.
    """
    ok = np.isfinite(table.current)
    axis = table.axis_values[ok]
    js = table.current[ok]
    res = table.residuals[ok]
    if axis.size < 5:
        raise ValueError("too few converged rows to measure a peak")

    if window is None:
        inside = np.ones(axis.size, dtype=bool)
        outside = np.ones(axis.size, dtype=bool)
    else:
        lo, hi = window
        inside = (axis > lo) & (axis < hi)
        outside = (axis <= lo - exclusion) | (axis >= hi + exclusion)
    if not inside.any() or not outside.any():
        raise ValueError("window leaves no rows for the peak or the baseline")

    baseline = float(np.median(js[outside]))
    mad = float(np.median(np.abs(js[outside] - baseline)))
    noise = max(1.4826 * mad, float(res.max(initial=0.0)))
    threshold = baseline + 3.0 * noise

    if js[inside].max() <= threshold:
        return None

    ipk = int(np.flatnonzero(inside)[np.argmax(js[inside])])
    height = float(js[ipk] - baseline)
    half = baseline + 0.5 * height

    i = ipk
    while i > 0 and js[i - 1] >= half:
        i -= 1
    left = axis[i] if i == 0 else float(
        np.interp(half, [js[i - 1], js[i]], [axis[i - 1], axis[i]])
    )
    i = ipk
    while i < js.size - 1 and js[i + 1] >= half:
        i += 1
    right = axis[i] if i == js.size - 1 else float(
        np.interp(half, [js[i + 1], js[i]], [axis[i + 1], axis[i]])
    )

    over = axis[js > threshold]
    return PeakMetrics(
        height=height,
        center=float(axis[ipk]),
        fwhm=float(right - left),
        baseline=baseline,
        noise=noise,
        support=(float(over.min()), float(over.max())),
    )


@dataclass(frozen=True)
class EsakiTsuFit:
    """Parameters of j(kappa) = a * kappa / (kappa^2 + c)."""

    a: float
    c: float
    relative_residual: float

    def __post_init__(self) -> None:
        # written so that NaN fails it
        if not (0 < self.a < math.inf and 0 < self.c < math.inf):
            raise ValueError("a and c must be positive and finite")

    @property
    def kappa_peak(self) -> float:
        """argmax of the fitted curve; a*k/(k^2+c) peaks exactly at sqrt(c)."""
        return math.sqrt(self.c)

    def evaluate(self, kappa: np.ndarray) -> np.ndarray:
        k = np.asarray(kappa, dtype=float)
        return self.a * k / (k**2 + self.c)


# 241 log-spaced c, sqrt(c) from a tenth of the smallest to ten times the largest kappa
_SCAN_POINTS = 241
# Scaled kappa keeps its binary exponent within +-480 (about 144 decades), so
# the scan's kappa^2 + c and sums of squares stay finite.
_KAPPA_EXPONENT_MAX = 480


def fit_esaki_tsu(table: SweepTable) -> EsakiTsuFit:
    """Least-squares fit of j = a*kappa/(kappa^2 + c) to a decoherence sweep.

    Requires at least 6 converged points spanning two decades, all of one
    sign; negative sweeps are flipped so a stays positive.  After an exact
    power-of-two scaling of kappa and j, the best a for each c is linear,
    a(c) = (j.phi)/(phi.phi) with phi = kappa/(kappa^2 + c), so a scan in
    log c and a bisection on the sign of dSSE/dc find the minimum.  Raises
    ValueError where kappa spans too many decades to scale, where the best
    c is an end of the scan (the peak lies more than a decade outside the
    sampled kappa), and where a or c leaves the float range once unscaled.
    """
    ok = np.isfinite(table.current)
    k = np.asarray(table.axis_values, dtype=float)[ok]
    j = np.asarray(table.current, dtype=float)[ok]
    if k.size < 6:
        raise ValueError("need at least 6 converged points")
    if not (np.isfinite(k).all() and k.min() > 0):
        raise ValueError("kappa values must be positive and finite")
    if k.max() < 100.0 * k.min():
        raise ValueError("kappa values must span at least two decades")
    if np.all(j < 0):
        j = -j
    if np.any(j <= 0):
        raise ValueError("currents must be nonzero and of one sign")

    # kappa = 2^e_k kappa' and j = 2^e_j j', so a = 2^(e_j + e_k) a' and c = 2^(2 e_k) c'
    exponents = np.frexp(k)[1]
    e_k = int(np.round(exponents.mean()))
    if np.abs(exponents - e_k).max() > _KAPPA_EXPONENT_MAX:
        raise ValueError("kappa spans too many decades to fit: kappa^2 overflows after scaling")
    e_j = int(np.frexp(j.max())[1])
    k = np.ldexp(k, -e_k)
    j = np.ldexp(j, -e_j)
    k2 = k * k

    def project(c):
        """phi, the best a and the residual j - a*phi for each row of c."""
        phi = k / (k2 + c)
        a = np.sum(j * phi, axis=-1, keepdims=True) / np.sum(phi * phi, axis=-1, keepdims=True)
        return phi, a, j - a * phi

    log_c = np.linspace(
        2.0 * math.log(k.min() / 10.0), 2.0 * math.log(10.0 * k.max()), _SCAN_POINTS
    )
    _, _, resid = project(np.exp(log_c)[:, None])
    best = int(np.argmin(np.sum(resid * resid, axis=-1)))
    if best in (0, _SCAN_POINTS - 1):
        raise ValueError(
            "the fitted peak lies more than a decade outside the sampled kappa: "
            "the sweep does not resolve it"
        )
    lo, hi = log_c[best - 1], log_c[best + 1]
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        c = math.exp(mid)
        phi, _, resid = project(c)
        # at the best a > 0, dSSE/dc = 2a sum(resid * phi^2/kappa), and c phi^2/kappa
        # = phi c/(kappa^2 + c) stays finite
        if resid @ (phi * (c / (k2 + c))) > 0.0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    c = math.exp(mid)
    _, a, resid = project(c)
    a = float(a[0])
    relative_residual = math.sqrt(float(resid @ resid)) / float(np.linalg.norm(j))

    # math.frexp's exponent lies in [-1021, 1024] exactly for normal floats
    if not all(-1021 <= math.frexp(x)[1] + e <= 1024 for x, e in ((a, e_j + e_k), (c, 2 * e_k))):
        raise ValueError("the fitted a or c lies outside the float range once unscaled")
    return EsakiTsuFit(
        a=math.ldexp(a, e_j + e_k), c=math.ldexp(c, 2 * e_k), relative_residual=relative_residual
    )


def write_artifact_csv(
    path: str | Path, fingerprint: str, names: Sequence[str], rows: Iterable[Sequence]
) -> None:
    """Write a CSV artifact: fingerprint header, column names, one line per row.

    Strings and ints are written as they are, every other cell as a float
    with 12 significant digits.
    """
    lines = [f"{CSV_HEADER_PREFIX}{fingerprint}", ",".join(names)]
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, (str, int)) else _fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_sweep_csv(table: SweepTable, path: str | Path) -> None:
    """Write a sweep as CSV: fingerprint header, column names, 12-digit rows."""
    names = ["axis", "current", "residual", *table.extra_columns]
    columns = [table.axis_values, table.current, table.residuals, *table.extra_columns.values()]
    write_artifact_csv(path, table.config_fingerprint, names, zip(*columns))


def read_sweep_csv(path: str | Path) -> SweepTable:
    """Reconstruct a SweepTable written by write_sweep_csv."""
    lines = Path(path).read_text().splitlines()
    if len(lines) < 3 or not lines[0].startswith(CSV_HEADER_PREFIX):
        raise ValueError(f"{path}: not an edgesense sweep CSV")
    fingerprint = lines[0][len(CSV_HEADER_PREFIX):]
    names = lines[1].split(",")
    if names[:3] != ["axis", "current", "residual"]:
        raise ValueError(f"{path}: unexpected column layout {names[:3]}")
    rows = []
    for number, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(names):
            raise ValueError(
                f"{path}, line {number}: ragged row, {len(cells)} cells for {len(names)} columns"
            )
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError as err:
            raise ValueError(f"{path}, line {number}: {err}") from err
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    extras = {name: data[:, i] for i, name in enumerate(names) if i >= 3}
    return SweepTable(
        axis_values=data[:, 0],
        current=data[:, 1],
        residuals=data[:, 2],
        extra_columns=extras,
        config_fingerprint=fingerprint,
    )
