"""Adaptive time march of the single-particle master equation, an independent route to the steady state.

The library solves for the steady state only.  The tests march the same
equation of motion, ``apply_liouvillian``, the solve's own residual form
applied to the Hermitian and anti-Hermitian parts of each stage, over a
finite time and compare where it settles with the solvers' states.
"""

import numpy as np

from edgesense.leads import CompositeSystem
from edgesense.master_eq import SolverError, apply_liouvillian

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
    rho0: np.ndarray,
    kappa: float,
    t_final: float,
    *,
    dt: float = 0.05,
    step_tol: float = 1e-10,
    max_iters: int = 2_000_000,
) -> np.ndarray:
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
    m = rho0.astype(complex)
    if t_final == 0:
        return m

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
    return m
