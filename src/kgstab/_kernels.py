"""Hot numerical kernels: leapfrog stepping, Sturm counts and Thomas solves."""

from __future__ import annotations

import numpy as np

# Safe floor for Sturm/Thomas pivots: e2/_PIVMIN(e2) stays finite in IEEE
# doubles for any off-diagonal magnitude.
_SAFE_MIN = 2.2250738585072014e-308


def leapfrog_steps(phi, phi_prev, n_steps, step_x, step_t, m2, a, b, guard):
    """Advance the leapfrog scheme ``n_steps`` times in place (vectorized).

    phi/phi_prev are complex arrays over the full grid including the two
    Dirichlet endpoints, which are never touched.  Returns the number of steps
    actually taken; fewer than ``n_steps`` means the amplitude guard tripped.
    """
    inv_h2 = 1.0 / (step_x * step_x)
    dt2 = step_t * step_t
    for k in range(n_steps):
        inner = phi[1:-1]
        mag = np.abs(inner)
        rhs = (phi[2:] - 2.0 * inner + phi[:-2]) * inv_h2
        rhs += (-m2 + 3.0 * a * mag - 4.0 * b * mag * mag) * inner
        new_inner = 2.0 * inner - phi_prev[1:-1] + dt2 * rhs
        phi_prev[1:-1] = inner
        phi[1:-1] = new_inner
        sup = np.abs(new_inner).max()
        if not sup <= guard:  # catches NaN as well as overshoot
            return k + 1
    return n_steps


def _pivot_floor(off) -> float:
    """LAPACK-style pivot floor: the safe minimum scaled by max(1, off^2)."""
    e2max = float(np.max(np.square(off), initial=0.0))
    return _SAFE_MIN * max(1.0, e2max)


def sturm_count(diag, off, shift):
    """Number of eigenvalues of the symmetric tridiagonal matrix below shift.

    Sturm sequence via the LDL^T pivot recurrence with a LAPACK-style pivot
    floor so near-singular shifts cannot divide by zero.
    """
    n = diag.shape[0]
    pivmin = _pivot_floor(off)
    count = 0
    q = diag[0] - shift
    for i in range(n):
        if i > 0:
            q = diag[i] - shift - off[i - 1] * off[i - 1] / q
        if abs(q) <= pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
    return count


def tridiag_solve(diag, off, rhs):
    """Solve the symmetric tridiagonal system (Thomas algorithm).

    Pivots are floored in magnitude so shifted near-singular systems (the
    inverse-iteration workload) return a huge but finite solution instead of
    dividing by zero.  Returns a new array.
    """
    n = diag.shape[0]
    c = np.empty(n - 1)
    x = np.empty(n)
    pivmin = _pivot_floor(off)

    piv = diag[0]
    if abs(piv) <= pivmin:
        piv = -pivmin
    x[0] = rhs[0] / piv
    for i in range(1, n):
        c[i - 1] = off[i - 1] / piv
        piv = diag[i] - off[i - 1] * c[i - 1]
        if abs(piv) <= pivmin:
            piv = -pivmin
        x[i] = (rhs[i] - off[i - 1] * x[i - 1]) / piv
    for i in range(n - 2, -1, -1):
        x[i] -= c[i] * x[i + 1]
    return x
