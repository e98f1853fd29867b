"""Independent numerical oracles for the test suite.

Everything here is deliberately built from different primitives than the
package: profiles come from Runge-Kutta integration of the defining ODE
(with the initial amplitude found by bisection, not the closed form),
special functions from truncated series, extrema from golden-section search.
Expected values in the tests are produced by these routines, not copied from
the implementation under test.

The exceptions are the last two sections.  One holds reference forms of the
package's scalar kernels, written as plain index loops over NumPy arrays.
They do the same arithmetic in the same order, so the tests demand bitwise
equality with them.  The other keeps the package's earlier eigen path, the
reference for the stated tolerance of its faster one.
"""

from __future__ import annotations

import math

import numpy as np

from kgstab import _kernels


def bisect_root(f, lo: float, hi: float, tol: float = 1e-14,
                max_iter: int = 500) -> float:
    """Root of f on [lo, hi] assuming a sign change."""
    f_lo = f(lo)
    if f_lo == 0.0:
        return lo
    if f_lo * f(hi) > 0.0:
        raise ValueError("no sign change on the bracket")
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) * f_lo > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def golden_max(f, lo: float, hi: float, tol: float = 1e-12):
    """Maximize a unimodal function by golden-section search."""
    inv_phi = 0.5 * (math.sqrt(5.0) - 1.0)
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = f(x1)
    x = 0.5 * (lo + hi)
    return x, f(x)


def artanh_series(alpha: float, terms: int = 30) -> float:
    """artanh(alpha) as a truncated power series."""
    acc = 0.0
    power = alpha
    a2 = alpha * alpha
    for k in range(terms):
        acc += power / (2 * k + 1)
        power *= a2
    return acc


def peak_amplitude_by_bisection(a: float, b: float, m: float,
                                omega: float) -> float:
    """R(0) as the first positive solution of 2as - 2bs^2 = m^2 - omega^2.

    The left side increases from 0 to its maximum at s = a/(2b), so the
    first root lies in that bracket.
    """
    c = m * m - omega * omega
    return bisect_root(lambda s: 2.0 * a * s - 2.0 * b * s * s - c,
                       0.0, a / (2.0 * b), tol=1e-16)


def rk4_profile(a: float, b: float, m: float, omega: float,
                x_max: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Integrate R'' = -3aR^2 + 4bR^3 + cR from (R(0), 0) with fixed-step RK4.

    Returns (x grid, R values) on n_steps+1 uniform nodes over [0, x_max].
    """
    c = m * m - omega * omega
    r0 = peak_amplitude_by_bisection(a, b, m, omega)

    def rhs(y):
        r, v = y
        return np.array([v, -3.0 * a * r * r + 4.0 * b * r ** 3 + c * r])

    h = x_max / n_steps
    xs = np.linspace(0.0, x_max, n_steps + 1)
    values = np.empty(n_steps + 1)
    y = np.array([r0, 0.0])
    values[0] = y[0]
    for i in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values[i + 1] = y[0]
    return xs, values


def centered_first(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def centered_second(f, x: float, h: float) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


# --- reference kernels (bitwise oracles for kgstab._kernels) ---------------

_SAFE_MIN = 2.2250738585072014e-308


def _pivot_floor(off) -> float:
    e2max = float(np.max(np.square(off), initial=0.0))
    return _SAFE_MIN * max(1.0, e2max)


def sturm_count(diag, off, shift):
    """Pivots of the LDL^T recurrence at or below zero, floored at pivmin."""
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
    """Thomas algorithm with the same pivot floor."""
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


def leapfrog_steps(phi, phi_prev, n_steps, step_x, step_t, m2, a, b, guard):
    """Leapfrog with fresh temporaries each step; returns the steps taken."""
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
        if not sup <= guard:
            return k + 1
    return n_steps


# --- the eigen path before the parity split ---------------------------------
#
# Full-grid Sturm bisection to ``tol`` and inverse iteration that stops when
# the vector stops moving: the path whose values the package's payload
# tolerance is stated against.  It calls the package's kernels, which the
# tests pin bitwise to the reference loops above, so that it runs in
# a fraction of a second; only the algorithm around them is the reference.

def _bisection_vector(diag, off, eigenvalue, rng, neighbors):
    n = diag.size
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    shifted = diag - eigenvalue
    nudge = 4.0 * np.finfo(float).eps * float(
        np.abs(diag).max() + 2.0 * np.abs(off).max(initial=0.0))
    prev = v
    for _ in range(100):
        w = _kernels.tridiag_solve(shifted, off, prev)
        for u in neighbors:
            w = w - (u @ w) * u
        with np.errstate(over="ignore", invalid="ignore"):
            norm = np.linalg.norm(w)
        if not np.isfinite(norm):
            shifted = shifted - nudge
        if norm == 0.0 or not np.isfinite(norm):
            prev = rng.standard_normal(n)
            prev /= np.linalg.norm(prev)
            continue
        v = w / norm
        if 1.0 - abs(prev @ v) < 1e-13:
            break
        prev = v
    else:
        raise RuntimeError(f"inverse iteration stalled at {eigenvalue!r}")
    peak = np.argmax(np.abs(v))
    return -v if v[peak] < 0.0 else v


def bisection_eigenpairs(diag, off, k: int, tol: float = 1e-10):
    """The k lowest eigenpairs by Sturm bisection of the Gershgorin interval
    to width ``tol``, then inverse iteration at the bisected value."""
    radius = np.zeros(diag.size)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    lo = float((diag - radius).min())
    hi_bound = float((diag + radius).max())
    pairs = []
    for j in range(k):
        hi = hi_bound
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if _kernels.sturm_count(diag, off, mid) <= j:
                lo = mid
            else:
                hi = mid
        value = 0.5 * (lo + hi)
        neighbors = [v for ev, v in pairs if abs(ev - value) < 1e-6]
        vector = _bisection_vector(diag, off, value,
                                   np.random.default_rng(1234 + j), neighbors)
        pairs.append((value, vector))
        lo = value - tol
    return pairs
