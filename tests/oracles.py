"""Independent numerical oracles for the test suite.

Everything here is deliberately built from different primitives than the
package: profiles come from Runge-Kutta integration of the defining ODE
(with the initial amplitude found by bisection, not the closed form),
special functions from truncated series, extrema from golden-section search.
Expected values in the tests are produced by these routines, not copied from
the implementation under test.

The exceptions are the last four sections.  One holds reference forms of
the package's kernels, written as plain index loops or with fresh
temporaries each step.  They do the same arithmetic in the same order, so
the tests demand bitwise equality with them; the index-order
``leapfrog_steps`` is the earlier leapfrog kernel, the reference for the
stated tolerance of the regrouped one.  Two keep the package's earlier
eigen path and its earlier full-grid evolution, the references for the
stated tolerances of the faster paths that replaced them.  The last keeps
the operators' earlier full-grid assembly, which the package's assembly on
the profile's lattice must equal bitwise at the same Dirichlet end.
"""

from __future__ import annotations

import math

import numpy as np

from kgstab import (GridError, ModelParams, TridiagonalOperator, _kernels,
                    build_profile, closed_form_profile, composite_simpson,
                    parse_perturbation)
from kgstab.soliton import require_node_budget


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
    """Half-line leapfrog with fresh temporaries each step; node 0 is the
    mirror centre, phi(-h) = phi(h), and the last node stays fixed.  Returns
    the steps taken."""
    inv_h2 = 1.0 / (step_x * step_x)
    dt2 = step_t * step_t
    for k in range(n_steps):
        inner = phi[:-1]
        mag = np.abs(inner)
        rhs = np.empty_like(inner)
        rhs[0] = (phi[1] - 2.0 * inner[0]) + phi[1]
        rhs[1:] = phi[2:] - 2.0 * inner[1:] + phi[:-2]
        rhs *= inv_h2
        rhs += (-m2 + 3.0 * a * mag - 4.0 * b * mag * mag) * inner
        new_inner = 2.0 * inner - phi_prev[:-1] + dt2 * rhs
        phi_prev[:-1] = inner
        phi[:-1] = new_inner
        sup = np.abs(new_inner).max()
        if not sup <= guard:
            return k + 1
    return n_steps


def leapfrog_steps_regrouped(phi, phi_prev, n_steps, step_x, step_t, m2, a,
                             b, guard):
    """The package kernel's operand order with fresh temporaries each step:
    new = w phi + r (right + left) - prev, with r = dt^2/h^2 and one real
    weight w per node.  The levels are copied, not swapped, so the right
    neighbour of the last inner node is always ``phi[-1]``.  Returns the
    steps taken."""
    dt2 = step_t * step_t
    r = dt2 / (step_x * step_x)
    for k in range(n_steps):
        inner = phi[:-1]
        mag = np.abs(inner)
        near = phi[1:] + np.concatenate((phi[1:2], phi[:-2]))
        near[0] = 2.0 * phi[1]
        w = (2.0 - 2.0 * r - dt2 * m2) \
            + mag * (3.0 * a * dt2 - 4.0 * b * dt2 * mag)
        new_inner = w * inner + r * near - phi_prev[:-1]
        phi_prev[:-1] = inner
        phi[:-1] = new_inner
        sup = np.abs(new_inner).max()
        if not sup <= guard:
            return k + 1
    return n_steps


def full_grid_leapfrog_steps_regrouped(phi, phi_prev, n_steps, step_x,
                                       step_t, m2, a, b, guard):
    """``leapfrog_steps_regrouped`` on the full grid; both end nodes stay
    fixed.  Each row adds its right neighbour to its left one, so the mirror
    of a row adds the same two values in the other order.  Returns the steps
    taken."""
    dt2 = step_t * step_t
    r = dt2 / (step_x * step_x)
    for k in range(n_steps):
        inner = phi[1:-1]
        mag = np.abs(inner)
        w = (2.0 - 2.0 * r - dt2 * m2) \
            + mag * (3.0 * a * dt2 - 4.0 * b * dt2 * mag)
        new_inner = w * inner + r * (phi[2:] + phi[:-2]) - phi_prev[1:-1]
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


# --- the evolution before the half-line split ------------------------------
#
# The package's earlier ``run``: both halves of [-L, L] stepped with Dirichlet
# ends, and composite Simpson over the full grid.  It is the reference for
# the stated tolerance of the half-line path.

def full_grid_leapfrog_steps(phi, phi_prev, n_steps, step_x, step_t, m2, a,
                             b, guard):
    """Full-grid leapfrog; both end nodes stay fixed."""
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


def _full_grid_start(profile, perturbation, step_t, extra_half_length):
    kind, eps = parse_perturbation(perturbation)
    p = profile.params
    h = profile.step
    n_side = round(profile.half_length / h) \
        + int(math.ceil(extra_half_length / h))
    x = (np.arange(2 * n_side + 1) - n_side) * h
    r = closed_form_profile(p, profile.omega, np.abs(x))
    if kind == "scale":
        phi0 = (1.0 + eps) * r.astype(complex)
    elif kind == "bump":
        phi0 = (r + eps * np.exp(-x * x)).astype(complex)
    else:
        phi0 = r.astype(complex)
    phi0[0] = phi0[-1] = 0.0
    inner = phi0[1:-1]
    mag = np.abs(inner)
    acc = np.zeros_like(phi0)
    acc[1:-1] = (phi0[2:] - 2.0 * inner + phi0[:-2]) / (h * h)
    acc[1:-1] += (-p.m * p.m + 3.0 * p.a * mag - 4.0 * p.b * mag * mag) \
        * inner
    psi0 = -1j * profile.omega * phi0
    phi_prev = phi0 - step_t * psi0 + 0.5 * step_t * step_t * acc
    phi_prev[0] = phi_prev[-1] = 0.0
    return x, n_side * h, phi0, phi_prev


def _full_grid_sample(phi, prev, x, profile, omega, steps):
    """(energy, charge, orbital distance, sup, the orbit's squared norm) of
    one full-grid state."""
    p = profile.params
    h = profile.step
    ahead, ahead_prev = phi.copy(), prev.copy()
    full_grid_leapfrog_steps(ahead, ahead_prev, 1, *steps)
    psi = (ahead - prev) / (2.0 * steps[1])
    grad = np.gradient(phi, h)
    mag = np.abs(phi)
    m2 = p.m * p.m
    energy = (0.5 * composite_simpson(np.abs(psi)**2, h)
              + 0.5 * composite_simpson(np.abs(grad)**2, h)
              + 0.5 * m2 * composite_simpson(mag**2, h)
              + composite_simpson(-p.a * mag**3 + p.b * mag**4, h))
    charge = -composite_simpson(psi * np.conj(phi), h).imag
    r = np.interp(np.abs(x), profile.x, profile.values, right=0.0)
    r_x = np.gradient(r, h)
    norm_u = (m2 * composite_simpson(mag**2, h)
              + composite_simpson(np.abs(grad)**2, h)
              + composite_simpson(np.abs(psi)**2, h))
    norm_v = (m2 * composite_simpson(r**2, h)
              + composite_simpson(r_x**2, h)
              + omega * omega * composite_simpson(r**2, h))
    z = (m2 * composite_simpson(phi * r, h)
         + composite_simpson(grad * r_x, h)
         + composite_simpson(psi * np.conj(-1j * omega * r), h))
    distance = math.sqrt(max(0.0, norm_u + norm_v - 2.0 * abs(z)))
    return energy, charge, distance, float(mag.max()), norm_v


def full_grid_run(p, omega, perturbation, t_final, sample_every=50,
                  step_x=0.02, step_t=0.01, extra_half_length=20.0):
    """The full-grid run as a dict of the ``Diagnostics`` fields, plus
    ``norm_v``, the orbit's squared norm."""
    profile = build_profile(p, omega, step_x)
    x, half_length, phi, prev = _full_grid_start(profile, perturbation,
                                                 step_t, extra_half_length)
    guard = 1e3 * float(profile.values[0])
    steps = (step_x, step_t, p.m * p.m, p.a, p.b, guard)
    tail = np.abs(x) >= half_length - 5.0
    total = int(math.ceil(t_final / step_t - 1e-9))
    out = {"times": [], "energy": [], "charge": [], "orbital_distance": [],
           "sup_amplitude": [], "truncated": False, "truncation_time": None,
           "tail_first_exceed": None}
    time = 0.0
    done = 0
    while True:
        energy, charge, distance, sup, norm_v = _full_grid_sample(
            phi, prev, x, profile, omega, steps)
        for key, value in zip(("times", "energy", "charge",
                               "orbital_distance", "sup_amplitude"),
                              (time, energy, charge, distance, sup)):
            out[key].append(value)
        if (out["tail_first_exceed"] is None
                and float(np.abs(phi[tail]).max()) > 1e-8):
            out["tail_first_exceed"] = time
        if done >= total:
            break
        batch = min(sample_every, total - done)
        taken = full_grid_leapfrog_steps(phi, prev, batch, *steps)
        done += taken
        time = done * step_t
        if taken < batch:
            out["truncated"] = True
            out["truncation_time"] = time
            break
    for key in ("times", "energy", "charge", "orbital_distance",
                "sup_amplitude"):
        out[key] = np.asarray(out[key])
    out["norm_v"] = norm_v
    return out


# --- the operators' grid before the shared lattice --------------------------
#
# The package's earlier ``assemble``, verbatim but for the step, half-length
# and kind it stored on the operator: its own ceil(L/h) intervals per side
# with no even-count rule, its own default L = 40/sqrt(c), and the closed
# form evaluated at |x| on all 2N - 1 interior nodes.

_KINDS = ("lplus", "lminus")


def full_grid_assemble(p: ModelParams, omega: float, step: float,
                       half_length: float | None = None,
                       kind: str = "lplus") -> TridiagonalOperator:
    """Discretize L_plus or L_minus on [-L, L] with Dirichlet ends.

    Raises GridError for a step too coarse for the profile, a half-length
    that is not positive and finite, or more than MAX_NODES nodes on x >= 0.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    p.window.require(omega)
    c = p.m * p.m - omega * omega
    if not step > 0.0:
        raise GridError(f"step must be positive, got {step!r}")
    if step > 0.1 / math.sqrt(c):
        raise GridError(
            f"step={step!r} too coarse to resolve the profile "
            f"(needs h <= {0.1 / math.sqrt(c)!r})"
        )
    if half_length is None:
        half_length = 40.0 / math.sqrt(c)
    elif not 0.0 < half_length < math.inf:
        raise GridError(
            f"half_length must be positive and finite, got {half_length!r}")
    require_node_budget(half_length, step)
    n_side = int(math.ceil(half_length / step - 1e-9))
    if n_side < 2:
        raise GridError("grid too small: needs at least 2 intervals per side")
    half_length = n_side * step

    x = (np.arange(2 * n_side - 1) + 1 - n_side) * step
    r = closed_form_profile(p, omega, np.abs(x))
    if kind == "lminus":
        potential = -3.0 * p.a * r + 4.0 * p.b * r * r
    else:
        potential = -6.0 * p.a * r + 12.0 * p.b * r * r

    h2 = step * step
    diagonal = 2.0 / h2 + potential + c
    off_diagonal = np.full(diagonal.size - 1, -1.0 / h2)
    return TridiagonalOperator(diagonal=diagonal, off_diagonal=off_diagonal)
