"""Independent numerical oracles for the test suite.

Everything here is deliberately built from different primitives than the
package: profiles come from Runge-Kutta integration of the defining ODE
(with the initial amplitude found by bisection, not the closed form),
special functions from truncated series, extrema from golden-section search.
Expected values in the tests are produced by these routines, not copied from
the implementation under test.

The exceptions are the last ten sections.  One holds reference forms of
the package's kernels, written as plain index loops, as the earlier
element-by-element Sturm loop, or with fresh temporaries each step.  They
do the same arithmetic in the same order, so the tests demand bitwise
equality with them; the index-order ``leapfrog_steps`` is the earlier
leapfrog kernel, the reference for the stated tolerance of the regrouped
one, and ``cyclic_reduction`` is the earlier full-depth reduction, the
reference for the stated tolerance of the one that finishes with a sweep.
Three keep the package's earlier eigen path, its earlier full-grid
evolution and its earlier composite-Simpson diagnostics, the references for
the stated tolerances of the faster paths that replaced them.  One keeps
the earlier eigenpair refinement, a Rayleigh-quotient shift at every step
from ``numpy.random`` start vectors, the reference for the stated tolerance
of the safeguarded one, beside SplitMix64 on Python integers, which the
package's start vectors must equal bitwise.  One keeps the earlier
brackets, opened by a doubling search from the Gershgorin interval, the
reference for the stated tolerance of the brackets from [-s, s].  One keeps
the field operator's earlier form into caller-held buffers, which the
plain-expression ``field_acceleration`` must equal bitwise.  One keeps
the operators' earlier full-grid assembly, which the package's assembly on
the profile's lattice must equal bitwise at the same Dirichlet end.  The
last two keep the earlier row-by-row ``sweep`` and the earlier recursive
JSON renderer, which the columnar sweep and the one-buffer renderer must
equal bitwise and byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from kgstab import (GridError, ModelParams, TridiagonalOperator, _kernels,
                    alpha_of_omega, build_profile, closed_form_profile,
                    composite_simpson, d_second_sign, g_potential,
                    parse_perturbation, sigma_closed)
from kgstab.evolve import _guard
from kgstab.model import bisect
from kgstab.soliton import require_node_budget
from kgstab.spectrum import (_COARSE_WIDTH, _WIDTHS, EIGENVALUE_TOL,
                             EigensolverError, _inverse_iteration, _scale,
                             _start_vectors)


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


def sturm_count_elementwise(diag, off, shift):
    """The earlier ``_kernels.sturm_count`` loop, verbatim: d - shift
    formed per row, and the floor and the sign tested separately."""
    e2 = np.empty(diag.shape[0])
    e2[0] = 0.0
    np.square(off, out=e2[1:])
    pivmin = _SAFE_MIN * max(1.0, float(np.max(e2, initial=0.0)))
    shift = float(shift)
    count = 0
    q = 1.0
    for d, s in zip(diag.tolist(), e2.tolist()):
        q = d - shift - s / q
        if -pivmin <= q <= pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
    return count


def tridiag_solve(diag, off, rhs, floors=None):
    """Thomas algorithm with the same pivot floor, or with row i's pivot
    floored at floors[i]."""
    n = diag.shape[0]
    c = np.empty(n - 1)
    x = np.empty(n)
    if floors is None:
        floors = np.full(n, _pivot_floor(off))

    piv = diag[0]
    if abs(piv) <= floors[0]:
        piv = -floors[0]
    x[0] = rhs[0] / piv
    for i in range(1, n):
        c[i - 1] = off[i - 1] / piv
        piv = diag[i] - off[i - 1] * c[i - 1]
        if abs(piv) <= floors[i]:
            piv = -floors[i]
        x[i] = (rhs[i] - off[i - 1] * x[i - 1]) / piv
    for i in range(n - 2, -1, -1):
        x[i] -= c[i] * x[i + 1]
    return x


def cyclic_reduction(diag, off, rhs):
    """Odd-even cyclic reduction to one row, the package's earlier
    ``_kernels._cyclic_reduction``: each pivot floored at max(pivmin,
    4 eps |d|) of its node, unchecked."""
    floor = np.maximum(4.0 * np.finfo(float).eps * np.abs(diag),
                       _pivot_floor(off))
    levels = []
    a, e, f = diag, off, rhs
    while a.size > 1:
        odd = a[1::2].copy()
        odd_floor = floor[1::2]
        small = np.abs(odd) <= odd_floor
        if small.any():
            odd[small] = -odd_floor[small]
        floor = floor[0::2]
        left, right, f_odd = e[0::2], e[1::2], f[1::2]
        inner = right.size  # odd nodes with an even right neighbour
        ratio_l = left / odd
        ratio_r = right / odd[:inner]
        a_even = a[0::2].copy()
        f_even = f[0::2].copy()
        a_even[:odd.size] -= left * ratio_l
        f_even[:odd.size] -= ratio_l * f_odd
        a_even[1:inner + 1] -= right * ratio_r
        f_even[1:inner + 1] -= ratio_r * f_odd[:inner]
        levels.append((odd, left, right, f_odd))
        a, e, f = a_even, -(left[:inner] * ratio_r), f_even
    piv = a[0]
    if -floor[0] <= piv <= floor[0]:
        piv = -floor[0]
    x = f / piv
    for odd, left, right, f_odd in reversed(levels):
        x_odd = f_odd - left * x[:odd.size]
        x_odd[:right.size] -= right * x[1:right.size + 1]
        x_odd /= odd
        full = np.empty(x.size + odd.size)
        full[0::2] = x
        full[1::2] = x_odd
        x = full
    return x


def leapfrog_steps(phi, phi_prev, n_steps, step_x, step_t, m2, a, b, guard,
                   work=None):
    """Half-line leapfrog with fresh temporaries each step; node 0 is the
    mirror centre, phi(-h) = phi(h), and the last node stays fixed.  Returns
    the steps taken.  ``work``, the package kernel's workspace, is accepted
    and unused, so this can stand in for the kernel."""
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


# --- the refinement before the bracket safeguard ---------------------------
#
# The package's earlier refinement took the Rayleigh quotient as its next
# shift wherever it lay, and drew its start vectors from NumPy's default
# generator, seeded 1234 + j for the j-th pair of a block.

_MASK64 = (1 << 64) - 1


def splitmix64(seed: int, count: int) -> list:
    """The first ``count`` outputs of SplitMix64 (Steele, Lea and Flood
    2014) seeded with ``seed``, on Python integers."""
    out = []
    for _ in range(count):
        seed = (seed + 0x9E3779B97F4A7C15) & _MASK64
        z = seed
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def normal_start_vectors(n: int, pair: int):
    """The earlier start vectors of pair ``pair``: normalized standard
    normal draws of ``np.random.default_rng(1234 + pair)``."""
    rng = np.random.default_rng(1234 + pair)
    while True:
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        yield v


def rayleigh_every_step(inverse_iteration):
    """``inverse_iteration`` (the package's) with a bracket of unbounded
    width, so that every Rayleigh quotient is the next shift."""
    def refine(diag, off, eigenvalue, width, starts, neighbors):
        return inverse_iteration(diag, off, eigenvalue, math.inf, starts,
                                 neighbors)
    return refine


# --- the brackets before the one scale bound -------------------------------
#
# The package's earlier ``_lowest_eigenpairs``: each pair's bracket was opened
# by an upward doubling search from the Gershgorin interval's lower end, in
# steps from max(1e-3, interval width / n), and capped at its upper end.  The
# refinement, the widths and the confirming counts are the package's.

def doubling_search_eigenpairs(op: TridiagonalOperator, k: int, count):
    """``spectrum._lowest_eigenpairs`` with each bracket opened by the
    doubling search from the Gershgorin interval's lower end."""
    n = op.size
    diag, off = op.diagonal, op.off_diagonal
    radius = np.zeros(n)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    lo = float((diag - radius).min())
    hi_bound = float((diag + radius).max())
    first_step = max(_COARSE_WIDTH, (hi_bound - lo) / n)
    # a spectrum narrower than 1 gets proportionally narrower brackets
    scale = _scale(diag, off)
    widths = [min(width, width * scale) for width in _WIDTHS]

    pairs: list[tuple[float, np.ndarray]] = []
    for j in range(k):
        # the (j+1)-th eigenvalue lies above x while at most j are at or
        # below it
        def goes_up(x):
            return count(x, j) <= j

        step = first_step
        hi = lo + step
        while hi < hi_bound and goes_up(hi):
            lo, step = hi, 2.0 * step
            hi = lo + step
        hi = min(hi, hi_bound)

        starts = _start_vectors(n, j)
        # every earlier vector: a distant one costs a dot product and
        # changes nothing, a missed cluster member skews the vectors
        earlier = [v for _, v in pairs]
        for width in widths:
            shift = bisect(goes_up, lo, hi, width)
            pair = _inverse_iteration(diag, off, shift, width, starts,
                                      earlier)
            if pair is not None:
                value, vector = pair
                if (goes_up(value - EIGENVALUE_TOL)
                        and not goes_up(value + EIGENVALUE_TOL)):
                    break
            # the last bisection bracket lies within width / 2 of shift
            lo, hi = max(lo, shift - width), min(hi, shift + width)
        else:
            raise EigensolverError(f"eigenpair {j} not refined and confirmed "
                                   f"near {shift!r}")
        pairs.append((value, vector))
        lo = value - EIGENVALUE_TOL  # eigenvalues are nondecreasing
    # members of a cluster narrower than EIGENVALUE_TOL may come out of order
    pairs.sort(key=lambda pair: pair[0])
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


# --- the field operator into buffers ---------------------------------------
#
# The package's earlier ``field_acceleration`` and ``accelerate_into``,
# verbatim but for the wrapper's name and the docstrings: each operation
# written into buffers the caller holds, in the order the plain expressions
# must keep.

def buffered_field_acceleration(phi, step, p):
    acc = np.zeros_like(phi)
    inner = phi[:-1]
    weight = np.empty(inner.shape)
    accelerate_into(acc, phi, np.abs(inner), step, p, np.empty_like(inner),
                    weight, np.empty_like(weight))
    return acc


def accelerate_into(acc, phi, mag, step, p, force, weight, scratch):
    """Write the field operator of phi into ``acc[:-1]``, given
    ``mag`` = |phi[:-1]|."""
    inner = phi[:-1]
    lap = acc[:-1]
    np.multiply(2.0, inner, out=lap)
    np.subtract(phi[1:], lap, out=lap)
    np.add(lap[:1], phi[1:2], out=lap[:1])  # the mirror: phi(-h) = phi(h)
    np.add(lap[1:], phi[:-2], out=lap[1:])
    np.divide(lap, step * step, out=lap)
    np.multiply(3.0 * p.a, mag, out=weight)
    np.add(-p.m * p.m, weight, out=weight)
    np.multiply(4.0 * p.b, mag, out=scratch)
    np.multiply(scratch, mag, out=scratch)
    np.subtract(weight, scratch, out=weight)
    np.multiply(weight, inner, out=force)
    np.add(lap, force, out=lap)


# --- the diagnostics before the sampler -------------------------------------
#
# The package's earlier ``FieldState`` fields, ``field_energy``,
# ``field_charge`` and ``orbital_distance``, verbatim but for reading the
# fields through the functions below: a fresh array per field and per
# density, and every integral by composite Simpson doubled.  They are the
# reference for the stated tolerance of the sampler's weighted dot products;
# ``sampled_run`` is the earlier ``run`` loop around them, a new state per
# batch from ``advance``, the package's earlier stepping helper.

_quiet = np.errstate(over="ignore", invalid="ignore")


def advance(state, n_steps: int):
    """Take up to n_steps leapfrog steps; returns (new state, steps taken).

    The kernel is read through ``_kernels`` at each call, so a test that
    swaps ``_kernels.leapfrog_steps`` steps with its replacement.
    """
    phi = state.phi.copy()
    prev = state.phi_prev.copy()
    prof = state.profile
    p = prof.params
    taken = int(_kernels.leapfrog_steps(
        phi, prev, n_steps, prof.step, state.step_t,
        p.m * p.m, p.a, p.b, _guard(prof),
        _kernels.leapfrog_arrays(phi.size)[2],
    ))
    new = replace(state, steps=state.steps + taken, phi=phi, phi_prev=prev)
    return new, taken


@_quiet
def velocity(state):
    """(phi^n - phi^{n-1}) / dt + (dt/2) phi_tt(phi^n)."""
    dt = state.step_t
    prof = state.profile
    return ((state.phi - state.phi_prev) / dt
            + 0.5 * dt * buffered_field_acceleration(state.phi, prof.step,
                                                     prof.params))


def phi_x(state):
    """np.gradient of phi, 0 at the centre."""
    grad = np.gradient(state.phi, state.profile.step)
    grad[0] = 0.0
    return grad


@_quiet
def magnitude(state):
    return np.abs(state.phi)


@_quiet
def field_energy(state) -> float:
    p = state.profile.params
    mag = magnitude(state)
    density = (0.5 * np.abs(velocity(state))**2
               + 0.5 * np.abs(phi_x(state))**2
               + 0.5 * p.m * p.m * mag**2
               + g_potential(p, mag))
    return 2.0 * composite_simpson(density, state.profile.step)


@_quiet
def field_charge(state) -> float:
    pairing = composite_simpson(velocity(state) * np.conj(state.phi),
                                state.profile.step)
    return -2.0 * pairing.imag


def orbit(profile) -> dict:
    """The orbit's side: m^2, R, R', conj(-i omega R) and the squared norm
    m^2 ||R||^2 + ||R'||^2 + omega^2 ||R||^2."""
    h = profile.step
    omega = profile.omega
    p = profile.params
    m2 = p.m * p.m
    r = profile.values
    r_x = np.gradient(r, h)
    r_x[0] = 0.0
    norm = 2.0 * composite_simpson((m2 + omega * omega) * r**2 + r_x**2, h)
    return {"m2": m2, "r": r, "r_x": r_x, "psi": np.conj(-1j * omega * r),
            "norm": norm}


@_quiet
def orbital_distance(state) -> float:
    side = orbit(state.profile)
    h = state.profile.step
    psi = velocity(state)
    grad = phi_x(state)
    norm_u = 2.0 * composite_simpson(
        side["m2"] * magnitude(state)**2 + np.abs(grad)**2
        + np.abs(psi)**2, h)
    z = 2.0 * composite_simpson(
        side["m2"] * state.phi * side["r"] + grad * side["r_x"]
        + psi * side["psi"], h)
    return math.sqrt(max(norm_u + side["norm"] - 2.0 * abs(z), 0.0))


def sampled_run(state, t_final, sample_every=50) -> dict:
    """The earlier ``run`` loop from its initial ``state``, as a dict of the
    ``Diagnostics`` fields plus ``norm_v``, the orbit's squared norm."""
    profile = state.profile
    tail = profile.x >= profile.half_length - 5.0
    guard = 1e3 * float(profile.values[0])

    def sample(s):
        mag = magnitude(s)
        return (s.time, field_energy(s), field_charge(s),
                orbital_distance(s), float(mag.max()), float(mag[tail].max()))

    samples = [sample(state)]
    total = int(math.ceil(t_final / state.step_t - 1e-9))
    truncation_time = None
    done = 0
    while done < total:
        state, taken = advance(state, min(sample_every, total - done))
        done += taken
        if not magnitude(state).max() <= guard:
            truncation_time = state.time
            break
        samples.append(sample(state))
    times, energy, charge, dist, sup, tail_sup = map(np.asarray,
                                                     zip(*samples))
    exceeded = np.flatnonzero(tail_sup > 1e-8)
    return {"times": times, "energy": energy, "charge": charge,
            "orbital_distance": dist, "sup_amplitude": sup,
            "truncated": truncation_time is not None,
            "truncation_time": truncation_time,
            "tail_first_exceed":
                float(times[exceeded[0]]) if exceeded.size else None,
            "norm_v": orbit(profile)["norm"]}


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


# --- the sweep before the columns -------------------------------------------
#
# The package's earlier ``sweep``: the window's interior grid built row by
# row, and each row through the scalar closed form.


def scalar_sweep(p: ModelParams, n: int) -> tuple:
    """omega, alpha, sigma and sign d'' lists of the n-row sweep."""
    window = p.window
    omegas = [window.omega_star + (i + 1) * window.width / (n + 1)
              for i in range(n)]
    rows = [(omega, alpha_of_omega(p, omega), sigma_closed(p, omega),
             d_second_sign(p, omega)) for omega in omegas]
    return tuple(map(list, zip(*rows)))


# --- the JSON renderer before the one buffer --------------------------------
#
# The package's earlier ``render_json``, verbatim but for its name: each
# nesting level joins its members' text into a new string.

_ESCAPES = str.maketrans({'"': '\\"', "\\": "\\\\",
                          **{chr(i): f"\\u{i:04x}" for i in range(0x20)}})


def _format_float(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"non-finite number {value!r} has no JSON encoding")
    return format(value, ".17g")


def _escape_string(text: str) -> str:
    return '"' + text.translate(_ESCAPES) + '"'


def recursive_render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-significant-digit
    floats, no locale or timestamp dependence."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):  # bool before int: True is an int subclass
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return _escape_string(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{_escape_string(str(key))}: "
            f"{recursive_render_json(val, indent + 1)}"
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        parts = [f"{inner}{recursive_render_json(val, indent + 1)}"
                 for val in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise TypeError(f"no JSON encoding for {type(obj).__name__}")
