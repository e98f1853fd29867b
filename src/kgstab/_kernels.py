"""Hot numerical kernels: leapfrog stepping, Sturm counts and Thomas solves.

The Sturm and Thomas recurrences are sequential, so they run as scalar
loops.  Each call converts its arrays to lists once and loops over Python
floats, which cost far less per operation than NumPy scalars and round
identically (both are IEEE doubles).
"""

from __future__ import annotations

import numpy as np

# Safe floor for Sturm/Thomas pivots: e2/_PIVMIN(e2) stays finite in IEEE
# doubles for any off-diagonal magnitude.
_SAFE_MIN = 2.2250738585072014e-308


def leapfrog_steps(phi, phi_prev, n_steps, step_x, step_t, m2, a, b, guard):
    """Advance the leapfrog scheme ``n_steps`` times in place (vectorized).

    phi/phi_prev are complex arrays over the half-line x_i = i*h of an even
    field: node 0 is the symmetry centre, whose left neighbour phi(-h) is its
    mirror phi(h), and the last node is a Dirichlet end that is never
    touched.  Returns the number of steps actually taken, stopping after the
    step whose new level exceeds the amplitude guard; a trip on the last
    step also returns ``n_steps``, so callers test the end state themselves.
    """
    inv_h2 = 1.0 / (step_x * step_x)
    dt2 = step_t * step_t
    inner = phi[:-1]
    prev_inner = phi_prev[:-1]
    # buffers reused by every step; the ufunc calls keep the operand order of
    # the plain expressions, so the arithmetic is unchanged
    rhs = np.empty_like(inner)
    scratch = np.empty_like(inner)
    mag = np.abs(inner)
    coeff = np.empty_like(mag)
    quartic = np.empty_like(mag)
    for k in range(n_steps):
        # rhs = (right - 2 inner + left) / h^2, where the centre's left
        # neighbour is its mirror phi[1]
        np.multiply(2.0, inner, out=scratch)
        np.subtract(phi[1:], scratch, out=rhs)
        np.add(rhs[1:], phi[:-2], out=rhs[1:])
        rhs[0] += phi[1]
        np.multiply(rhs, inv_h2, out=rhs)
        # rhs += (-m^2 + 3a|phi| - 4b|phi|^2) phi
        np.multiply(3.0 * a, mag, out=coeff)
        np.add(-m2, coeff, out=coeff)
        np.multiply(4.0 * b, mag, out=quartic)
        np.multiply(quartic, mag, out=quartic)
        np.subtract(coeff, quartic, out=coeff)
        np.multiply(coeff, inner, out=scratch)
        np.add(rhs, scratch, out=rhs)
        # new = 2 inner - prev + dt^2 rhs
        np.multiply(2.0, inner, out=scratch)
        np.subtract(scratch, prev_inner, out=scratch)
        np.multiply(dt2, rhs, out=rhs)
        np.add(scratch, rhs, out=scratch)
        prev_inner[...] = inner
        inner[...] = scratch
        # |new| is the next step's |phi|
        np.abs(scratch, out=mag)
        sup = mag.max()
        if not sup <= guard:  # catches NaN as well as overshoot
            return k + 1
    return n_steps


def _pivot_floor(e2) -> float:
    """LAPACK-style pivot floor: the safe minimum scaled by max(1, off^2),
    from the squared off-diagonal ``e2``."""
    return _SAFE_MIN * max(1.0, float(np.max(e2, initial=0.0)))


def sturm_count(diag, off, shift):
    """Number of eigenvalues of the symmetric tridiagonal matrix at or below
    ``shift``, within the pivot floor (LAPACK ``dstebz`` convention).

    Sturm sequence via the LDL^T pivot recurrence.  A pivot inside
    [-pivmin, pivmin] is replaced by -pivmin, so near-singular shifts cannot
    divide by zero and an eigenvalue equal to ``shift`` is counted.
    """
    # squared off-diagonal with a leading 0: the first pivot is then
    # d - shift - 0/1, which is exactly d - shift
    e2 = np.empty(diag.shape[0])
    e2[0] = 0.0
    np.square(off, out=e2[1:])
    pivmin = _pivot_floor(e2)
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


def tridiag_solve(diag, off, rhs):
    """Solve the symmetric tridiagonal system (Thomas algorithm).

    Pivots are floored in magnitude so a shifted near-singular system (the
    inverse-iteration workload) never divides by zero.  A pivot that is
    exactly zero becomes -pivmin, and an O(1) right-hand side then overflows
    to inf (and NaN in back-substitution): callers must check the result is
    finite.  Returns a new array.
    """
    pivmin = _pivot_floor(np.square(off))
    diag_it = iter(diag.tolist())
    rhs_it = iter(rhs.tolist())

    piv = next(diag_it)
    if -pivmin <= piv <= pivmin:
        piv = -pivmin
    xi = next(rhs_it) / piv
    x = [xi]
    c = []
    for e, d, r in zip(off.tolist(), diag_it, rhs_it):
        ci = e / piv
        piv = d - e * ci
        if -pivmin <= piv <= pivmin:
            piv = -pivmin
        xi = (r - e * xi) / piv
        c.append(ci)
        x.append(xi)
    for i in range(len(c) - 1, -1, -1):
        xi = x[i] - c[i] * xi
        x[i] = xi
    return np.array(x)
