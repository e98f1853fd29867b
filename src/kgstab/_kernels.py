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

    A step is new = w phi + r (right + left) - prev, with r = dt^2/h^2 and
    one real weight per node, w = (2 - 2r - dt^2 m^2) + |phi| (3a dt^2
    - 4b dt^2 |phi|) in Horner form: 2 - 2r - dt^2 (m^2 + G'(|phi|)/|phi|),
    with G'(s)/s as ``model.g_prime_over_s`` defines it, folded into the
    weight (``soliton.field_acceleration`` holds the other copy).  The new
    level overwrites prev's storage and the two swap roles; after an odd
    step count one copy-back moves the newest level into ``phi``.
    """
    dt2 = step_t * step_t
    r = dt2 / (step_x * step_x)
    c0, c1, c2 = 2.0 - 2.0 * r - dt2 * m2, 3.0 * a * dt2, 4.0 * b * dt2
    end = phi[-1]  # the Dirichlet value, read once
    cur, prev = phi[:-1], phi_prev[:-1]
    near = np.empty_like(cur)  # right + left neighbours
    scratch = np.empty_like(cur)
    mag = np.abs(cur)
    w = np.empty_like(mag)
    for k in range(n_steps):
        np.add(cur[2:], cur[:-2], out=near[1:-1])
        if cur.size > 1:
            near[-1] = end + cur[-2]
            near[0] = 2.0 * cur[1]
        else:  # the centre alone: both neighbours are the Dirichlet end
            near[0] = 2.0 * end
        np.multiply(c2, mag, out=w)
        np.subtract(c1, w, out=w)
        np.multiply(w, mag, out=w)
        np.add(c0, w, out=w)
        np.multiply(w, cur, out=scratch)
        np.multiply(r, near, out=near)
        np.add(scratch, near, out=scratch)
        np.subtract(scratch, prev, out=prev)
        cur, prev = prev, cur
        np.abs(cur, out=mag)  # |new| is the next step's |phi|
        if not mag.max() <= guard:  # catches NaN as well as overshoot
            n_steps = k + 1
            break
    if n_steps % 2:  # the newest level sits in phi_prev's storage
        scratch[...] = cur
        cur[...] = prev
        prev[...] = scratch
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
