"""Hot numerical kernels: leapfrog stepping, Sturm counts and tridiagonal
solves.

The Sturm recurrence is sequential, so it runs as a scalar loop over Python
floats, which cost far less per operation than NumPy scalars and round
identically (both are IEEE doubles).  A Sturm counter converts its matrix
once, with the suffix bounds that let a count stop early at the midpoint of
its tail recurrence's fixed points (``sturm_counter``), and then serves
every count on that matrix.  A count given a cap also returns as soon as it
passes the cap, which is all that a bisection asking "at most j?" needs
(as LAPACK ``dstebz`` only decides an index).  A solve runs odd-even cyclic
reduction in log2 n NumPy passes, checked by a componentwise backward-error
test, with the Thomas loop over Python floats as fallback
(``tridiag_solve``).
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

# Safe floor for Sturm/Thomas pivots: e2/_PIVMIN(e2) stays finite in IEEE
# doubles for any off-diagonal magnitude.
_SAFE_MIN = 2.2250738585072014e-308
_EPS = 2.220446049250313e-16  # machine epsilon of IEEE doubles, 2^-52


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
    weight (``soliton.accelerate_into`` holds the other copy).  The new
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


def sturm_counter(diag, off):
    """Count function for the symmetric tridiagonal matrix: ``count(shift)``
    is the number of its eigenvalues at or below ``shift``, within the pivot
    floor (LAPACK ``dstebz`` convention), and ``count(shift, cap)`` is
    min(count(shift), cap + 1).

    Sturm sequence via the LDL^T pivot recurrence q = (d - shift) - e^2/q.
    A pivot inside [-pivmin, pivmin] is replaced by -pivmin, so
    near-singular shifts cannot divide by zero and an eigenvalue equal to
    ``shift`` is counted; each pivot is compared with the floor once on its
    way to the count, so a NaN pivot is neither floored nor counted.

    The per-matrix work is done once: the rows as lists, the suffix minimum
    low[i] of d and the suffix maximum high[i] of e^2 over the rows i..n-1.
    A count walks every row up to the first row ``start`` whose edge
    low - 2 sqrt(high) is at or above the shift (the edge is nondecreasing),
    and from there it stops at the first pivot q >= bound = gap/2, the
    midpoint of the fixed points of q -> gap - high[start]/q for gap =
    fl(low[start] - shift), if bound > pivmin and fl(gap - fl(high[start] /
    bound)) >= bound.  Rounding is monotone, so every later pivot is then at
    least that expression, hence at least bound: no later row is counted or
    floored, and the count is the full walk's for every input, NaN and +-inf
    included (a NaN in the suffix fails the check).

    With a cap, the walk also returns at the pivot that brings the count to
    cap + 1: the count only grows along the walk, so ``count(shift, j) <= j``
    is the full count's answer.  The test sits in the branch of a counted
    pivot, so a positive pivot costs nothing extra.
    """
    # squared off-diagonal with a leading 0: the first pivot is then
    # d - shift - 0/1, which is exactly d - shift
    e2 = np.empty(diag.shape[0])
    e2[0] = 0.0
    np.square(off, out=e2[1:])
    pivmin = _pivot_floor(e2)
    # a NaN entry spreads to every earlier suffix bound; inf - inf is NaN
    with np.errstate(invalid="ignore"):
        low = np.minimum.accumulate(diag[::-1])[::-1]
        high = np.maximum.accumulate(e2[::-1])[::-1]
        edge = low - 2.0 * np.sqrt(high)
    rows = diag.shape[0]
    diag_list, e2_list = diag.tolist(), e2.tolist()

    def count(shift, cap=rows) -> int:  # n never passes rows: no cap
        # Python floats: d - shift rounds as NumPy's would, and an infinite
        # or NaN operand gives inf or NaN with no warning
        shift = float(shift)
        start = int(np.searchsorted(edge, shift))
        bound = math.nan  # q >= NaN never holds: walk every row
        if start < rows:
            gap = float(low[start]) - shift
            half = 0.5 * gap
            if half > pivmin and gap - float(high[start]) / half >= half:
                bound = half
        n = 0
        q = 1.0
        pivots = zip(diag_list, e2_list)
        for d, s in islice(pivots, start):
            q = (d - shift) - s / q
            if q <= pivmin:
                n += 1
                if n > cap:
                    return n
                if q >= -pivmin:
                    q = -pivmin
        for d, s in pivots:
            if q >= bound:
                break
            q = (d - shift) - s / q
            if q <= pivmin:
                n += 1
                if n > cap:
                    return n
                if q >= -pivmin:
                    q = -pivmin
        return n

    return count


def sturm_count(diag, off, shift):
    """Number of eigenvalues of the symmetric tridiagonal matrix at or below
    ``shift``: one count of ``sturm_counter(diag, off)``."""
    return sturm_counter(diag, off)(shift)


def matvec(diag, off, v):
    """The product T v of the symmetric tridiagonal matrix and a vector."""
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


# componentwise backward-error bound a cyclic-reduction solve must meet,
# in units of eps (Oettli-Prager): |T x - b| <= c eps (|T| |x| + |b|)
_BACKWARD_ULPS = 12.0


def tridiag_solve(diag, off, rhs):
    """Solve the symmetric tridiagonal system T x = rhs.

    By odd-even cyclic reduction (``_cyclic_reduction``), accepted only when
    every row meets the componentwise backward-error test

        |T x - rhs| <= c eps (|T| |x| + |rhs|),   c = _BACKWARD_ULPS,

    which a NaN or inf fails (Oettli-Prager: x then solves a system within
    c eps of T and rhs entry by entry).  Otherwise the unpivoted reduction
    order has lost the matrix, and the Thomas loop's result
    (``_thomas_solve``) is returned.  Returns a new array.
    """
    # overflow and 0 * inf are caught by the backward-error test
    with np.errstate(all="ignore"):
        x = _cyclic_reduction(diag, off, rhs)
        residual = matvec(diag, off, x) - rhs
        allowed = matvec(np.abs(diag), np.abs(off), np.abs(x)) + np.abs(rhs)
        allowed *= _BACKWARD_ULPS * _EPS
        if np.all(np.abs(residual) <= allowed) and np.all(allowed < np.inf):
            return x
    return _thomas_solve(diag, off, rhs)


def _cyclic_reduction(diag, off, rhs):
    """Odd-even cyclic reduction of T x = rhs (Hockney; Buzbee-Golub-Nielson).

    Each level eliminates the odd nodes into the even ones: with the odd
    neighbours' pivots a_l, a_r and couplings e_l, e_r, an even node's
    a' = a - e_l^2/a_l - e_r^2/a_r and f' = f - e_l f_l/a_l - e_r f_r/a_r,
    and two even nodes one odd node apart couple by -e_l e_r/a_odd.  The
    levels halve down to one node; back-substitution then recovers the odd
    nodes, x_odd = (f_odd - e_l x_left - e_r x_right)/a_odd, level by level.

    A pivot is a Schur complement's diagonal entry, which moves with the
    diagonal entry of T at its node, so a pivot inside [-f, f] is replaced
    by -f, with f = max(pivmin, 4 eps |d|) for that node's d: T's entry
    then moves by at most 8 eps |d|, which the backward-error test allows,
    as LAPACK ``dlagtf`` perturbs tiny pivots.  A shift on an eigenvalue
    thus gives a large finite solve, where the floor at pivmin alone
    overflows.  Unchecked: the caller tests the result, and must silence
    NumPy's warnings.
    """
    floor = np.maximum(4.0 * _EPS * np.abs(diag),
                       _pivot_floor(np.square(off)))
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


def _thomas_solve(diag, off, rhs):
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
