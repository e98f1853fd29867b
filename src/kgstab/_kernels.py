"""Numerical kernels: leapfrog steps, Sturm counts, tridiagonal solves and
``dot``, the one sum of products behind every norm, projection and
``evolve`` integral.  The sequential recurrences run over Python floats,
which round as NumPy's doubles do at a fraction of the cost; the Sturm count
and the Thomas sweep enter row 0 through a leading 0 off-diagonal and a unit
pivot, so row 0 is a pass of the loop body like every other.  A solve halves
T by cyclic reduction down to 64 rows and finishes with the Thomas sweep; its
x is unchecked, and the caller tests it."""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

# smallest normal double; pivots are floored at it times max(1, e^2)
_SAFE_MIN = 2.2250738585072014e-308
_EPS = 2.220446049250313e-16  # machine epsilon of IEEE doubles, 2^-52
# bytes in a cache line: NumPy's AVX-512 loops store one line at a time
_LINE = 64


def leapfrog_arrays(size):
    """``(phi, phi_prev, (near, scratch, mag, w))`` for ``leapfrog_steps`` on
    ``size`` nodes, from one block: complex levels of ``size`` nodes and work
    arrays of ``size - 1``.  Each starts on a 64-byte line, ``near`` at
    ``near[1]``, the kernel's first store: NumPy's AVX-512 loops store a line
    at a time, and a store that starts off a line is split in two."""
    inner = size - 1
    # (dtype, length, bytes before the line the array is aligned to)
    layout = ((complex, size, 0), (complex, size, 0), (complex, inner, 16),
              (complex, inner, 0), (float, inner, 0), (float, inner, 0))
    spans, end = [], 0
    for dtype, length, lead in layout:
        start = -(-(end + lead) // _LINE) * _LINE - lead
        end = start + length * np.dtype(dtype).itemsize
        spans.append((start, end, dtype))
    block = np.empty(end + _LINE, np.uint8)
    base = -block.ctypes.data % _LINE
    phi, phi_prev, *work = (block[base + start:base + stop].view(dtype)
                            for start, stop, dtype in spans)
    return phi, phi_prev, tuple(work)


def leapfrog_steps(phi, phi_prev, n_steps, step_x, step_t, m2, a, b, guard,
                   work):
    """Advance ``n_steps`` leapfrog steps in place and return the steps taken,
    stopping after a step whose sup |new| exceeds ``guard`` or is NaN; a trip
    on the last step returns ``n_steps``, so callers test the end state.
    phi and phi_prev are complex levels of an even field on x_i = i h, x >= 0,
    of at least 3 nodes, with the mirror phi(-h) = phi(h) and a Dirichlet end
    that is never written; ``work`` is ``leapfrog_arrays``'.  A step is new
    = w phi + r (right + left) - prev, r = dt^2/h^2, w = 2 - 2r - dt^2 (m^2
    + G'(|phi|)/|phi|), with ``model.g_prime_over_s`` written out.  phi ends
    as the newest level."""
    dt2 = step_t * step_t
    r = dt2 / (step_x * step_x)
    c0, c1, c2 = 2.0 - 2.0 * r - dt2 * m2, 3.0 * a * dt2, 4.0 * b * dt2
    end = phi[-1]
    cur, prev = phi[:-1], phi_prev[:-1]
    near, scratch, mag, w = work  # near: right + left neighbours
    np.abs(cur, out=mag)
    for k in range(n_steps):
        np.add(cur[2:], cur[:-2], out=near[1:-1])
        near[-1] = end + cur[-2]
        near[0] = 2.0 * cur[1]
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
    """``count(shift)``: the number of eigenvalues of the symmetric tridiagonal
    matrix at or below ``shift``, within the pivot floor pivmin (LAPACK
    ``dstebz`` convention); ``count(shift, cap)`` is
    min(count(shift), cap + 1).

    The Sturm sequence is the LDL^T recurrence q = (d - shift) - e^2/q; a
    pivot in [-pivmin, pivmin] is counted and becomes -pivmin, a NaN pivot
    neither.  From the first row whose edge low - 2 sqrt(high) (suffix
    minimum of d, suffix maximum of e^2) reaches the shift, a count stops at
    a pivot q >= bound = (low - shift)/2 if bound > pivmin and the rounded
    map q -> (low - shift) - high/q keeps bound at least bound: no later
    pivot is then counted, so every count is the full walk's, NaN and +-inf
    included.
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
        # an infinite or NaN Python float gives inf or NaN with no warning
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


def dot(a, b):
    """The sum of a[i] b[i] over two 1-D arrays, unconjugated, by NumPy's
    pairwise summation of their product, whose order follows the length
    alone.  Not BLAS: OpenBLAS splits a long dot over
    ``OPENBLAS_NUM_THREADS`` threads, so its last digits follow that setting.
    """
    return np.add.reduce(a * b)


def matvec(diag, off, v):
    """The product T v of the symmetric tridiagonal matrix and a vector."""
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


# cyclic reduction stops at this many rows: below it a level is NumPy call
# overhead, and the scalar Thomas sweep finishes the reduced system
_SWEEP_ROWS = 64


def tridiag_solve(diag, off, rhs):
    """A new x with T x = rhs by odd-even cyclic reduction (Hockney;
    Buzbee-Golub-Nielson) down to _SWEEP_ROWS = 64 rows, solved by
    ``_sweep`` and back-substituted, with NumPy's warnings silenced.  x is
    unchecked and may be inf or NaN: the caller tests it.  A pivot in
    [-f, f], f = max(pivmin, 4 eps |d|) of its node, becomes -f, which moves
    T by at most 8 eps |d| (as LAPACK ``dlagtf`` perturbs tiny pivots): a
    shift on an eigenvalue then gives a large finite solve, where a floor at
    pivmin alone overflows.  Its reports are within 1e-12 of the full-depth
    reduction's (eigenvalues; 7.1e-14 measured).  It does not pivot: a
    nonsingular T with a zero pivot gets a wrong x, as diag 2, 1, 2, 1, ...
    and off 1 do (condition number 222 at 129 rows)."""
    with np.errstate(all="ignore"):
        floor = np.maximum(4.0 * _EPS * np.abs(diag),
                           _pivot_floor(np.square(off)))
        levels = []
        a, e, f = diag, off, rhs
        while a.size > _SWEEP_ROWS:
            odd = a[1::2].copy()
            odd_floor = floor[1::2]
            small = np.abs(odd) <= odd_floor
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
        x = _sweep(a, e, f, floor.tolist())
        for odd, left, right, f_odd in reversed(levels):
            x_odd = f_odd - left * x[:odd.size]
            x_odd[:right.size] -= right * x[1:right.size + 1]
            x_odd /= odd
            full = np.empty(x.size + odd.size)
            full[0::2] = x
            full[1::2] = x_odd
            x = full
    return x


def _sweep(diag, off, rhs, floors):
    """A new x with T x = rhs by the Thomas loop over Python floats.  Row
    i's pivot in [-f, f], f the i-th of ``floors``, becomes -f; a NaN pivot
    stays NaN."""
    # a leading 0 off-diagonal and the pivot 1: row 0's pivot is then
    # d - 0 * 0 and its x (r - 0 * 0) / pivot, exactly d and r / pivot
    piv, xi = 1.0, 0.0
    c, x = [], []
    for e, d, r, f in zip([0.0, *off.tolist()], diag.tolist(), rhs.tolist(),
                          floors):
        ci = e / piv
        piv = d - e * ci
        if -f <= piv <= f:
            piv = -f
        xi = (r - e * xi) / piv
        c.append(ci)
        x.append(xi)
    for i in range(len(x) - 2, -1, -1):
        xi = x[i] - c[i + 1] * xi
        x[i] = xi
    return np.array(x)
