"""Linearized operators about a standing wave and their low spectrum.

Linearizing the field equation about e^{-i omega t} R(x) decouples into two
Sturm-Liouville operators on the line,

    L_minus = -d2/dx2 + R^{-1}G'(R) + (m^2 - omega^2)   (kernel spanned by R)
    L_plus  = -d2/dx2 + G''(R)      + (m^2 - omega^2)   (kernel spanned by R')

whose negative/zero eigenvalue counts feed the stability theory.  Both are
discretized by second-order centered differences on [-L, L] with Dirichlet
ends: the profile's lattice (``soliton.half_line``) and its mirror.  The
profile is even, so each operator splits exactly into an even block on the
nodes x >= 0 and an odd block on the nodes x > 0, both formed from the rows
on the lattice's nodes 0 .. N-1; the full grid is built only by ``assemble``
and for ``spectral_report``'s ``x`` and mirrored vectors.  On each block, the
lowest eigenpairs come from Sturm-sequence counts that bracket an
eigenvalue and bisect it to a width of 1e-3 (1e-6, 1e-9, then 1e-10 while a
pair fails; each times the matrix scale max|d| + 2 max|e| where that is
below 1, and never past two neighbouring floats), inverse iteration that
refines it, and two more Sturm counts that confirm its index — deliberately
self-contained so library results can be compared against external
eigensolvers in the tests.  The refinement
shifts by the Rayleigh quotient only while it stays inside the bisection
bracket; one outside it keeps the previous shift for a plain
inverse-iteration step (as LAPACK ``dstein`` and Parlett's safeguarded
Rayleigh-quotient iteration do), so the refinement does not jump to a
neighbouring eigenvalue and bisect again.  Its start and restart vectors
come from ``_start_vectors``, a counter-based SplitMix64 stream of (pair,
draw, node), as ``dstein`` draws its own from ``dlarnv``: no code path
imports ``numpy.random``.  Against the earlier refinement (a
Rayleigh-quotient shift at every step, from ``numpy.random`` start
vectors), a report keeps its negative counts, its eigenvalues within 1e-12,
kernel matches within 1e-14 and eigenvectors within 1e-12 in |cos| (tested
on the test waves).  The counts on a block, the report's negative count
included, share one ``_kernels.sturm_counter``.  A count at a shift below
the block's edge (where the smallest remaining diagonal entry, less twice
the largest remaining off-diagonal magnitude, passes the shift) stops once
a pivot proves that no later pivot can be counted: the same count as the
full walk.  The search for the (j+1)-th eigenvalue only asks whether a
count is at most j, so its counts are capped at j and stop at the (j+1)-th
counted pivot, which fixes that answer; the negative count is uncapped.
Each solve of the refinement is ``_kernels.tridiag_solve``: cyclic
reduction in NumPy passes, checked by a componentwise backward-error test,
with the Thomas loop as its fallback.  Against the Thomas loop alone, a
report keeps its negative counts, its eigenvalues within 1e-12, kernel
matches within 1e-14 and eigenvectors within 1e-12 in |cos| (tested on the
test waves).  Every norm, projection, Rayleigh quotient and kernel match is
a ``_kernels.dot`` sum, whose order follows the length alone, so no report
depends on ``OPENBLAS_NUM_THREADS``; against the BLAS dot products it
replaced, a report keeps the same four tolerances (tested on the test
waves).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .model import (DomainError, ModelParams, as_count, bisect,
                    g_prime_over_s, g_second)
from .soliton import (GridError, closed_form_profile, closed_form_slope,
                      half_line)

# bisection width that isolates an eigenvalue for refinement
_COARSE_WIDTH = 1e-3
# inverse iteration stops at a residual of this many ulps of the matrix scale
_RESIDUAL_ULPS = 100.0
# distance of each returned eigenvalue from the matrix's own
EIGENVALUE_TOL = 1e-10
# bisection widths of an eigenpair's successive refinements
_WIDTHS = (_COARSE_WIDTH, 1e-6, 1e-9, EIGENVALUE_TOL)
# eigenvalues within KERNEL_BAND * (c step)^2 of zero are kernel candidates
KERNEL_BAND = 10.0


def kernel_band(p: ModelParams, omega: float, step: float) -> float:
    """Half-width b = KERNEL_BAND (c h)^2 of the band (-b, b) of discrete
    kernel candidates, with c = m^2 - omega^2.

    L+/c and L-/c depend on the lattice only through h sqrt(c), so the
    discrete kernel eigenvalues, O((h sqrt(c))^2) in units of c, are
    O(c^2 h^2): a band of 10 h^2 alone holds them only for middling c.
    """
    c = p.m * p.m - omega * omega
    return KERNEL_BAND * (c * step) ** 2


class EigensolverError(RuntimeError):
    """No bisection width gave a refined and Sturm-confirmed eigenpair."""


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix; raises ValueError unless ``diagonal``
    and ``off_diagonal`` are 1-D arrays of n >= 1 and n - 1 entries."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self):
        diag, off = self.diagonal, self.off_diagonal
        if not (isinstance(diag, np.ndarray) and isinstance(off, np.ndarray)
                and diag.ndim == off.ndim == 1 and diag.size >= 1
                and off.size == diag.size - 1):
            raise ValueError("need 1-D arrays of n >= 1 and n - 1 entries, "
                             f"got shapes {np.shape(diag)}, {np.shape(off)}")

    @property
    def size(self) -> int:
        return self.diagonal.size


def _half_line_rows(p, omega, step, half_length):
    """The lattice ``half_line`` (nodes 0 .. N), the L_plus and L_minus
    diagonals on its nodes 0 .. N-1 and the off-diagonals they share."""
    x = half_line(p, omega, step, half_length)
    c = p.m * p.m - omega * omega
    if step > 0.1 / math.sqrt(c):
        raise GridError(
            f"step={step!r} too coarse to resolve the profile "
            f"(needs h <= {0.1 / math.sqrt(c)!r})"
        )
    r = closed_form_profile(p, omega, x[:-1])
    h2 = step * step
    potentials = {"lplus": g_second(p, r), "lminus": g_prime_over_s(p, r)}
    diagonals = {kind: 2.0 / h2 + v + c for kind, v in potentials.items()}
    return x, diagonals, np.full(r.size - 1, -1.0 / h2)


def assemble(p: ModelParams, omega: float, step: float,
             half_length: float | None = None,
             kind: str = "lplus") -> TridiagonalOperator:
    """Discretize L_plus or L_minus on [-L, L] with Dirichlet ends.

    The rows on the profile's lattice (``soliton.half_line``) at x >= 0,
    mirrored: the full matrix, for dense reference solvers, which
    ``spectral_report`` never builds.  Raises GridError for a step above
    0.1/sqrt(c) or a lattice ``half_line`` refuses.
    """
    _, diagonals, off = _half_line_rows(p, omega, step, half_length)
    if kind not in diagonals:
        raise ValueError(f"kind must be one of {(*diagonals,)}, got {kind!r}")
    diag = diagonals[kind]
    return TridiagonalOperator(np.concatenate((diag[:0:-1], diag)),
                               np.concatenate((off[::-1], off)))


def apply(op: TridiagonalOperator, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product of the discretized operator."""
    v = np.asarray(v, dtype=float)
    if v.shape != op.diagonal.shape:
        raise ValueError(f"vector length {v.shape} != operator {op.diagonal.shape}")
    return _kernels.matvec(op.diagonal, op.off_diagonal, v)


def eigenvalue_count_below(op: TridiagonalOperator, shift: float) -> int:
    """Number of eigenvalues at or below ``shift``, within the pivot floor
    (LAPACK ``dstebz`` convention; Sturm sequence)."""
    return int(_kernels.sturm_count(op.diagonal, op.off_diagonal, shift))


def _positive_peak(v: np.ndarray) -> np.ndarray:
    """``v`` or ``-v``, whichever is positive at its first largest entry."""
    peak = np.argmax(np.abs(v))
    return -v if v[peak] < 0.0 else v


def _norm(v: np.ndarray) -> float:
    """The Euclidean norm of a real vector, sqrt(``_kernels.dot(v, v)``):
    ``np.linalg.norm``'s formula with a summation order of its own."""
    return math.sqrt(_kernels.dot(v, v))


def _start_vectors(n: int, pair: int):
    """Endless unit start vectors of n entries for eigenpair ``pair``.

    Entry i of draw d is output i + 1 of the SplitMix64 stream (Steele, Lea
    and Flood 2014) seeded with pair * 2^32 + d, its top 53 bits mapped to
    [-1, 1), and each draw is normalized.  Counter-based, so the vectors
    depend on (pair, draw, node) alone, as LAPACK ``dstein``'s do on its own
    ``dlarnv`` generator; and ``numpy.random`` is never imported.
    """
    states = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(
        0x9E3779B97F4A7C15)
    for draw in itertools.count():
        z = states + np.uint64((pair << 32) + draw)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        v = (z >> np.uint64(11)) * 2.0**-52 - 1.0
        yield v / _norm(v)


def _scale(diag, off) -> float:
    """max|d| + 2 max|e|: a bound on the matrix's largest |eigenvalue|."""
    return float(np.abs(diag).max() + 2.0 * np.abs(off).max(initial=0.0))


def _inverse_iteration(diag, off, eigenvalue, width, starts, neighbors):
    """(rho, v) near an eigenvalue estimate, by safeguarded Rayleigh-quotient
    iteration.

    ``eigenvalue`` is the midpoint of a bisection bracket at most ``width``
    wide.  The first solve (``_kernels.tridiag_solve``: cyclic reduction
    that meets a componentwise backward-error bound, or else the Thomas
    loop) is shifted by ``eigenvalue``; each later one by the Rayleigh
    quotient of the current vector while that lies in [eigenvalue - width/2,
    eigenvalue + width/2], and otherwise by the previous shift again: a
    plain inverse-iteration step, as in LAPACK ``dstein`` and Parlett's
    safeguarded iteration, which keeps converging to the eigenvector nearest
    the bracket where a quotient outside it would jump to a neighbour.  The
    iteration stops when the residual |Tv - rho v| is down to the rounding
    level of the matrix scale; inside a cluster the vector can keep turning
    in the invariant subspace, so a test on its movement would never stop.
    The floored pivots turn the near-singular system into a strongly
    magnifying one, which is exactly what inverse iteration wants.  A solve
    that overflows (a pivot exactly zero where the floor is the safe
    minimum) is discarded: the shift is moved off by a few ulps of the
    matrix scale (as ``dstein`` perturbs tiny pivots) and the iteration
    restarts.  The start vector and every restart are the next of
    ``starts`` (``_start_vectors``).  ``neighbors`` are already-computed
    eigenvectors to orthogonalize against.  v is positive at its first
    largest entry and rho is its Rayleigh quotient; None means 100
    iterations did not converge.
    """
    scale = _scale(diag, off)
    nudge = 4.0 * np.finfo(float).eps * scale
    converged = _RESIDUAL_ULPS * np.finfo(float).eps * scale
    shift = eigenvalue
    v = next(starts)
    for _ in range(100):
        w = _kernels.tridiag_solve(diag - shift, off, v)
        # scaled to a unit peak, so the norm of a finite solve cannot
        # overflow; a solve that overflowed to inf or nan fails the
        # finiteness test below, without a warning on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            w = w / np.abs(w).max()
            norm = _norm(w)
            # a projection that cancels most of w leaves rounding errors
            # along the neighbors as large as what it keeps: project again,
            # and a second such cancellation leaves no w at all (Kahan's
            # "twice is enough")
            for _ in range(2):
                kept = norm
                for u in neighbors:
                    w = w - _kernels.dot(u, w) * u
                norm = _norm(w)
                if not norm < kept / math.sqrt(2.0):
                    break
            else:
                norm = 0.0
        if not np.isfinite(norm):
            shift += nudge
        if norm == 0.0 or not np.isfinite(norm):
            v = next(starts)
            continue
        v = w / norm
        residual = _kernels.matvec(diag, off, v)
        rho = float(_kernels.dot(v, residual))
        residual -= rho * v
        if _norm(residual) <= converged:
            return rho, _positive_peak(v)
        if abs(rho - eigenvalue) <= 0.5 * width:
            shift = rho
    return None


def _check_k(k: int, n: int) -> int:
    k = as_count("k", k)
    if not 1 <= k <= n:
        raise DomainError(f"k={k!r} out of range for matrix size {n}")
    return k


def lowest_eigenpairs(op: TridiagonalOperator,
                      k: int) -> list[tuple[float, np.ndarray]]:
    """The k algebraically smallest eigenpairs, eigenvalues nondecreasing.

    The j-th eigenvalue is bracketed upward from the previous one (from the
    Gershgorin lower bound for the first) by doubling a step, at first the
    mean eigenvalue spacing, until the Sturm count passes j, and bisected
    only until the bracket is about 1e-3 wide.  Inverse iteration with a
    Rayleigh-quotient shift, kept inside that bracket, then refines the
    vector, and the eigenvalue is its Rayleigh quotient.  Two Sturm counts
    accept it when ``count(value - tol) <= j < count(value + tol)``, with
    tol = EIGENVALUE_TOL.  When they do not, or the refinement stalls, the
    bracket is bisected again to 1e-6, 1e-9 and then tol, and the refinement
    repeated; :class:`EigensolverError` is raised when tol fails too.  A
    matrix of scale s = max|d| + 2 max|e| below 1 is bisected to s times
    each width, and a bisection stops early at two neighbouring floats.

    Every count goes through one ``_kernels.sturm_counter`` built on the
    matrix, which walks the pivots only up to the row from which none can
    go negative again, and, capped at j, only up to the (j+1)-th counted
    pivot: every test ``count <= j`` is the full walk's.

    So every returned value lies within tol of the matrix's j-th
    eigenvalue, as Sturm counts (LAPACK ``dstebz`` convention) place it, and
    the vectors are orthonormal: each is orthogonalized against the earlier
    ones, which keeps apart the members of a cluster that the bracket
    cannot split.  Each vector is positive at its first largest entry.
    """
    k = _check_k(k, op.size)
    count = _kernels.sturm_counter(op.diagonal, op.off_diagonal)
    return _lowest_eigenpairs(op, k, count)


def _lowest_eigenpairs(op: TridiagonalOperator, k: int, count):
    """``lowest_eigenpairs`` with a checked ``k`` and the matrix's Sturm
    counter ``count``, which the caller may read again."""
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
        # every earlier vector, not only those of a cluster: projecting out
        # an eigenvector of a distant eigenvalue costs one dot product and
        # changes nothing, while a missed cluster member skews the vectors
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


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Lowest eigenpairs of both linearized operators at one frequency."""

    omega: float
    half_length: float
    step: float
    lplus_eigenvalues: tuple
    lminus_eigenvalues: tuple
    lplus_kernel_match: float
    lminus_kernel_match: float
    negative_count_lplus: int
    negative_count_lminus: int
    # vectors ride along for CSV export; excluded from the JSON payload
    x: np.ndarray
    lplus_eigenvectors: np.ndarray
    lminus_eigenvectors: np.ndarray

    def to_dict(self) -> dict:
        return {
            "omega": self.omega,
            "grid": {"half_length": self.half_length, "step": self.step},
            "lplus_eigenvalues": list(self.lplus_eigenvalues),
            "lminus_eigenvalues": list(self.lminus_eigenvalues),
            "lplus_kernel_match": self.lplus_kernel_match,
            "lminus_kernel_match": self.lminus_kernel_match,
            "negative_count_lplus": self.negative_count_lplus,
            "negative_count_lminus": self.negative_count_lminus,
        }


def _parity_blocks(diag, off):
    """The even and odd blocks of the mirror-symmetric matrix whose rows at
    x >= 0 are ``diag`` (node 0 first) and ``off``.

    The even block acts on the nodes x >= 0 of even vectors, in the
    coordinates (v(0), sqrt(2) v(h), sqrt(2) v(2h), ...), where it is
    symmetric with its first off-diagonal scaled by sqrt(2).  The odd block
    acts on the nodes x > 0 of odd vectors, which vanish at x = 0.  Every
    eigenvalue of the full matrix is an eigenvalue of exactly one block.
    """
    even_off = off.copy()
    even_off[0] *= math.sqrt(2.0)
    return (TridiagonalOperator(diag, even_off),
            TridiagonalOperator(diag[1:], off[1:]))


def _mirror(u: np.ndarray, odd: bool) -> np.ndarray:
    """Full-grid unit vector of a unit eigenvector of a parity block."""
    half = u / math.sqrt(2.0)
    if odd:
        return np.concatenate([-half[::-1], [0.0], half])
    half[0] = u[0]  # the centre node is not doubled
    return np.concatenate([half[:0:-1], half])


def _parity_eigenpairs(diagonal, off, k: int, band: float):
    """The k >= 2 lowest eigenpairs, on the full grid, of the mirror-symmetric
    matrix with rows ``diagonal`` and ``off`` at x >= 0, and its number of
    eigenvalues at or below ``-band``.

    The j-th eigenvector of a mirror-symmetric Jacobi matrix of odd size has
    j sign changes, so it is even for even j and odd for odd j: pair j is
    pair j // 2 of the even or the odd block.  Mirrored vectors are exactly
    even or odd, and positive at their first largest entry (for an odd
    vector, the x < 0 one of the two).  Each block's solve and its negative
    count share one Sturm counter, dropped before the next block's is built.
    """
    halves, negatives = [], 0
    for parity, block in enumerate(_parity_blocks(diagonal, off)):
        count = _kernels.sturm_counter(block.diagonal, block.off_diagonal)
        halves.append(_lowest_eigenpairs(block, (k + 1 - parity) // 2, count))
        negatives += count(-band)
        del count
    pairs = []
    for j in range(k):
        value, u = halves[j % 2][j // 2]
        pairs.append((value, _positive_peak(_mirror(u, odd=j % 2 == 1))))
    return pairs, negatives


def _cosine_match(v: np.ndarray, u: np.ndarray) -> float:
    return float(abs(_kernels.dot(v, u)) / (_norm(v) * _norm(u)))


def spectral_report(p: ModelParams, omega: float, step: float,
                    half_length: float | None = None,
                    k: int = 4) -> SpectrumReport:
    """Report the lowest k eigenpairs of both operators.

    Each operator is solved on its parity blocks, built from its rows on the
    lattice's nodes 0 .. N-1: pair j is even for even j and odd for odd j.
    Each eigenvalue lies within EIGENVALUE_TOL (1e-10) of the operator's
    own.  ``x`` is the mirrored
    lattice; each eigenvector on it is exactly even or odd, has unit norm
    and is positive at its largest entry; an odd vector's largest entries
    come in a mirror pair, and the one at x < 0 is positive.

    Negative counts sum both blocks' Sturm counts at -b, b =
    ``kernel_band`` (10 c^2 h^2, c = m^2 - omega^2): eigenvalues inside the
    band (-b, b) are discrete-kernel candidates, not signs of genuine
    negative directions.  Kernel matches compare the relevant eigenvector
    with the sampled profile (L_minus vs R) or its slope (L_plus vs R', the
    second pair, so a ``k`` below 2 raises DomainError).
    """
    k = as_count("k", k)
    if k < 2:
        raise DomainError(f"k must be at least 2, got {k!r}: the L+ kernel "
                          "match needs the second eigenpair")
    nodes, diagonals, off = _half_line_rows(p, omega, step, half_length)
    _check_k(k, 2 * off.size + 1)
    band = kernel_band(p, omega, step)
    pairs_plus, neg_plus = _parity_eigenpairs(diagonals["lplus"], off, k, band)
    pairs_minus, neg_minus = _parity_eigenpairs(diagonals["lminus"], off, k,
                                                band)

    x = np.concatenate((-nodes[-2:0:-1], nodes[:-1]))  # the Dirichlet ends off
    r = closed_form_profile(p, omega, x)
    r_slope = closed_form_slope(p, omega, x)
    match_minus = _cosine_match(pairs_minus[0][1], r)
    match_plus = _cosine_match(pairs_plus[1][1], r_slope)

    return SpectrumReport(
        omega=float(omega),
        half_length=float(nodes[-1]),
        step=float(step),
        lplus_eigenvalues=tuple(ev for ev, _ in pairs_plus),
        lminus_eigenvalues=tuple(ev for ev, _ in pairs_minus),
        lplus_kernel_match=match_plus,
        lminus_kernel_match=match_minus,
        negative_count_lplus=neg_plus,
        negative_count_lminus=neg_minus,
        x=x,
        lplus_eigenvectors=np.column_stack([v for _, v in pairs_plus]),
        lminus_eigenvectors=np.column_stack([v for _, v in pairs_minus]),
    )
