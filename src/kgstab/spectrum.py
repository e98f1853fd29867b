"""Linearized operators about a standing wave and their low spectrum.

With c = m^2 - omega^2, linearizing about e^{-i omega t} R(x) gives

    L_minus = -d2/dx2 + G'(R)/R + c   (kernel spanned by R)
    L_plus  = -d2/dx2 + G''(R)  + c   (kernel spanned by R')

by centred differences on the profile's lattice and its mirror, with
Dirichlet ends.  Each operator splits into an even and an odd block on
x >= 0; only the blocks are solved, by an eigensolver that needs NumPy
alone.
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
# half-width of the Sturm counts that confirm each eigenvalue
EIGENVALUE_TOL = 1e-10
# bisection widths of an eigenpair's successive refinements
_WIDTHS = (_COARSE_WIDTH, 1e-6, 1e-9, EIGENVALUE_TOL)
# eigenvalues within KERNEL_BAND * (c step)^2 of zero are kernel candidates
KERNEL_BAND = 10.0


def kernel_band(p: ModelParams, omega: float, step: float) -> float:
    """b = KERNEL_BAND (c h)^2 = 10 c^2 h^2, c = m^2 - omega^2: eigenvalues in
    (-b, b) are discrete-kernel candidates.  The discrete kernel eigenvalues
    are O(c^2 h^2), since L+/c and L-/c depend on the lattice through h sqrt(c)
    alone."""
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
        """n, the number of rows."""
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
    """The full matrix of L_plus (``kind`` "lplus") or L_minus ("lminus")
    on the mirrored lattice, for dense reference solvers.  Raises ValueError
    for another kind, and GridError for a step above 0.1/sqrt(c) or a
    lattice ``half_line`` refuses."""
    _, diagonals, off = _half_line_rows(p, omega, step, half_length)
    if kind not in diagonals:
        raise ValueError(f"kind must be one of {(*diagonals,)}, got {kind!r}")
    diag = diagonals[kind]
    return TridiagonalOperator(np.concatenate((diag[:0:-1], diag)),
                               np.concatenate((off[::-1], off)))


def apply(op: TridiagonalOperator, v: np.ndarray) -> np.ndarray:
    """op v; raises ValueError unless v has the operator's length."""
    v = np.asarray(v, dtype=float)
    if v.shape != op.diagonal.shape:
        raise ValueError(f"vector length {v.shape} != operator {op.diagonal.shape}")
    return _kernels.matvec(op.diagonal, op.off_diagonal, v)


def eigenvalue_count_below(op: TridiagonalOperator, shift: float) -> int:
    """Number of eigenvalues at or below ``shift``, within the pivot floor
    (LAPACK ``dstebz`` convention; Sturm sequence).  Raises DomainError for
    entries that leave the float range (see ``_scale``)."""
    _scale(op.diagonal, op.off_diagonal)
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
    """Endless unit start vectors of n entries for eigenpair ``pair``:
    entry i of draw d is output i + 1 of SplitMix64 (Steele, Lea and Flood
    2014) seeded pair * 2^32 + d, its top 53 bits mapped to [-1, 1), so the
    vectors depend on (pair, draw, node) alone, as LAPACK ``dstein``'s do."""
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
    """max|d| + 2 max|e|: a bound on the matrix's largest |eigenvalue|.
    Raises DomainError when it is not finite (an inf or NaN entry, or an
    overflow) or max e^2 overflows, as the Sturm counts' squares would."""
    # Python floats overflow to inf, and meet NaN, with no NumPy warning
    d_max = float(np.abs(diag).max())
    e_max = float(np.abs(off).max(initial=0.0))
    scale = d_max + 2.0 * e_max
    if not (scale < math.inf and e_max * e_max < math.inf):
        raise DomainError(f"matrix entries leave the float range: max|d| "
                          f"{d_max!r}, max|e| {e_max!r}")
    return scale


def _inverse_iteration(diag, off, eigenvalue, width, starts, neighbors):
    """(rho, v) for the eigenvalue in the bisection bracket of midpoint
    ``eigenvalue`` and width ``width``, or None after 100 unconverged steps.

    Safeguarded Rayleigh-quotient iteration (LAPACK ``dstein``; Parlett): a
    quotient outside the bracket keeps the previous shift, so v cannot jump to
    a neighbour.  It stops at a residual |T v - rho v| under _RESIDUAL_ULPS
    ulps of the matrix scale; an overflowed solve moves the shift by 4 ulps
    and restarts from the next of ``starts``.  v is orthogonal to
    ``neighbors`` and positive at its first largest entry.
    """
    scale = _scale(diag, off)
    nudge = 4.0 * np.finfo(float).eps * scale
    converged = _RESIDUAL_ULPS * np.finfo(float).eps * scale
    shift = eigenvalue
    v = next(starts)
    # NaN and inf fail every test below: an overflowed solve, shift or
    # residual norm is refused with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(100):
            w = _kernels.tridiag_solve(diag - shift, off, v)
            # a unit peak keeps a finite solve's norm finite
            w = w / np.abs(w).max()
            norm = _norm(w)
            # a projection that cancels most of w leaves rounding errors
            # as large as what it keeps: project again, and a second such
            # cancellation leaves no w (Kahan's "twice is enough")
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
    """The k algebraically smallest eigenpairs of ``op``: values nondecreasing,
    vectors orthonormal and positive at their first largest entry.  Raises
    DomainError unless k is an integer in [1, n], DomainError before any
    Sturm count for entries that leave the float range (see ``_scale``), and
    EigensolverError.

    Pair j is bisected by Sturm counts from [-s, s], s = max|d| + 2 max|e|
    (pair j > 0 from the previous value - tol), to 1e-3, and refined by
    inverse iteration; its value is accepted when count(value - tol) <= j <
    count(value + tol), tol = EIGENVALUE_TOL = 1e-10.  Else the bracket is
    bisected to 1e-6, 1e-9 and tol in turn (each times s where s is below
    1), and EigensolverError is raised when tol fails too.  The acceptance
    does not place every value within tol of the j-th eigenvalue, as two
    strict xfails show:
    - the counts' rounding passes tol at matrix scale about 2.6e6, where every
      width is refused (``test_spectrum_of_the_shared_wave_scales[16.0]``);
    - the neighbouring pair passes within tol
      (``test_lowest_eigenpair_is_not_its_neighbour``): diag [1e-300, 2,
      1e-10], off [1e-20, 1e-20] gives 9.99999999e-11, within tol of the
      lowest eigenvalue -5e-41 but with the neighbour's vector.
    """
    k = _check_k(k, op.size)
    _scale(op.diagonal, op.off_diagonal)
    count = _kernels.sturm_counter(op.diagonal, op.off_diagonal)
    return _lowest_eigenpairs(op, k, count)


def _lowest_eigenpairs(op: TridiagonalOperator, k: int, count):
    """``lowest_eigenpairs`` with a checked ``k`` and the matrix's Sturm
    counter ``count``, which the caller may read again."""
    n = op.size
    diag, off = op.diagonal, op.off_diagonal
    # every eigenvalue lies in [-scale, scale]; a spectrum narrower than 1
    # gets proportionally narrower brackets
    scale = _scale(diag, off)
    widths = [min(width, width * scale) for width in _WIDTHS]

    pairs: list[tuple[float, np.ndarray]] = []
    lo = -scale
    for j in range(k):
        # the (j+1)-th eigenvalue lies above x while at most j are at or
        # below it
        def goes_up(x):
            return count(x, j) <= j

        hi = scale
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
        """The JSON payload: every field but ``x`` and the vectors."""
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
    """The even and odd blocks of the mirror-symmetric matrix with rows
    ``diag`` and ``off`` at x >= 0: the even one symmetric in (v(0),
    sqrt(2) v(h), ...), the odd one on x > 0.  Each eigenvalue belongs to
    exactly one block."""
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
    """The k >= 2 lowest eigenpairs, mirrored, of the matrix with rows
    ``diagonal`` and ``off`` at x >= 0, and its count at or below ``-band``.
    Eigenvector j has j sign changes: pair j // 2 of the even block for even
    j, of the odd block for odd j."""
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
    """The lowest k eigenpairs of L_plus and L_minus at ``omega``, by
    ``lowest_eigenpairs`` on the parity blocks, with its tolerance and limits.

    Pair j is even for even j and odd for odd j; each vector on the mirrored
    lattice ``x`` has unit norm and is positive at its largest entry (an odd
    one at x < 0).  Negative counts are Sturm counts at -``kernel_band``.
    Kernel matches are |cos| of L_minus's first vector with R and of L_plus's
    second with R'.  Against BLAS sums for ``_kernels.dot``, the Thomas loop
    for every solve, or a Rayleigh-quotient shift at every step, a report on
    the test waves keeps its negative counts, eigenvalues within 1e-12, kernel
    matches within 1e-14 and eigenvectors within 1e-12 in |cos|.  Raises
    DomainError for k below 2 or above the size, GridError for a refused
    lattice, and EigensolverError.
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
