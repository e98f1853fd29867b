"""Linearized operators about a standing wave and their low spectrum.

Linearizing the field equation about e^{-i omega t} R(x) decouples into two
Sturm-Liouville operators on the line,

    L_minus = -d2/dx2 + R^{-1}G'(R) + (m^2 - omega^2)   (kernel spanned by R)
    L_plus  = -d2/dx2 + G''(R)      + (m^2 - omega^2)   (kernel spanned by R')

whose negative/zero eigenvalue counts feed the stability theory.  Both are
discretized by second-order centered differences on [-L, L] with Dirichlet
ends, and the lowest eigenpairs are extracted by Sturm-sequence bisection
plus inverse iteration — deliberately self-contained so library results can
be compared against external eigensolvers in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .model import DomainError, ModelParams, bisect
from .soliton import GridError, closed_form_profile, closed_form_slope

_KINDS = ("lplus", "lminus")


class EigensolverError(RuntimeError):
    """Inverse iteration failed to converge on an eigenvector."""


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Symmetric tridiagonal discretization on the interior of [-L, L]."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray
    step: float
    half_length: float
    kind: str

    @property
    def size(self) -> int:
        return self.diagonal.size

    @property
    def x(self) -> np.ndarray:
        """Interior grid nodes (x = 0 is the middle node)."""
        n_side = round(self.half_length / self.step)
        return (np.arange(self.diagonal.size) + 1 - n_side) * self.step


def assemble(p: ModelParams, omega: float, step: float,
             half_length: float | None = None,
             kind: str = "lplus") -> TridiagonalOperator:
    """Discretize L_plus or L_minus on [-L, L] with Dirichlet ends."""
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
    return TridiagonalOperator(diagonal=diagonal, off_diagonal=off_diagonal,
                               step=float(step),
                               half_length=float(half_length), kind=kind)


def _matvec(diag, off, v):
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


def apply(op: TridiagonalOperator, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product of the discretized operator."""
    v = np.asarray(v, dtype=float)
    if v.shape != op.diagonal.shape:
        raise ValueError(f"vector length {v.shape} != operator {op.diagonal.shape}")
    return _matvec(op.diagonal, op.off_diagonal, v)


def eigenvalue_count_below(op: TridiagonalOperator, shift: float) -> int:
    """Number of eigenvalues at or below ``shift``, within the pivot floor
    (LAPACK ``dstebz`` convention; Sturm sequence)."""
    return int(_kernels.sturm_count(op.diagonal, op.off_diagonal, shift))


def _inverse_iteration(diag, off, eigenvalue, rng, neighbors) -> np.ndarray:
    """Eigenvector for a converged eigenvalue estimate.

    Thomas solves against the shifted matrix; the floored pivots turn the
    near-singular system into a strongly magnifying one, which is exactly
    what inverse iteration wants.  A shift that makes a pivot exactly zero
    overflows the solve instead; it is then moved off by a few ulps of the
    matrix scale (as LAPACK ``dstein`` perturbs tiny pivots) and the
    iteration restarts.  ``neighbors`` are already-computed eigenvectors of
    nearby eigenvalues to orthogonalize against.
    """
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
        raise EigensolverError(
            f"inverse iteration stalled at eigenvalue {eigenvalue!r}"
        )
    residual = _matvec(diag, off, v)
    residual -= eigenvalue * v
    if np.linalg.norm(residual) > 1e-6:
        raise EigensolverError(
            f"inverse iteration residual {np.linalg.norm(residual)!r} too "
            f"large at eigenvalue {eigenvalue!r}"
        )
    peak = np.argmax(np.abs(v))
    if v[peak] < 0.0:
        v = -v
    return v


def lowest_eigenpairs(op: TridiagonalOperator, k: int,
                      tol: float = 1e-10) -> list[tuple[float, np.ndarray]]:
    """The k algebraically smallest eigenpairs, eigenvalues nondecreasing."""
    n = op.size
    if not 1 <= k <= n:
        raise DomainError(f"k={k!r} out of range for matrix size {n}")
    diag, off = op.diagonal, op.off_diagonal
    radius = np.zeros(n)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    lo_bound = float((diag - radius).min())
    hi_bound = float((diag + radius).max())

    pairs: list[tuple[float, np.ndarray]] = []
    lo = lo_bound
    for j in range(k):
        # the (j+1)-th eigenvalue lies above mid while fewer than j+1 are
        # at or below it
        value = bisect(
            lambda mid: _kernels.sturm_count(diag, off, mid) <= j,
            lo, hi_bound, tol)
        rng = np.random.default_rng(1234 + j)
        neighbors = [v for (ev, v) in pairs if abs(ev - value) < 1e-6]
        vector = _inverse_iteration(diag, off, value, rng, neighbors)
        pairs.append((value, vector))
        lo = value - tol  # eigenvalues are nondecreasing
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


def _cosine_match(v: np.ndarray, u: np.ndarray) -> float:
    return float(abs(v @ u) / (np.linalg.norm(v) * np.linalg.norm(u)))


def spectral_report(p: ModelParams, omega: float, step: float,
                    half_length: float | None = None,
                    k: int = 4) -> SpectrumReport:
    """Assemble both operators and report their lowest k eigenpairs.

    Negative counts use the Sturm sequence at -10 h^2: eigenvalues inside the
    band (-10h^2, 10h^2) are discrete-kernel candidates, not signs of genuine
    negative directions.  Kernel matches compare the relevant eigenvector
    with the sampled profile (L_minus vs R) or its slope (L_plus vs R').
    """
    lplus = assemble(p, omega, step, half_length, kind="lplus")
    lminus = assemble(p, omega, step, half_length, kind="lminus")
    pairs_plus = lowest_eigenpairs(lplus, k)
    pairs_minus = lowest_eigenpairs(lminus, k)

    band = 10.0 * step * step
    neg_plus = eigenvalue_count_below(lplus, -band)
    neg_minus = eigenvalue_count_below(lminus, -band)

    x = lplus.x
    r = closed_form_profile(p, omega, x)
    r_slope = closed_form_slope(p, omega, x)
    match_minus = _cosine_match(pairs_minus[0][1], r)
    match_plus = _cosine_match(pairs_plus[1][1], r_slope) if k >= 2 else 0.0

    return SpectrumReport(
        omega=float(omega),
        half_length=lplus.half_length,
        step=lplus.step,
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
