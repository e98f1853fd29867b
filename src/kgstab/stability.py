"""Orbital-stability classification of standing waves.

With L(alpha) = ln((1+alpha)/(1-alpha)),

    sigma = omega ||R||^2 = (a^2/4b^2) sqrt(tau - alpha^2) (L - 2 alpha),
    k2(alpha) = ((1 - alpha^2)/(2 alpha)) L + alpha^2,  tau_star = sup k2.

F = L - 2 alpha and k2 are written once, in ``_closed_forms``, for one
frequency (``k1``, ``k2``) and for a sweep (``sweep_columns``).

The verdict sign(tau - k2) is the paper's rule as shipped, not an identity
for the sign of d'', d = E - omega Q (Grillakis-Shatah-Strauss).  For
tau < tau_star the quadrature oracle ``soliton.d_second_numeric``
contradicts it at some frequencies: at four of five window samples for
tau = 0.98.  The red ``test_criterion4_case_iii_verdicts_match_oracle`` and
exit code 4 of ``kgstab classify``'s default check pin the conflict, which
is open.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import (DomainError, FrequencyWindow, ModelParams,
                    alpha_of_omega, as_count, bisect, omega_of_alpha)
from .soliton import d_second_numeric

# below this alpha the log differences are taken by series: the direct
# expressions cancel
_SERIES_CUTOFF = 1e-2
# Bisection width in alpha of tau_star's argmax and of classify's roots.
ALPHA_TOL = 1e-12
# The cell of the 0.05 alpha grid where k2_prime turns from > 0 to <= 0.
_ARGMAX_BRACKET = (0.05 * 16, 0.05 * 17)
# |tau - k2| below which d_second_sign reports 0.
SIGN_TOL = 1e-10
MAX_ROWS = 1_000_000  # most rows one sweep may hold

TauStarResult = namedtuple("TauStarResult", "tau_star alpha_d")


class OracleDisagreementError(RuntimeError):
    """The closed-form sign of d'' contradicts the quadrature oracle at
    ``omega``."""

    def __init__(self, omega: float, closed_sign: int, oracle_value: float):
        self.omega = omega
        self.closed_sign = closed_sign
        self.oracle_value = oracle_value
        super().__init__(
            f"closed-form d'' sign {closed_sign:+d} at omega={omega!r} "
            f"contradicts finite-difference d''={oracle_value!r}"
        )


def _require_open_unit(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha!r} outside (0, 1)")


def _log_ratio(alpha: float) -> float:
    """ln((1+alpha)/(1-alpha))."""
    return math.log((1.0 + alpha) / (1.0 - alpha))


def _closed_forms(alpha, log_ratio):
    """(F, k2) as (series, direct) pairs at alpha, a float or an array, given
    L = ``log_ratio``; the direct forms cancel below _SERIES_CUTOFF."""
    a2 = alpha * alpha
    f_series = 2.0 * alpha * a2 * (
        1.0 / 3.0 + a2 * (0.2 + a2 * (1.0 / 7.0 + a2 / 9.0)))
    k2_series = 1.0 + a2 * (1.0 / 3.0 - a2 * (2.0 / 15.0 + a2 * 2.0 / 35.0))
    return ((f_series, log_ratio - 2.0 * alpha),
            (k2_series, ((1.0 - a2) / (2.0 * alpha)) * log_ratio + a2))


def k1(tau: float, alpha: float) -> float:
    """sqrt(tau - alpha^2) (ln((1+alpha)/(1-alpha)) - 2 alpha); raises
    DomainError unless 0 < alpha < 1 and alpha^2 < tau."""
    _require_open_unit(alpha)
    if alpha * alpha >= tau:
        raise DomainError(f"alpha={alpha!r} inadmissible: alpha^2 >= tau={tau!r}")
    # float: on a NumPy scalar the unused direct form warns at subnormal alpha
    (series, direct), _ = _closed_forms(float(alpha), _log_ratio(alpha))
    return math.sqrt(tau - alpha * alpha) * (
        series if alpha < _SERIES_CUTOFF else direct)


def sigma_closed(p: ModelParams, omega: float) -> float:
    """sigma(omega) = omega ||R||^2 = (a^2 / 4b^2) k1(tau, alpha(omega)),
    which ``soliton.charge`` computes by quadrature.  Raises DomainError
    outside the window, or where a^2/(4b^2) or sigma leaves the float range.
    """
    alpha = alpha_of_omega(p, omega)
    four_b2 = 4.0 * p.b * p.b
    if four_b2 == 0.0:
        raise DomainError(f"4 b^2 underflows at b={p.b!r}: sigma's scale "
                          "a^2/(4 b^2) has no float value")
    sigma = (p.a * p.a / four_b2) * k1(p.tau, alpha)
    if not math.isfinite(sigma):
        raise DomainError(f"sigma={sigma!r} at omega={omega!r} leaves the "
                          "float range")
    return sigma


def k2(alpha: float) -> float:
    """((1-alpha^2)/(2 alpha)) ln((1+alpha)/(1-alpha)) + alpha^2: 1 at both
    ends of (0, 1), above 1 between them; raises DomainError outside."""
    _require_open_unit(alpha)
    _, (series, direct) = _closed_forms(float(alpha), _log_ratio(alpha))
    return series if alpha < _SERIES_CUTOFF else direct


def k2_prime(alpha: float) -> float:
    """dk2/dalpha, which changes sign once on (0, 1), at the argmax."""
    _require_open_unit(alpha)
    if alpha < _SERIES_CUTOFF:
        a2 = alpha * alpha
        return alpha * (2.0 / 3.0 - a2 * (8.0 / 15.0 + a2 * 12.0 / 35.0))
    inv = 1.0 / alpha
    return -0.5 * (1.0 + inv * inv) * _log_ratio(alpha) + inv + 2.0 * alpha


@lru_cache(maxsize=None)
def tau_star(tol_alpha: float = ALPHA_TOL) -> TauStarResult:
    """tau_star = sup k2 and its argmax alpha_d, bisected to ``tol_alpha``
    (ALPHA_TOL = 1e-12) in _ARGMAX_BRACKET; raises DomainError unless
    0 < tol_alpha < 0.1."""
    if not 0.0 < tol_alpha < 0.1:
        raise DomainError(f"tol_alpha={tol_alpha!r} out of range")
    alpha_d = bisect(lambda mid: k2_prime(mid) > 0.0, *_ARGMAX_BRACKET,
                     tol_alpha)
    return TauStarResult(tau_star=k2(alpha_d), alpha_d=alpha_d)


def d_second_sign(p: ModelParams, omega: float) -> int:
    """sign(tau - k2(alpha)): +1 (stable), -1 (unstable), or 0 where
    |tau - k2| < SIGN_TOL = 1e-10.  The paper's rule as shipped, not sign
    d'' itself: for tau < tau_star ``soliton.d_second_numeric`` contradicts
    it at some frequencies (see the module docstring).
    """
    alpha = alpha_of_omega(p, omega)
    diff = p.tau - k2(alpha)
    if abs(diff) < SIGN_TOL:
        return 0
    return 1 if diff > 0.0 else -1


def sweep_columns(p: ModelParams, n: int):
    """omega, alpha, sigma and ``d_second_sign`` as arrays at the n points
    omega_star + i width/(n+1), i = 1..n, bit for bit the scalar functions'
    values (hence math.log: np.log is not correctly rounded).  Raises the
    scalar functions' error at the first row they refuse, and DomainError,
    before allocating, unless n is an integer in [1, MAX_ROWS = 1,000,000].
    """
    n = as_count("n", n)
    if not 1 <= n <= MAX_ROWS:
        raise DomainError(f"n must lie in [1, {MAX_ROWS}], got {n!r}")
    window = p.window
    with np.errstate(all="ignore"):
        omega = (window.omega_star
                 + np.arange(1, n + 1) * window.width / (n + 1))
        # the first row refuses what depends on p alone, in the scalar order
        sigma_closed(p, float(omega[0]))
        scale = p.a * p.a / (4.0 * p.b * p.b)
        tau = p.tau
        alpha = np.sqrt(2.0 * p.b * (p.m * p.m - omega * omega)) / p.a
        a2 = alpha * alpha
        ok = ((window.omega_star < omega) & (omega < window.m)
              & (0.0 < alpha) & (alpha < 1.0) & (a2 < tau))
        ratio = np.where(ok, (1.0 + alpha) / (1.0 - alpha), 1.0)
        log_ratio = np.fromiter(map(math.log, ratio.tolist()), float, n)
        series = alpha < _SERIES_CUTOFF
        f_forms, k2_forms = _closed_forms(alpha, log_ratio)
        sigma = scale * (np.sqrt(tau - a2) * np.where(series, *f_forms))
        diff = tau - np.where(series, *k2_forms)
    ok &= np.isfinite(sigma)
    if not ok.all():
        sigma_closed(p, float(omega[np.argmin(ok)]))
    sign = np.where(np.abs(diff) < SIGN_TOL, 0, np.where(diff > 0.0, 1, -1))
    return omega, alpha, sigma, sign


@dataclass(frozen=True)
class StabilityReport:
    """The window's partition into "stable" and "unstable" intervals."""

    params: ModelParams
    tau: float
    tau_star: float
    omega_window: FrequencyWindow
    roots_alpha: tuple          # k2(alpha) = tau solutions, descending
    roots_omega: tuple          # their frequencies, ascending
    intervals: tuple            # (lo, hi, "stable"|"unstable")

    def to_dict(self) -> dict:
        """The JSON payload."""
        return {
            "params": {"a": self.params.a, "b": self.params.b,
                       "m": self.params.m},
            "tau": self.tau,
            "tau_star": self.tau_star,
            "omega_window": {"omega_star": self.omega_window.omega_star,
                             "m": self.omega_window.m},
            "roots_alpha": list(self.roots_alpha),
            "roots_omega": list(self.roots_omega),
            "intervals": [
                {"lo": lo, "hi": hi, "verdict": verdict}
                for (lo, hi, verdict) in self.intervals
            ],
        }


# |tau - tau_star| below which k2 = tau has the single root alpha_d
_TOUCH_TOL = 1e-10


def classify(p: ModelParams, alpha_tol: float = ALPHA_TOL,
             check_oracle: bool = False) -> StabilityReport:
    """The window tiled by the roots of k2(alpha) = tau, each bisected to
    ``alpha_tol`` on a monotone branch of k2, each interval labelled by
    ``d_second_sign`` at its midpoint; a root within a float of a window end
    bounds no interval.  With ``check_oracle``, raises
    OracleDisagreementError as ``_check_against_oracle`` does."""
    tau = p.tau
    crit = tau_star()
    window = p.window
    alpha_hi = min(1.0, math.sqrt(tau))  # admissible alpha range is open

    roots_alpha: list[float] = []
    if abs(tau - crit.tau_star) < _TOUCH_TOL:
        # k2 touches tau at its argmax alone: two stable intervals
        roots_alpha.append(crit.alpha_d)
    else:
        eps = 1e-12
        if crit.alpha_d < alpha_hi:
            branches = [(eps, crit.alpha_d), (crit.alpha_d, alpha_hi - 1e-15)]
        else:
            branches = [(eps, alpha_hi - 1e-15)]
        for lo, hi in branches:
            if lo >= hi:
                continue
            f_lo = k2(lo) - tau
            if f_lo * (k2(hi) - tau) < 0.0:
                # k2 is monotone on the branch: the root lies above any
                # alpha where k2 - tau keeps the sign it has at lo
                roots_alpha.append(bisect(
                    lambda mid: (k2(mid) - tau) * f_lo > 0.0,
                    lo, hi, alpha_tol))

    roots_alpha.sort(reverse=True)  # alpha decreasing <=> omega increasing
    roots_omega = [omega_of_alpha(p, a) for a in roots_alpha]

    # their midpoint rounding onto the end marks a root within a float of it
    lo_end, hi_end = window.omega_star, window.m
    bounds = [lo_end, *(w for w in roots_omega
                        if 0.5 * (lo_end + w) != lo_end
                        and 0.5 * (w + hi_end) != hi_end), hi_end]
    intervals = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sign = d_second_sign(p, 0.5 * (lo + hi))
        intervals.append((lo, hi, "stable" if sign >= 0 else "unstable"))

    report = StabilityReport(
        params=p, tau=tau, tau_star=crit.tau_star, omega_window=window,
        roots_alpha=tuple(roots_alpha), roots_omega=tuple(roots_omega),
        intervals=tuple(intervals),
    )
    if check_oracle:
        _check_against_oracle(p, report)
    return report


def _check_against_oracle(p: ModelParams, report: StabilityReport) -> None:
    """Raise OracleDisagreementError where ``d_second_numeric`` and
    ``d_second_sign`` have opposite signs, at every interval midpoint and
    five equispaced window samples, skipping points within 1e-2 window
    widths of a root, where d'' passes through 0.  Outside that guard
    |tau - k2| >= SIGN_TOL, so the closed-form sign is never 0 there.
    """
    window = report.omega_window
    points = [0.5 * (lo + hi) for (lo, hi, _) in report.intervals]
    points += [window.omega_star + k * window.width / 6.0 for k in range(1, 6)]
    guard = 1e-2 * window.width
    for omega in sorted(set(points)):
        if any(abs(omega - root) < guard for root in report.roots_omega):
            continue
        closed = d_second_sign(p, omega)
        oracle = d_second_numeric(p, omega)
        if closed * oracle < 0.0:
            raise OracleDisagreementError(omega, closed, oracle)
