"""Orbital-stability classification of standing waves.

The scalar d(omega) = E - omega Q decides stability through the sign of its
second derivative.  For this nonlinearity everything reduces to closed-form
functions of the shape parameter alpha:

    sigma(omega) = omega ||R||^2 = (a^2 / 4b^2) k1(tau, alpha)
    sign d''(omega) = sign(tau - k2(alpha))

with k1(tau, alpha) = sqrt(tau - alpha^2) (ln((1+alpha)/(1-alpha)) - 2 alpha)
and k2(alpha) = ((1-alpha^2)/(2 alpha)) ln((1+alpha)/(1-alpha)) + alpha^2.
The critical coupling tau_star = sup k2 separates the all-stable regime from
the mixed one.  Every closed-form sign here can be cross-checked against the
quadrature oracle soliton.d_second_numeric; ``classify`` does so on request
and refuses to emit a report the oracle contradicts.  ``sweep_columns``
evaluates alpha, sigma and sign d'' over a whole frequency grid in one array
pass, bit for bit the scalar functions' values.
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

# Below this alpha the log/artanh differences are evaluated by series; the
# direct expressions lose digits to cancellation.
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
    """Closed-form stability sign contradicts the quadrature oracle."""

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
    """ln((1+alpha)/(1-alpha)) = 2 artanh(alpha).  Callers take their own
    series below _SERIES_CUTOFF, so alpha is never small here."""
    return math.log((1.0 + alpha) / (1.0 - alpha))


def _log_ratio_minus_2alpha(alpha: float) -> float:
    """ln((1+alpha)/(1-alpha)) - 2 alpha without small-alpha cancellation."""
    if alpha < _SERIES_CUTOFF:
        a2 = alpha * alpha
        return 2.0 * alpha * a2 * (
            1.0 / 3.0 + a2 * (0.2 + a2 * (1.0 / 7.0 + a2 / 9.0))
        )
    return _log_ratio(alpha) - 2.0 * alpha


def k1(tau: float, alpha: float) -> float:
    """sqrt(tau - alpha^2) (ln((1+alpha)/(1-alpha)) - 2 alpha); sigma's core."""
    _require_open_unit(alpha)
    if alpha * alpha >= tau:
        raise DomainError(f"alpha={alpha!r} inadmissible: alpha^2 >= tau={tau!r}")
    return math.sqrt(tau - alpha * alpha) * _log_ratio_minus_2alpha(alpha)


def sigma_closed(p: ModelParams, omega: float) -> float:
    """Closed-form sigma(omega) = omega ||R_omega||_2^2.

    Integrating R^2 via the substitution used for the first integral gives
    sigma = (a^2 / 4 b^2) k1(tau, alpha(omega)); soliton.charge is the
    quadrature route to the same number.  Raises DomainError where the scale
    a^2/(4 b^2) or sigma itself leaves the float range.
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
    """((1-alpha^2)/(2 alpha)) ln((1+alpha)/(1-alpha)) + alpha^2.

    tau - k2(alpha(omega)) carries the sign of d''(omega).  Tends to 1 at
    both endpoints, rises above it in between.
    """
    _require_open_unit(alpha)
    if alpha < _SERIES_CUTOFF:
        a2 = alpha * alpha
        return 1.0 + a2 * (1.0 / 3.0 - a2 * (2.0 / 15.0 + a2 * 2.0 / 35.0))
    return ((1.0 - alpha * alpha) / (2.0 * alpha)) * _log_ratio(alpha) \
        + alpha * alpha


def k2_prime(alpha: float) -> float:
    """Derivative of k2; single sign change on (0, 1) locates the argmax."""
    _require_open_unit(alpha)
    if alpha < _SERIES_CUTOFF:
        a2 = alpha * alpha
        return alpha * (2.0 / 3.0 - a2 * (8.0 / 15.0 + a2 * 12.0 / 35.0))
    inv = 1.0 / alpha
    return -0.5 * (1.0 + inv * inv) * _log_ratio(alpha) + inv + 2.0 * alpha


@lru_cache(maxsize=None)
def tau_star(tol_alpha: float = ALPHA_TOL) -> TauStarResult:
    """Critical coupling tau_star = sup k2 and its argmax alpha_d.

    k2_prime changes sign exactly once on (0, 1), inside the constant
    bracket _ARGMAX_BRACKET: bisect it to ``tol_alpha``.
    """
    if not 0.0 < tol_alpha < 0.1:
        raise DomainError(f"tol_alpha={tol_alpha!r} out of range")
    alpha_d = bisect(lambda mid: k2_prime(mid) > 0.0, *_ARGMAX_BRACKET,
                     tol_alpha)
    return TauStarResult(tau_star=k2(alpha_d), alpha_d=alpha_d)


def d_second_sign(p: ModelParams, omega: float) -> int:
    """Sign of d''(omega) from the closed form: sign(tau - k2(alpha)).

    Returns +1 (stable side), -1 (unstable side), or 0 when
    |tau - k2| < SIGN_TOL.
    """
    alpha = alpha_of_omega(p, omega)
    diff = p.tau - k2(alpha)
    if abs(diff) < SIGN_TOL:
        return 0
    return 1 if diff > 0.0 else -1


def sweep_columns(p: ModelParams, n: int):
    """omega, alpha, sigma and sign d'' as arrays at the n interior points
    omega_star + i width/(n+1), i = 1..n, of the frequency window.

    The arithmetic is alpha_of_omega's, sigma_closed's and d_second_sign's in
    their operand order, elementwise, so every value equals theirs bit for
    bit; the log is taken with math.log because np.log is not correctly
    rounded.  Where the scalar path refuses a row, the scalar functions are
    evaluated at the first such row and raise its error.  An n that is not
    an integer in [1, MAX_ROWS] raises DomainError before anything is
    allocated.
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
        sigma = scale * (np.sqrt(tau - a2) * np.where(
            series,
            2.0 * alpha * a2 * (
                1.0 / 3.0 + a2 * (0.2 + a2 * (1.0 / 7.0 + a2 / 9.0))),
            log_ratio - 2.0 * alpha))
        diff = tau - np.where(
            series,
            1.0 + a2 * (1.0 / 3.0 - a2 * (2.0 / 15.0 + a2 * 2.0 / 35.0)),
            ((1.0 - a2) / (2.0 * alpha)) * log_ratio + a2)
    ok &= np.isfinite(sigma)
    if not ok.all():
        sigma_closed(p, float(omega[np.argmin(ok)]))
    sign = np.where(np.abs(diff) < SIGN_TOL, 0, np.where(diff > 0.0, 1, -1))
    return omega, alpha, sigma, sign


@dataclass(frozen=True)
class StabilityReport:
    """Partition of the frequency window into stable/unstable intervals."""

    params: ModelParams
    tau: float
    tau_star: float
    omega_window: FrequencyWindow
    roots_alpha: tuple          # k2(alpha) = tau solutions, descending
    roots_omega: tuple          # their frequencies, ascending
    intervals: tuple            # (lo, hi, "stable"|"unstable")

    def to_dict(self) -> dict:
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


# Tolerance below which tau is treated as exactly critical (touching root).
_TOUCH_TOL = 1e-10


def classify(p: ModelParams, alpha_tol: float = ALPHA_TOL,
             check_oracle: bool = False) -> StabilityReport:
    """Partition the frequency window by the sign of d''.

    Roots of k2(alpha) = tau are found by bisection on the two monotone
    branches of k2 (split at its argmax); each subinterval of the window is
    then labeled by d_second_sign at its midpoint — no case table.  The
    sliver between a window end and a root within a float of it holds no
    frequency to label, so it is dropped and the intervals still tile the
    window; the root stays in the report.  With ``check_oracle`` the
    verdicts are re-derived from finite-difference d'' at the midpoints (and
    a few extra window samples); any sign contradiction raises
    OracleDisagreementError instead of returning a report.
    """
    tau = p.tau
    crit = tau_star()
    window = p.window
    alpha_hi = min(1.0, math.sqrt(tau))  # admissible alpha range is open

    roots_alpha: list[float] = []
    if abs(tau - crit.tau_star) < _TOUCH_TOL:
        # Touching case: k2 reaches tau only at its argmax; d'' > 0 on both
        # sides, so the single root separates two stable intervals.
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
    """Re-derive interval verdicts from finite-difference d''; raise on clash.

    Test points: every interval midpoint plus five equispaced window samples,
    skipping anything within 1e-2 window-widths of a root (where the sign
    genuinely passes through zero).  Every point outside that guard has
    |tau - k2| >= SIGN_TOL (tested over tau, the touching case and tau near
    1 included), so its closed-form sign is never 0.
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
