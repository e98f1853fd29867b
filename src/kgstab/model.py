"""Model parameters for the quadratic-cubic Klein-Gordon field.

The field equation is

    phi_tt - phi_xx + m^2 phi - 3a|phi| phi + 4b|phi|^2 phi = 0

with a, b, m > 0.  Standing waves exp(-i omega t) R(x) exist for frequencies
in an open window below m; everything downstream is parametrized either by
omega or by the shape parameter alpha = sqrt(2 b (m^2 - omega^2)) / a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """A parameter or frequency lies outside its mathematical domain."""


@dataclass(frozen=True)
class FrequencyWindow:
    """Open interval (omega_star, m) of admissible standing-wave frequencies."""

    omega_star: float
    m: float

    def contains(self, omega: float) -> bool:
        return self.omega_star < omega < self.m

    def require(self, omega: float) -> None:
        if not self.contains(omega):
            raise DomainError(
                f"omega={omega!r} outside the admissible window "
                f"({self.omega_star!r}, {self.m!r})"
            )

    @property
    def width(self) -> float:
        return self.m - self.omega_star


@dataclass(frozen=True)
class ModelParams:
    """Coefficients (a, b, m) of the quadratic-cubic nonlinearity."""

    a: float
    b: float
    m: float

    def __post_init__(self):
        for name in ("a", "b", "m"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise DomainError(f"{name} must be a finite number, got {value!r}")
            if value <= 0:
                raise DomainError(f"{name} must be positive, got {value!r}")
            object.__setattr__(self, name, float(value))

    @property
    def tau(self) -> float:
        """Dimensionless combination 2 m^2 b / a^2 controlling stability."""
        return 2.0 * self.m * self.m * self.b / (self.a * self.a)

    @property
    def omega_star(self) -> float:
        """Lower edge of the standing-wave frequency window."""
        gap = self.m * self.m - self.a * self.a / (2.0 * self.b)
        return math.sqrt(gap) if gap > 0.0 else 0.0

    @property
    def window(self) -> FrequencyWindow:
        return FrequencyWindow(self.omega_star, self.m)


def bisect(goes_up, lo: float, hi: float, tol: float) -> float:
    """Halve [lo, hi] until it is at most ``tol`` wide; return its midpoint.

    ``goes_up(mid)`` is true when the point sought lies above ``mid``.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if goes_up(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def alpha_of_omega(p: ModelParams, omega: float) -> float:
    """Shape parameter alpha = sqrt(2b(m^2 - omega^2))/a for omega in the window."""
    p.window.require(omega)
    return math.sqrt(2.0 * p.b * (p.m * p.m - omega * omega)) / p.a


def omega_of_alpha(p: ModelParams, alpha: float) -> float:
    """Inverse map: the frequency whose shape parameter is alpha.

    Requires 0 < alpha < 1 and alpha^2 < tau (equivalently omega real and in
    the window).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha!r} outside (0, 1)")
    if alpha * alpha >= p.tau:
        raise DomainError(
            f"alpha={alpha!r} inadmissible: alpha^2 >= tau = {p.tau!r}"
        )
    return (p.a / math.sqrt(2.0 * p.b)) * math.sqrt(p.tau - alpha * alpha)


def r_star(p: ModelParams, omega: float) -> float:
    """Peak amplitude R(0) of the standing-wave profile at frequency omega.

    Written as (a/2b) alpha^2 / (1 + sqrt(1 - alpha^2)), which is exact for
    all alpha in (0, 1) and avoids cancellation as alpha -> 0.
    """
    alpha = alpha_of_omega(p, omega)
    s = math.sqrt(1.0 - alpha * alpha)
    return (p.a / (2.0 * p.b)) * alpha * alpha / (1.0 + s)


def g_derivatives(p: ModelParams, s):
    """Nonlinear potential G(s) = -a s^3 + b s^4 and its first two derivatives.

    Accepts a scalar or array of amplitudes s >= 0; returns (G, G', G'').
    """
    s = np.asarray(s, dtype=float)
    g = -p.a * s**3 + p.b * s**4
    g1 = -3.0 * p.a * s**2 + 4.0 * p.b * s**3
    g2 = -6.0 * p.a * s + 12.0 * p.b * s**2
    if g.ndim == 0:
        return float(g), float(g1), float(g2)
    return g, g1, g2
