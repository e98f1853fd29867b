"""Model parameters for the quadratic-cubic Klein-Gordon field.

The field equation is

    phi_tt - phi_xx + m^2 phi - 3a|phi| phi + 4b|phi|^2 phi = 0

with a, b, m > 0.  Standing waves exp(-i omega t) R(x) exist for frequencies
in an open window below m; everything downstream is parametrized either by
omega or by the shape parameter alpha = sqrt(2 b (m^2 - omega^2)) / a.

The nonlinearity G(s) = -a s^3 + b s^4 is defined here once: ``g_potential``
for both energies, ``g_second`` for L_plus and ``g_prime_over_s`` for L_minus
and the field force (which the field operator and the leapfrog kernel keep
fused into their steps).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from numbers import Real


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
            # any real number, NumPy's included, but not a bool
            real = isinstance(value, Real) and not isinstance(value, bool)
            try:
                finite = real and math.isfinite(value)
            except OverflowError:  # an int beyond the float range
                finite = False
            if not finite:
                raise DomainError(
                    f"{name} must be a finite real number, got {value!r}")
            if value <= 0:
                raise DomainError(f"{name} must be positive, got {value!r}")
            object.__setattr__(self, name, float(value))

    # cached_property fills the instance __dict__ directly, which freezing
    # does not forbid
    @cached_property
    def tau(self) -> float:
        """Dimensionless combination 2 m^2 b / a^2 controlling stability.

        Overflow to inf is kept: it still exceeds every k2.
        """
        a2 = self.a * self.a
        if a2 == 0.0:
            raise DomainError(f"a^2 underflows at a={self.a!r}: "
                              "tau = 2 m^2 b / a^2 has no float value")
        return 2.0 * self.m * self.m * self.b / a2

    @cached_property
    def omega_star(self) -> float:
        """Lower edge of the standing-wave frequency window.

        Raises DomainError where m^2 overflows, which leaves the edge
        sqrt(m^2 - a^2/(2b)) without a float value.
        """
        m2 = self.m * self.m
        if m2 == math.inf:
            raise DomainError(f"m^2 overflows at m={self.m!r}: the window "
                              "edge sqrt(m^2 - a^2/(2b)) has no float value")
        gap = m2 - self.a * self.a / (2.0 * self.b)
        return math.sqrt(gap) if gap > 0.0 else 0.0

    @cached_property
    def window(self) -> FrequencyWindow:
        return FrequencyWindow(self.omega_star, self.m)


def as_count(name: str, value) -> int:
    """``value`` as an int when it is an integer, NumPy's included; raises
    DomainError for anything else, a float with an integral value too."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(
            f"{name} must be an integer, got {value!r}") from None


def bisect(goes_up, lo: float, hi: float, tol: float) -> float:
    """Halve [lo, hi] until it is at most ``tol`` wide, or until no float
    lies strictly between its ends; return its midpoint.

    ``goes_up(mid)`` is true when the point sought lies above ``mid``.  The
    rounded midpoint of two neighbouring floats is one of them, so a ``tol``
    below their spacing would otherwise halve the same bracket forever.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
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


def g_potential(p: ModelParams, s):
    """G(s) = -a s^3 + b s^4 for a float or an array of amplitudes s >= 0."""
    s2 = s * s
    return s2 * (p.b * s2 - p.a * s)


def g_prime_over_s(p: ModelParams, s):
    """G'(s)/s = -3a s + 4b s^2, written out so that it holds at s = 0: the
    potential of L_minus, and -(field force)/phi at |phi| = s."""
    return -3.0 * p.a * s + 4.0 * p.b * s * s


def g_second(p: ModelParams, s):
    """G''(s) = -6a s + 12b s^2: the potential of L_plus."""
    return -6.0 * p.a * s + 12.0 * p.b * s * s
