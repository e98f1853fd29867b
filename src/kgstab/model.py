"""Parameters of phi_tt - phi_xx + m^2 phi - 3a|phi| phi + 4b|phi|^2 phi = 0,
a, b, m > 0, whose standing waves exp(-i omega t) R(x) exist for omega in
(omega_star, m), with shape parameter alpha = sqrt(2b(m^2 - omega^2))/a;
and the nonlinearity G(s) = -a s^3 + b s^4 with its derivatives."""

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
        """omega_star < omega < m."""
        return self.omega_star < omega < self.m

    def require(self, omega: float) -> None:
        """Raise DomainError unless ``contains(omega)``."""
        if not self.contains(omega):
            raise DomainError(
                f"omega={omega!r} outside the admissible window "
                f"({self.omega_star!r}, {self.m!r})"
            )

    @property
    def width(self) -> float:
        """m - omega_star."""
        return self.m - self.omega_star


@dataclass(frozen=True)
class ModelParams:
    """Coefficients (a, b, m), stored as floats; raises DomainError unless
    each is a finite positive real number other than a bool."""

    a: float
    b: float
    m: float

    def __post_init__(self):
        for name in ("a", "b", "m"):
            value = getattr(self, name)
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
        """2 m^2 b / a^2, which decides stability; an overflow to inf is
        kept, as it still exceeds every k2.  Raises DomainError where a^2
        underflows."""
        a2 = self.a * self.a
        if a2 == 0.0:
            raise DomainError(f"a^2 underflows at a={self.a!r}: "
                              "tau = 2 m^2 b / a^2 has no float value")
        return 2.0 * self.m * self.m * self.b / a2

    @cached_property
    def omega_star(self) -> float:
        """sqrt(m^2 - a^2/(2b)), or 0 where that is not real; raises
        DomainError where m^2 overflows."""
        m2 = self.m * self.m
        if m2 == math.inf:
            raise DomainError(f"m^2 overflows at m={self.m!r}: the window "
                              "edge sqrt(m^2 - a^2/(2b)) has no float value")
        gap = m2 - self.a * self.a / (2.0 * self.b)
        return math.sqrt(gap) if gap > 0.0 else 0.0

    @cached_property
    def window(self) -> FrequencyWindow:
        """The window (omega_star, m)."""
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
    """The midpoint of [lo, hi] halved until it is at most ``tol`` wide or
    its ends are neighbouring floats, whose rounded midpoint is one of them,
    so a ``tol`` below their spacing cannot loop forever.  ``goes_up(mid)``
    is true when the point sought lies above ``mid``."""
    while hi - lo > tol:
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:
            break
        if goes_up(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * lo + 0.5 * hi


def alpha_of_omega(p: ModelParams, omega: float) -> float:
    """sqrt(2b(m^2 - omega^2))/a; raises DomainError outside the window."""
    p.window.require(omega)
    return math.sqrt(2.0 * p.b * (p.m * p.m - omega * omega)) / p.a


def omega_of_alpha(p: ModelParams, alpha: float) -> float:
    """The frequency of shape parameter alpha; raises DomainError unless
    0 < alpha < 1 and alpha^2 < tau."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha!r} outside (0, 1)")
    if alpha * alpha >= p.tau:
        raise DomainError(
            f"alpha={alpha!r} inadmissible: alpha^2 >= tau = {p.tau!r}"
        )
    return (p.a / math.sqrt(2.0 * p.b)) * math.sqrt(p.tau - alpha * alpha)


def r_star(p: ModelParams, omega: float) -> float:
    """Peak amplitude R(0), as (a/2b) alpha^2 / (1 + sqrt(1 - alpha^2)),
    which does not cancel as alpha -> 0."""
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
