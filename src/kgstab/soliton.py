"""Standing-wave profiles and their integral observables.

The profile solves R'' = G'(R) + c R, c = m^2 - omega^2, R'(0) = 0, as

    R(x) = (c/a) / (1 + sqrt(1 - alpha^2) cosh(sqrt(c) x)),

sampled, like the linearized operators and the evolved field, on one even
lattice (``half_line``) whose integrals are Simpson sums doubled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DomainError, ModelParams, alpha_of_omega, g_potential

# cosh argument cap: cosh(700) is near the top of double range, and once the
# argument is this large the profile value underflows to 0 anyway.
_COSH_ARG_MAX = 700.0
# most nodes, length / step, on x >= 0 of any lattice; the default needs
# 40/sqrt(m^2 - omega^2)/h, unbounded as omega -> m
MAX_NODES = 2_000_000
_DECAY_LENGTHS = 40.0  # default half-length, in units of 1/sqrt(m^2 - omega^2)
# lattice step of the quadrature profiles behind d_second_numeric and
# `sigma --check`
ORACLE_STEP = 0.005


class GridError(ValueError):
    """A spatial grid cannot support the requested construction."""


def require_node_budget(length: float, step: float) -> None:
    """Raise GridError when length / step is not at most MAX_NODES
    (2,000,000), before any array is allocated."""
    nodes = length / step
    if not nodes <= MAX_NODES:
        raise GridError(
            f"grid of {nodes:.6g} nodes on x >= 0 exceeds the budget of "
            f"{MAX_NODES} (length {length!r}, step {step!r})")


def half_line(p: ModelParams, omega: float, step: float,
              half_length: float | None = None) -> np.ndarray:
    """Nodes i*step, i = 0 .. N, with N = ceil(half_length / step) rounded
    up to even; half_length defaults to 40 decay lengths.  Raises
    GridError for a step or half-length that is not positive and finite,
    over MAX_NODES nodes (before allocating) or under 4 intervals."""
    p.window.require(omega)
    if not step > 0.0:
        raise GridError(f"step must be positive, got {step!r}")
    if half_length is None:
        half_length = _DECAY_LENGTHS / math.sqrt(p.m * p.m - omega * omega)
    elif not 0.0 < half_length < math.inf:
        raise GridError(
            f"half_length must be positive and finite, got {half_length!r}")
    require_node_budget(half_length, step)
    n_int = int(math.ceil(half_length / step - 1e-9))
    n_int += n_int % 2  # Simpson wants an even interval count
    if n_int < 4:
        raise GridError("grid too coarse: fewer than 4 intervals to x = L")
    return np.arange(n_int + 1) * step


@dataclass(frozen=True, eq=False)
class SolitonProfile:
    """``values[i]`` = R(i step) on the ``half_line`` lattice, read-only,
    with the largest ODE residual measured on it."""

    omega: float
    params: ModelParams
    half_length: float
    step: float
    values: np.ndarray
    max_ode_residual: float

    @property
    def x(self) -> np.ndarray:
        """The nodes i step."""
        return np.arange(self.values.size) * self.step


def closed_form_profile(p: ModelParams, omega: float, x):
    """R(x) for a scalar or an array x; raises DomainError outside the
    window."""
    alpha = alpha_of_omega(p, omega)
    c = p.m * p.m - omega * omega
    beta = math.sqrt(1.0 - alpha * alpha)
    arg = np.clip(math.sqrt(c) * np.asarray(x, dtype=float), -_COSH_ARG_MAX,
                  _COSH_ARG_MAX)
    r = (c / p.a) / (1.0 + beta * np.cosh(arg))
    return float(r) if r.ndim == 0 else r


def closed_form_slope(p: ModelParams, omega: float, x):
    """R'(x), as -R k (beta sinh)/(1 + beta cosh), a ratio that stays
    bounded for large |x|; raises DomainError outside the window."""
    alpha = alpha_of_omega(p, omega)
    c = p.m * p.m - omega * omega
    beta = math.sqrt(1.0 - alpha * alpha)
    k = math.sqrt(c)
    arg = np.clip(k * np.asarray(x, dtype=float), -_COSH_ARG_MAX, _COSH_ARG_MAX)
    denom = 1.0 + beta * np.cosh(arg)
    slope = -(c / p.a) / denom * k * beta * np.sinh(arg) / denom
    return float(slope) if slope.ndim == 0 else slope


def build_profile(p: ModelParams, omega: float, step: float,
                  half_length: float | None = None,
                  tail_tol: float = 1e-12) -> SolitonProfile:
    """The closed form sampled on ``half_line``, by default 40/sqrt(c)
    long, stretched if ``tail_tol`` needs more.  Raises GridError for a
    refused lattice, a tail at L not below ``tail_tol`` relative to R(0),
    or an ODE residual not below max(1e-8, 10 h^2 R(0)).
    """
    if not 0.0 < tail_tol < 1.0:
        raise GridError(f"tail_tol must lie in (0, 1), got {tail_tol!r}")
    decay_lengths = 5.0 - math.log(tail_tol)  # decay lengths the tail needs
    if half_length is None and decay_lengths > _DECAY_LENGTHS:
        p.window.require(omega)
        half_length = decay_lengths / math.sqrt(p.m * p.m - omega * omega)
    grid = half_line(p, omega, step, half_length)
    values = closed_form_profile(p, omega, grid)

    if not values[-1] < tail_tol * values[0]:
        raise GridError(
            f"half_length={grid[-1]!r} too small: tail {values[-1]!r} "
            f"exceeds {tail_tol!r} relative to R(0)={values[0]!r}"
        )

    # a standing wave has phi_tt = -omega^2 R; the Dirichlet end is left out
    accel = field_acceleration(values, step, p)[:-1]
    residual = float(np.abs(accel + omega * omega * values[:-1]).max())
    sup = float(values[0])
    if residual >= max(1e-8, 10.0 * step * step * sup):
        raise GridError(
            f"ODE residual {residual!r} out of bounds for h={step!r}; "
            "profile construction is inconsistent"
        )

    values.setflags(write=False)
    return SolitonProfile(omega=float(omega), params=p,
                          half_length=float(grid[-1]), step=float(step),
                          values=values, max_ode_residual=residual)


def field_acceleration(phi: np.ndarray, step: float,
                       p: ModelParams) -> np.ndarray:
    """phi_tt = phi_xx - (m^2 + G'(|phi|)/|phi|) phi on the even lattice, a new
    array of phi's dtype, 0 at the Dirichlet end; the centre's left neighbour
    is the mirror phi(h).  A complex Laplacian is multiplied by complex(1/h^2):
    NumPy divides by a real with Smith's rule, equal in value at six times the
    cost."""
    inner = phi[:-1]
    acc = np.zeros_like(phi)
    lap = acc[:-1]
    np.multiply(2.0, inner, out=lap)
    np.subtract(phi[1:], lap, out=lap)
    lap[:1] += phi[1:2]  # the mirror: phi(-h) = phi(h)
    lap[1:] += phi[:-2]
    if lap.dtype.kind == "c":
        lap *= complex(1.0 / (step * step))
    else:
        lap /= step * step
    weight = np.abs(inner)
    square = 4.0 * p.b * weight
    square *= weight
    weight *= 3.0 * p.a
    weight += -p.m * p.m
    weight -= square
    del square  # freed before the force is formed
    lap += np.multiply(weight, inner)
    return acc


def composite_simpson(values: np.ndarray, step: float) -> float | complex:
    """Composite Simpson rule, a float or a complex; raises GridError
    unless the point count is odd and at least 3."""
    n = values.shape[-1]
    if n < 3 or n % 2 == 0:
        raise GridError(f"Simpson rule needs an odd point count, got {n}")
    acc = values[0] + values[-1] + 4.0 * values[1:-1:2].sum() \
        + 2.0 * values[2:-1:2].sum()
    return (acc * step / 3.0).item()


def _derivative(y: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative on a uniform grid (one-sided at edges)."""
    n = y.size
    if n < 5:
        raise GridError("derivative stencil needs at least 5 points")
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    d[0] = (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3]
            - 3.0 * y[4]) / (12.0 * h)
    d[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3]
            + y[4]) / (12.0 * h)
    d[-2] = -(-3.0 * y[-1] - 10.0 * y[-2] + 18.0 * y[-3] - 6.0 * y[-4]
              + y[-5]) / (12.0 * h)
    d[-1] = -(-25.0 * y[-1] + 48.0 * y[-2] - 36.0 * y[-3] + 16.0 * y[-4]
              - 3.0 * y[-5]) / (12.0 * h)
    return d


def charge(profile: SolitonProfile) -> float:
    """Conserved charge of the standing wave: omega * ||R||_2^2."""
    norm2 = 2.0 * composite_simpson(profile.values**2, profile.step)
    return profile.omega * norm2


def energy(profile: SolitonProfile) -> float:
    """E = 1/2 omega^2 ||R||^2 + 1/2 ||R'||^2 + 1/2 m^2 ||R||^2 + int G(R),
    R' by fourth-order differences, integrals by doubled Simpson."""
    p = profile.params
    r = profile.values
    h = profile.step
    norm2 = 2.0 * composite_simpson(r**2, h)
    slope = _derivative(r, h)
    grad2 = 2.0 * composite_simpson(slope**2, h)
    g_int = 2.0 * composite_simpson(g_potential(p, r), h)
    w = profile.omega
    return 0.5 * w * w * norm2 + 0.5 * grad2 + 0.5 * p.m * p.m * norm2 + g_int


def d_second_numeric(p: ModelParams, omega: float) -> float:
    """d''(omega), d = E - omega Q, by a centred second difference over
    1e-3 of the window width, of quadratures on profiles at ORACLE_STEP: an
    oracle independent of the closed forms.  Raises DomainError where the
    stencil leaves the window.
    """
    window = p.window
    window.require(omega)
    h = 1e-3 * window.width
    if omega - h <= window.omega_star or omega + h >= window.m:
        raise DomainError(
            f"stencil [omega-h, omega+h] leaves the window for "
            f"omega={omega!r}, h={h!r}"
        )

    def d_of(w: float) -> float:
        prof = build_profile(p, w, ORACLE_STEP)
        return energy(prof) - w * charge(prof)

    return (d_of(omega + h) - 2.0 * d_of(omega) + d_of(omega - h)) / (h * h)
