"""Standing-wave profiles and their integral observables.

The profile R solves R'' = G'(R) + (m^2 - omega^2) R with R'(0) = 0 and
R -> 0 at infinity.  A closed form exists:

    R(x) = (c/a) / (1 + sqrt(1 - alpha^2) cosh(sqrt(c) x)),   c = m^2 - omega^2

and is used as the primary constructor; its correctness is pinned down by the
ODE residual recorded on every built profile (and by integration tests against
a Runge-Kutta solution).

This module is also the home of the even half-line lattice (``half_line``)
that the profile, the linearized operators and the evolved field share:
samples at x_i = i*h on x >= 0 with an even interval count, integrals by
composite Simpson doubled by evenness, and the field operator with its
mirrored centre (``field_acceleration``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DomainError, ModelParams, alpha_of_omega, g_potential

# cosh argument cap: cosh(700) is near the top of double range, and once the
# argument is this large the profile value underflows to 0 anyway.
_COSH_ARG_MAX = 700.0
# Most nodes the half-line x >= 0 of any grid may hold, counted as
# length / step: the profile, each parity block of L+ and L-, and the evolved
# field.  About 40/sqrt(m^2 - omega^2)/h nodes are needed, which grows without
# bound as omega -> m.
MAX_NODES = 2_000_000
_DECAY_LENGTHS = 40.0  # default half-length, in units of 1/sqrt(m^2 - omega^2)
# lattice step of the profiles behind d_second_numeric
ORACLE_STEP = 0.005


class GridError(ValueError):
    """A spatial grid cannot support the requested construction."""


def require_node_budget(length: float, step: float) -> None:
    """Raise GridError when [0, length] at ``step`` exceeds MAX_NODES nodes.

    Called before the grid is sized, so an infinite or huge ratio is refused
    before any array is allocated.
    """
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
    """Half-line samples of a standing-wave profile (even extension implied).

    ``values[i]`` is R(i*step) for i = 0 .. half_length/step; the maximum
    ODE residual measured on the build grid is carried as metadata.
    """

    omega: float
    params: ModelParams
    half_length: float
    step: float
    values: np.ndarray
    max_ode_residual: float

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.values.size) * self.step


def closed_form_profile(p: ModelParams, omega: float, x):
    """Evaluate the exact profile R(x); scalar or array x."""
    p.window.require(omega)
    c = p.m * p.m - omega * omega
    alpha = alpha_of_omega(p, omega)
    beta = math.sqrt(1.0 - alpha * alpha)
    arg = np.clip(math.sqrt(c) * np.asarray(x, dtype=float), -_COSH_ARG_MAX,
                  _COSH_ARG_MAX)
    r = (c / p.a) / (1.0 + beta * np.cosh(arg))
    return float(r) if r.ndim == 0 else r


def closed_form_slope(p: ModelParams, omega: float, x):
    """Exact spatial derivative R'(x) of the closed-form profile.

    Written as R' = -R * k * (beta sinh)/(1 + beta cosh) so the hyperbolic
    ratio stays bounded for large |x| instead of overflowing.
    """
    p.window.require(omega)
    c = p.m * p.m - omega * omega
    alpha = alpha_of_omega(p, omega)
    beta = math.sqrt(1.0 - alpha * alpha)
    k = math.sqrt(c)
    arg = np.clip(k * np.asarray(x, dtype=float), -_COSH_ARG_MAX, _COSH_ARG_MAX)
    denom = 1.0 + beta * np.cosh(arg)
    slope = -(c / p.a) / denom * k * beta * np.sinh(arg) / denom
    return float(slope) if slope.ndim == 0 else slope


def build_profile(p: ModelParams, omega: float, step: float,
                  half_length: float | None = None,
                  tail_tol: float = 1e-12) -> SolitonProfile:
    """Sample the closed form on the wave's ``half_line`` lattice.

    The even interval count lets Simpson quadrature apply directly to the
    stored values.  When ``half_length`` is omitted it is the lattice's
    default 40/sqrt(c), stretched if ``tail_tol`` demands more.  Raises
    GridError for a lattice ``half_line`` refuses, if the tail at L is not
    below ``tail_tol`` relative to R(0), or if the measured ODE residual is
    out of bounds.
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

    # A standing wave has phi_tt = -omega^2 R, so the residual is that of the
    # field operator; the Dirichlet end is deep in the tail and left out.
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
    """Discrete phi_tt of the field equation for an even field on x >= 0.

    phi_tt = phi_xx - (m^2 + G'(|phi|)/|phi|) phi, with G'(s)/s as defined
    by ``model.g_prime_over_s``; here the force is written out and fused
    with the mass term, and the leapfrog kernel holds the other copy.  The
    centre reads its left neighbour from the mirror phi(-h) = phi(h); the
    last node is the Dirichlet end, whose value is 0.  Real samples give a
    real array and complex samples a complex one.

    The terms are formed in place, on the few arrays the call allocates,
    in the operand order of (right - 2 phi + left) / h^2 + ((-m^2 + 3a|phi|)
    - 4b|phi||phi|) phi, save that 3a|phi| and -m^2 + 3a|phi| are taken
    with their operands swapped, which rounds the same (3a and -m^2 are
    finite).  A complex Laplacian is scaled by the product with
    complex(1 / h^2), not divided: NumPy divides a complex array by a real
    d with Smith's rule, (re + im*0) fl(1/d) + i (im - re*0) fl(1/d), and
    the product rounds the same at a sixth of the cost.  The two differ in
    two classes only, both equal in value: the sign of a zero part, where a
    part or a part times 1/h^2 is -0 (a -0 real part beside a finite
    imaginary part always differs), and the NaN bits of a NaN real part
    beside a NaN or infinite imaginary part.  Real samples keep the real
    division.
    """
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
    """Composite Simpson rule; needs an odd number of points.

    Real samples give a float and complex samples a complex.
    """
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
    """Standing-wave energy.

    E = 1/2 omega^2 ||R||^2 + 1/2 ||R'||^2 + 1/2 m^2 ||R||^2 + int G(R),
    with R' from finite differences and all integrals by Simpson quadrature
    doubled over the even extension.
    """
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
    """Finite-difference d''(omega) with d = E - omega Q from quadrature.

    Centered second difference over h = 1e-3 of the window width, of
    profiles built at step ORACLE_STEP; raises DomainError where the stencil
    [omega - h, omega + h] leaves the window.  This is the independent check
    on the closed-form sign machinery, so it deliberately goes through
    profile quadrature and nothing else.
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
