"""Time evolution of the full nonlinear field from standing-wave data.

A leapfrog scheme (time-symmetric, second order, matching the second-order
PDE) advances complex field values on a Dirichlet-truncated grid.  The data
is even in x and the equation preserves evenness, so only the half-line
x >= 0 is stored and stepped, with the mirror condition phi(-h) = phi(h) at
the centre.  Runs record conserved quantities and the phase-minimized
distance to the standing wave orbit, which is the empirical counterpart of
the stability verdicts from the classifier.  The field lives on its
profile's lattice (see ``soliton``): an even interval count, half-line
Simpson sums doubled, the profile's field operator, and R and omega from the
profile's samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import _kernels
from .model import DomainError, ModelParams, as_count, g_potential
from .soliton import (GridError, SolitonProfile, build_profile,
                      composite_simpson, field_acceleration, half_line)

# Amplitude guard: a run whose sup exceeds this many times R(0) has left any
# neighbourhood of the orbit and is about to overflow; record and stop.
_GUARD_FACTOR = 1e3
# huge data overflows to inf or NaN in the diagnostics; callers check their
# results, so the NumPy warnings would only add noise to stderr
_quiet = np.errstate(over="ignore", invalid="ignore")
# Tail sensor distance from the boundary and its trigger level.
_TAIL_MARGIN = 5.0
_TAIL_LEVEL = 1e-8
# Most leapfrog steps one run may take (t_final / step_t); a longer run is
# refused before it starts.
MAX_STEPS = 1_000_000


class CFLError(ValueError):
    """Time step not positive, or too large for the spatial step (leapfrog
    stability)."""


def parse_perturbation(spec: str) -> tuple[str, float]:
    """Parse 'none', 'scale:EPS', or 'bump:EPS' into (kind, eps).

    Each kind gives even initial data: the profile, the profile scaled by
    1 + EPS, or the profile plus EPS exp(-x^2).
    """
    text = str(spec).strip()
    if text == "none":
        return ("none", 0.0)
    kind, sep, tail = text.partition(":")
    if sep and kind in ("scale", "bump"):
        try:
            eps = float(tail)
        except ValueError:
            eps = math.nan
        if math.isfinite(eps):
            return (kind, eps)
    raise ValueError(
        f"perturbation must be 'none', 'scale:EPS' or 'bump:EPS', got {spec!r}"
    )


@dataclass(frozen=True, eq=False)
class FieldState:
    """Two consecutive time levels of an even field on its profile's lattice.

    ``phi[i]`` is the field at ``profile.x[i]`` = i*h on x >= 0, an even
    interval count.  Node 0 is the symmetry centre, with the mirror
    condition phi(-h) = phi(h), and the last node is the Dirichlet end
    x = ``profile.half_length``.  The step, the model and the orbit are the
    profile's; ``steps`` counts the leapfrog steps taken since t = 0.
    """

    steps: int
    phi: np.ndarray
    phi_prev: np.ndarray
    step_t: float
    profile: SolitonProfile

    def __post_init__(self):
        if not self.phi.shape == self.phi_prev.shape \
                == self.profile.values.shape:
            raise ValueError("phi, phi_prev and the profile's lattice differ")
        if not self.step_t > 0.0:
            raise CFLError(f"step_t must be positive, got {self.step_t!r}")
        if not self.step_t <= 0.9 * self.profile.step:
            raise CFLError(
                f"step_t={self.step_t!r} violates step_t <= 0.9*step_x "
                f"with step_x={self.profile.step!r}"
            )

    @property
    def time(self) -> float:
        """steps * step_t, so sample times do not accumulate rounding."""
        return self.steps * self.step_t

    @cached_property
    @_quiet
    def velocity(self) -> np.ndarray:
        """d/dt phi at the current level, shared by the diagnostics.

        The centred difference (phi^{n+1} - phi^{n-1}) / 2dt with the
        leapfrog's phi^{n+1} substituted: (phi^n - phi^{n-1}) / dt
        + (dt/2) phi_tt(phi^n).  It reads the two stored levels and steps
        nothing.
        """
        dt = self.step_t
        prof = self.profile
        return ((self.phi - self.phi_prev) / dt
                + 0.5 * dt * field_acceleration(self.phi, prof.step,
                                                prof.params))

    @cached_property
    def phi_x(self) -> np.ndarray:
        """d/dx phi, shared by the diagnostics."""
        return _gradient(self.phi, self.profile.step)

    @cached_property
    @_quiet
    def magnitude(self) -> np.ndarray:
        """|phi|, shared by the amplitude guard and the diagnostics."""
        return np.abs(self.phi)


def _gradient(values: np.ndarray, step: float) -> np.ndarray:
    """Centred first derivative of an even function sampled on x >= 0; it
    vanishes at the centre, as the mirror requires."""
    grad = np.gradient(values, step)
    grad[0] = 0.0
    return grad


def _guard(profile: SolitonProfile) -> float:
    """The sup |phi| at which a run on ``profile`` stops."""
    return _GUARD_FACTOR * float(profile.values[0])


@_quiet
def init_state(profile: SolitonProfile, perturbation: str,
               step_t: float) -> FieldState:
    """Perturbed standing-wave data on the profile's lattice.

    The data is formed on x >= 0 only, from the profile's samples of R and
    exp(-x^2), so it is even by construction; the last node is the
    Dirichlet end.  phi_prev comes from a second-order Taylor start, which
    makes the centered time difference at t = 0 reproduce the exact initial
    velocity.  A margin for radiation is the caller's to build into the
    profile, as ``run`` does.
    """
    kind, eps = parse_perturbation(perturbation)
    x = profile.x
    r = profile.values
    if kind == "scale":
        r = (1.0 + eps) * r
    elif kind == "bump":
        r = r + eps * np.exp(-x * x)
    phi0 = r.astype(complex)
    phi0[-1] = 0.0

    psi0 = -1j * profile.omega * phi0
    phi_prev = phi0 - step_t * psi0 + 0.5 * step_t * step_t \
        * field_acceleration(phi0, profile.step, profile.params)
    phi_prev[-1] = 0.0

    return FieldState(steps=0, phi=phi0, phi_prev=phi_prev,
                      step_t=float(step_t), profile=profile)


def _advance(state: FieldState, n_steps: int) -> tuple[FieldState, int]:
    """Take up to n_steps leapfrog steps; returns (new state, steps taken)."""
    phi = state.phi.copy()
    prev = state.phi_prev.copy()
    prof = state.profile
    p = prof.params
    taken = int(_kernels.leapfrog_steps(
        phi, prev, n_steps, prof.step, state.step_t,
        p.m * p.m, p.a, p.b, _guard(prof),
    ))
    new = replace(state, steps=state.steps + taken, phi=phi, phi_prev=prev)
    return new, taken


@_quiet
def field_energy(state: FieldState) -> float:
    """E = 1/2 ||psi||^2 + 1/2 ||phi'||^2 + 1/2 m^2 ||phi||^2 + int G(|phi|)."""
    p = state.profile.params
    mag = state.magnitude
    density = (0.5 * np.abs(state.velocity)**2
               + 0.5 * np.abs(state.phi_x)**2
               + 0.5 * p.m * p.m * mag**2
               + g_potential(p, mag))
    return 2.0 * composite_simpson(density, state.profile.step)


@_quiet
def field_charge(state: FieldState) -> float:
    """Q = -Im int psi conj(phi) dx."""
    pairing = composite_simpson(state.velocity * np.conj(state.phi),
                                state.profile.step)
    return -2.0 * pairing.imag


@dataclass(frozen=True, eq=False)
class _Orbit:
    """The standing wave's side of the orbital distance on its lattice."""

    m2: float
    r: np.ndarray
    r_x: np.ndarray
    psi: np.ndarray  # the orbit's velocity conjugated: conj(-i omega R)
    norm: float      # m^2 ||R||^2 + ||R'||^2 + omega^2 ||R||^2


@lru_cache(maxsize=1)
def _orbit(profile: SolitonProfile) -> _Orbit:
    """The orbit's side; it depends on the profile only, so a run builds it
    once."""
    h = profile.step
    omega = profile.omega
    p = profile.params
    m2 = p.m * p.m
    r = profile.values
    r_x = _gradient(r, h)
    norm = 2.0 * composite_simpson((m2 + omega * omega) * r**2 + r_x**2, h)
    return _Orbit(m2=m2, r=r, r_x=r_x, psi=np.conj(-1j * omega * r),
                  norm=norm)


@_quiet
def orbital_distance(state: FieldState) -> float:
    """Phase-minimized distance from the state to its profile's orbit.

    The orbit is e^{-i theta}(R, -i omega R) with R and omega from
    ``state.profile``.  min over theta of ||(phi, psi) - e^{-i theta}(R,
    -i omega R)|| in the norm m^2||.||^2 + ||.'||^2 + ||.||^2; the minimum
    is closed-form: sqrt(||u||^2 + ||v||^2 - 2|z|) with z the mixed pairing.
    """
    orbit = _orbit(state.profile)
    h = state.profile.step
    psi = state.velocity
    phi_x = state.phi_x
    norm_u = 2.0 * composite_simpson(
        orbit.m2 * state.magnitude**2 + np.abs(phi_x)**2 + np.abs(psi)**2, h)
    z = 2.0 * composite_simpson(
        orbit.m2 * state.phi * orbit.r + phi_x * orbit.r_x + psi * orbit.psi, h)
    # max(d2, 0.0) passes a NaN on, where max(0.0, d2) would return 0.0
    return math.sqrt(max(norm_u + orbit.norm - 2.0 * abs(z), 0.0))


@dataclass(frozen=True, eq=False)
class Diagnostics:
    """Sampled conservation and orbit-tracking series for one run."""

    times: np.ndarray
    energy: np.ndarray
    charge: np.ndarray
    orbital_distance: np.ndarray
    sup_amplitude: np.ndarray
    truncated: bool = False
    truncation_time: float | None = None
    tail_first_exceed: float | None = None

    def summary(self) -> dict:
        e0, q0 = self.energy[0], self.charge[0]
        d0 = float(self.orbital_distance[0])
        dmax = float(self.orbital_distance.max())
        crossing = None
        if d0 > 0.0:
            above = np.nonzero(self.orbital_distance > 100.0 * d0)[0]
            if above.size:
                crossing = float(self.times[above[0]])
        return {
            "t_final": float(self.times[-1]),
            "relative_energy_drift":
                float(np.abs(self.energy - e0).max() / abs(e0)),
            "relative_charge_drift":
                float(np.abs(self.charge - q0).max() / abs(q0)),
            "initial_distance": d0,
            "max_distance": dmax,
            "distance_ratio": (dmax / d0) if d0 > 0.0 else None,
            "first_crossing_100x": crossing,
            "max_sup_amplitude": float(self.sup_amplitude.max()),
            "truncated": self.truncated,
            "truncation_time": self.truncation_time,
            "tail_first_exceed": self.tail_first_exceed,
        }


def _sample(state: FieldState, tail: np.ndarray) -> tuple:
    """(time, energy, charge, orbital distance, sup |phi|, sup |phi| over
    the ``tail`` nodes) of one state."""
    mag = state.magnitude
    return (state.time, field_energy(state), field_charge(state),
            orbital_distance(state), float(mag.max()), float(mag[tail].max()))


def run(p: ModelParams, omega: float, perturbation: str, t_final: float,
        sample_every: int = 50, step_x: float = 0.02, step_t: float = 0.01,
        extra_half_length: float = 20.0) -> Diagnostics:
    """Evolve perturbed standing-wave data to t_final, sampling diagnostics.

    The field lives on a profile built to the default ``half_line``'s end
    plus ``extra_half_length``, rounded up to an even interval count, so
    radiation reflected off the Dirichlet end arrives late; R is the closed
    form on the whole lattice, the margin included.  Samples are taken at
    t = 0 and every ``sample_every`` steps (plus the final time).  A tripped
    amplitude guard truncates the run: the diagnostics collected so far come
    back with ``truncated`` set instead of an exception escaping.

    Raises GridError for an ``extra_half_length`` that is negative or not
    finite, or a lattice beyond MAX_NODES.  Raises DomainError for a
    ``t_final`` that is not positive and finite, a ``sample_every`` below 1,
    more than MAX_STEPS steps, or initial data whose t = 0 energy, charge or
    orbital distance is not finite, or whose energy or charge is zero.
    """
    if not 0.0 < t_final < math.inf:
        raise DomainError(
            f"t_final must be positive and finite, got {t_final!r}")
    sample_every = as_count("sample_every", sample_every)
    if not sample_every >= 1:
        raise DomainError(f"sample_every must be >= 1, got {sample_every!r}")
    # a step_t that is not positive is refused by FieldState
    if step_t > 0.0 and not t_final / step_t - 1e-9 <= MAX_STEPS:
        raise DomainError(
            f"t_final={t_final!r} at step_t={step_t!r} needs more than "
            f"the {MAX_STEPS} steps one run may take")
    if not 0.0 <= extra_half_length < math.inf:
        raise GridError("extra_half_length must be non-negative and finite, "
                        f"got {extra_half_length!r}")
    end = float(half_line(p, omega, step_x)[-1]) + extra_half_length
    profile = build_profile(p, omega, step_x, half_length=end)
    state = init_state(profile, perturbation, step_t)
    tail_nodes = profile.x >= profile.half_length - _TAIL_MARGIN
    samples = [_sample(state, tail_nodes)]
    _, e0, q0, d0, *_ = samples[0]
    if not all(map(math.isfinite, samples[0])) or e0 == 0.0 or q0 == 0.0:
        raise DomainError(
            f"perturbation {perturbation!r} gives t = 0 energy {e0!r}, "
            f"charge {q0!r} and distance {d0!r}; all must be finite, and "
            "energy and charge nonzero")

    total_steps = int(math.ceil(t_final / step_t - 1e-9))
    guard = _guard(profile)
    truncation_time = None
    done = 0
    while done < total_steps:
        batch = min(sample_every, total_steps - done)
        state, taken = _advance(state, batch)
        done += taken
        # the guard may trip on a batch's last step, where taken == batch
        if not state.magnitude.max() <= guard:
            truncation_time = state.time
            break
        samples.append(_sample(state, tail_nodes))

    times, energy, charge, dist, sup, tail = map(np.asarray, zip(*samples))
    exceeded = np.flatnonzero(tail > _TAIL_LEVEL)
    return Diagnostics(
        times=times, energy=energy, charge=charge, orbital_distance=dist,
        sup_amplitude=sup, truncated=truncation_time is not None,
        truncation_time=truncation_time,
        tail_first_exceed=float(times[exceeded[0]]) if exceeded.size else None,
    )
