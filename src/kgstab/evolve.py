"""Time evolution of the full nonlinear field from standing-wave data.

A leapfrog scheme (time-symmetric, second order, matching the second-order
PDE) advances complex field values on a Dirichlet-truncated grid.  The data
is even in x and the equation preserves evenness, so only the half-line
x >= 0 is stored and stepped, with the mirror condition phi(-h) = phi(h) at
the centre.  Runs record conserved quantities and the phase-minimized
distance to the standing wave orbit, which is the empirical counterpart of
the stability verdicts from the classifier.  Their integrals are full-line
Simpson sums folded onto x >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import _kernels
from .model import DomainError, ModelParams
from .soliton import (GridError, SolitonProfile, build_profile,
                      closed_form_profile, require_node_budget)

# Amplitude guard: a run whose sup exceeds this many times R(0) has left any
# neighbourhood of the orbit and is about to overflow; record and stop.
_GUARD_FACTOR = 1e3
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
    """Two consecutive time levels of an even field on the half-line.

    ``phi[i]`` is the field at x_i = i*step_x for i = 0 .. half_length/step_x.
    Node 0 is the symmetry centre, with the mirror condition
    phi(-h) = phi(h), and the last node is the Dirichlet end x = half_length.
    """

    time: float
    phi: np.ndarray
    phi_prev: np.ndarray
    step_x: float
    step_t: float
    half_length: float
    params: ModelParams
    guard: float

    def __post_init__(self):
        if self.phi.shape != self.phi_prev.shape:
            raise ValueError("phi and phi_prev grids differ")
        if not self.step_t > 0.0:
            raise CFLError(f"step_t must be positive, got {self.step_t!r}")
        if not self.step_t <= 0.9 * self.step_x:
            raise CFLError(
                f"step_t={self.step_t!r} violates step_t <= 0.9*step_x "
                f"with step_x={self.step_x!r}"
            )

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.phi.size) * self.step_x

    @cached_property
    def velocity(self) -> np.ndarray:
        """d/dt phi at the current level, shared by the diagnostics.

        The centred difference (phi^{n+1} - phi^{n-1}) / 2dt with the
        leapfrog's phi^{n+1} substituted: (phi^n - phi^{n-1}) / dt
        + (dt/2) phi_tt(phi^n).  It reads the two stored levels and steps
        nothing.
        """
        dt = self.step_t
        return ((self.phi - self.phi_prev) / dt
                + 0.5 * dt * _acceleration(self.phi, self.step_x, self.params))

    @cached_property
    def phi_x(self) -> np.ndarray:
        """d/dx phi, shared by the diagnostics."""
        return _gradient(self.phi, self.step_x)


def _gradient(values: np.ndarray, step: float) -> np.ndarray:
    """Centred first derivative of an even function sampled on x >= 0; it
    vanishes at the centre, as the mirror requires."""
    grad = np.gradient(values, step)
    grad[0] = 0.0
    return grad


@lru_cache(maxsize=4)
def _fold_weights(n_nodes: int) -> np.ndarray:
    """Composite-Simpson weights of the full grid -N..N folded onto 0..N.

    The centre keeps its full-grid weight, 2 for even N and 4 for odd N; every
    other node stands for itself and its mirror, so its weight doubles.
    """
    n = n_nodes - 1
    full = np.where(np.arange(n, 2 * n + 1) % 2 == 1, 4.0, 2.0)
    full[-1] = 1.0
    full[1:] *= 2.0
    full.setflags(write=False)
    return full


def _integral(values: np.ndarray, step: float) -> float | complex:
    """Full-line Simpson integral of an even integrand sampled on x >= 0."""
    return (_fold_weights(values.size) @ values).item() * step / 3.0


def _acceleration(phi: np.ndarray, step_x: float, p: ModelParams) -> np.ndarray:
    """Discrete phi_tt from the field equation (mirror centre, Dirichlet
    end)."""
    acc = np.zeros_like(phi)
    inner = phi[:-1]
    left = np.concatenate((phi[1:2], phi[:-2]))
    mag = np.abs(inner)
    acc[:-1] = (phi[1:] - 2.0 * inner + left) / (step_x * step_x)
    acc[:-1] += (-p.m * p.m + 3.0 * p.a * mag - 4.0 * p.b * mag * mag) * inner
    return acc


def _initial_field(kind: str, eps: float, profile: SolitonProfile,
                   x: np.ndarray) -> np.ndarray:
    """The perturbed profile at the nodes ``x``, as complex values."""
    r = closed_form_profile(profile.params, profile.omega, np.abs(x))
    if kind == "scale":
        return (1.0 + eps) * r.astype(complex)
    if kind == "bump":
        return (r + eps * np.exp(-x * x)).astype(complex)
    return r.astype(complex)


def init_state(profile: SolitonProfile, perturbation: str, step_t: float,
               extra_half_length: float = 20.0) -> FieldState:
    """Perturbed standing-wave data on a widened half-line grid.

    The data is even in x (each perturbation kind is), so only x >= 0 is
    stored.  The grid extends the profile's half-length by
    ``extra_half_length`` (lattice-aligned) so radiation reflected off the
    Dirichlet end arrives late.  phi_prev comes from a second-order Taylor
    start, which makes the centered time difference at t = 0 reproduce the
    exact initial velocity.  Raises GridError for an ``extra_half_length``
    that is negative or not finite, or a grid beyond MAX_NODES.
    """
    kind, eps = parse_perturbation(perturbation)
    p = profile.params
    h = profile.step
    if not 0.0 <= extra_half_length < math.inf:
        raise GridError("extra_half_length must be non-negative and finite, "
                        f"got {extra_half_length!r}")
    require_node_budget(profile.half_length + extra_half_length, h)
    n_side = (round(profile.half_length / h)
              + int(math.ceil(extra_half_length / h)))
    x = np.arange(n_side + 1) * h

    phi0 = _initial_field(kind, eps, profile, x)
    assert np.array_equal(phi0, _initial_field(kind, eps, profile, -x)), \
        "initial data must be even"
    phi0[-1] = 0.0

    psi0 = -1j * profile.omega * phi0
    phi_prev = phi0 - step_t * psi0 \
        + 0.5 * step_t * step_t * _acceleration(phi0, h, p)
    phi_prev[-1] = 0.0

    return FieldState(
        time=0.0, phi=phi0, phi_prev=phi_prev, step_x=h, step_t=float(step_t),
        half_length=n_side * h, params=p,
        guard=_GUARD_FACTOR * float(profile.values[0]),
    )


def _advance(state: FieldState, n_steps: int) -> tuple[FieldState, int]:
    """Take up to n_steps leapfrog steps; returns (new state, steps taken)."""
    phi = state.phi.copy()
    prev = state.phi_prev.copy()
    p = state.params
    taken = int(_kernels.leapfrog_steps(
        phi, prev, n_steps, state.step_x, state.step_t,
        p.m * p.m, p.a, p.b, state.guard,
    ))
    new = replace(state, time=state.time + taken * state.step_t, phi=phi,
                  phi_prev=prev)
    return new, taken


def field_energy(state: FieldState) -> float:
    """E = 1/2 ||psi||^2 + 1/2 ||phi'||^2 + 1/2 m^2 ||phi||^2 + int G(|phi|)."""
    p = state.params
    mag = np.abs(state.phi)
    density = (0.5 * np.abs(state.velocity)**2
               + 0.5 * np.abs(state.phi_x)**2
               + 0.5 * p.m * p.m * mag**2
               + (-p.a * mag**3 + p.b * mag**4))
    return float(_integral(density, state.step_x))


def field_charge(state: FieldState) -> float:
    """Q = -Im int psi conj(phi) dx."""
    pairing = _integral(state.velocity * np.conj(state.phi), state.step_x)
    return float(-pairing.imag)


@dataclass(frozen=True, eq=False)
class _Orbit:
    """The standing wave's side of the orbital distance on one grid.

    It depends only on the profile, the frequency and the grid, so a run
    builds it once.
    """

    m2: float
    r: np.ndarray
    r_x: np.ndarray
    psi: np.ndarray  # the orbit's velocity conjugated: conj(-i omega R)
    norm: float      # m^2 ||R||^2 + ||R'||^2 + omega^2 ||R||^2


def _orbit(state: FieldState, profile: SolitonProfile,
           omega: float) -> _Orbit:
    h = state.step_x
    p = state.params
    m2 = p.m * p.m
    r = np.interp(state.x, profile.x, profile.values, right=0.0)
    r_x = _gradient(r, h)
    norm = _integral((m2 + omega * omega) * r**2 + r_x**2, h)
    return _Orbit(m2=m2, r=r, r_x=r_x, psi=np.conj(-1j * omega * r),
                  norm=norm)


def _distance(state: FieldState, orbit: _Orbit) -> float:
    """``orbital_distance`` with the orbit side already built."""
    h = state.step_x
    psi = state.velocity
    phi_x = state.phi_x
    norm_u = _integral(orbit.m2 * np.abs(state.phi)**2 + np.abs(phi_x)**2
                       + np.abs(psi)**2, h)
    z = _integral(orbit.m2 * state.phi * orbit.r + phi_x * orbit.r_x
                  + psi * orbit.psi, h)
    # max(d2, 0.0) passes a NaN on, where max(0.0, d2) would return 0.0
    return math.sqrt(max(norm_u + orbit.norm - 2.0 * abs(z), 0.0))


def orbital_distance(state: FieldState, profile: SolitonProfile,
                     omega: float) -> float:
    """Phase-minimized distance from the state to the standing-wave orbit.

    min over theta of ||(phi, psi) - e^{-i theta}(R, -i omega R)|| in the
    norm m^2||.||^2 + ||.'||^2 + ||.||^2; the minimum is closed-form:
    sqrt(||u||^2 + ||v||^2 - 2|z|) with z the mixed pairing.
    """
    return _distance(state, _orbit(state, profile, omega))


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

    def to_csv(self, stream) -> None:
        stream.write("time,energy,charge,orbital_distance,sup_amplitude\n")
        for row in zip(self.times, self.energy, self.charge,
                       self.orbital_distance, self.sup_amplitude):
            stream.write(",".join(f"{value:.17g}" for value in row) + "\n")


def _sample(state: FieldState, orbit: _Orbit, tail: np.ndarray) -> tuple:
    """(time, energy, charge, orbital distance, sup |phi|, sup |phi| over
    the ``tail`` nodes) of one state."""
    mag = np.abs(state.phi)
    return (state.time, field_energy(state), field_charge(state),
            _distance(state, orbit), float(mag.max()), float(mag[tail].max()))


def run(p: ModelParams, omega: float, perturbation: str, t_final: float,
        sample_every: int = 50, step_x: float = 0.02, step_t: float = 0.01,
        extra_half_length: float = 20.0) -> Diagnostics:
    """Evolve perturbed standing-wave data to t_final, sampling diagnostics.

    Samples are taken at t = 0 and every ``sample_every`` steps (plus the
    final time).  A tripped amplitude guard truncates the run: the
    diagnostics collected so far come back with ``truncated`` set instead of
    an exception escaping.

    Raises DomainError for a ``t_final`` that is not positive and finite, a
    ``sample_every`` below 1, more than MAX_STEPS steps, or initial data
    whose t = 0 energy, charge or orbital distance is not finite, or whose
    energy or charge is zero.
    """
    if not 0.0 < t_final < math.inf:
        raise DomainError(
            f"t_final must be positive and finite, got {t_final!r}")
    if not sample_every >= 1:
        raise DomainError(f"sample_every must be >= 1, got {sample_every!r}")
    # a step_t that is not positive is refused by FieldState
    if step_t > 0.0 and not t_final / step_t - 1e-9 <= MAX_STEPS:
        raise DomainError(
            f"t_final={t_final!r} at step_t={step_t!r} needs more than "
            f"the {MAX_STEPS} steps one run may take")
    profile = build_profile(p, omega, step_x)
    # huge data overflows to inf or NaN here; the check below refuses it,
    # so the NumPy warnings would only add noise to stderr
    with np.errstate(over="ignore", invalid="ignore"):
        state = init_state(profile, perturbation, step_t, extra_half_length)
        orbit = _orbit(state, profile, omega)
        tail_nodes = state.x >= state.half_length - _TAIL_MARGIN
        samples = [_sample(state, orbit, tail_nodes)]
    _, e0, q0, d0, *_ = samples[0]
    if not all(map(math.isfinite, samples[0])) or e0 == 0.0 or q0 == 0.0:
        raise DomainError(
            f"perturbation {perturbation!r} gives t = 0 energy {e0!r}, "
            f"charge {q0!r} and distance {d0!r}; all must be finite, and "
            "energy and charge nonzero")

    total_steps = int(math.ceil(t_final / step_t - 1e-9))
    truncation_time = None
    done = 0
    while done < total_steps:
        batch = min(sample_every, total_steps - done)
        state, taken = _advance(state, batch)
        done += taken
        # the guard may trip on a batch's last step, where taken == batch
        if not np.abs(state.phi).max() <= state.guard:
            truncation_time = state.time
            break
        samples.append(_sample(state, orbit, tail_nodes))

    times, energy, charge, dist, sup, tail = map(np.asarray, zip(*samples))
    exceeded = np.flatnonzero(tail > _TAIL_LEVEL)
    return Diagnostics(
        times=times, energy=energy, charge=charge, orbital_distance=dist,
        sup_amplitude=sup, truncated=truncation_time is not None,
        truncation_time=truncation_time,
        tail_first_exceed=float(times[exceeded[0]]) if exceeded.size else None,
    )
