"""Time evolution of the full nonlinear field from standing-wave data.

A leapfrog scheme (time-symmetric, second order, matching the second-order
PDE) advances complex field values on a Dirichlet-truncated grid.  Runs
record conserved quantities and the phase-minimized distance to the standing
wave orbit, which is the empirical counterpart of the stability verdicts
from the classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .model import DomainError, ModelParams
from .soliton import (SolitonProfile, build_profile, closed_form_profile,
                      composite_simpson)

# Amplitude guard: a run whose sup exceeds this many times R(0) has left any
# neighbourhood of the orbit and is about to overflow; record and stop.
_GUARD_FACTOR = 1e3
# Tail sensor distance from the boundary and its trigger level.
_TAIL_MARGIN = 5.0
_TAIL_LEVEL = 1e-8


class CFLError(ValueError):
    """Time step not positive, or too large for the spatial step (leapfrog
    stability)."""


class BlowUpError(RuntimeError):
    """Amplitude guard tripped during stepping."""

    def __init__(self, time: float, sup: float):
        self.time = time
        self.sup = sup
        super().__init__(f"amplitude {sup!r} exceeded the guard at t={time!r}")


def parse_perturbation(spec) -> tuple[str, float]:
    """Parse 'none', 'scale:EPS', or 'bump:EPS' into (kind, eps)."""
    if isinstance(spec, tuple):
        kind, eps = spec
        spec = kind if kind == "none" else f"{kind}:{eps}"
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
    """Two consecutive time levels of the field on a uniform grid."""

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
        n_side = round(self.half_length / self.step_x)
        return (np.arange(self.phi.size) - n_side) * self.step_x

    @cached_property
    def velocity(self) -> np.ndarray:
        """d/dt phi at the current level from the two-level leapfrog stagger.

        Costs one probe step, taken once per state and shared by the
        diagnostics.
        """
        ahead, _ = _advance(self, 1)
        return (ahead.phi - self.phi_prev) / (2.0 * self.step_t)


def _acceleration(phi: np.ndarray, step_x: float, p: ModelParams) -> np.ndarray:
    """Discrete phi_tt from the field equation (Dirichlet, zero at ends)."""
    acc = np.zeros_like(phi)
    inner = phi[1:-1]
    mag = np.abs(inner)
    acc[1:-1] = (phi[2:] - 2.0 * inner + phi[:-2]) / (step_x * step_x)
    acc[1:-1] += (-p.m * p.m + 3.0 * p.a * mag - 4.0 * p.b * mag * mag) * inner
    return acc


def init_state(profile: SolitonProfile, perturbation, step_t: float,
               extra_half_length: float = 20.0) -> FieldState:
    """Perturbed standing-wave data on a widened grid.

    The grid extends the profile's half-length by ``extra_half_length``
    (lattice-aligned) so radiation reflected off the Dirichlet ends arrives
    late.  phi_prev comes from a second-order Taylor start, which makes the
    centered time difference at t = 0 reproduce the exact initial velocity.
    """
    kind, eps = parse_perturbation(perturbation)
    p = profile.params
    h = profile.step
    n_side = round(profile.half_length / h) + int(math.ceil(extra_half_length / h))
    x = (np.arange(2 * n_side + 1) - n_side) * h
    r = closed_form_profile(p, profile.omega, np.abs(x))

    if kind == "scale":
        phi0 = (1.0 + eps) * r.astype(complex)
    elif kind == "bump":
        phi0 = (r + eps * np.exp(-x * x)).astype(complex)
    else:
        phi0 = r.astype(complex)
    phi0[0] = phi0[-1] = 0.0

    psi0 = -1j * profile.omega * phi0
    phi_prev = phi0 - step_t * psi0 \
        + 0.5 * step_t * step_t * _acceleration(phi0, h, p)
    phi_prev[0] = phi_prev[-1] = 0.0

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
    new = FieldState(
        time=state.time + taken * state.step_t, phi=phi, phi_prev=prev,
        step_x=state.step_x, step_t=state.step_t,
        half_length=state.half_length, params=p, guard=state.guard,
    )
    return new, taken


def step(state: FieldState) -> FieldState:
    """One leapfrog step; raises BlowUpError if the amplitude guard trips."""
    new, taken = _advance(state, 1)
    sup = float(np.abs(new.phi).max())
    if taken == 1 and sup > state.guard:
        raise BlowUpError(new.time, sup)
    return new


def field_energy(state: FieldState) -> float:
    """E = 1/2 ||psi||^2 + 1/2 ||phi'||^2 + 1/2 m^2 ||phi||^2 + int G(|phi|)."""
    p = state.params
    h = state.step_x
    psi = state.velocity
    grad = np.gradient(state.phi, h)
    mag = np.abs(state.phi)
    g = -p.a * mag**3 + p.b * mag**4
    return float(
        0.5 * composite_simpson(np.abs(psi)**2, h)
        + 0.5 * composite_simpson(np.abs(grad)**2, h)
        + 0.5 * p.m * p.m * composite_simpson(mag**2, h)
        + composite_simpson(g, h)
    )


def field_charge(state: FieldState) -> float:
    """Q = -Im int psi conj(phi) dx."""
    pairing = composite_simpson(state.velocity * np.conj(state.phi),
                                state.step_x)
    return float(-pairing.imag)


def orbital_distance(state: FieldState, profile: SolitonProfile,
                     omega: float) -> float:
    """Phase-minimized distance from the state to the standing-wave orbit.

    min over theta of ||(phi, psi) - e^{-i theta}(R, -i omega R)|| in the
    norm m^2||.||^2 + ||.'||^2 + ||.||^2; the minimum is closed-form:
    sqrt(||u||^2 + ||v||^2 - 2|z|) with z the mixed pairing.
    """
    p = state.params
    h = state.step_x
    x = state.x
    r = np.interp(np.abs(x), profile.x, profile.values, right=0.0)
    psi = state.velocity
    phi_x = np.gradient(state.phi, h)
    r_x = np.gradient(r, h)
    m2 = p.m * p.m

    norm_u = (m2 * composite_simpson(np.abs(state.phi)**2, h)
              + composite_simpson(np.abs(phi_x)**2, h)
              + composite_simpson(np.abs(psi)**2, h))
    norm_v = (m2 * composite_simpson(r**2, h)
              + composite_simpson(r_x**2, h)
              + omega * omega * composite_simpson(r**2, h))
    z = (m2 * composite_simpson(state.phi * r, h)
         + composite_simpson(phi_x * r_x, h)
         + composite_simpson(psi * np.conj(-1j * omega * r), h))
    return math.sqrt(max(0.0, norm_u + norm_v - 2.0 * abs(z)))


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


def run(p: ModelParams, omega: float, perturbation, t_final: float,
        sample_every: int = 50, step_x: float = 0.02, step_t: float = 0.01,
        half_length: float | None = None,
        extra_half_length: float = 20.0) -> Diagnostics:
    """Evolve perturbed standing-wave data to t_final, sampling diagnostics.

    Samples are taken at t = 0 and every ``sample_every`` steps (plus the
    final time).  A tripped amplitude guard truncates the run: the
    diagnostics collected so far come back with ``truncated`` set instead of
    an exception escaping.

    Raises DomainError for a ``t_final`` that is not positive and finite or
    a ``sample_every`` below 1.
    """
    if not 0.0 < t_final < math.inf:
        raise DomainError(
            f"t_final must be positive and finite, got {t_final!r}")
    if not sample_every >= 1:
        raise DomainError(f"sample_every must be >= 1, got {sample_every!r}")
    profile = build_profile(p, omega, step_x, half_length=half_length)
    state = init_state(profile, perturbation, step_t, extra_half_length)

    tail_nodes = np.abs(state.x) >= state.half_length - _TAIL_MARGIN
    total_steps = int(math.ceil(t_final / step_t - 1e-9))

    times, energies, charges, dists, sups = [], [], [], [], []
    truncated = False
    truncation_time = None
    tail_first = None

    done = 0
    while True:
        times.append(state.time)
        energies.append(field_energy(state))
        charges.append(field_charge(state))
        dists.append(orbital_distance(state, profile, omega))
        sups.append(float(np.abs(state.phi).max()))
        if tail_first is None:
            if float(np.abs(state.phi[tail_nodes]).max()) > _TAIL_LEVEL:
                tail_first = state.time
        if done >= total_steps:
            break
        batch = min(sample_every, total_steps - done)
        state, taken = _advance(state, batch)
        done += taken
        if taken < batch:
            truncated = True
            truncation_time = state.time
            break

    return Diagnostics(
        times=np.asarray(times), energy=np.asarray(energies),
        charge=np.asarray(charges), orbital_distance=np.asarray(dists),
        sup_amplitude=np.asarray(sups), truncated=truncated,
        truncation_time=truncation_time, tail_first_exceed=tail_first,
    )
