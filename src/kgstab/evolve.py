"""Time evolution of the full nonlinear field from standing-wave data.

A leapfrog scheme (time-symmetric, second order, matching the second-order
PDE) advances complex field values on a Dirichlet-truncated grid.  The data
is even in x and the equation preserves evenness, so only the half-line
x >= 0 is stored and stepped, with the mirror condition phi(-h) = phi(h) at
the centre.  Runs record conserved quantities and the phase-minimized
distance to the standing wave orbit, which is the empirical counterpart of
the stability verdicts from the classifier.  The field lives on its
profile's lattice (see ``soliton``): an even interval count, the profile's
field operator, and R and omega from the profile's samples.

``run`` allocates its two time levels once and the kernel steps them in
place.  One sampler per run holds the profile's doubled composite Simpson
weights, the orbit's side of the distance and its own buffers; per sample
it forms |phi|, psi and phi_x once, and takes every integral as a weighted
dot product of those arrays.  The sums run in another order than
``composite_simpson``'s, so the diagnostics differ from its in the last
digits: energy and charge by at most 1e-14 relative (worst measured 7.1e-15
and 1.2e-15), the squared distance by at most 1e-14 of the orbit's squared
norm (worst measured 5.5e-15).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .model import DomainError, ModelParams, as_count, g_potential
from .soliton import (GridError, SolitonProfile, accelerate_into,
                      build_profile, field_acceleration, half_line)

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
    def _fields(self) -> _Sampler:
        """A sampler whose buffers hold this state's |phi|, psi and phi_x."""
        sampler = _Sampler(self.profile, self.step_t)
        sampler.fields(self.phi, self.phi_prev)
        return sampler

    @property
    def velocity(self) -> np.ndarray:
        """d/dt phi at the current level, shared by the diagnostics.

        The centred difference (phi^{n+1} - phi^{n-1}) / 2dt with the
        leapfrog's phi^{n+1} substituted: (phi^n - phi^{n-1}) / dt
        + (dt/2) phi_tt(phi^n).  It reads the two stored levels and steps
        nothing.
        """
        return self._fields.psi

    @property
    def phi_x(self) -> np.ndarray:
        """d/dx phi, shared by the diagnostics."""
        return self._fields.phi_x

    @property
    def magnitude(self) -> np.ndarray:
        """|phi|, shared by the amplitude guard and the diagnostics."""
        return self._fields.mag


def _gradient(values: np.ndarray, step: float,
              out: np.ndarray | None = None) -> np.ndarray:
    """Centred first derivative of an even function sampled on x >= 0; it
    vanishes at the centre, as the mirror requires.

    ``np.gradient``'s operations (one-sided at the Dirichlet end), written
    into ``out`` when it is given.
    """
    if out is None:
        out = np.empty_like(values)
    np.subtract(values[2:], values[:-2], out=out[1:-1])
    np.divide(out[1:-1], 2.0 * step, out=out[1:-1])
    out[-1] = (values[-1] - values[-2]) / step
    out[0] = 0.0
    return out


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


class _Sampler:
    """The diagnostics of every state on one profile's lattice, built once.

    It holds the doubled composite Simpson weights W of the half-line, the
    orbit's side of the distance (R, R', the orbit's velocity -i omega R and
    its squared norm), the tail sensor's first node and the buffers of one
    state's |phi|, psi and phi_x.  ``fields`` fills those buffers with the
    operations of ``field_acceleration`` and ``np.gradient``, so psi and
    phi_x are bitwise theirs; ``integrals`` takes every integral as a
    weighted dot product on them.
    """

    def __init__(self, profile: SolitonProfile, step_t: float):
        h = profile.step
        p = profile.params
        n = profile.values.size
        self.profile = profile
        self.step_t = step_t
        self.m2 = p.m * p.m
        # 2 x composite Simpson: (2h/3) (1, 4, 2, 4, ..., 2, 4, 1)
        w = np.full(n, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= 2.0 * h / 3.0
        self.weights = w
        self.weights2 = np.repeat(w, 2)  # on a complex array's real view
        # the orbit (R, -i omega R): its pairing with a state is
        # vdot(W m^2 R, phi) + vdot(W R', phi_x) + vdot(W (-i omega R), psi)
        omega = profile.omega
        r = profile.values
        r_x = _gradient(r, h)
        w_r, w_r_x = w * r, w * r_x
        self.norm = float(np.dot(w_r, (self.m2 + omega * omega) * r)
                          + np.dot(w_r_x, r_x))
        self.orbit_phi = (self.m2 * w_r).astype(complex)
        self.orbit_phi_x = w_r_x.astype(complex)
        self.orbit_psi = -1j * omega * w_r
        self.tail = int(np.argmax(profile.x
                                  >= profile.half_length - _TAIL_MARGIN))
        self.mag = np.empty(n)
        self.psi = np.empty(n, dtype=complex)
        self.phi_x = np.empty(n, dtype=complex)
        self._acc = np.zeros(n, dtype=complex)  # the end entry stays 0
        self._force = np.empty(n - 1, dtype=complex)
        self._weight = np.empty(n - 1)
        self._scratch = np.empty(n - 1)
        self._weighted = np.empty(2 * n)

    @_quiet
    def fields(self, phi: np.ndarray, phi_prev: np.ndarray) -> None:
        """Fill ``mag``, ``psi`` and ``phi_x`` from the two levels.

        psi is ``FieldState.velocity``: (phi - phi_prev) / dt
        + (dt/2) phi_tt(phi), the acceleration read from |phi| formed once.
        """
        dt = self.step_t
        prof = self.profile
        np.abs(phi, out=self.mag)
        accelerate_into(self._acc, phi, self.mag[:-1], prof.step,
                        prof.params, self._force, self._weight,
                        self._scratch)
        np.multiply(0.5 * dt, self._acc, out=self._acc)
        np.subtract(phi, phi_prev, out=self.psi)
        np.divide(self.psi, dt, out=self.psi)
        np.add(self.psi, self._acc, out=self.psi)
        _gradient(phi, prof.step, out=self.phi_x)

    @_quiet
    def integrals(self, phi: np.ndarray) -> tuple:
        """(energy, charge, orbital distance, sup |phi|, sup |phi| over the
        tail sensor) of the state whose ``fields`` the buffers hold."""
        w2 = self._weighted
        psi_r = self.psi.view(float)
        np.multiply(self.weights2, psi_r, out=w2)
        kinetic = np.dot(w2, psi_r)                        # ||psi||^2
        pairing = np.vdot(phi, w2.view(complex))           # <phi, psi>
        phi_x_r = self.phi_x.view(float)
        np.multiply(self.weights2, phi_x_r, out=w2)
        gradient = np.dot(w2, phi_x_r)                     # ||phi'||^2
        mag = self.mag
        w_mag = np.multiply(self.weights, mag, out=w2[:mag.size])
        mass = np.dot(w_mag, mag)                          # ||phi||^2
        potential = np.dot(self.weights,
                           g_potential(self.profile.params, mag))
        energy = 0.5 * (kinetic + gradient + self.m2 * mass) + potential
        norm_u = self.m2 * mass + gradient + kinetic
        z = (np.vdot(self.orbit_phi, phi) + np.vdot(self.orbit_phi_x,
                                                    self.phi_x)
             + np.vdot(self.orbit_psi, self.psi))
        # max(d2, 0.0) passes a NaN on, where max(0.0, d2) would return 0.0
        distance = math.sqrt(max(norm_u + self.norm - 2.0 * abs(z), 0.0))
        return (float(energy), float(-pairing.imag), distance,
                float(mag.max()), float(mag[self.tail:].max()))

    def __call__(self, phi: np.ndarray, phi_prev: np.ndarray) -> tuple:
        """``integrals`` of the state (phi, phi_prev)."""
        self.fields(phi, phi_prev)
        return self.integrals(phi)


def field_energy(state: FieldState) -> float:
    """E = 1/2 ||psi||^2 + 1/2 ||phi'||^2 + 1/2 m^2 ||phi||^2 + int G(|phi|)."""
    return state._fields.integrals(state.phi)[0]


def field_charge(state: FieldState) -> float:
    """Q = -Im int psi conj(phi) dx."""
    return state._fields.integrals(state.phi)[1]


def orbital_distance(state: FieldState) -> float:
    """Phase-minimized distance from the state to its profile's orbit.

    The orbit is e^{-i theta}(R, -i omega R) with R and omega from
    ``state.profile``.  min over theta of ||(phi, psi) - e^{-i theta}(R,
    -i omega R)|| in the norm m^2||.||^2 + ||.'||^2 + ||.||^2; the minimum
    is closed-form: sqrt(||u||^2 + ||v||^2 - 2|z|) with z the mixed pairing.
    """
    return state._fields.integrals(state.phi)[2]


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
    sampler = _Sampler(profile, state.step_t)
    # the run's two levels, stepped in place; the state keeps its own
    phi, phi_prev = state.phi.copy(), state.phi_prev.copy()
    samples = [sampler(phi, phi_prev)]
    e0, q0, d0, *_ = samples[0]
    if not all(map(math.isfinite, samples[0])) or e0 == 0.0 or q0 == 0.0:
        raise DomainError(
            f"perturbation {perturbation!r} gives t = 0 energy {e0!r}, "
            f"charge {q0!r} and distance {d0!r}; all must be finite, and "
            "energy and charge nonzero")

    total_steps = int(math.ceil(t_final / step_t - 1e-9))
    m2, guard = p.m * p.m, _guard(profile)
    truncation_time = None
    done = 0
    sampled = [done]
    while done < total_steps:
        batch = min(sample_every, total_steps - done)
        done += int(_kernels.leapfrog_steps(
            phi, phi_prev, batch, profile.step, state.step_t, m2, p.a, p.b,
            guard))
        sample = sampler(phi, phi_prev)
        # the guard may trip on a batch's last step, where taken == batch
        if not sample[3] <= guard:
            truncation_time = done * state.step_t
            break
        sampled.append(done)
        samples.append(sample)

    times = np.asarray(sampled) * state.step_t  # whole steps, as state.time
    energy, charge, dist, sup, tail = map(np.asarray, zip(*samples))
    exceeded = np.flatnonzero(tail > _TAIL_LEVEL)
    return Diagnostics(
        times=times, energy=energy, charge=charge, orbital_distance=dist,
        sup_amplitude=sup, truncated=truncation_time is not None,
        truncation_time=truncation_time,
        tail_first_exceed=float(times[exceeded[0]]) if exceeded.size else None,
    )
