"""Time evolution of the nonlinear field from standing-wave data.

A leapfrog scheme steps the complex field on its profile's even lattice;
runs sample the energy, the charge and the phase-minimized distance to the
standing wave's orbit, the dynamical counterpart of ``stability``'s
verdicts.  Every integral is a weighted ``_kernels.dot``: against composite
Simpson sums and BLAS dot products, energy and charge agree within 1e-14
relative and the squared distance within 1e-14 of the orbit's squared
norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .model import DomainError, ModelParams, as_count, g_potential
from .soliton import (GridError, SolitonProfile, build_profile,
                      field_acceleration, half_line)

# a run whose sup |phi| passes this many times R(0) has left the orbit and
# is about to overflow: it stops
_GUARD_FACTOR = 1e3
# huge data overflows to inf or NaN in the diagnostics; callers check their
# results, so the NumPy warnings would only add noise to stderr
_quiet = np.errstate(over="ignore", invalid="ignore")
# the tail sensor's distance from the Dirichlet end, and its trigger level
_TAIL_MARGIN = 5.0
_TAIL_LEVEL = 1e-8
# most leapfrog steps, t_final / step_t, that one run may take
MAX_STEPS = 1_000_000


class CFLError(ValueError):
    """Time step not positive, or too large for the spatial step (leapfrog
    stability)."""


def parse_perturbation(spec: str) -> tuple[str, float]:
    """(kind, eps) from 'none', 'scale:EPS' or 'bump:EPS', EPS finite: the
    data R, (1 + EPS) R or R + EPS exp(-x^2).  Raises ValueError otherwise.
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
    """Two consecutive time levels of an even field, ``phi[i]`` at
    ``profile.x[i]``, after ``steps`` leapfrog steps; the lattice, the model
    and the orbit are the profile's.  Raises ValueError unless both levels
    have the lattice's shape, and CFLError unless 0 < step_t <= 0.9 h.
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
        """A sampler that holds this state's psi, |phi| and phi_x."""
        sampler = _Sampler(self.profile, self.step_t)
        sampler.fields(self.phi, self.phi_prev)
        return sampler

    @property
    def velocity(self) -> np.ndarray:
        """d/dt phi at the current level: the centred difference with the
        leapfrog's next level substituted, (phi^n - phi^{n-1}) / dt
        + (dt/2) phi_tt(phi^n)."""
        return self._fields.psi

    @property
    def phi_x(self) -> np.ndarray:
        """d/dx phi, shared by the diagnostics."""
        return self._fields.phi_x

    @property
    def magnitude(self) -> np.ndarray:
        """|phi|, shared by the amplitude guard and the diagnostics."""
        return self._fields.mag


def _gradient(values: np.ndarray, step: float) -> np.ndarray:
    """Centred first derivative of an even function sampled on x >= 0
    (``np.gradient``, one-sided at the Dirichlet end); it vanishes at the
    centre, as the mirror requires."""
    grad = np.gradient(values, step)
    grad[0] = 0.0
    return grad


def _guard(profile: SolitonProfile) -> float:
    """The sup |phi| at which a run on ``profile`` stops."""
    return _GUARD_FACTOR * float(profile.values[0])


@_quiet
def init_state(profile: SolitonProfile, perturbation: str,
               step_t: float) -> FieldState:
    """The state at t = 0 of ``parse_perturbation``'s data on the profile's
    lattice, with velocity -i omega times the data and phi_prev from a
    second-order Taylor step, so that ``velocity`` at t = 0 is exact."""
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
    """The diagnostics of the states on one profile's lattice: it holds the
    doubled Simpson weights W, the orbit's side of the distance and the
    tail sensor's first node."""

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
        # the orbit (R, -i omega R), stored conjugated: its pairing with a
        # state is dot(W m^2 R, phi) + dot(W R', phi_x)
        # + dot(conj(W (-i omega R)), psi)
        omega = profile.omega
        r = profile.values
        r_x = _gradient(r, h)
        w_r, w_r_x = w * r, w * r_x
        dot = _kernels.dot
        self.norm = float(dot(w_r, (self.m2 + omega * omega) * r)
                          + dot(w_r_x, r_x))
        self.orbit_phi = (self.m2 * w_r).astype(complex)
        self.orbit_phi_x = w_r_x.astype(complex)
        self.orbit_psi = np.conj(-1j * omega * w_r)
        self.tail = int(np.argmax(profile.x
                                  >= profile.half_length - _TAIL_MARGIN))

    @_quiet
    def fields(self, phi: np.ndarray, phi_prev: np.ndarray) -> None:
        """Set ``psi`` (``FieldState.velocity``), ``mag`` = |phi| and
        ``phi_x`` of the state (phi, phi_prev) as new arrays.  The operator's
        array is freed before |phi| and phi_x are formed, to keep the heap
        peak of a sample low."""
        dt = self.step_t
        prof = self.profile
        acc = field_acceleration(phi, prof.step, prof.params)
        np.multiply(0.5 * dt, acc, out=acc)
        psi = np.subtract(phi, phi_prev)
        psi *= complex(1.0 / dt)
        psi += acc
        del acc
        self.psi = psi
        self.mag = np.abs(phi)
        self.phi_x = _gradient(phi, prof.step)

    @_quiet
    def integrals(self, phi: np.ndarray) -> tuple:
        """(energy, charge, orbital distance, sup |phi|, sup |phi| over the
        tail sensor) of the state ``fields`` last set."""
        dot = _kernels.dot
        psi_r = self.psi.view(float)
        w_psi = self.weights2 * psi_r
        kinetic = dot(w_psi, psi_r)                        # ||psi||^2
        pairing = dot(np.conj(phi), w_psi.view(complex))   # <phi, psi>
        phi_x_r = self.phi_x.view(float)
        gradient = dot(self.weights2 * phi_x_r, phi_x_r)   # ||phi'||^2
        mag = self.mag
        mass = dot(self.weights * mag, mag)                # ||phi||^2
        potential = dot(self.weights, g_potential(self.profile.params, mag))
        energy = 0.5 * (kinetic + gradient + self.m2 * mass) + potential
        norm_u = self.m2 * mass + gradient + kinetic
        z = (dot(self.orbit_phi, phi) + dot(self.orbit_phi_x, self.phi_x)
             + dot(self.orbit_psi, self.psi))
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
    """min over theta of ||(phi, psi) - e^{-i theta} (R, -i omega R)|| in the
    norm m^2 ||.||^2 + ||.'||^2 + ||.||^2, in closed form
    sqrt(||u||^2 + ||v||^2 - 2|z|).  Its square is known to 1e-14 of ||v||^2,
    so a distance under about 1e-7 ||v|| is rounding and may read 0; ``run``
    states the floor that the lattice sets."""
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
        """The JSON payload: the largest energy and charge drifts relative
        to t = 0, the initial and the largest distance, their ratio and the
        first time the distance passes 100 times the initial one (None where
        that reads 0), the largest sup |phi|, and the truncation and tail
        events.  The ratio and the crossing show growth only from above the
        floor ``run`` states."""
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
    """Diagnostics of ``perturbation``'s data evolved to ``t_final``.

    The lattice is the default ``half_line`` plus ``extra_half_length``, so
    that radiation reflected at the Dirichlet end comes back late.  Samples
    are taken at t = 0, every ``sample_every`` steps and at the end; a sup
    |phi| above 1e3 R(0) ends the run with ``truncated`` set.  Raises
    GridError for an ``extra_half_length`` outside [0, inf) or a lattice
    beyond MAX_NODES, and DomainError for a ``t_final`` not positive and
    finite, a ``sample_every`` below 1, more than MAX_STEPS (1,000,000)
    steps, or a t = 0 energy, charge or distance not finite, or energy or
    charge 0.

    The distance has a floor: the sampled R is not an exact standing wave of
    the scheme, so even unperturbed data drift off the orbit.  At (1, 1, 1),
    omega = 0.9, t = 50 and the defaults (||v|| = 0.366), "none" drifts to
    5.29e-6; "scale:1e-7" (d0 = 3.65e-8) reads a ``distance_ratio`` of 146
    and a false ``first_crossing_100x`` at t = 1.5; "scale:1e-8" reads d0 = 0
    and no ratio.
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
    # the run steps its own levels; the state keeps the t = 0 ones
    phi, phi_prev, work = _kernels.leapfrog_arrays(state.phi.size)
    phi[...] = state.phi
    phi_prev[...] = state.phi_prev
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
            guard, work))
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
