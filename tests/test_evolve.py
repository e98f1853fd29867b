import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kgstab import (CFLError, DomainError, FieldState, GridError, ModelParams,
                    build_profile, cli, closed_form_profile, energy, evolve,
                    field_charge, field_energy, init_state, orbital_distance,
                    parse_perturbation, run, sigma_closed, soliton)


def _fresh_state(p, omega, perturbation="none", step_x=0.02, step_t=0.01):
    prof = build_profile(p, omega, step_x)
    return init_state(prof, perturbation, step_t)


def _spy_init_state(monkeypatch):
    """Collect every state ``run`` starts from."""
    caught = []
    real = evolve.init_state

    def spy(*args):
        caught.append(real(*args))
        return caught[-1]

    monkeypatch.setattr(evolve, "init_state", spy)
    return caught


def test_parse_perturbation_forms():
    assert parse_perturbation("none") == ("none", 0.0)
    assert parse_perturbation("scale:0.01") == ("scale", 0.01)
    assert parse_perturbation("bump:-0.5") == ("bump", -0.5)
    for bad in ("wiggle:0.1", "scale", "scale:zero", "bump:inf"):
        with pytest.raises(ValueError):
            parse_perturbation(bad)


def test_cfl_guard(p111):
    prof = build_profile(p111, 0.9, 0.02)
    for step_t in (0.02, 0.0, -0.01):  # dt > 0.9 dx, or not positive
        with pytest.raises(CFLError):
            init_state(prof, "none", step_t=step_t)
    init_state(prof, "none", step_t=0.018)  # right at the limit is fine


def test_initial_data_matches_profile(p111):
    state = _fresh_state(p111, 0.9)
    inner = slice(0, -1)  # the centre and every node short of the end
    expected = closed_form_profile(p111, 0.9, state.profile.x)
    assert np.abs(state.phi.real[inner] - expected[inner]).max() < 1e-14
    assert np.abs(state.phi.imag).max() == 0.0
    assert state.phi[0] == expected[0]  # the centre carries R(0)
    assert state.phi[-1] == 0.0


def test_initial_velocity_recovered(p111):
    # the starter step is tuned so the centered velocity at t=0 is exactly
    # -i omega phi(0)
    state = _fresh_state(p111, 0.9)
    velocity = state.velocity
    expected = -1j * 0.9 * state.phi
    assert np.abs(velocity - expected).max() < 1e-15


def test_velocity_is_the_probe_step_difference(p111):
    # the leapfrog identity reads the centred difference around one step
    # ahead from the two stored levels, without taking that step
    state = _fresh_state(p111, 0.9, "bump:0.3")
    later, _ = oracles.advance(state, 37)
    ahead, _ = oracles.advance(later, 1)
    probe = (ahead.phi - later.phi_prev) / (2.0 * later.step_t)
    scale = np.abs(probe).max()
    assert np.abs(later.velocity - probe).max() <= 1e-13 * scale
    assert later.velocity is later.velocity  # computed once per state


def test_sampling_takes_no_kernel_step(p111, monkeypatch):
    batches = []
    kernel = evolve._kernels.leapfrog_steps

    def counted(*args):
        batches.append(args[2])
        return kernel(*args)

    monkeypatch.setattr(evolve._kernels, "leapfrog_steps", counted)
    diag = run(p111, 0.9, "scale:0.01", 1.0, sample_every=30)
    # 100 steps in batches of 30, 30, 30 and 10; one sample after each
    assert batches == [30, 30, 30, 10]
    assert diag.times.size == 5


def test_scaled_start_amplitude(p111):
    state = _fresh_state(p111, 0.9, "scale:0.01")
    r0 = closed_form_profile(p111, 0.9, 0.0)
    assert np.abs(state.phi).max() == pytest.approx(1.01 * r0, rel=1e-12)


def test_unperturbed_initial_distance_vanishes(p111):
    prof = build_profile(p111, 0.9, 0.02)
    state = init_state(prof, "none", 0.01)
    d0 = orbital_distance(state)
    norm = math.sqrt(2.0 * energy(prof))
    assert d0 < 1e-6 * norm


def test_zero_field_stays_zero(p111):
    state = _fresh_state(p111, 0.9)
    zero = dataclasses.replace(
        state, phi=np.zeros_like(state.phi),
        phi_prev=np.zeros_like(state.phi_prev))
    ahead, taken = oracles.advance(zero, 10)
    assert taken == 10
    assert np.abs(ahead.phi).max() == 0.0


def test_single_step_phase_accuracy(p111):
    state = _fresh_state(p111, 0.9)
    ahead, _ = oracles.advance(state, 1)
    exact = state.phi * np.exp(-1j * 0.9 * state.step_t)
    # the centre and the interior; the boundary pins a ~1e-12 amplitude to
    # zero
    gap = np.abs(ahead.phi[:-1] - exact[:-1]).max()
    assert gap < 2e-8


def test_time_reversal_symmetry(p111):
    state = _fresh_state(p111, 0.9)
    forward, taken = oracles.advance(state, 50)
    assert taken == 50
    swapped = dataclasses.replace(forward, phi=forward.phi_prev,
                                  phi_prev=forward.phi)
    back, _ = oracles.advance(swapped, 49)
    assert np.abs(back.phi - state.phi).max() < 1e-10


def test_second_order_convergence_in_time(p111):
    # evolve to t=1 at (dx, dt) and (dx/2, dt/2); field error vs the exact
    # rotating solution shrinks 4x
    errors = []
    for step_x, step_t in ((0.04, 0.02), (0.02, 0.01)):
        state = _fresh_state(p111, 0.9, step_x=step_x, step_t=step_t)
        ahead, _ = oracles.advance(state, round(1.0 / step_t))
        exact = closed_form_profile(p111, 0.9, ahead.profile.x) \
            * np.exp(-1j * 0.9 * 1.0)
        exact[-1] = 0.0
        errors.append(np.abs(ahead.phi - exact).max())
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.2)


def test_energy_drift_scales_with_dt_squared(p111):
    drifts = []
    for step_t in (0.01, 0.005):
        diag = run(p111, 0.9, "scale:0.01", 5.0, sample_every=100,
                   step_x=0.02, step_t=step_t)
        drifts.append(diag.summary()["relative_energy_drift"])
    assert 2.5 < drifts[0] / drifts[1] < 6.0


def _pow_form_energy(state):
    """``field_energy`` with G(|phi|) as -a |phi|**3 + b |phi|**4."""
    p = state.profile.params
    mag = state.magnitude
    density = (0.5 * np.abs(state.velocity)**2
               + 0.5 * np.abs(state.phi_x)**2
               + 0.5 * p.m * p.m * mag**2
               + (-p.a * mag**3 + p.b * mag**4))
    return 2.0 * soliton.composite_simpson(density, state.profile.step)


@pytest.mark.parametrize("params, omega, perturbation", [
    ((1.0, 1.0, 1.0), 0.9, "bump:0.05"),
    ((1.0, 1.0, math.sqrt(0.55)), 0.45, "scale:0.01"),
    ((1.0, 1.0, 0.7), 0.07, "bump:-0.3"),
])
def test_field_energy_within_1e_14_of_the_pow_form(params, omega,
                                                   perturbation):
    state = _fresh_state(ModelParams(*params), omega, perturbation)
    for _ in range(4):
        reference = _pow_form_energy(state)
        assert abs(field_energy(state) - reference) <= 1e-14 * abs(reference)
        state, _ = oracles.advance(state, 100)


def test_orbital_distance_phase_invariant(p111):
    prof = build_profile(p111, 0.9, 0.02)
    state = init_state(prof, "bump:0.05", 0.01)
    d_base = orbital_distance(state)
    for theta in (0.3, 2.0, -1.1):
        phase = np.exp(1j * theta)
        rotated = dataclasses.replace(state, phi=state.phi * phase,
                                      phi_prev=state.phi_prev * phase)
        d_rot = orbital_distance(rotated)
        assert d_rot == pytest.approx(d_base, rel=1e-10)


def test_orbital_distance_zero_on_phased_exact_data(p111):
    prof = build_profile(p111, 0.9, 0.02)
    state = init_state(prof, "none", 0.01)
    phase = np.exp(1j * 0.77)
    rotated = dataclasses.replace(state, phi=state.phi * phase,
                                  phi_prev=state.phi_prev * phase)
    norm = math.sqrt(2.0 * energy(prof))
    assert orbital_distance(rotated) < 1e-6 * norm


def test_orbital_distance_positive_off_orbit(p111):
    prof = build_profile(p111, 0.9, 0.02)
    state = init_state(prof, "none", 0.01)
    scaled = dataclasses.replace(state, phi=1.5 * state.phi,
                                 phi_prev=1.5 * state.phi_prev)
    assert orbital_distance(scaled) > 0.1


def test_unperturbed_run_stays_on_orbit(p111):
    diag = run(p111, 0.9, "none", 20.0, sample_every=100)
    norm = math.sqrt(2.0 * energy(build_profile(p111, 0.9, 0.02)))
    assert max(diag.orbital_distance) < 1e-4 * norm
    assert diag.summary()["tail_first_exceed"] is None


def test_stable_run_diagnostics(stable_run50):
    summary = stable_run50.summary()
    assert summary["t_final"] == pytest.approx(50.0)
    assert summary["relative_energy_drift"] < 1e-5
    assert summary["relative_charge_drift"] < 1e-10
    assert summary["initial_distance"] == pytest.approx(0.00366, abs=5e-4)
    assert summary["distance_ratio"] < 10.0
    assert summary["first_crossing_100x"] is None
    assert summary["truncated"] is False
    assert summary["tail_first_exceed"] is None
    assert np.all(np.diff(stable_run50.times) > 0.0)


def test_conserved_quantities_match_functional_forms(p111, stable_run50):
    # charge of the scaled start is (1+eps)^2 sigma; energy tracks the
    # profile energy to the perturbation size
    q0 = stable_run50.charge[0]
    assert q0 == pytest.approx(1.01**2 * sigma_closed(p111, 0.9), rel=1e-4)
    e0 = stable_run50.energy[0]
    assert e0 == pytest.approx(energy(build_profile(p111, 0.9, 0.02)),
                               rel=5e-2)


def test_field_functionals_on_exact_data(p111):
    state = _fresh_state(p111, 0.9)
    prof = build_profile(p111, 0.9, 0.02)
    assert field_charge(state) == pytest.approx(sigma_closed(p111, 0.9),
                                                rel=1e-8)
    # the energy uses a 2nd-order gradient for |phi'|^2, so it carries an
    # O(h^2) bias relative to the profile's 4th-order value
    assert field_energy(state) == pytest.approx(energy(prof), rel=5e-3)


def test_run_truncates_on_blow_up(p111):
    diag = run(p111, 0.9, "bump:-200", 1.0, sample_every=10)
    assert diag.truncated is True
    assert diag.truncation_time is not None
    assert diag.truncation_time < 1.0
    summary = diag.summary()
    assert summary["truncated"] is True


def test_guard_trip_on_a_batch_end_truncates(p111):
    # with one step per batch every trip lands on a batch's last step; the
    # truncation time does not depend on the batching
    coarse = run(p111, 0.9, "bump:-200", 1.0, sample_every=10)
    fine = run(p111, 0.9, "bump:-200", 1.0, sample_every=1)
    assert fine.truncated
    assert fine.truncation_time == coarse.truncation_time
    big = run(p111, 0.9, "scale:512", 0.2, sample_every=1, step_x=0.1,
              step_t=0.05)
    assert big.truncated and big.times.size == 1


def test_unstable_regime_distance_grows(p_tau098):
    # tau < 1: every frequency is non-convex and a small perturbation
    # escapes the orbit by two orders of magnitude well before t=30
    diag = run(p_tau098, 0.1, "scale:0.01", 30.0, sample_every=100)
    crossing = diag.summary()["first_crossing_100x"]
    assert crossing is not None
    assert crossing < 30.0


def test_diagnostics_csv_round_trip(p111, tmp_path, capsys):
    out_path = tmp_path / "diag.csv"
    assert cli.main(["evolve", "--a", "1", "--b", "1", "--m", "1",
                     "--omega", "0.9", "--perturb", "scale:0.01",
                     "--t-final", "2", "--out", str(out_path)]) == 0
    capsys.readouterr()
    diag = run(p111, 0.9, "scale:0.01", 2.0)
    lines = out_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["time", "energy", "charge", "orbital_distance",
                      "sup_amplitude"]
    assert len(lines) == len(diag.times) + 1
    columns = (diag.times, diag.energy, diag.charge, diag.orbital_distance,
               diag.sup_amplitude)
    for line, row in zip(lines[1:], zip(*columns)):
        assert [float(tok) for tok in line.split(",")] == list(row)


def test_times_are_whole_steps(p111, p212):
    # the clock is steps * step_t, so no rounding accumulates over a run
    diag = run(p111, 0.9, "scale:0.01", 10.0, sample_every=30)
    steps = np.minimum(np.arange(diag.times.size) * 30, 1000)
    assert np.array_equal(diag.times, steps * 0.01)
    assert diag.summary()["t_final"] == 1000 * 0.01
    cut = run(p111, 0.9, "scale:500", 1.0, sample_every=10)
    assert cut.truncated and cut.truncation_time == 34 * 0.01
    tail = run(p212, 1.5, "bump:0.5", 30.0, sample_every=20, step_x=0.03,
               extra_half_length=0.0)
    assert tail.tail_first_exceed == 2240 * 0.01


def test_state_exposes_grid(p111):
    # the field lives on its profile's lattice, and only there
    prof = build_profile(p111, 0.9, 0.02)
    state = init_state(prof, "none", 0.01)
    assert isinstance(state, FieldState)
    assert state.profile is prof
    assert state.phi.shape == state.phi_prev.shape == prof.values.shape
    with pytest.raises(ValueError, match="lattice"):
        dataclasses.replace(state, phi=state.phi[:-2],
                            phi_prev=state.phi_prev[:-2])


def test_state_phi_x_vanishes_at_centre(p111):
    state = _fresh_state(p111, 0.9, "bump:0.3")
    assert state.phi_x[0] == 0.0
    assert state.phi_x is state.phi_x  # computed once per state
    interior = np.gradient(state.phi, state.profile.step)[1:]
    assert np.array_equal(state.phi_x[1:], interior)


def test_state_magnitude_is_shared(p111):
    state = _fresh_state(p111, 0.9, "bump:0.3")
    assert state.magnitude is state.magnitude  # computed once per state
    assert np.array_equal(state.magnitude, np.abs(state.phi))


def test_batching_leaves_no_trace_in_the_bits(p111):
    # the kernel swaps its levels every step; how a run is cut into batches,
    # odd or even, must not show in the levels or in the samples
    state = _fresh_state(p111, 0.9, "bump:0.05")
    split, _ = oracles.advance(oracles.advance(state, 3)[0], 4)
    whole, _ = oracles.advance(state, 7)
    assert split.steps == whole.steps == 7
    assert split.phi.tobytes() == whole.phi.tobytes()
    assert split.phi_prev.tobytes() == whole.phi_prev.tobytes()
    kwargs = dict(step_x=0.05, step_t=0.02)
    fine = run(p111, 0.9, "bump:0.05", 2.0, sample_every=1, **kwargs)
    coarse = run(p111, 0.9, "bump:0.05", 2.0, sample_every=50, **kwargs)
    shared = np.isin(fine.times, coarse.times)
    assert np.array_equal(fine.times[shared], coarse.times)
    for key in ("energy", "charge", "orbital_distance", "sup_amplitude"):
        got, want = getattr(fine, key)[shared], getattr(coarse, key)
        assert got.tobytes() == want.tobytes(), key


def _assert_within(diag, ref, norm_v, rel, d2_rel):
    """A stated tolerance between two runs' diagnostics: equal times, flags
    and event times; energy, charge and sup amplitude within ``rel``
    relative; squared distances within ``d2_rel`` of the orbit's squared
    norm ``norm_v``."""
    assert np.array_equal(diag.times, ref["times"])
    assert diag.truncated == ref["truncated"]
    assert diag.truncation_time == ref["truncation_time"]
    assert diag.tail_first_exceed == ref["tail_first_exceed"]
    for key in ("energy", "charge", "sup_amplitude"):
        got, want = getattr(diag, key), ref[key]
        assert np.all(np.abs(got - want) <= rel * np.abs(want)), key
    # d is the square root of a cancelling difference: compare d^2 on the
    # scale of the orbit's own squared norm
    gap = np.abs(diag.orbital_distance**2 - ref["orbital_distance"]**2)
    assert gap.max() <= d2_rel * norm_v


def _assert_matches_full_grid(diag, ref):
    # the stated tolerance of the half-line path against the full grid
    _assert_within(diag, ref, ref["norm_v"], 1e-12, 1e-12)


@pytest.mark.parametrize("step_x, rounded_up", [(0.02, 0), (0.03, 1)])
@pytest.mark.parametrize("perturbation", ["scale:0.01", "bump:0.01", "none"])
def test_half_line_matches_full_grid_run(p111, perturbation, step_x,
                                         rounded_up, monkeypatch):
    # the interval count is even, as the profile's: ceil(20/0.03) = 667
    # margin intervals gain one node at the Dirichlet end
    caught = _spy_init_state(monkeypatch)
    diag = run(p111, 0.9, perturbation, 10.0, sample_every=50,
               step_x=step_x)
    n_int = caught[0].phi.size - 1
    bare = build_profile(p111, 0.9, step_x)
    assert n_int % 2 == 0
    assert n_int == (round(bare.half_length / step_x)
                     + math.ceil(20.0 / step_x) + rounded_up)
    ref = oracles.full_grid_run(p111, 0.9, perturbation, 10.0,
                                sample_every=50, step_x=step_x)
    _assert_matches_full_grid(diag, ref)


def test_half_line_matches_full_grid_truncation(p111):
    diag = run(p111, 0.9, "bump:-200", 1.0, sample_every=10)
    ref = oracles.full_grid_run(p111, 0.9, "bump:-200", 1.0, sample_every=10)
    assert diag.truncated
    _assert_matches_full_grid(diag, ref)


def test_half_line_matches_full_grid_tail_sensor(p212):
    # no margin beyond the profile: the bump's radiation trips the sensor
    kwargs = dict(sample_every=20, step_x=0.03, extra_half_length=0.0)
    diag = run(p212, 1.5, "bump:0.5", 30.0, **kwargs)
    ref = oracles.full_grid_run(p212, 1.5, "bump:0.5", 30.0, **kwargs)
    assert diag.tail_first_exceed is not None
    _assert_matches_full_grid(diag, ref)


# The kernel's regrouped step against the index-order step it replaced
# (``oracles.leapfrog_steps``, bitwise the earlier kernel), over whole runs.
# Worst cases measured on the evolve benchmark's jobs (seeds 1-3) and the
# runs below: 6.9e-13 relative, and 1.8e-13 of the orbit's squared norm
# (the tail-sensor run, whose distance is largest).
_REGROUPED_REL = 2e-12
_REGROUPED_D2 = 1e-12

# The evolve benchmark's grids (perfbench/workloads.py: EVOLVE_DX,
# EVOLVE_DT, PERTURB_EPS) and its three jobs at seed 1, with the waves that
# seed draws written out
_BENCH_GRID = dict(step_x=0.02, step_t=0.01)

_GATE_RUNS = {
    "truncating": (ModelParams(1.0, 1.0, 1.0), 0.9, "bump:-200", 1.0,
                   dict(sample_every=10)),
    "tail-sensor": (ModelParams(2.0, 1.0, 2.0), 1.5, "bump:0.5", 30.0,
                    dict(sample_every=20, step_x=0.03,
                         extra_half_length=0.0)),
    "every-1": (ModelParams(1.0, 1.0, 1.0), 0.9, "scale:0.01", 2.0,
                dict(sample_every=1, step_x=0.03)),
    "every-7": (ModelParams(1.0, 1.0, 1.0), 0.9, "bump:0.01", 10.0,
                dict(sample_every=7, step_x=0.03)),
    "coarse-stable-scale": (
        ModelParams(1.1055098475906455, 0.90905091549796, 1.0694867473874465),
        0.9766278220680485, "scale:0.001", 50.0,
        dict(sample_every=50, **_BENCH_GRID)),
    "coarse-mixed-bump": (
        ModelParams(0.9797964259154952, 0.5063436713160783,
                    0.9990870174183882),
        0.8989854661639257, "bump:0.001", 50.0,
        dict(sample_every=50, **_BENCH_GRID)),
    "dense-stable-scale": (
        ModelParams(0.9731068271620213, 0.6413111532569543, 1.067153020783974),
        0.9740716450900112, "scale:0.001", 10.0,
        dict(sample_every=5, **_BENCH_GRID)),
}


@pytest.mark.parametrize("name", list(_GATE_RUNS))
def test_run_within_tolerance_of_index_order_kernel(name, monkeypatch):
    p, omega, perturbation, t_final, kwargs = _GATE_RUNS[name]
    caught = _spy_init_state(monkeypatch)
    diag = run(p, omega, perturbation, t_final, **kwargs)
    norm_v = caught[0]._fields.norm  # the orbit's squared norm
    with monkeypatch.context() as patch:
        patch.setattr(evolve._kernels, "leapfrog_steps",
                      oracles.leapfrog_steps)
        ref = dataclasses.asdict(run(p, omega, perturbation, t_final,
                                     **kwargs))
    _assert_within(diag, ref, norm_v, _REGROUPED_REL, _REGROUPED_D2)
    assert diag.truncated == (name == "truncating")
    assert (diag.tail_first_exceed is not None) == (name == "tail-sensor")


# The sampler's weighted dot products against the earlier composite-Simpson
# diagnostics (``oracles.sampled_run``) on the same levels.  Worst cases
# measured on these runs, the evolve benchmark's jobs (seeds 1-3) and the
# states below: 7.1e-15 relative on energy (a tau < 1 run, whose energy is
# 8x smaller than its terms), 1.2e-15 on charge, and 5.5e-15 of the orbit's
# squared norm on d^2 (a bump of 0.49).  Sup amplitudes, times and events
# are the same bits.
_SAMPLED_REL = 1e-14
_SAMPLED_D2 = 1e-14


def _assert_sampled_like(diag, ref):
    _assert_within(diag, ref, ref["norm_v"], _SAMPLED_REL, _SAMPLED_D2)
    assert diag.times.tobytes() == ref["times"].tobytes()
    assert diag.sup_amplitude.tobytes() == ref["sup_amplitude"].tobytes()


@pytest.mark.parametrize("name", list(_GATE_RUNS))
def test_run_within_tolerance_of_composite_simpson_samples(name,
                                                           monkeypatch):
    p, omega, perturbation, t_final, kwargs = _GATE_RUNS[name]
    caught = _spy_init_state(monkeypatch)
    diag = run(p, omega, perturbation, t_final, **kwargs)
    ref = oracles.sampled_run(caught[0], t_final, kwargs["sample_every"])
    _assert_sampled_like(diag, ref)


_WAVES = [(p, omega) for p, omega, *_ in _GATE_RUNS.values()] + [
    (ModelParams(1.0, 1.0, math.sqrt(0.55)), 0.45),
    (ModelParams(1.0, 1.0, 0.7), 0.07),
]


@settings(max_examples=40)
@given(wave=st.sampled_from(_WAVES), kind=st.sampled_from(["scale", "bump"]),
       eps=st.floats(-0.5, 0.5), steps=st.integers(0, 80))
def test_sampler_within_tolerance_of_composite_simpson(wave, kind, eps,
                                                       steps):
    p, omega = wave
    prof = build_profile(p, omega, 0.05)
    state, _ = oracles.advance(init_state(prof, f"{kind}:{eps!r}", 0.02),
                               steps)
    energy, charge, distance, sup, tail = evolve._Sampler(prof, 0.02)(
        state.phi, state.phi_prev)
    want = oracles.field_energy(state)
    assert abs(energy - want) <= _SAMPLED_REL * abs(want)
    want = oracles.field_charge(state)
    assert abs(charge - want) <= _SAMPLED_REL * abs(want)
    want = oracles.orbital_distance(state)
    norm_v = oracles.orbit(prof)["norm"]
    assert abs(distance**2 - want**2) <= _SAMPLED_D2 * norm_v
    mag = oracles.magnitude(state)
    assert sup == float(mag.max())
    assert tail == float(mag[prof.x >= prof.half_length - 5.0].max())


@pytest.mark.parametrize("perturbation, batches", [
    ("none", (0, 1, 6)), ("bump:-200", (0, 1, 6)), ("scale:1e300", (0,))])
def test_state_fields_are_the_earlier_bits(p111, perturbation, batches):
    # psi and phi_x come from the sampler's buffers by the operations of
    # field_acceleration and np.gradient; the huge start overflows in them
    state = _fresh_state(p111, 0.9, perturbation)
    for steps in batches:
        ahead, _ = oracles.advance(state, steps)
        for field in ("velocity", "phi_x", "magnitude"):
            got, want = getattr(ahead, field), getattr(oracles, field)(ahead)
            assert got.tobytes() == want.tobytes(), field


def test_run_steps_one_pair_of_levels_in_place(p111, monkeypatch):
    # every batch steps the same two arrays; the initial state keeps its own
    levels = []
    kernel = evolve._kernels.leapfrog_steps

    def spy(phi, phi_prev, *args):
        levels.append((phi, phi_prev))
        return kernel(phi, phi_prev, *args)

    caught = _spy_init_state(monkeypatch)
    monkeypatch.setattr(evolve._kernels, "leapfrog_steps", spy)
    run(p111, 0.9, "bump:0.05", 1.0, sample_every=30)
    assert len(levels) == 4
    assert all(pair[0] is levels[0][0] and pair[1] is levels[0][1]
               for pair in levels)
    assert not np.shares_memory(levels[0][0], caught[0].phi)
    assert not np.shares_memory(levels[0][1], caught[0].phi_prev)


def test_run_distance_equals_public_orbital_distance(p111, monkeypatch):
    caught = _spy_init_state(monkeypatch)
    diag = run(p111, 0.9, "bump:0.05", 0.5, sample_every=50)
    state = caught[0]
    assert diag.orbital_distance[0] == orbital_distance(state)
    ahead, _ = oracles.advance(state, 50)
    assert diag.orbital_distance[1] == orbital_distance(ahead)


def test_run_margin_carries_the_profile(p111, monkeypatch):
    # run widens the profile itself, so R on the margin is the closed form
    # and not an interpolated zero: no node short of the Dirichlet end is 0
    caught = _spy_init_state(monkeypatch)
    built = []

    def counted(*args, **kwargs):
        built.append(build_profile(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(evolve, "build_profile", counted)
    run(p111, 0.9, "none", 0.1, step_x=0.03)
    state = caught[0]
    assert built == [state.profile]  # one profile per run, the one stepped
    bare = build_profile(p111, 0.9, 0.03)
    assert state.profile.half_length >= bare.half_length + 20.0
    expected = closed_form_profile(p111, 0.9, state.profile.x)
    assert np.array_equal(state.phi.real[:-1], expected[:-1])
    assert np.count_nonzero(state.phi) == state.phi.size - 1
    assert state.phi[-1] == 0.0


def test_run_rejects_bad_extra_half_length(p111):
    for extra in (-1.0, math.inf, math.nan, 1e9):
        with pytest.raises(GridError):
            run(p111, 0.9, "none", 0.1, extra_half_length=extra)


def test_step_budget(p111, monkeypatch):
    tracemalloc.start()
    try:
        for t_final in (1e300, 10_000.01):
            with pytest.raises(DomainError, match="steps"):
                run(p111, 0.9, "none", t_final)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before the grid is built
    # the budget counts the steps a run takes: exactly at it is accepted
    monkeypatch.setattr(evolve, "MAX_STEPS", 20)
    assert run(p111, 0.9, "none", 0.2, sample_every=10).times[-1] \
        == pytest.approx(0.2)
    with pytest.raises(DomainError):
        run(p111, 0.9, "none", 0.21, sample_every=10)


def test_node_budget_before_allocation(p111):
    near_edge = 1.0 - 1e-8  # about 2.8e7 nodes on x >= 0 at h = 0.01
    tracemalloc.start()
    try:
        with pytest.raises(GridError, match="budget"):
            build_profile(p111, near_edge, 0.01)
        with pytest.raises(GridError, match="budget"):
            run(p111, near_edge, "none", 1.0, step_x=0.01, step_t=0.005)
        with pytest.raises(GridError, match="budget"):
            run(p111, 0.9, "none", 1.0, extra_half_length=1e6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# inputs whose t = 0 energy is not finite, or whose field is zero
_DEGENERATE = ["scale:1e300", "bump:1e200", "scale:-1"]


@pytest.mark.parametrize("perturbation", _DEGENERATE)
def test_degenerate_initial_data_refused(p111, perturbation):
    with pytest.raises(DomainError, match="perturbation"):
        run(p111, 0.9, perturbation, 0.1)


def test_distance_of_non_finite_state_is_nan(p111):
    prof = build_profile(p111, 0.9, 0.02)
    state = init_state(prof, "none", 0.01)
    for bad in (math.nan, math.inf):
        broken = dataclasses.replace(state, phi=state.phi + bad)
        assert math.isnan(orbital_distance(broken))


def test_public_calls_on_huge_data_are_quiet(p111):
    # overflow to inf or NaN is reported by the values, not by warnings
    prof = build_profile(p111, 0.9, 0.1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state = init_state(prof, "scale:1e300", 0.05)
        state.velocity, state.magnitude  # read outside the diagnostics
        values = (field_energy(state), field_charge(state),
                  orbital_distance(state))
    assert caught == []
    assert not all(map(math.isfinite, values))


@settings(max_examples=60)
@given(kind=st.sampled_from(["scale", "bump"]),
       magnitude=st.floats(0.0, 1e300), sign=st.sampled_from([1.0, -1.0]))
def test_run_finite_or_domain_error(kind, magnitude, sign):
    p = ModelParams(1.0, 1.0, 1.0)
    try:
        diag = run(p, 0.9, f"{kind}:{sign * magnitude!r}", 0.2,
                   sample_every=1, step_x=0.1, step_t=0.05)
    except DomainError:
        return
    for series in (diag.times, diag.energy, diag.charge,
                   diag.orbital_distance, diag.sup_amplitude):
        assert np.all(np.isfinite(series))
    summary = diag.summary()
    assert all(math.isfinite(value) for value in summary.values()
               if isinstance(value, float))
