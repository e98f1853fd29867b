import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kgstab import (CFLError, DomainError, FieldState, GridError, ModelParams,
                    build_profile, closed_form_profile, composite_simpson,
                    energy, evolve, field_charge, field_energy, init_state,
                    orbital_distance, parse_perturbation, run, sigma_closed)
from kgstab.evolve import _advance, _integral


def _fresh_state(p, omega, perturbation="none", step_x=0.02, step_t=0.01):
    prof = build_profile(p, omega, step_x)
    return init_state(prof, perturbation, step_t)


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
    expected = closed_form_profile(p111, 0.9, state.x)
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
    later, _ = _advance(state, 37)
    ahead, _ = _advance(later, 1)
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
    d0 = orbital_distance(state, prof, 0.9)
    norm = math.sqrt(2.0 * energy(prof))
    assert d0 < 1e-6 * norm


def test_zero_field_stays_zero(p111):
    state = _fresh_state(p111, 0.9)
    zero = dataclasses.replace(
        state, phi=np.zeros_like(state.phi),
        phi_prev=np.zeros_like(state.phi_prev))
    ahead, taken = _advance(zero, 10)
    assert taken == 10
    assert np.abs(ahead.phi).max() == 0.0


def test_single_step_phase_accuracy(p111):
    state = _fresh_state(p111, 0.9)
    ahead, _ = _advance(state, 1)
    exact = state.phi * np.exp(-1j * 0.9 * state.step_t)
    # the centre and the interior; the boundary pins a ~1e-12 amplitude to
    # zero
    gap = np.abs(ahead.phi[:-1] - exact[:-1]).max()
    assert gap < 2e-8


def test_time_reversal_symmetry(p111):
    state = _fresh_state(p111, 0.9)
    forward, taken = _advance(state, 50)
    assert taken == 50
    swapped = dataclasses.replace(forward, phi=forward.phi_prev,
                                  phi_prev=forward.phi)
    back, _ = _advance(swapped, 49)
    assert np.abs(back.phi - state.phi).max() < 1e-10


def test_second_order_convergence_in_time(p111):
    # evolve to t=1 at (dx, dt) and (dx/2, dt/2); field error vs the exact
    # rotating solution shrinks 4x
    errors = []
    for step_x, step_t in ((0.04, 0.02), (0.02, 0.01)):
        state = _fresh_state(p111, 0.9, step_x=step_x, step_t=step_t)
        ahead, _ = _advance(state, round(1.0 / step_t))
        exact = closed_form_profile(p111, 0.9, ahead.x) \
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


def test_orbital_distance_phase_invariant(p111):
    prof = build_profile(p111, 0.9, 0.02)
    state = init_state(prof, "bump:0.05", 0.01)
    d_base = orbital_distance(state, prof, 0.9)
    for theta in (0.3, 2.0, -1.1):
        phase = np.exp(1j * theta)
        rotated = dataclasses.replace(state, phi=state.phi * phase,
                                      phi_prev=state.phi_prev * phase)
        d_rot = orbital_distance(rotated, prof, 0.9)
        assert d_rot == pytest.approx(d_base, rel=1e-10)


def test_orbital_distance_zero_on_phased_exact_data(p111):
    prof = build_profile(p111, 0.9, 0.02)
    state = init_state(prof, "none", 0.01)
    phase = np.exp(1j * 0.77)
    rotated = dataclasses.replace(state, phi=state.phi * phase,
                                  phi_prev=state.phi_prev * phase)
    norm = math.sqrt(2.0 * energy(prof))
    assert orbital_distance(rotated, prof, 0.9) < 1e-6 * norm


def test_orbital_distance_positive_off_orbit(p111):
    prof = build_profile(p111, 0.9, 0.02)
    state = init_state(prof, "none", 0.01)
    scaled = dataclasses.replace(state, phi=1.5 * state.phi,
                                 phi_prev=1.5 * state.phi_prev)
    assert orbital_distance(scaled, prof, 0.9) > 0.1


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


def test_diagnostics_csv_round_trip(stable_run50):
    stream = io.StringIO()
    stable_run50.to_csv(stream)
    lines = stream.getvalue().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["time", "energy", "charge", "orbital_distance",
                      "sup_amplitude"]
    assert len(lines) == len(stable_run50.times) + 1
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == stable_run50.times[0]
    assert first[1] == stable_run50.energy[0]


def test_state_exposes_grid(p111):
    state = _fresh_state(p111, 0.9)
    assert isinstance(state, FieldState)
    assert state.x.size == state.phi.size
    assert state.x[0] == 0.0
    assert state.x[-1] == state.half_length


@pytest.mark.parametrize("n_nodes", [2, 3, 4, 5, 1000, 1001])
def test_folded_simpson_equals_full_grid(n_nodes):
    # the half-line sum is the full-grid composite Simpson of the even
    # extension, for an even and an odd interval count N = n_nodes - 1
    rng = np.random.default_rng(n_nodes)
    half = rng.normal(size=n_nodes) + 1j * rng.normal(size=n_nodes)
    full = np.concatenate((half[:0:-1], half))
    want = composite_simpson(full, 0.03)
    assert abs(_integral(half, 0.03) - want) <= 1e-13 * abs(want)
    want_real = composite_simpson(full.real, 0.03)
    got_real = _integral(half.real, 0.03)
    assert isinstance(got_real, float)
    assert abs(got_real - want_real) <= 1e-13 * abs(want_real)


def test_state_phi_x_vanishes_at_centre(p111):
    state = _fresh_state(p111, 0.9, "bump:0.3")
    assert state.phi_x[0] == 0.0
    assert state.phi_x is state.phi_x  # computed once per state
    interior = np.gradient(state.phi, state.step_x)[1:]
    assert np.array_equal(state.phi_x[1:], interior)


def _assert_matches_full_grid(diag, ref):
    # the stated tolerance of the half-line path against the full grid
    assert np.array_equal(diag.times, ref["times"])
    assert diag.truncated == ref["truncated"]
    assert diag.truncation_time == ref["truncation_time"]
    assert diag.tail_first_exceed == ref["tail_first_exceed"]
    for key in ("energy", "charge", "sup_amplitude"):
        got, want = getattr(diag, key), ref[key]
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), key
    # d is the square root of a cancelling difference: compare d^2 on the
    # scale of the orbit's own squared norm
    gap = np.abs(diag.orbital_distance**2 - ref["orbital_distance"]**2)
    assert gap.max() <= 1e-12 * ref["norm_v"]


@pytest.mark.parametrize("step_x, n_parity", [(0.02, 0), (0.03, 1)])
@pytest.mark.parametrize("perturbation", ["scale:0.01", "bump:0.01", "none"])
def test_half_line_matches_full_grid_run(p111, perturbation, step_x,
                                         n_parity):
    state = _fresh_state(p111, 0.9, step_x=step_x)
    assert (state.phi.size - 1) % 2 == n_parity  # even and odd N
    diag = run(p111, 0.9, perturbation, 10.0, sample_every=50,
               step_x=step_x)
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


def test_run_distance_equals_public_orbital_distance(p111):
    prof = build_profile(p111, 0.9, 0.02)
    state = init_state(prof, "bump:0.05", 0.01)
    diag = run(p111, 0.9, "bump:0.05", 0.5, sample_every=50)
    assert diag.orbital_distance[0] == orbital_distance(state, prof, 0.9)
    ahead, _ = _advance(state, 50)
    assert diag.orbital_distance[1] == orbital_distance(ahead, prof, 0.9)


def test_init_state_rejects_bad_extra_half_length(p111):
    prof = build_profile(p111, 0.9, 0.02)
    for extra in (-1.0, math.inf, math.nan, 1e9):
        with pytest.raises(GridError):
            init_state(prof, "none", 0.01, extra_half_length=extra)


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
    prof = build_profile(p111, 0.9, 0.02)
    near_edge = 1.0 - 1e-8  # about 2.8e7 nodes on x >= 0 at h = 0.01
    tracemalloc.start()
    try:
        with pytest.raises(GridError, match="budget"):
            build_profile(p111, near_edge, 0.01)
        with pytest.raises(GridError, match="budget"):
            run(p111, near_edge, "none", 1.0, step_x=0.01, step_t=0.005)
        with pytest.raises(GridError, match="budget"):
            init_state(prof, "none", 0.01, extra_half_length=1e6)
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
        with np.errstate(invalid="ignore"):  # inf - inf in the velocity
            assert math.isnan(orbital_distance(broken, prof, 0.9))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
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
