import math
import tracemalloc

import numpy as np
import pytest

import oracles
from kgstab import (DomainError, GridError, ModelParams, build_profile,
                    charge, closed_form_profile, closed_form_slope,
                    composite_simpson, d_second_numeric, energy, r_star,
                    sigma_closed, soliton)


def test_closed_form_at_origin_equals_peak_amplitude(p111):
    assert closed_form_profile(p111, 0.9, 0.0) == pytest.approx(
        r_star(p111, 0.9), rel=1e-14)
    oracle = oracles.peak_amplitude_by_bisection(1, 1, 1, 0.9)
    assert closed_form_profile(p111, 0.9, 0.0) == pytest.approx(oracle,
                                                                rel=1e-10)


def test_closed_form_point_value(p111):
    # c = 0.19, sqrt(1 - alpha^2) = 0.787401, cosh(sqrt(c)) = 1.096517
    c = 0.19
    beta = math.sqrt(1.0 - 0.38)
    expected = (c / 1.0) / (1.0 + beta * math.cosh(math.sqrt(c)))
    assert closed_form_profile(p111, 0.9, 1.0) == pytest.approx(expected,
                                                                rel=1e-15)
    assert expected == pytest.approx(0.10196438297013025, rel=1e-13)


def test_closed_form_matches_ode_integration(p111):
    # high-order integration of the defining ODE from (R(0), 0)
    xs, ode_values = oracles.rk4_profile(1, 1, 1, 0.8, 10.0, 10_000)
    closed = closed_form_profile(p111, 0.8, xs)
    assert float(np.abs(closed - ode_values).max()) < 1e-7


def test_closed_form_decays_exponentially(p111):
    rate = math.sqrt(0.19)
    for x in (40.0, 50.0, 60.0):
        ratio = closed_form_profile(p111, 0.9, x + 1.0) \
            / closed_form_profile(p111, 0.9, x)
        assert ratio == pytest.approx(math.exp(-rate), rel=1e-6)
    # far field stays finite and tiny instead of overflowing cosh
    assert 0.0 <= closed_form_profile(p111, 0.9, 5000.0) < 1e-300


def test_closed_form_rejects_outside_window(p111):
    with pytest.raises(DomainError):
        closed_form_profile(p111, 0.5, 0.0)
    with pytest.raises(DomainError):
        closed_form_slope(p111, 1.5, 0.0)


def test_slope_matches_finite_difference(p111):
    h = 1e-6
    for x in (0.3, 1.0, 4.0, -2.0):
        fd = (closed_form_profile(p111, 0.9, x + h)
              - closed_form_profile(p111, 0.9, x - h)) / (2.0 * h)
        assert closed_form_slope(p111, 0.9, x) == pytest.approx(fd, abs=1e-9)
    assert closed_form_slope(p111, 0.9, 0.0) == 0.0


def test_build_profile_default_extent(p111):
    prof = build_profile(p111, 0.9, 0.01)
    assert prof.half_length == pytest.approx(40.0 / math.sqrt(0.19), rel=1e-3)
    assert prof.values[0] == pytest.approx(r_star(p111, 0.9), rel=1e-10)
    assert prof.values.size == round(prof.half_length / prof.step) + 1
    assert prof.x[1] - prof.x[0] == pytest.approx(0.01, rel=1e-12)


def test_build_profile_values_strictly_decreasing(p111):
    prof = build_profile(p111, 0.9, 0.01)
    assert np.all(np.diff(prof.values) < 0.0)


def test_build_profile_tail_below_tolerance(p111):
    prof = build_profile(p111, 0.9, 0.01, tail_tol=1e-12)
    assert prof.values[-1] < 1e-12 * prof.values[0]


def test_build_profile_stretches_for_a_tight_tail(p111):
    # 5 - ln(1e-20) = 51.1 decay lengths, beyond the default 40
    prof = build_profile(p111, 0.9, 0.02, tail_tol=1e-20)
    default = build_profile(p111, 0.9, 0.02)
    assert default.half_length == pytest.approx(91.8, abs=1e-9)
    assert prof.half_length == pytest.approx(117.16, abs=1e-9)
    assert prof.values[-1] < 1e-20 * prof.values[0]


def test_build_profile_rejects_short_domain(p111):
    with pytest.raises(GridError):
        build_profile(p111, 0.9, 0.01, half_length=10.0)


def test_build_profile_rejects_bad_grid(p111):
    with pytest.raises(GridError):
        build_profile(p111, 0.9, -0.01)
    with pytest.raises(GridError):
        build_profile(p111, 0.9, 0.01, tail_tol=2.0)
    for half_length in (0.0, math.inf, math.nan):
        with pytest.raises(GridError):
            build_profile(p111, 0.9, 0.01, half_length=half_length)


def test_build_profile_node_budget(p111, monkeypatch):
    tracemalloc.start()
    try:
        # about 2.8e7 nodes, and a length/step ratio that overflows to inf
        for omega, step in ((1.0 - 1e-8, 0.01), (0.9, 1e-320)):
            with pytest.raises(GridError, match="budget"):
                build_profile(p111, omega, step)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before the grid is allocated
    # the budget counts length / step: a grid right at it is built
    monkeypatch.setattr(soliton, "MAX_NODES", 2000)
    assert build_profile(p111, 0.9, 0.05, half_length=100.0).values.size \
        == 2001
    with pytest.raises(GridError, match="budget"):
        build_profile(p111, 0.9, 0.05, half_length=100.05)


def test_first_integral_identity(p111):
    # R'^2 = (m^2 - omega^2) R^2 + 2G(R) pointwise, R' by centered differences
    prof = build_profile(p111, 0.9, 0.01)
    r = prof.values
    h = prof.step
    slope = (r[2:] - r[:-2]) / (2.0 * h)
    mid = r[1:-1]
    g = -mid**3 + mid**4
    residual = np.abs(slope**2 - 0.19 * mid**2 - 2.0 * g)
    assert float(residual.max()) < 1e-6 * r[0] ** 2


def test_ode_residual_metadata_scales_with_grid(p111):
    coarse = build_profile(p111, 0.9, 0.02)
    fine = build_profile(p111, 0.9, 0.01)
    assert coarse.max_ode_residual / fine.max_ode_residual == pytest.approx(
        4.0, rel=0.1)


def test_composite_simpson_requires_odd_count():
    with pytest.raises(GridError):
        composite_simpson(np.ones(10), 0.1)
    # exact for cubics
    x = np.linspace(0.0, 1.0, 11)
    assert composite_simpson(x**3, 0.1) == pytest.approx(0.25, rel=1e-14)


def test_charge_matches_closed_form_sigma(p111):
    prof = build_profile(p111, 0.9, 0.005)
    q = charge(prof)
    assert q == pytest.approx(sigma_closed(p111, 0.9), rel=1e-6)
    assert q > 0.0


def test_charge_insensitive_to_extra_tail(p111):
    base = charge(build_profile(p111, 0.9, 0.01))
    wide = charge(build_profile(p111, 0.9, 0.01,
                                half_length=2.0 * 40.0 / math.sqrt(0.19)))
    assert abs(wide - base) < 1e-12 * abs(base)


def test_charge_positive_across_window(p111):
    window = p111.window
    for frac in np.linspace(0.1, 0.9, 9):
        omega = window.omega_star + frac * window.width
        assert charge(build_profile(p111, omega, 0.01)) > 0.0


def test_charge_vanishes_toward_upper_endpoint(p111):
    near_edge = charge(build_profile(p111, p111.m - 1e-3, 0.01))
    midwindow = charge(build_profile(p111, 0.85, 0.01))
    assert near_edge < midwindow


def test_build_profile_rejects_an_unresolved_profile():
    # sqrt(c) h is about 0.5: the centered second difference misses the
    # closed form's curvature by more than 10 h^2 R(0)
    with pytest.raises(GridError, match="ODE residual"):
        build_profile(ModelParams(10.0, 0.5, 10.0), 1.0, 0.05)


def test_energy_needs_five_nodes(p111):
    profile = soliton.SolitonProfile(
        omega=0.9, params=p111, half_length=0.1, step=0.05,
        values=closed_form_profile(p111, 0.9, np.array([0.0, 0.05, 0.1])),
        max_ode_residual=0.0)
    with pytest.raises(GridError, match="at least 5 points"):
        energy(profile)


def test_energy_d_identity(p111):
    # d(omega) = E - omega Q has d' = -Q; check by centered differences
    h_w = 1e-3

    def d_of(w):
        prof = build_profile(p111, w, 0.005)
        return energy(prof) - w * charge(prof)

    slope = (d_of(0.9 + h_w) - d_of(0.9 - h_w)) / (2.0 * h_w)
    q = charge(build_profile(p111, 0.9, 0.005))
    assert slope == pytest.approx(-q, rel=1e-4)
    assert d_of(0.9) > 0.0


def test_energy_within_1e_14_of_the_pow_form(p111, p_tau11, p_tau098):
    # energy() with G(R) as -a R**3 + b R**4
    for p, omega in ((p111, 0.9), (p_tau11, 0.45), (p_tau098, 0.07)):
        prof = build_profile(p, omega, 0.01)
        r, h = prof.values, prof.step
        norm2 = 2.0 * composite_simpson(r**2, h)
        grad2 = 2.0 * composite_simpson(soliton._derivative(r, h)**2, h)
        g_int = 2.0 * composite_simpson(-p.a * r**3 + p.b * r**4, h)
        reference = (0.5 * omega * omega * norm2 + 0.5 * grad2
                     + 0.5 * p.m * p.m * norm2 + g_int)
        assert abs(energy(prof) - reference) <= 1e-14 * abs(reference)


def test_energy_grid_converged(p111):
    coarse = energy(build_profile(p111, 0.9, 0.005))
    fine = energy(build_profile(p111, 0.9, 0.0025))
    assert abs(coarse - fine) < 1e-8 * abs(fine)


def test_quadrature_fourth_order_convergence(p111):
    # the derivative term in the energy converges at 4th order: errors
    # shrink ~16x per grid halving (coarse grids keep them above rounding)
    ref = energy(build_profile(p111, 0.9, 0.0125))
    err = [abs(energy(build_profile(p111, 0.9, h)) - ref)
           for h in (0.2, 0.1, 0.05)]
    assert 10.0 < err[0] / err[1] < 22.0
    assert 10.0 < err[1] / err[2] < 22.0
    # the charge integrand is smooth and even with flat tails, so its
    # quadrature error sits at rounding level even on coarse grids
    ref_q = charge(build_profile(p111, 0.9, 0.0125))
    assert abs(charge(build_profile(p111, 0.9, 0.2)) - ref_q) < 1e-13


def test_observables_match_even_extension(p111):
    # integrating over [-L, L] directly equals doubling the half-line value
    prof = build_profile(p111, 0.9, 0.01)
    full_r = np.concatenate([prof.values[::-1], prof.values[1:]])
    full_norm = composite_simpson(full_r**2, prof.step)
    half_norm = 2.0 * composite_simpson(prof.values**2, prof.step)
    assert full_norm == pytest.approx(half_norm, rel=1e-13)
    assert charge(prof) == pytest.approx(prof.omega * full_norm, rel=1e-13)


def test_d_second_positive_in_convex_regime(p111):
    assert d_second_numeric(p111, 0.9) > 0.0


def test_d_second_matches_charge_slope(p111):
    # d'' = -sigma' with sigma = omega ||R||^2, both over d_second_numeric's
    # step of 1e-3 window widths
    h_w = 1e-3 * p111.window.width
    qp = charge(build_profile(p111, 0.9 + h_w, 0.005))
    qm = charge(build_profile(p111, 0.9 - h_w, 0.005))
    slope = -(qp - qm) / (2.0 * h_w)
    assert d_second_numeric(p111, 0.9) == pytest.approx(slope, rel=1e-3)


def test_d_second_sign_tracks_sigma_slope_at_many_points(p111, p112):
    rng = np.random.default_rng(42)
    h_w = 1e-4
    for p in (p111, p112):
        window = p.window
        for frac in rng.uniform(0.1, 0.9, 10):
            omega = window.omega_star + frac * window.width
            qp = charge(build_profile(p, omega + h_w, 0.005))
            qm = charge(build_profile(p, omega - h_w, 0.005))
            sigma_slope = (qp - qm) / (2.0 * h_w)
            d2 = d_second_numeric(p, omega)
            assert d2 * (-sigma_slope) > 0.0


def test_d_second_stencil_must_fit_window(p111):
    with pytest.raises(DomainError, match="stencil"):
        d_second_numeric(p111, p111.m - 1e-5)
