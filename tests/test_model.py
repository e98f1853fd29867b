import math

import numpy as np
import pytest

import oracles
from kgstab import (DomainError, ModelParams, TridiagonalOperator,
                    alpha_of_omega, g_potential, g_prime_over_s, g_second,
                    lowest_eigenpairs, omega_of_alpha, r_star, run,
                    spectral_report)
from kgstab.stability import sweep_columns


def test_rejects_nonpositive_parameters():
    for bad in [(0, 1, 1), (1, -2, 1), (1, 1, 0), (-1, 1, 1)]:
        with pytest.raises(DomainError):
            ModelParams(*bad)


def test_rejects_nonfinite_parameters():
    with pytest.raises(DomainError):
        ModelParams(math.inf, 1, 1)
    with pytest.raises(DomainError):
        ModelParams(1, math.nan, 1)


def test_parameters_take_any_real_number_but_a_bool():
    # NumPy integers and floats are stored as Python floats, as counts take
    # NumPy integers; a bool is not a coefficient, nor is a string
    p = ModelParams(np.int64(1), np.float32(0.5), np.float64(2.0))
    assert (p.a, p.b, p.m) == (1.0, 0.5, 2.0)
    assert all(type(v) is float for v in (p.a, p.b, p.m))
    assert p == ModelParams(1, 0.5, 2)
    for bad in (True, np.bool_(True), "1", None, 1 + 0j):
        with pytest.raises(DomainError, match="a must be a finite real"):
            ModelParams(bad, 1, 1)
    # an int beyond the float range is refused, not an OverflowError
    with pytest.raises(DomainError, match="m must be a finite real number"):
        ModelParams(1, 1, 10**400)


def test_tau_values():
    assert ModelParams(1, 1, 1).tau == 2.0
    assert ModelParams(1, 2, 1).tau == 4.0
    assert ModelParams(2, 1, 1).tau == 0.5


def test_omega_star_values():
    assert ModelParams(1, 1, 1).omega_star == pytest.approx(math.sqrt(0.5),
                                                            rel=1e-15)
    assert ModelParams(1, 1, 2).omega_star == pytest.approx(math.sqrt(3.5),
                                                            rel=1e-15)
    # m^2 - a^2/(2b) < 0 clamps to zero: the window is then all of (0, m)
    assert ModelParams(2, 1, 1).omega_star == 0.0


def test_window_membership(p111):
    window = p111.window
    assert window.contains(0.9)
    assert not window.contains(window.omega_star)
    assert not window.contains(p111.m)
    with pytest.raises(DomainError):
        window.require(1.0)
    with pytest.raises(DomainError):
        window.require(0.5)


def test_alpha_of_omega_value(p111):
    assert alpha_of_omega(p111, 0.9) == pytest.approx(math.sqrt(0.38),
                                                      rel=1e-15)


def test_alpha_rejects_outside_window(p111):
    for omega in (0.0, p111.omega_star, 1.0, 1.5):
        with pytest.raises(DomainError):
            alpha_of_omega(p111, omega)


def test_omega_of_alpha_examples(p111, p_tau11):
    assert omega_of_alpha(p111, math.sqrt(0.38)) == pytest.approx(0.9,
                                                                  rel=1e-14)
    # cross-check by solving alpha_of_omega(omega) = 0.602 independently
    target = oracles.bisect_root(
        lambda w: alpha_of_omega(p_tau11, w) - 0.602,
        p_tau11.omega_star + 1e-9, p_tau11.m - 1e-9, tol=1e-15)
    assert omega_of_alpha(p_tau11, 0.602) == pytest.approx(target, rel=1e-12)


def test_omega_of_alpha_rejects_inadmissible(p111):
    with pytest.raises(DomainError):
        omega_of_alpha(p111, 0.0)
    with pytest.raises(DomainError):
        omega_of_alpha(p111, 1.0)
    # tau = 0.5 here, so alpha^2 must stay below 0.5
    p_small = ModelParams(2, 1, 1)
    with pytest.raises(DomainError):
        omega_of_alpha(p_small, 0.8)


def test_inverse_maps_roundtrip(p111, p112, p_tau098):
    for p in (p111, p112, p_tau098):
        window = p.window
        for frac in np.linspace(0.05, 0.95, 19):
            omega = window.omega_star + frac * window.width
            back = omega_of_alpha(p, alpha_of_omega(p, omega))
            assert back == pytest.approx(omega, rel=1e-12)
    alpha_hi = min(1.0, math.sqrt(p111.tau))
    for alpha in np.linspace(0.05, 0.95, 19) * alpha_hi:
        back = alpha_of_omega(p111, omega_of_alpha(p111, alpha))
        assert back == pytest.approx(alpha, rel=1e-12)


def test_alpha_strictly_decreasing(p111):
    window = p111.window
    omegas = window.omega_star + np.linspace(0.01, 0.99, 50) * window.width
    alphas = [alpha_of_omega(p111, w) for w in omegas]
    assert all(a1 > a2 for a1, a2 in zip(alphas, alphas[1:]))


def test_r_star_matches_bisection_oracle(p111):
    expected = oracles.peak_amplitude_by_bisection(1.0, 1.0, 1.0, 0.9)
    assert r_star(p111, 0.9) == pytest.approx(expected, rel=1e-10)


def test_r_star_is_smaller_quadratic_root():
    for a, b, m in [(1, 1, 1), (1, 1, 2), (2, 1, 2), (0.5, 2, 3)]:
        p = ModelParams(a, b, m)
        window = p.window
        for frac in (0.1, 0.5, 0.9):
            omega = window.omega_star + frac * window.width
            s = r_star(p, omega)
            assert 0.0 < s < a / (2.0 * b)
            # V(s) = 2as - 2bs^2 recovers m^2 - omega^2
            v = 2.0 * a * s - 2.0 * b * s * s
            assert v == pytest.approx(m * m - omega * omega, rel=1e-12)


def test_r_star_peak_identity(p111):
    # |R* - a/2b|^2 = (a^2/4b^2)(1 - alpha^2)
    omega = 0.8
    alpha = alpha_of_omega(p111, omega)
    lhs = (r_star(p111, omega) - 0.5) ** 2
    assert lhs == pytest.approx(0.25 * (1.0 - alpha * alpha), rel=1e-12)


def test_r_star_vanishes_toward_upper_endpoint(p111):
    assert r_star(p111, 1.0 - 1e-9) < 1e-4


def _nonlinearity(p, s):
    return g_potential(p, s), g_prime_over_s(p, s), g_second(p, s)


def test_nonlinearity_values():
    p = ModelParams(1, 1, 1)
    assert _nonlinearity(p, 0.0) == (0.0, 0.0, 0.0)
    assert _nonlinearity(p, 1.0) == (0.0, 1.0, 6.0)
    p23 = ModelParams(2, 3, 1)
    g, g1_over_s, g2 = _nonlinearity(p23, 0.5)
    assert g == pytest.approx(-0.0625, rel=1e-15)
    # s = 0.5 is exactly 3a/(4b) for these coefficients, the critical point
    # of G, so the first derivative vanishes identically there
    assert g1_over_s == 0.0
    assert g2 == pytest.approx(3.0, rel=1e-15)


def test_nonlinearity_matches_finite_differences():
    p = ModelParams(1.3, 0.7, 1.0)
    h = 1e-5

    def g1(t):
        return t * g_prime_over_s(p, t)

    for s in (0.1, 0.4, 0.9):
        fd1 = oracles.centered_first(lambda t: g_potential(p, t), s, h)
        fd2 = oracles.centered_first(g1, s, h)
        assert g1(s) == pytest.approx(fd1, abs=5.0 * h * h)
        assert g_second(p, s) == pytest.approx(fd2, abs=5.0 * h * h)


def test_nonlinearity_accepts_arrays():
    p = ModelParams(1, 1, 1)
    s = np.array([0.0, 0.5, 1.0])
    g, g1_over_s, g2 = _nonlinearity(p, s)
    assert g.shape == g1_over_s.shape == g2.shape == s.shape
    assert g.tolist() == [_nonlinearity(p, t)[0] for t in s.tolist()]
    assert g1_over_s[2] == 1.0
    assert g2[2] == 6.0


def test_window_is_computed_once():
    p = ModelParams(1, 1, 1)
    assert p.window is p.window
    assert p.omega_star == p.window.omega_star == math.sqrt(0.5)


def test_omega_star_refuses_an_overflowed_m_squared():
    # m > 1.34e154: m^2 is inf, and so would be the window edge
    p = ModelParams(1.0, 1.0, 1e200)
    assert p.tau == math.inf  # kept: it still exceeds every k2
    with pytest.raises(DomainError, match=r"m\^2 overflows at m=1e\+200"):
        p.window
    assert ModelParams(1.0, 1.0, 1e154).omega_star == 1e154


def test_counts_must_be_integers(p111):
    # a float count is refused, even one with an integral value; NumPy
    # integers are counts
    op = TridiagonalOperator(np.arange(4.0), np.ones(3))
    calls = [
        ("sample_every", lambda n: run(p111, 0.9, "none", 0.2,
                                       sample_every=n, step_x=0.1,
                                       step_t=0.05)),
        ("k", lambda n: spectral_report(p111, 0.9, 0.2, half_length=5.0,
                                        k=n)),
        ("k", lambda n: lowest_eigenpairs(op, n)),
        ("n", lambda n: sweep_columns(p111, n)),
    ]
    for name, call in calls:
        for bad in (2.5, 4.0):
            with pytest.raises(DomainError, match=f"{name} must be an integer"):
                call(bad)
        call(np.int64(4))
