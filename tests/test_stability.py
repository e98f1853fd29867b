import math

import numpy as np
import pytest

import oracles
from kgstab import (DomainError, ModelParams, OracleDisagreementError,
                    StabilityReport, build_profile, charge, classify,
                    d_second_sign, k1, k2, k2_prime, omega_of_alpha,
                    sigma_closed, tau_star)


def test_k1_domain_checks():
    with pytest.raises(DomainError):
        k1(2.0, 0.0)
    with pytest.raises(DomainError):
        k1(2.0, 1.0)
    with pytest.raises(DomainError):
        k1(0.3, 0.6)  # alpha^2 >= tau


def test_k1_positive_and_vanishes_with_alpha():
    alphas = np.linspace(1e-3, 0.99, 200)
    vals = np.array([k1(2.0, al) for al in alphas])
    assert np.all(vals > 0.0)
    # small-amplitude limit: k1 ~ sqrt(tau) * (2/3) alpha^3
    tiny = k1(2.0, 1e-5)
    assert tiny == pytest.approx(math.sqrt(2.0) * (2.0 / 3.0) * 1e-15,
                                 rel=1e-6)


def test_k1_against_quadrature_charge(p112):
    # sigma = omega * ||R||^2 = (a^2 / 4 b^2) k1(tau, alpha); with a = b = 1
    # and omega = 0.9 sqrt(2)... use (1,1,2) at alpha = sqrt(0.38)*... pick
    # omega where alpha is the same as the reference point.
    alpha = math.sqrt(0.38)
    omega = omega_of_alpha(p112, alpha)
    q = charge(build_profile(p112, omega, 0.005))
    assert k1(p112.tau, alpha) == pytest.approx(4.0 * q, rel=1e-8)
    assert k1(2.0, alpha) == pytest.approx(0.2616951569801232, rel=1e-12)


def test_sigma_closed_matches_quadrature(p111, p112):
    for p in (p111, p112):
        window = p.window
        for k in range(1, 21):
            omega = window.omega_star + k * window.width / 21.0
            q = charge(build_profile(p, omega, 0.005))
            assert abs(sigma_closed(p, omega) - q) <= 1e-6 * q


def test_sigma_closed_reference_value(p111):
    assert sigma_closed(p111, 0.9) == pytest.approx(0.0654237892450308,
                                                    rel=1e-13)


def test_k2_closed_form_value():
    # at alpha = 1/2: k2 = (3/4) artanh-style log + 1/4
    expected = 0.75 * math.log(3.0) + 0.25
    assert k2(0.5) == pytest.approx(expected, rel=1e-14)
    series = 0.75 * 2.0 * oracles.artanh_series(0.5, 30) + 0.25
    assert k2(0.5) == pytest.approx(series, rel=1e-13)


def test_k2_peak_neighborhood():
    assert k2(0.815) == pytest.approx(1.13462, abs=5e-6)


def test_k2_limits_and_floor():
    assert k2(1e-9) == pytest.approx(1.0, abs=1e-12)
    assert k2(1.0 - 1e-12) == pytest.approx(1.0, abs=1e-9)
    alphas = np.linspace(0.01, 0.99, 10_000)
    assert min(k2(al) for al in alphas) > 1.0


def test_k2_prime_single_sign_change():
    alphas = np.linspace(1e-4, 1.0 - 1e-9, 10_000)
    signs = np.sign([k2_prime(al) for al in alphas])
    flips = np.nonzero(np.diff(signs))[0]
    assert len(flips) == 1
    assert signs[0] > 0 and signs[-1] < 0


def test_k2_prime_matches_finite_difference():
    h = 1e-6
    for alpha in (0.05, 0.3, 0.6, 0.81, 0.95):
        fd = (k2(alpha + h) - k2(alpha - h)) / (2.0 * h)
        assert k2_prime(alpha) == pytest.approx(fd, abs=5e-9)


def test_series_branches_join_smoothly():
    # both branches of each piecewise evaluation must agree with one
    # independent series reference at points bracketing the switch
    def k2_ref(al):
        return ((1.0 - al * al) / (2.0 * al)) \
            * 2.0 * oracles.artanh_series(al, 30) + al * al

    def k2_prime_ref(al):
        # 2 al / 3 - sum over the cross terms of the artanh expansion
        total = 2.0 * al / 3.0
        for n in range(1, 40):
            total -= al ** (2 * n + 1) * (1.0 / (2 * n + 1)
                                          + 1.0 / (2 * n + 3))
        return total

    def k1_ref(al):
        tail = sum(al ** (2 * n + 1) / (2 * n + 1) for n in range(1, 40))
        return math.sqrt(2.0 - al * al) * 2.0 * tail

    for alpha in (0.009999, 0.010001, 9.9e-5, 1.01e-4):
        assert k2(alpha) == pytest.approx(k2_ref(alpha), abs=5e-13)
        assert k2_prime(alpha) == pytest.approx(k2_prime_ref(alpha),
                                                abs=5e-12)
        assert k1(2.0, alpha) == pytest.approx(k1_ref(alpha), rel=1e-9)


def test_tau_star_value_and_maximizer():
    result = tau_star()
    assert 1.13 < result.tau_star < 1.14
    assert result.tau_star > 1.0
    x_opt, f_opt = oracles.golden_max(k2, 0.5, 0.95, tol=1e-13)
    assert result.tau_star == pytest.approx(f_opt, abs=1e-10)
    assert result.alpha_d == pytest.approx(x_opt, abs=1e-7)


def test_tau_star_refinement_stable():
    loose = tau_star(tol_alpha=1e-10)
    tight = tau_star(tol_alpha=1e-12)
    assert abs(loose.tau_star - tight.tau_star) < 1e-10


def test_d_second_sign_examples(p111, p_tau11):
    assert d_second_sign(p111, 0.9) == 1
    assert d_second_sign(p_tau11, 0.45) == -1


def test_tau_star_rejects_coarse_tolerance():
    with pytest.raises(DomainError):
        tau_star(0.5)


def test_d_second_sign_vanishes_at_classify_roots(p_tau11):
    # each root is bisected to ALPHA_TOL, so |tau - k2| there is far below
    # SIGN_TOL
    roots = classify(p_tau11).roots_omega
    assert len(roots) == 2
    assert [d_second_sign(p_tau11, omega) for omega in roots] == [0, 0]


def test_d_second_sign_positive_for_large_tau(p111, p112, p212):
    for p in (p111, p112, p212):
        window = p.window
        for k in range(1, 16):
            omega = window.omega_star + k * window.width / 16.0
            assert d_second_sign(p, omega) == 1


def test_classify_single_interval_when_tau_large(p112):
    report = classify(p112)
    assert isinstance(report, StabilityReport)
    assert report.roots_omega == ()
    assert report.roots_alpha == ()
    assert len(report.intervals) == 1
    (lo, hi, verdict) = report.intervals[0]
    assert verdict == "stable"
    assert lo == pytest.approx(p112.omega_star, rel=1e-14)
    assert hi == pytest.approx(p112.m, rel=1e-14)


def test_classify_three_intervals_between_one_and_threshold(p_tau11):
    report = classify(p_tau11)
    assert report.tau == pytest.approx(1.1, rel=1e-12)
    assert len(report.roots_omega) == 2
    assert report.roots_omega[0] == pytest.approx(0.33116914400078046,
                                                  abs=1e-9)
    assert report.roots_omega[1] == pytest.approx(0.6069921663560591,
                                                  abs=1e-9)
    assert report.roots_alpha[0] == pytest.approx(0.9384316683294798,
                                                  abs=1e-9)
    assert report.roots_alpha[1] == pytest.approx(0.6025952372566246,
                                                  abs=1e-9)
    verdicts = [v for (_, _, v) in report.intervals]
    assert verdicts == ["stable", "unstable", "stable"]
    # intervals tile the window exactly
    bounds = [report.intervals[0][0]]
    for (lo, hi, _) in report.intervals:
        assert lo == bounds[-1]
        bounds.append(hi)
    assert bounds[0] == report.omega_window.omega_star
    assert bounds[-1] == report.omega_window.m
    assert bounds[1] == report.roots_omega[0]
    assert bounds[2] == report.roots_omega[1]


def test_classify_roots_ordering(p_tau11):
    report = classify(p_tau11)
    assert list(report.roots_alpha) == sorted(report.roots_alpha,
                                              reverse=True)
    assert list(report.roots_omega) == sorted(report.roots_omega)


def test_classify_root_refinement(p_tau11):
    loose = classify(p_tau11, alpha_tol=1e-10)
    tight = classify(p_tau11, alpha_tol=1e-12)
    for w1, w2 in zip(loose.roots_omega, tight.roots_omega):
        assert abs(w1 - w2) < 1e-9


def test_classify_touching_case():
    star = tau_star()
    m = math.sqrt(star.tau_star / 2.0)  # makes tau = 2 m^2 hit the supremum
    report = classify(ModelParams(1.0, 1.0, m))
    assert abs(report.tau - star.tau_star) < 1e-12
    assert len(report.roots_omega) == 1
    assert report.roots_alpha[0] == pytest.approx(star.alpha_d, abs=1e-6)
    assert [v for (_, _, v) in report.intervals] == ["stable", "stable"]


def test_classify_below_one_single_interval():
    p = ModelParams(1.0, 1.0, 0.7)  # tau = 0.98
    report = classify(p)
    assert report.roots_omega == ()
    assert len(report.intervals) == 1
    lo, hi, verdict = report.intervals[0]
    assert verdict == "unstable"
    assert lo == 0.0
    assert hi == pytest.approx(0.7, rel=1e-14)


def test_classify_scaling_invariance(p_tau11):
    # tau is invariant under (a, b) -> (lam a, lam^2 b); the omega roots and
    # verdicts must not move
    base = classify(p_tau11)
    for lam in (2.0, 3.0):
        scaled = classify(ModelParams(lam, lam**2, p_tau11.m))
        assert scaled.tau == pytest.approx(base.tau, rel=1e-14)
        for w1, w2 in zip(base.roots_omega, scaled.roots_omega):
            assert w1 == pytest.approx(w2, rel=1e-12)
        assert [v for (_, _, v) in base.intervals] \
            == [v for (_, _, v) in scaled.intervals]


def test_classify_oracle_check_passes_in_convex_regime(p111):
    report = classify(p111, check_oracle=True)
    assert [v for (_, _, v) in report.intervals] == ["stable"]


def test_classify_oracle_check_raises_below_one(p_tau098):
    with pytest.raises(OracleDisagreementError) as exc_info:
        classify(p_tau098, check_oracle=True)
    err = exc_info.value
    assert 0.0 < err.omega < 0.7
    assert err.closed_sign == -1
    assert err.oracle_value > 0.0
    assert "contradicts" in str(err)


def test_report_to_dict_roundtrip(p_tau11):
    report = classify(p_tau11)
    data = report.to_dict()
    assert data["tau"] == report.tau
    assert data["tau_star"] == report.tau_star
    assert len(data["intervals"]) == 3
    assert data["intervals"][1]["verdict"] == "unstable"
    assert data["roots_omega"] == list(report.roots_omega)
