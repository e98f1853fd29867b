import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from kgstab import (DomainError, ModelParams, OracleDisagreementError,
                    StabilityReport, build_profile, charge, classify,
                    d_second_sign, k1, k2, k2_prime, omega_of_alpha,
                    sigma_closed, stability, tau_star)
from kgstab.stability import (MAX_ROWS, _ARGMAX_BRACKET, _SERIES_CUTOFF,
                              SIGN_TOL, sweep_columns)


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


def test_tau_star_bracket_holds_the_only_sign_change():
    lo, hi = _ARGMAX_BRACKET
    assert k2_prime(lo) > 0.0 >= k2_prime(hi)
    alphas = [i * 1e-3 for i in range(1, 1000)]
    positive = [k2_prime(alpha) > 0.0 for alpha in alphas]
    changes = [(left, right) for left, right, up, next_up
               in zip(alphas, alphas[1:], positive, positive[1:])
               if up != next_up]
    assert len(changes) == 1
    assert lo <= changes[0][0] < changes[0][1] <= hi


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


def test_classify_with_a_collapsed_branch():
    # tau is about 2e-30, so alpha stays below sqrt(tau), about 1.4e-15: the
    # only branch (1e-12, sqrt(tau) - 1e-15) is empty and nothing is bisected
    report = classify(ModelParams(1e15, 1.0, 1.0))
    assert report.tau < 1e-29
    assert report.roots_alpha == report.roots_omega == ()
    assert report.intervals == ((0.0, 1.0, "unstable"),)


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


def test_classify_oracle_check_skips_a_sample_beside_a_root(monkeypatch):
    # tau = 1.0731125: the fifth window sample, omega ~ 0.64228, lies 1e-3
    # window-widths from the upper root 0.6428..., inside the 1e-2 guard.
    # The stand-in oracle agrees with the closed form, so the known tau < tau*
    # conflict (at omega ~ 0.2814) does not raise first.
    p = ModelParams(1.0, 1.0, 0.7325)
    assert p.tau == pytest.approx(1.0731125, rel=1e-15)
    sent = []

    def agreeing(p_, omega):
        sent.append(omega)
        return float(d_second_sign(p_, omega))

    monkeypatch.setattr(stability, "d_second_numeric", agreeing)
    report = classify(p, check_oracle=True)
    window = report.omega_window
    samples = [window.omega_star + k * window.width / 6.0 for k in range(1, 6)]
    guarded = samples[4]
    gap = abs(guarded - report.roots_omega[1]) / window.width
    assert 5e-4 < gap < 2e-3
    points = [0.5 * (lo + hi) for (lo, hi, _) in report.intervals] + samples
    assert sorted(sent) == sorted(set(points) - {guarded})


_TAU_STAR = tau_star().tau_star


# The points the oracle check sends to the oracle (every point outside the
# 1e-2-width root guard) never have a closed-form sign of 0, so the check
# needs no branch for one.  tau alone fixes alpha(omega / m) and the window
# in units of m, so (1, tau/2, 1) covers every wave.  Draws crowd tau* (the
# touching case within 1e-10 included) and 1, where roots reach the window
# ends.  The smallest |tau - k2| seen over 4,600 swept tau was 5.0e-5, near
# tau* - 5e-5.
@settings(max_examples=300)
@given(tau=st.one_of(
    st.floats(0.05, 6.0),
    st.floats(-1e-3, 1e-3).map(lambda d: _TAU_STAR + d),
    st.floats(-1e-9, 1e-9).map(lambda d: _TAU_STAR + d),
    st.floats(1e-15, 1e-3).map(lambda d: 1.0 + d),
    st.floats(1e-16, 1e-3).map(lambda d: 1.0 - d)))
@example(tau=_TAU_STAR)
@example(tau=1.0)
def test_oracle_points_have_a_nonzero_closed_sign(tau):
    p = ModelParams(1.0, tau / 2.0, 1.0)
    assert p.tau == tau
    sent = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stability, "d_second_numeric",
                      lambda p_, omega: sent.append(omega) or 0.0)
        classify(p, check_oracle=True)
    assert sent
    for omega in sent:
        alpha = math.sqrt(2.0 * p.b * (p.m * p.m - omega * omega)) / p.a
        assert abs(tau - k2(alpha)) >= SIGN_TOL
        assert d_second_sign(p, omega) != 0


# At tau = 1 + 2^-52 the window is (1.49e-8, 1) and the upper root lies one
# float below m = 1, so the interval between them holds no frequency: its
# midpoint rounds to m, which d_second_sign would refuse.  It is dropped, and
# the one interval left reaches m.
def test_classify_just_above_tau_one():
    p = ModelParams(1.0, (1.0 + 2.0**-52) / 2.0, 1.0)
    report = classify(p)
    assert report.roots_omega == (math.nextafter(1.0, 0.0),)
    assert report.intervals == ((p.window.omega_star, 1.0, "unstable"),)


def test_report_to_dict_roundtrip(p_tau11):
    report = classify(p_tau11)
    data = report.to_dict()
    assert data["tau"] == report.tau
    assert data["tau_star"] == report.tau_star
    assert len(data["intervals"]) == 3
    assert data["intervals"][1]["verdict"] == "unstable"
    assert data["roots_omega"] == list(report.roots_omega)


def _outcome(call):
    """The call's result, or the type and message of what it raised."""
    try:
        return call()
    except DomainError as exc:
        return type(exc), str(exc)


# (a, b, m) the scalar sweep refuses, in order: a collapsed window, m^2
# overflowing, a window collapsed by a^2 underflowing, sigma's scale
# overflowing to nan, sigma overflowing to inf, 4 b^2 underflowing, and a
# window of a few ulps whose first row passes and whose last rounds to m
_REFUSED = [
    (1e-8, 1.0, 1.0),
    (8.394974948008668e+132, 1.808559337741882e-163, 1.4535076851165435e+267),
    (2.25938280964016e-282, 1.8514696446890474e-285, 7.038557714902578e+24),
    (1.5252458374853487e+102, 1.0497999790144707e-118, 3.534790557054179e+52),
    (1.000162645918005e+50, 6.0350896144204805e-105, 6.261289151007875e+102),
    (1e-80, 1e-170, 1.0),
    (5.16377711167197e-07, 165.43148167560742, 1.0000000000000002),
]
# tau ranges: all stable, stable/unstable/stable, all unstable
_TAU_REGIMES = [(1.5, 3.0), (1.03, 1.12), (0.90, 0.98)]


@settings(max_examples=25)
@given(regime=st.sampled_from(_TAU_REGIMES), fraction=st.floats(0.0, 1.0),
       a=st.floats(0.5, 2.0), m=st.floats(0.5, 2.0),
       n=st.integers(1, 20000))
@example(regime=(8.0, 8.0), fraction=0.0, a=1.0, m=2.0, n=20000)  # (1, 1, 2)
def test_sweep_columns_equal_the_scalar_sweep_bitwise(regime, fraction, a, m,
                                                      n):
    tau = regime[0] + fraction * (regime[1] - regime[0])
    p = ModelParams(a, tau * a * a / (2.0 * m * m), m)
    columns = sweep_columns(p, n)
    reference = oracles.scalar_sweep(p, n)
    for column, ref in zip(columns[:3], reference[:3]):
        assert column.tobytes() == np.array(ref).tobytes()
    assert columns[3].tolist() == reference[3]


def test_sweep_columns_cover_the_series_rows(p112):
    # alpha falls to about 0.007 on the last rows of (1, 1, 2) at n = 20,000
    alpha = sweep_columns(p112, 20000)[1]
    assert 0.0 < alpha[-1] < _SERIES_CUTOFF < alpha[0]


@pytest.mark.parametrize("a, b, m", _REFUSED)
def test_sweep_columns_refuse_as_the_scalar_sweep(a, b, m):
    p = ModelParams(a, b, m)
    refused = _outcome(lambda: sweep_columns(p, 5))
    assert isinstance(refused, tuple) and refused[0] is DomainError
    assert refused == _outcome(lambda: oracles.scalar_sweep(p, 5))


def test_sweep_columns_refuse_a_row_count_outside_the_budget(p112):
    # refused before any row is allocated
    for n in (0, -1, MAX_ROWS + 1):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="n must lie in"):
                sweep_columns(p112, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
