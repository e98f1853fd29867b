"""End-to-end acceptance battery.

One test per numbered acceptance criterion; each prints a single
``[criterion N] PASS`` / ``[criterion N] FAIL`` line (run with ``-rA`` or
``-s`` to see them).  Two checks document known discrepancies between the
closed-form classifier and the finite-difference convexity oracle; they are
expected to fail and are kept red on purpose — see the README.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from kgstab import (ModelParams, alpha_of_omega, build_profile, charge,
                    classify, closed_form_profile, d_second_numeric,
                    d_second_sign, energy, k2_prime, omega_of_alpha, r_star,
                    run, sigma_closed, spectral_report, tau_star)
from kgstab import cli
from kgstab.evolve import init_state
from oracles import advance as _advance

_SETS = (ModelParams(1.0, 1.0, 1.0), ModelParams(1.0, 1.0, 2.0),
         ModelParams(2.0, 1.0, 2.0))


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[criterion {label}] FAIL")
        raise
    print(f"[criterion {label}] PASS")


def _window_samples(p, count):
    window = p.window
    return [window.omega_star + k * window.width / (count + 1)
            for k in range(1, count + 1)]


def test_criterion1_critical_coupling_bracket(capsys):
    with criterion(1):
        tau_star.cache_clear()
        start = time.perf_counter()
        code = cli.main(["tau-star"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        value = float(values["tau_star"])
        assert 1.13 < value < 1.14
        loose = tau_star(tol_alpha=1e-10).tau_star
        tight = tau_star(tol_alpha=1e-12).tau_star
        assert abs(loose - tight) < 1e-10
        assert elapsed < 1.0


def test_criterion2_closed_form_charge_identity():
    with criterion(2):
        start = time.perf_counter()
        for p in _SETS:
            for omega in _window_samples(p, 20):
                closed = sigma_closed(p, omega)
                quad = charge(build_profile(p, omega, 0.005))
                assert abs(closed - quad) / closed < 1e-6
        assert time.perf_counter() - start < 10.0


def test_criterion3_convexity_sign_oracle():
    with criterion(3):
        total = 0
        for p in _SETS:
            roots = classify(p).roots_omega
            for omega in _window_samples(p, 17):
                if any(abs(omega - root) < 1e-2 for root in roots):
                    continue
                closed = d_second_sign(p, omega)
                fd = d_second_numeric(p, omega)
                assert closed == (1 if fd > 0.0 else -1), \
                    f"sign mismatch at {p} omega={omega}"
                total += 1
        assert total >= 50


def test_criterion4_case_i_single_stable_interval():
    with criterion("4i"):
        report = classify(ModelParams(1.0, 1.0, 2.0))
        assert report.tau == 8.0
        assert len(report.intervals) == 1
        assert report.intervals[0][2] == "stable"
        assert report.roots_omega == ()


def test_criterion4_case_ii_two_roots_refined():
    with criterion("4ii"):
        p = ModelParams(1.0, 1.0, math.sqrt(0.55))
        report = classify(p)
        assert [v for (_, _, v) in report.intervals] \
            == ["stable", "unstable", "stable"]
        assert len(report.roots_omega) == 2
        loose = classify(p, alpha_tol=1e-10)
        for w_loose, w_tight in zip(loose.roots_omega, report.roots_omega):
            assert abs(w_loose - w_tight) < 1e-8


def test_criterion4_case_iii_verdicts_match_oracle():
    # KNOWN RED.  For tau < 1 the closed-form threshold criterion labels the
    # whole window unstable, but the finite-difference d'' oracle finds
    # convex stretches inside it.  The classifier is implemented exactly as
    # specified, the oracle is an honest independent quadrature, and the two
    # genuinely disagree; we assert the agreement that the criterion asks
    # for and let the mismatch show.  See the README for the analysis.
    with criterion("4iii"):
        p = ModelParams(1.0, 1.0, 0.7)  # tau = 0.98
        report = classify(p, check_oracle=False)
        mismatches = []
        for k in range(1, 6):
            omega = k * 0.7 / 6.0
            verdict = next(v for (lo, hi, v) in report.intervals
                           if lo <= omega <= hi)
            fd = d_second_numeric(p, omega)
            oracle_verdict = "stable" if fd > 0.0 else "unstable"
            if verdict != oracle_verdict:
                mismatches.append((omega, verdict, fd))
        assert not mismatches, (
            f"classifier verdict contradicts finite-difference d'' at "
            f"{len(mismatches)}/5 sample frequencies: {mismatches}")


def test_criterion5_linearized_operator_spectra():
    with criterion(5):
        start = time.perf_counter()
        p = ModelParams(1.0, 1.0, 1.0)
        h = 0.02
        band = 10.0 * h * h
        for omega in (0.75, 0.8, 0.9):
            report = spectral_report(p, omega, h)
            assert report.negative_count_lplus == 1
            assert report.negative_count_lminus == 0
            assert abs(report.lplus_eigenvalues[1]) < band
            assert report.lplus_kernel_match > 0.999
            assert abs(report.lminus_eigenvalues[0]) < band
            assert report.lminus_kernel_match > 0.999
            assert report.lplus_eigenvalues[2] > band
            assert report.lminus_eigenvalues[1] > band
        assert time.perf_counter() - start < 30.0


def test_criterion6_profile_correctness():
    with criterion(6):
        p = ModelParams(1.0, 1.0, 1.0)
        prof = build_profile(p, 0.9, 0.01)
        assert prof.max_ode_residual < 1e-6 * prof.values[0]
        xs, ode_values = oracles.rk4_profile(1.0, 1.0, 1.0, 0.9, 10.0,
                                             10_000)
        closed = closed_form_profile(p, 0.9, xs)
        assert float(np.abs(closed - ode_values).max()) < 1e-7


def test_criterion7_conservation_on_stable_run():
    with criterion(7):
        start = time.perf_counter()
        diag = run(ModelParams(1.0, 1.0, 1.0), 0.9, "scale:0.01", 50.0,
                   step_x=0.02, step_t=0.01)
        elapsed = time.perf_counter() - start
        summary = diag.summary()
        assert summary["relative_energy_drift"] < 1e-5
        assert summary["relative_charge_drift"] < 1e-5
        assert elapsed < 120.0


def test_criterion8_stable_regime_stays_near_orbit(stable_run50):
    with criterion("8-stable"):
        summary = stable_run50.summary()
        assert summary["initial_distance"] > 0.0
        assert summary["max_distance"] < 10.0 * summary["initial_distance"]


def test_criterion8_unstable_regime_growth():
    # KNOWN RED.  In the non-convex window of the tau = 1.1 family the
    # orbital distance of an eps = 0.01 perturbation grows but does not
    # reach 100x its initial value by t = 50 on these settings (observed
    # ratio ~ 1.9).  The threshold is asserted as stated rather than tuned
    # down; treat a failure here as the recorded observation.
    with criterion("8-unstable"):
        diag = run(ModelParams(1.0, 1.0, math.sqrt(0.55)), 0.45,
                   "scale:0.01", 50.0, step_x=0.02, step_t=0.01)
        crossing = diag.summary()["first_crossing_100x"]
        assert crossing is not None and crossing < 50.0, (
            f"distance ratio peaked at "
            f"{diag.summary()['distance_ratio']:.3g}, never reaching 100x")


def test_criterion9_invariant_battery():
    with criterion(9):
        p = ModelParams(1.0, 1.0, 1.0)
        window = p.window

        # frequency <-> amplitude maps invert each other across the window
        for omega in _window_samples(p, 15):
            alpha = alpha_of_omega(p, omega)
            assert omega_of_alpha(p, alpha) == pytest.approx(omega,
                                                             rel=1e-12)
        alphas = [alpha_of_omega(p, w) for w in _window_samples(p, 40)]
        assert all(a1 > a2 for a1, a2 in zip(alphas, alphas[1:]))

        # peak amplitude decreases toward the window edge
        peaks = [r_star(p, w) for w in _window_samples(p, 40)]
        assert all(r1 > r2 for r1, r2 in zip(peaks, peaks[1:]))

        # k2 is unimodal: its derivative changes sign exactly once
        grid = np.linspace(1e-3, 1.0 - 1e-9, 4001)
        signs = np.sign([k2_prime(al) for al in grid])
        assert int(np.count_nonzero(np.diff(signs))) == 1

        # leapfrog stepping is time-reversal symmetric
        prof = build_profile(p, 0.9, 0.02)
        state = init_state(prof, "none", 0.01)
        forward, taken = _advance(state, 40)
        assert taken == 40
        import dataclasses
        swapped = dataclasses.replace(forward, phi=forward.phi_prev,
                                      phi_prev=forward.phi)
        back, _ = _advance(swapped, 39)
        assert np.abs(back.phi - state.phi).max() < 1e-10

        # quadrature-based observables converge at 4th order
        ref = energy(build_profile(p, 0.9, 0.0125))
        err = [abs(energy(build_profile(p, 0.9, h)) - ref)
               for h in (0.2, 0.1)]
        assert 10.0 < err[0] / err[1] < 22.0
