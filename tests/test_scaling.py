"""Scale covariance: a metamorphic oracle that needs no reference solution.

With c = m^2 - omega^2 the profile is R(x) = (c/a) U(sqrt(c) x; alpha), so
(a, b, m, omega) -> (s a, b, s m, s omega) keeps tau and alpha, multiplies
c by s^2 and R by s, and shrinks lengths by s.  The field equation is then
covariant under t -> t/s, x -> x/s, phi -> s phi.  For s a power of two
every scaling is exact in floating point, so the checks below are bitwise
where the arithmetic only scales, and within a stated tolerance where an
absolute threshold (the eigensolver's bisection widths and its 1e-10
confirmation) does not scale.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgstab import (EigensolverError, ModelParams, classify, sigma_closed,
                    spectrum)
from kgstab.evolve import run


def _scaled(p: ModelParams, s: float) -> ModelParams:
    return ModelParams(s * p.a, p.b, s * p.m)


_POWERS = st.integers(-4, 4).map(lambda k: 2.0**k)


def test_run_scales_exactly_by_two():
    # (1, 1, 1; 0.9) against (2, 1, 2; 1.8) with every length and time
    # halved: the same steps on a lattice of the same node count
    p = ModelParams(1.0, 1.0, 1.0)
    one = run(p, 0.9, "scale:0.01", 10.0, step_x=0.02, step_t=0.01,
              extra_half_length=20.0)
    two = run(_scaled(p, 2.0), 1.8, "scale:0.01", 5.0, step_x=0.01,
              step_t=0.005, extra_half_length=10.0)
    assert np.array_equal(2.0 * two.times, one.times)
    assert np.array_equal(two.sup_amplitude, 2.0 * one.sup_amplitude)
    assert np.array_equal(two.energy, 8.0 * one.energy)
    assert np.array_equal(two.charge, 4.0 * one.charge)
    # the distance is the square root of an exactly scaled value, so only
    # its ratio to the initial distance is compared (measured 2.2e-16)
    ratio = two.orbital_distance / two.orbital_distance[0]
    assert np.abs(ratio - one.orbital_distance
                  / one.orbital_distance[0]).max() <= 1e-15
    drifts = ("relative_energy_drift", "relative_charge_drift")
    assert ([two.summary()[key] for key in drifts]
            == [one.summary()[key] for key in drifts])


@given(tau=st.floats(0.1, 6.0), place=st.floats(0.01, 0.99), s=_POWERS)
def test_sigma_closed_scales_exactly_by_s_squared(tau, place, s):
    p = ModelParams(1.0, tau / 2.0, 1.0)
    window = p.window
    omega = window.omega_star + place * window.width
    assert sigma_closed(_scaled(p, s), s * omega) \
        == s * s * sigma_closed(p, omega)


@given(tau=st.floats(0.1, 6.0), s=_POWERS)
def test_classify_roots_do_not_move_under_scaling(tau, s):
    p = ModelParams(1.0, tau / 2.0, 1.0)
    report, scaled = classify(p), classify(_scaled(p, s))
    assert scaled.tau == report.tau
    assert scaled.roots_alpha == report.roots_alpha
    assert scaled.roots_omega == tuple(s * w for w in report.roots_omega)
    assert ([verdict for *_, verdict in scaled.intervals]
            == [verdict for *_, verdict in report.intervals])


# Eigenvalues in units of c, measured over 150 random draws at
# h sqrt(c) = 0.05 and the test waves at 0.05 and 0.02: within 8.7e-14;
# kernel matches within 8.9e-16.
_EIGENVALUE_REL = 1e-12
_MATCH_TOL = 1e-14


@settings(max_examples=12, deadline=None)
@given(alpha=st.floats(0.05, 0.95), excess=st.floats(0.01, 3.0), s=_POWERS)
def test_spectrum_scales_by_s_squared(alpha, excess, s):
    # alpha and tau fix the wave up to scale; a = m = 1 then gives
    # c = alpha^2 / tau, and a lattice of h sqrt(c) = 0.05 has 1,599 nodes
    tau = alpha * alpha + excess
    p = ModelParams(1.0, tau / 2.0, 1.0)
    c = alpha * alpha / tau
    omega = math.sqrt(1.0 - c)
    step = 0.05 / math.sqrt(c)
    report = spectrum.spectral_report(p, omega, step)
    scaled = spectrum.spectral_report(_scaled(p, s), s * omega, step / s)
    assert np.array_equal(s * scaled.x, report.x)
    c_report = p.m * p.m - omega * omega
    c_scaled = s * s * c_report
    for kind in ("lplus", "lminus"):
        got = np.array(getattr(scaled, f"{kind}_eigenvalues")) / c_scaled
        want = np.array(getattr(report, f"{kind}_eigenvalues")) / c_report
        assert np.abs(got - want).max() <= _EIGENVALUE_REL
        assert abs(getattr(scaled, f"{kind}_kernel_match")
                   - getattr(report, f"{kind}_kernel_match")) <= _MATCH_TOL
        assert (getattr(scaled, f"negative_count_{kind}")
                == getattr(report, f"negative_count_{kind}"))


# At s = 16 (c = 48.6, matrix scale 2.6e6) the second pair, near 48.98 by
# the continuum edge, is refused at every width, as at the parent.  Likely
# cause, unproven: the bisection widths and the 1e-10 Sturm confirmation
# are absolute, not relative to c or to the matrix scale.
@pytest.mark.parametrize("s", [0.5, 2.0, pytest.param(16.0, marks=(
    pytest.mark.xfail(strict=True, raises=EigensolverError,
                      reason="absolute eigensolver tolerances at large c")))])
def test_spectrum_of_the_shared_wave_scales(s):
    # (1, 1, 1; 0.9) at h 0.02, the default lattice of the CLI
    p = ModelParams(1.0, 1.0, 1.0)
    report = spectrum.spectral_report(p, 0.9, 0.02)
    scaled = spectrum.spectral_report(_scaled(p, s), s * 0.9, 0.02 / s)
    c = p.m * p.m - 0.81
    for kind in ("lplus", "lminus"):
        got = np.array(getattr(scaled, f"{kind}_eigenvalues")) / (s * s * c)
        want = np.array(getattr(report, f"{kind}_eigenvalues")) / c
        assert np.abs(got - want).max() <= _EIGENVALUE_REL
