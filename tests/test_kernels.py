import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kgstab
import oracles
from kgstab import _kernels


def _standing_wave_arrays(n=101):
    # an even wave on the half-line [0, 10]: the centre first, the Dirichlet
    # end last
    x = np.linspace(0.0, 10.0, n)
    phi = (0.1 / np.cosh(x)).astype(complex)
    phi[-1] = 0.0
    phi_prev = phi * np.exp(1j * 0.9 * 0.01)
    return phi, phi_prev


def _random_tridiag(rng, n=50):
    diag = rng.normal(size=n) * 3.0
    off = rng.normal(size=n - 1)
    return diag, off


def test_sturm_count_matches_dense_eigenvalues():
    rng = np.random.default_rng(11)
    diag, off = _random_tridiag(rng)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    eigs = np.linalg.eigvalsh(dense)
    for shift in (-5.0, -1.0, 0.0, 0.5, 2.0, 7.0):
        expected = int(np.sum(eigs < shift))
        assert _kernels.sturm_count(diag, off, shift) == expected


def test_tridiag_solve_matches_dense():
    rng = np.random.default_rng(13)
    n = 60
    diag = rng.normal(size=n) + 5.0
    off = rng.normal(size=n - 1)
    rhs = rng.normal(size=n)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    expected = np.linalg.solve(dense, rhs)
    got = _kernels.tridiag_solve(diag, off, rhs)
    assert np.abs(got - expected).max() < 1e-10


def _same_bits(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


# pivots that come out exactly zero: the first one at shift = diag[0], the
# second one of [[2, -1], [-1, 2]] at shift 1
_ZERO_PIVOT_CASES = [
    (np.array([1.0]), np.array([]), 1.0),
    (np.array([2.0, 2.0]), np.array([-1.0]), 1.0),
    (np.full(50, 2.0), np.full(49, -1.0), 1.0),
    (np.full(50, 2.0), np.full(49, -1.0), 2.0),
]


def test_sturm_count_counts_ties():
    # an eigenvalue equal to the shift is counted: the zero pivot is floored
    # to -pivmin (the dstebz convention bisection relies on)
    assert _kernels.sturm_count(np.array([1.0]), np.array([]), 1.0) == 1
    assert _kernels.sturm_count(np.array([2.0, 2.0]), np.array([-1.0]),
                                1.0) == 1


@pytest.mark.parametrize("n", [1, 2, 50])
def test_sturm_count_equals_reference(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        diag, off = _random_tridiag(rng, n)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        eigs = np.linalg.eigvalsh(dense)
        shifts = [*(4.0 * rng.normal(size=5)), diag[0], *eigs,
                  eigs[0] - 1.0, eigs[-1] + 1.0]
        for shift in shifts:
            assert (_kernels.sturm_count(diag, off, shift)
                    == oracles.sturm_count(diag, off, shift))
    for diag, off, shift in _ZERO_PIVOT_CASES:
        assert (_kernels.sturm_count(diag, off, shift)
                == oracles.sturm_count(diag, off, shift))


def _reference_solve(diag, off, rhs):
    # a floored zero pivot overflows to inf; the NumPy-scalar loop warns
    with np.errstate(over="ignore", invalid="ignore"):
        return oracles.tridiag_solve(diag, off, rhs)


@pytest.mark.parametrize("n", [1, 2, 50])
def test_tridiag_solve_equals_reference(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(10):
        diag, off = _random_tridiag(rng, n)
        rhs = rng.normal(size=n)
        eigs = np.linalg.eigvalsh(
            np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        # unshifted, a zero first pivot, and the near-singular shifts of
        # inverse iteration
        for shift in (0.0, diag[0], eigs[0], eigs[-1]):
            got = _kernels.tridiag_solve(diag - shift, off, rhs)
            want = _reference_solve(diag - shift, off, rhs)
            assert _same_bits(got, want)
    for diag, off, shift in _ZERO_PIVOT_CASES:
        rhs = rng.normal(size=diag.size)
        got = _kernels.tridiag_solve(diag - shift, off, rhs)
        assert _same_bits(got, _reference_solve(diag - shift, off, rhs))


@pytest.mark.parametrize("n", [5, 101, 1001])
def test_leapfrog_equals_reference(n):
    phi, prev = _standing_wave_arrays(n)
    phi *= 5.0  # amplitude 0.5: the nonlinear terms are not negligible
    prev *= 5.0
    ref_phi, ref_prev = phi.copy(), prev.copy()
    step_x = 10.0 / (n - 1)
    # coefficients that are not powers of two, so a reordered product rounds
    # differently
    args = (300, step_x, 0.01, 0.81, 1.3, 0.7, 1e3)
    taken = _kernels.leapfrog_steps(phi, prev, *args)
    assert taken == oracles.leapfrog_steps(ref_phi, ref_prev, *args) == 300
    assert _same_bits(phi, ref_phi)
    assert _same_bits(prev, ref_prev)


def test_leapfrog_mirrors_full_grid():
    # the half-line with its mirror centre advances the x >= 0 half of the
    # full-grid scheme; the two differ only by the rounding of the full
    # grid's left half, whose rows add their neighbours in the other order
    phi, prev = _standing_wave_arrays(1001)
    phi *= 5.0
    prev *= 5.0
    full_phi = np.concatenate((phi[:0:-1], phi))
    full_prev = np.concatenate((prev[:0:-1], prev))
    args = (300, 0.01, 0.01, 0.81, 1.3, 0.7, 1e3)
    assert _kernels.leapfrog_steps(phi, prev, *args) == 300
    assert oracles.full_grid_leapfrog_steps(full_phi, full_prev, *args) == 300
    assert np.abs(full_phi[1000:] - phi).max() < 1e-14 * np.abs(phi).max()
    assert np.abs(full_prev[1000:] - prev).max() < 1e-14 * np.abs(prev).max()
    # the centre row itself: the first step is bitwise the full grid's
    phi, prev = _standing_wave_arrays(1001)
    full_phi = np.concatenate((phi[:0:-1], phi))
    full_prev = np.concatenate((prev[:0:-1], prev))
    _kernels.leapfrog_steps(phi, prev, 1, *args[1:])
    oracles.full_grid_leapfrog_steps(full_phi, full_prev, 1, *args[1:])
    assert _same_bits(full_phi[1000:], phi)


def test_leapfrog_guard_trips_at_reference_step():
    # prev below phi: the amplitude grows every step until the guard trips
    phi, prev = _standing_wave_arrays(1001)
    prev *= 0.99
    ref_phi, ref_prev = phi.copy(), prev.copy()
    args = (200, 0.02, 0.01, 0.81, 1.3, 0.7, 1.05 * np.abs(phi).max())
    want = oracles.leapfrog_steps(ref_phi, ref_prev, *args)
    assert 1 < want < 200
    assert _kernels.leapfrog_steps(phi, prev, *args) == want
    assert _same_bits(phi, ref_phi)
    assert _same_bits(prev, ref_prev)


def test_leapfrog_guard_returns_early():
    phi, prev = _standing_wave_arrays()
    taken = _kernels.leapfrog_steps(phi, prev, 50, 0.2, 0.01, 1.0, 1.0, 1.0,
                                    1e-9)
    assert taken == 1  # guard trips on the very first step


def test_leapfrog_guard_catches_nan():
    phi, prev = _standing_wave_arrays()
    phi[50] = np.nan
    taken = _kernels.leapfrog_steps(phi, prev, 50, 0.2, 0.01, 1.0, 1.0, 1.0,
                                    1e6)
    assert taken < 50


def test_fresh_interpreter_run(tmp_path):
    script = tmp_path / "probe.py"
    script.write_text(
        "import kgstab\n"
        "p = kgstab.ModelParams(1.0, 1.0, 1.0)\n"
        "prof = kgstab.build_profile(p, 0.9, 0.02)\n"
        "state = kgstab.init_state(prof, 'none', 0.01)\n"
        "diag = kgstab.run(p, 0.9, 'none', 1.0)\n"
        "assert diag.summary()['relative_energy_drift'] < 1e-6\n"
    )
    src = Path(kgstab.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
