import subprocess
import sys
from pathlib import Path

import numpy as np

import kgstab
from kgstab import _kernels


def _standing_wave_arrays(n=101):
    x = np.linspace(-10.0, 10.0, n)
    phi = (0.1 / np.cosh(x)).astype(complex)
    phi[0] = phi[-1] = 0.0
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
