import math

import numpy as np
import pytest
import scipy.linalg

from kgstab import (GridError, TridiagonalOperator, apply, assemble,
                    closed_form_profile, closed_form_slope,
                    eigenvalue_count_below, lowest_eigenpairs, r_star,
                    spectral_report)
from kgstab.spectrum import _inverse_iteration, _matvec


def _dense_reference(op):
    # the four lowest pairs, all the tests compare
    return scipy.linalg.eigh_tridiagonal(op.diagonal, op.off_diagonal,
                                         select="i", select_range=(0, 3))


def test_assemble_rejects_bad_inputs(p111):
    with pytest.raises(ValueError):
        assemble(p111, 0.9, 0.02, kind="lzero")
    with pytest.raises(GridError):
        assemble(p111, 0.9, 0.5)  # h > 0.1 / sqrt(c)
    with pytest.raises(GridError):
        assemble(p111, 0.9, -0.02)


def test_assemble_matrix_structure(p111):
    op = assemble(p111, 0.9, 0.02, kind="lplus")
    h = 0.02
    assert op.size == op.diagonal.size
    assert op.off_diagonal.size == op.size - 1
    assert np.all(op.off_diagonal == -1.0 / h**2)
    # far from the origin the potential has decayed: diagonal -> 2/h^2 + c
    assert op.diagonal[0] == pytest.approx(2.0 / h**2 + 0.19, abs=1e-6)
    assert op.diagonal[-1] == pytest.approx(2.0 / h**2 + 0.19, abs=1e-6)
    # grid is symmetric about the origin
    assert op.x[0] == pytest.approx(-op.x[-1], rel=1e-12)
    mid = op.size // 2
    assert op.x[mid] == pytest.approx(0.0, abs=1e-12)
    # the potential well is deepest at the origin for both operators
    assert op.diagonal[mid] == np.min(op.diagonal)


def test_assemble_potentials_differ(p111):
    lp = assemble(p111, 0.9, 0.02, kind="lplus")
    lm = assemble(p111, 0.9, 0.02, kind="lminus")
    r0 = r_star(p111, 0.9)
    base = 2.0 / 0.02**2 + 0.19
    assert lp.diagonal.min() == pytest.approx(base - 6.0 * r0 + 12.0 * r0**2,
                                              rel=1e-10)
    assert lm.diagonal.min() == pytest.approx(base - 3.0 * r0 + 4.0 * r0**2,
                                              rel=1e-10)


def test_operator_annihilates_its_kernel_sample(p111):
    # L_minus R ~ 0 and L_plus R' ~ 0 up to discretization error
    for kind, field in (("lminus", closed_form_profile),
                        ("lplus", closed_form_slope)):
        sups = []
        for h in (0.04, 0.02):
            op = assemble(p111, 0.9, h, kind=kind)
            v = field(p111, 0.9, op.x)
            residual = apply(op, v)
            sups.append(float(np.abs(residual).max()))
            assert sups[-1] < 10.0 * h**2 * r_star(p111, 0.9)
        assert sups[0] / sups[1] == pytest.approx(4.0, rel=0.25)


def test_free_operator_ground_state():
    # with no potential the smallest eigenvalue sits at the mass shell m^2
    h = 0.05
    n = 801
    diag = np.full(n, 2.0 / h**2 + 1.0)
    off = np.full(n - 1, -1.0 / h**2)
    op = TridiagonalOperator(diagonal=diag, off_diagonal=off, step=h,
                             half_length=(n + 1) * h / 2.0, kind="lminus")
    pairs = lowest_eigenpairs(op, 1)
    assert pairs[0][0] == pytest.approx(1.0, abs=0.01)


def test_sturm_count_consistent_with_eigenvalues(p111):
    op = assemble(p111, 0.9, 0.02, kind="lplus")
    pairs = lowest_eigenpairs(op, 4)
    values = [val for val, _ in pairs]
    negatives = sum(1 for v in values if v < 0.0)
    assert eigenvalue_count_below(op, 0.0) == negatives
    mid = 0.5 * (values[1] + values[2])
    assert eigenvalue_count_below(op, mid) == 2


def test_eigenvalues_sorted_and_simple(p111):
    op = assemble(p111, 0.9, 0.02, kind="lplus")
    values = [val for val, _ in lowest_eigenpairs(op, 4)]
    diffs = np.diff(values)
    assert np.all(diffs > 1e-7)


def test_eigenvectors_orthonormal(p111):
    op = assemble(p111, 0.9, 0.02, kind="lminus")
    pairs = lowest_eigenpairs(op, 4)
    vecs = np.column_stack([vec for _, vec in pairs])
    gram = vecs.T @ vecs
    assert np.abs(gram - np.eye(4)).max() < 1e-8


def test_eigenpairs_match_dense_solver(p111):
    for kind in ("lplus", "lminus"):
        op = assemble(p111, 0.9, 0.02, kind=kind)
        pairs = lowest_eigenpairs(op, 4)
        ref_vals, ref_vecs = _dense_reference(op)
        for j, (val, vec) in enumerate(pairs):
            assert val == pytest.approx(ref_vals[j], abs=1e-8)
            cosine = abs(float(vec @ ref_vecs[:, j]))
            assert cosine > 1.0 - 1e-8


def test_ground_state_grid_convergence(p111):
    # second-order discretization: eigenvalue error shrinks 4x per halving
    vals = []
    for h in (0.04, 0.02, 0.01):
        op = assemble(p111, 0.8, h, kind="lplus")
        vals.append(lowest_eigenpairs(op, 1)[0][0])
    ratio = (vals[0] - vals[1]) / (vals[1] - vals[2])
    assert 3.5 < ratio < 4.5


def test_ground_state_domain_converged(p111):
    base_l = 40.0 / math.sqrt(0.19)
    op1 = assemble(p111, 0.9, 0.02, half_length=base_l, kind="lplus")
    op2 = assemble(p111, 0.9, 0.02, half_length=1.25 * base_l, kind="lplus")
    v1 = lowest_eigenpairs(op1, 1)[0][0]
    v2 = lowest_eigenpairs(op2, 1)[0][0]
    assert abs(v1 - v2) < 1e-8


def test_essential_spectrum_edge(p111):
    # above the discrete levels the spectrum fills in down to c = m^2-omega^2
    # on a finite box: the box modes march down toward the edge as L grows
    # and their spacing tightens.  (There is also a weakly bound state just
    # below the edge, so the approach is from both sides.)
    edge = 0.19
    levels = {}
    for half_length in (45.0, 90.0):
        op = assemble(p111, 0.9, 0.02, half_length=half_length, kind="lminus")
        levels[half_length] = [v for v, _ in lowest_eigenpairs(op, 5)]
    for half_length, vals in levels.items():
        assert abs(vals[2] - edge) < 0.01
    assert levels[90.0][3] < levels[45.0][3]
    assert levels[90.0][3] - edge < 0.002
    spacing_45 = levels[45.0][4] - levels[45.0][3]
    spacing_90 = levels[90.0][4] - levels[90.0][3]
    assert spacing_90 < spacing_45


def test_spectral_report_counts_and_matches(p111):
    report = spectral_report(p111, 0.9, 0.02)
    assert report.negative_count_lplus == 1
    assert report.negative_count_lminus == 0
    assert report.lplus_kernel_match > 1.0 - 1e-8
    assert report.lminus_kernel_match > 1.0 - 1e-8
    # translation mode of L_plus and phase mode of L_minus sit at zero,
    # within the discretization band
    assert abs(report.lplus_eigenvalues[1]) < 10.0 * 0.02**2
    assert abs(report.lminus_eigenvalues[0]) < 10.0 * 0.02**2
    # the remaining levels are genuinely positive
    assert report.lplus_eigenvalues[2] > 10.0 * 0.02**2
    assert report.lminus_eigenvalues[1] > 10.0 * 0.02**2
    assert report.lplus_eigenvalues[0] == pytest.approx(-0.198986, abs=1e-5)


def test_spectral_report_to_dict(p111):
    report = spectral_report(p111, 0.9, 0.02)
    data = report.to_dict()
    assert data["grid"]["step"] == 0.02
    assert len(data["lplus_eigenvalues"]) == 4
    assert "lplus_eigenvectors" not in data
    assert data["negative_count_lplus"] == 1


def test_report_eigenvectors_shape(p111):
    report = spectral_report(p111, 0.9, 0.02, k=3)
    n = report.x.size
    assert report.lplus_eigenvectors.shape == (n, 3)
    assert report.lminus_eigenvectors.shape == (n, 3)
    # ground state of L_minus tracks the profile shape
    profile = closed_form_profile(p111, 0.9, report.x)
    unit = profile / np.linalg.norm(profile)
    cosine = abs(float(unit @ report.lminus_eigenvectors[:, 0]))
    assert cosine > 1.0 - 1e-8


@pytest.mark.parametrize("n", [2, 50])
def test_inverse_iteration_at_exact_zero_pivot(n):
    # 1 is an exact eigenvalue of tridiag(-1, 2, -1) for n = 2 and n = 50,
    # and the shift makes the second Thomas pivot exactly zero
    diag = np.full(n, 2.0)
    off = np.full(n - 1, -1.0)
    with np.errstate(over="ignore"):  # the overflowing solve's norm
        v = _inverse_iteration(diag, off, 1.0, np.random.default_rng(0), [])
    assert np.linalg.norm(_matvec(diag, off, v) - v) < 1e-12
