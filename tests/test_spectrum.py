import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from kgstab import (DomainError, EigensolverError, GridError, ModelParams,
                    TridiagonalOperator, apply, assemble, build_profile, cli,
                    closed_form_profile, closed_form_slope,
                    eigenvalue_count_below, lowest_eigenpairs, r_star, soliton,
                    spectral_report, spectrum)
from kgstab import _kernels
from kgstab.model import bisect
from kgstab.soliton import half_line
from kgstab.spectrum import (EIGENVALUE_TOL, _cosine_match, _half_line_rows,
                             _inverse_iteration, _mirror, _parity_blocks,
                             _start_vectors)

# one wave per tau regime: tau = 2 (all stable), 1.1 (mixed window) and 0.98
WAVES = [((1.0, 1.0, 1.0), 0.9), ((1.0, 1.0, math.sqrt(0.55)), 0.6),
         ((1.0, 1.0, 0.7), 0.55)]


def _mirrored(diag, off):
    # the full matrix from its rows at x >= 0
    return TridiagonalOperator(np.concatenate((diag[:0:-1], diag)),
                               np.concatenate((off[::-1], off)))


def _full_grid_x(p, omega, step):
    # the interior nodes of [-L, L]: the lattice without its Dirichlet end,
    # mirrored
    nodes = half_line(p, omega, step)[:-1]
    return np.concatenate((-nodes[:0:-1], nodes))


def _dense_reference(op):
    # the four lowest pairs, all the tests compare
    return scipy.linalg.eigh_tridiagonal(op.diagonal, op.off_diagonal,
                                         select="i", select_range=(0, 3))


# the two callers of soliton.half_line, which sizes every lattice
_LATTICE_CALLERS = pytest.mark.parametrize(
    "build", [build_profile, assemble], ids=["build_profile", "assemble"])


@_LATTICE_CALLERS
def test_assemble_rejects_bad_inputs(p111, build):
    for step in (0.0, -0.02, math.nan):
        with pytest.raises(GridError, match="step"):
            build(p111, 0.9, step)
    for half_length in (0.0, math.inf, math.nan):
        with pytest.raises(GridError, match="half_length"):
            build(p111, 0.9, 0.02, half_length=half_length)
    # ceil(0.04 / 0.02) = 2 intervals
    with pytest.raises(GridError, match="fewer than 4"):
        build(p111, 0.9, 0.02, half_length=0.04)
    if build is assemble:
        with pytest.raises(ValueError):
            assemble(p111, 0.9, 0.02, kind="lzero")
        with pytest.raises(GridError):
            assemble(p111, 0.9, 0.5)  # h > 0.1 / sqrt(c)
        # 3 intervals round up to the 4 of the shortest lattice
        assert assemble(p111, 0.9, 0.02, half_length=0.05).size == 7


@_LATTICE_CALLERS
def test_assemble_node_budget(p111, build, monkeypatch):
    # about 2.8e7 nodes per side at omega = m(1 - 1e-8) and h = 0.01, and
    # 1e7 for an explicit half-length of 1e5
    tracemalloc.start()
    try:
        with pytest.raises(GridError, match="budget"):
            build(p111, 1.0 - 1e-8, 0.01)
        with pytest.raises(GridError, match="budget"):
            build(p111, 0.9, 0.01, half_length=1e5)
        if build is assemble:
            with pytest.raises(GridError, match="budget"):
                assemble(p111, 1.0 - 1e-8, 0.01, kind="lminus")
            with pytest.raises(GridError, match="budget"):
                spectral_report(p111, 1.0 - 1e-8, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before the lattice is allocated
    # the budget counts length / step: a lattice right at it is built
    monkeypatch.setattr(soliton, "MAX_NODES", 2000)
    built = build(p111, 0.9, 0.05, half_length=100.0)
    if build is assemble:
        assert built.size == 2 * 2000 - 1
    else:
        assert built.half_length == 2000 * 0.05
    with pytest.raises(GridError, match="budget"):
        build(p111, 0.9, 0.05, half_length=100.05)


def test_assemble_is_the_full_grid_at_its_dirichlet_end():
    # the operator is the earlier full-grid assembly at the same L, bitwise;
    # where ceil(40/sqrt(c)/h) is already even, L is the earlier default
    even_defaults = 0
    for coefficients, omega in WAVES:
        p = ModelParams(*coefficients)
        c = p.m * p.m - omega * omega
        for h in (0.02, 0.03, 0.04):
            even = math.ceil(40.0 / math.sqrt(c) / h - 1e-9) % 2 == 0
            for kind in ("lplus", "lminus"):
                op = assemble(p, omega, h, kind=kind)
                refs = [oracles.full_grid_assemble(
                    p, omega, h, half_length=half_line(p, omega, h)[-1],
                    kind=kind)]
                if even:
                    refs.append(oracles.full_grid_assemble(p, omega, h,
                                                           kind=kind))
                    even_defaults += 1
                for ref in refs:
                    assert op.size == ref.size
                    assert np.array_equal(op.diagonal, ref.diagonal)
                    assert np.array_equal(op.off_diagonal, ref.off_diagonal)
    # the tau = 0.98 wave at h = 0.03 and 0.04, both kinds
    assert even_defaults == 4


@pytest.mark.parametrize("wave", WAVES)
def test_profile_and_spectrum_share_the_lattice(wave, capsys):
    (a, b, m), omega = wave
    p = ModelParams(a, b, m)
    for h in (0.02, 0.03):
        report = spectral_report(p, omega, h)
        profile = build_profile(p, omega, h)
        assert report.half_length == profile.half_length
        mid = report.x.size // 2
        assert np.array_equal(report.x[mid:], profile.x[:-1])
        args = ["--a", repr(a), "--b", repr(b), "--m", repr(m),
                "--omega", repr(omega), "--h", repr(h), "--json"]
        printed = []
        for command in ("profile", "spectrum"):
            assert cli.main([command, *args]) == 0
            printed.append(json.loads(capsys.readouterr().out)["payload"])
        assert printed[0]["half_length"] == profile.half_length
        assert printed[1]["grid"]["half_length"] == profile.half_length


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
    x = _full_grid_x(p111, 0.9, h)
    assert x.size == op.size
    assert x[0] == pytest.approx(-x[-1], rel=1e-12)
    mid = op.size // 2
    assert x[mid] == pytest.approx(0.0, abs=1e-12)
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
            v = field(p111, 0.9, _full_grid_x(p111, 0.9, h))
            residual = apply(op, v)
            sups.append(float(np.abs(residual).max()))
            assert sups[-1] < 10.0 * h**2 * r_star(p111, 0.9)
        assert sups[0] / sups[1] == pytest.approx(4.0, rel=0.25)


def test_lowest_eigenpairs_rejects_bad_arguments(p111):
    op = assemble(p111, 0.9, 0.1)
    for k in (0, op.size + 1):
        with pytest.raises(DomainError):
            lowest_eigenpairs(op, k)
    with pytest.raises(DomainError):
        spectral_report(p111, 0.9, 0.1, k=op.size + 1)


def test_spectral_report_needs_two_pairs(p111):
    # the L+ kernel match reads the second eigenpair
    with pytest.raises(DomainError, match="at least 2"):
        spectral_report(p111, 0.9, 0.1, k=1)


def test_overflowing_solve_nudges_the_shift(p111, monkeypatch):
    # the first solve overflows, as at an exact zero pivot: the shift moves
    # by a few ulps, the iteration restarts, and the pair is still right
    op = assemble(p111, 0.9, 0.05, kind="lplus")
    solve = spectrum._kernels.tridiag_solve
    shifted = []

    def overflow_once(diag, off, rhs):
        shifted.append(diag)
        if len(shifted) == 1:
            return np.full(rhs.shape, np.inf)
        return solve(diag, off, rhs)

    monkeypatch.setattr(spectrum._kernels, "tridiag_solve", overflow_once)
    (value, vector), = lowest_eigenpairs(op, 1)
    assert len(shifted) > 2
    move = shifted[0] - shifted[1]  # the nudge: a few ulps of the scale
    assert 0.0 < move.min() and move.max() < 1e-9
    ref_vals, ref_vecs = _dense_reference(op)
    assert abs(value - ref_vals[0]) <= 1e-10
    assert abs(float(vector @ ref_vecs[:, 0])) > 1.0 - 1e-8


def test_free_operator_ground_state():
    # with no potential the smallest eigenvalue sits at the mass shell m^2
    h = 0.05
    n = 801
    diag = np.full(n, 2.0 / h**2 + 1.0)
    off = np.full(n - 1, -1.0 / h**2)
    op = TridiagonalOperator(diagonal=diag, off_diagonal=off)
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
        _, v = _inverse_iteration(diag, off, 1.0, spectrum._COARSE_WIDTH,
                                  _start_vectors(n, 0), [])
    assert np.linalg.norm(_kernels.matvec(diag, off, v) - v) < 1e-12


@pytest.mark.parametrize("n, k", [(2, 1), (50, 17)])
def test_exact_zero_pivot_prints_no_warning(n, k):
    # the overflowing solve's norm must stay quiet inside the library; the
    # exact eigenvalue 1 of tridiag(-1, 2, -1) is the k-th lowest
    diag = np.full(n, 2.0)
    off = np.full(n - 1, -1.0)
    op = TridiagonalOperator(diagonal=diag, off_diagonal=off)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, v = _inverse_iteration(diag, off, 1.0, spectrum._COARSE_WIDTH,
                                  _start_vectors(n, 0), [])
        pairs = lowest_eigenpairs(op, k)
    assert np.linalg.norm(_kernels.matvec(diag, off, v) - v) < 1e-12
    assert pairs[-1][0] == pytest.approx(1.0, abs=1e-12)


def _minus_wilkinson():
    # -W21+: its two lowest eigenvalues differ by about 1e-14
    diag = -np.abs(np.arange(-10, 11)).astype(float)
    off = -np.ones(20)
    return TridiagonalOperator(diagonal=diag, off_diagonal=off)


def test_near_degenerate_cluster(monkeypatch):
    op = _minus_wilkinson()
    refinements = []

    def counted(*args):
        refinements.append(args[2])
        return _inverse_iteration(*args)

    monkeypatch.setattr(spectrum, "_inverse_iteration", counted)
    pairs = lowest_eigenpairs(op, 6)
    ref = scipy.linalg.eigh_tridiagonal(op.diagonal, op.off_diagonal,
                                        eigvals_only=True, select="i",
                                        select_range=(0, 5))
    values = np.array([val for val, _ in pairs])
    assert np.abs(values - ref).max() < 1e-8
    vecs = np.column_stack([vec for _, vec in pairs])
    assert np.abs(vecs.T @ vecs - np.eye(6)).max() < 1e-8
    # the third pair, about 7e-9 apart, needs brackets finer than 1e-3
    # and 1e-6 before the lower member is refined
    assert len(refinements) > 6


def _wave_rows(wave, step):
    # the operators' rows at x >= 0: the L+ and L- diagonals on the nodes
    # 0 .. N-1 of the lattice, and their shared off-diagonal
    coefficients, omega = wave
    p = ModelParams(*coefficients)
    _, diagonals, off = _half_line_rows(p, omega, step, None)
    return p, omega, diagonals, off


@pytest.mark.parametrize("wave", WAVES)
def test_parity_block_counts_add_up(wave):
    h = 0.04
    p, omega, diagonals, off = _wave_rows(wave, h)
    c = p.m * p.m - omega * omega
    for diag in diagonals.values():
        op = _mirrored(diag, off)
        even, odd = _parity_blocks(diag, off)
        assert even.size + odd.size == op.size
        for shift in (-0.3, -10.0 * h * h, 0.0, c, 10.0):
            assert (eigenvalue_count_below(op, shift)
                    == eigenvalue_count_below(even, shift)
                    + eigenvalue_count_below(odd, shift))


def test_report_counts_rows_on_the_half_line(p111, monkeypatch):
    # every Sturm count runs on a parity block, of N or N - 1 rows, never on
    # the 2N - 1 rows of the full grid: the report builds one counter per
    # block, and the solver and the negative count share it
    sturm_counter = spectrum._kernels.sturm_counter
    rows = []

    def counted(diag, off):
        rows.append(len(diag))
        return sturm_counter(diag, off)

    monkeypatch.setattr(spectrum._kernels, "sturm_counter", counted)
    report = spectral_report(p111, 0.9, 0.02)
    half = report.x.size // 2 + 1
    assert sorted(rows) == [half - 1] * 2 + [half] * 2


@pytest.mark.parametrize("wave", WAVES)
def test_report_equals_the_elementwise_counts_report(wave, monkeypatch):
    # the counter's early exit changes no count, so every shift, solve and
    # byte of the report is the one the full elementwise walk gives
    coefficients, omega = wave
    p = ModelParams(*coefficients)
    want = spectral_report(p, omega, 0.04)

    def elementwise(diag, off):
        return lambda shift, cap=None: oracles.sturm_count_elementwise(
            diag, off, shift)

    monkeypatch.setattr(spectrum._kernels, "sturm_counter", elementwise)
    got = spectral_report(p, omega, 0.04)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    for name in ("lplus_eigenvectors", "lminus_eigenvectors"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("wave", WAVES)
def test_kernels_land_in_expected_blocks(wave):
    p, omega, diagonals, off = _wave_rows(wave, 0.04)
    x = _full_grid_x(p, omega, 0.04)
    # R is the ground state of L- (even); R' the ground state of the odd
    # block of L+, which is pair 1 of L+
    even_minus, _ = _parity_blocks(diagonals["lminus"], off)
    _, odd_plus = _parity_blocks(diagonals["lplus"], off)
    r = _mirror(lowest_eigenpairs(even_minus, 1)[0][1], False)
    r_slope = _mirror(lowest_eigenpairs(odd_plus, 1)[0][1], True)
    assert _cosine_match(r, closed_form_profile(p, omega, x)) > 1.0 - 1e-6
    assert _cosine_match(r_slope, closed_form_slope(p, omega, x)) > 1.0 - 1e-6


def test_mirrored_vectors_exactly_even_or_odd(p111):
    report = spectral_report(p111, 0.9, 0.04, k=4)
    mid = report.x.size // 2
    for vecs in (report.lplus_eigenvectors, report.lminus_eigenvectors):
        for j in range(4):
            v = vecs[:, j]
            assert abs(np.linalg.norm(v) - 1.0) < 1e-14
            peak = np.argmax(np.abs(v))
            assert v[peak] > 0.0
            if j % 2 == 0:
                assert np.array_equal(v[::-1], v)
            else:
                assert np.array_equal(v[::-1], -v)
                assert v[mid] == 0.0
                assert peak < mid  # the tie goes to the x < 0 node


@pytest.mark.parametrize("wave", WAVES)
def test_report_within_stated_tolerance_of_bisection_path(wave):
    # the payload tolerance against full-grid bisection to 1e-10
    h = 0.04
    coefficients, omega = wave
    p = ModelParams(*coefficients)
    report = spectral_report(p, omega, h, k=4)
    band = spectrum.kernel_band(p, omega, h)
    x = report.x
    fields = {"lplus": (1, closed_form_slope(p, omega, x)),
              "lminus": (0, closed_form_profile(p, omega, x))}
    for kind, (j, field) in fields.items():
        op = assemble(p, omega, h, kind=kind)
        ref = oracles.bisection_eigenpairs(op.diagonal, op.off_diagonal, 4)
        values = getattr(report, f"{kind}_eigenvalues")
        vecs = getattr(report, f"{kind}_eigenvectors")
        for i, (ref_val, ref_vec) in enumerate(ref):
            assert abs(values[i] - ref_val) <= 1e-10
            assert abs(float(vecs[:, i] @ ref_vec)) >= 1.0 - 1e-9
        match = getattr(report, f"{kind}_kernel_match")
        assert abs(match - _cosine_match(ref[j][1], field)) <= 1e-9
        negatives = sum(val < -band for val, _ in ref)
        assert getattr(report, f"negative_count_{kind}") == negatives


@pytest.mark.parametrize("diag, off", [
    (np.array([1.0, 2.0, 3.0]), np.array([0.5])),  # was broadcast
    (np.array([1.0, 2.0]), np.array([0.5, 0.5])),
    (np.empty(0), np.empty(0)),
    (np.ones((2, 2)), np.ones(1)),
    (np.ones(2), np.ones((1, 1))),
    ([1.0, 2.0], [0.5]),
])
def test_operator_refuses_malformed_input(diag, off):
    with pytest.raises(ValueError):
        TridiagonalOperator(diag, off)


def test_operator_of_one_node():
    op = TridiagonalOperator(np.array([3.0]), np.empty(0))
    assert op.size == 1
    (value, vector), = lowest_eigenpairs(op, 1)
    assert value == 3.0 and vector.tolist() == [1.0]


# Spectra 2e-15 and 2e-38 wide.  A 1e-3 bracket would cover each whole:
# Rayleigh-quotient iteration would start at its exact midpoint, magnify
# both eigenvectors equally, and alternate between them.  The bisection
# widths shrink with the matrix scale max|d| + 2 max|e| below 1, so the
# first bracket already isolates one eigenvalue.  The off-diagonals are not
# negligible by the LAPACK dstebz split test,
# e^2 <= ulp^2 |d_i d_{i+1}| + safemin, so splitting would not mend it.
@pytest.mark.parametrize("diag, off, k", [
    ([1e-15, 1e-15], [1e-15], 1),
    ([0.0, 0.0], [1e-38], 2),
])
def test_lowest_eigenpairs_tiny_spectrum(diag, off, k):
    diag, off = np.array(diag), np.array(off)
    pairs = lowest_eigenpairs(TridiagonalOperator(diag, off), k)
    ref = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)
    assert np.abs(np.array([val for val, _ in pairs]) - ref[:k]).max() \
        <= 1e-10


# Near 2e6 the float spacing is 2.3e-10, so the confirming counts at
# value -+ EIGENVALUE_TOL round to the value itself and every width fails;
# the last bisection, to 1e-10, used to halve a bracket of two neighbouring
# floats forever.  In a fresh interpreter, so that a hang is a timeout.
_BELOW_THE_SPACING = """
import numpy as np
from kgstab import EigensolverError, TridiagonalOperator, lowest_eigenpairs
op = TridiagonalOperator(np.array([2e6, 3e6]), np.array([1.0]))
try:
    lowest_eigenpairs(op, 1)
except EigensolverError:
    print("refused")
"""


def test_eigenvalue_below_the_float_spacing_is_refused_not_hung():
    src = os.path.dirname(os.path.dirname(os.path.abspath(spectrum.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _BELOW_THE_SPACING],
                          env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout == "refused\n"


# Node 0 is coupled to the rest by 1e-10 only, which the dstebz split test
# keeps (1e-20 > ulp^2 |0.5 * -1|).  Refining eigenvalue 3 (0.5), the
# Rayleigh quotient lands exactly on that diagonal entry, where the Thomas
# loop's first pivot is exactly 0: floored to -pivmin, it comes back with
# node 0 zeroed, and the iteration used to converge to eigenvalue 4
# (1.7616), which the Sturm check refused at every width.  Cyclic reduction
# keeps node 0.
def test_lowest_eigenpairs_weakly_coupled_node():
    diag = np.array([0.5, -1.0, 1e-20, -2.0, 1e-38])
    off = np.array([1e-10, -2.0, -1.0, 1.0])
    pairs = lowest_eigenpairs(TridiagonalOperator(diag, off), 4)
    ref = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)
    assert np.abs(np.array([val for val, _ in pairs]) - ref[:4]).max() \
        <= 1e-10


# Two eigenpairs about EIGENVALUE_TOL apart: the Sturm confirmation accepts
# any value within the tolerance of the lowest eigenvalue, so the refinement
# settles on the neighbour.  [3, 3, 3] returns 3.0, 1.00000008e-10 above
# the lowest; [1e-300, 2, 1e-10] returns 9.99999999e-11, within the
# tolerance of the lowest (-5e-41) but with the neighbour's vector (~e3,
# where the lowest's is ~e1).
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the refinement settles on the neighbouring pair")
@pytest.mark.parametrize("diag, off", [
    ([3.0, 3.0, 3.0], [1e-300, 1e-10]),
    ([1e-300, 2.0, 1e-10], [1e-20, 1e-20]),
])
def test_lowest_eigenpair_is_not_its_neighbour(diag, off):
    diag, off = np.array(diag), np.array(off)
    [(value, vector)] = lowest_eigenpairs(TridiagonalOperator(diag, off), 1)
    values, vectors = np.linalg.eigh(
        np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    assert abs(value - values[0]) <= EIGENVALUE_TOL
    assert abs(vector @ vectors[:, 0]) > 0.999


# Members of a cluster that one Gram-Schmidt pass cannot keep apart: the
# solve at an eigenvalue of two decoupled blocks lands on an earlier vector,
# the projection cancels all but its rounding errors, and a single pass used
# to return that vector again.  Each input must give orthonormal pairs of the
# right values, or raise EigensolverError.
@pytest.mark.parametrize("diag, off, k", [
    ([5e-324, 0.0, -2.0], [2.0, 1e-38], 2),
    ([1.0, 1e-38, 5e-324, 1e-300, 2.0, 1.0], [1e-10, 0.0, 1.0, 0.0, -1.0], 6),
    ([1e-38, 1e-10, 1e-38], [1e-300, 0.0], 3),
    ([1.0, 1.0, 5e-324, -2.0, 1e-10, 3.0],
     [1.0, 1e-300, 5e-324, 1e-10, 2.0], 5),
    ([1e-10, 0.0, 1e-300, 1e-300, 1e-20], [1e-300, 5e-324, 1e-38, 0.0], 5),
])
def test_lowest_eigenpairs_keep_cluster_members_apart(diag, off, k):
    diag, off = np.array(diag), np.array(off)
    try:
        pairs = lowest_eigenpairs(TridiagonalOperator(diag, off), k)
    except EigensolverError:
        return
    ref = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)
    assert np.abs(np.array([val for val, _ in pairs]) - ref[:k]).max() \
        <= 1e-10
    vecs = np.column_stack([vec for _, vec in pairs])
    assert np.abs(vecs.T @ vecs - np.eye(k)).max() < 1e-8


def test_apply_refuses_a_vector_of_the_wrong_shape():
    op = TridiagonalOperator(np.array([2.0, 3.0]), np.array([1.0]))
    assert apply(op, [1.0, 1.0]).tolist() == [3.0, 4.0]
    # a 2 x 2 array would broadcast through the product unnoticed
    for bad in (np.ones(3), np.ones((2, 2)), 5.0):
        with pytest.raises(ValueError):
            apply(op, bad)


_ENTRIES = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def _tridiagonals(draw):
    n = draw(st.integers(1, 40))
    diag = np.array(draw(st.lists(_ENTRIES, min_size=n, max_size=n)))
    off = np.array(draw(st.lists(_ENTRIES, min_size=n - 1, max_size=n - 1)))
    return diag, off, draw(st.integers(1, n))


@settings(max_examples=60)
@given(_tridiagonals())
def test_lowest_eigenpairs_random_tridiagonal(case):
    diag, off, k = case
    pairs = lowest_eigenpairs(TridiagonalOperator(diag, off), k)
    ref = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True,
                                        select="i", select_range=(0, k - 1))
    values = np.array([val for val, _ in pairs])
    assert np.abs(values - ref).max() <= 1e-9
    vecs = np.column_stack([vec for _, vec in pairs])
    assert np.abs(vecs.T @ vecs - np.eye(k)).max() < 1e-8
    for val, vec in pairs:
        residual = _kernels.matvec(diag, off, vec) - val * vec
        assert np.linalg.norm(residual) < 1e-8


@settings(max_examples=60)
@given(_tridiagonals())
def test_lowest_eigenpairs_capped_counts_change_nothing(case):
    # the capped count answers every "at most j?" as the full count does, so
    # a counter that ignores the cap gives the same values and vector bytes
    diag, off, k = case
    op = TridiagonalOperator(diag, off)
    want = lowest_eigenpairs(op, k)
    sturm_counter = spectrum._kernels.sturm_counter

    def uncapped(diag, off):
        count = sturm_counter(diag, off)
        return lambda shift, cap=None: count(shift)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum._kernels, "sturm_counter", uncapped)
        got = lowest_eigenpairs(op, k)
    assert [value for value, _ in got] == [value for value, _ in want]
    assert ([vector.tobytes() for _, vector in got]
            == [vector.tobytes() for _, vector in want])


@settings(max_examples=60)
@given(_tridiagonals())
def test_lowest_eigenpairs_values_are_rayleigh_quotients(case):
    # each value is the Rayleigh quotient inverse iteration accepted, bit for
    # bit that of the vector returned with it
    diag, off, k = case
    for value, vector in lowest_eigenpairs(TridiagonalOperator(diag, off), k):
        quotient = float(_kernels.dot(vector,
                                      _kernels.matvec(diag, off, vector)))
        assert value.hex() == quotient.hex()


def test_unconverged_refinements_raise_after_the_last_width(monkeypatch):
    # every refinement fails: one bisection and refinement per width, each
    # bracket narrower than the last, and then EigensolverError
    shifts, widths = [], []

    def unconverged(diag, off, eigenvalue, width, starts, neighbors):
        shifts.append(eigenvalue)
        widths.append(width)

    monkeypatch.setattr(spectrum, "_inverse_iteration", unconverged)
    op = TridiagonalOperator(np.full(10, 2.0), np.full(9, -1.0))
    with pytest.raises(EigensolverError,
                       match="^eigenpair 0 not refined and confirmed near "):
        lowest_eigenpairs(op, 2)
    assert tuple(widths) == spectrum._WIDTHS
    ground = 2.0 - 2.0 * math.cos(math.pi / 11.0)
    for shift, width in zip(shifts, spectrum._WIDTHS):
        assert abs(shift - ground) <= width


@st.composite
def _even_tridiagonals(draw):
    # the rows at x >= 0 of a mirror-symmetric matrix
    side = draw(st.integers(1, 19))
    diag = draw(st.lists(_ENTRIES, min_size=side + 1, max_size=side + 1))
    off = draw(st.lists(_ENTRIES, min_size=side, max_size=side))
    return np.array(diag), np.array(off), draw(st.floats(-40.0, 40.0))


@settings(max_examples=60)
@given(_even_tridiagonals())
def test_parity_block_counts_random_even(case):
    diag, off, shift = case
    op = _mirrored(diag, off)
    values = scipy.linalg.eigh_tridiagonal(op.diagonal, op.off_diagonal,
                                           eigvals_only=True)
    assume(np.abs(values - shift).min() > 1e-9)
    even, odd = _parity_blocks(diag, off)
    assert (eigenvalue_count_below(op, shift)
            == eigenvalue_count_below(even, shift)
            + eigenvalue_count_below(odd, shift))


# the spanning entries of the counter tests: pivots that underflow, overflow
# or land on the floor, and weakly coupled nodes
_SPAN_ENTRIES = [0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 3.0, 1e-10, 1e-20, 1e-38,
                 1e-300, 5e-324]


@st.composite
def _spanning_problems(draw):
    n = draw(st.integers(2, 6))
    entries = st.sampled_from(_SPAN_ENTRIES)
    diag = draw(st.lists(entries, min_size=n, max_size=n))
    off = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    return np.array(diag), np.array(off), draw(st.integers(1, n))


def _lowest_values(diag, off, k):
    try:
        pairs = lowest_eigenpairs(TridiagonalOperator(diag, off), k)
    except EigensolverError:
        return None
    return np.array([val for val, _ in pairs])


# The Rayleigh quotient lands exactly on an eigenvalue, where a pivot
# floored at the safe minimum alone overflows or drops a node: cyclic
# reduction keeps the Thomas loop's answers through its 4 eps |d| floor
@example(case=(np.array([0.0, -1.0, 1e-300, 2.0]), np.array([1.0, 0.5, 0.5]),
               4))
@example(case=(np.array([0.5, 1.0, 1e-300, 0.0, 5e-324]),
               np.array([1e-10, -1.0, 1e-10, 1e-20]), 4))
@example(case=(np.array([5e-324, 0.5, 1.0, 1e-10, 0.5, 5e-324]),
               np.array([5e-324, 0.0, 2.0, 1e-10, -2.0]), 4))
# derandomized: rare inputs break the property through the defect pinned by
# test_cluster_vectors_block_the_next_refinement, so a fixed draw keeps the
# suite deterministic
@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_spanning_problems())
def test_lowest_eigenpairs_solve_whatever_the_thomas_loop_solves(case):
    # wherever the solver on the Thomas loop alone (the solve before cyclic
    # reduction) is within the tolerance of the dense eigenvalues, the
    # solver on tridiag_solve is too
    diag, off, k = case
    dense = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1)
                               + np.diag(off, -1))[:k]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum._kernels, "tridiag_solve",
                      spectrum._kernels._thomas_solve)
        thomas = _lowest_values(diag, off, k)
    assume(thomas is not None
           and np.abs(thomas - dense).max() <= EIGENVALUE_TOL)
    values = _lowest_values(diag, off, k)
    assert values is not None
    assert np.abs(values - dense).max() <= EIGENVALUE_TOL


# A triple eigenvalue 1 (nodes 0 and 2, and nodes 3-4) beside 3 at node 1,
# coupled by 1e-10.  Each of the three cluster vectors is accepted with a
# residual under the stopping test, 100 ulps of the scale, but may carry
# about 4e-14 of the eigenvector of 3; projecting those out of the fourth
# pair's vector then leaves it a residual of about 1e-13, above the same
# test, and the iteration stalls.  The SplitMix64 start vectors give cluster
# vectors that carry less of it, and the pair converges; from the earlier
# numpy.random ones it still stalls, so the stopping test's weakness stays.
# Pinned so that start vectors which bring the stall back show.
def test_cluster_vectors_block_the_next_refinement():
    diag = np.array([1.0, 3.0, 1.0, 5e-324, 5e-324])
    off = np.array([1e-10, 1e-38, 1e-20, -1.0])
    pairs = lowest_eigenpairs(TridiagonalOperator(diag, off), 5)
    values = np.array([val for val, _ in pairs])
    dense = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1)
                               + np.diag(off, -1))
    assert np.abs(values - dense).max() <= EIGENVALUE_TOL


def _assert_within_stated_tolerance(got, want):
    """Equal negative counts, eigenvalues within 1e-12, kernel matches
    within 1e-14 and eigenvectors within 1e-12 in |cos|."""
    for kind in ("lplus", "lminus"):
        assert (getattr(got, f"negative_count_{kind}")
                == getattr(want, f"negative_count_{kind}"))
        values = np.array(getattr(got, f"{kind}_eigenvalues"))
        assert np.abs(values - getattr(want, f"{kind}_eigenvalues")).max() \
            <= 1e-12
        assert abs(getattr(got, f"{kind}_kernel_match")
                   - getattr(want, f"{kind}_kernel_match")) <= 1e-14
        cosines = np.abs(np.sum(getattr(got, f"{kind}_eigenvectors")
                                * getattr(want, f"{kind}_eigenvectors"),
                                axis=0))
        assert cosines.min() >= 1.0 - 1e-12


@pytest.mark.parametrize("wave", WAVES)
def test_report_within_stated_tolerance_of_the_thomas_solves(wave,
                                                             monkeypatch):
    # the same report with every solve by the Thomas loop
    coefficients, omega = wave
    p = ModelParams(*coefficients)
    got = spectral_report(p, omega, 0.02)
    monkeypatch.setattr(spectrum._kernels, "tridiag_solve",
                        spectrum._kernels._thomas_solve)
    _assert_within_stated_tolerance(got, spectral_report(p, omega, 0.02))


def test_start_vectors_are_splitmix64_streams():
    # entry i of draw d for pair j is output i + 1 of SplitMix64 seeded
    # j * 2^32 + d, its top 53 bits mapped to [-1, 1), then normalized by
    # the square root of the fixed-order sum ``_kernels.dot``
    assert oracles.splitmix64(0, 1) == [0xE220A8397B1DCDAF]
    for pair in (0, 3):
        starts = _start_vectors(5, pair)
        for draw in range(3):
            raw = np.array([(z >> 11) * 2.0**-52 - 1.0 for z in
                            oracles.splitmix64((pair << 32) + draw, 5)])
            got = next(starts)
            norm = math.sqrt(_kernels.dot(raw, raw))
            assert got.tobytes() == (raw / norm).tobytes()
    firsts = {next(_start_vectors(40, pair)).tobytes() for pair in range(8)}
    assert len(firsts) == 8


@pytest.mark.parametrize("starts", [_start_vectors,
                                    oracles.normal_start_vectors],
                         ids=["splitmix64", "numpy"])
def test_report_never_bisects_below_the_coarse_width(p111, monkeypatch,
                                                     starts):
    # every Rayleigh quotient outside its 1e-3 bracket keeps the previous
    # shift, so no pair of the report falls through to a finer bracket; the
    # earlier refinement, from numpy.random start vectors, left the bracket
    # at 0.18967 for the box mode at 0.19263 once here and bisected again
    widths = []
    monkeypatch.setattr(spectrum, "_start_vectors", starts)

    def spied(goes_up, lo, hi, tol):
        widths.append(tol)
        return bisect(goes_up, lo, hi, tol)

    monkeypatch.setattr(spectrum, "bisect", spied)
    spectral_report(p111, 0.9, 0.02)
    assert widths and set(widths) == {spectrum._COARSE_WIDTH}


@pytest.mark.parametrize("wave", WAVES)
def test_report_within_stated_tolerance_of_the_rayleigh_quotient_path(
        wave, monkeypatch):
    # the same report with a Rayleigh-quotient shift at every step and
    # numpy.random start vectors, the refinement before the bracket
    # safeguard
    coefficients, omega = wave
    p = ModelParams(*coefficients)
    got = spectral_report(p, omega, 0.02)
    monkeypatch.setattr(spectrum, "_start_vectors",
                        oracles.normal_start_vectors)
    monkeypatch.setattr(spectrum, "_inverse_iteration",
                        oracles.rayleigh_every_step(_inverse_iteration))
    _assert_within_stated_tolerance(got, spectral_report(p, omega, 0.02))


# Every sum by np.dot, the BLAS reduction that ``_kernels.dot`` replaced:
# bit for bit the earlier reports (np.linalg.norm is sqrt(np.dot(v, v))).
# Worst cases measured on these reports and the spectrum benchmark's 30
# (seeds 1-10): eigenvalues 6.8e-14, kernel matches 6.7e-16 and
# eigenvectors 1 - 1e-14 in |cos|.
@pytest.mark.parametrize("step", [0.02, 0.04])
@pytest.mark.parametrize("wave", WAVES)
def test_report_within_stated_tolerance_of_the_blas_sums(wave, step,
                                                         monkeypatch):
    coefficients, omega = wave
    p = ModelParams(*coefficients)
    got = spectral_report(p, omega, step)
    monkeypatch.setattr(spectrum._kernels, "dot", np.dot)
    _assert_within_stated_tolerance(got, spectral_report(p, omega, step))


# The kernel eigenvalues are O(c^2 h^2), c = m^2 - omega^2.  A band of
# 10 h^2 counted L+'s negative eigenvalue -0.0245 at c = 0.0199 as 0 (the
# band 0.4 swallowed it), and L+'s kernel eigenvalue -0.0035 at c = 48 as a
# second negative direction (the band 0.001 missed it).
@pytest.mark.parametrize("coefficients, omega, step", [
    ((1.0, 1.0, 1.0), 0.99, 0.2),
    ((10.0, 1.0, 7.0), 1.0, 0.01),
])
def test_negative_counts_at_small_and_large_c(coefficients, omega, step):
    p = ModelParams(*coefficients)
    report = spectral_report(p, omega, step)
    band = spectrum.kernel_band(p, omega, step)
    assert report.negative_count_lplus == 1
    assert report.negative_count_lminus == 0
    assert report.lplus_eigenvalues[0] < -band
    assert abs(report.lplus_eigenvalues[1]) < band
    assert abs(report.lminus_eigenvalues[0]) < band
    assert report.lplus_kernel_match > 0.999
    assert report.lminus_kernel_match > 0.999


def test_kernel_band_scales_as_c_squared_h_squared():
    # L+-/c depends on the lattice only through h sqrt(c), and so does
    # band / c = 10 (h sqrt(c))^2: at the same h sqrt(c), c = 0.19 and
    # c = 0.76 have bands in the ratio 4 of their c
    band = spectrum.kernel_band(ModelParams(1.0, 1.0, 1.0), 0.9, 0.02)
    scaled = spectrum.kernel_band(ModelParams(2.0, 1.0, 2.0), 1.8, 0.01)
    assert band == pytest.approx(10.0 * (0.19 * 0.02) ** 2, rel=1e-12)
    assert scaled == pytest.approx(4.0 * band, rel=1e-12)
