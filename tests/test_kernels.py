import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgstab
import oracles
from kgstab import ModelParams, _kernels
from kgstab.spectrum import _half_line_rows, _parity_blocks
from test_spectrum import WAVES


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


# entries whose scales span the double range, subnormal included: pivots
# that underflow, overflow or land on the floor
_SPAN_ENTRIES = [0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 3.0, 1e-10, 1e-20, 1e-38,
                 1e-300, 5e-324]


@st.composite
def _spanning_tridiagonals(draw):
    n = draw(st.integers(2, 6))
    entries = st.sampled_from(_SPAN_ENTRIES)
    diag = draw(st.lists(entries, min_size=n, max_size=n))
    off = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    shift = draw(st.one_of(entries, st.floats()))  # NaN and +-inf included
    return np.array(diag), np.array(off), shift


@settings(max_examples=400)
@given(case=_spanning_tridiagonals())
def test_sturm_count_equals_the_elementwise_loop(case):
    diag, off, shift = case
    assert (_kernels.sturm_count(diag, off, shift)
            == oracles.sturm_count_elementwise(diag, off, shift))


# the span entries and the non-finite ones: pivots that are inf or NaN from
# the first row, and suffix bounds of the early exit that an inf or a NaN
# spoils
_COUNTER_ENTRIES = [*_SPAN_ENTRIES, math.inf, -math.inf, math.nan]


@st.composite
def _counter_cases(draw):
    n = draw(st.integers(1, 8))
    entries = st.sampled_from(_COUNTER_ENTRIES)
    diag = draw(st.lists(entries, min_size=n, max_size=n))
    off = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    shifts = draw(st.lists(st.one_of(entries, st.floats()), min_size=1,
                           max_size=16))
    return np.array(diag), np.array(off), shifts


@settings(max_examples=500)
@given(case=_counter_cases())
# an infinite suffix minimum beside an infinite e^2: the edge is inf - inf
@example(case=(np.array([1.0, math.inf]), np.array([math.inf]), [0.0]))
def test_sturm_counter_equals_the_elementwise_loop(case):
    # one counter, many shifts in a row: its early exit never changes a
    # count, whatever the shift's place against the matrix's edge
    diag, off, shifts = case
    count = _kernels.sturm_counter(diag, off)
    for shift in shifts:
        assert count(shift) == oracles.sturm_count_elementwise(diag, off,
                                                               shift)


@settings(max_examples=500)
@given(case=_counter_cases())
@example(case=(np.array([1.0, math.inf]), np.array([math.inf]), [0.0]))
def test_sturm_counter_cap_equals_the_clipped_loop(case):
    # a capped count returns at the pivot that passes the cap: the full
    # count clipped to cap + 1, for every cap from 0 to n and every shift
    diag, off, shifts = case
    count = _kernels.sturm_counter(diag, off)
    for shift in shifts:
        want = oracles.sturm_count_elementwise(diag, off, shift)
        for cap in range(diag.size + 1):
            assert count(shift, cap) == min(want, cap + 1)


@pytest.mark.parametrize("wave", WAVES)
def test_sturm_counter_on_the_parity_blocks(wave):
    # shifts across each block's Gershgorin interval, densest below the
    # continuum edge m^2 - omega^2, where the counts stop early; uncapped
    # and capped at the solver's indices
    coefficients, omega = wave
    p = ModelParams(*coefficients)
    _, diagonals, off = _half_line_rows(p, omega, 0.04, None)
    edge = p.m * p.m - omega * omega
    for diagonal in diagonals.values():
        for block in _parity_blocks(diagonal, off):
            diag, off_diag = block.diagonal, block.off_diagonal
            radius = np.zeros(diag.size)
            radius[:-1] += np.abs(off_diag)
            radius[1:] += np.abs(off_diag)
            lo = float((diag - radius).min())
            hi = float((diag + radius).max())
            count = _kernels.sturm_counter(diag, off_diag)
            for shift in [*np.linspace(lo, hi, 65),
                          *np.linspace(lo, edge, 193)]:
                want = oracles.sturm_count_elementwise(diag, off_diag, shift)
                assert count(shift) == want
                for cap in range(4):
                    assert count(shift, cap) == min(want, cap + 1)


@pytest.mark.parametrize("shift", [math.inf, -math.inf, math.nan])
def test_sturm_count_at_a_non_finite_shift_is_quiet(shift):
    # d - shift overflows, or meets an infinite d; the suite turns any
    # RuntimeWarning into an error
    for diag in (np.array([np.inf, 1.0, -np.inf]), np.array([1e308, -1e308,
                                                             0.0])):
        off = np.array([1.0, 1e-300])
        assert (_kernels.sturm_count(diag, off, shift)
                == oracles.sturm_count_elementwise(diag, off, shift))


def _reference_solve(diag, off, rhs):
    # a floored zero pivot overflows to inf; the NumPy-scalar loop warns
    with np.errstate(over="ignore", invalid="ignore"):
        return oracles.tridiag_solve(diag, off, rhs)


@pytest.mark.parametrize("n", [1, 2, 50])
def test_tridiag_solve_equals_reference(n):
    # the Thomas loop, which tridiag_solve falls back to
    rng = np.random.default_rng(200 + n)
    for _ in range(10):
        diag, off = _random_tridiag(rng, n)
        rhs = rng.normal(size=n)
        eigs = np.linalg.eigvalsh(
            np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        # unshifted, a zero first pivot, and the near-singular shifts of
        # inverse iteration
        for shift in (0.0, diag[0], eigs[0], eigs[-1]):
            got = _kernels._thomas_solve(diag - shift, off, rhs)
            want = _reference_solve(diag - shift, off, rhs)
            assert _same_bits(got, want)
    for diag, off, shift in _ZERO_PIVOT_CASES:
        rhs = rng.normal(size=diag.size)
        got = _kernels._thomas_solve(diag - shift, off, rhs)
        assert _same_bits(got, _reference_solve(diag - shift, off, rhs))


# the acceptance bound of tridiag_solve, c = 12, plus the rounding of this
# dense residual: each row sums at most three products and -rhs, so its
# residual is off the exact one by at most 4 eps (|T| |x| + |rhs|)
_CHECKED_ULPS = 12.0 + 4.0


def _meets_backward_bound(diag, off, rhs, x):
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    residual = dense @ x - rhs
    allowed = np.abs(dense) @ np.abs(x) + np.abs(rhs)
    return bool(np.isfinite(allowed).all() and np.all(
        np.abs(residual) <= _CHECKED_ULPS * np.finfo(float).eps * allowed))


def _dominant_tridiag(rng, n):
    # symmetric, indefinite and diagonally dominant: no elimination order
    # loses such a matrix
    off = rng.normal(size=n - 1)
    radius = np.zeros(n)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    sign = rng.choice([-1.0, 1.0], size=n)
    return sign * (radius + rng.uniform(0.1, 3.0, size=n)), off


@pytest.mark.parametrize("n", [*range(1, 10), 16, 17, 50, 101])
def test_tridiag_solve_meets_the_backward_error_bound(n, monkeypatch):
    fallbacks = []
    thomas = _kernels._thomas_solve

    def spy(*args):
        fallbacks.append(args)
        return thomas(*args)

    monkeypatch.setattr(_kernels, "_thomas_solve", spy)
    rng = np.random.default_rng(300 + n)
    for _ in range(10):
        diag, off = _dominant_tridiag(rng, n)
        rhs = rng.normal(size=n)
        x = _kernels.tridiag_solve(diag, off, rhs)
        assert _meets_backward_bound(diag, off, rhs, x)
    assert not fallbacks  # cyclic reduction solved every one
    # indefinite systems and the near-singular shifts of inverse iteration:
    # cyclic reduction meets the bound, or the Thomas loop answers
    for _ in range(10):
        diag, off = _random_tridiag(rng, n)
        rhs = rng.normal(size=n)
        eigs = np.linalg.eigvalsh(
            np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        for shift in (0.0, eigs[0], eigs[-1]):
            fallbacks.clear()
            with np.errstate(over="ignore", invalid="ignore"):
                x = _kernels.tridiag_solve(diag - shift, off, rhs)
                if fallbacks:
                    assert _same_bits(x, thomas(diag - shift, off, rhs))
                else:
                    assert _meets_backward_bound(diag - shift, off, rhs, x)


# exactly singular: with the pivots floored at 4 eps times the matrix scale,
# cyclic reduction solves a system within the bound of [[1, -1], [-1, 1]] and
# of tridiag(-1, 1, -1); [0] has no scale to perturb and tridiag(-1, 0, -1)
# no diagonal, so those two get the Thomas loop's bits (x / -pivmin)
@pytest.mark.parametrize("case, reduced", zip(_ZERO_PIVOT_CASES,
                                             [False, True, True, False]))
def test_tridiag_solve_at_a_zero_pivot(case, reduced):
    diag, off, shift = case
    rhs = np.random.default_rng(7).normal(size=diag.size)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _kernels.tridiag_solve(diag - shift, off, rhs)
        fallback = _kernels._thomas_solve(diag - shift, off, rhs)
    if reduced:
        assert _meets_backward_bound(diag - shift, off, rhs, got)
    else:
        assert _same_bits(got, fallback)


@pytest.mark.parametrize("wave", WAVES)
def test_no_report_solve_falls_back(wave, monkeypatch):
    # at the benchmark's step, every inverse-iteration solve of a report is
    # one cyclic reduction that meets the bound at the first pivot floor
    reductions, fallbacks = [], []
    reduce, thomas = _kernels._cyclic_reduction, _kernels._thomas_solve

    def counted(*args):
        reductions.append(args)
        return reduce(*args)

    def spy(*args):
        fallbacks.append(args)
        return thomas(*args)

    solve = _kernels.tridiag_solve
    solves = []

    def outer(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(_kernels, "_cyclic_reduction", counted)
    monkeypatch.setattr(_kernels, "_thomas_solve", spy)
    monkeypatch.setattr(_kernels, "tridiag_solve", outer)
    coefficients, omega = wave
    kgstab.spectral_report(ModelParams(*coefficients), omega, 0.02)
    assert len(solves) > 20
    assert len(reductions) == len(solves)
    assert not fallbacks


def _leapfrog(phi, prev, *args):
    """The kernel on a workspace of its own for the levels' lattice."""
    work = _kernels.leapfrog_arrays(phi.size)[2]
    return _kernels.leapfrog_steps(phi, prev, *args, work)


# the kernel regroups the index-order step of ``oracles.leapfrog_steps``
# (one real weight per node, the two neighbours summed first); over 300
# steps that moves a level by at most this fraction of its sup (worst case
# measured on the cases below: 2.7e-13)
_REGROUPED_TOL = 1e-12
# coefficients that are not powers of two, so a reordered product rounds
# differently: step_t, m^2, a, b and the guard
_COEFFS = (0.01, 0.81, 1.3, 0.7, 1e3)


@pytest.mark.parametrize("n", [2, 3, 5, 101, 1001])
def test_leapfrog_equals_reference(n):
    # n = 2 is the centre alone, whose neighbours are both the Dirichlet end
    phi, prev = _standing_wave_arrays(n)
    phi *= 5.0  # amplitude 0.5: the nonlinear terms are not negligible
    prev *= 5.0
    ref_phi, ref_prev = phi.copy(), prev.copy()
    args = (300, 10.0 / (n - 1), *_COEFFS)
    taken = _leapfrog(phi, prev, *args)
    assert taken == oracles.leapfrog_steps_regrouped(ref_phi, ref_prev,
                                                     *args) == 300
    assert _same_bits(phi, ref_phi)
    assert _same_bits(prev, ref_prev)


@pytest.mark.parametrize("n", [5, 101, 1001])
def test_leapfrog_within_tolerance_of_index_order(n):
    phi, prev = _standing_wave_arrays(n)
    phi *= 5.0
    prev *= 5.0
    ref_phi, ref_prev = phi.copy(), prev.copy()
    args = (300, 10.0 / (n - 1), *_COEFFS)
    assert _leapfrog(phi, prev, *args) == 300
    assert oracles.leapfrog_steps(ref_phi, ref_prev, *args) == 300
    for got, want in ((phi, ref_phi), (prev, ref_prev)):
        assert np.abs(got - want).max() <= _REGROUPED_TOL * np.abs(want).max()


@pytest.mark.parametrize("n_steps", [1, 2, 7, 8])
def test_leapfrog_levels_end_in_place(n_steps):
    # the kernel swaps its two levels every step; whatever the parity, the
    # newest level ends in phi and the one before it in phi_prev.  Distinct
    # Dirichlet values show that neither end is written and that the right
    # neighbour of the last inner node is read from phi[-1] on every step
    phi, prev = _standing_wave_arrays(101)
    phi[-1] = 0.02 + 0.01j
    prev[-1] = -0.03j
    ref_phi, ref_prev = phi.copy(), prev.copy()
    args = (n_steps, 0.1, *_COEFFS)
    assert _leapfrog(phi, prev, *args) == n_steps
    assert oracles.leapfrog_steps_regrouped(ref_phi, ref_prev,
                                            *args) == n_steps
    assert _same_bits(phi, ref_phi)
    assert _same_bits(prev, ref_prev)
    assert phi[-1] == 0.02 + 0.01j and prev[-1] == -0.03j
    # the end value matters: read from phi_prev[-1], the level would differ
    other_phi, other_prev = _standing_wave_arrays(101)
    other_phi[-1] = other_prev[-1] = -0.03j
    oracles.leapfrog_steps_regrouped(other_phi, other_prev, *args)
    assert other_phi[-2] != phi[-2]


@pytest.mark.parametrize("trip", [5, 6])
def test_leapfrog_guard_trip_leaves_levels_in_place(trip):
    # a trip on an odd and on an even step: the levels come back in place
    phi, prev = _standing_wave_arrays(1001)
    prev *= 0.99  # the amplitude grows every step
    phi[-1] = 1e-3
    probe_phi, probe_prev = phi.copy(), prev.copy()
    sups = []
    for _ in range(trip):
        oracles.leapfrog_steps_regrouped(probe_phi, probe_prev, 1, 0.01,
                                         *_COEFFS)
        sups.append(np.abs(probe_phi).max())
    assert sups[-2] < sups[-1]
    args = (50, 0.01, *_COEFFS[:-1], 0.5 * (sups[-2] + sups[-1]))
    ref_phi, ref_prev = phi.copy(), prev.copy()
    assert oracles.leapfrog_steps_regrouped(ref_phi, ref_prev, *args) == trip
    assert _leapfrog(phi, prev, *args) == trip
    assert _same_bits(phi, ref_phi)
    assert _same_bits(prev, ref_prev)
    assert phi[-1] == 1e-3 and prev[-1] == 0.0


def test_leapfrog_mirrors_full_grid():
    # the half-line with its mirror centre advances the x >= 0 half of the
    # full-grid scheme written in the kernel's operand order; each row adds
    # its two neighbours in one addition, so the full grid's left half rounds
    # as its mirror image
    phi, prev = _standing_wave_arrays(1001)
    phi *= 5.0
    prev *= 5.0
    full_phi = np.concatenate((phi[:0:-1], phi))
    full_prev = np.concatenate((prev[:0:-1], prev))
    args = (300, 0.01, *_COEFFS)
    assert _leapfrog(phi, prev, *args) == 300
    assert oracles.full_grid_leapfrog_steps_regrouped(full_phi, full_prev,
                                                      *args) == 300
    assert np.abs(full_phi[1000:] - phi).max() < 1e-14 * np.abs(phi).max()
    assert np.abs(full_prev[1000:] - prev).max() < 1e-14 * np.abs(prev).max()
    # the centre row itself: the first step is bitwise the full grid's.  The
    # index-order full grid rounds its rows apart from the regrouped ones by
    # at most 1e-15 of the sup (measured: 2.8e-16, one rounding at the
    # largest node)
    phi, prev = _standing_wave_arrays(1001)
    full_phi = np.concatenate((phi[:0:-1], phi))
    full_prev = np.concatenate((prev[:0:-1], prev))
    index_phi, index_prev = full_phi.copy(), full_prev.copy()
    _leapfrog(phi, prev, 1, *args[1:])
    oracles.full_grid_leapfrog_steps_regrouped(full_phi, full_prev, 1,
                                               *args[1:])
    oracles.full_grid_leapfrog_steps(index_phi, index_prev, 1, *args[1:])
    assert _same_bits(full_phi[1000:], phi)
    assert np.abs(index_phi[1000:] - phi).max() <= 1e-15 * np.abs(phi).max()


def _line_offset(array):
    return array.ctypes.data % 64


@pytest.mark.parametrize("size", [2, 3, 101, 5591])
def test_leapfrog_arrays_start_on_cache_lines(size):
    phi, prev, work = _kernels.leapfrog_arrays(size)
    near, scratch, mag, w = work
    assert [a.shape for a in (phi, prev, *work)] \
        == [(size,)] * 2 + [(size - 1,)] * 4
    assert [a.dtype for a in (phi, prev, *work)] \
        == [np.dtype(complex)] * 4 + [np.dtype(float)] * 2
    # every store of a full array starts a line, and so does near[1:-1]
    assert [_line_offset(a) for a in (phi, prev, scratch, mag, w)] == [0] * 5
    assert _line_offset(near) == 48
    assert (near.ctypes.data + near.itemsize) % 64 == 0
    arrays = (phi, prev, *work)
    assert all(a.flags.writeable and a.flags.c_contiguous for a in arrays)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                   for b in arrays[i + 1:])


def _off_a_line(values, offset):
    """A copy of ``values`` that starts ``offset`` bytes past a 64-byte
    line."""
    block = np.empty(values.nbytes + 128, np.uint8)
    start = -block.ctypes.data % 64 + offset
    copy = block[start:start + values.nbytes].view(values.dtype)
    copy[...] = values
    assert _line_offset(copy) == offset
    return copy


@pytest.mark.parametrize("offset", [0, 16, 32, 48])
@pytest.mark.parametrize("n_steps, trip", [(7, False), (60, True)])
def test_leapfrog_equals_reference_off_a_line(offset, n_steps, trip):
    # the kernel's result does not depend on where the caller's levels lie
    # with respect to its aligned work arrays: an odd step count, and a
    # guard that trips on step 3
    phi, prev = (_off_a_line(5.0 * level, offset)
                 for level in _standing_wave_arrays(1001))
    prev *= 0.99  # the amplitude grows every step
    guard = 1e3
    if trip:
        probe_phi, probe_prev = phi.copy(), prev.copy()
        oracles.leapfrog_steps_regrouped(probe_phi, probe_prev, 3, 0.01,
                                         *_COEFFS)
        guard = 0.999 * np.abs(probe_phi).max()
    ref_phi, ref_prev = phi.copy(), prev.copy()
    args = (n_steps, 0.01, *_COEFFS[:-1], guard)
    want = 3 if trip else n_steps
    assert oracles.leapfrog_steps_regrouped(ref_phi, ref_prev, *args) == want
    assert _leapfrog(phi, prev, *args) == want
    assert _same_bits(phi, ref_phi)
    assert _same_bits(prev, ref_prev)


def test_leapfrog_allocates_no_lattice_array():
    # with its workspace, the kernel's only allocation is NumPy's cast
    # buffer for w * cur (real times complex), one lattice array at most,
    # and it keeps nothing: per-call work arrays would add four
    phi, prev = _standing_wave_arrays(5591)
    work = _kernels.leapfrog_arrays(phi.size)[2]
    # one step first, so NumPy's ufunc dispatch caches are filled
    _kernels.leapfrog_steps(phi, prev, 1, 0.02, *_COEFFS, work)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        taken = _kernels.leapfrog_steps(phi, prev, 200, 0.02, *_COEFFS,
                                        work)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert taken == 200
    assert peak - before <= phi.nbytes + 4096
    assert after <= before


def test_leapfrog_guard_trips_at_reference_step():
    # prev below phi: the amplitude grows every step until the guard trips
    phi, prev = _standing_wave_arrays(1001)
    prev *= 0.99
    ref_phi, ref_prev = phi.copy(), prev.copy()
    args = (200, 0.02, 0.01, 0.81, 1.3, 0.7, 1.05 * np.abs(phi).max())
    want = oracles.leapfrog_steps_regrouped(ref_phi, ref_prev, *args)
    assert 1 < want < 200
    assert _leapfrog(phi, prev, *args) == want
    assert _same_bits(phi, ref_phi)
    assert _same_bits(prev, ref_prev)


def test_leapfrog_guard_returns_early():
    phi, prev = _standing_wave_arrays()
    taken = _leapfrog(phi, prev, 50, 0.2, 0.01, 1.0, 1.0, 1.0, 1e-9)
    assert taken == 1  # guard trips on the very first step


def test_leapfrog_guard_catches_nan():
    phi, prev = _standing_wave_arrays()
    phi[50] = np.nan
    taken = _leapfrog(phi, prev, 50, 0.2, 0.01, 1.0, 1.0, 1.0, 1e6)
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
