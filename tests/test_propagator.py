"""Properties of the spectral propagator and the loops built on it.

The propagator must conserve mass, compose as a semigroup, and agree with
a plain numpy.fft evaluation of exp(-t |k|^alpha); its octant layout must
agree with the full layout on mirror-even data; the fused-potential
interval loop must agree with one Strang step at a time, and preserve
order; the Hardy runs of an even datum, on its octant, must agree with
the lattice flow, and those of any other datum keep its bits; evolve must
preserve order at matched steps; the reaction flow must compose; and a
run must not depend on the FFT worker count.
A lattice step is numpy's rfftn/irfftn pair on the calling thread at
every d and length, and keeps scipy.fft's bits in 1-d and 2-d.  Octants
of up to GEMM_MAX points per axis take their DCT-I by cosine matrices in
every dimension, which must match scipy's dctn/idctn, keep the zero
mode, and give the same bits when one propagator is shared by threads;
1-d ones stay on the calling thread.  A wider 1-d octant steps in
transform order: its halving DCT-I must equal the rfft of the unfolded
line, permuted, and its backward pass must be that map's exact
transpose.  Every octant step agrees with the full layout to 1e-12.  One
call serves both layouts: it reads the layout from the array's shape,
refuses an array of neither shape, and keeps the multiplier of each
layout's last step apart.
"""

import math
import os
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraclab.analysis as analysis
import fraclab.field as field
from fraclab.config import config_from_dict
from fraclab.constants import power_map_coeff_max
from fraclab.field import (
    GEMM_MAX,
    Field,
    Grid,
    SpectralPropagator,
    _DCT1_BASE,
    _cosine_matrix,
    _dct1_forward,
    _dct1_transpose,
    _halving_twiddles,
    _transform_order,
    clear_grid_cache,
    dyadic_schedule,
    fold,
    multiplicity,
    propagator,
    unfold,
    weighted_norm,
)
from fraclab.linear_propagators import (
    HardyOperatorSpec,
    _strang_intervals,
    hardy_evolve,
    hardy_step,
    hypercontractivity_measure,
)
from fraclab.nonlinear_solver import Global, _flow, _reaction, _room, evolve

PROPERTY = settings(max_examples=25, deadline=None)

LONG = 2 ** 17  # a 1-d line whose octant halves its DCT-I several times

dims = st.sampled_from([1, 2, 3])
alphas = st.floats(0.2, 2.0)
times = st.floats(1e-3, 2.0)
seeds = st.integers(0, 2**32 - 1)


def _grid(d: int) -> Grid:
    return Grid(d, 64 if d == 1 else 16, 4.0)


def _values(grid: Grid, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(grid.shape)


def _last_state(w0: np.ndarray, grid: Grid, spec, times, substeps: int) -> np.ndarray:
    """The state hardy_evolve steps w0 to at its last output time, in w0's layout."""
    *_, (_, last) = _strang_intervals(w0, grid, spec, times, substeps)
    return last


def _reference(values: np.ndarray, grid: Grid, t: float, alpha: float) -> np.ndarray:
    """exp(-t |k|^alpha) applied with numpy.fft and freshly built frequencies."""
    axes = [2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.h)] * (grid.d - 1)
    axes.append(2.0 * np.pi * np.fft.rfftfreq(grid.n, d=grid.h))
    k2 = sum(np.meshgrid(*axes, indexing="ij")[i] ** 2 for i in range(grid.d))
    spectrum = np.fft.rfftn(values) * np.exp(-t * np.sqrt(k2) ** alpha)
    return np.fft.irfftn(spectrum, s=grid.shape, axes=tuple(range(grid.d)))


@PROPERTY
@given(d=dims, alpha=alphas, t=times, seed=seeds)
def test_propagator_conserves_mass(d, alpha, t, seed):
    grid = _grid(d)
    v = _values(grid, seed)
    out = propagator(grid, alpha)(v, t)
    assert math.isclose(out.sum(), v.sum(), rel_tol=0.0, abs_tol=1e-12 * np.abs(v).sum())


@PROPERTY
@given(d=dims, alpha=alphas, s=times, t=times, seed=seeds)
def test_propagator_semigroup(d, alpha, s, t, seed):
    grid = _grid(d)
    v = _values(grid, seed)
    prop = propagator(grid, alpha)
    two = prop(prop(v, s), t)
    one = prop(v, s + t)
    assert np.max(np.abs(two - one)) <= 1e-12 * np.max(np.abs(v))


@PROPERTY
@given(d=dims, alpha=alphas, t=times, seed=seeds)
def test_propagator_matches_numpy_fft(d, alpha, t, seed):
    grid = _grid(d)
    v = _values(grid, seed)
    out = SpectralPropagator(grid, alpha)(v, t)
    assert np.max(np.abs(out - _reference(v, grid, t, alpha))) <= 1e-12 * np.max(np.abs(v))


@PROPERTY
@given(d=dims, n=st.sampled_from([16, 32, 64]), alpha=alphas, t=times, seed=seeds)
def test_lattice_step_matches_the_scipy_pair(d, n, alpha, t, seed):
    # numpy's rfftn/irfftn keep the bits of scipy.fft's pair in 1-d and
    # 2-d; in 3-d they agree to rounding
    grid = Grid(d, n, 4.0)
    v = _values(grid, seed)
    prop = SpectralPropagator(grid, alpha)
    out = prop(v, t)
    expected = scipy.fft.irfftn(scipy.fft.rfftn(v) * prop._multiplier(t, True), grid.shape)
    if d < 3:
        assert np.array_equal(out, expected)
    else:
        assert np.max(np.abs(out - expected)) <= 1e-15 * np.max(np.abs(expected))


def _even(grid: Grid, seed: int) -> np.ndarray:
    """A random lattice array even in every coordinate: a table indexed by
    min(j, n - j) on each axis."""
    j = np.arange(grid.n)
    mirror = np.minimum(j, grid.n - j)
    table = np.random.default_rng(seed).standard_normal((grid.n // 2 + 1,) * grid.d)
    return table[np.ix_(*[mirror] * grid.d)]


@PROPERTY
@given(d=dims, seed=seeds)
def test_unfold_inverts_fold_on_even_arrays(d, seed):
    grid = _grid(d)
    v = _even(grid, seed)
    octant = fold(v)
    assert octant.shape == (grid.n // 2 + 1,) * d
    assert not np.shares_memory(octant, v)
    assert np.array_equal(unfold(octant), v)


@PROPERTY
@given(d=dims, seed=seeds)
def test_weighted_octant_sums_are_lattice_sums(d, seed):
    grid = _grid(d)
    v = _even(grid, seed)
    weights = multiplicity(grid)
    assert weights.sum() == grid.n ** d and not weights.flags.writeable
    for full, octant in ((v, fold(v)), (v * v, fold(v) ** 2)):
        assert math.isclose(np.vdot(weights, octant), full.sum(),
                            rel_tol=0.0, abs_tol=1e-12 * np.abs(full).sum())


# 1-d lines of the cosine step, of the DCT-I pair's base case and of its halving; the
# d = 2 and 3 cosine steps; and a 257^2 octant, wider than GEMM_MAX, which
# takes scipy's dctn/idctn
OCTANT_GRIDS = [*(Grid(1, n, 4.0) for n in (64, 256, 4096, 2 ** 14, LONG)),
                _grid(2), _grid(3), Grid(2, 512, 4.0)]


@PROPERTY
@given(grid=st.sampled_from(OCTANT_GRIDS), alpha=alphas, t=times, seed=seeds)
@example(grid=OCTANT_GRIDS[-1], alpha=0.7, t=0.3, seed=1)
def test_octant_propagator_matches_the_full_lattice(grid, alpha, t, seed):
    v = _even(grid, seed)
    prop = SpectralPropagator(grid, alpha)
    octant = prop(fold(v), t)
    full = prop(v, t)
    assert np.max(np.abs(unfold(octant) - full)) <= 1e-12 * np.max(np.abs(full))


def _transform_indices(n: int) -> np.ndarray:
    """The natural index of each output of the halving DCT-I of a line of
    n + 1 points, in its order: per level the odd outputs y_k = C_{2k+1} as
    one irfft leaves them (y_{2k} ascending, then y_{2k+1} descending),
    then the level below on the even outputs; the base block in order."""
    index, order = np.arange(n + 1), []
    while index.size - 1 > field._DCT1_BASE:
        odd = index[1::2]
        order += [odd[0::2], odd[1::2][::-1]]
        index = index[0::2]
    return np.concatenate(order + [index])


@PROPERTY
@given(n=st.sampled_from([_DCT1_BASE // 4, _DCT1_BASE, 2 * _DCT1_BASE, 8 * _DCT1_BASE, LONG]),
       seed=seeds)
def test_dct1_is_the_spectrum_of_the_unfolded_line(n, seed):
    # lines of N + 1 points on both sides of the recursion floor: the
    # forward pass is the spectrum read in transform order, bit for bit
    # while one rfft does it
    x = np.random.default_rng(seed).standard_normal(n + 1)
    spectrum = np.fft.rfft(unfold(x)).real
    order = _transform_indices(n)
    assert np.array_equal(np.sort(order), np.arange(n + 1))
    forward = _dct1_forward(x)
    if n <= _DCT1_BASE:
        assert np.array_equal(forward, spectrum)
    else:
        assert np.max(np.abs(forward - spectrum[order])) <= 1e-13 * np.max(np.abs(spectrum))
    ordered = np.empty(n + 1)
    _transform_order(spectrum, ordered)
    assert np.array_equal(ordered, spectrum[order])


@pytest.mark.parametrize("base", [2, 8])
@pytest.mark.parametrize("n", [8, 16, 64])
def test_dct1_transpose_is_the_transpose_of_the_forward_pass(monkeypatch, base, n):
    # a short line halves down to a lowered floor, so every part of both
    # passes runs: the levels, their twiddles and weights, and the base block
    monkeypatch.setattr(field, "_DCT1_BASE", base)

    def transposed(y):
        y = y.copy()
        _dct1_transpose(y)
        return y

    eye = np.eye(n + 1)
    forward = np.stack([_dct1_forward(e) for e in eye], axis=1)  # the matrix F
    backward = np.stack([transposed(e) for e in eye], axis=1)
    assert np.max(np.abs(backward - forward.T)) <= 1e-15 * np.max(np.abs(forward))


@PROPERTY
@given(d=dims, alpha=alphas, t=times, seed=seeds)
def test_octant_propagator_does_not_depend_on_fft_workers(d, alpha, t, seed):
    grid = _grid(d)
    octant = fold(_even(grid, seed))
    prop = propagator(grid, alpha)
    outs = []
    for workers in ("1", "2"):
        with mock.patch.dict(os.environ, {"FRACLAB_THREADS": workers}):
            outs.append(prop(octant, t))
    assert np.array_equal(*outs)


def _octant_multiplier(grid: Grid, t: float, alpha: float) -> np.ndarray:
    """exp(-t |k|^alpha) on the rfftfreq half axis of every dimension,
    freshly built."""
    half = 2.0 * np.pi * np.fft.rfftfreq(grid.n, d=grid.h)
    k2 = sum(axis ** 2 for axis in np.meshgrid(*[half] * grid.d, indexing="ij"))
    return np.exp(-t * np.sqrt(k2) ** alpha)


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_cosine_octant_step_matches_scipy_dct1(d, n, monkeypatch):
    assert n // 2 + 1 <= GEMM_MAX  # every size here takes the matrix path
    grid = Grid(d, n, 4.0)
    x = np.random.default_rng(n + d).standard_normal((n // 2 + 1,) * d)
    mult = _octant_multiplier(grid, 0.05, 1.3)
    expected = scipy.fft.idctn(scipy.fft.dctn(x, type=1) * mult, type=1)
    prop = SpectralPropagator(grid, 1.3)
    outs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("FRACLAB_THREADS", workers)
        outs.append(prop(x, 0.05))
    assert np.max(np.abs(outs[0] - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert np.array_equal(*outs)


@PROPERTY
@given(d=dims, n=st.sampled_from([16, 32, 64, 128]), alpha=alphas, t=times, seed=seeds)
def test_cosine_octant_step_keeps_the_zero_mode(d, n, alpha, t, seed):
    # the zero mode of the octant's DCT-I is its mass: the multiplicity-weighted sum
    grid = Grid(d, n, 4.0)
    x = np.random.default_rng(seed).standard_normal((n // 2 + 1,) * d)
    out = propagator(grid, alpha)(x, t)
    weights = multiplicity(grid)
    assert math.isclose(np.vdot(weights, out), np.vdot(weights, x),
                        rel_tol=0.0, abs_tol=1e-12 * np.vdot(weights, np.abs(x)))


def test_clear_grid_cache_drops_the_cosine_matrices():
    m = GEMM_MAX
    c = _cosine_matrix(m)
    assert c.shape == (m, m) and not c.flags.writeable
    assert _cosine_matrix(m) is c
    clear_grid_cache()
    assert _cosine_matrix.cache_info().currsize == 0
    assert _cosine_matrix(m) is not c
    # and the twiddles of the halving DCT-I pair of a long octant: one
    # read-only pair for its top level, which the levels below stride
    grid = Grid(1, LONG, 512.0)
    propagator(grid, 0.7)(fold(_even(grid, 3)), 0.3)
    assert _halving_twiddles.cache_info().currsize == 1
    phases, weighted = _halving_twiddles(LONG // 4)
    assert phases.shape == weighted.shape == (LONG // 8 + 1,)
    assert not phases.flags.writeable and not weighted.flags.writeable
    clear_grid_cache()
    assert _halving_twiddles.cache_info().currsize == 0


def test_split_propagator_shared_across_threads(monkeypatch):
    # callers in four threads share one propagator, its cache of the last
    # t and the helper thread, which runs the second half of each split
    # pass of a 65^3 octant; a short switch interval interleaves them
    grid = Grid(3, 128, 8.0)
    prop = SpectralPropagator(grid, 0.7)
    octant = np.random.default_rng(7).standard_normal((grid.n // 2 + 1,) * 3)
    steps = [0.1 * (k + 1) for k in range(4)]
    monkeypatch.setenv("FRACLAB_THREADS", "1")
    expected = [prop(octant, t) for t in steps]
    monkeypatch.setenv("FRACLAB_THREADS", "2")
    results, errors = {}, []

    def run(k):
        try:
            for _ in range(3):
                results.setdefault(k, []).append(prop(octant, steps[k]))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(thread.is_alive() for thread in threads)
    for k, outs in results.items():
        assert len(outs) == 3 and all(np.array_equal(out, expected[k]) for out in outs)
    assert sorted(results) == [0, 1, 2, 3]


def test_long_line_propagator_shared_across_threads():
    # four threads with different t share one 2^18 propagator, so its
    # transform-order multiplier is swapped under them at every call
    grid = Grid(1, 2 * LONG, 512.0)
    prop = SpectralPropagator(grid, 0.5)
    octant = fold(_even(grid, 11))
    steps = [0.1 * (k + 1) for k in range(4)]
    expected = [prop(octant, t) for t in steps]
    results, errors = {}, []

    def run(k):
        try:
            for _ in range(3):
                results.setdefault(k, []).append(prop(octant, steps[k]))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for k, outs in results.items():
        assert len(outs) == 3 and all(np.array_equal(out, expected[k]) for out in outs)


def test_long_octant_step_holds_little_memory():
    # one step of a 2^17 + 1 point octant, its multiplier already made,
    # allocates the output and a quarter-line spectrum (1.6x the octant's
    # bytes; the natural-order halving peaked at 4.0x); afterwards the
    # caches hold one symbol and one multiplier for the grid
    clear_grid_cache()
    grid = Grid(1, 2 * LONG, 512.0)
    prop = propagator(grid, 0.5)
    octant = fold(_even(grid, 13))
    prop(octant, 0.3)
    tracemalloc.start()
    try:
        prop(octant, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * octant.nbytes
    slot = field._GRID_CACHE[(grid.d, grid.n, grid.half_length)]
    assert list(slot) == [("symbol", 0.5)]
    t, multiplier = prop._last[False]
    assert t == 0.3 and multiplier.shape == octant.shape
    assert prop._last[True] == (None, None)  # no lattice step was taken
    clear_grid_cache()


def test_one_dimensional_steps_stay_on_the_calling_thread(monkeypatch):
    # a long line takes numpy's single pair, and its octant the halving
    # DCT-I, with two workers as with one; a 129-point octant takes one
    # cosine matmul per pass: none of them reaches the helper
    def no_helper():
        raise AssertionError("a 1-d step reached the helper thread")

    monkeypatch.setattr("fraclab.field._helper", no_helper)
    monkeypatch.setenv("FRACLAB_THREADS", "2")
    for n in (2 * LONG, 256):
        grid = Grid(1, n, 512.0)
        prop = SpectralPropagator(grid, 0.7)
        v = _even(grid, 5)
        full = prop(v, 0.3)
        octant = prop(fold(v), 0.3)
        assert np.array_equal(full, np.fft.irfft(np.fft.rfft(v) * prop._multiplier(0.3, True), grid.n))
        assert np.max(np.abs(octant - fold(full))) <= 1e-12 * np.max(np.abs(full))


def test_only_split_steps_read_the_worker_count(monkeypatch):
    # lattice steps at every d, 1-d and 2-d octant steps, and 3-d ones below
    # _GEMM_PAIR_MIN points per axis, run on the calling thread and never
    # ask how many workers there are
    class WorkerCountRead(Exception):
        pass

    def read(threads=None):
        raise WorkerCountRead

    monkeypatch.delenv("FRACLAB_THREADS", raising=False)
    monkeypatch.setattr("fraclab.field.thread_count", read)

    def run(d, n):
        return evolve(config_from_dict({
            "params": {"alpha": 1.0, "d": d, "p": 2.0},
            "grid": {"n": n, "L": 8.0},
            "time": {"t_end": 0.1, "output_schedule": [0.05, 0.1]},
            "initial": {"kind": "gaussian", "amplitude": 0.5},
        }))

    for d, n in ((1, 256), (2, 64), (3, 32)):
        assert isinstance(run(d, n).status, Global), d
        grid = Grid(d, n, 8.0)
        SpectralPropagator(grid, 1.0)(np.ones(grid.shape), 0.1)
    with pytest.raises(WorkerCountRead):  # a 65^3 octant splits its passes
        run(3, 128)


def test_propagator_reuses_the_multiplier_of_the_last_time():
    prop = SpectralPropagator(_grid(2), 1.0)
    first = prop._multiplier(0.25, True)
    assert prop._multiplier(0.25, True) is first
    assert prop._multiplier(0.5, True) is not first
    assert propagator(_grid(2), 1.0) is propagator(_grid(2), 1.0)


@pytest.mark.parametrize("grid", [_grid(2), Grid(1, 2 * LONG, 512.0)])
def test_each_layout_keeps_the_multiplier_of_its_last_step(grid):
    # an octant step at another t between two lattice steps at one t
    # leaves the lattice's multiplier in place, on the cosine route and on
    # the transform-order one
    prop = SpectralPropagator(grid, 0.7)
    v = _even(grid, 19)
    prop(v, 0.25)
    first = prop._multiplier(0.25, True)
    prop(fold(v), 0.5)
    prop(v, 0.25)
    assert prop._multiplier(0.25, True) is first


def _wrong_shapes(grid: Grid) -> list:
    """Arrays of neither the lattice's shape nor the octant's: a point too
    many or too few on one axis, and an axis too many."""
    n, m, d = grid.n, grid.n // 2 + 1, grid.d
    shapes = [(m + 1,) * d, (m,) * (d - 1) + (m - 1,), (n,) * (d - 1) + (n - 1,), (1,) + (m,) * d]
    return [np.ones(shape) for shape in shapes]


# the cosine route at d = 1, 2 and 3, the transform-order route and scipy's
@pytest.mark.parametrize("grid", [_grid(1), _grid(2), _grid(3), Grid(1, 2 * LONG, 512.0), Grid(2, 512, 4.0)])
def test_an_array_of_neither_layout_is_refused(grid):
    prop = SpectralPropagator(grid, 0.7)
    for values in _wrong_shapes(grid):
        with pytest.raises(ValueError, match="neither"):
            prop(values, 0.3)
    assert prop._last == {True: (None, None), False: (None, None)}  # no multiplier was made


# Where the diffusion step is positive.  e^{-tA}, A the lattice generator
# F^{-1}|k|^alpha F, is >= 0 for every t exactly when A is a Z-matrix: every
# off-diagonal entry <= 0 (its rows sum to 0, the symbol being 0 at k = 0).
# The entries are the lattice kernel irfftn(|k|^alpha), whose first entry
# is the diagonal; rescaling k leaves their signs and ratios alone.


def _largest_off_diagonal(d: int, n: int, alpha: float) -> float:
    """The largest off-diagonal entry of the lattice generator, over its diagonal."""
    full, half = np.abs(np.fft.fftfreq(n, 1.0 / n)), np.arange(n // 2 + 1.0)
    axes = [full] * (d - 1) + [half]
    k2 = sum(np.reshape(a * a, [-1 if i == j else 1 for j in range(d)]) for i, a in enumerate(axes))
    kernel = np.fft.irfftn(k2 ** (0.5 * alpha), (n,) * d, axes=tuple(range(d))).ravel()
    return float(np.max(kernel[1:]) / kernel[0])


@pytest.mark.parametrize("n", [64, 256, 4096])
def test_the_one_dimensional_generator_is_a_z_matrix_only_up_to_alpha_one(n):
    for alpha in (0.3, 0.5, 0.9):
        assert _largest_off_diagonal(1, n, alpha) < 0.0, alpha
    # alpha = 1: the kernel's even offsets are exact zeros, so the sign is
    # decided to 1e-12 of the diagonal, against -2.6e-5 at alpha 0.9 and
    # +1.3e-2 at 1.1 for n 256
    assert _largest_off_diagonal(1, n, 1.0) <= 1e-12
    for alpha in (1.1, 1.5, 1.9):
        assert _largest_off_diagonal(1, n, alpha) > 1e-2, alpha


@pytest.mark.parametrize("d, n", [(2, 128), (3, 64)])
def test_no_generator_past_one_dimension_is_a_z_matrix(d, n):
    # the symbol is cut off by the cube of frequencies, not by a ball
    for alpha in (0.3, 0.5, 0.9, 1.0, 1.5, 1.9):
        assert _largest_off_diagonal(d, n, alpha) > 1e-5, alpha


def _spike_step_minimum(d: int, n: int, alpha: float) -> float:
    """The least min/max of one octant step of a unit spike at the origin,
    over t in {1e-4, 1e-2, 1} h^alpha."""
    grid = Grid(d, n, 32.0)
    prop, worst = SpectralPropagator(grid, alpha), math.inf
    for scale in (1e-4, 1e-2, 1.0):
        spike = np.zeros((n // 2 + 1,) * d)
        spike.flat[0] = 1.0
        out = prop(spike, scale * grid.h ** alpha)
        worst = min(worst, float(out.min() / out.max()))
    return worst


@pytest.mark.parametrize("n", [256, 1024, 32768])  # the matrix and the transform-order routes
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.0])
def test_one_dimensional_steps_up_to_alpha_one_are_positive(n, alpha):
    # at alpha = 1 and t = 1e-4 h the minimum is the rounding of the
    # transforms (5.6e-17 at n 32768), so 1e-14 of the peak is let through
    assert _spike_step_minimum(1, n, alpha) >= -1e-14


@pytest.mark.parametrize("d, n, alpha", [(1, 256, 1.5), (2, 64, 0.5), (3, 32, 0.5)])
def test_steps_past_one_dimension_or_alpha_one_ring_below_zero(d, n, alpha):
    # -1.5e-3, -3.8e-5 and -2.0e-3 of the peak
    assert _spike_step_minimum(d, n, alpha) < -1e-5


@PROPERTY
@given(d=dims, alpha_frac=st.floats(0.15, 0.95), kappa_frac=st.floats(0.0, 0.9),
       substeps=st.integers(1, 5), seed=seeds)
def test_fused_hardy_evolve_matches_single_steps(d, alpha_frac, kappa_frac, substeps, seed):
    grid = _grid(d)
    alpha = alpha_frac * min(d, 2)  # the weighted theory needs alpha < d
    kappa = kappa_frac * power_map_coeff_max(d, alpha)
    spec = HardyOperatorSpec(alpha=alpha, d=d, kappa=kappa)
    w0 = Field(grid, np.abs(_values(grid, seed)))
    schedule = [0.1, 0.3, 0.4]
    series = hardy_evolve(grid, w0.values, spec, schedule, substeps)

    w, t_prev = w0, 0.0
    for t_out, sup in zip(schedule, series.plain_qinf):
        for _ in range(substeps):
            w = hardy_step(w, (t_out - t_prev) / substeps, spec)
        t_prev = t_out
        assert math.isclose(sup, w.sup(), rel_tol=1e-12)
    scale = np.max(np.abs(w.values))
    last = _last_state(w0.values, grid, spec, schedule, substeps)
    assert np.max(np.abs(last - w.values)) <= 1e-12 * scale


@PROPERTY
@given(d=st.sampled_from([1, 2]), alpha_frac=st.floats(0.15, 0.95), kappa_frac=st.floats(0.0, 0.9),
       substeps=st.integers(1, 5), stretch=st.lists(st.floats(1.0, 16.0), min_size=1, max_size=3),
       seed=seeds, gap_seed=seeds)
def test_hardy_evolve_preserves_order(d, alpha_frac, kappa_frac, substeps, stretch, seed, gap_seed):
    grid = _grid(d)
    alpha = alpha_frac * min(d, 2)
    spec = HardyOperatorSpec(alpha=alpha, d=d, kappa=kappa_frac * power_map_coeff_max(d, alpha))
    w0 = np.abs(_values(grid, seed))
    v0 = w0 + np.abs(_values(grid, gap_seed))
    # times from dyadic_schedule's first resolved one; well below it the
    # lattice kernel rings and order fails by percents
    t0 = dyadic_schedule(grid, alpha, 16.0 * grid.h**alpha)[0]
    schedule = t0 * np.array(sorted(set(stretch)))
    for (_, w), (_, v) in zip(_strang_intervals(w0, grid, spec, schedule, substeps),
                              _strang_intervals(v0, grid, spec, schedule, substeps)):
        assert np.min(v - w) >= -1e-12 * np.max(v)


class _StepLog:
    """A monitor that keeps the size of every step of a run."""

    def __init__(self):
        self.steps = []

    def observe(self, dt, values):
        if dt > 0.0:  # dt = 0 is the observation at t = 0
            self.steps.append(dt)

    def maxima(self):
        return {}


def _gaussian_run(grid: Grid, alpha: float, p: float, dt: float, amplitude: float, width: float):
    """evolve of a Gaussian to 3 dt with dt_max = dt: its status, its
    output fields and its step sizes."""
    config = config_from_dict({
        "params": {"alpha": alpha, "d": grid.d, "p": p},
        "grid": {"n": grid.n, "L": grid.half_length},
        "time": {"t_end": 3.0 * dt, "dt_max": dt, "eta": 0.1,
                 "output_schedule": [dt, 2.0 * dt, 3.0 * dt]},
        "initial": {"kind": "gaussian", "amplitude": amplitude, "width": width},
    })
    fields, log = [], _StepLog()
    record = evolve(config, monitors=(log,), on_output=lambda k, t, octant: fields.append(unfold(octant)))
    return record.status, fields, log.steps


@PROPERTY
@given(d=st.sampled_from([1, 2]), alpha=st.floats(0.3, 1.9), p=st.floats(1.5, 3.0),
       size=st.floats(0.01, 1.0), width=st.floats(0.5, 2.0),
       shrink=st.tuples(st.floats(0.01, 1.0), st.floats(0.5, 1.0)))
def test_evolve_preserves_order(d, alpha, p, size, width, shrink):
    # u0 = a exp(-|x|^2/v^2) <= v0 = b exp(-|x|^2/w^2) for a <= b, v <= w.
    # Steps are dyadic_schedule's first resolved time dt = 4 h^alpha, from
    # which the lattice kernel is positive.  b keeps the reaction's step
    # eta/((p-1) sup^{p-1}) above dt while sup <= 2b, which holds to 3 dt,
    # so dt_max binds and both runs take the same steps.
    grid = _grid(d)
    dt = 4.0 * grid.h**alpha
    b = size * 0.5 * (0.1 / ((p - 1.0) * dt)) ** (1.0 / (p - 1.0))
    u_status, u, u_steps = _gaussian_run(grid, alpha, p, dt, shrink[0] * b, shrink[1] * width)
    v_status, v, v_steps = _gaussian_run(grid, alpha, p, dt, b, width)
    assert isinstance(u_status, Global) and isinstance(v_status, Global)
    assert u_steps and u_steps == v_steps and len(u) == len(v) == 4
    for lo, hi in zip(u, v):
        assert np.max(lo - hi) <= 1e-12 * np.max(hi)


@PROPERTY
@given(p=st.sampled_from([2.0, 3.0, 1.5, 1.7, 2.5]), v=st.floats(-2.0, 2.0),
       s=st.floats(1e-4, 0.05), t=st.floats(1e-4, 0.05))
def test_reaction_flow_is_odd_and_composes(p, v, s, t):
    assert _flow(-v, s, p) == -_flow(v, s, p)
    # the closed forms at p = 2, 3 agree with the general formula
    general = v * (1.0 - (p - 1.0) * abs(v) ** (p - 1.0) * s) ** (-1.0 / (p - 1.0))
    assert math.isclose(_flow(v, s, p), general, rel_tol=1e-13, abs_tol=1e-300)
    assert math.isclose(_flow(_flow(v, s, p), t, p), _flow(v, s + t, p), rel_tol=1e-12, abs_tol=1e-300)
    arr = np.array([v, -0.5 * v, 0.0])
    np.testing.assert_allclose(_flow(arr.copy(), s, p), [_flow(float(x), s, p) for x in arr],
                               rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("p", [2.0, 3.0, 1.5, 1.7, 2.5])
def test_reaction_pole_check_agrees_with_the_flow(p):
    # peaks within an ulp or two of the pole: whatever the check lets
    # through must flow with positive denominators, as an array and as the
    # numpy-scalar extremes evolve records, and the two must agree
    for dt in np.linspace(0.01, 1.0, 100):
        pole = ((p - 1.0) * dt) ** (-1.0 / (p - 1.0))
        below, above = np.nextafter(pole, 0.0), np.nextafter(pole, math.inf)
        for peak in (np.nextafter(below, 0.0), below, np.float64(pole), above):
            with np.errstate(all="raise"):
                out = _reaction(np.array([peak, -peak, 0.5 * peak]), dt, p, peak)
                if out is not None:
                    assert [_flow(peak, dt, p), _flow(-peak, dt, p)] == list(out[:2])
            assert (out is None) == (_room(np.float64(peak), dt, p) <= 0.0)


def _evolve_3d_config():
    return config_from_dict({
        "params": {"alpha": 1.0, "d": 3, "p": 2.0},
        "grid": {"n": 32, "L": 8.0},
        "time": {"t_end": 1.0, "output_schedule": [0.25, 0.5, 1.0]},
        "initial": {"kind": "gaussian", "amplitude": 0.8},
    })


def _assert_evolve_records_do_not_depend_on_fft_workers(monkeypatch, cfg):
    records = []
    for threads in ("1", "2"):
        monkeypatch.setenv("FRACLAB_THREADS", threads)
        records.append(evolve(cfg))
    one, two = records
    assert one.status == two.status
    for name in ("times", "sup_norm", "l2_norm", "mass", "min_value", "dt"):
        assert np.array_equal(getattr(one, name), getattr(two, name)), name


def test_evolve_records_do_not_depend_on_fft_workers(monkeypatch):
    _assert_evolve_records_do_not_depend_on_fft_workers(monkeypatch, _evolve_3d_config())


def test_evolve_records_at_128_do_not_depend_on_fft_workers(monkeypatch):
    # a 65^3 octant, whose matrix passes run their halves on two threads
    _assert_evolve_records_do_not_depend_on_fft_workers(monkeypatch, config_from_dict({
        "params": {"alpha": 1.0, "d": 3, "p": 2.0},
        "grid": {"n": 128, "L": 8.0},
        "time": {"t_end": 0.2, "output_schedule": [0.05, 0.1, 0.2]},
        "initial": {"kind": "gaussian", "amplitude": 2.0},
    }))


def _long_hardy_records(monkeypatch, centre: float, octant: bool):
    """hardy_evolve of a Gaussian centred at x = centre on a 2 LONG line,
    given as its octant (see fold) or as the lattice array, run with one FFT
    worker and with two: its series and its last state."""
    grid = Grid(1, 2 * LONG, 512.0)
    spec = HardyOperatorSpec(alpha=0.5, d=1, kappa=0.2 * power_map_coeff_max(1, 0.5))
    w0 = np.exp(-(grid.axis() - centre) ** 2)
    w0 = fold(w0) if octant else w0
    records = []
    for threads in ("1", "2"):
        monkeypatch.setenv("FRACLAB_THREADS", threads)
        records.append((hardy_evolve(grid, w0, spec, [0.5, 1.0, 2.0], 4),
                        _last_state(w0, grid, spec, [0.5, 1.0, 2.0], 4)))
    return records


def _assert_same_records(one, two):
    (series_one, last_one), (series_two, last_two) = one, two
    for name in ("plain_q1", "plain_q2", "plain_qinf", "weighted_q1", "weighted_q2", "weighted_qinf"):
        assert np.array_equal(getattr(series_one, name), getattr(series_two, name)), name
    assert np.array_equal(last_one, last_two)


def test_long_hardy_evolve_records_do_not_depend_on_fft_workers(monkeypatch):
    # off centre, so the datum is not even and runs on the lattice
    _assert_same_records(*_long_hardy_records(monkeypatch, 0.3, octant=False))


def test_long_even_hardy_evolve_records_do_not_depend_on_fft_workers(monkeypatch):
    # centred, so the datum is even and runs on its octant
    _assert_same_records(*_long_hardy_records(monkeypatch, 0.0, octant=True))


NORMS = [(q, weighted) for weighted in (False, True) for q in (1.0, 2.0, math.inf)]
PAIRS = ((math.inf, 1.0), (2.0, 1.0), (1.0, 1.0))


def _lattice_rows(grid: Grid, lattice: np.ndarray, spec, times, substeps: int, norms):
    """The reference: norm rows and last values of the lattice flow, a
    Field and its weighted_norm at each output time."""
    rows = []
    for t, values in _strang_intervals(lattice, grid, spec, times, substeps):
        w, weight = Field(grid, values), spec.weight(t)
        rows.append([weighted_norm(w, q, weight if weighted else None) for q, weighted in norms])
    return np.array(rows), w.values


def _hardy_runs(grid: Grid, w0: np.ndarray, lattice: np.ndarray, spec, times, substeps: int):
    """hardy_evolve's rows and last state (unfolded when w0 is an octant)
    beside the lattice reference from lattice, and
    hypercontractivity_measure's norms beside theirs."""
    series = hardy_evolve(grid, w0, spec, times, substeps)
    measured = hypercontractivity_measure(grid, w0, spec, PAIRS, times, substeps)
    last = _last_state(w0, grid, spec, times, substeps)
    rows, final = _lattice_rows(grid, lattice, spec, times, substeps, NORMS)
    pair_rows, _ = _lattice_rows(grid, lattice, spec, times, substeps, [(q, True) for q, _ in PAIRS])
    return (
        (np.array(series.rows())[:, 1:], rows),
        (last if last.shape == grid.shape else unfold(last), final),
        (np.array([result.norms for result in measured]).T, pair_rows),
    )


def _spec(d: int, alpha_frac: float, kappa_frac: float) -> HardyOperatorSpec:
    alpha = alpha_frac * min(d, 2)  # the weighted theory needs alpha < d
    return HardyOperatorSpec(alpha=alpha, d=d, kappa=kappa_frac * power_map_coeff_max(d, alpha))


@PROPERTY
@given(shape=st.sampled_from([(1, 64), (2, 16), (3, 16)]), alpha_frac=st.floats(0.15, 0.95),
       kappa_frac=st.floats(0.0, 0.9), substeps=st.integers(1, 3), seed=seeds)
@example(shape=(1, LONG), alpha_frac=0.5, kappa_frac=0.2, substeps=2, seed=3)
def test_even_hardy_runs_match_the_lattice_flow(shape, alpha_frac, kappa_frac, substeps, seed):
    d, n = shape
    grid = Grid(d, n, 4.0 if n < LONG else 512.0)
    lattice, spec, times = np.abs(_even(grid, seed)), _spec(d, alpha_frac, kappa_frac), [0.1, 0.2, 0.4]
    # the caller's shape picks the layout: its octant runs there, to rounding of the lattice flow
    runs = _hardy_runs(grid, fold(lattice), lattice, spec, times, substeps)
    (rows, ref_rows), (final, ref_final), (pair_rows, ref_pair_rows) = runs
    np.testing.assert_allclose(rows, ref_rows, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(pair_rows, ref_pair_rows, rtol=1e-12, atol=0.0)
    assert np.max(np.abs(final - ref_final)) <= 1e-12 * np.max(ref_final)
    # and the even lattice array runs on the lattice, bit for bit
    for got, reference in _hardy_runs(grid, lattice, lattice, spec, times, substeps):
        assert np.array_equal(got, reference)


@PROPERTY
@given(d=dims, alpha_frac=st.floats(0.15, 0.95), kappa_frac=st.floats(0.0, 0.9),
       substeps=st.integers(1, 3), seed=seeds)
def test_hardy_runs_of_data_that_is_not_even_keep_the_lattice_bits(d, alpha_frac, kappa_frac,
                                                                   substeps, seed):
    grid = _grid(d)
    values = np.abs(_even(grid, seed))
    values[(1,) * d] += 0.5  # its mirror point keeps the old value
    runs = _hardy_runs(grid, values, values, _spec(d, alpha_frac, kappa_frac), [0.1, 0.2, 0.4], substeps)
    for got, reference in runs:
        assert np.array_equal(got, reference)


def test_fft_workers_scope_and_sweep_share(monkeypatch):
    seen = []
    monkeypatch.setattr(analysis, "evolve", lambda cfg, certify=False: seen.append(field.thread_count()))
    cfg = _evolve_3d_config()
    monkeypatch.setenv("FRACLAB_THREADS", "2")
    analysis.run_sweep([cfg, cfg])  # runs in turn, each with every worker
    monkeypatch.setenv("FRACLAB_THREADS", "3")
    analysis.run_sweep([cfg])
    assert seen == [2, 2, 3]


@pytest.mark.parametrize("p", [1.7, 2.0, 3.0])
def test_reaction_handles_diffusion_ringing(p):
    values = np.array([-1e-8, 0.0, 0.5, 1.0])
    out = _flow(values.copy(), 0.01, p)
    assert np.all(np.isfinite(out))
    assert out[0] < 0.0 and out[-1] > 1.0
