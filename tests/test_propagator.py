"""Properties of the spectral propagator and the loops built on it.

The propagator must conserve mass, compose as a semigroup, and agree with
a plain numpy.fft evaluation of exp(-t |k|^alpha); its octant layout must
agree with the full layout on mirror-even data; the fused-potential
interval loop must agree with one Strang step at a time; the reaction
flow must compose; and a run must not depend on the FFT worker count.
Lines of SPLIT_MIN points and more are transformed as two half-length
lines, whose half spectra must rebuild numpy's rfft and irfft.
"""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraclab.analysis as analysis
from fraclab.config import config_from_dict
from fraclab.constants import power_map_coeff_max
from fraclab.field import (
    SPLIT_MIN,
    Field,
    Grid,
    SpectralPropagator,
    _FFT_SHARE,
    _halves,
    _interleave,
    fft_workers,
    fold,
    multiplicity,
    propagator,
    unfold,
)
from fraclab.linear_propagators import HardyOperatorSpec, hardy_evolve, hardy_step
from fraclab.nonlinear_solver import _flow, _reaction, evolve, reaction_exact

PROPERTY = settings(max_examples=25, deadline=None)
LONG = settings(max_examples=8, deadline=None)  # lines of 2^17 points and more

dims = st.sampled_from([1, 2, 3])
alphas = st.floats(0.2, 2.0)
times = st.floats(1e-3, 2.0)
seeds = st.integers(0, 2**32 - 1)
long_lines = st.sampled_from([SPLIT_MIN, 2 * SPLIT_MIN, 4 * SPLIT_MIN])


def _grid(d: int) -> Grid:
    return Grid(d, 64 if d == 1 else 16, 4.0)


def _values(grid: Grid, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(grid.shape)


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


@PROPERTY
@given(d=dims, alpha=alphas, t=times, seed=seeds, line=st.sampled_from([64, SPLIT_MIN, 2 * SPLIT_MIN]))
def test_octant_propagator_matches_the_full_lattice(d, alpha, t, seed, line):
    grid = Grid(1, line, 4.0) if d == 1 else _grid(d)
    v = _even(grid, seed)
    prop = SpectralPropagator(grid, alpha)
    octant = prop.octant(fold(v), t)
    full = prop(v, t)
    assert np.max(np.abs(unfold(octant) - full)) <= 1e-12 * np.max(np.abs(full))
    if d == 1:  # the same transforms of the same line
        assert np.array_equal(octant, fold(full))


@PROPERTY
@given(d=dims, alpha=alphas, t=times, seed=seeds)
def test_octant_propagator_does_not_depend_on_fft_workers(d, alpha, t, seed):
    grid = _grid(d)
    octant = fold(_even(grid, seed))
    prop = propagator(grid, alpha)
    outs = []
    for workers in (1, 2):
        with fft_workers(workers):
            outs.append(prop.octant(octant, t))
    assert np.array_equal(*outs)


def _split_rfft(x: np.ndarray, workers: int) -> np.ndarray:
    """rfft of x joined from its half spectra: X[j] = E[j] + W^j O[j] and
    X[n/2 - j] = conj(E[j] - W^j O[j]) for j in [0, n/4]."""
    e, wo = _halves(x, workers)
    return np.concatenate((e + wo, np.conjugate(e - wo)[-2::-1]))


def _split_irfft(spectrum: np.ndarray, n: int, workers: int) -> np.ndarray:
    """irfft(spectrum, n) from the half spectra E = (X[j] + conj X[n/2 - j])/2
    and W^j O = (X[j] - conj X[n/2 - j])/2."""
    q = n // 4
    low, high = spectrum[: q + 1], np.conjugate(spectrum[q:][::-1])
    return _interleave(lambda: (low + high) * 0.5, lambda: (low - high) * 0.5, n, workers)


@LONG
@given(n=long_lines, seed=seeds)
def test_split_transforms_match_numpy_fft(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    # any spectrum, as a multiplied one is: irfft reads only the real
    # parts of its first and last entries
    noise = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
    spectrum, line = np.fft.rfft(x), np.fft.irfft(noise, n)
    outs = []
    for workers in (1, 2):
        forward, inverse = _split_rfft(x, workers), _split_irfft(noise, n, workers)
        assert np.max(np.abs(forward - spectrum)) <= 1e-12 * np.max(np.abs(spectrum))
        assert np.max(np.abs(inverse - line)) <= 1e-12 * np.max(np.abs(line))
        outs.append((forward, inverse))
    assert all(np.array_equal(one, two) for one, two in zip(*outs))


@LONG
@given(n=long_lines, alpha=alphas, t=times, seed=seeds)
def test_split_propagator_does_not_depend_on_fft_workers(n, alpha, t, seed):
    grid = Grid(1, n, 512.0)
    v = _values(grid, seed)
    prop = SpectralPropagator(grid, alpha)
    outs = []
    for workers in (1, 2):
        with fft_workers(workers):
            outs.append(prop(v, t))
    assert np.array_equal(*outs)
    assert np.max(np.abs(outs[0] - _reference(v, grid, t, alpha))) <= 1e-12 * np.max(np.abs(v))


def test_split_propagator_shared_across_threads():
    # callers in four threads share one propagator, its cache of the last
    # t and the helper thread; a short switch interval interleaves them
    grid = Grid(1, SPLIT_MIN, 512.0)
    prop = SpectralPropagator(grid, 0.7)
    v = _values(grid, 7)
    steps = [0.1 * (k + 1) for k in range(4)]
    with fft_workers(1):
        expected = [prop(v, t) for t in steps]
    results, errors = {}, []

    def run(k):
        try:
            with fft_workers(2):
                for _ in range(3):
                    results.setdefault(k, []).append(prop(v, steps[k]).copy())
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


def test_propagator_reuses_the_multiplier_of_the_last_time():
    prop = SpectralPropagator(_grid(2), 1.0)
    first = prop.multiplier(0.25)
    assert prop.multiplier(0.25) is first
    assert prop.multiplier(0.5) is not first
    assert propagator(_grid(2), 1.0) is propagator(_grid(2), 1.0)


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
    series = hardy_evolve(w0, spec, schedule, substeps)

    w, t_prev = w0, 0.0
    for t_out, sup in zip(schedule, series.plain_qinf):
        for _ in range(substeps):
            w = hardy_step(w, (t_out - t_prev) / substeps, spec)
        t_prev = t_out
        assert math.isclose(sup, w.sup(), rel_tol=1e-12)
    scale = np.max(np.abs(w.values))
    assert np.max(np.abs(series.final.values - w.values)) <= 1e-12 * scale


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
            assert (out is None) == math.isinf(reaction_exact(peak, dt, p))


def _evolve_3d_config():
    return config_from_dict({
        "params": {"alpha": 1.0, "d": 3, "p": 2.0},
        "grid": {"n": 32, "L": 8.0},
        "time": {"t_end": 1.0, "output_schedule": [0.25, 0.5, 1.0]},
        "initial": {"kind": "gaussian", "amplitude": 0.8},
    })


def test_evolve_records_do_not_depend_on_fft_workers(monkeypatch):
    records = []
    for threads in ("1", "2"):
        monkeypatch.setenv("FRACLAB_THREADS", threads)
        records.append(evolve(_evolve_3d_config()))
    one, two = records
    assert one.status == two.status
    for name in ("times", "sup_norm", "l2_norm", "mass", "min_value", "dt"):
        assert np.array_equal(getattr(one, name), getattr(two, name)), name


def test_long_hardy_evolve_records_do_not_depend_on_fft_workers(monkeypatch):
    grid = Grid(1, 2 * SPLIT_MIN, 512.0)
    spec = HardyOperatorSpec(alpha=0.5, d=1, kappa=0.2 * power_map_coeff_max(1, 0.5))
    w0 = Field(grid, np.exp(-grid.axis() ** 2))
    series = []
    for threads in ("1", "2"):
        monkeypatch.setenv("FRACLAB_THREADS", threads)
        series.append(hardy_evolve(w0, spec, [0.5, 1.0, 2.0], 4))
    one, two = series
    for name in ("plain_q1", "plain_q2", "plain_qinf", "weighted_q1", "weighted_q2", "weighted_qinf"):
        assert np.array_equal(getattr(one, name), getattr(two, name)), name
    assert np.array_equal(one.final.values, two.final.values)


def test_fft_workers_scope_and_sweep_share(monkeypatch):
    monkeypatch.setenv("FRACLAB_THREADS", "2")
    with fft_workers(1):
        with fft_workers(3):
            assert _FFT_SHARE.workers == 3
        assert _FFT_SHARE.workers == 1
    assert getattr(_FFT_SHARE, "workers", None) is None

    seen = []
    monkeypatch.setattr(analysis, "evolve", lambda cfg: seen.append(_FFT_SHARE.workers))
    cfg = _evolve_3d_config()
    analysis.run_sweep([cfg, cfg], threads=2)  # runs in turn, each with every worker
    analysis.run_sweep([cfg], threads=3)
    assert seen == [2, 2, 3]


@pytest.mark.parametrize("p", [1.7, 2.0, 3.0])
def test_reaction_handles_diffusion_ringing(p):
    values = np.array([-1e-8, 0.0, 0.5, 1.0])
    out = _flow(values.copy(), 0.01, p)
    assert np.all(np.isfinite(out))
    assert out[0] < 0.0 and out[-1] > 1.0
