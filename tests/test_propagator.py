"""Properties of the spectral propagator and the loops built on it.

The propagator must conserve mass, compose as a semigroup, and agree with
a plain numpy.fft evaluation of exp(-t |k|^alpha); the fused-potential
interval loop must agree with one Strang step at a time; the reaction
flow must compose; and a run must not depend on the FFT worker count.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraclab.analysis as analysis
from fraclab.config import config_from_dict
from fraclab.constants import power_map_coeff_max
from fraclab.field import (
    Field,
    Grid,
    SpectralPropagator,
    _FFT_SHARE,
    fft_workers,
    propagator,
)
from fraclab.linear_propagators import HardyOperatorSpec, hardy_evolve, hardy_step
from fraclab.nonlinear_solver import _flow, _reaction, evolve, reaction_exact

PROPERTY = settings(max_examples=25, deadline=None)

dims = st.sampled_from([1, 2, 3])
alphas = st.floats(0.2, 2.0)
times = st.floats(1e-3, 2.0)
seeds = st.integers(0, 2**32 - 1)


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


def test_fft_workers_scope_and_sweep_share(monkeypatch):
    monkeypatch.setenv("FRACLAB_THREADS", "2")
    with fft_workers(1):
        with fft_workers(3):
            assert _FFT_SHARE.workers == 3
        assert _FFT_SHARE.workers == 1
    assert getattr(_FFT_SHARE, "workers", None) is None

    seen = []
    monkeypatch.setattr(analysis, "evolve", lambda cfg, keep_snapshots=False: seen.append(
        _FFT_SHARE.workers))
    cfg = _evolve_3d_config()
    analysis.run_sweep([cfg, cfg], threads=2)  # two pool threads, one FFT worker each
    analysis.run_sweep([cfg], threads=2)  # one run gets both threads
    assert seen == [1, 1, 2]


@pytest.mark.parametrize("p", [1.7, 2.0, 3.0])
def test_reaction_handles_diffusion_ringing(p):
    values = np.array([-1e-8, 0.0, 0.5, 1.0])
    out = _flow(values.copy(), 0.01, p)
    assert np.all(np.isfinite(out))
    assert out[0] < 0.0 and out[-1] > 1.0
