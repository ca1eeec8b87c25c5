import math

import numpy as np
import pytest

import fraclab.linear_propagators as lp
from fraclab.config import InitialSpec
from fraclab.constants import ModelParams, power_map_coeff_max
from fraclab.field import Field, Grid, dyadic_schedule, heat_propagate
from fraclab.linear_propagators import (
    HardyOperatorSpec,
    HypercontractivityResult,
    _cell_delta,
    hardy_evolve,
    hardy_step,
    hypercontractivity_measure,
    kernel_ratio_probe,
)

CMAX_1D_HALF = power_map_coeff_max(1, 0.5)
# the gaussian datum's formula reads none of the model parameters
PARAMS = ModelParams(alpha=1.0, d=1, p=2.0)


def test_spec_validation():
    HardyOperatorSpec(alpha=0.5, d=1, kappa=0.1)
    with pytest.raises(ValueError):
        HardyOperatorSpec(alpha=0.0, d=1, kappa=0.1)
    with pytest.raises(ValueError):
        HardyOperatorSpec(alpha=0.5, d=4, kappa=0.1)
    with pytest.raises(ValueError):
        HardyOperatorSpec(alpha=0.5, d=1, kappa=-0.1)


def test_step_domain_errors():
    g = Grid(1, 64, 8.0)
    f = InitialSpec("gaussian").build(g, PARAMS)
    spec = HardyOperatorSpec(alpha=1.0, d=1, kappa=0.1)
    with pytest.raises(ValueError):
        hardy_step(f, 0.0, spec)
    with pytest.raises(ValueError):
        hardy_step(f, 1.0, HardyOperatorSpec(alpha=1.0, d=2, kappa=0.1))


def test_runs_reject_a_mismatched_spec_dimension():
    g = Grid(1, 64, 8.0)
    f = InitialSpec("gaussian").build(g, PARAMS)
    spec = HardyOperatorSpec(alpha=1.0, d=2, kappa=0.1)
    times = [0.5, 1.0, 2.0]
    with pytest.raises(ValueError, match="spec dimension"):
        hardy_evolve(f, spec, times, substeps_per_interval=2)
    with pytest.raises(ValueError, match="spec dimension"):
        kernel_ratio_probe(g, spec, [0.0], times, substeps_per_interval=2)
    with pytest.raises(ValueError, match="spec dimension"):
        hypercontractivity_measure(f, spec, [(2.0, 1.0)], times, substeps_per_interval=2)


@pytest.mark.parametrize("substeps", [0, -2])
@pytest.mark.parametrize("run", ["hardy_evolve", "kernel_ratio_probe", "hypercontractivity_measure"])
def test_runs_reject_fewer_than_one_substep_before_any_step(run, substeps, monkeypatch):
    # _strang_intervals states the rule once, for every run, before any
    # step: a nonpositive count would give kernel_ratio_probe finite or NaN
    # ratios
    g = Grid(1, 256, 32.0)
    f = InitialSpec("gaussian").build(g, PARAMS)
    spec = HardyOperatorSpec(alpha=0.5, d=1, kappa=0.01)
    times = [0.5, 1.0, 2.0]
    calls = {
        "hardy_evolve": lambda: hardy_evolve(f, spec, times, substeps_per_interval=substeps),
        "kernel_ratio_probe": lambda: kernel_ratio_probe(g, spec, [0.0], times, substeps_per_interval=substeps),
        "hypercontractivity_measure": lambda: hypercontractivity_measure(
            f, spec, [(2.0, 1.0)], times, substeps_per_interval=substeps),
    }
    monkeypatch.setattr(lp, "propagator", lambda *_: pytest.fail("a step ran"))
    with pytest.raises(ValueError, match="substeps_per_interval must be at least 1"):
        calls[run]()


def test_zero_kappa_reduces_to_heat():
    g = Grid(1, 128, 16.0)
    f = InitialSpec("gaussian").build(g, PARAMS)
    spec = HardyOperatorSpec(alpha=1.0, d=1, kappa=0.0)
    out = hardy_step(f, 0.7, spec)
    ref = heat_propagate(f, 0.7, 1.0)
    assert np.array_equal(out.values, ref.values)


def test_positivity_preserved():
    g = Grid(1, 512, 64.0)
    f = InitialSpec("gaussian", amplitude=2.0, width=3.0).build(g, PARAMS)
    spec = HardyOperatorSpec(alpha=0.5, d=1, kappa=0.5 * CMAX_1D_HALF)
    w = f
    for _ in range(10):
        w = hardy_step(w, 0.5, spec)
    assert float(np.min(w.values)) >= -1e-12 * w.sup()


def test_second_order_self_convergence():
    # global Strang error over a fixed horizon scales as dt^2
    g = Grid(1, 256, 32.0)
    f = InitialSpec("gaussian", width=2.0).build(g, PARAMS)
    spec = HardyOperatorSpec(alpha=1.0, d=1, kappa=0.3)
    horizon = 1.0

    def run(steps):
        w = f
        for _ in range(steps):
            w = hardy_step(w, horizon / steps, spec)
        return w.values

    coarse, mid, fine = run(8), run(16), run(32)
    e1 = np.max(np.abs(coarse - mid))
    e2 = np.max(np.abs(mid - fine))
    assert 3.0 < e1 / e2 < 5.0


def test_potential_amplifies_over_free_flow():
    g = Grid(1, 1024, 64.0)
    f = InitialSpec("gaussian").build(g, PARAMS)
    spec = HardyOperatorSpec(alpha=0.5, d=1, kappa=0.5 * CMAX_1D_HALF)
    w = f
    for _ in range(32):
        w = hardy_step(w, 2.0 / 32, spec)
    free = heat_propagate(f, 2.0, 0.5)
    assert np.all(w.values >= free.values - 1e-10 * free.sup())


def test_monotone_in_kappa():
    g = Grid(1, 1024, 64.0)
    f = InitialSpec("gaussian").build(g, PARAMS)
    evolved = []
    for frac in (0.2, 0.6):
        spec = HardyOperatorSpec(alpha=0.5, d=1, kappa=frac * CMAX_1D_HALF)
        w = f
        for _ in range(32):
            w = hardy_step(w, 2.0 / 32, spec)
        evolved.append(w.values)
    assert np.all(evolved[1] >= evolved[0] - 1e-10 * np.max(evolved[0]))


def test_dyadic_schedule():
    g = Grid(1, 64, 8.0)  # h = 0.25
    ts = dyadic_schedule(g, 1.0, 10.0)
    assert ts[0] == pytest.approx(1.0)
    np.testing.assert_allclose(np.diff(np.log2(ts)), 1.0)
    assert ts[-1] <= 10.0 < 2.0 * ts[-1]
    with pytest.raises(ValueError):
        dyadic_schedule(g, 1.0, 0.5)


def test_evolve_input_validation():
    g = Grid(1, 64, 8.0)
    f = InitialSpec("gaussian").build(g, PARAMS)
    spec = HardyOperatorSpec(alpha=0.5, d=1, kappa=0.1)
    with pytest.raises(ValueError):
        hardy_evolve(f, spec, [])
    with pytest.raises(ValueError):
        hardy_evolve(f, spec, [1.0, 0.5])
    with pytest.raises(ValueError):
        hardy_evolve(Field(g, -f.values), spec, [1.0])
    over = HardyOperatorSpec(alpha=0.5, d=1, kappa=2.0 * CMAX_1D_HALF)
    with pytest.raises(ValueError):
        hardy_evolve(f, over, [1.0])


def test_evolve_records_consistent_norms():
    g = Grid(1, 256, 32.0)
    f = InitialSpec("gaussian").build(g, PARAMS)
    spec = HardyOperatorSpec(alpha=0.5, d=1, kappa=0.3 * CMAX_1D_HALF)
    series = hardy_evolve(f, spec, [0.5, 1.0, 2.0], substeps_per_interval=8)
    # q = 2 weight cancels; plain and weighted L2 agree
    np.testing.assert_allclose(series.weighted_q2, series.plain_q2, rtol=1e-12)
    # phi >= 1: the sup is damped by 1/phi while the L1 integrand carries
    # phi^{2-q} = phi, so the two weighted norms move in opposite directions
    assert np.all(series.weighted_qinf <= series.plain_qinf + 1e-15)
    assert np.all(series.weighted_q1 >= series.plain_q1 * (1.0 - 1e-12))
    assert len(series.rows()) == 3
    assert series.sigma > 0.0


def test_zero_kappa_weighted_equals_plain():
    g = Grid(1, 256, 32.0)
    f = InitialSpec("gaussian").build(g, PARAMS)
    spec = HardyOperatorSpec(alpha=1.0, d=1, kappa=0.0)
    series = hardy_evolve(f, spec, [1.0, 2.0], substeps_per_interval=4)
    assert series.sigma == 0.0
    np.testing.assert_allclose(series.weighted_qinf, series.plain_qinf, rtol=1e-13)
    np.testing.assert_allclose(series.weighted_q1, series.plain_q1, rtol=1e-13)


def test_free_bump_sup_slope():
    g = Grid(1, 2048, 256.0)
    f = InitialSpec("gaussian").build(g, PARAMS)
    spec = HardyOperatorSpec(alpha=1.0, d=1, kappa=0.0)
    ts = np.geomspace(4.0, 40.0, 8)
    series = hardy_evolve(f, spec, ts, substeps_per_interval=2)
    slope = np.polyfit(np.log(ts), np.log(series.plain_qinf), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.05)


def test_cell_delta_unit_mass():
    g = Grid(2, 32, 4.0)
    f, idx = _cell_delta(g, (0.6, -1.1))
    assert np.sum(f.values) * f.grid.h ** 2 == pytest.approx(1.0, rel=1e-13)
    assert f.values[idx] == pytest.approx(g.h ** -2)
    with pytest.raises(ValueError):
        _cell_delta(g, (0.0,))


@pytest.mark.parametrize("y", [40.0, 32.0, -100.0, float("nan"), float("inf")])
def test_cell_delta_rejects_sources_outside_the_box(y):
    # a source outside [-L, L) or not finite used to land on an edge cell
    g = Grid(1, 256, 32.0)
    with pytest.raises(ValueError, match=r"\[-L, L\)"):
        _cell_delta(g, y)
    assert _cell_delta(g, -32.0)[1] == (0,)


def test_cell_delta_picks_the_nearest_cell_on_the_torus():
    g = Grid(1, 256, 32.0)  # h = 0.25: cell 255 sits at x = 31.75, cell 0 at -32 = 32 - 2L
    assert _cell_delta(g, 31.9)[1] == (0,)
    assert _cell_delta(g, 31.8)[1] == (255,)
    assert _cell_delta(g, -31.9)[1] == (0,)
    # a point halfway between two cells takes the even index
    assert _cell_delta(g, 0.125)[1] == (128,)
    assert _cell_delta(g, 0.375)[1] == (130,)
    f, idx = _cell_delta(Grid(2, 32, 4.0), (3.9, -3.9))
    assert idx == (0, 0) and np.sum(f.values) * f.grid.h ** 2 == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("dip", [None, 5], ids=["even-octant", "off-centre-lattice"])
def test_octant_flow_stops_at_the_first_non_finite_output(monkeypatch, dip):
    # an even datum runs on its octant, one that is not on the lattice; in
    # either layout a state that overflowed must raise before any norm reads it
    finite, norm = [], lp.norm

    def recording(grid, values, *args):
        finite.append(bool(np.all(np.isfinite(values))))
        return norm(grid, values, *args)

    monkeypatch.setattr(lp, "norm", recording)
    g = Grid(1, 64, 8.0)
    values = np.full(g.shape, 1e308)
    if dip is not None:
        values[dip] = 1.0
    w0 = Field(g, values)
    spec = HardyOperatorSpec(alpha=0.5, d=1, kappa=0.5 * CMAX_1D_HALF)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            hardy_evolve(w0, spec, [1.0, 2.0], substeps_per_interval=1)
    assert all(finite)


def test_kernel_ratio_free_flow_bounded_by_one():
    g = Grid(1, 1024, 128.0)
    spec = HardyOperatorSpec(alpha=0.5, d=1, kappa=0.0)
    t0 = 4.0 * g.h ** 0.5
    res = kernel_ratio_probe(g, spec, (0.5,), [t0, 2 * t0, 4 * t0])
    assert res.overall_max <= 1.0 + 1e-10
    assert np.all(res.min_ratio >= 0.0)
    # free evolution equals the reference kernel, so the ratio is exactly 1/(phi phi)
    assert res.overall_max == pytest.approx(1.0, rel=1e-10)


def test_kernel_ratio_stable_under_refinement():
    spec = HardyOperatorSpec(alpha=0.5, d=1, kappa=0.5 * CMAX_1D_HALF)
    times = [2.83, 5.66, 11.3]
    maxima = []
    for n in (2048, 4096):
        g = Grid(1, n, 512.0)
        res = kernel_ratio_probe(g, spec, (0.5,), times, window_radius=64.0)
        assert np.all(res.min_ratio >= 0.0)
        maxima.append(res.overall_max)
    assert maxima[1] < 2.0 * maxima[0]
    assert maxima[0] < 2.0 * maxima[1]


def test_kernel_ratio_rejects_supercritical_kappa():
    g = Grid(1, 256, 32.0)
    spec = HardyOperatorSpec(alpha=0.5, d=1, kappa=1.5 * CMAX_1D_HALF)
    with pytest.raises(ValueError):
        kernel_ratio_probe(g, spec, (0.5,), [1.0])


def test_hypercontractivity_no_gain_at_equal_exponents():
    # a constant field is invariant under the free flow: slope exactly 0
    g = Grid(1, 64, 8.0)
    f = Field(g, np.full(g.shape, 0.7))
    spec = HardyOperatorSpec(alpha=1.0, d=1, kappa=0.0)
    (res,) = hypercontractivity_measure(f, spec, pairs=[(2.0, 2.0)], times=[1.0, 2.0, 4.0])
    assert res.expected == 0.0
    assert abs(res.slope) < 1e-10


def test_hypercontractivity_domain_errors():
    g = Grid(1, 64, 8.0)
    f = InitialSpec("gaussian").build(g, PARAMS)
    spec = HardyOperatorSpec(alpha=1.0, d=1, kappa=0.0)
    with pytest.raises(ValueError):
        hypercontractivity_measure(f, spec, pairs=[(1.0, 2.0)], times=[1.0, 2.0, 4.0])
    with pytest.raises(ValueError):
        hypercontractivity_measure(f, spec, pairs=[(2.0, 1.0)], times=[1.0, 1.5])
    with pytest.raises(ValueError, match="at least one"):
        hypercontractivity_measure(f, spec, pairs=[], times=[1.0, 2.0, 4.0])
    # every pair is checked, not only the first
    with pytest.raises(ValueError, match="1 <= r <= q"):
        hypercontractivity_measure(f, spec, pairs=[(2.0, 1.0), (1.0, 2.0)], times=[1.0, 2.0, 4.0])


def test_hypercontractivity_pairs_share_one_flow_bit_for_bit():
    g = Grid(1, 4096, 512.0)
    f = InitialSpec("gaussian").build(g, PARAMS)
    spec = HardyOperatorSpec(alpha=0.5, d=1, kappa=0.5 * CMAX_1D_HALF)
    times = np.geomspace(2.0, 8.0, 5)
    pairs = ((math.inf, 1.0), (2.0, 1.0), (math.inf, 2.0))
    together = hypercontractivity_measure(f, spec, pairs, times, substeps_per_interval=4)
    assert len(together) == len(pairs)
    for pair, res in zip(pairs, together):
        (alone,) = hypercontractivity_measure(f, spec, [pair], times, substeps_per_interval=4)
        assert res.slope == alone.slope
        assert res.expected == alone.expected
        assert np.array_equal(res.norms, alone.norms)
        assert np.array_equal(res.times, alone.times)


def test_hypercontractivity_sup_gain_slope():
    # (q, r) = (inf, 1): expected exponent -d/alpha = -2
    g = Grid(1, 65536, 8192.0)
    f = InitialSpec("gaussian").build(g, PARAMS)
    spec = HardyOperatorSpec(alpha=0.5, d=1, kappa=0.5 * CMAX_1D_HALF)
    t_max = (g.half_length / 8.0) ** 0.5
    times = np.geomspace(t_max / 10.0, t_max, 10)
    (res,) = hypercontractivity_measure(
        f, spec, pairs=[(math.inf, 1.0)], times=times, substeps_per_interval=16
    )
    assert isinstance(res, HypercontractivityResult)
    assert res.expected == pytest.approx(-2.0)
    assert res.slope == pytest.approx(-2.0, abs=0.3)
