import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraclab.nonlinear_solver as ns
from fraclab.config import ExperimentConfig, InitialSpec, config_from_dict
from fraclab.constants import ModelParams
from fraclab.field import Field, Grid, WeightSpec, fold, heat_propagate, steady_state, unfold
from fraclab.linear_propagators import HardyOperatorSpec
from fraclab.nonlinear_solver import (
    BarrierMonitor,
    Blowup,
    Global,
    NumericalFailure,
    SandwichMonitor,
    blowup_certificate,
    evolve,
)

PARAMS = ModelParams(alpha=0.5, d=1, p=3.0)


def make_config(**overrides):
    doc = {"params": {"alpha": 0.5, "d": 1, "p": 3.0}}
    doc.update(overrides)
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# reaction substep


def test_reaction_exact_values():
    # the flow of u' = u^p over dt is u (1 - (p-1) dt u^{p-1})^{-1/(p-1)}
    for u, dt, p in [(0.0, 1.0, 3.0), (1.0, 0.5, 2.0), (0.5, 1.0, 3.0), (0.3, 0.7, 1.5), (2.0, 0.01, 4.0)]:
        exact = u * math.pow(1.0 - (p - 1.0) * dt * math.pow(u, p - 1.0), -1.0 / (p - 1.0))
        assert ns._flow(np.float64(u), dt, p) == pytest.approx(exact, rel=1e-14)


def test_reaction_exact_pole():
    # u' = u^2 from 1 has its pole at dt = 1: at it and past it the substep refuses
    for dt in (1.0, 5.0):
        assert ns._reaction(np.array([1.0, 0.5]), dt, 2.0, np.float64(1.0)) is None


@pytest.mark.parametrize("call, name", [
    (lambda: HardyOperatorSpec(0.5, 1, math.nan), "kappa"),
    (lambda: WeightSpec(0.5, math.nan, 0.5), "t"),
    (lambda: heat_propagate(Field(Grid(1, 16, 2.0), np.ones(16)), math.nan, 1.0), "t"),
], ids=["HardyOperatorSpec-kappa", "WeightSpec-t", "heat_propagate-t"])
def test_nan_fails_the_nonnegative_range_checks(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be nonnegative, got nan$"):
        call()


# ---------------------------------------------------------------------------
# evolve: classification


def test_zero_datum_global():
    cfg = make_config(grid={"n": 64, "L": 8.0}, initial={"kind": "zero"})
    rec = evolve(cfg)
    assert rec.status == Global(horizon=8.0)
    assert np.all(rec.sup_norm == 0.0)
    assert np.all(rec.mass == 0.0)
    assert np.all(rec.l2_norm == 0.0)


def test_small_gaussian_global_record_invariants(monkeypatch):
    cfg = make_config(grid={"n": 256, "L": 32.0},
                      initial={"kind": "gaussian", "amplitude": 0.5})

    def unread(self):
        raise AssertionError("evolve hashed a config that no record holds")

    # the CLI hashes the document for its outputs; a run has no use for it
    monkeypatch.setattr(ExperimentConfig, "config_hash", unread)
    rec = evolve(cfg)
    assert isinstance(rec.status, Global)
    assert rec.times[0] == 0.0
    assert np.all(np.diff(rec.times) > 0)
    assert rec.times[-1] == cfg.time.t_end
    for arr in (rec.sup_norm, rec.l2_norm, rec.mass, rec.min_value, rec.dt):
        assert arr.shape == rec.times.shape
        assert np.all(np.isfinite(arr))
    # subcritical bump spreads out and decays
    assert rec.sup_norm[-1] < 0.1 * rec.sup_norm[0]
    # the source term only adds mass
    assert rec.mass[-1] > rec.mass[0]
    # diffusion ringing stays at rounding level for a smooth bump
    assert rec.min_value.min() > -1e-10
    assert rec.status_dict() == {"kind": "Global", "horizon": 8.0}
    assert len(rec.rows()) == len(rec.times)


def test_large_gaussian_blows_up():
    cfg = make_config(grid={"n": 256, "L": 32.0},
                      initial={"kind": "gaussian", "amplitude": 2.0})
    rec = evolve(cfg)
    assert isinstance(rec.status, Blowup)
    # pole well before the first output time; t_star past every recorded row
    assert 0.1 < rec.status.t_star < 0.2
    assert rec.status.t_star > rec.times[-1]
    assert rec.status_dict()["kind"] == "Blowup"


def test_sup_threshold_triggers_blowup():
    cfg = make_config(grid={"n": 256, "L": 32.0},
                      initial={"kind": "gaussian", "amplitude": 2.0},
                      time={"blowup_sup_threshold": 3.0})
    rec = evolve(cfg)
    assert isinstance(rec.status, Blowup)
    assert rec.status.t_star < 0.2


def test_reaction_pole_after_the_diffusion_triggers_blowup(monkeypatch):
    # at eta = 1 the first half-reaction of a step goes halfway to its
    # pole; a short step barely lowers the peak, so doubling the
    # diffusion's output carries the second one past its pole: the step
    # ends at Blowup(t + dt/2), dt from the dt rule at the datum
    amplitude, eta, p = 4.0, 1.0, 3.0
    cfg = make_config(grid={"n": 256, "L": 32.0},
                      initial={"kind": "gaussian", "amplitude": amplitude},
                      time={"t_end": 8.0, "eta": eta, "dt_max": 8.0, "output_schedule": [8.0]})
    diffuse, reaction, poles = ns._diffuse, ns._reaction, []

    def pole_seen(*args):
        out = reaction(*args)
        poles.append(out is None)
        return out

    monkeypatch.setattr(ns, "_diffuse", lambda *args: 2.0 * diffuse(*args))
    monkeypatch.setattr(ns, "_reaction", pole_seen)
    rec = evolve(cfg)
    dt = eta / ((p - 1.0) * amplitude ** (p - 1.0))
    assert poles == [False, True]
    assert rec.status == Blowup(t_star=0.5 * dt)
    assert list(rec.times) == [0.0]


def test_dt_underflow_triggers_blowup():
    cfg = make_config(grid={"n": 64, "L": 8.0},
                      initial={"kind": "gaussian", "amplitude": 1e12},
                      time={"blowup_sup_threshold": 1e30})
    rec = evolve(cfg)
    assert isinstance(rec.status, Blowup)
    assert rec.status.t_star < 1e-10
    assert list(rec.times) == [0.0]


def test_loose_dt_max_does_not_end_a_global_run():
    # the cap never binds on this run, so lifting it changes nothing; the
    # dt-underflow bound is a fraction of the first step, not of dt_max
    records = [evolve(make_config(grid={"n": 256, "L": 32.0},
                                  initial={"kind": "gaussian", "amplitude": 0.8, "width": 1.0},
                                  time={"t_end": 2.0, "dt_max": dt_max,
                                        "output_schedule": [0.5, 1.0, 2.0]}))
               for dt_max in (1.0, 1e12)]
    assert records[0].status == records[1].status == Global(2.0)
    for column in ("times", "sup_norm", "l2_norm", "mass", "min_value", "dt"):
        np.testing.assert_array_equal(getattr(records[1], column), getattr(records[0], column))


def test_overflowing_datum_blows_up_by_dt_underflow():
    # sup^{p-1} = 1e400 overflows: the step-size rule must read it as inf
    # and end in Blowup, not raise OverflowError
    cfg = make_config(grid={"n": 16, "L": 4.0},
                      initial={"kind": "gaussian", "amplitude": 1e200},
                      time={"t_end": 8.0, "blowup_sup_threshold": 1e300})
    with np.errstate(over="ignore"):
        rec = evolve(cfg)
    assert rec.status == Blowup(0.0)
    assert list(rec.times) == [0.0]


def test_non_integer_p_survives_diffusion_ringing():
    # the diffused field dips to about -7.7e-8; the reaction |u|^{p-1} u
    # must carry such ringing through instead of turning it into NaN
    cfg = config_from_dict({
        "params": {"alpha": 1.0, "d": 3, "p": 1.7},
        "grid": {"n": 32, "L": 16.0},
        "time": {"t_end": 8.0, "output_schedule": [1.0, 2.0, 4.0, 8.0]},
        "initial": {"kind": "gaussian", "amplitude": 0.1},
    })
    rec = evolve(cfg)
    assert isinstance(rec.status, Global)
    assert list(rec.times) == [0.0, 1.0, 2.0, 4.0, 8.0]
    assert np.all(np.isfinite(rec.sup_norm)) and np.all(np.diff(rec.sup_norm) < 0.0)


def test_injected_nan_reports_numerical_failure(monkeypatch):
    def bad_diffuse(values, grid, dt, alpha):
        out = values.copy()
        out.flat[0] = np.nan
        return out

    monkeypatch.setattr(ns, "_diffuse", bad_diffuse)
    cfg = make_config(grid={"n": 64, "L": 8.0},
                      initial={"kind": "gaussian", "amplitude": 0.5})
    rec = evolve(cfg)
    assert isinstance(rec.status, NumericalFailure)
    assert "non-finite" in rec.status.reason
    assert rec.status_dict()["kind"] == "NumericalFailure"


def test_negative_datum_rejected(monkeypatch):
    cfg = make_config(grid={"n": 64, "L": 8.0}, initial={"kind": "zero"})
    neg = np.full(33, -1.0)
    monkeypatch.setattr(type(cfg.initial), "build_octant", lambda self, grid, params: neg.copy())
    with pytest.raises(ValueError, match="nonnegative"):
        evolve(cfg)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_datum_rejected():
    cfg = make_config(grid={"n": 64, "L": 8.0},
                      initial={"kind": "gaussian", "amplitude": 1e200, "scale": 1e200})
    with pytest.raises(ValueError, match="finite"):
        evolve(cfg)


# ---------------------------------------------------------------------------
# evolve: the box-mean certificate


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([(1, 16), (1, 32), (1, 64), (2, 16), (2, 32)]),
    L=st.sampled_from([4.0, 8.0, 16.0, 32.0]),
    alpha=st.sampled_from([0.5, 1.5]),
    p=st.sampled_from([2.0, 3.0]),
    amplitude=st.floats(0.05, 50.0),
    width_per_L=st.floats(0.02, 2.0),
    t_end=st.sampled_from([2.0, 20.0, 200.0]),
)
# a broad datum of mean 3.7, whose box time lies close to the full run's t_star
@example(shape=(1, 16), L=4.0, alpha=0.5, p=2.0, amplitude=5.0, width_per_L=1.0, t_end=2.0)
def test_a_certified_blowup_is_the_full_runs_verdict(shape, L, alpha, p, amplitude, width_per_L, t_end):
    # a certified run is the full run cut short: the same rows up to its
    # end, and a Blowup only where the full run blows up, no later than the
    # certified t_star plus the half step the full run's t_star may carry
    d, n = shape
    cfg = make_config(params={"alpha": alpha, "d": d, "p": p}, grid={"n": n, "L": L},
                      initial={"kind": "gaussian", "amplitude": amplitude, "width": width_per_L * L},
                      time={"t_end": t_end, "dt_max": t_end / 200.0,
                            "output_schedule": [t_end / 2.0, t_end]})
    certified, full = evolve(cfg, certify=True), evolve(cfg)
    rows = len(certified.times)
    for column in ("times", "sup_norm", "l2_norm", "mass", "min_value", "dt"):
        np.testing.assert_array_equal(getattr(certified, column), getattr(full, column)[:rows])
    if isinstance(certified.status, Blowup):
        assert isinstance(full.status, Blowup)
        assert full.status.t_star <= certified.status.t_star + cfg.time.dt_max / 2.0
    else:
        assert certified.status == full.status


def test_an_overflowing_box_mean_certifies_at_once():
    # a flat datum just below the overflow of the dt rule: one step takes
    # 2 mean^2 past the largest double, the box time reads 0, and the
    # certified run ends where the full run's dt underflow ends it
    cfg = make_config(grid={"n": 16, "L": 4.0},
                      initial={"kind": "gaussian", "amplitude": 9e153, "width": 1e3},
                      time={"blowup_sup_threshold": 1e300})
    with np.errstate(over="ignore"):
        certified, full = evolve(cfg, certify=True), evolve(cfg)
    assert certified.status == full.status
    assert certified.status.t_star > 0.0  # one step was taken


# ---------------------------------------------------------------------------
# evolve: the sup's ODE bound


def _ode_value(s: float, p: float, t: float) -> float:
    """v(t) for v' = v^p from v(0) = s, inf at or past the pole."""
    room = 1.0 - (p - 1.0) * t * s ** (p - 1.0)
    return s / room ** (1.0 / (p - 1.0)) if room > 0.0 else math.inf


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([16, 32, 64]),
    L=st.sampled_from([4.0, 8.0, 16.0, 32.0]),
    alpha=st.sampled_from([0.3, 0.5, 0.8, 1.0]),
    p=st.sampled_from([2.0, 2.5, 3.0]),
    eta=st.floats(0.05, 0.95),
    amplitude=st.floats(0.01, 5.0),
    width_per_L=st.floats(0.02, 2.0),
    t_end=st.sampled_from([0.5, 2.0, 20.0, 200.0]),
    headroom=st.floats(0.5, 4.0),
)
# a flat datum follows the ODE, so its bound S_end at the first step is the
# full run's sup at t_end: a threshold 1e-6 above it lets the exit fire
# there, and 1e-6 below it the full run ends Blowup on the threshold
@example(n=16, L=4.0, alpha=0.5, p=2.0, eta=0.5, amplitude=1.0, width_per_L=1e6, t_end=0.5,
         headroom=1.0 + 1e-6)
@example(n=16, L=4.0, alpha=0.5, p=2.0, eta=0.5, amplitude=1.0, width_per_L=1e6, t_end=0.5,
         headroom=1.0 - 1e-6)
def test_a_global_exit_is_the_full_runs_verdict(n, L, alpha, p, eta, amplitude, width_per_L, t_end,
                                                headroom):
    # a run that exits Global is the full run cut short: the same rows up to
    # its end, and Global in both.  The sup threshold is headroom times the
    # datum's ODE value at t_end, or the default past that ODE's pole.
    s_end = _ode_value(amplitude, p, t_end)
    threshold = headroom * s_end if math.isfinite(s_end) else 1e8
    cfg = make_config(params={"alpha": alpha, "d": 1, "p": p}, grid={"n": n, "L": L},
                      initial={"kind": "gaussian", "amplitude": amplitude, "width": width_per_L * L},
                      time={"t_end": t_end, "dt_max": t_end / 200.0, "eta": eta,
                            "blowup_sup_threshold": threshold,
                            "output_schedule": [t_end / 2.0, t_end]})
    certified, full = evolve(cfg, certify=True), evolve(cfg)
    rows = len(certified.times)
    for column in ("times", "sup_norm", "l2_norm", "mass", "min_value", "dt"):
        np.testing.assert_array_equal(getattr(certified, column), getattr(full, column)[:rows])
    if isinstance(certified.status, Global):
        assert full.status == certified.status
    if width_per_L == 1e6:  # the examples: the exit fires at once, or the full run hits the threshold
        assert certified.status == full.status
        assert rows == 1 if headroom > 1.0 else isinstance(full.status, Blowup)


def _counted_steps(monkeypatch, cfg, certify):
    """The status of evolve(cfg) and its number of diffusion substeps."""
    calls = []
    diffuse = ns._diffuse
    monkeypatch.setattr(ns, "_diffuse", lambda *args: calls.append(1) or diffuse(*args))
    record = evolve(cfg, certify=certify)
    monkeypatch.setattr(ns, "_diffuse", diffuse)
    return record.status, len(calls)


@pytest.mark.parametrize("d, alpha, eta, exits", [
    (1, 0.5, 0.5, True),  # the contrast: a Z-matrix generator and eta < 1
    (1, 1.5, 0.1, False),  # the 1-d generator is not a Z-matrix past alpha 1
    (2, 0.5, 0.1, False),  # nor any 2-d one
    (1, 0.5, 1.0, False),  # eta = 1: the two half reactions can reach the pole
])
def test_the_global_exit_fires_only_on_a_z_matrix_with_eta_below_one(monkeypatch, d, alpha, eta, exits):
    # a small datum whose own ODE stays finite past t_end: on a monotone
    # lattice the sup's bound ends the run at its first step
    cfg = make_config(params={"alpha": alpha, "d": d, "p": 3.0}, grid={"n": 16, "L": 8.0},
                      initial={"kind": "gaussian", "amplitude": 0.05},
                      time={"t_end": 100.0, "eta": eta, "output_schedule": [50.0, 100.0]})
    status, steps = _counted_steps(monkeypatch, cfg, certify=True)
    full_status, full_steps = _counted_steps(monkeypatch, cfg, certify=False)
    assert status == full_status == Global(100.0)
    assert full_steps == 100
    assert steps == (1 if exits else full_steps)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([256, 32768]),  # the cosine matrix and the transform-order routes
       alpha=st.sampled_from([0.3, 0.5, 1.0]), p=st.sampled_from([2.0, 3.0]),
       dt_per_h=st.floats(-4.0, 2.0), floor=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
       spikiness=st.floats(1.0, 30.0), seed=st.integers(0, 2**32 - 1))
def test_a_monotone_lattice_step_keeps_the_sup_and_the_order(n, alpha, p, dt_per_h, floor, spikiness,
                                                             seed):
    # the lemma under the sup's ODE bound: on a 1-d lattice with alpha <= 1
    # the diffusion step does not raise the max, and a Strang step R D R
    # keeps two ordered data ordered, up to the transforms' rounding.  A
    # high floor leaves only rounding (4e-16 and 3e-15 at worst over 300
    # draws); alpha 1.5 raises the max by 2e-7 and breaks the order by 0.9%
    grid = Grid(1, n, 32.0)
    rng = np.random.default_rng(seed)
    u = floor + rng.random(n // 2 + 1) ** spikiness
    v = u + rng.random(n // 2 + 1) ** spikiness
    dt = min(10.0 ** dt_per_h * grid.h ** alpha, 0.5 / ((p - 1.0) * np.max(v) ** (p - 1.0)))
    stepped = ns._diffuse(u, grid, dt, alpha)
    assert np.max(stepped) <= (1.0 + 1e-14) * np.max(u)

    def strang(w):
        w = ns._reaction(w.copy(), 0.5 * dt, p, np.max(w))
        w = ns._diffuse(w, grid, dt, alpha)
        return ns._reaction(w, 0.5 * dt, p, np.max(np.abs(w)))

    su, sv = strang(u), strang(v)
    assert np.all(su <= sv + 1e-14 * np.max(sv))


# ---------------------------------------------------------------------------
# evolve: accuracy and structure


def test_comparison_principle_at_matched_steps():
    # dt_max binds for both amplitudes, so the two runs take identical steps
    # and the discrete flow preserves pointwise order exactly.
    runs, fields = {}, {}
    for a in (0.05, 0.1):
        cfg = make_config(
            grid={"n": 256, "L": 32.0},
            initial={"kind": "gaussian", "amplitude": a},
            time={"t_end": 4.0, "dt_max": 0.25, "output_schedule": [1.0, 2.0, 4.0]},
        )
        fields[a] = []
        grid = cfg.build_grid()
        runs[a] = evolve(cfg, on_output=lambda k, t, octant, out=fields[a]:
                         out.append(Field(grid, unfold(octant))))
    assert len(fields[0.05]) == len(runs[0.05].times)
    cap = 1e-10 * runs[0.1].sup_norm[0]
    for lo, hi in zip(fields[0.05], fields[0.1]):
        assert float(np.max(lo.values - hi.values)) <= cap


def test_eta_refinement_stability():
    sups = {}
    for eta in (0.1, 0.05):
        cfg = make_config(
            grid={"n": 256, "L": 32.0},
            initial={"kind": "gaussian", "amplitude": 0.5},
            time={"t_end": 8.0, "eta": eta, "output_schedule": [1.0, 2.0, 4.0, 8.0]},
        )
        rec = evolve(cfg)
        assert isinstance(rec.status, Global)
        sups[eta] = rec.sup_norm
    rel = np.max(np.abs(sups[0.1] - sups[0.05]) / sups[0.05])
    assert rel < 1e-2


class _StepLog:
    """A monitor that keeps the dt and the sup of every accepted step."""

    def __init__(self):
        self.dts, self.sups = [], []

    def observe(self, dt, values):
        if dt > 0.0:  # dt = 0 is the observation at t = 0
            self.dts.append(dt)
            self.sups.append(float(np.max(values)))

    def maxima(self):
        return {}


def test_fixed_dt_runs_converge_at_second_order():
    # eta = 1 leaves the reaction time scale above dt_max, so every step is
    # dt_max and halving it halves the Strang step: errors fall by 4
    def run(dt_max):
        cfg = make_config(
            grid={"n": 256, "L": 32.0},
            initial={"kind": "gaussian", "amplitude": 0.5},
            time={"t_end": 4.0, "eta": 1.0, "dt_max": dt_max, "output_schedule": [4.0]},
        )
        steps = _StepLog()
        rec = evolve(cfg, monitors=[steps])
        assert isinstance(rec.status, Global)
        assert steps.dts and all(dt == dt_max for dt in steps.dts)
        assert np.all(rec.dt[1:] == dt_max)
        return np.array([rec.sup_norm[-1], rec.l2_norm[-1]])

    reference = run(1.0 / 64.0)
    errors = np.array([np.abs(run(dt) - reference) for dt in (0.5, 0.25, 0.125, 0.0625)])
    ratios = errors[:-1] / errors[1:]
    assert np.all((ratios >= 3.5) & (ratios <= 4.5)), ratios


@pytest.mark.parametrize("amplitude", [2.0, 5.0])
def test_blowup_time_converges_at_second_order_and_the_type_one_rate(amplitude):
    # Strang splitting: each halving of eta quarters the t_star error, where
    # a Lie splitting would halve it.  Near t_star the sup follows the ODE
    # profile ((p-1)(t_star - t))^{-1/(p-1)}.
    p = PARAMS.p
    t_stars = []
    for k in range(5):
        steps = _StepLog()
        rec = evolve(make_config(grid={"n": 64, "L": 8.0},
                                 initial={"kind": "gaussian", "amplitude": amplitude},
                                 time={"eta": 0.1 / 2 ** k}), monitors=[steps])
        assert isinstance(rec.status, Blowup)
        t_stars.append(rec.status.t_star)
        if k == 0:
            t, sup = np.cumsum(steps.dts), np.array(steps.sups)
            late = sup > 1e3
            rate = sup[late] * ((p - 1.0) * (rec.status.t_star - t[late])) ** (1.0 / (p - 1.0))
            assert abs(np.median(rate) - 1.0) < 1e-3, np.median(rate)
    gaps = np.diff(t_stars)
    ratios = gaps[:-1] / gaps[1:]
    assert np.all((ratios >= 3.5) & (ratios <= 4.5)), ratios


def test_snapshots_disabled_by_default():
    # evolve holds no output; the field stays for readers of the record
    cfg = make_config(grid={"n": 64, "L": 8.0}, initial={"kind": "zero"})
    assert evolve(cfg).snapshots is None


# ---------------------------------------------------------------------------
# monitors


def _barrier_violation(grid, values, barrier="singular", r_max=None):
    mon = BarrierMonitor(grid, PARAMS, barrier, r_max=r_max)
    mon.observe(0.0, fold(values))
    return mon.maxima()["barrier_violation"]


def test_barrier_monitor_one_shot():
    grid = Grid(1, 512, 64.0)
    whole = grid.half_length  # sqrt(d) L: the whole grid
    uinf = steady_state(grid, PARAMS)
    assert _barrier_violation(grid, uinf.values, r_max=whole) == 0.0
    doubled = Field(grid, 2.0 * uinf.values)
    assert _barrier_violation(grid, doubled.values, r_max=whole) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(TypeError, match="barrier"):
        _barrier_violation(grid, uinf.values, "bogus", r_max=whole)


def test_barrier_monitor_outer_mask():
    grid = Grid(1, 512, 64.0)
    uinf = steady_state(grid, PARAMS)
    bumped = uinf.values.copy()
    bumped[0] *= 3.0  # excursion at |x| = L, outside any r_max <= L/4 window
    exceeds = Field(grid, bumped)
    assert _barrier_violation(grid, exceeds.values, r_max=grid.half_length) > 0.0
    assert _barrier_violation(grid, exceeds.values, r_max=16.0) == 0.0


def test_barrier_holds_for_subsingular_datum():
    cfg = make_config(grid={"n": 1024, "L": 128.0},
                      initial={"kind": "truncated_singular", "delta": 0.5},
                      time={"t_end": 4.0})
    grid = cfg.build_grid()
    mon = BarrierMonitor(grid, cfg.params)
    rec = evolve(cfg, monitors=(mon,))
    assert isinstance(rec.status, Global)
    assert rec.monitor_maxima["barrier_violation"] == 0.0


def test_sandwich_monitor_three_layer_order():
    cfg = make_config(grid={"n": 1024, "L": 128.0},
                      initial={"kind": "truncated_singular", "delta": 0.9},
                      time={"t_end": 4.0})
    rec = evolve(cfg, monitors=(SandwichMonitor(cfg.build_grid(), cfg.params),))
    assert isinstance(rec.status, Global)
    assert rec.monitor_maxima["sandwich_violation_lower"] < 1e-10
    assert rec.monitor_maxima["sandwich_violation_upper"] < 1e-10


def test_sandwich_monitor_rejects_datum_above_steady_state():
    # u_0 is the first observation, which evolve makes at t = 0
    grid = Grid(1, 256, 32.0)
    uinf = steady_state(grid, PARAMS)
    mon = SandwichMonitor(grid, PARAMS)
    with pytest.raises(ValueError, match="below the steady state"):
        mon.observe(0.0, fold(1.1 * uinf.values))
    cfg = make_config(grid={"n": 256, "L": 32.0},
                      initial={"kind": "truncated_singular", "delta": 1.1})
    with pytest.warns(UserWarning, match="sub-steady"):
        with pytest.raises(ValueError, match="below the steady state"):
            evolve(cfg, monitors=(SandwichMonitor(cfg.build_grid(), cfg.params),))


def test_sandwich_monitor_records_a_state_above_the_steady_state():
    # the lower violation is max (u - u_inf)/u_inf on the annulus, after t = 0
    grid = Grid(1, 1024, 128.0)
    uinf = fold(steady_state(grid, PARAMS).values)
    mon = SandwichMonitor(grid, PARAMS)
    mon.observe(0.0, 0.5 * uinf)
    assert mon.maxima()["sandwich_violation_lower"] == 0.0
    mon.observe(0.01, 1.2 * uinf)
    assert mon.maxima()["sandwich_violation_lower"] == pytest.approx(0.2, rel=1e-12)


@pytest.mark.parametrize("monitor", [BarrierMonitor, SandwichMonitor])
def test_monitors_reject_a_grid_of_another_dimension(monitor):
    # a 3-d steady state on a 2-d octant used to be observed without error
    with pytest.raises(ValueError, match="grid dimension 2 does not match params.d = 3"):
        monitor(Grid(2, 64, 32.0), ModelParams(1.0, 3, 2.0))


@pytest.mark.parametrize("barrier", [InitialSpec("gaussian"), InitialSpec("zero")])
def test_barrier_monitor_rejects_a_barrier_that_is_not_positive_inside_r_max(barrier):
    # observe divides by the barrier: where it is 0, 0/0 is NaN, and the
    # whole observation used to read as no violation (a unit gaussian
    # underflows at 403 of the 513 points within L/4 = 128)
    with pytest.raises(ValueError, match="not positive at every grid point inside radius 128.0"):
        BarrierMonitor(Grid(1, 4096, 512.0), PARAMS, barrier)


# ---------------------------------------------------------------------------
# blowup certificate


def test_certificate_is_linear_in_the_datum():
    grid = Grid(1, 1024, 64.0)
    x = grid.axis()
    g = Field(grid, np.exp(-(x ** 2)))
    one = blowup_certificate(g, PARAMS, horizon=50.0)
    two = blowup_certificate(Field(grid, 2.0 * g.values), PARAMS, horizon=50.0)
    assert two.value == pytest.approx(2.0 * one.value, rel=1e-12)
    assert two.argmax_time == one.argmax_time
    assert one.times[0] == pytest.approx(4.0 * grid.h ** PARAMS.alpha)


def test_certificate_flat_for_steady_profile():
    # t^{1/(p-1)} sup e^{-tH0} u_inf is scale free up to cap and box effects
    grid = Grid(1, 4096, 256.0)
    u = steady_state(grid, PARAMS)
    res = blowup_certificate(u, PARAMS, horizon=100.0)
    assert res.times.size >= 3
    assert res.values.max() / res.values.min() < 1.25


def test_certificate_guards():
    grid = Grid(1, 256, 32.0)
    g = Field(grid, np.exp(-(grid.axis() ** 2)))
    with pytest.raises(ValueError, match="1.5"):
        blowup_certificate(g, ModelParams(alpha=0.5, d=1, p=1.4), horizon=10.0)
    with pytest.raises(ValueError, match="dyadic"):
        blowup_certificate(g, PARAMS, horizon=1e-6)
