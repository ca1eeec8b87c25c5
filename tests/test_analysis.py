import dataclasses
import json
import math
import os

import numpy as np
import pytest

import fraclab.analysis as an
import fraclab.nonlinear_solver as ns
from fraclab.analysis import (
    ConvergenceRates,
    EnvelopeMax,
    FitResult,
    MonotonicityError,
    ThresholdBracket,
    classify_threshold,
    default_fit_window,
    deficit_evolution,
    envelope_max,
    fit_power_law,
    l2_stability_check,
    run_sweep,
    singular_convergence_rates,
    thread_count,
    weighted_decay_check,
)
from fraclab.config import config_from_dict
from fraclab.constants import ModelParams, kappa_from_params, singular_amplitude, solve_sigma
from fraclab.field import Grid, image_safe_horizon, norm, octant_steady_state
from fraclab.nonlinear_solver import Blowup, Global, NumericalFailure, evolve


# ---------------------------------------------------------------------------
# fit_power_law


def test_fit_exact_power_law():
    times = np.geomspace(1.0, 10.0, 8)
    fit = fit_power_law(times, times**-2.0)
    assert abs(fit.exponent + 2.0) < 1e-12
    assert fit.stderr < 1e-12
    assert fit.n_points == 8
    assert fit.window == (1.0, 10.0)


def test_fit_perturbed_power_law():
    times = np.geomspace(1.0, 20.0, 40)
    values = times**-2.0 * (1.0 + 0.01 * np.sin(np.log(times)))
    fit = fit_power_law(times, values)
    assert abs(fit.exponent + 2.0) <= 0.01
    assert fit.stderr < 0.01


def test_fit_constant_series():
    times = np.geomspace(1.0, 10.0, 6)
    fit = fit_power_law(times, np.full(6, 3.7))
    assert abs(fit.exponent) < 1e-12


def test_fit_window_selects_points():
    times = np.geomspace(0.1, 100.0, 31)
    values = times**-1.0
    fit = fit_power_law(times, values, window=(1.0, 100.0))
    assert fit.n_points == np.count_nonzero((times >= 1.0 - 1e-12) & (times <= 100.0 + 1e-9))
    assert abs(fit.exponent + 1.0) < 1e-12


def test_fit_errors():
    times = np.geomspace(1.0, 10.0, 8)
    with pytest.raises(ValueError, match="at least 5"):
        fit_power_law(times[:4], times[:4] ** -1.0)
    with pytest.raises(ValueError, match="positive"):
        fit_power_law(times, np.zeros(8))
    with pytest.raises(ValueError, match="window"):
        fit_power_law(times, times, window=(5.0, 2.0))
    with pytest.raises(ValueError, match="t_max < inf"):
        fit_power_law(times, times, window=(1.0, math.inf))
    with pytest.raises(ValueError, match="matching"):
        fit_power_law(times, times[:5])
    with pytest.raises(ValueError, match="empty"):
        fit_power_law(np.array([]), np.array([]))
    with pytest.raises(ValueError, match="one distinct time"):
        fit_power_law(np.ones(5), np.arange(1.0, 6.0), window=(0.5, 2.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            fit_power_law(times, np.where(times > 5.0, bad, times ** -1.0))


def test_default_fit_window_is_last_safe_decade():
    grid = Grid(1, 4096, 512.0)
    assert image_safe_horizon(grid, 0.5) == 8.0
    times = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    window = default_fit_window(times, grid, 0.5)
    assert window == (0.8, 8.0)
    with pytest.raises(ValueError, match="horizon"):
        default_fit_window(np.array([9.0, 16.0]), grid, 0.5)


# ---------------------------------------------------------------------------
# threshold bisection


def classify_config(**overrides):
    doc = {
        "params": {"alpha": 0.5, "d": 1, "p": 3.0},
        "grid": {"n": 256, "L": 32.0},
        "time": {"t_end": 50.0, "output_schedule": [10.0, 25.0, 50.0]},
        "initial": {"kind": "gaussian"},
    }
    doc.update(overrides)
    return config_from_dict(doc)


def test_classify_threshold_brackets_transition():
    bracket = classify_threshold(classify_config(), 0.5, 3.0, tol=0.1)
    assert bracket.ratio <= 1.1
    assert bracket.ratio > 1.0
    assert 0.8 <= bracket.lambda_global < bracket.lambda_blowup <= 1.3
    assert bracket.morrey_global > 0.0
    assert bracket.morrey_blowup > bracket.morrey_global
    # the Morrey norm is 1-homogeneous, so its ratio equals the bracket's
    assert bracket.morrey_blowup / bracket.morrey_global == pytest.approx(
        bracket.ratio, rel=1e-12
    )


def test_classify_certified_probes_keep_every_answer_in_fewer_steps(tmp_path, monkeypatch):
    # criterion 10's config: near the threshold the box mean binds, so a
    # Blowup probe ends at its certificate long before its pole
    cfg = classify_config(time={"t_end": 1000.0, "output_schedule": [100.0, 1000.0]})
    diffusions = []
    diffuse = ns._diffuse
    monkeypatch.setattr(ns, "_diffuse", lambda *a: diffusions.append(1) or diffuse(*a))

    def classify(name):
        diffusions.clear()
        state = tmp_path / name
        bracket = classify_threshold(cfg, 0.5, 3.0, tol=0.1, state_path=str(state))
        return bracket, json.loads(state.read_text())["observations"], len(diffusions)

    bracket, observations, certified = classify("certified.json")
    real = an.evolve
    monkeypatch.setattr(an, "evolve", lambda cfg, certify=False: real(cfg))
    assert classify("full.json")[:2] == (bracket, observations)
    assert certified <= 0.6 * len(diffusions), (certified, len(diffusions))


def test_classify_threshold_state_resume(tmp_path, monkeypatch):
    state = tmp_path / "bisect.json"
    cfg = classify_config()
    first = classify_threshold(cfg, 0.5, 3.0, tol=0.1, state_path=str(state), reverify=False)
    saved = json.loads(state.read_text())
    assert saved["config_hash"] == cfg.config_hash()
    assert len(saved["observations"]) >= 5

    calls = []
    real = an.evolve
    monkeypatch.setattr(an, "evolve", lambda *a, **k: calls.append(1) or real(*a, **k))
    second = classify_threshold(cfg, 0.5, 3.0, tol=0.1, state_path=str(state), reverify=False)
    assert calls == []
    assert second == first


def test_classify_state_survives_an_interrupted_write(tmp_path, monkeypatch):
    state = tmp_path / "bisect.json"
    cfg = classify_config()
    real_dump = json.dump

    class Interrupted(Exception):
        pass

    writes = []

    def dump_then_fail(obj, fh, **kwargs):
        writes.append(1)
        if len(writes) == 3:  # the first bisection point, after both endpoints
            fh.write(json.dumps(obj, **kwargs)[:25])
            raise Interrupted
        real_dump(obj, fh, **kwargs)

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(Interrupted):
        classify_threshold(cfg, 0.5, 3.0, tol=0.1, state_path=str(state), reverify=False)
    monkeypatch.setattr(json, "dump", real_dump)
    assert list(tmp_path.iterdir()) == [state]
    saved = json.loads(state.read_text())
    assert saved["observations"] == [[0.5, "Global"], [3.0, "Blowup"]]

    calls = []
    real = an.evolve
    monkeypatch.setattr(an, "evolve", lambda *a, **k: calls.append(1) or real(*a, **k))
    bracket = classify_threshold(cfg, 0.5, 3.0, tol=0.1, state_path=str(state), reverify=False)
    assert bracket.ratio <= 1.1
    final = json.loads(state.read_text())["observations"]
    assert len(calls) == len(final) - 2  # the endpoints came from the saved state


def test_classify_threshold_rejects_foreign_state(tmp_path):
    state = tmp_path / "bisect.json"
    state.write_text(json.dumps({"config_hash": "somebody-else", "observations": []}))
    with pytest.raises(ValueError, match="belongs to"):
        classify_threshold(classify_config(), 0.5, 3.0, state_path=str(state))


def test_classify_threshold_detects_non_monotone_observations(tmp_path):
    cfg = classify_config()
    state = tmp_path / "bisect.json"
    state.write_text(
        json.dumps({"config_hash": cfg.config_hash(), "observations": [[5.0, "Global"]]})
    )
    # a recorded Global above the Blowup endpoint contradicts order preservation
    with pytest.raises(MonotonicityError, match="order preservation"):
        classify_threshold(cfg, 0.5, 3.0, state_path=str(state), reverify=False)


def test_classify_threshold_endpoints_must_straddle():
    cfg = classify_config()
    with pytest.raises(ValueError, match="straddle"):
        classify_threshold(cfg, 0.01, 0.02, tol=0.1)
    with pytest.raises(ValueError, match="straddle"):
        classify_threshold(cfg, 5.0, 9.0, tol=0.1)


def test_classify_threshold_validation():
    cfg = classify_config()
    with pytest.raises(ValueError, match="lambda_lo"):
        classify_threshold(cfg, -1.0, 2.0)
    with pytest.raises(ValueError, match="lambda_lo"):
        classify_threshold(cfg, 2.0, 2.0)
    with pytest.raises(ValueError, match="tol"):
        classify_threshold(cfg, 0.5, 3.0, tol=0.0)
    with pytest.raises(ValueError, match="zero datum"):
        classify_threshold(classify_config(initial={"kind": "zero"}), 0.5, 3.0)
    subfujita = classify_config(params={"alpha": 0.5, "d": 1, "p": 1.3})
    with pytest.raises(ValueError, match="Morrey index"):
        classify_threshold(subfujita, 0.5, 3.0)


def test_classify_threshold_reverify_catches_eta_sensitivity(monkeypatch):
    # rig verdicts to flip when eta is halved: the bracket must be rejected
    def fake_evolve(cfg, certify=False):
        lam = cfg.initial.scale
        threshold = 1.5 if cfg.time.eta >= 0.1 else 0.75

        class R:
            status = Global(horizon=cfg.time.t_end) if lam < threshold else Blowup(t_star=1.0)

        return R()

    monkeypatch.setattr(an, "evolve", fake_evolve)
    cfg = classify_config()
    with pytest.raises(RuntimeError, match="halved eta"):
        classify_threshold(cfg, 0.5, 3.0, tol=0.1)


def test_classify_threshold_gives_up_after_the_bisection_cap(monkeypatch):
    # 40 halvings of log(3.0/0.5) leave a ratio near 1 + 1.6e-12, still above 1 + tol
    runs = []

    def fake_evolve(cfg, certify=False):
        runs.append(cfg.initial.scale)

        class R:
            status = Global(cfg.time.t_end) if cfg.initial.scale < 1.0 else Blowup(1.0)

        return R()

    monkeypatch.setattr(an, "evolve", fake_evolve)
    with pytest.raises(RuntimeError, match="after 40 iterations"):
        classify_threshold(classify_config(), 0.5, 3.0, tol=1e-13)
    assert len(runs) == 2 + 40


def test_classify_threshold_stops_on_a_numerical_failure(monkeypatch):
    class R:
        status = NumericalFailure("synthetic")

    monkeypatch.setattr(an, "evolve", lambda cfg, certify=False: R())
    with pytest.raises(RuntimeError, match="numerical failure during classification: synthetic"):
        classify_threshold(classify_config(), 0.5, 3.0)


def test_horizon_run_needs_a_global_run_with_outputs_inside_the_horizon():
    # L = 32 and alpha = 0.5 put the image-safe horizon at t = 2, before the schedule's 10
    blowup = classify_config(initial={"kind": "gaussian", "scale": 3.0})
    with pytest.raises(RuntimeError, match="probe did not stay global"):
        an._horizon_run(blowup, lambda t, u: None, "probe")
    late = classify_config(initial={"kind": "gaussian", "scale": 0.5})
    with pytest.raises(ValueError, match="no schedule times inside the image-safe horizon"):
        an._horizon_run(late, lambda t, u: None)


# ---------------------------------------------------------------------------
# steady-state approach rates


RATE_PARAMS = {"alpha": 0.5, "d": 1, "p": 2.1}
SIGMA = solve_sigma(kappa_from_params(ModelParams(0.5, 1, 2.1)), 1, 0.5)


def rate_config(n, L, **initial):
    horizon = (L / 8.0) ** 0.5
    schedule = list(np.geomspace(horizon / 10.0, horizon, 10))
    return config_from_dict(
        {
            "params": RATE_PARAMS,
            "grid": {"n": n, "L": L},
            "time": {"t_end": math.ceil(horizon), "output_schedule": schedule},
            "initial": initial,
        }
    )


def test_singular_convergence_rates_canonical():
    cfg = rate_config(32768, 4096.0, kind="steady_deficit_tail", b=0.01, ell=0.5)
    rates = singular_convergence_rates(cfg)
    assert rates.sigma == pytest.approx(SIGMA, rel=1e-12)
    inner_expected = -(0.5 - rates.sigma) / 0.5
    outer_expected = -0.5 / 0.5
    assert abs(rates.inner.exponent - inner_expected) <= 0.2 * abs(inner_expected)
    assert abs(rates.outer.exponent - outer_expected) <= 0.2 * abs(outer_expected)
    assert rates.inner.stderr < 0.1 * abs(inner_expected)
    assert rates.outer.stderr < 0.1 * abs(outer_expected)
    assert rates.inner.n_points == 10
    assert rates.inner_monotone and rates.outer_monotone
    assert not rates.at_floor
    # the reference trajectory drifts O(1) off the capped sample; that is
    # exactly why the deficit is measured against the co-run, not the sample
    assert 0.1 < rates.reference_drift < 2.0


def test_singular_convergence_rates_limit_exponent():
    cfg = rate_config(32768, 4096.0, kind="steady_deficit_tail", b=0.002, ell=SIGMA)
    rates = singular_convergence_rates(cfg)
    assert rates.inner is None and rates.outer is None
    assert not rates.at_floor
    assert rates.outer_monotone
    # the scaled inner profile is flow-invariant at ell = sigma: the series
    # must hold a tight band around b instead of decaying
    assert np.all(rates.inner_sup >= 0.9 * 0.002)
    assert np.all(rates.inner_sup <= 1.1 * 0.002)


def test_singular_convergence_rates_zero_deficit_floor():
    cfg = rate_config(4096, 512.0, kind="steady_deficit_tail", b=0.0, ell=0.5)
    rates = singular_convergence_rates(cfg)
    assert rates.at_floor
    assert rates.inner is None and rates.outer is None
    assert rates.inner_sup.max() == 0.0
    assert rates.outer_sup.max() == 0.0


def test_singular_convergence_rates_validation():
    bump = rate_config(4096, 512.0, kind="steady_deficit_bump", b=0.1, width=1.0)
    with pytest.raises(ValueError, match="steady_deficit_tail"):
        singular_convergence_rates(bump)
    high = rate_config(4096, 512.0, kind="steady_deficit_tail", b=0.01, ell=0.95)
    with pytest.raises(ValueError, match="d - sigma"):
        singular_convergence_rates(high)
    low = rate_config(4096, 512.0, kind="steady_deficit_tail", b=0.01, ell=0.05)
    with pytest.raises(ValueError, match="sigma"):
        singular_convergence_rates(low)


def test_singular_convergence_rates_window_collapse():
    cfg = config_from_dict(
        {
            "params": RATE_PARAMS,
            "grid": {"n": 4096, "L": 512.0},
            "time": {"t_end": 8.0, "output_schedule": [0.1, 0.5, 1.0, 2.0, 4.0, 8.0]},
            "initial": {"kind": "steady_deficit_tail", "b": 0.01, "ell": 0.5},
        }
    )
    # t = 0.1 puts the self-similar edge under the first grid cell
    with pytest.raises(ValueError, match="collapsed"):
        singular_convergence_rates(cfg)


def test_deficit_evolution_requires_deficit_datum():
    with pytest.raises(ValueError, match="steady-deficit"):
        deficit_evolution(classify_config())


# ---------------------------------------------------------------------------
# L2 stability


def l2_config(b):
    return config_from_dict(
        {
            "params": RATE_PARAMS,
            "grid": {"n": 4096, "L": 512.0},
            "time": {"t_end": 8.0, "output_schedule": list(np.geomspace(0.8, 8.0, 10))},
            "initial": {"kind": "steady_deficit_bump", "b": b, "width": 1.0},
        }
    )


def test_l2_stability_rate():
    fit = l2_stability_check(l2_config(0.1))
    expected = -(1.0 - 2.0 * SIGMA) / (2.0 * 0.5)
    assert abs(fit.exponent - expected) <= 0.2 * abs(expected)
    assert fit.stderr < 0.1 * abs(expected)
    assert fit.n_points == 10


def test_l2_stability_zero_bump_is_floor():
    with pytest.raises(ValueError, match="floor"):
        l2_stability_check(l2_config(0.0))


@pytest.mark.parametrize("dip, at, scales, phrase", [
    # below -1e-6 of the peak, at t = 1.72 before the first resolved time
    # 4 h^alpha = 2, and at t = 2.85 after it
    pytest.param(-2e-6, 3, np.geomspace(1.0, 0.1, 10),
                 r"went negative.*at t = 1.72, before 4 h\^alpha = 2, the lattice kernel is under-resolved",
                 id="-2e-06-scales0-went negative"),
    pytest.param(0.0, 3, [1.0, 0.9, 0.8, 0.7, 0.6, 0.65, 0.5, 0.4, 0.3, 0.2], "not monotone",
                 id="0.0-scales1-not monotone"),
    pytest.param(-2e-6, 5, np.geomspace(1.0, 0.1, 10), "went negative.*the run overtook its reference",
                 id="-2e-06-scales2-overtook"),
])
def test_l2_stability_rejects_a_negative_or_rising_deficit(monkeypatch, dip, at, scales, phrase):
    cfg = l2_config(0.1)
    times = np.geomspace(0.8, 8.0, 10)  # the fit window (0.8, 8) holds them all
    bump = np.exp(-cfg.build_grid().octant_radius() ** 2)
    deficits = tuple(c * bump for c in scales)
    deficits[at][-1] = dip  # a far-field point, where the bump is 0

    def crafted(config):
        return an.DeficitEvolution(times, deficits, reference_drift=0.0, floor=1e-13)

    monkeypatch.setattr(an, "deficit_evolution", crafted)
    with pytest.raises(RuntimeError, match=phrase):
        l2_stability_check(cfg)


def test_l2_stability_blames_an_unresolved_dip_on_the_kernel():
    # every negative output of this 3-d deficit lies at t <= 1.44, below
    # 4 h^alpha = 4, where the lattice kernel rings (see linear_propagators)
    cfg = config_from_dict({
        "params": {"alpha": 1.0, "d": 3, "p": 1.575},
        "grid": {"n": 64, "L": 32.0},
        "time": {"t_end": 4.0, "output_schedule": list(np.geomspace(0.4, 4.0, 10))},
        "initial": {"kind": "steady_deficit_bump", "b": 0.1},
    })
    with pytest.raises(RuntimeError, match=r"went negative .*; at t = 0.4, before 4 h\^alpha = 4, "
                                           r"the lattice kernel is under-resolved$"):
        l2_stability_check(cfg)


def test_l2_stability_requires_bump_datum():
    tail = rate_config(4096, 512.0, kind="steady_deficit_tail", b=0.01, ell=0.5)
    with pytest.raises(ValueError, match="steady_deficit_bump"):
        l2_stability_check(tail)


def test_deficit_evolution_is_the_difference_of_two_runs():
    cfg = l2_config(0.1)
    grid = cfg.build_grid()
    reference = dataclasses.replace(cfg, initial=dataclasses.replace(cfg.initial, b=0.0))
    outputs = []
    for run_cfg in (cfg, reference):
        octants = []
        evolve(run_cfg, on_output=lambda k, t, octant, out=octants: out.append((t, octant)))
        outputs.append(octants)
    horizon = image_safe_horizon(grid, cfg.params.alpha)
    pairs = [(t, u, ref) for (t, u), (_, ref) in zip(*outputs) if 0.0 < t <= horizon]
    sample = octant_steady_state(grid, cfg.params)

    run = deficit_evolution(cfg)
    assert np.array_equal(run.times, [t for t, _, _ in pairs])
    assert len(run.deficits) == len(pairs)
    for w, (_, u, ref) in zip(run.deficits, pairs):
        assert w.shape == (grid.n // 2 + 1,)
        assert np.array_equal(w, ref - u)
    drift = max(float(np.max(np.abs(ref - sample))) for _, _, ref in pairs)
    assert run.reference_drift == drift / float(np.max(sample))


def test_l2_deficit_series_monotone():
    run = deficit_evolution(l2_config(0.1))
    grid = l2_config(0.1).build_grid()
    values = np.array([norm(grid, w, 2.0) for w in run.deficits])
    assert np.all(np.diff(values) < 0.0)
    assert min(float(w.min()) for w in run.deficits) > -1e-8 * values.max()


# ---------------------------------------------------------------------------
# weighted decay of barrier-class data


def weighted_config(amplitude=0.25):
    return config_from_dict(
        {
            "params": {"alpha": 0.5, "d": 1, "p": 3.0},
            "grid": {"n": 8192, "L": 1024.0},
            "time": {"t_end": 12.0, "output_schedule": list(np.geomspace(2.0, 11.3, 8))},
            "initial": {"kind": "gaussian", "amplitude": amplitude, "width": 1.0},
            "potential": {"kappa": "from-delta", "delta": 0.5},
        }
    )


def test_weighted_decay_rates():
    table = weighted_decay_check(weighted_config())
    assert set(table) == {1.0, 2.0, math.inf}
    # exponent -(d/alpha)(1 - 1/q): 0, -1, -2 for q = 1, 2, inf
    assert abs(table[1.0].exponent) < 0.05
    assert abs(table[2.0].exponent + 1.0) <= 0.2
    assert abs(table[math.inf].exponent + 2.0) <= 0.4
    assert table[2.0].stderr < 0.1
    assert table[math.inf].stderr < 0.2


def test_weighted_decay_rejects_datum_outside_barrier():
    with pytest.raises(ValueError, match="barrier"):
        weighted_decay_check(weighted_config(amplitude=2.0))


def test_weighted_decay_needs_delta():
    cfg = config_from_dict(
        {
            "params": {"alpha": 0.5, "d": 1, "p": 3.0},
            "grid": {"n": 256, "L": 32.0},
            "initial": {"kind": "gaussian", "amplitude": 0.1},
        }
    )
    with pytest.raises(ValueError, match="delta"):
        weighted_decay_check(cfg)


# ---------------------------------------------------------------------------
# envelope maxima


ENV_PARAMS = ModelParams(0.5, 1, 3.0)


def bisect_argmax(params, b, ell, sigma, t):
    """Derivative-sign bisection for the envelope argmax, in log radius."""
    m = params.alpha / (params.p - 1.0)
    s = singular_amplitude(params)
    bt = b * t ** ((sigma - ell) / params.alpha)

    def slope_sign(y):
        return sigma * bt * math.exp(-sigma * y) - m * s * math.exp(-m * y)

    lo, hi = -400.0, 400.0
    assert slope_sign(lo) > 0.0 > slope_sign(hi)
    for _ in range(220):
        mid = 0.5 * (lo + hi)
        if slope_sign(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def golden_max(params, b, ell, sigma, t):
    """Golden-section maximization of the envelope value, in log radius."""
    m = params.alpha / (params.p - 1.0)
    s = singular_amplitude(params)
    bt = b * t ** ((sigma - ell) / params.alpha)
    F = lambda y: s * math.exp(-m * y) - bt * math.exp(-sigma * y)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, c = -400.0, 400.0
    x1, x2 = c - invphi * (c - a), a + invphi * (c - a)
    f1, f2 = F(x1), F(x2)
    for _ in range(200):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (c - a)
            f2 = F(x2)
        else:
            c, x2, f2 = x2, x1, f1
            x1 = c - invphi * (c - a)
            f1 = F(x1)
    return F(0.5 * (a + c))


def test_envelope_matches_numeric_maximization():
    rng = np.random.default_rng(7)
    m = 0.25
    for _ in range(20):
        sigma = rng.uniform(m + 0.05, 0.8)
        ell = rng.uniform(sigma, 1.5)
        b = rng.uniform(0.01, 10.0)
        t = rng.uniform(0.1, 100.0)
        closed = envelope_max(ENV_PARAMS, b, ell, sigma, t)
        assert closed.radius == pytest.approx(
            bisect_argmax(ENV_PARAMS, b, ell, sigma, t), rel=1e-8
        )
        assert closed.value == pytest.approx(golden_max(ENV_PARAMS, b, ell, sigma, t), rel=1e-8)
        assert closed.value > 0.0


def test_envelope_limit_exponent_is_time_free():
    a = envelope_max(ENV_PARAMS, 0.3, 0.6, 0.6, 0.1)
    b = envelope_max(ENV_PARAMS, 0.3, 0.6, 0.6, 250.0)
    assert a == b


def test_envelope_max_grows_for_ell_above_sigma():
    early = envelope_max(ENV_PARAMS, 0.3, 1.0, 0.6, 1.0)
    late = envelope_max(ENV_PARAMS, 0.3, 1.0, 0.6, 10.0)
    assert late.value > early.value
    assert late.radius < early.radius


def test_envelope_domain_errors():
    with pytest.raises(ValueError, match=r"sigma \(p - 1\)"):
        envelope_max(ENV_PARAMS, 0.3, 1.0, 0.2, 1.0)
    with pytest.raises(ValueError, match="ell >= sigma"):
        envelope_max(ENV_PARAMS, 0.3, 0.5, 0.6, 1.0)
    with pytest.raises(ValueError, match="b must be"):
        envelope_max(ENV_PARAMS, 0.0, 1.0, 0.6, 1.0)
    with pytest.raises(ValueError, match="t must be"):
        envelope_max(ENV_PARAMS, 0.3, 1.0, 0.6, 0.0)


# ---------------------------------------------------------------------------
# sweep executor


def test_thread_count_resolution(monkeypatch):
    monkeypatch.delenv("FRACLAB_THREADS", raising=False)
    assert thread_count() == len(os.sched_getaffinity(0))
    assert thread_count(4) == 4
    monkeypatch.setenv("FRACLAB_THREADS", "3")
    assert thread_count() == 3
    assert thread_count(2) == 2
    with pytest.raises(ValueError, match="positive"):
        thread_count(0)


def test_thread_count_names_a_malformed_environment_value(monkeypatch):
    monkeypatch.setenv("FRACLAB_THREADS", "abc")
    with pytest.raises(ValueError, match="FRACLAB_THREADS must be a positive integer, got 'abc'"):
        thread_count()


def test_run_sweep_deterministic_across_workers(monkeypatch):
    configs = [classify_config(initial={"kind": "gaussian", "scale": s}) for s in (0.4, 2.5)]
    monkeypatch.setenv("FRACLAB_THREADS", "1")
    serial = run_sweep(configs)
    monkeypatch.setenv("FRACLAB_THREADS", "2")
    threaded = run_sweep(configs)
    for a, b in zip(serial, threaded):
        assert type(a.status) is type(b.status)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.sup_norm, b.sup_norm)
