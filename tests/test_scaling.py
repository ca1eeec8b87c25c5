"""Scaling covariance: u_mu(x, t) = mu^{alpha/(p-1)} u(mu x, mu^alpha t).

The equation is invariant under this map, and so is the discrete scheme
once the box, the datum, dt_max, t_end, the output times and the sup
threshold are scaled with it: the dt rule gives dt ~ mu^{-alpha}, t |k|^alpha
is unchanged, the closed-form reaction commutes with the map, and every
singular factor floors at h/2 of the grid, which scales with h.  One run
and its scaled twin must then agree to rounding.
"""

import math

import numpy as np
import pytest

from fraclab.analysis import classify_threshold
from fraclab.config import InitialSpec, config_from_dict
from fraclab.constants import ModelParams, power_map_coeff_max
from fraclab.field import Field, Grid
from fraclab.linear_propagators import HardyOperatorSpec, hardy_evolve
from fraclab.nonlinear_solver import Blowup, Global, evolve

MUS = [2.0, 0.5]


def _doc(d, n, L, alpha, p, initial, t_end, times, threshold=1e8):
    return {
        "params": {"alpha": alpha, "d": d, "p": p},
        "grid": {"n": n, "L": L},
        "time": {"t_end": t_end, "dt_max": 0.1, "blowup_sup_threshold": threshold,
                 "output_schedule": times},
        "initial": initial,
    }


# (datum, verdict); a Blowup run ends on the pole, on the sup threshold, or
# on dt underflow, whose bound DT_UNDERFLOW of the first step scales with it
RUNS = {
    "1d-gaussian-global": (_doc(1, 256, 32.0, 0.5, 3.0,
                                {"kind": "gaussian", "amplitude": 0.8, "width": 1.0},
                                8.0, [0.5, 1.0, 2.0, 4.0, 8.0]), Global),
    "1d-gaussian-blowup": (_doc(1, 256, 32.0, 0.5, 3.0,
                                {"kind": "gaussian", "amplitude": 1.5, "width": 1.0},
                                8.0, [0.05, 0.1, 0.2, 8.0], threshold=1e4), Blowup),
    "2d-singular-global": (_doc(2, 64, 16.0, 1.0, 2.5,
                                {"kind": "truncated_singular", "delta": 0.9},
                                4.0, [0.25, 0.5, 1.0, 2.0, 4.0]), Global),
    "3d-gaussian-global": (_doc(3, 32, 8.0, 1.5, 2.0,
                                {"kind": "gaussian", "amplitude": 0.5, "width": 1.0},
                                2.0, [0.25, 0.5, 1.0, 2.0]), Global),
    "3d-power-tail-blowup": (_doc(3, 32, 8.0, 1.5, 2.5,
                                  {"kind": "power_tail", "amplitude": 1.0, "gamma0": 0.5,
                                   "delta": 0.9, "scale": 3.0},
                                  2.0, [0.01, 0.02, 0.04, 2.0], threshold=1e4), Blowup),
    # the threshold 1e10 is not reached: this run ends by dt underflow
    "3d-power-tail-underflow": (_doc(3, 32, 8.0, 1.5, 2.5,
                                     {"kind": "power_tail", "amplitude": 1.0, "gamma0": 0.5,
                                      "delta": 0.9, "scale": 3.0},
                                     2.0, [0.01, 0.02, 0.04, 2.0], threshold=1e10), Blowup),
}


def _scaled(doc, mu):
    """The document of u_mu, with its amplitude and time factors."""
    alpha, p = doc["params"]["alpha"], doc["params"]["p"]
    amp, tim = mu ** (alpha / (p - 1.0)), mu ** (-alpha)
    initial = dict(doc["initial"])
    if "width" in initial:
        initial["width"] /= mu
    if initial["kind"] == "gaussian":
        initial["amplitude"] *= amp
    elif initial["kind"] == "power_tail":  # A |x|^{-gamma0}
        initial["amplitude"] *= amp * mu ** (-initial["gamma0"])
    time = dict(doc["time"])
    for key in ("t_end", "dt_max"):
        time[key] *= tim
    time["output_schedule"] = [t * tim for t in time["output_schedule"]]
    time["blowup_sup_threshold"] *= amp
    grid = {"n": doc["grid"]["n"], "L": doc["grid"]["L"] / mu}
    return {**doc, "grid": grid, "time": time, "initial": initial}, amp, tim


@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_evolve_is_covariant_under_the_critical_scaling(name, mu):
    doc, verdict = RUNS[name]
    d = doc["params"]["d"]
    base = evolve(config_from_dict(doc))
    twin_doc, amp, tim = _scaled(doc, mu)
    twin = evolve(config_from_dict(twin_doc))
    assert type(base.status) is type(twin.status) is verdict
    assert len(base.times) == len(twin.times) > 1
    for column, factor in [("times", tim), ("sup_norm", amp), ("l2_norm", amp * mu ** (-d / 2)),
                           ("mass", amp * mu ** (-d))]:
        want = factor * getattr(base, column)
        np.testing.assert_allclose(getattr(twin, column), want, rtol=1e-13, atol=0.0,
                                   err_msg=column)
    # the landing step is a difference of times, and the pre-clip minimum is
    # ringing at the level of rounding in the sup: each is held to that scale
    for column, scale, factor in [("dt", "times", tim), ("min_value", "sup_norm", amp)]:
        error = np.abs(getattr(twin, column) - factor * getattr(base, column))
        assert np.all(error <= 1e-13 * factor * getattr(base, scale)), column
    if verdict is Blowup:
        assert twin.status.t_star == pytest.approx(tim * base.status.t_star, rel=1e-10, abs=0.0)


def test_underflow_run_ends_by_dt_underflow(monkeypatch):
    # without the underflow rule the run goes on to the sup threshold
    doc = RUNS["3d-power-tail-underflow"][0]
    base = evolve(config_from_dict(doc))
    monkeypatch.setattr("fraclab.nonlinear_solver.DT_UNDERFLOW", 0.0)
    assert base.status.t_star < evolve(config_from_dict(doc)).status.t_star


# (datum, lambda_lo, lambda_hi): classify scales the datum by lambda, so the
# twins' brackets are the same amplitudes, and the Morrey norm at the
# critical index s = d (p - 1)/alpha is invariant under the map
CLASSIFY_RUNS = {
    "1d-gaussian": (_doc(1, 256, 32.0, 0.5, 3.0, {"kind": "gaussian", "amplitude": 1.0, "width": 1.0},
                         100.0, [10.0, 100.0]), 0.5, 3.0),
    "3d-power-tail": (_doc(3, 32, 8.0, 1.5, 2.5,
                           {"kind": "power_tail", "amplitude": 1.0, "gamma0": 0.5, "delta": 0.9},
                           2.0, [0.5, 2.0]), 0.5, 5.0),
}


@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("name", sorted(CLASSIFY_RUNS))
def test_classify_bracket_is_covariant_under_the_critical_scaling(name, mu):
    doc, lo, hi = CLASSIFY_RUNS[name]
    base = classify_threshold(config_from_dict(doc), lo, hi, tol=0.05, reverify=False)
    twin = classify_threshold(config_from_dict(_scaled(doc, mu)[0]), lo, hi, tol=0.05,
                              reverify=False)
    assert (twin.lambda_global, twin.lambda_blowup) == (base.lambda_global, base.lambda_blowup)
    for column in ("morrey_global", "morrey_blowup"):
        assert getattr(twin, column) == pytest.approx(getattr(base, column), rel=1e-13, abs=0.0)


# (d, n, L, alpha, kappa as a fraction of the critical coupling, even datum)
HARDY_RUNS = [
    (1, 256, 16.0, 0.5, 0.5, True),
    (2, 64, 8.0, 1.0, 0.8, True),
    (3, 32, 8.0, 1.5, 0.9, True),
    (1, 128, 8.0, 0.5, 0.9, False),
]


def _hardy_datum(grid: Grid, width: float, even: bool) -> Field:
    if even:
        return InitialSpec("gaussian", width=width).build(grid, ModelParams(1.0, grid.d, 3.0))
    return Field(grid, np.exp(-((grid.axis() - width) / width) ** 2))  # runs on the lattice


@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("d, n, L, alpha, fraction, even", HARDY_RUNS)
def test_hardy_norms_are_covariant_under_the_critical_scaling(d, n, L, alpha, fraction, even, mu):
    # w_mu(x, t) = w(mu x, mu^alpha t) solves the flow on the box L/mu with the
    # same kappa, because the potential's floor is h/2 of each grid
    spec = HardyOperatorSpec(alpha, d, fraction * power_map_coeff_max(d, alpha))
    times = np.array([0.25, 0.5, 1.0, 2.0])
    base = hardy_evolve(_hardy_datum(Grid(d, n, L), 1.0, even), spec, times, 8)
    twin = hardy_evolve(_hardy_datum(Grid(d, n, L / mu), 1.0 / mu, even), spec,
                        times * mu ** (-alpha), 8)
    assert base.sigma > 0.0
    for q, name in [(1.0, "q1"), (2.0, "q2"), (math.inf, "qinf")]:
        for kind in ("plain", "weighted"):
            column = f"{kind}_{name}"
            want = mu ** (-d / q) * getattr(base, column)
            np.testing.assert_allclose(getattr(twin, column), want, rtol=1e-13, atol=0.0,
                                       err_msg=column)
