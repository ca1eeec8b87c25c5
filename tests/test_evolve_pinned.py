"""evolve in d = 2 and d = 3 against records of the full-lattice solver.

The references were recorded with the solver that stepped every lattice
point through rfftn/irfftn, before evolve moved to the mirror octant and
the DCT-I.  The octant changes rounding only, so status kinds must agree
exactly and rows, t_star and monitor maxima to rtol 1e-10.  n = 32 keeps
each run well under a second; L = 7.3 is not dyadic, so its spacing h is
inexact, yet its lattice is mirror-symmetric bit for bit.
"""

import numpy as np
import pytest

from fraclab.config import config_from_dict
from fraclab.nonlinear_solver import BarrierMonitor, SandwichMonitor, evolve

RTOL = 1e-10

CASES = {
    "global_3d": {
        "params": {"alpha": 1.0, "d": 3, "p": 2.0},
        "grid": {"n": 32, "L": 7.3},
        "time": {"t_end": 2.0, "output_schedule": [0.5, 1.0, 2.0]},
        "initial": {"kind": "gaussian", "amplitude": 0.3},
    },
    "blowup_2d": {
        "params": {"alpha": 1.5, "d": 2, "p": 2.0},
        "grid": {"n": 32, "L": 8.0},
        "time": {"t_end": 4.0, "output_schedule": [0.25, 0.5, 1.0, 4.0]},
        "initial": {"kind": "gaussian", "amplitude": 3.0},
    },
    # diffusion ringing below zero that the clip removes
    "ringing_3d": {
        "params": {"alpha": 1.0, "d": 3, "p": 1.7},
        "grid": {"n": 32, "L": 16.0},
        "time": {"t_end": 4.0, "output_schedule": [0.5, 1.0, 2.0, 4.0]},
        "initial": {"kind": "gaussian", "amplitude": 0.1},
    },
    "barrier_2d": {
        "params": {"alpha": 1.0, "d": 2, "p": 3.0},
        "grid": {"n": 32, "L": 8.0},
        "time": {"t_end": 1.0, "output_schedule": [0.25, 0.5, 1.0]},
        "initial": {"kind": "gaussian", "amplitude": 0.8, "width": 2.0},
    },
    "sandwich_2d": {
        "params": {"alpha": 1.0, "d": 2, "p": 3.0},
        "grid": {"n": 32, "L": 8.0},
        "time": {"t_end": 1.0, "output_schedule": [0.25, 0.5, 1.0]},
        "initial": {"kind": "truncated_singular", "delta": 0.9},
    },
}

# (status, rows t/sup/l2/mass/min_value/dt, monitor maxima)
REFERENCE = {
    "global_3d": (
        {"kind": "Global", "horizon": 2.0},
        [
            [0.0, 0.3, 0.42093124372421065, 1.6704983990495124, 1.112916119649711e-70, 0.0],
            [0.5, 0.11675092992700271, 0.220202818670579, 1.7228896665284446, 4.559454693944083e-05, 0.16666666666666663],
            [1.0, 0.05096026850797079, 0.13134543637110624, 1.7394841939006607, 9.137518872037499e-05, 0.5],
            [2.0, 0.013845917562634875, 0.06424664956991999, 1.750277741943066, 0.0001797614742357648, 1.0],
        ],
        {},
    ),
    "blowup_2d": (
        {"kind": "Blowup", "t_star": 0.8853466408348158},
        [
            [0.0, 3.0, 3.759942432064358, 9.42477796076938, 7.716628117927025e-56, 0.0],
            [0.25, 3.397567275636324, 4.4123662230551, 13.527924434542179, 0.0005129810606647218, 0.026249436158693046],
            [0.5, 4.478794220384912, 5.861110611541412, 19.902468495074487, 0.0012775062062341516, 0.010362718701709961],
        ],
        {},
    ),
    "ringing_3d": (
        {"kind": "Global", "horizon": 4.0},
        [
            [0.0, 0.1, 0.1433485640883053, 0.5570056245595388, 0.0, 0.0],
            [0.5, 0.03902863861963044, 0.0737414878042182, 0.5751245506774089, -6.702650060534626e-06, 0.5],
            [1.0, 0.01714680487776714, 0.043746497605783405, 0.5820920706014961, 1.318815985525075e-06, 0.5],
            [2.0, 0.004651885260012734, 0.020574065789536206, 0.5880372624713355, 2.650935139327228e-06, 1.0],
            [4.0, 0.0008262772193339874, 0.008345141279272874, 0.5914255283828997, 5.240992863770716e-06, 1.0],
        ],
        {},
    ),
    "barrier_2d": (
        {"kind": "Global", "horizon": 1.0},
        [
            [0.0, 0.8, 2.005302619704795, 10.053096081105952, 1.0131332439275269e-14, 0.0],
            [0.25, 0.7415687923768477, 1.856447661388611, 10.526392876790727, 0.0017431170079867445, 0.005044692564478093],
            [0.5, 0.6678294792806031, 1.7099666097705335, 10.883969398767784, 0.003547366178185629, 0.06156620608989988],
            [1.0, 0.5097048996492787, 1.442211985461393, 11.337955431964637, 0.007248857311882833, 0.1200977017287953],
        ],
        {"barrier_violation": 0.30346282116624124},
    ),
    "sandwich_2d": (
        {"kind": "Global", "horizon": 1.0},
        [
            [0.0, 0.8603798354750255, 3.2031980165654406, 48.583285043833456, 0.12789622774397136, 0.0],
            [0.25, 0.679862851196828, 3.2164452238188797, 49.21615495537877, 0.13508334568572886, 0.01490250412844707],
            [0.5, 0.5680898360753296, 3.233623718154454, 49.83137732428307, 0.1410960488909393, 0.013816531628521478],
            [1.0, 0.44783980087944736, 3.277271100261034, 51.04428008457414, 0.15155989662963618, 0.1604008569921237],
        ],
        {"sandwich_violation_lower": 0.0, "sandwich_violation_upper": 0.05496989892359025},
    ),
}


def _run(name):
    cfg = config_from_dict(CASES[name])
    grid = cfg.build_grid()
    if name == "barrier_2d":
        return evolve(cfg, monitors=(BarrierMonitor(grid, cfg.params, r_max=4.0),))
    if name == "sandwich_2d":
        return evolve(cfg, monitors=(SandwichMonitor(grid, cfg.params, r_min=1.0, r_max=4.0),))
    return evolve(cfg)


@pytest.mark.parametrize("name", sorted(CASES))
def test_evolve_matches_the_full_lattice_record(name):
    status, rows, maxima = REFERENCE[name]
    rec = _run(name)
    got = rec.status_dict()
    assert got["kind"] == status["kind"]
    for key in set(status) - {"kind"}:
        assert got[key] == pytest.approx(status[key], rel=RTOL, abs=0.0), key
    np.testing.assert_allclose(np.array(rec.rows()), np.array(rows), rtol=RTOL, atol=0.0)
    assert rec.monitor_maxima.keys() == maxima.keys()
    for key, value in maxima.items():
        assert rec.monitor_maxima[key] == pytest.approx(value, rel=RTOL, abs=0.0), key

