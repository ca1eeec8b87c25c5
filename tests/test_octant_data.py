"""The octant data path of evolve.

Radial data, the steady profile and the Hardy potential are evaluated on
the octant (see fold) by the same formulas as on the full lattice, so the
two must agree bit for bit.  evolve builds no full-lattice array before its
first output and one per output: Fields it hands out are read-only and
never written again, the per-grid cache holds only octant arrays after a
run, and the run's peak memory grows by less than four lattice arrays.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclab.config import InitialSpec, config_from_dict
from fraclab.constants import ModelParams, critical_exponents
from fraclab.field import (
    _GRID_CACHE,
    Field,
    Grid,
    clear_grid_cache,
    fold,
    octant_steady_state,
    steady_state,
)
from fraclab.linear_propagators import HardyOperatorSpec
from fraclab.nonlinear_solver import BarrierMonitor, SandwichMonitor, evolve

PROPERTY = settings(max_examples=25, deadline=None)

dims = st.sampled_from([1, 2, 3])
lengths = st.sampled_from([4.0, 7.3])  # dyadic, and one whose lattice is even only to rounding
scales = st.floats(0.3, 3.0).filter(lambda s: s != 1.0)


def _grid(d: int, L: float) -> Grid:
    return Grid(d, {1: 64, 2: 32, 3: 16}[d], L)


@st.composite
def singular_params(draw, d):
    """alpha and p in the singular regime of dimension d."""
    alpha = draw(st.floats(0.2, 0.9))
    p = critical_exponents(d, alpha)[1] + draw(st.floats(0.1, 2.0))
    return ModelParams(alpha=alpha, d=d, p=p)


def _specs(scale: float):
    return (
        InitialSpec("gaussian", amplitude=0.7, width=1.3, scale=scale),
        InitialSpec("truncated_singular", delta=0.6, scale=scale),
        InitialSpec("power_tail", amplitude=0.8, gamma0=0.3, delta=0.7, scale=scale),
        InitialSpec("steady_deficit_tail", b=0.2, ell=0.6, scale=scale),
        InitialSpec("steady_deficit_bump", b=0.3, width=1.2, scale=scale),
        InitialSpec("zero"),
    )


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@PROPERTY
@given(d=dims, L=lengths, scale=scales, data=st.data())
def test_octant_data_are_the_fold_of_the_lattice_data(d, L, scale, data):
    grid = _grid(d, L)
    params = data.draw(singular_params(d))
    for spec in _specs(scale):
        octant = spec.build_octant(grid, params)
        assert octant.flags.writeable  # evolve steps it in place
        assert _same_bits(octant, fold(spec.build(grid, params).values)), spec.kind
    assert _same_bits(octant_steady_state(grid, params), fold(steady_state(grid, params).values))
    assert _same_bits(grid.octant_radius(), fold(grid.radius()))
    assert _same_bits(grid.octant_capped_radius(), fold(grid.capped_radius()))


@PROPERTY
@given(d=dims, L=lengths, alpha=st.floats(0.2, 2.0), kappa=st.floats(0.0, 3.0),
       cap=st.one_of(st.none(), st.floats(0.01, 1.0)))
def test_octant_potential_is_the_fold_of_the_lattice_potential(d, L, alpha, kappa, cap):
    grid = _grid(d, L)
    spec = HardyOperatorSpec(alpha, d, kappa, potential_cap_radius=cap)
    assert _same_bits(spec.octant_potential(grid), fold(spec.potential(grid)))


def _config(d: int, L: float, n: int = 16):
    alpha, p = {1: (0.5, 3.0), 2: (1.0, 3.0), 3: (1.0, 2.0)}[d]
    return config_from_dict({
        "params": {"alpha": alpha, "d": d, "p": p},
        "grid": {"n": n, "L": L},
        "time": {"t_end": 1.0, "output_schedule": [0.25, 0.5, 1.0]},
        "initial": {"kind": "truncated_singular", "delta": 0.9},
    })


@PROPERTY
@given(d=dims, L=lengths)
def test_output_fields_are_read_only_and_never_written_again(d, L):
    held, copies = [], []

    def keep(k, t, field):
        assert not field.values.flags.writeable
        held.append(field)
        copies.append(field.values.copy())

    rec = evolve(_config(d, L, n=32), on_output=keep)
    assert len(held) == len(rec.times) == 4
    for field, copy in zip(held, copies):
        assert np.array_equal(field.values, copy)
    for a, b in zip(held, held[1:]):
        assert not np.shares_memory(a.values, b.values)


def test_public_field_constructor_copies():
    grid = Grid(2, 16, 4.0)
    a = np.ones(grid.shape)
    f = Field(grid, a)
    a[...] = 5.0
    assert a.flags.writeable
    assert np.all(f.values == 1.0) and not f.values.flags.writeable


def test_evolve_caches_no_lattice_array():
    cfg = _config(3, 7.3)
    grid = cfg.build_grid()
    clear_grid_cache()
    monitors = (BarrierMonitor(grid, cfg.params), SandwichMonitor(grid, cfg.params, r_min=grid.h))
    evolve(cfg, monitors=monitors)
    sizes = {name: value.size for slot in _GRID_CACHE.values() for name, value in slot.items()
             if isinstance(value, np.ndarray)}
    assert sizes and max(sizes.values()) < grid.n ** grid.d, sizes


_PEAK_SCRIPT = textwrap.dedent("""
    import json, resource, sys
    from fraclab.config import config_from_dict
    from fraclab.nonlinear_solver import evolve

    def config(n):
        return config_from_dict({
            "params": {"alpha": 1.0, "d": 3, "p": 2.0},
            "grid": {"n": n, "L": 8.0},
            "time": {"t_end": 1.0, "output_schedule": [0.25, 0.5, 1.0]},
            "initial": {"kind": "truncated_singular", "delta": 0.9},
        })

    evolve(config(16), on_output=lambda k, t, f: None)  # imports and first-call caches
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sups = []
    evolve(config(64), on_output=lambda k, t, f: sups.append(f.sup()))
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({"grown_kib": after - before, "outputs": len(sups)}, sys.stdout)
""")


def test_evolve_peak_memory_grows_by_less_than_four_lattice_arrays():
    out = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    result = json.loads(out.stdout)
    lattice_array_kib = 8 * 64 ** 3 / 1024  # ru_maxrss is in KiB on Linux
    assert result["outputs"] == 4
    assert result["grown_kib"] < 4 * lattice_array_kib, result["grown_kib"] / lattice_array_kib
