"""The octant data path of evolve.

Radial data, the steady profile, the weight and the Hardy potential each
have one formula, evaluated on the octant (see fold); their lattice arrays
are its unfold, so each lattice array must be even bit for bit and fold
back to the octant array.  evolve builds no full-lattice array: the
octants it hands out are read-only copies and never written again, the
per-grid cache holds only octant arrays after a run, the run's peak
memory grows by less than four lattice arrays, and snapshots streamed
from the octant peak a lattice array below an unfolding writer.
The Hardy runs (of an even datum or not), the kernel-ratio probe and the
radial analysis checks cache only octant arrays too.
"""

import json
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclab.config import InitialSpec, config_from_dict
from fraclab.constants import ModelParams, critical_exponents, power_map_coeff_max
from fraclab.field import (
    _GRID_CACHE,
    Field,
    Grid,
    SnapshotMeta,
    WeightSpec,
    _hypot,
    clear_grid_cache,
    fold,
    octant_steady_state,
    steady_state,
    unfold,
    weight_values,
    write_octant_snapshot,
    write_snapshot,
)
from fraclab.analysis import deficit_evolution, singular_convergence_rates, weighted_decay_check
from fraclab.cli import main
from fraclab.linear_propagators import (
    HardyOperatorSpec,
    hardy_evolve,
    hardy_step,
    hypercontractivity_measure,
    kernel_ratio_probe,
)
from fraclab.nonlinear_solver import BarrierMonitor, SandwichMonitor, evolve

PROPERTY = settings(max_examples=25, deadline=None)

dims = st.sampled_from([1, 2, 3])
lengths = st.sampled_from([4.0, 7.3])  # dyadic, and one whose spacing h is inexact
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
    radius = _hypot([grid.axis()] * d)
    assert _same_bits(grid.octant_radius(), fold(radius))
    assert _same_bits(grid.octant_capped_radius(), fold(np.maximum(radius, 0.5 * grid.h)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sampled_radial_data_are_even_bit_for_bit(d):
    # at L = 7.3 the spacing h is inexact, yet x_j and x_{n-j} still mirror
    grid = _grid(d, 7.3)
    params = ModelParams(alpha=0.5, d=d, p=critical_exponents(d, 0.5)[1] + 1.0)
    arrays = [spec.build(grid, params).values for spec in _specs(1.7)]
    arrays += [
        InitialSpec("gaussian", amplitude=0.7, width=1.3).build(grid, params).values,
        steady_state(grid, params).values,
        weight_values(grid, WeightSpec(sigma=0.3, t=0.5, alpha=0.5)),
    ]
    for values in arrays:
        assert _same_bits(unfold(fold(values)), values)


@PROPERTY
@given(d=dims, L=lengths, alpha=st.floats(0.2, 2.0), kappa=st.floats(0.0, 3.0))
def test_octant_potential_is_the_fold_of_the_lattice_potential(d, L, alpha, kappa):
    grid = _grid(d, L)
    potential = HardyOperatorSpec(alpha, d, kappa).octant_potential(grid)
    assert _same_bits(potential, kappa * grid.octant_capped_radius() ** (-alpha))
    lattice = kappa * np.maximum(_hypot([grid.axis()] * d), 0.5 * grid.h) ** (-alpha)
    assert _same_bits(potential, fold(lattice))


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

    def keep(k, t, octant):
        assert not octant.flags.writeable
        held.append(octant)
        copies.append(octant.copy())

    rec = evolve(_config(d, L, n=32), on_output=keep)
    assert len(held) == len(rec.times) == 4
    for octant, copy in zip(held, copies):
        assert np.array_equal(octant, copy)
    for a, b in zip(held, held[1:]):
        assert not np.shares_memory(a, b)


def test_handed_out_octants_keep_their_rows_after_the_run():
    # the next step's half-reaction writes the state in place, so a view
    # handed out by mistake would no longer hold its row's sup at the end
    held = []
    rec = evolve(_config(3, 8.0, n=32), on_output=lambda k, t, octant: held.append(octant))
    assert len(held) == len(rec.times) == 4
    assert len(set(rec.sup_norm)) == 4
    for k, octant in enumerate(held):
        assert not octant.flags.writeable
        with pytest.raises(ValueError):
            octant[...] = 0.0
        assert np.max(octant).tobytes() == rec.sup_norm[k].tobytes()


def test_streamed_snapshots_peak_a_lattice_array_below_an_unfolding_hook(tmp_path):
    config = _config(3, 8.0, n=64)
    grid = config.build_grid()
    meta = SnapshotMeta(alpha=1.0, p=2.0, t=0.0)

    def streamed(k, t, octant):
        write_octant_snapshot(grid, octant, tmp_path / "streamed.frdf", meta)

    def unfolded(k, t, octant):
        write_snapshot(Field._adopt(grid, unfold(octant)), tmp_path / "unfolded.frdf", meta)

    evolve(config, on_output=streamed)  # imports and first-call caches
    peaks = {}
    for hook in (streamed, unfolded):
        tracemalloc.start()
        try:
            evolve(config, on_output=hook)
            peaks[hook.__name__] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    lattice_bytes = 8 * grid.n ** 3
    assert peaks["unfolded"] - peaks["streamed"] >= 0.9 * lattice_bytes, peaks


def test_public_field_constructor_copies():
    grid = Grid(2, 16, 4.0)
    a = np.ones(grid.shape)
    f = Field(grid, a)
    a[...] = 5.0
    assert a.flags.writeable
    assert np.all(f.values == 1.0) and not f.values.flags.writeable


def _assert_cache_holds_octants(grid: Grid):
    shapes = {name: value.shape for slot in _GRID_CACHE.values() for name, value in slot.items()
              if isinstance(value, np.ndarray)}
    assert shapes and set(shapes.values()) == {(grid.n // 2 + 1,) * grid.d}, shapes


def test_evolve_caches_no_lattice_array():
    cfg = _config(3, 7.3)
    grid = cfg.build_grid()
    clear_grid_cache()
    monitors = (BarrierMonitor(grid, cfg.params), SandwichMonitor(grid, cfg.params, r_min=grid.h))
    evolve(cfg, monitors=monitors)
    _assert_cache_holds_octants(grid)


# alpha, p and the tail exponent ell of a stable steady deficit in each dimension
_DEFICIT = {1: (0.5, 2.1, 0.5), 2: (1.0, 2.1, 1.0), 3: (1.0, 1.575, 1.5)}


def _analysis_config(d: int, initial: dict, schedule, **sections):
    alpha, p, _ = _DEFICIT[d]
    return config_from_dict({
        "params": {"alpha": alpha, "d": d, "p": p},
        "grid": {"n": {1: 64, 2: 32, 3: 16}[d], "L": 8.0},  # image-safe horizon 1
        "time": {"t_end": 1.0, "output_schedule": schedule},
        "initial": initial,
        **sections,
    })


@pytest.mark.parametrize("d", [1, 2, 3])
def test_even_hardy_runs_cache_no_lattice_array(d):
    grid = Grid(d, 32 if d < 3 else 16, 4.0)
    spec = HardyOperatorSpec(alpha=0.5, d=d, kappa=0.5 * power_map_coeff_max(d, 0.5))
    times = [0.1, 0.2, 0.4]
    even = InitialSpec("gaussian").build_octant(grid, ModelParams(alpha=0.5, d=d, p=3.0))
    off = unfold(even)
    off[(1,) * d] += 0.5  # not even: runs on the lattice
    for w0, lattice in ((even, unfold(even)), (off, off)):  # the octant layout, and the lattice one
        runs = (
            lambda: hardy_evolve(grid, w0, spec, times, 2),
            lambda: hypercontractivity_measure(grid, w0, spec, [(2.0, 1.0)], times, 2),
            lambda: hardy_step(Field(grid, lattice), 0.1, spec),
        )
        for run in runs:
            clear_grid_cache()
            run()
            _assert_cache_holds_octants(grid)
    clear_grid_cache()
    kernel_ratio_probe(grid, spec, (0.5,) * d, times, substeps_per_interval=2)
    _assert_cache_holds_octants(grid)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_even_hypercontractivity_builds_no_field(d, monkeypatch):
    # its fits read norms only, so no octant is ever unfolded into a
    # lattice Field
    grid = Grid(d, 32 if d < 3 else 16, 4.0)
    spec = HardyOperatorSpec(alpha=0.5, d=d, kappa=0.5 * power_map_coeff_max(d, 0.5))
    w0 = InitialSpec("gaussian").build_octant(grid, ModelParams(alpha=0.5, d=d, p=3.0))

    def adopt(cls, grid, values):
        raise AssertionError("a Field was built")

    monkeypatch.setattr(Field, "_adopt", classmethod(adopt))
    (result,) = hypercontractivity_measure(grid, w0, spec, [(2.0, 1.0)], [0.1, 0.2, 0.4], 2)
    assert np.all(np.isfinite(result.norms))


def test_linear_evolve_steps_the_config_octant(tmp_path, monkeypatch):
    # the command hands hardy_evolve the document's octant: with unfold (in
    # field and in every module that imports it by name), Field._adopt and
    # Field.__post_init__ refusing, a 64^3 run still writes its rows
    def refuse(*args, **kwargs):
        raise AssertionError("a lattice array or Field was built")

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "fraclab" and getattr(module, "unfold", None) is unfold:
            monkeypatch.setattr(module, "unfold", refuse)
    monkeypatch.setattr(Field, "_adopt", classmethod(refuse))
    monkeypatch.setattr(Field, "__post_init__", refuse)
    cfg, csv = tmp_path / "linear.json", tmp_path / "linear.csv"
    cfg.write_text(json.dumps({
        "params": {"alpha": 1.0, "d": 3, "p": 2.0},
        "grid": {"n": 64, "L": 8.0},
        "time": {"t_end": 1.0, "output_schedule": [0.25, 0.5, 1.0]},
        "initial": {"kind": "truncated_singular", "delta": 0.9},
        "potential": {"kappa": "from-delta"},
    }))
    assert main(["linear-evolve", "--config", str(cfg), "--csv", str(csv)]) == 0
    rows = [line for line in csv.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + 3


@pytest.mark.parametrize("d", [1, 2, 3])
def test_radial_analysis_caches_no_lattice_array(d):
    tail = _analysis_config(d, {"kind": "steady_deficit_tail", "b": 0.0, "ell": _DEFICIT[d][2]},
                            [0.5, 0.75, 1.0])
    decay = _analysis_config(d, {"kind": "gaussian", "amplitude": 0.02, "width": 1.0},
                             [0.2, 0.3, 0.45, 0.7, 1.0],
                             potential={"kappa": "from-delta", "delta": 0.5})
    # singular_convergence_rates runs deficit_evolution, then masks its deficits
    for run, cfg in ((deficit_evolution, tail), (singular_convergence_rates, tail),
                     (weighted_decay_check, decay)):
        clear_grid_cache()
        run(cfg)
        _assert_cache_holds_octants(cfg.build_grid())


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

    evolve(config(16), on_output=lambda k, t, octant: None)  # imports and first-call caches
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sups = []
    evolve(config(64), on_output=lambda k, t, octant: sups.append(float(octant.max())))
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
