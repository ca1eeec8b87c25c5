import importlib
import inspect
import json
import math
import os
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import fraclab
import fraclab.cli as cli
import fraclab.morrey as morrey
from fraclab.cli import main
from fraclab.constants import solve_sigma
from fraclab.field import (GEMM_MAX, Field, Grid, SnapshotMeta, fold, open_snapshot, read_snapshot,
                           unfold, write_snapshot)
from fraclab.linear_propagators import HardyOperatorSpec, hardy_evolve
from fraclab.nonlinear_solver import NumericalFailure, RunRecord, evolve


def _strict_json(text: str):
    """json.loads that rejects NaN and Infinity, which are not JSON."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def run_config(tmp_path, **overrides):
    doc = {
        "params": {"alpha": 0.5, "d": 1, "p": 3.0},
        "grid": {"n": 256, "L": 32.0},
        "time": {"t_end": 2.0, "output_schedule": [0.5, 1.0, 2.0]},
        "initial": {"kind": "gaussian", "amplitude": 0.1},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# exit codes and usage


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage:" in capsys.readouterr().err


def test_no_arguments_is_usage_error():
    assert main([]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "constants" in capsys.readouterr().out


@pytest.mark.parametrize("command, options", [
    ("constants", {"--alpha", "--d", "--p", "--json"}),
    ("sigma", {"--alpha", "--d", "--kappa", "--p", "--delta", "--json"}),
    ("steady-check", {"--alpha", "--d", "--p", "--r-min", "--r-max", "--n"}),
    ("evolve", {"--config", "--csv", "--snapshot-every", "--snapshot-dir"}),
    ("linear-evolve", {"--config", "--csv"}),
    ("morrey", {"--snapshot", "--s", "--q", "--json"}),
    ("classify", {"--config", "--lambda-min", "--lambda-max", "--tol", "--state", "--threads"}),
    ("fit", {"--csv", "--column", "--t-min", "--t-max"}),
])
def test_each_subcommand_has_exactly_its_options(command, options):
    # a new flag is a new settable value: it must be added here on purpose,
    # and a number a run computes belongs in the config document instead
    (commands,) = (a for a in cli.build_parser()._actions if a.dest == "command")
    assert set(commands.choices) == {"constants", "sigma", "steady-check", "evolve",
                                     "linear-evolve", "morrey", "classify", "fit"}
    actions = commands.choices[command]._actions
    assert {s for a in actions if a.dest != "help" for s in a.option_strings} == options


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["constants", "--alpha", "0.5"]) == 1


def test_invalid_config_document_is_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["evolve", "--config", str(bad)]) == 2
    bad.write_text(json.dumps({"params": {"alpha": 2.5, "d": 1, "p": 3.0},
                               "initial": {"kind": "gaussian"}}))
    assert main(["evolve", "--config", str(bad)]) == 2
    assert "(0, 2)" in capsys.readouterr().err
    bad.write_text("[]")
    assert main(["evolve", "--config", str(bad)]) == 2
    assert "top level must be a JSON object" in capsys.readouterr().err
    for section, words in ((dict(time={"output_schedule": 5}), "must be 'dyadic' or a number list"),
                           (dict(potential={"kappa": "from-q"}), "must be a number, 'from-p'")):
        assert main(["evolve", "--config", str(run_config(tmp_path, **section))]) == 2
        assert words in capsys.readouterr().err


def test_non_finite_config_number_is_exit_two(tmp_path, capsys):
    path = run_config(tmp_path)
    text = path.read_text()
    for key, token in (('"p": 3.0', '"p": Infinity'), ('"amplitude": 0.1', '"amplitude": NaN')):
        assert key in text
        path.write_text(text.replace(key, token))
        assert main(["evolve", "--config", str(path)]) == 2
        assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("kind", [["gaussian"], {}])
def test_non_string_initial_kind_is_exit_two(tmp_path, capsys, kind):
    path = run_config(tmp_path, initial={"kind": kind})
    assert main(["evolve", "--config", str(path)]) == 2
    assert "initial.kind: must be one of" in capsys.readouterr().err


def test_potential_cap_radius_is_an_unknown_key(tmp_path, capsys):
    # the Hardy potential floors at h/2 of the grid, as every singular factor does
    path = run_config(tmp_path, potential={"kappa": 0.1, "cap_radius": 0.5})
    assert main(["linear-evolve", "--config", str(path)]) == 2
    assert "potential: unknown key 'cap_radius'" in capsys.readouterr().err


def test_missing_config_file_is_usage_error(tmp_path):
    assert main(["evolve", "--config", str(tmp_path / "nope.json")]) == 1


# ---------------------------------------------------------------------------
# constants / sigma / steady-check


def test_constants_json_has_exact_keys(capsys):
    assert main(["constants", "--alpha", "1", "--d", "3", "--p", "2", "--json"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert list(payload) == [
        "p_fujita",
        "p_singular",
        "s",
        "hardy_ratio",
        "jl_satisfied",
        "sigma",
        "singular_morrey_norm",
    ]
    assert payload["s"] == pytest.approx(2.0 / math.pi, rel=1e-12)
    assert payload["p_fujita"] == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_constants_text_output(capsys):
    assert main(["constants", "--alpha", "0.5", "--d", "1", "--p", "3"]) == 0
    out = capsys.readouterr().out
    assert "p_fujita" in out and "sigma" in out


def test_constants_bad_alpha_is_usage_error(capsys):
    assert main(["constants", "--alpha", "2.5", "--d", "1", "--p", "3"]) == 1
    assert "(0, 2)" in capsys.readouterr().err
    # and each other member of the triple out of its range
    assert main(["constants", "--alpha", "0.5", "--d", "0", "--p", "3"]) == 1
    assert "d must be a positive integer, got 0" in capsys.readouterr().err
    assert main(["constants", "--alpha", "0.5", "--d", "1", "--p", "1"]) == 1
    assert "p must exceed 1, got 1.0" in capsys.readouterr().err


def test_sigma_from_p_and_from_delta(capsys):
    assert main(["sigma", "--alpha", "0.5", "--d", "1", "--p", "2.1", "--json"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["sigma"] == pytest.approx(0.119044108842, rel=1e-9)

    assert main(["sigma", "--alpha", "0.5", "--d", "1", "--p", "3", "--delta", "0.5", "--json"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["sigma"] == pytest.approx(0.030563, rel=1e-3)

    assert main(["sigma", "--alpha", "0.5", "--d", "1", "--kappa", "0.02", "--json"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload == {"kappa": 0.02, "sigma": solve_sigma(0.02, 1, 0.5)}


def test_sigma_supercritical_coupling_fails(capsys):
    # kappa at p = 3 exceeds the coefficient maximum: no weight exponent
    assert main(["sigma", "--alpha", "0.5", "--d", "1", "--p", "3"]) == 1
    # and with neither --kappa nor --p there is no coupling at all
    assert main(["sigma", "--alpha", "0.5", "--d", "1"]) == 1
    assert "sigma needs --kappa, or --p" in capsys.readouterr().err


def test_steady_check_emits_residual_csv(capsys):
    rc = main(["steady-check", "--alpha", "0.5", "--d", "3", "--p", "3",
               "--r-min", "0.5", "--r-max", "2.0", "--n", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "r,residual"
    assert len(lines) == 2 + 3 + 1
    assert lines[-1].startswith("# max_residual = ")
    max_res = float(lines[-1].split("=")[1])
    assert max_res < 0.05


@pytest.mark.parametrize("bad, message", [
    (["--d", "3", "--p", "2", "--r-min", "0.5", "--r-max", "2.0", "--n", "0"], "n_points must be at least 1"),
    (["--d", "3", "--p", "2", "--r-min", "2.0", "--r-max", "0.5", "--n", "3"], "exceeds r_max"),
    (["--d", "1", "--p", "3", "--r-min", "0.5", "--r-max", "2.0", "--n", "3"], "requires the singular regime"),
    (["--d", "3", "--p", "2", "--r-min", "1e-4", "--r-max", "2.0", "--n", "3"], "[0.0001, 2.0] outside the resolved"),
])
def test_steady_check_rejects_bad_sampling(bad, message, capsys):
    assert main(["steady-check", "--alpha", "1", *bad]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


# ---------------------------------------------------------------------------
# evolve


def test_evolve_csv_structure_and_footer(tmp_path):
    cfg = run_config(tmp_path)
    out = tmp_path / "run.csv"
    assert main(["evolve", "--config", str(cfg), "--csv", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# fraclab ")
    assert lines[1] == "t,sup_norm,l2_norm,mass,min_value,dt"
    assert len(lines) == 2 + 4 + 1  # header pair, t=0 plus three times, footer
    footer = json.loads(lines[-1][2:])
    assert footer["status"]["kind"] == "Global"
    assert footer["config_hash"] in lines[0]
    assert footer["version"]
    first = lines[2].split(",")
    assert float(first[0]) == 0.0


def test_evolve_is_bit_deterministic(tmp_path):
    cfg = run_config(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["evolve", "--config", str(cfg), "--csv", str(a)]) == 0
    assert main(["evolve", "--config", str(cfg), "--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_evolve_to_stdout_by_default(tmp_path, capsys):
    cfg = run_config(tmp_path)
    assert main(["evolve", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "t,sup_norm" in out


def test_evolve_blowup_is_success(tmp_path, capsys):
    cfg = run_config(tmp_path, initial={"kind": "gaussian", "amplitude": 5.0})
    assert main(["evolve", "--config", str(cfg)]) == 0
    footer = json.loads(capsys.readouterr().out.strip().splitlines()[-1][2:])
    assert footer["status"]["kind"] == "Blowup"
    assert footer["status"]["t_star"] < 2.0


def test_evolve_numerical_failure_exits_three(tmp_path, monkeypatch, capsys):
    empty = np.array([])

    def broken(config, on_output=None):
        return RunRecord(
            times=np.array([0.0]), sup_norm=np.array([1.0]), l2_norm=np.array([1.0]),
            mass=np.array([1.0]), min_value=np.array([0.0]), dt=np.array([0.0]),
            status=NumericalFailure(reason="synthetic"), monitor_maxima={},
        )

    monkeypatch.setattr(cli, "evolve", broken)
    cfg = run_config(tmp_path)
    assert main(["evolve", "--config", str(cfg)]) == 3
    footer = json.loads(capsys.readouterr().out.strip().splitlines()[-1][2:])
    assert footer["status"] == {"kind": "NumericalFailure", "reason": "synthetic"}


def test_evolve_writes_snapshots(tmp_path, capsys):
    cfg = run_config(tmp_path)
    snaps = tmp_path / "snaps"
    rc = main(["evolve", "--config", str(cfg), "--snapshot-every", "2",
               "--snapshot-dir", str(snaps)])
    assert rc == 0
    names = sorted(f.name for f in snaps.iterdir())
    assert names == ["snapshot_0000.frdf", "snapshot_0002.frdf"]
    from fraclab.field import read_snapshot

    field, meta = read_snapshot(snaps / "snapshot_0002.frdf")
    assert meta.t == 1.0
    assert field.grid.n == 256


def test_evolve_rejects_negative_snapshot_every(tmp_path, capsys):
    snaps = tmp_path / "snaps"
    for every in ("-2", "0"):  # --snapshot-dir alone says whether snapshots are written
        rc = main(["evolve", "--config", str(run_config(tmp_path)), "--snapshot-every", every,
                   "--snapshot-dir", str(snaps)])
        assert rc == 1
        assert f"--snapshot-every: must be positive, got {every}" in capsys.readouterr().err
        assert not snaps.exists()


def test_evolve_snapshot_dir_alone_keeps_every_output(tmp_path, capsys):
    cfg = run_config(tmp_path)
    alone, every_one = tmp_path / "alone", tmp_path / "every_one"
    assert main(["evolve", "--config", str(cfg), "--snapshot-dir", str(alone)]) == 0
    assert main(["evolve", "--config", str(cfg), "--snapshot-every", "1",
                 "--snapshot-dir", str(every_one)]) == 0
    names = [f"snapshot_{i:04d}.frdf" for i in range(4)]
    assert sorted(f.name for f in alone.iterdir()) == names
    assert sorted(f.name for f in every_one.iterdir()) == names
    for name in names:
        assert (alone / name).read_bytes() == (every_one / name).read_bytes()


def test_outputs_section_is_an_unknown_key(tmp_path, capsys):
    # the document is the computation; where results go is said by flags
    cfg = run_config(tmp_path, outputs={"csv_path": str(tmp_path / "run.csv")})
    assert main(["evolve", "--config", str(cfg)]) == 2
    assert "top level: unknown key 'outputs'" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


def test_evolve_streams_snapshots_identical_to_kept_ones(tmp_path, monkeypatch, capsys):
    cfg = run_config(tmp_path, grid={"n": 32, "L": 8.0}, params={"alpha": 1.0, "d": 3, "p": 2.0})
    records = []

    def recording_evolve(config, **kwargs):
        records.append(evolve(config, **kwargs))
        return records[-1]

    monkeypatch.setattr(cli, "evolve", recording_evolve)
    streamed = tmp_path / "streamed"
    assert main(["evolve", "--config", str(cfg), "--snapshot-every", "1",
                 "--snapshot-dir", str(streamed)]) == 0
    assert records[0].snapshots is None  # nothing held until the end of the run

    kept, config = [], cli._load_config(cfg)
    grid = config.build_grid()
    evolve(config, on_output=lambda k, t, octant: kept.append((t, Field(grid, unfold(octant)))))
    assert len(kept) == 4
    for i, (t, field) in enumerate(kept):
        path = tmp_path / f"kept_{i}.frdf"
        write_snapshot(field, path, SnapshotMeta(alpha=1.0, p=2.0, t=float(t)))
        assert (streamed / f"snapshot_{i:04d}.frdf").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("d, n, every", [(1, 256, 2), (2, 64, 1), (3, 32, 1)])
def test_evolve_snapshots_read_back_with_their_csv_rows(tmp_path, d, n, every):
    cfg = run_config(tmp_path, grid={"n": n, "L": 8.0}, params={"alpha": 1.0, "d": d, "p": 2.0})
    csv, snaps = tmp_path / "run.csv", tmp_path / "snaps"
    assert main(["evolve", "--config", str(cfg), "--csv", str(csv),
                 "--snapshot-every", str(every), "--snapshot-dir", str(snaps)]) == 0
    lines = [line for line in csv.read_text().splitlines() if not line.startswith("#")]
    rows = [dict(zip(lines[0].split(","), map(float, line.split(",")))) for line in lines[1:]]
    assert len(rows) == 4
    written = sorted(snaps.iterdir())
    assert [path.name for path in written] == [f"snapshot_{i:04d}.frdf" for i in range(0, 4, every)]
    for path, row in zip(written, rows[::every]):
        field, meta = read_snapshot(path)
        assert field.grid == Grid(d, n, 8.0)
        assert meta.t == row["t"]
        assert field.sup() == row["sup_norm"]
        # the datum peaks at x = 0, and the plane order keeps the field even
        assert np.unravel_index(np.argmax(field.values), field.grid.shape) == (n // 2,) * d
        assert np.array_equal(field.values, unfold(fold(field.values)))


def _fresh_python(code, *argv):
    """The last line code prints when run with argv in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip().splitlines()[-1]


def _scipy_modules_after(argv):
    """Exit code and the scipy modules loaded by one CLI call in a fresh interpreter."""
    code = ("import sys; from fraclab.cli import main; rc = main(sys.argv[1:]); "
            "print(rc, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    rc, modules = _fresh_python(code, *argv).split(" ", 1)
    return int(rc), modules


def test_import_cli_leaves_scipy_unloaded():
    assert _scipy_modules_after(["--version"]) == (0, "[]")


def test_lattice_steps_leave_scipy_unloaded():
    # a lattice step is numpy's rfftn/irfftn at every d; only an octant
    # wider than GEMM_MAX on d >= 2 imports scipy.fft
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from fraclab.constants import power_map_coeff_max
        from fraclab.field import Field, Grid, heat_propagate
        from fraclab.linear_propagators import HardyOperatorSpec, hardy_evolve, kernel_ratio_probe
        for d in (2, 3):
            grid = Grid(d, 16, 4.0)
            heat_propagate(Field(grid, np.ones(grid.shape)), 0.5, 1.0)
        grid = Grid(2, 32, 8.0)
        spec = HardyOperatorSpec(alpha=1.0, d=2, kappa=0.2 * power_map_coeff_max(2, 1.0))
        kernel_ratio_probe(grid, spec, (0.5, 0.5), [0.5, 1.0], substeps_per_interval=2)
        x = grid.axis()
        w0 = Field(grid, np.exp(-(x[:, None] - 0.3) ** 2 - x[None, :] ** 2))  # not even
        hardy_evolve(w0, spec, [0.5, 1.0], substeps_per_interval=2)
        print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))
    """)
    assert _fresh_python(code) == "[]"


def test_import_cli_loads_neither_hashlib_nor_numpy_polynomial():
    # config_hash and the Gauss-Legendre rule import them on first use
    code = "import sys, fraclab.cli; print(sorted({'hashlib', 'numpy.polynomial'} & set(sys.modules)))"
    assert _fresh_python(code) == "[]"


def test_every_public_name_is_declared_once_by_its_module():
    names = fraclab.__all__
    assert names[0] == "__version__" and len(set(names)) == len(names)
    assert names[1:] == [name for declared in fraclab._PUBLIC.values() for name in declared]
    for module, declared in fraclab._PUBLIC.items():
        source = importlib.import_module(f"fraclab.{module}")
        for name in declared:
            obj = getattr(source, name)
            assert getattr(fraclab, name) is obj, name
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == f"fraclab.{module}", name


def test_one_dimensional_commands_load_no_scipy(tmp_path):
    cfg = str(run_config(tmp_path, potential={"kappa": 0.01}))
    csv = str(tmp_path / "out.csv")
    for argv in (
        ["steady-check", "--alpha", "1", "--d", "3", "--p", "2",
         "--r-min", "1", "--r-max", "1", "--n", "1"],
        ["evolve", "--config", cfg, "--csv", csv],
        ["linear-evolve", "--config", cfg, "--csv", csv],
        ["classify", "--config", cfg, "--lambda-min", "0.5", "--lambda-max", "40",
         "--tol", "1", "--threads", "2"],
    ):
        assert _scipy_modules_after(argv) == (0, "[]"), argv[0]


def test_three_dimensional_evolve_loads_no_scipy(tmp_path):
    cfg = run_config(tmp_path, params={"alpha": 1.0, "d": 3, "p": 2.0},
                     grid={"n": 16, "L": 8.0},
                     time={"t_end": 0.5, "output_schedule": [0.25, 0.5]})
    assert _scipy_modules_after(
        ["evolve", "--config", str(cfg), "--csv", str(tmp_path / "out.csv")]) == (0, "[]")


def test_wide_two_dimensional_evolve_loads_scipy_fft(tmp_path):
    # a 257-point octant axis is past GEMM_MAX, so scipy's dctn carries it
    assert 512 // 2 + 1 > GEMM_MAX
    cfg = run_config(tmp_path, params={"alpha": 1.0, "d": 2, "p": 2.0},
                     grid={"n": 512, "L": 8.0},
                     time={"t_end": 0.01, "output_schedule": [0.01]})
    rc, modules = _scipy_modules_after(
        ["evolve", "--config", str(cfg), "--csv", str(tmp_path / "out.csv")])
    assert rc == 0
    assert "'scipy.fft'" in modules
    assert "scipy.interpolate" not in modules


def test_evolve_snapshots_need_directory(tmp_path, capsys):
    cfg = run_config(tmp_path)
    for every in ("1", "2"):
        assert main(["evolve", "--config", str(cfg), "--snapshot-every", every]) == 1
        assert "--snapshot-every needs a snapshot directory" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# linear-evolve


def test_linear_evolve_csv(tmp_path, capsys):
    cfg = run_config(
        tmp_path,
        initial={"kind": "truncated_singular", "delta": 0.5},
        potential={"kappa": "from-delta"},
        time={"t_end": 1.0, "output_schedule": [0.25, 0.5, 1.0]},
    )
    assert main(["linear-evolve", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "t,norm_q1,norm_q2,norm_qinf,weighted_q1,weighted_q2,weighted_qinf"
    assert len(lines) == 2 + 3 + 1
    footer = json.loads(lines[-1][2:])
    assert footer["sigma"] > 0.0
    assert footer["kappa"] > 0.0


def test_linear_evolve_csv_depends_on_the_config_alone(tmp_path, capsys):
    # its only options, --config and --csv, name the document and where the
    # CSV goes (test_each_subcommand_has_exactly_its_options)
    cfg = run_config(tmp_path, potential={"kappa": 0.01})
    assert main(["linear-evolve", "--config", str(cfg), "--substeps", "2"]) == 1
    assert "unrecognized arguments: --substeps" in capsys.readouterr().err
    # two runs of one document write the same bytes: 24 substeps per
    # interval, the hardy_evolve default
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    for path in (first, second):
        assert main(["linear-evolve", "--config", str(cfg), "--csv", str(path)]) == 0
    assert first.read_bytes() == second.read_bytes()
    config = cli._load_config(cfg)
    spec = HardyOperatorSpec(config.params.alpha, config.params.d, config.kappa())
    series = hardy_evolve(config.initial_field(), spec, config.output_times(),
                          substeps_per_interval=24)
    lines = [line for line in first.read_text().splitlines() if not line.startswith("#")]
    assert lines[1:] == [",".join(repr(float(x)) for x in row) for row in series.rows()]


# ---------------------------------------------------------------------------
# morrey


def test_morrey_snapshot_estimate(tmp_path, capsys):
    grid = Grid(1, 256, 32.0)
    field = Field(grid, np.ones(grid.shape))
    path = tmp_path / "flat.frdf"
    write_snapshot(field, path, SnapshotMeta(alpha=0.5, p=3.0, t=0.25))
    assert main(["morrey", "--snapshot", str(path), "--s", "2", "--json"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    # constant field: value = sup_R (2R)^(1 - 1/2) ... attained at R = L
    assert payload["value"] == pytest.approx(2.0 * 32.0 / math.sqrt(32.0), rel=0.05)
    assert payload["argmax_radius"] == pytest.approx(32.0, rel=1e-12)
    assert payload["t"] == 0.25

    # explicit radii are a MorreyQuery field, read here through the
    # snapshot the CLI opens
    with open_snapshot(path) as snapshot:
        estimate = morrey.morrey_estimate(snapshot, morrey.MorreyQuery(s=2.0, radii=(2.0, 8.0)))
    assert estimate.value == pytest.approx(2.0 * 8.0 / math.sqrt(8.0), rel=0.05)
    assert estimate.argmax_radius == 8.0


def test_morrey_has_no_radii_option(tmp_path, capsys):
    # the ladder of radii is the query's own, resolved on the snapshot's grid
    grid = Grid(1, 64, 8.0)
    path = tmp_path / "flat.frdf"
    write_snapshot(Field(grid, np.ones(grid.shape)), path, SnapshotMeta(0.5, 3.0, 0.0))
    assert main(["morrey", "--snapshot", str(path), "--s", "2", "--radii", "2,8"]) == 1
    assert "unrecognized arguments: --radii 2,8" in capsys.readouterr().err


def test_morrey_has_no_stride_option(tmp_path, capsys):
    # the sup runs over every lattice center
    grid = Grid(1, 64, 8.0)
    path = tmp_path / "flat.frdf"
    write_snapshot(Field(grid, np.ones(grid.shape)), path, SnapshotMeta(0.5, 3.0, 0.0))
    assert main(["morrey", "--snapshot", str(path), "--s", "2", "--stride", "2"]) == 1
    assert "unrecognized arguments: --stride 2" in capsys.readouterr().err


def test_morrey_bad_snapshot_is_usage_error(tmp_path, capsys):
    path = tmp_path / "junk.frdf"
    path.write_bytes(b"not a snapshot at all")
    assert main(["morrey", "--snapshot", str(path), "--s", "2"]) == 1
    assert "magic" in capsys.readouterr().err


def test_morrey_snapshot_errors_name_the_file(tmp_path, capsys):
    path = tmp_path / "field.frdf"
    write_snapshot(Field(Grid(1, 16, 1.0), np.zeros(16)), path, SnapshotMeta(0.5, 3.0, 0.25))
    blob = path.read_bytes()  # magic, version, d | n | L, alpha, p, t | payload
    cases = (
        (blob + b"\0", "payload holds"),
        (blob[:-8] + b"\xff" * 8, "finite"),
        (blob[:8] + struct.pack("<I", 4) + blob[12:], "bad dimension 4"),
        (blob[:8] + struct.pack("<3I", 2, 16, 32) + blob[16:], "anisotropic shape (16, 32)"),
        (blob[:12] + struct.pack("<I", 8) + blob[16:48] + bytes(64), "bad grid header: n must"),
        (blob[:16] + struct.pack("<d", math.inf) + blob[24:], "bad grid header: half_length must"),
        (blob[:24] + struct.pack("<d", math.nan) + blob[32:], "header numbers must be finite"),
        (blob[:32] + struct.pack("<d", -math.inf) + blob[40:], "header numbers must be finite"),
        (blob[:40] + struct.pack("<d", math.nan) + blob[48:], "header numbers must be finite"),
    )
    for damaged, words in cases:
        path.write_bytes(damaged)
        assert main(["morrey", "--snapshot", str(path), "--s", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: snapshot {path}: ") and words in err


def _write_raw_snapshot(path, grid: Grid, values: np.ndarray) -> bytes:
    """An FRDF v1 file whose payload is values as given, NaN included."""
    write_snapshot(Field(grid, np.zeros(grid.shape)), path, SnapshotMeta(1.0, 2.0, 0.0))
    blob = path.read_bytes()[:-values.nbytes] + values.astype("<f8").tobytes()
    path.write_bytes(blob)
    return blob


@pytest.mark.parametrize("row", [0, 63])
def test_morrey_rejects_a_value_that_is_not_finite_in_any_block(tmp_path, capsys, monkeypatch, row):
    monkeypatch.setattr(morrey, "_BLOCK_BYTES", 5 * 8 * 64)  # 13 blocks, the last of 4 rows
    grid = Grid(2, 64, 4.0)
    values = np.ones(grid.shape)
    values[row, 17] = np.nan
    path = tmp_path / "field.frdf"
    _write_raw_snapshot(path, grid, values)
    assert main(["morrey", "--snapshot", str(path), "--s", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: snapshot {path}: payload: field values must be finite\n"


def test_morrey_rejects_every_truncation_before_reading_the_payload(tmp_path, capsys, monkeypatch):
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)  # one parser for 2100 calls
    grid = Grid(2, 16, 4.0)
    values = np.ones(grid.shape)
    values[0, 0] = np.nan  # a payload read before the size check would name this
    path = tmp_path / "field.frdf"
    blob = _write_raw_snapshot(path, grid, values)
    header = len(blob) - values.nbytes
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        assert main(["morrey", "--snapshot", str(path), "--s", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: snapshot {path}: ")
        assert ("payload holds" if cut >= header else "truncated header") in captured.err


# ---------------------------------------------------------------------------
# classify


def classify_args(tmp_path, **time_overrides):
    time = {"t_end": 50.0, "output_schedule": [10.0, 25.0, 50.0]}
    time.update(time_overrides)
    cfg = run_config(tmp_path, initial={"kind": "gaussian"}, time=time)
    return ["classify", "--config", str(cfg), "--lambda-min", "0.5", "--lambda-max", "3.0"]


def test_classify_prints_bracket_json(tmp_path, capsys):
    assert main(classify_args(tmp_path) + ["--tol", "0.1"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["ratio"] <= 1.1
    assert payload["lambda_global"] < payload["lambda_blowup"]
    assert payload["morrey_blowup"] > payload["morrey_global"] > 0.0
    assert payload["singular_morrey_norm"] > 0.0
    assert len(payload["config_hash"]) == 64


def test_classify_bad_bracket_is_usage_error(tmp_path, capsys):
    args = classify_args(tmp_path)
    args[args.index("--lambda-min") + 1] = "5.0"
    args[args.index("--lambda-max") + 1] = "9.0"
    assert main(args) == 1
    assert "straddle" in capsys.readouterr().err


def test_classify_monotonicity_violation_exits_three(tmp_path, capsys):
    from fraclab.config import parse_config

    args = classify_args(tmp_path)
    cfg_path = args[args.index("--config") + 1]
    chash = parse_config(open(cfg_path).read()).config_hash()
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"config_hash": chash,
                                 "observations": [[5.0, "Global"]]}))
    assert main(args + ["--state", str(state)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_classify_numerical_failure_exits_three(tmp_path, monkeypatch, capsys):
    import fraclab.analysis as analysis

    def broken(config, certify=False):
        return RunRecord(*[np.array([0.0])] * 6, status=NumericalFailure(reason="synthetic"),
                         monitor_maxima={})

    monkeypatch.setattr(analysis, "evolve", broken)
    assert main(classify_args(tmp_path)) == 3
    assert "numerical failure during classification: synthetic" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("state", "words"),
    [
        ({"config_hash": "HASH"}, "pairs"),  # no observations
        ([[0.5, "Global"]], "pairs"),  # not an object
        ({"config_hash": "HASH", "observations": [[0.5, "Global", 1]]}, "pairs"),
        ({"config_hash": "HASH", "observations": [[0.5, "Global"], [1.7, "Maybe"]]}, "pairs"),
        # a Global above a Blowup, which a resumed bisection would blame on the solver
        ({"config_hash": "HASH", "observations": [[0.5, "Global"], [3.0, "Blowup"],
                                                  [1.2247, "Blowup"], [2.0, "Global"]]},
         "contradicts itself: Global at lambda = 2 above Blowup at lambda = 1.2247"),
        ({"config_hash": "HASH", "observations": [[0.5, "Global"], [1.5, "Global"],
                                                  [1.5, "Blowup"]]},
         "records lambda = 1.5 as both Global and Blowup"),
    ],
    ids=[f"state{i}" for i in range(6)],
)
def test_classify_malformed_state_file_is_usage_error(tmp_path, capsys, state, words):
    from fraclab.config import parse_config

    args = classify_args(tmp_path)
    chash = parse_config(open(args[args.index("--config") + 1]).read()).config_hash()
    path = tmp_path / "state.json"
    text = json.dumps(state).replace("HASH", chash)
    path.write_text(text)
    assert main(args + ["--state", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: state file {path} ") and words in err
    assert path.read_text() == text


def test_classify_state_in_a_missing_directory_fails_before_any_run(tmp_path, capsys, monkeypatch):
    import fraclab.analysis as analysis

    runs = []
    monkeypatch.setattr(analysis, "evolve", lambda cfg: runs.append(cfg))
    path = tmp_path / "missing" / "st.json"
    assert main(classify_args(tmp_path) + ["--state", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: state file {path}: ") and ".tmp" not in err
    assert runs == [] and not path.parent.exists()


def test_classify_state_file_that_is_not_json_names_the_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text('{"config_hash": "ab')  # cut short
    assert main(classify_args(tmp_path) + ["--state", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: state file {path} is not JSON: ")
    assert path.read_text() == '{"config_hash": "ab'


def test_classify_threads_sets_the_fft_workers_of_every_probe(tmp_path, capsys, monkeypatch):
    import fraclab.analysis as analysis
    import fraclab.field as field

    monkeypatch.setenv("FRACLAB_THREADS", "1")
    seen, run = [], analysis.evolve

    def recording(cfg, certify=False):
        seen.append(getattr(field._FFT_SHARE, "workers", None))
        return run(cfg, certify=certify)

    monkeypatch.setattr(analysis, "evolve", recording)
    assert main(classify_args(tmp_path) + ["--tol", "0.5", "--threads", "3"]) == 0
    assert _strict_json(capsys.readouterr().out)["ratio"] <= 1.5
    assert len(seen) >= 4 and set(seen) == {3}
    assert getattr(field._FFT_SHARE, "workers", None) is None


# ---------------------------------------------------------------------------
# fit


def test_fit_reads_csv_and_prints_json(tmp_path, capsys):
    path = tmp_path / "series.csv"
    times = np.geomspace(1.0, 16.0, 9)
    rows = ["# fraclab test artifact", "t,sup_norm"]
    rows += [f"{float(t)!r},{float(t**-2.0)!r}" for t in times]
    rows.append("# trailing comment")
    path.write_text("\n".join(rows) + "\n")
    assert main(["fit", "--csv", str(path), "--column", "sup_norm"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["exponent"] == pytest.approx(-2.0, abs=1e-10)
    assert payload["n_points"] == 9

    assert main(["fit", "--csv", str(path), "--column", "sup_norm",
                 "--t-min", "2.0", "--t-max", "8.0"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["window"] == [2.0, 8.0]
    assert payload["n_points"] == 5


def test_fit_unknown_column_lists_available(tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_text("t,v\n1.0,1.0\n2.0,0.5\n")
    assert main(["fit", "--csv", str(path), "--column", "mass"]) == 1
    err = capsys.readouterr().err
    assert "mass" in err and "'v'" in err
    # the time column is t, which every fraclab CSV writes
    path.write_text("time,v\n1.0,1.0\n2.0,0.5\n")
    assert main(["fit", "--csv", str(path), "--column", "v"]) == 1
    assert "column 'v' or 't' not in ['time', 'v']" in capsys.readouterr().err
    assert main(["fit", "--csv", str(path), "--column", "v", "--t-column", "time"]) == 1
    assert "unrecognized arguments: --t-column" in capsys.readouterr().err


def test_fit_too_few_points_is_usage_error(tmp_path, capsys):
    path = tmp_path / "series.csv"
    for text, words in (("t,v\n1.0,1.0\n2.0,0.5\n4.0,0.25\n", "at least 5"),
                        ("# no rows\nt,v\n", "has no data rows"),
                        ("t,v\n0.0,1.0\n-1.0,2.0\n", "no positive times to fit"),
                        ("t,v\n1.0,1.0\n2.0,nan\n4.0,0.25\n8.0,inf\n16.0,0.0625\n", "finite"),
                        ("t,v\n1.0,1.0\n2.0,0.5\ninf,0.25\n8.0,0.125\n16.0,0.0625\n", "t_max < inf")):
        path.write_text(text)
        assert main(["fit", "--csv", str(path), "--column", "v"]) == 1
        assert words in capsys.readouterr().err


def test_fit_window_with_one_distinct_time_is_usage_error(tmp_path, capfd):
    # one distinct time leaves the least-squares system singular, which LAPACK reports on its own
    path = tmp_path / "series.csv"
    path.write_text("t,v\n" + "".join(f"1.0,{v}\n" for v in range(1, 6)))
    assert main(["fit", "--csv", str(path), "--column", "v", "--t-min", "0.5", "--t-max", "2"]) == 1
    out, err = capfd.readouterr()
    assert err == "error: the fit window holds one distinct time, 1.0; a slope needs two\n"
    assert out == ""
