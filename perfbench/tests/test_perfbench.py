"""Tests of the benchmark itself: seeded inputs, output checks, tracer."""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REFERENCES = workloads.load_references(HERE / "references.json")


def _plan(name, seed, base):
    return workloads.plan(name, seed, base / "inputs", base / "out")


def test_inputs_are_deterministic_per_seed(tmp_path):
    from fraclab.config import parse_config

    for name in workloads.NAMES:
        a = _plan(name, 3, tmp_path / name / "a")
        b = _plan(name, 3, tmp_path / name / "b")
        c = _plan(name, 4, tmp_path / name / "c")
        assert list(a.inputs_sha256) == list(workloads.WORKLOADS[name])
        for part, digest in a.inputs_sha256.items():
            assert digest == b.inputs_sha256[part] != c.inputs_sha256[part]
            assert digest == REFERENCES[part]["3"]["inputs_sha256"]
            config = tmp_path / name / "a" / "inputs" / part / f"{part}.json"
            if config.exists():
                ref = REFERENCES[part]["3"]["ops"][_plan(part, 3, tmp_path / part).ops[0].name]
                expected = ref["config_hash"] if "config_hash" in ref else ref["footer"]["config_hash"]
                assert parse_config(config.read_text()).config_hash() == expected
        assert _plan(name, 3 + workloads.VARIANTS, tmp_path / name / "d").inputs_sha256 == a.inputs_sha256


def _hardy_csv(reference, rows):
    footer = dict(reference["footer"], version="0.1.0")
    lines = [f"# fraclab 0.1.0 config {footer['config_hash']}", ",".join(reference["columns"])]
    lines += [",".join(repr(x) for x in row) for row in rows]
    return "\n".join(lines + ["# " + json.dumps(footer)]) + "\n"


def test_perturbed_csv_value_counts_as_failed(tmp_path):
    plan = _plan("hardy-1d", 0, tmp_path)
    (op,) = plan.ops
    reference = workloads.reference_for(REFERENCES, plan)[op.name]
    csv = Path(op.argv[op.argv.index("--csv") + 1])
    rows = [list(r) for r in reference["rows"]]

    csv.write_text(_hardy_csv(reference, rows))
    clean = workloads.check(op, 0, "", reference)
    rows[4][2] *= 1.0 + 1e-4
    csv.write_text(_hardy_csv(reference, rows))
    perturbed = workloads.check(op, 0, "", reference)
    crashed = workloads.check(op, 3, "", reference)

    assert clean == []
    assert perturbed and "rows[4][2]" in perturbed[0]
    assert crashed == ["linear-evolve: exit code 3"]
    its = [bench.Iteration(False, problems=[clean]), bench.Iteration(False, problems=[perturbed]),
           bench.Iteration(False, problems=[crashed])]
    assert bench.tally(its) == (3, 2)


def test_wrong_verdict_counts_as_failed(tmp_path):
    plan = _plan("classify-1d", 0, tmp_path)
    (op,) = plan.ops
    reference = workloads.reference_for(REFERENCES, plan)[op.name]
    state_path = Path(op.argv[op.argv.index("--state") + 1])
    stdout = json.dumps({k: v for k, v in reference.items() if k != "state"})

    state_path.write_text(json.dumps(reference["state"]))
    clean = workloads.check(op, 0, stdout, reference)
    state = json.loads(json.dumps(reference["state"]))
    lam = sorted(lam for lam, kind in state["observations"] if kind == "Global")[1]
    state["observations"] = [[x, "Blowup" if x == lam else kind] for x, kind in state["observations"]]
    state_path.write_text(json.dumps(state))
    flipped = workloads.check(op, 0, stdout, reference)
    moved = dict(reference, lambda_global=2.0, lambda_blowup=2.01, ratio=2.01 / 2.0)
    state_path.write_text(json.dumps(reference["state"]))
    elsewhere = workloads.check(op, 0, json.dumps({k: v for k, v in moved.items() if k != "state"}), reference)

    assert clean == []
    assert flipped and "monotone" in " ".join(flipped)
    assert elsewhere and "overlap" in " ".join(elsewhere)
    assert bench.tally([bench.Iteration(False, problems=[clean, flipped, elsewhere])]) == (3, 2)


def _namespaces():
    state = {}
    for name, module in list(sys.modules.items()):
        if name == "fraclab" or name.startswith("fraclab."):
            state[name] = dict(vars(module))
            for key, value in vars(module).items():
                if isinstance(value, type) and value.__module__.startswith("fraclab"):
                    state[f"{name}.{key}"] = dict(vars(value))
    return state


def test_tracer_leaves_fraclab_unpatched():
    import fraclab.cli
    from fraclab.field import Field, Grid, WeightSpec

    before = _namespaces()
    spans = tracer.Tracer()
    spans.install()
    try:
        assert spans.missing == []
        assert fraclab.cli.evolve is not before["fraclab.cli"]["evolve"]
        assert fraclab.analysis.evolve is fraclab.cli.evolve
        fraclab.field.weighted_norm(Field(Grid(1, 16, 1.0), np.ones(16)), 1.0, WeightSpec(0.5, 1.0, 0.5))
    finally:
        spans.uninstall()
    after = _namespaces()

    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        assert all(after[name][k] is v for k, v in attrs.items()), name
    layers = [s[1] for s in spans.spans]
    assert layers.count("field.Field") == 1 and layers.count("field.weighted_norm") == 1
    norm = next(s for s in spans.spans if s[1] == "field.weighted_norm")
    assert any(s[4] == norm[0] for s in spans.spans if s[1] == "field.grid_cache")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        [1, "nonlinear_solver.evolve", 0.0, 10.0, 0, {"snapshot_bytes": 0}],
        [2, "nonlinear_solver.diffuse", 1.0, 4.0, 1, {"bytes": 8}],
        [3, "nonlinear_solver.reaction", 3.0, 5.0, 1, {"bytes": 8}],
        [4, "nonlinear_solver.reaction", 9.0, 12.0, 1, {"bytes": 8}],
    ]
    dump = {"run_id": "evolve-3d.1.evolve", "import_s": 0.5, "import_modules": 10, "scipy_interpolate_loaded": 1,
            "grid_cache_bytes": 0, "missing": [], "spans": spans}
    m = tracer.layer_metrics([dump])
    assert m["nonlinear_solver.evolve.self_s"] == 10.0 - 5.0  # [1, 5] and [9, 10]
    assert m["nonlinear_solver.reaction.calls"] == 2
    assert m["nonlinear_solver.diffuse.gbps_computed"] == 8 / 3.0 / 1e9


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [w["why"] for w in spec["workloads"]] == [workloads.WHY[n] for n in workloads.NAMES]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_METRICS


def test_run_s_takes_each_operations_fastest_time_scaled_by_the_yardstick():
    its = [bench.Iteration(False, op_walls=[5.0, 1.0]), bench.Iteration(False, op_walls=[4.0, 2.0]),
           bench.Iteration(False, op_walls=[6.0, 1.5])]
    assert bench.best_of(its) == 4.0 + 1.0
    assert bench.best_of(its, keep={1}) == 1.0
    slow = [2.0 * bench.YARDSTICK_REF_S, 3.0 * bench.YARDSTICK_REF_S]
    assert bench.scaled(5.0, slow) == 2.5
