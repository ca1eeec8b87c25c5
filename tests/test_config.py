import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraclab
from fraclab.config import (
    _DELTA_KINDS,
    _INITIAL_KEYS,
    _NUMBERS,
    ConfigError,
    ExperimentConfig,
    GridSettings,
    InitialSpec,
    PotentialSpec,
    TimeSettings,
    config_from_dict,
    parse_config,
)
from fraclab.constants import (
    ModelParams,
    critical_exponents,
    kappa_from_delta,
    kappa_from_params,
)
from fraclab.field import Grid, dyadic_schedule
from fraclab.nonlinear_solver import evolve

MINIMAL = {
    "params": {"alpha": 0.5, "d": 1, "p": 3.0},
    "initial": {"kind": "gaussian"},
}


def _to_json(cfg):
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True)


def test_minimal_config_fills_defaults():
    cfg = config_from_dict(MINIMAL)
    assert cfg.grid.n == 4096
    assert cfg.grid.half_length == 512.0
    assert cfg.time.t_end == 8.0
    assert cfg.time.eta == 0.1
    assert cfg.time.output_schedule == "dyadic"
    assert cfg.potential.kappa == "from-p"
    assert cfg.initial.amplitude == 1.0


def test_round_trip_identity():
    cfg = config_from_dict(MINIMAL)
    again = parse_config(_to_json(cfg))
    assert again == cfg
    assert _to_json(again) == _to_json(cfg)
    assert again.config_hash() == cfg.config_hash()


@st.composite
def config_docs(draw):
    """Valid documents of every initial kind; params stay in the singular
    regime, so the singular-profile kinds are admissible too."""
    d = draw(st.sampled_from([1, 2, 3]))
    alpha = draw(st.floats(0.1, min(1.9, d - 0.1)))
    p = critical_exponents(d, alpha)[1] + draw(st.floats(0.01, 3.0))
    kind = draw(st.sampled_from(sorted(_INITIAL_KEYS)))
    initial = {"kind": kind}
    for key in sorted(_INITIAL_KEYS[kind]):
        initial[key] = draw(st.floats(0.0 if key in ("b", "scale") else 0.01, 10.0))
    t_end = draw(st.floats(0.5, 100.0))
    schedule = draw(st.one_of(
        st.just("dyadic"),
        st.lists(st.floats(0.01, t_end), min_size=1, max_size=5).map(lambda ts: sorted(set(ts))),
    ))
    potential = {"kappa": draw(st.one_of(st.floats(0.0, 10.0), st.sampled_from(["from-p", "from-delta"])))}
    delta = draw(st.one_of(st.none(), st.floats(0.01, 1.0)))
    if delta is None and potential["kappa"] == "from-delta" and kind not in _DELTA_KINDS:
        delta = 0.5
    if delta is not None:
        potential["delta"] = delta
    return {
        "params": {"alpha": alpha, "d": d, "p": p},
        "grid": {"n": 2 ** draw(st.integers(4, 12)), "L": draw(st.floats(1.0, 1000.0))},
        "time": {
            "t_end": t_end,
            "eta": draw(st.floats(0.01, 1.0)),
            "dt_max": draw(st.floats(0.01, 10.0)),
            "blowup_sup_threshold": draw(st.floats(1.0, 1e12)),
            "output_schedule": schedule,
        },
        "initial": initial,
        "potential": potential,
    }


@settings(max_examples=100, deadline=None)
@given(doc=config_docs())
def test_config_round_trips_through_json(doc):
    cfg = config_from_dict(doc)
    again = config_from_dict(json.loads(_to_json(cfg)))
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()
    assert set(cfg.to_dict()["initial"]) == _INITIAL_KEYS[cfg.initial.kind] | {"kind"}


# values a sweep generator or a hand edit might leave where a number, a
# string or a section belongs
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.sampled_from([10**400, -(10**400), 2**70]),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(sorted(_INITIAL_KEYS) + ["dyadic", "from-p", "from-delta"]),
    st.lists(st.one_of(st.floats(), st.integers(-5, 5), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
SECTIONS = [f.name for f in dataclasses.fields(ExperimentConfig)]
KEYS = sorted(
    {key for table in _NUMBERS.values() for key in table}
    | {"kind", "output_schedule", "kappa", "bogus"}
)


@st.composite
def mutated_docs(draw):
    """A valid document with one to four mutations: a key set to junk or
    removed, a section dropped or replaced by junk, or an unknown key."""
    doc = draw(config_docs())
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["set", "delete", "drop", "replace", "extra"]))
        name = draw(st.sampled_from(SECTIONS))
        sect = doc.get(name)
        if op == "set" and isinstance(sect, dict):
            sect[draw(st.sampled_from(KEYS))] = draw(JUNK)
        elif op == "delete" and isinstance(sect, dict) and sect:
            del sect[draw(st.sampled_from(sorted(sect)))]
        elif op == "drop":
            doc.pop(name, None)
        elif op == "replace":
            doc[name] = draw(JUNK)
        elif op == "extra":
            doc[draw(st.sampled_from(["bogus", "param", "output", "outputs"]))] = draw(JUNK)
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=mutated_docs())
@example(doc=dict(MINIMAL, initial={"kind": ["gaussian"]}))
def test_mutated_documents_parse_or_raise_config_error(doc):
    try:
        cfg = config_from_dict(doc)
    except ConfigError as exc:
        assert exc.errors and all(isinstance(e, str) for e in exc.errors)
    else:
        assert config_from_dict(json.loads(_to_json(cfg))) == cfg


@pytest.mark.parametrize(
    "section, settings_class, special",
    [
        ("params", ModelParams, set()),
        ("grid", GridSettings, set()),
        ("time", TimeSettings, {"output_schedule"}),
        ("initial", InitialSpec, {"kind"}),
        ("potential", PotentialSpec, {"kappa"}),
    ],
)
def test_every_settings_field_is_validated(section, settings_class, special):
    # the document's grid.L is GridSettings.half_length
    keys = {"half_length" if key == "L" else key for key in _NUMBERS[section]}
    assert keys.isdisjoint(special)
    assert keys | special == {f.name for f in dataclasses.fields(settings_class)}


def test_number_table_covers_every_section_and_initial_key():
    assert list(_NUMBERS) == SECTIONS
    fields = {f.name for f in dataclasses.fields(InitialSpec)} - {"kind"}
    assert set(_NUMBERS["initial"]) == set().union(*_INITIAL_KEYS.values()) == fields


def test_hash_sensitivity():
    cfg = config_from_dict(MINIMAL)
    doc = dict(MINIMAL, grid={"n": 8192})
    assert config_from_dict(doc).config_hash() != cfg.config_hash()


@settings(max_examples=25, deadline=None)
@given(doc=config_docs())
def test_config_hash_is_the_sha256_of_the_canonical_document(doc):
    cfg = config_from_dict(doc)
    canonical = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    assert cfg.config_hash() == hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.skipif(not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
                    reason="this Python has no builtin sha256 module")
def test_config_hash_leaves_openssl_unloaded():
    # hashlib's OpenSSL backend maps libcrypto; the builtin sha256 does not
    code = ("import sys; from fraclab.config import config_from_dict; "
            "config_from_dict({'params': {'alpha': 0.5, 'd': 1, 'p': 3.0}, "
            "'initial': {'kind': 'gaussian'}}).config_hash(); "
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(fraclab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_alpha_range_error_names_interval():
    doc = {"params": {"alpha": 2.5, "d": 1, "p": 3.0}, "initial": {"kind": "zero"}}
    with pytest.raises(ConfigError, match=r"\(0, 2\)"):
        config_from_dict(doc)


def test_all_errors_collected():
    doc = {
        "params": {"alpha": 2.5, "d": 7, "p": 0.5},
        "grid": {"n": 100, "L": -1.0},
        "initial": {"kind": "nope"},
        "bogus": 1,
    }
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert len(err.value.errors) >= 6


def test_unknown_keys_rejected_per_kind():
    doc = {
        "params": {"alpha": 0.5, "d": 1, "p": 3.0},
        "initial": {"kind": "gaussian", "delta": 0.5},
    }
    with pytest.raises(ConfigError, match="unknown key 'delta'"):
        config_from_dict(doc)


def test_singular_regime_required_for_singular_data():
    # p_sg = 1 + alpha/(d - alpha) = 2 here; p = 1.5 sits below it
    doc = {
        "params": {"alpha": 0.5, "d": 1, "p": 1.5},
        "initial": {"kind": "truncated_singular", "delta": 0.5},
    }
    with pytest.raises(ConfigError, match="singular steady state"):
        config_from_dict(doc)


def test_schedule_validation():
    bad_order = dict(MINIMAL, time={"output_schedule": [2.0, 1.0]})
    with pytest.raises(ConfigError, match="strictly increasing"):
        config_from_dict(bad_order)
    beyond = dict(MINIMAL, time={"t_end": 4.0, "output_schedule": [1.0, 8.0]})
    with pytest.raises(ConfigError, match="exceeds t_end"):
        config_from_dict(beyond)
    named = dict(MINIMAL, time={"output_schedule": "weekly"})
    with pytest.raises(ConfigError, match="unknown named schedule"):
        config_from_dict(named)


@pytest.mark.parametrize(
    "schedule, message",
    [
        ((3.0, 1.0), "strictly increasing"),  # would step back from t = 3 to t = 1
        ((0.0, 1.0), "strictly increasing"),  # would record t = 0 twice
        ((-1.0, 2.0), "strictly increasing"),  # would step by dt = 0 forever
        ((1.0, 6.0), "exceeds t_end"),  # would drop t = 6 without a word
    ],
)
def test_output_times_checks_a_schedule_made_in_code(schedule, message):
    # a schedule built in code skips the parser; evolve reads it through output_times
    cfg = config_from_dict(dict(MINIMAL, grid={"n": 64, "L": 8.0}, time={"t_end": 4.0}))
    timing = dataclasses.replace(cfg.time, output_schedule=schedule)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(cfg, time=timing).output_times()
    timing = dataclasses.replace(cfg.time, output_schedule=(1.0, 4.0))
    assert dataclasses.replace(cfg, time=timing).output_times().tolist() == [1.0, 4.0]


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("dt_max", -1.0, "time.dt_max: must be positive, got -1.0"),
        ("eta", 0.0, "time.eta: must lie in (0, 1], got 0.0"),
        ("blowup_sup_threshold", -1.0, "time.blowup_sup_threshold: must be positive, got -1.0"),
        ("eta", math.nan, "time.eta: must be finite, got nan"),
        ("dt_max", math.nan, "time.dt_max: must be finite, got nan"),
        ("t_end", math.inf, "time.t_end: must be finite, got inf"),
    ],
)
def test_evolve_checks_time_numbers_made_in_code(key, value, message):
    # a time section built in code skips the parser; evolve reads it through
    # output_times before its first step.  Run unchecked, these cases end in
    # Blowup(t_star=-0.5), Blowup(0.0), Blowup(0.1), Global and
    # NumericalFailure, and a Global run to t_end = inf never ends
    doc = {
        "params": {"alpha": 0.5, "d": 1, "p": 3.0},
        "grid": {"n": 256, "L": 32.0},
        "time": {"output_schedule": [1.0, 8.0]},
        "initial": {"kind": "gaussian", "amplitude": 0.5},
    }
    cfg = config_from_dict(doc)
    with pytest.raises(ConfigError) as err:
        config_from_dict(dict(doc, time=dict(doc["time"], **{key: value})))
    assert message in err.value.errors  # the parser's words
    bad = dataclasses.replace(cfg, time=dataclasses.replace(cfg.time, **{key: value}))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evolve(bad)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bad.output_times()


def test_output_times_rejects_an_unknown_named_schedule_made_in_code():
    # the parser rejects the name; a config built in code must not run the
    # dyadic ladder while it hashes under another name
    cfg = config_from_dict(dict(MINIMAL, grid={"n": 64, "L": 8.0}, time={"t_end": 4.0}))
    weekly = dataclasses.replace(cfg, time=dataclasses.replace(cfg.time, output_schedule="weekly"))
    with pytest.raises(ValueError, match="unknown named schedule 'weekly'"):
        weekly.output_times()
    assert cfg.output_times().tolist() == dyadic_schedule(cfg.build_grid(), 0.5, 4.0).tolist()


def test_from_delta_needs_a_delta():
    doc = dict(MINIMAL, potential={"kappa": "from-delta"})
    with pytest.raises(ConfigError, match="from-delta"):
        config_from_dict(doc)
    # a delta-bearing datum supplies the fallback
    doc = {
        "params": {"alpha": 0.5, "d": 1, "p": 3.0},
        "initial": {"kind": "truncated_singular", "delta": 0.5},
        "potential": {"kappa": "from-delta"},
    }
    cfg = config_from_dict(doc)
    want = kappa_from_delta(cfg.params, 0.5)
    assert cfg.kappa() == pytest.approx(want, rel=1e-14)


def test_kappa_resolution():
    cfg = config_from_dict(MINIMAL)
    assert cfg.kappa() == pytest.approx(kappa_from_params(cfg.params), rel=1e-14)
    explicit = config_from_dict(dict(MINIMAL, potential={"kappa": 0.25}))
    assert explicit.kappa() == 0.25
    negative = dict(MINIMAL, potential={"kappa": -1.0})
    with pytest.raises(ConfigError, match="nonnegative"):
        config_from_dict(negative)
    # a binding name made in code skips the parser's check
    with pytest.raises(ValueError, match="unknown potential binding 'x'"):
        PotentialSpec(kappa="x").resolve(cfg.params)


def test_output_times_dyadic_and_explicit():
    cfg = config_from_dict(dict(MINIMAL, grid={"n": 256, "L": 32.0}))
    ts = cfg.output_times()
    # t0 = 4 h^alpha = 4 * 0.25^0.5 = 2, doubling under t_end = 8
    assert ts[0] == pytest.approx(2.0)
    assert list(ts) == pytest.approx([2.0, 4.0, 8.0])
    explicit = config_from_dict(
        dict(MINIMAL, time={"output_schedule": [1.0, 2.0, 3.0]})
    )
    assert list(explicit.output_times()) == [1.0, 2.0, 3.0]


def test_parse_rejects_bad_json():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{nope")


def test_initial_field_scaling():
    doc = {
        "params": {"alpha": 0.5, "d": 1, "p": 3.0},
        "grid": {"n": 64, "L": 8.0},
        "initial": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0, "scale": 2.5},
    }
    cfg = config_from_dict(doc)
    f = cfg.initial_field()
    assert f.values[32] == pytest.approx(2.5)
    # the datum and the schedule are the document's: no other grid can be passed in
    for method in (cfg.initial_field, cfg.output_times):
        with pytest.raises(TypeError):
            method(Grid(1, 16, 4.0))


# an out-of-range value of each initial number: each positive one at its
# bound 0, each nonnegative one just below 0
OUT_OF_RANGE = dict.fromkeys(("amplitude", "width", "delta", "gamma0", "ell"), 0.0) | {
    "b": -0.1,
    "scale": -0.1,
}


@pytest.mark.parametrize(
    "kind, key", [(kind, key) for kind, keys in _INITIAL_KEYS.items() for key in sorted(keys)]
)
def test_build_rejects_each_out_of_range_number(kind, key):
    spec = InitialSpec(kind, **{key: OUT_OF_RANGE[key]})
    with pytest.raises(ValueError, match=f"initial.{key}: must be"):
        spec.build(Grid(1, 16, 4.0), ModelParams(alpha=0.5, d=1, p=3.0))


def test_build_rejects_an_infinite_number():
    # the parser's rule: every range holds infinity on one side, so the
    # range alone would build an infinite datum
    spec = InitialSpec("gaussian", amplitude=math.inf)
    with pytest.raises(ValueError, match="^initial.amplitude: must be finite, got inf$"):
        spec.build(Grid(1, 16, 4.0), ModelParams(alpha=0.5, d=1, p=3.0))


@pytest.mark.parametrize(
    "section, body, where",
    [
        ("params", {"alpha": 0.5, "d": 1, "p": "Infinity"}, "params.p"),
        ("grid", {"n": 64, "L": "Infinity"}, "grid.L"),
        ("time", {"t_end": "Infinity", "dt_max": "NaN"}, "time.t_end"),
        ("initial", {"kind": "gaussian", "amplitude": "Infinity", "scale": "NaN"}, "initial.scale"),
        ("potential", {"kappa": "Infinity"}, "potential.kappa"),
    ],
)
def test_non_finite_numbers_rejected(section, body, where):
    # json.loads reads the bare tokens Infinity and NaN as floats
    doc = {"params": {"alpha": 0.5, "d": 1, "p": 3.0}, "initial": {"kind": "gaussian"}}
    doc[section] = body
    text = json.dumps(doc).replace('"Infinity"', "Infinity").replace('"NaN"', "NaN")
    with pytest.raises(ConfigError, match=f"{where}: must be finite") as err:
        parse_config(text)
    assert all("finite" in e for e in err.value.errors)


def test_non_finite_schedule_time_rejected():
    with pytest.raises(ConfigError, match="finite numbers"):
        parse_config(json.dumps(dict(MINIMAL, time={"output_schedule": [math.nan]})))
