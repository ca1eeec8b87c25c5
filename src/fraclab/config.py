"""Experiment configuration: JSON parsing, whole-document validation,
canonical serialization, and the config hash embedded in outputs.

Validation collects every error before failing, and unknown keys are
rejected at all levels so sweep generators fail loudly on typos.
"""

from __future__ import annotations

import importlib
import json
import math
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from .constants import (
    ModelParams,
    critical_exponents,
    kappa_from_delta,
    kappa_from_params,
)
from .field import Field, Grid, _check_schedule, _steady_values, dyadic_schedule, unfold


class ConfigError(ValueError):
    """Carries the complete list of validation problems."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        lines = "\n".join(f"  - {e}" for e in self.errors)
        super().__init__(f"invalid configuration:\n{lines}")


@dataclass(frozen=True)
class GridSettings:
    n: int = 4096
    half_length: float = 512.0


@dataclass(frozen=True)
class TimeSettings:
    t_end: float = 8.0
    eta: float = 0.1
    dt_max: float = 1.0
    blowup_sup_threshold: float = 1e8
    output_schedule: tuple | str = "dyadic"


@dataclass(frozen=True)
class InitialSpec:
    kind: str
    amplitude: float = 1.0
    width: float = 1.0
    delta: float = 0.5
    gamma0: float = 0.25
    b: float = 0.1
    ell: float = 0.5
    scale: float = 1.0

    def build(self, grid: Grid, params: ModelParams) -> Field:
        """The scaled datum on the lattice: the unfold of build_octant."""
        return Field._adopt(grid, unfold(self.build_octant(grid, params)))

    def build_octant(self, grid: Grid, params: ModelParams) -> np.ndarray:
        """The scaled datum on the octant (see field.fold), as a new
        nonnegative array; ValueError if a number the kind reads lies
        outside its range in _NUMBERS["initial"].

        gaussian is A exp(-|x|^2/w^2).  The other kinds are built from
        u_inf = s |x|^{-alpha/(p-1)} at the half-cell capped radius:
        truncated_singular is delta u_inf (delta >= 1 warns: not strictly
        sub-steady), power_tail is min(A |x|^{-gamma0}, delta u_inf), and
        steady_deficit_tail / _bump are u_inf less b |x|^{-ell} / less
        b exp(-|x|^2/w^2), clipped at zero.
        """
        if self.kind not in _INITIAL_KEYS:
            raise ValueError(f"unknown initial kind {self.kind!r}")
        for key in sorted(_INITIAL_KEYS[self.kind]):
            _, ok, phrase = _NUMBERS["initial"][key]
            if not ok(getattr(self, key)):
                raise ValueError(f"initial.{key}: {phrase}, got {getattr(self, key)}")
        if self.kind == "zero":
            return np.zeros((grid.n // 2 + 1,) * grid.d)
        capped = grid.octant_capped_radius() if self.kind in _SINGULAR_KINDS else None
        if self.kind == "gaussian":
            values = self.amplitude * np.exp(-((grid.octant_radius() / self.width) ** 2))
        elif self.kind == "truncated_singular":
            if self.delta >= 1.0:
                warnings.warn(
                    f"delta = {self.delta} >= 1: datum is not a strict sub-steady state",
                    UserWarning,
                    stacklevel=2,
                )
            values = _steady_values(params, capped, self.delta)
        elif self.kind == "power_tail":
            values = np.minimum(
                self.amplitude * capped ** (-self.gamma0),
                _steady_values(params, capped, self.delta),
            )
        elif self.kind == "steady_deficit_tail":
            values = np.maximum(_steady_values(params, capped) - self.b * capped ** (-self.ell), 0.0)
        else:
            dent = self.b * np.exp(-((grid.octant_radius() / self.width) ** 2))
            values = np.maximum(_steady_values(params, capped) - dent, 0.0)
        if self.scale != 1.0:
            values *= self.scale
        return values


@dataclass(frozen=True)
class PotentialSpec:
    kappa: float | str = "from-p"
    delta: float | None = None

    def resolve(self, params: ModelParams, initial: InitialSpec | None = None) -> float:
        """Numeric coupling: literal value, p s^{p-1}, or (delta s)^{p-1}."""
        if isinstance(self.kappa, str):
            if self.kappa == "from-p":
                return kappa_from_params(params)
            if self.kappa == "from-delta":
                return kappa_from_delta(params, self.barrier_delta(initial))
            raise ValueError(f"unknown potential binding {self.kappa!r}")
        return float(self.kappa)

    def barrier_delta(self, initial: InitialSpec | None = None) -> float:
        """The delta of the barrier delta * u_inf: potential.delta, else
        the delta of a delta-bearing initial datum."""
        if self.delta is not None:
            return self.delta
        if initial is not None and initial.kind in _DELTA_KINDS:
            return initial.delta
        raise ValueError("needs a delta: potential.delta or a delta-bearing initial datum")


@dataclass(frozen=True)
class ExperimentConfig:
    params: ModelParams
    grid: GridSettings = GridSettings()
    time: TimeSettings = TimeSettings()
    initial: InitialSpec = InitialSpec(kind="zero")
    potential: PotentialSpec = PotentialSpec()

    def build_grid(self) -> Grid:
        return Grid(self.params.d, self.grid.n, self.grid.half_length)

    def initial_field(self) -> Field:
        return self.initial.build(self.build_grid(), self.params)

    def kappa(self) -> float:
        return self.potential.resolve(self.params, self.initial)

    def output_times(self) -> np.ndarray:
        """The dyadic schedule, or the listed times checked as the parser checks them."""
        if isinstance(self.time.output_schedule, str):
            if self.time.output_schedule != "dyadic":
                raise ValueError(f"unknown named schedule {self.time.output_schedule!r}")
            return dyadic_schedule(self.build_grid(), self.params.alpha, self.time.t_end)
        return _check_schedule(self.time.output_schedule, self.time.t_end)

    def to_dict(self) -> dict:
        """The JSON document: each section holds its dataclass fields, less
        those left unset and the initial ones its kind does not read."""
        kind = self.initial.kind
        initial = {"kind": kind}
        initial.update((key, getattr(self.initial, key)) for key in sorted(_INITIAL_KEYS[kind]))
        time = asdict(self.time)
        if not isinstance(time["output_schedule"], str):
            time["output_schedule"] = list(time["output_schedule"])
        return {
            "params": asdict(self.params),
            "grid": {"n": self.grid.n, "L": self.grid.half_length},
            "time": time,
            "initial": initial,
            "potential": {key: v for key, v in asdict(self.potential).items() if v is not None},
        }

    def config_hash(self) -> str:
        """sha256 of the canonical document, which is the whole computation."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return _sha256()(canonical.encode()).hexdigest()


def _sha256():
    """Python's builtin sha256 (_sha2 from 3.12, _sha256 before), imported
    on first use.  hashlib's is the fallback only: it maps OpenSSL's
    libcrypto, about 3.5 MB of RSS for one short digest."""
    for name in ("_sha2", "_sha256"):
        try:
            return importlib.import_module(name).sha256
        except ImportError:
            pass
    import hashlib

    return hashlib.sha256


# ---------------------------------------------------------------------------
# parsing

_POSITIVE = (False, lambda v: v > 0.0, "must be positive")
_NONNEGATIVE = (False, lambda v: v >= 0.0, "must be nonnegative")

# section -> numeric key -> (integer, condition, phrase): each key's type and
# range, declared once.  Range problems are reported in this order.
_NUMBERS = {
    "params": {
        "alpha": (False, lambda v: 0.0 < v < 2.0, "must lie in (0, 2)"),
        "d": (True, lambda v: v in (1, 2, 3), "must be 1, 2, or 3"),
        "p": (False, lambda v: v > 1.0, "must exceed 1"),
    },
    "grid": {
        "n": (True, lambda v: v >= 16 and not v & (v - 1), "must be a power of two >= 16"),
        "L": _POSITIVE,
    },
    "time": {
        "t_end": _POSITIVE,
        "eta": (False, lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
        "dt_max": _POSITIVE,
        "blowup_sup_threshold": _POSITIVE,
    },
    "initial": dict.fromkeys(("amplitude", "width", "delta", "gamma0", "ell"), _POSITIVE)
    | dict.fromkeys(("scale", "b"), _NONNEGATIVE),
    "potential": {"delta": _POSITIVE},
}

_INITIAL_KEYS = {
    "zero": set(),
    "gaussian": {"amplitude", "width", "scale"},
    "truncated_singular": {"delta", "scale"},
    "power_tail": {"amplitude", "gamma0", "delta", "scale"},
    "steady_deficit_tail": {"b", "ell", "scale"},
    "steady_deficit_bump": {"b", "width", "scale"},
}

# kinds whose delta stands in for a missing potential.delta
_DELTA_KINDS = tuple(kind for kind, keys in _INITIAL_KEYS.items() if "delta" in keys)

# kinds built from the singular steady profile, admissible only when it exists
_SINGULAR_KINDS = set(_INITIAL_KEYS) - {"zero", "gaussian"}


def _fields(cls) -> set:
    return {f.name for f in fields(cls)}


def _is_number(value, integer=False) -> bool:
    return not isinstance(value, bool) and isinstance(value, int if integer else (int, float))


def _finite(value) -> bool:
    """Whether a JSON number, Infinity, NaN and huge integers included, is a finite float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_keys(section: dict, allowed, where, errors):
    errors += [f"{where}: unknown key {key!r}" for key in section if key not in allowed]


def _section(doc, name, errors, allowed=None, required=False):
    """doc[name], keys outside allowed reported; an optional section that
    is missing or not an object reads as empty, a required one as None."""
    sect = doc.get(name, None if required else {})
    if isinstance(sect, dict):
        if allowed is not None:
            _check_keys(sect, allowed, name, errors)
        return sect
    if required:
        errors.append(f"{name}: required section missing or not an object")
        return None
    errors.append(f"{name}: must be an object")
    return {}


def _numbers(sect, name, errors, defaults=None):
    """The _NUMBERS keys of section name, read in the order of defaults;
    with no defaults every key is required.

    A missing key takes its default; a wrong type or a non-finite number is
    reported and takes the default.  A value out of range is kept and
    reported.
    """
    table = _NUMBERS[name]
    values = {}
    for key in table if defaults is None else defaults:
        if key not in table:
            continue
        integer = table[key][0]
        values[key] = None if defaults is None else defaults[key]
        if key not in sect:
            if defaults is None:
                errors.append(f"{name}: missing required key {key!r}")
        elif not _is_number(sect[key], integer):
            kind = "an integer" if integer else "a number"
            errors.append(f"{name}.{key}: expected {kind}, got {sect[key]!r}")
        elif not integer and not _finite(sect[key]):
            errors.append(f"{name}.{key}: must be finite, got {sect[key]}")
        else:
            values[key] = sect[key] if integer else float(sect[key])
    for key, (_, ok, phrase) in table.items():
        if values[key] is not None and not ok(values[key]):
            errors.append(f"{name}.{key}: {phrase}, got {values[key]}")
    return values


def _schedule(sect, t_end, errors):
    """time.output_schedule: "dyadic", or a tuple of positive increasing
    times up to t_end."""
    schedule = sect.get("output_schedule", "dyadic")
    if isinstance(schedule, str):
        if schedule != "dyadic":
            errors.append(f"time.output_schedule: unknown named schedule {schedule!r}")
    elif not isinstance(schedule, list):
        errors.append("time.output_schedule: must be 'dyadic' or a number list")
    elif not schedule or not all(_is_number(v) and _finite(v) for v in schedule):
        errors.append("time.output_schedule: must be a nonempty list of finite numbers")
    else:
        schedule = tuple(float(v) for v in schedule)
        try:
            _check_schedule(schedule, t_end)
        except ValueError as exc:
            errors.append(f"time.output_schedule: {exc}")
    return schedule


def _kappa(sect, errors):
    """potential.kappa: a nonnegative number or a binding name."""
    kappa = sect.get("kappa", "from-p")
    if kappa in ("from-p", "from-delta"):
        return kappa
    if isinstance(kappa, str):
        problem = f"must be a number, 'from-p', or 'from-delta', got {kappa!r}"
    elif not _is_number(kappa):
        problem = f"expected number or binding, got {kappa!r}"
    elif not _finite(kappa):
        problem = f"must be finite, got {kappa}"
    elif kappa < 0.0:
        problem = f"must be nonnegative, got {kappa}"
    else:
        return float(kappa)
    errors.append(f"potential.kappa: {problem}")
    return kappa


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document; raises ConfigError listing every
    problem found, not just the first."""
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be a JSON object"])
    errors: list[str] = []
    _check_keys(doc, _fields(ExperimentConfig), "top level", errors)
    params = initial = None

    sect = _section(doc, "params", errors, _NUMBERS["params"], required=True)
    values = None if sect is None else _numbers(sect, "params", errors)
    if not errors:  # the table's conditions are all that ModelParams checks
        params = ModelParams(**values)

    sect = _section(doc, "grid", errors, _NUMBERS["grid"])
    values = _numbers(sect, "grid", errors, {"n": GridSettings.n, "L": GridSettings.half_length})
    grid = GridSettings(n=values["n"], half_length=values["L"])

    sect = _section(doc, "time", errors, _fields(TimeSettings))
    values = _numbers(sect, "time", errors, vars(TimeSettings()))
    time = TimeSettings(output_schedule=_schedule(sect, values["t_end"], errors), **values)

    sect = _section(doc, "initial", errors, required=True)
    if sect is not None:
        kind = sect.get("kind")
        if not isinstance(kind, str) or kind not in _INITIAL_KEYS:
            errors.append(f"initial.kind: must be one of {sorted(_INITIAL_KEYS)}, got {kind!r}")
        else:
            _check_keys(sect, _INITIAL_KEYS[kind] | {"kind"}, "initial", errors)
            values = _numbers(sect, "initial", errors, vars(InitialSpec(kind)))
            initial = InitialSpec(kind, **values)
            if params is not None and kind in _SINGULAR_KINDS and not params.singular_regime:
                p_sg = critical_exponents(params.d, params.alpha)[1]
                errors.append(
                    f"initial.kind {kind!r} needs the singular steady state, which "
                    f"requires p > 1 + alpha/(d - alpha) = {p_sg}; got p = {params.p}"
                )

    sect = _section(doc, "potential", errors, _fields(PotentialSpec))
    kappa = _kappa(sect, errors)
    values = _numbers(sect, "potential", errors, vars(PotentialSpec()))
    potential = PotentialSpec(kappa=kappa, **values)
    if kappa == "from-delta":
        try:
            potential.barrier_delta(initial)
        except ValueError as exc:
            errors.append(f"potential.kappa 'from-delta' {exc}")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(params=params, grid=grid, time=time, initial=initial, potential=potential)


def parse_config(text: str) -> ExperimentConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from None
    return config_from_dict(doc)
