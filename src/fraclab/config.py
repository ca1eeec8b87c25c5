"""Experiment configuration: JSON parsing, whole-document validation,
canonical serialization, and the config hash embedded in outputs.

Validation collects every error before failing, and unknown keys are
rejected at all levels so sweep generators fail loudly on typos.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .constants import (
    ModelParams,
    critical_exponents,
    kappa_from_delta,
    kappa_from_params,
)
from .field import (
    Field,
    GaussianDatum,
    Grid,
    PowerTailDatum,
    SteadyBumpDeficitDatum,
    SteadyTailDeficitDatum,
    TruncatedSingularDatum,
    octant_sample,
    sample,
)


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

    def datum(self, params: ModelParams):
        """The field datum of this kind, None for "zero"."""
        if self.kind == "zero":
            return None
        if self.kind == "gaussian":
            return GaussianDatum(amplitude=self.amplitude, width=self.width)
        if self.kind == "truncated_singular":
            return TruncatedSingularDatum(params, delta=self.delta)
        if self.kind == "power_tail":
            return PowerTailDatum(
                params, amplitude=self.amplitude, gamma0=self.gamma0, delta=self.delta
            )
        if self.kind == "steady_deficit_tail":
            return SteadyTailDeficitDatum(params, b=self.b, ell=self.ell)
        if self.kind == "steady_deficit_bump":
            return SteadyBumpDeficitDatum(params, b=self.b, width=self.width)
        raise ValueError(f"unknown initial kind {self.kind!r}")

    def build(self, grid: Grid, params: ModelParams) -> Field:
        """The scaled datum on the lattice."""
        datum = self.datum(params)
        if datum is None:
            return Field._adopt(grid, np.zeros(grid.shape))
        out = sample(grid, datum)
        if self.scale == 1.0:
            return out
        return Field._adopt(grid, self.scale * out.values)

    def build_octant(self, grid: Grid, params: ModelParams) -> np.ndarray:
        """build on the octant (see field.fold), as a new array equal to
        the fold of build's values bit for bit."""
        datum = self.datum(params)
        if datum is None:
            return np.zeros((grid.n // 2 + 1,) * grid.d)
        values = octant_sample(grid, datum)
        if self.scale != 1.0:
            values *= self.scale
        return values


@dataclass(frozen=True)
class PotentialSpec:
    kappa: float | str = "from-p"
    delta: float | None = None
    cap_radius: float | None = None

    def resolve(self, params: ModelParams, initial: InitialSpec | None = None) -> float:
        """Numeric coupling: literal value, p s^{p-1}, or (delta s)^{p-1}."""
        if isinstance(self.kappa, str):
            if self.kappa == "from-p":
                return kappa_from_params(params)
            if self.kappa == "from-delta":
                delta = self.delta
                if delta is None and initial is not None and initial.kind in _DELTA_KINDS:
                    delta = initial.delta
                if delta is None:
                    raise ValueError("potential 'from-delta' needs a delta")
                return kappa_from_delta(params, delta)
            raise ValueError(f"unknown potential binding {self.kappa!r}")
        return float(self.kappa)


@dataclass(frozen=True)
class OutputSettings:
    csv_path: str | None = None
    snapshot_dir: str | None = None
    snapshot_every: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    params: ModelParams
    grid: GridSettings = GridSettings()
    time: TimeSettings = TimeSettings()
    initial: InitialSpec = InitialSpec(kind="zero")
    potential: PotentialSpec = PotentialSpec()
    outputs: OutputSettings = OutputSettings()

    def build_grid(self) -> Grid:
        return Grid(self.params.d, self.grid.n, self.grid.half_length)

    def initial_field(self, grid: Grid | None = None) -> Field:
        return self.initial.build(grid or self.build_grid(), self.params)

    def kappa(self) -> float:
        return self.potential.resolve(self.params, self.initial)

    def output_times(self, grid: Grid | None = None) -> np.ndarray:
        if isinstance(self.time.output_schedule, str):
            from .linear_propagators import dyadic_schedule

            grid = grid or self.build_grid()
            return dyadic_schedule(grid, self.params.alpha, self.time.t_end)
        return np.asarray(self.time.output_schedule, dtype=float)

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
            # an unset path is None and an unset snapshot_every is 0
            "outputs": {key: v for key, v in asdict(self.outputs).items() if v not in (None, 0)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def config_hash(self) -> str:
        """sha256 of the canonical document, outputs section excluded:
        the hash identifies the computation, not where it is saved."""
        doc = self.to_dict()
        doc.pop("outputs", None)
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# parsing


def _check_keys(section: dict, allowed, where, errors):
    for key in section:
        if key not in allowed:
            errors.append(f"{where}: unknown key {key!r}")


def _number(section, key, where, errors, default=None, required=False):
    if key not in section:
        if required:
            errors.append(f"{where}: missing required key {key!r}")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.append(f"{where}.{key}: expected a number, got {value!r}")
        return default
    if not math.isfinite(value):  # json.loads reads Infinity and NaN
        errors.append(f"{where}.{key}: must be finite, got {value}")
        return default
    return float(value)


def _integer(section, key, where, errors, default=None, required=False):
    if key not in section:
        if required:
            errors.append(f"{where}: missing required key {key!r}")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        errors.append(f"{where}.{key}: expected an integer, got {value!r}")
        return default
    return value


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
_SINGULAR_KINDS = (
    "truncated_singular",
    "power_tail",
    "steady_deficit_tail",
    "steady_deficit_bump",
)


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document; raises ConfigError listing every
    problem found, not just the first."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be a JSON object"])
    _check_keys(doc, {"params", "grid", "time", "initial", "potential", "outputs"},
                "top level", errors)

    # params (required)
    params = None
    alpha = d = p = None
    sect = doc.get("params")
    if not isinstance(sect, dict):
        errors.append("params: required section missing or not an object")
    else:
        _check_keys(sect, {"alpha", "d", "p"}, "params", errors)
        alpha = _number(sect, "alpha", "params", errors, required=True)
        d = _integer(sect, "d", "params", errors, required=True)
        p = _number(sect, "p", "params", errors, required=True)
        if alpha is not None and not 0.0 < alpha < 2.0:
            errors.append(f"params.alpha: must lie in (0, 2), got {alpha}")
        if d is not None and d not in (1, 2, 3):
            errors.append(f"params.d: must be 1, 2, or 3, got {d}")
        if p is not None and not p > 1.0:
            errors.append(f"params.p: must exceed 1, got {p}")
        if not errors:
            try:
                params = ModelParams(alpha=alpha, d=d, p=p)
            except ValueError as exc:
                errors.append(f"params: {exc}")

    # grid
    sect = doc.get("grid", {})
    grid = GridSettings()
    if not isinstance(sect, dict):
        errors.append("grid: must be an object")
    else:
        _check_keys(sect, {"n", "L"}, "grid", errors)
        n = _integer(sect, "n", "grid", errors, default=grid.n)
        L = _number(sect, "L", "grid", errors, default=grid.half_length)
        if n is not None and (n < 16 or n & (n - 1)):
            errors.append(f"grid.n: must be a power of two >= 16, got {n}")
        if L is not None and not L > 0.0:
            errors.append(f"grid.L: must be positive, got {L}")
        if n is not None and L is not None:
            grid = GridSettings(n=n, half_length=L)

    # time
    sect = doc.get("time", {})
    time = TimeSettings()
    if not isinstance(sect, dict):
        errors.append("time: must be an object")
    else:
        _check_keys(
            sect,
            {"t_end", "eta", "dt_max", "blowup_sup_threshold", "output_schedule"},
            "time",
            errors,
        )
        t_end = _number(sect, "t_end", "time", errors, default=time.t_end)
        eta = _number(sect, "eta", "time", errors, default=time.eta)
        dt_max = _number(sect, "dt_max", "time", errors, default=time.dt_max)
        threshold = _number(
            sect, "blowup_sup_threshold", "time", errors,
            default=time.blowup_sup_threshold,
        )
        schedule = sect.get("output_schedule", "dyadic")
        if t_end is not None and not t_end > 0.0:
            errors.append(f"time.t_end: must be positive, got {t_end}")
        if eta is not None and not 0.0 < eta <= 1.0:
            errors.append(f"time.eta: must lie in (0, 1], got {eta}")
        if dt_max is not None and not dt_max > 0.0:
            errors.append(f"time.dt_max: must be positive, got {dt_max}")
        if threshold is not None and not threshold > 0.0:
            errors.append(f"time.blowup_sup_threshold: must be positive, got {threshold}")
        if isinstance(schedule, str):
            if schedule != "dyadic":
                errors.append(
                    f"time.output_schedule: unknown named schedule {schedule!r}"
                )
        elif isinstance(schedule, list):
            ok = all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                for v in schedule
            )
            if not ok or len(schedule) == 0:
                errors.append("time.output_schedule: must be a nonempty list of finite numbers")
            else:
                ts = [float(v) for v in schedule]
                if not all(b > a for a, b in zip(ts, ts[1:])) or ts[0] <= 0.0:
                    errors.append(
                        "time.output_schedule: times must be positive and strictly increasing"
                    )
                elif t_end is not None and ts[-1] > t_end * (1 + 1e-12):
                    errors.append(
                        f"time.output_schedule: last time {ts[-1]} exceeds t_end {t_end}"
                    )
                else:
                    schedule = tuple(ts)
        else:
            errors.append("time.output_schedule: must be 'dyadic' or a number list")
        if not [e for e in errors if e.startswith("time")]:
            time = TimeSettings(
                t_end=t_end,
                eta=eta,
                dt_max=dt_max,
                blowup_sup_threshold=threshold,
                output_schedule=schedule if not isinstance(schedule, list) else tuple(schedule),
            )

    # initial (required)
    initial = None
    sect = doc.get("initial")
    if not isinstance(sect, dict):
        errors.append("initial: required section missing or not an object")
    else:
        kind = sect.get("kind")
        if kind not in _INITIAL_KEYS:
            errors.append(
                f"initial.kind: must be one of {sorted(_INITIAL_KEYS)}, got {kind!r}"
            )
        else:
            _check_keys(sect, _INITIAL_KEYS[kind] | {"kind"}, "initial", errors)
            defaults = InitialSpec(kind=kind)
            amplitude = _number(sect, "amplitude", "initial", errors, defaults.amplitude)
            width = _number(sect, "width", "initial", errors, defaults.width)
            delta = _number(sect, "delta", "initial", errors, defaults.delta)
            gamma0 = _number(sect, "gamma0", "initial", errors, defaults.gamma0)
            b = _number(sect, "b", "initial", errors, defaults.b)
            ell = _number(sect, "ell", "initial", errors, defaults.ell)
            scale = _number(sect, "scale", "initial", errors, defaults.scale)
            for name, value in (
                ("amplitude", amplitude),
                ("width", width),
                ("delta", delta),
                ("gamma0", gamma0),
                ("ell", ell),
            ):
                if value is not None and not value > 0.0:
                    errors.append(f"initial.{name}: must be positive, got {value}")
            for name, value in (("scale", scale), ("b", b)):
                if value is not None and value < 0.0:
                    errors.append(f"initial.{name}: must be nonnegative, got {value}")
            initial = InitialSpec(
                kind=kind, amplitude=amplitude, width=width,
                delta=delta, gamma0=gamma0, b=b, ell=ell, scale=scale,
            )
            if (
                params is not None
                and kind in _SINGULAR_KINDS
                and not params.singular_regime
            ):
                p_sg = critical_exponents(params.d, params.alpha)[1]
                errors.append(
                    f"initial.kind {kind!r} needs the singular steady state, which "
                    f"requires p > 1 + alpha/(d - alpha) = {p_sg}; got p = {params.p}"
                )

    # potential
    sect = doc.get("potential", {})
    potential = PotentialSpec()
    if not isinstance(sect, dict):
        errors.append("potential: must be an object")
    else:
        _check_keys(sect, {"kappa", "delta", "cap_radius"}, "potential", errors)
        kappa = sect.get("kappa", "from-p")
        if isinstance(kappa, str):
            if kappa not in ("from-p", "from-delta"):
                errors.append(
                    f"potential.kappa: must be a number, 'from-p', or 'from-delta', got {kappa!r}"
                )
        elif isinstance(kappa, bool) or not isinstance(kappa, (int, float)):
            errors.append(f"potential.kappa: expected number or binding, got {kappa!r}")
        elif not math.isfinite(kappa):
            errors.append(f"potential.kappa: must be finite, got {kappa}")
        elif kappa < 0.0:
            errors.append(f"potential.kappa: must be nonnegative, got {kappa}")
        else:
            kappa = float(kappa)
        delta = _number(sect, "delta", "potential", errors, default=None)
        cap = _number(sect, "cap_radius", "potential", errors, default=None)
        if delta is not None and not delta > 0.0:
            errors.append(f"potential.delta: must be positive, got {delta}")
        if cap is not None and not cap > 0.0:
            errors.append(f"potential.cap_radius: must be positive, got {cap}")
        if kappa == "from-delta" and delta is None:
            if initial is None or initial.kind not in _DELTA_KINDS:
                errors.append(
                    "potential.kappa 'from-delta' needs potential.delta or a "
                    "delta-bearing initial datum"
                )
        potential = PotentialSpec(kappa=kappa, delta=delta, cap_radius=cap)

    # outputs
    sect = doc.get("outputs", {})
    outputs = OutputSettings()
    if not isinstance(sect, dict):
        errors.append("outputs: must be an object")
    else:
        _check_keys(sect, {"csv_path", "snapshot_dir", "snapshot_every"}, "outputs", errors)
        csv_path = sect.get("csv_path")
        snapshot_dir = sect.get("snapshot_dir")
        snapshot_every = _integer(sect, "snapshot_every", "outputs", errors, default=0)
        if csv_path is not None and not isinstance(csv_path, str):
            errors.append("outputs.csv_path: must be a string")
        if snapshot_dir is not None and not isinstance(snapshot_dir, str):
            errors.append("outputs.snapshot_dir: must be a string")
        if snapshot_every is not None and snapshot_every < 0:
            errors.append(
                f"outputs.snapshot_every: must be nonnegative, got {snapshot_every}"
            )
        outputs = OutputSettings(
            csv_path=csv_path if isinstance(csv_path, str) else None,
            snapshot_dir=snapshot_dir if isinstance(snapshot_dir, str) else None,
            snapshot_every=snapshot_every or 0,
        )

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        params=params, grid=grid, time=time,
        initial=initial, potential=potential, outputs=outputs,
    )


def parse_config(text: str) -> ExperimentConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from None
    return config_from_dict(doc)
