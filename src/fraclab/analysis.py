"""Experiment harness: power-law slope fits, the blowup-threshold
bisection, steady-approach rate checks, and closed-form tail envelopes.

Everything here consumes ExperimentConfig and the solver's RunRecord;
nothing mutates shared state.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from typing import NamedTuple

from . import np
from .config import ExperimentConfig, _finite, _is_number
from .constants import (
    ModelParams,
    kappa_from_delta,
    singular_amplitude,
    solve_sigma,
)
# thread_count stays imported while perfbench's tracer reads it from here
from .field import (WeightSpec, _far_field_radius, image_safe_horizon, norm,
                    octant_steady_state, octant_weight_values, thread_count)
from .morrey import MorreyQuery, morrey_norm
from .nonlinear_solver import Global, NumericalFailure, evolve


# ---------------------------------------------------------------------------
# power-law fitting


@dataclass(frozen=True)
class FitResult:
    """Least-squares slope of log(value) against log(time).

    Windows produced by this module sit inside the image-safe horizon;
    an explicit window is the caller's responsibility.
    """

    exponent: float
    stderr: float
    window: tuple
    n_points: int


def default_fit_window(times, grid, alpha: float) -> tuple:
    """Last time decade of the schedule inside the image-safe horizon."""
    times = np.asarray(times, dtype=float)
    horizon = image_safe_horizon(grid, alpha)
    usable = times[(times > 0.0) & (times <= horizon * (1.0 + 1e-12))]
    if usable.size == 0:
        raise ValueError(
            f"no positive schedule times inside the image-safe horizon {horizon:.6g}"
        )
    hi = float(usable.max())
    return (hi / 10.0, hi)


def _in_window(times: np.ndarray, window) -> np.ndarray:
    """Mask of the times inside window = (lo, hi), its ends widened by rounding."""
    return (times >= window[0] * (1.0 - 1e-12)) & (times <= window[1] * (1.0 + 1e-12))


def fit_power_law(times, values, window=None) -> FitResult:
    """Fit value = C t^a on the window; returns the slope a with its
    standard error from the fit residuals.

    A window that is not finite, fewer than 5 usable points, a single
    distinct time, or values in the window that are not finite or not
    positive raise ValueError.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise ValueError("times and values must be matching 1-d arrays")
    if window is None:
        if times.size == 0:
            raise ValueError("empty series")
        window = (float(times.min()), float(times.max()))
    lo, hi = float(window[0]), float(window[1])
    if not 0.0 < lo < hi < math.inf:
        raise ValueError(f"window must satisfy 0 < t_min < t_max < inf, got ({lo}, {hi})")
    sel = _in_window(times, (lo, hi))
    ts = times[sel]
    vs = values[sel]
    if ts.size < 5:
        raise ValueError(f"need at least 5 points in the fit window, got {ts.size}")
    if not np.all(np.isfinite(vs)):
        raise ValueError("values must be finite inside the fit window")
    if np.any(vs <= 0.0):
        raise ValueError("values must be positive inside the fit window")
    if ts.min() == ts.max():
        raise ValueError(f"the fit window holds one distinct time, {ts[0]}; a slope needs two")
    # polyfit scales the covariance by RSS/(n - 2), the slope's variance
    (slope, _), cov = np.polyfit(np.log(ts), np.log(vs), 1, cov=True)
    return FitResult(float(slope), math.sqrt(cov[0, 0]), (lo, hi), int(ts.size))


# ---------------------------------------------------------------------------
# sweep executor


def run_sweep(configs) -> list:
    """Evolve classify's probes one after another, each with evolve's
    certify: a Blowup run may end early at its box time, and a Global run
    on a 1-d lattice with alpha <= 1 and eta < 1 at the sup's ODE bound.

    It passes no worker count: a step that uses workers reads the
    process's (thread_count), and runs are deterministic per config, so
    any count yields the same records.  A small 1-d run is Python work
    that holds the interpreter lock, so a pool of runs would take turns.
    """
    return [evolve(cfg, certify=True) for cfg in configs]


# ---------------------------------------------------------------------------
# threshold bisection


class MonotonicityError(RuntimeError):
    """A Global verdict appeared above a Blowup amplitude; order
    preservation forbids that, so the solver (not the data) is wrong."""


@dataclass(frozen=True)
class ThresholdBracket:
    """Amplitude bracket around the global/blowup transition."""

    lambda_global: float
    lambda_blowup: float
    ratio: float
    morrey_global: float
    morrey_blowup: float


def _scaled(config: ExperimentConfig, lam: float) -> ExperimentConfig:
    initial = replace(config.initial, scale=config.initial.scale * lam)
    return replace(config, initial=initial)


def _verdict(record) -> str:
    if isinstance(record.status, NumericalFailure):
        raise RuntimeError(f"numerical failure during classification: {record.status.reason}")
    return "Global" if isinstance(record.status, Global) else "Blowup"


def _is_observation(entry) -> bool:
    """Whether a state file entry is an [amplitude, verdict] pair."""
    return (
        isinstance(entry, list) and len(entry) == 2 and _is_number(entry[0])
        and _finite(entry[0]) and entry[1] in ("Global", "Blowup")
    )


def _check_folder(path, what: str):
    """ValueError unless path is None or its directory exists: checked
    before a run whose results could not be written there."""
    folder = "" if path is None else os.path.dirname(os.fspath(path))
    if folder and not os.path.isdir(folder):
        raise ValueError(f"{what} {path}: directory {folder} does not exist")


class _ObservationLog:
    """Amplitude -> verdict cache, optionally persisted as JSON so an
    interrupted bisection resumes instead of recomputing."""

    def __init__(self, config_hash: str, path=None):
        self.config_hash = config_hash
        self.path = path
        self.seen = {}
        _check_folder(path, "state file")
        if path is not None and os.path.exists(path):
            with open(path) as fh:
                try:
                    state = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"state file {path} is not JSON: {exc}") from None
            observations = state.get("observations") if isinstance(state, dict) else None
            if not isinstance(observations, list) or not all(map(_is_observation, observations)):
                raise ValueError(
                    f"state file {path} must be an object whose observations are "
                    "[amplitude, 'Global' or 'Blowup'] pairs"
                )
            if state.get("config_hash") != config_hash:
                raise ValueError(
                    f"state file {path} belongs to config {state.get('config_hash')!r}, "
                    f"not {config_hash!r}"
                )
            for lam, kind in observations:
                if self.seen.setdefault(float(lam), kind) != kind:
                    raise ValueError(f"state file {path} records lambda = {lam} as both Global and Blowup")
            inversion = self._inversion()
            if inversion:
                raise ValueError(f"state file {path} contradicts itself: {inversion}")

    def record(self, lam: float, kind: str):
        self.seen[lam] = kind
        inversion = self._inversion()
        if inversion:
            raise MonotonicityError(f"{inversion}; order preservation is violated")
        if self.path is not None:
            state = {
                "config_hash": self.config_hash,
                "observations": sorted(self.seen.items()),
            }
            # a whole new file replaces the old one, so an interrupted write
            # leaves the previous state in place for the resume
            tmp = os.fspath(self.path) + ".tmp"
            try:
                with open(tmp, "w") as fh:
                    json.dump(state, fh, indent=2)
                os.replace(tmp, self.path)
            except BaseException:
                if os.path.exists(tmp):
                    os.remove(tmp)
                raise

    def _inversion(self) -> str | None:
        """Where a Global verdict lies above a Blowup one, or None."""
        globals_ = [lam for lam, kind in self.seen.items() if kind == "Global"]
        blowups = [lam for lam, kind in self.seen.items() if kind == "Blowup"]
        if globals_ and blowups and max(globals_) > min(blowups):
            return f"Global at lambda = {max(globals_):.6g} above Blowup at lambda = {min(blowups):.6g}"
        return None


_MAX_BISECTIONS = 40


def classify_threshold(
    config: ExperimentConfig,
    lambda_lo: float,
    lambda_hi: float,
    tol: float = 0.1,
    state_path=None,
    reverify: bool = True,
) -> ThresholdBracket:
    """Geometric bisection of the datum amplitude until the bracket
    ratio drops to 1 + tol.

    The endpoints must straddle the transition (lambda_lo Global,
    lambda_hi Blowup).  Every probe runs through run_sweep, so a Blowup
    probe ends once its box mean must blow up before t_end, and a Global
    one, where the lattice step is monotone, once the sup's ODE bound
    rules out blowup before t_end.  Every verdict lands in a monotonicity
    check; with reverify the final bracket is reclassified at halved eta.
    Returns the bracket with the Morrey norm of the scaled datum at
    both ends, at the critical index s = d (p - 1) / alpha.
    """
    params = config.params
    if not 0.0 < lambda_lo < lambda_hi:
        raise ValueError(f"need 0 < lambda_lo < lambda_hi, got ({lambda_lo}, {lambda_hi})")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if config.initial.kind == "zero":
        raise ValueError("cannot bisect amplitude on the zero datum")
    s_index = params.d * (params.p - 1.0) / params.alpha
    if not s_index > 1.0:
        raise ValueError(
            f"Morrey index d(p-1)/alpha = {s_index:.4g} needs p > 1 + alpha/d"
        )

    log = _ObservationLog(config.config_hash(), state_path)

    def observe(lams):
        missing = [lam for lam in lams if lam not in log.seen]
        records = run_sweep([_scaled(config, lam) for lam in missing])
        for lam, rec in zip(missing, records):
            log.record(lam, _verdict(rec))
        return [log.seen[lam] for lam in lams]

    lo_kind, hi_kind = observe([lambda_lo, lambda_hi])
    if lo_kind != "Global":
        raise ValueError(f"lambda_lo = {lambda_lo} classified {lo_kind}; bracket must straddle")
    if hi_kind != "Blowup":
        raise ValueError(f"lambda_hi = {lambda_hi} classified {hi_kind}; bracket must straddle")

    lo, hi = lambda_lo, lambda_hi
    for _ in range(_MAX_BISECTIONS):
        if hi / lo <= 1.0 + tol:
            break
        mid = math.sqrt(lo * hi)
        (kind,) = observe([mid])
        if kind == "Global":
            lo = mid
        else:
            hi = mid
    else:
        raise RuntimeError(f"bracket ratio {hi / lo:.4g} after {_MAX_BISECTIONS} iterations")

    if reverify:
        timing = replace(config.time, eta=config.time.eta / 2.0)
        fine = replace(config, time=timing)
        checks = run_sweep([_scaled(fine, lo), _scaled(fine, hi)])
        kinds = [_verdict(rec) for rec in checks]
        if kinds != ["Global", "Blowup"]:
            raise RuntimeError(
                f"bracket unstable under halved eta: got {kinds[0]}/{kinds[1]} "
                f"at lambda = {lo:.6g}/{hi:.6g}"
            )

    # at q = 1 the Morrey norm is linear in the amplitude: one estimate serves both ends
    unit = morrey_norm(config.initial_field(), MorreyQuery(s=s_index, q=1.0))
    return ThresholdBracket(lo, hi, hi / lo, lo * unit, hi * unit)


# ---------------------------------------------------------------------------
# steady-state deficit runs

# The capped steady sample is not a discrete fixed point: its core cell
# drifts by O(1) under the splitting scheme, self-similarly in h.  All
# deficit measurements therefore compare against a reference run started
# from the b = 0 datum, which cancels that shared background exactly.


@dataclass(frozen=True)
class DeficitEvolution:
    """Reference-minus-run differences at the schedule times inside the
    image-safe horizon, each an octant (see field.fold; field.norm measures
    it); floor, 1e-13 of the steady sup, is their rounding."""

    times: np.ndarray
    deficits: tuple
    reference_drift: float
    floor: float


def _horizon_run(config: ExperimentConfig, reduce, label: str = "run"):
    """Evolve config; return the output times in (0, image-safe horizon]
    as an array, and the list of reduce(t, octant) at those outputs.

    The run must stay Global and reach at least one such output.
    """
    horizon = image_safe_horizon(config.build_grid(), config.params.alpha)
    times, reduced = [], []

    def hook(k, t, octant):
        if 0.0 < t <= horizon * (1.0 + 1e-12):
            times.append(t)
            reduced.append(reduce(t, octant))

    record = evolve(config, on_output=hook)
    if not isinstance(record.status, Global):
        raise RuntimeError(f"{label} did not stay global: {record.status_dict()}")
    if not times:
        raise ValueError("no schedule times inside the image-safe horizon")
    return np.array(times), reduced


def deficit_evolution(config: ExperimentConfig) -> DeficitEvolution:
    """Run the b = 0 twin of config, then config; returns w(t) = u_ref(t) - u(t).

    Both runs must stay global.  The reference run holds only its output
    octants inside the horizon until the deficit run subtracts them; each
    deficit is the octants' difference.
    reference_drift records how far the reference trajectory moves off the
    steady sample in sup norm, relative to the sample's sup.
    """
    if config.initial.kind not in ("steady_deficit_tail", "steady_deficit_bump"):
        raise ValueError(
            f"needs a steady-deficit initial datum, got {config.initial.kind!r}"
        )
    sample = octant_steady_state(config.build_grid(), config.params)
    sample_sup = float(np.max(sample))
    reference = replace(config, initial=replace(config.initial, b=0.0))
    _, held = _horizon_run(reference, lambda t, ref: ref, "reference run")
    drift = max(float(np.max(np.abs(ref - sample))) / sample_sup for ref in held)
    held.reverse()  # popped in output order, each as the deficit run subtracts it
    times, deficits = _horizon_run(config, lambda t, u: held.pop() - u, "deficit run")
    return DeficitEvolution(times, tuple(deficits), drift, 1e-13 * sample_sup)


def _monotone(series) -> bool:
    series = np.asarray(series)
    slack = 1e-9 * float(np.max(series, initial=0.0))
    return bool(np.all(np.diff(series) <= slack))


@dataclass(frozen=True)
class ConvergenceRates:
    """Inner/outer approach rates toward the steady state.

    Fits are None in the at_floor (b = 0) and ell = sigma modes; the
    monotone flags are evaluated over the fit window either way.
    """

    inner: FitResult | None
    outer: FitResult | None
    times: np.ndarray
    inner_sup: np.ndarray
    outer_sup: np.ndarray
    sigma: float
    ell: float
    inner_monotone: bool
    outer_monotone: bool
    at_floor: bool
    reference_drift: float


def singular_convergence_rates(config: ExperimentConfig) -> ConvergenceRates:
    """Measure how a tail deficit closes: fits sup_{r <= t^{1/a}} r^s w
    against -(ell - sigma)/alpha and sup_{t^{1/a} <= r <= L/4} w against
    -ell/alpha, with w the reference-minus-run difference.

    At ell = sigma the rates degenerate and the check becomes monotone
    decrease of both series; at b = 0 both series sit at the rounding
    floor and no fit is attempted.
    """
    if config.initial.kind != "steady_deficit_tail":
        raise ValueError(
            f"needs a steady_deficit_tail initial datum, got {config.initial.kind!r}"
        )
    params = config.params
    sigma = solve_sigma(config.kappa(), params.d, params.alpha)
    ell = config.initial.ell
    if not sigma <= ell < params.d - sigma:
        raise ValueError(
            f"ell must lie in [sigma, d - sigma) = [{sigma:.6g}, {params.d - sigma:.6g}), "
            f"got {ell}"
        )

    grid = config.build_grid()
    rc = grid.octant_capped_radius()
    run = deficit_evolution(config)
    inner_sup = np.empty(run.times.size)
    outer_sup = np.empty(run.times.size)
    for i, (t, w) in enumerate(zip(run.times, run.deficits)):
        edge = t ** (1.0 / params.alpha)
        inner = rc <= edge
        outer = (rc >= edge) & (rc <= _far_field_radius(grid))
        if not inner.any() or not outer.any():
            raise ValueError(f"fit region empty at t = {t:.6g}; window collapsed")
        inner_sup[i] = np.max(rc[inner] ** sigma * w[inner])
        outer_sup[i] = np.max(w[outer])

    window = default_fit_window(run.times, grid, params.alpha)
    in_window = _in_window(run.times, window)
    at_floor = max(inner_sup.max(), outer_sup.max()) <= run.floor
    degenerate = abs(ell - sigma) <= 1e-12
    if at_floor or degenerate:
        inner_fit = outer_fit = None
    else:
        inner_fit = fit_power_law(run.times, inner_sup, window)
        outer_fit = fit_power_law(run.times, outer_sup, window)
    return ConvergenceRates(
        inner=inner_fit,
        outer=outer_fit,
        times=run.times,
        inner_sup=inner_sup,
        outer_sup=outer_sup,
        sigma=sigma,
        ell=ell,
        inner_monotone=_monotone(inner_sup[in_window]),
        outer_monotone=_monotone(outer_sup[in_window]),
        at_floor=at_floor,
        reference_drift=run.reference_drift,
    )


def l2_stability_check(config: ExperimentConfig) -> FitResult:
    """Fit the L^2 decay of a bump deficit; the expected slope is
    -(d - 2 sigma)/(2 alpha).

    Raises if the difference dips negative beyond rounding (order
    preservation must hold between the run and its reference, from the
    first resolved time 4 h^alpha of field.dyadic_schedule; before it the
    lattice kernel rings), if the series is not monotone non-increasing on
    the fit window, or if the deficit sits at the rounding floor (b = 0:
    nothing to fit).
    """
    if config.initial.kind != "steady_deficit_bump":
        raise ValueError(
            f"needs a steady_deficit_bump initial datum, got {config.initial.kind!r}"
        )
    grid = config.build_grid()
    run = deficit_evolution(config)
    values = np.array([norm(grid, w, 2.0) for w in run.deficits])

    peak = max(float(np.max(np.abs(w))) for w in run.deficits)
    if peak <= run.floor:
        raise ValueError("deficit at the rounding floor; no rate to fit")
    minima = np.array([np.min(w) for w in run.deficits])
    k = int(np.argmin(minima))
    if minima[k] < -1e-6 * peak:
        t0 = 4.0 * grid.h ** config.params.alpha  # dyadic_schedule's first resolved time
        resolved_dip = np.any(minima[run.times >= t0] < -1e-6 * peak)
        cause = "the run overtook its reference" if resolved_dip else (
            f"at t = {run.times[k]:.3g}, before 4 h^alpha = {t0:.3g}, the lattice kernel is under-resolved")
        raise RuntimeError(f"deficit went negative ({minima[k]:.3g} against peak {peak:.3g}); {cause}")
    window = default_fit_window(run.times, grid, config.params.alpha)
    in_window = _in_window(run.times, window)
    if not _monotone(values[in_window]):
        raise RuntimeError("L2 deficit is not monotone non-increasing on the fit window")
    return fit_power_law(run.times, values, window)


# ---------------------------------------------------------------------------
# weighted decay of small data


def weighted_decay_check(config: ExperimentConfig) -> dict:
    """Fit ||u(t)||_{q, phi_sigma(t)} for q in 1, 2, inf; the expected slope is
    -(d/alpha)(1 - 1/q), with sigma solved from kappa_delta = (delta s)^{p-1}.

    The datum must sit below delta * u_inf pointwise (the barrier class
    for global existence of small data); delta comes from the potential
    section, falling back to the initial section where it has one.
    """
    params = config.params
    delta = config.potential.barrier_delta(config.initial)
    sigma = solve_sigma(kappa_from_delta(params, delta), params.d, params.alpha)

    grid = config.build_grid()
    barrier = delta * octant_steady_state(grid, params)
    excess = float(np.max(config.initial.build_octant(grid, params) - barrier))
    if excess > 1e-12 * float(np.max(barrier)):
        raise ValueError(
            f"datum exceeds delta * u_inf by {excess:.3g}; outside the barrier class"
        )

    qs = (1.0, 2.0, math.inf)

    def measure(t, octant):
        phi = octant_weight_values(grid, WeightSpec(sigma, t, params.alpha))
        return [norm(grid, octant, q, phi) for q in qs]

    times, norms = _horizon_run(config, measure)
    window = default_fit_window(times, grid, params.alpha)
    return {q: fit_power_law(times, series, window) for q, series in zip(qs, zip(*norms))}


# ---------------------------------------------------------------------------
# tail-deficit envelope


class EnvelopeMax(NamedTuple):
    radius: float
    value: float


def envelope_max(params: ModelParams, b: float, ell: float, sigma: float, t: float) -> EnvelopeMax:
    """Closed-form maximum of s r^{-m} - b t^{(sigma-ell)/alpha} r^{-sigma}.

    Needs sigma (p - 1) > alpha (so the dent is steeper than the steady
    tail and an interior maximum exists) and ell >= sigma.  The argmax
    grows like t^{(sigma-ell)(p-1)/(alpha(sigma(p-1)-alpha))} and the
    maximum like t^{(ell-sigma)/(sigma(p-1)-alpha)}; at ell = sigma both
    are t-free.
    """
    m = params.alpha / (params.p - 1.0)
    if not sigma * (params.p - 1.0) > params.alpha:
        raise ValueError(
            f"need sigma (p - 1) > alpha, got {sigma * (params.p - 1.0):.6g} "
            f"vs {params.alpha}"
        )
    if not ell >= sigma:
        raise ValueError(f"need ell >= sigma, got ell = {ell} < sigma = {sigma}")
    if not b > 0.0:
        raise ValueError(f"b must be positive, got {b}")
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    s = singular_amplitude(params)
    btilde = b * t ** ((sigma - ell) / params.alpha)
    radius = (sigma * btilde / (m * s)) ** (1.0 / (sigma - m))
    value = s * (1.0 - m / sigma) * radius ** (-m)
    return EnvelopeMax(radius=float(radius), value=float(value))
