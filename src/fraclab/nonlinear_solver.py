"""Adaptive splitting integrator for u_t = -(-Laplace)^{alpha/2} u + |u|^{p-1} u.

The reaction substep is solved in closed form, so a blowup inside a step is
detected exactly at the denominator's pole rather than by overflow.  Steps
are Strang-symmetric (half reaction, diffusion, half reaction) and the step
size tracks the reaction's own time scale.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import ExperimentConfig, InitialSpec
from .constants import ModelParams, kappa_from_params
from .field import (
    Field,
    Grid,
    _far_field_radius,
    dyadic_schedule,
    heat_propagate,
    image_safe_horizon,
    multiplicity,
    norm,
    octant_steady_state,
    propagator,
)
from .linear_propagators import HardyOperatorSpec, _strang_intervals

DT_UNDERFLOW = 1e-12  # of the first step, so a dt-underflow Blowup scales with the run


# ---------------------------------------------------------------------------
# run status


@dataclass(frozen=True)
class Global:
    horizon: float


@dataclass(frozen=True)
class Blowup:
    t_star: float


@dataclass(frozen=True)
class NumericalFailure:
    reason: str


@dataclass
class RunRecord:
    """Norm trajectories at the output schedule plus the run's verdict.

    evolve records one row (t, sup, L2, mass, min, dt) per output, t = 0
    first; the six arrays are that table's columns.
    """

    times: np.ndarray
    sup_norm: np.ndarray
    l2_norm: np.ndarray
    mass: np.ndarray
    min_value: np.ndarray
    dt: np.ndarray
    status: Global | Blowup | NumericalFailure
    monitor_maxima: dict
    # evolve hands outputs to on_output and leaves this None; it stays
    # while perfbench's tracer reads it
    snapshots: list | None = None

    def status_dict(self) -> dict:
        return {"kind": type(self.status).__name__, **asdict(self.status)}

    def rows(self):
        return list(zip(self.times, self.sup_norm, self.l2_norm, self.mass, self.min_value, self.dt))


# ---------------------------------------------------------------------------
# substeps


def _room(v, dt: float, p: float):
    """1 - (p-1) dt |v|^{p-1}, the flow's distance to its pole, on a numpy
    scalar or an array.  The pole checks and _flow share it, and powers go
    through the ufuncs (a scalar ** takes another code path), so a value
    that passes a check is flowed with the same positive denominator."""
    g = abs(v)
    if p == 3.0:
        g *= g
    elif p != 2.0:
        g = np.power(g, p - 1.0)
    g *= -(p - 1.0) * dt
    g += 1.0
    return g


def _flow(v, dt: float, p: float):
    """u(dt) for u' = |u|^{p-1} u from u(0) = v, short of the pole: on a
    numpy scalar, or in place on an array.  The flow is odd and monotone."""
    g = _room(v, dt, p)
    if p == 3.0:
        g = np.sqrt(g)
    elif p != 2.0:
        g = np.power(g, 1.0 / (p - 1.0))
    v /= g
    return v


def _reaction(values: np.ndarray, dt: float, p: float, peak: float):
    """Reaction substep in place; None signals a pole inside the step.

    peak is max |values| as a numpy scalar: by monotonicity the pole check
    is one scalar, computed by the same numpy arithmetic as the array.  A
    NaN peak is corruption, not a pole, and raises instead.
    """
    if math.isnan(peak):
        raise FloatingPointError("non-finite reaction input")
    if _room(peak, dt, p) <= 0.0:  # inf lands here: the pole was reached
        return None
    return _flow(values, dt, p)


def _diffuse(values: np.ndarray, grid: Grid, dt: float, alpha: float) -> np.ndarray:
    """Diffusion substep on evolve's octant state; the propagator reads its layout from the shape."""
    return propagator(grid, alpha)(values, dt)


# ---------------------------------------------------------------------------
# monitors: evolve calls observe(dt, values) with the octant state (see fold)
# once at t = 0 with dt = 0, then after each accepted step of size dt


class BarrierMonitor:
    """Accumulates the worst relative barrier exceedance along a run.

    The barrier is "singular", the steady state u_inf, or an InitialSpec,
    whose datum on the grid is the barrier (a power_tail one gives the
    two-branch min(A |x|^{-gamma0}, delta u_inf)).  Radii beyond r_max are
    excluded: on a torus the far field picks up mass from periodic images
    that the barrier does not account for.  The default keeps |x| <= L/4.
    """

    def __init__(self, grid: Grid, params: ModelParams, barrier="singular",
                 r_max: float | None = None):
        if grid.d != params.d:
            raise ValueError(f"grid dimension {grid.d} does not match params.d = {params.d}")
        if r_max is None:
            r_max = _far_field_radius(grid)
        self._mask = grid.octant_radius() <= r_max
        if not self._mask.any():
            raise ValueError(f"no grid points inside radius {r_max}")
        if barrier == "singular":
            values = octant_steady_state(grid, params)
        elif isinstance(barrier, InitialSpec):
            values = barrier.build_octant(grid, params)
        else:
            raise TypeError(f"barrier must be 'singular' or an InitialSpec, got {barrier!r}")
        self._barrier = values[self._mask]
        if not np.all(self._barrier > 0.0):  # observe divides by it
            raise ValueError(f"the barrier is not positive at every grid point inside radius {r_max}")
        self.max_violation = 0.0

    def observe(self, dt: float, values: np.ndarray):
        b = self._barrier
        v = float(np.max((values[self._mask] - b) / b))
        if v > self.max_violation:
            self.max_violation = v

    def maxima(self) -> dict:
        return {"barrier_violation": self.max_violation}


class SandwichMonitor:
    """Checks 0 <= u_inf - u <= e^{-tH}(u_inf - u_0) along a run.

    u_0 is the state of the first observation, which evolve makes at
    t = 0 with its own datum; a datum above the steady state raises there.
    Each later observation first steps the linear majorant by its dt, so
    it is co-evolved with the same steps as u, with kappa = p s^{p-1} (the
    coupling of the linearization around u_inf).
    Violations are measured on an annulus: the capped core cell under-feeds
    the potential and its wake is a discretization artifact, while radii
    near L carry periodic-image contamination.  Defaults keep
    32 h <= |x| <= L/4.
    """

    def __init__(self, grid: Grid, params: ModelParams, r_min: float | None = None,
                 r_max: float | None = None):
        if grid.d != params.d:
            raise ValueError(f"grid dimension {grid.d} does not match params.d = {params.d}")
        self._uinf = octant_steady_state(grid, params)
        self._v = None
        self._grid = grid
        self._spec = HardyOperatorSpec(params.alpha, params.d, kappa_from_params(params))
        if r_min is None:
            r_min = 32.0 * grid.h
        if r_max is None:
            r_max = _far_field_radius(grid)
        r = grid.octant_radius()
        self._mask = (r >= r_min) & (r <= r_max)
        if not self._mask.any():
            raise ValueError(f"empty monitor annulus [{r_min}, {r_max}]")
        self.max_lower = 0.0
        self.max_upper = 0.0

    def observe(self, dt: float, values: np.ndarray):
        uinf = self._uinf
        if self._v is None:
            if float(np.max(values - uinf)) > 1e-12 * float(np.max(uinf)):
                raise ValueError("sandwich monitor needs a datum below the steady state")
            self._v = uinf - values
        else:
            ((_, self._v),) = _strang_intervals(self._v, self._grid, self._spec, (dt,), 1)
        m = self._mask
        lower = float(np.max((values[m] - uinf[m]) / uinf[m]))
        upper = float(np.max((uinf[m] - values[m] - self._v[m]) / uinf[m]))
        if lower > self.max_lower:
            self.max_lower = lower
        if upper > self.max_upper:
            self.max_upper = upper

    def maxima(self) -> dict:
        return {
            "sandwich_violation_lower": self.max_lower,
            "sandwich_violation_upper": self.max_upper,
        }


# ---------------------------------------------------------------------------
# the integrator


def evolve(
    config: ExperimentConfig,
    monitors=(),
    on_output=None,
    *,
    certify: bool = False,
) -> RunRecord:
    """Integrate to the horizon, recording norms on the output schedule.

    dt = min(dt_max, eta / ((p-1) sup^{p-1})) tracks the reaction time
    scale; classification is Blowup on a reaction pole, on sup passing the
    configured threshold, or on dt underflow: dt down to DT_UNDERFLOW of
    the first step, a time scale that follows the critical scaling and that
    a loose dt_max cannot inflate.  Diffusion ringing below zero is clipped
    to keep the state nonnegative.  At t = 0 and at each output time
    reached, one row goes into the record: t, sup, L2 norm and mass
    (field.norm), the pre-clip minimum and the step that landed there.
    on_output(k, t, octant) is called with the k-th row and is the one way
    to see the field: a caller writes, reduces or keeps each output as it
    is reached.

    Every datum is radial, so the state is its octant (see fold): the
    datum is evaluated there, the diffusion is the propagator's octant
    layout, and monitors observe the octant.  Each output is a new
    read-only copy of the octant, which a caller unfolds if it needs the
    lattice; evolve builds no lattice array.

    With certify, a run ends as soon as its verdict is known, by one of
    two bounds checked after each accepted step on the clipped state.

    Blowup: the box mean u_bar = mass/(2L)^d gives the box time t +
    1/((p-1) u_bar^{p-1}); when that falls before t_end the run ends
    Blowup with it as t_star, an upper bound on the run's own (an
    overflowing u_bar^{p-1} gives t).  The verdict is the full run's, by
    Kaplan's argument (CPAM 16, 1963) with the constant eigenfunction.
    Take a step R D R, each R a half reaction whose flow Phi is convex and
    increasing on u >= 0:
    - by Jensen, mean(R v) >= Phi(mean v), or the sup's pole check has
      already ended the run;
    - D keeps the k = 0 mode, so the mean;
    - the second R acts on signed values, but clipping commutes with Phi
      and Phi increases, so after the clip mean >= Phi(mean of D's output).
    So the discrete mean stays at or above the solution of u_bar' =
    u_bar^p, whose pole comes before t_end, and so does the full run's
    Blowup.

    Global: the same argument turned around, with the sup s and the
    spatially constant supersolution.  Where the lattice generator is a
    Z-matrix (SpectralPropagator.z_matrix: d = 1 and alpha <= 1), D is a
    kernel >= 0 of sum 1 and does not raise the sup; Phi increases and the
    clip at 0 raises no sup, so a step maps s to at most Phi_dt(s), the
    ODE's own flow.  So the full run's sup stays at or below the solution
    of v' = v^p from s, which reaches S_end = s/room^{1/(p-1)} at t_end,
    room = 1 - (p-1)(t_end - t) s^{p-1} (a margin of 1e-9 on the horizon
    covers rounding).  The run ends Global(t_end) once that rules out each
    of its Blowup triggers:
    - room > 0, so the ODE has no pole before t_end;
    - S_end < blowup_sup_threshold, so the sup never passes it;
    - the dt rule at S_end stays above the dt floor, so dt cannot underflow;
    - eta < 1, so neither half reaction reaches its pole: the first has
      (p-1)(dt/2) s^{p-1} <= eta/2, and the second, on at most Phi_{dt/2}(s),
      has room (1 - eta)/(1 - eta/2) or more.

    Either exit changes when a verdict is known, not what it is; the one
    exception is a run that would fail numerically (a non-finite field)
    after the box mean fires: certified, it ends Blowup.  Without certify
    the run goes on to its own t_star or to t_end.
    """
    params = config.params
    p, alpha = params.p, params.alpha
    grid = config.build_grid()
    values = config.initial.build_octant(grid, params)
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")
    if float(np.min(values)) < 0.0:
        raise ValueError("initial field must be nonnegative")
    t_end = config.time.t_end
    eta = config.time.eta
    dt_max = config.time.dt_max
    sup_threshold = config.time.blowup_sup_threshold
    out_times = config.output_times()

    rows = []

    def record(t, dt_used, min_raw):
        l2, mass = norm(grid, values, 2.0), norm(grid, values, 1.0)
        rows.append((t, float(np.max(values)), l2, mass, min_raw, dt_used))
        if on_output is not None:  # a copy: the next half-reaction writes values in place
            octant = values.copy()
            octant.flags.writeable = False
            on_output(len(rows) - 1, t, octant)

    record(0.0, 0.0, float(np.min(values)))
    for mon in monitors:
        mon.observe(0.0, values)

    # the state stays nonnegative, so its sup is also its largest |u|; the
    # extremes stay numpy scalars, which overflow to inf instead of raising
    sup = np.max(values)

    def step(sup):
        return min(dt_max, float(eta / ((p - 1.0) * sup ** (p - 1.0))) if sup > 0.0 else dt_max)

    dt_floor = DT_UNDERFLOW * step(sup)  # 0 when sup^{p-1} overflows: <= then ends the run
    # the mean is field.norm's L1 sum, taken by vdot: norm's abs and power
    # copies cost 4 us a step against vdot's 1 us on a 1-d n = 256 octant,
    # where a step takes 54 us (2-vCPU x86-64)
    if certify:
        weights, cells = multiplicity(grid), grid.n ** grid.d
        sup_bound = eta < 1.0 and propagator(grid, alpha).z_matrix
    status = None
    t = 0.0
    out_idx = 0
    step_idx = 0
    while status is None and t < t_end * (1.0 - 1e-15):
        dt_nominal = step(sup)
        if dt_nominal <= dt_floor:
            status = Blowup(t + 0.5 * dt_nominal)
            break
        t_target = out_times[out_idx] if out_idx < out_times.size else t_end
        dt = min(dt_nominal, t_target - t)
        half = 0.5 * dt

        try:
            stepped = _reaction(values, half, p, sup)
            if stepped is not None:
                stepped = _diffuse(stepped, grid, dt, alpha)
                lo, hi = stepped.min(), stepped.max()
                stepped = _reaction(stepped, half, p, max(-lo, hi))
        except FloatingPointError:
            status = NumericalFailure(
                f"non-finite field at step {step_idx}, t = {t:.6g}"
            )
            break
        if stepped is None:
            status = Blowup(t + half)
            break
        # the flow is monotone: its extremes are the flowed extremes
        min_raw, sup = _flow(lo, half, p), _flow(hi, half, p)
        if sup > sup_threshold:
            status = Blowup(t + half)
            break
        if min_raw < 0.0:
            np.maximum(stepped, 0.0, out=stepped)
            sup = max(sup, 0.0)
        values = stepped
        t += dt
        step_idx += 1
        for mon in monitors:
            mon.observe(dt, values)
        if out_idx < out_times.size and t >= t_target * (1.0 - 1e-12):
            t = t_target  # land exactly for bookkeeping
            record(t, dt, float(min_raw))
            out_idx += 1
        if certify:
            mean = np.vdot(weights, values) / cells
            if mean > 0.0:
                box_time = 1.0 / ((p - 1.0) * mean ** (p - 1.0))
                if t + (1.0 + 1e-9) * box_time < t_end:  # the margin covers the mean's rounding
                    status = Blowup(float(t + box_time))
            rest = (1.0 + 1e-9) * (t_end - t)  # the margin covers the sup's rounding
            if status is None and sup_bound and _room(sup, rest, p) > 0.0:
                sup_end = _flow(sup, rest, p)  # the ODE's value at t_end
                if sup_end < sup_threshold and step(sup_end) > dt_floor:
                    status = Global(horizon=t_end)

    if status is None:
        status = Global(horizon=t_end)
    maxima = {}
    for mon in monitors:
        maxima.update(mon.maxima())
    return RunRecord(*np.array(rows).T, status=status, monitor_maxima=maxima)


# ---------------------------------------------------------------------------
# blowup certificate


@dataclass(frozen=True)
class CertificateResult:
    value: float
    argmax_time: float
    times: np.ndarray
    values: np.ndarray


def blowup_certificate(u0: Field, params: ModelParams, horizon: float) -> CertificateResult:
    """sup over dyadic t of t^{1/(p-1)} ||e^{-t(-Lap)^{a/2}} u0||_inf.

    A solution on R^d from u0 >= 0 that exists up to time t has t^{1/(p-1)}
    ||e^{-t(-Lap)^{a/2}} u0||_inf <= (p-1)^{-1/(p-1)} (Weissler 1981;
    Sugitani 1975 for the fractional Laplacian), so a value above that
    constant certifies blowup by argmax_time.  It needs p above the Fujita
    exponent; times stay inside the image-safe window t^{1/alpha} <= L/8,
    where the periodic flow stands for the free one.
    """
    fujita = 1.0 + params.alpha / params.d
    if not params.p > fujita:
        raise ValueError(f"certificate needs p > {fujita}, got p = {params.p}")
    grid = u0.grid
    ts = dyadic_schedule(grid, params.alpha, min(horizon, image_safe_horizon(grid, params.alpha)))
    exponent = 1.0 / (params.p - 1.0)
    vals = np.array(
        [t ** exponent * heat_propagate(u0, t, params.alpha).sup() for t in ts]
    )
    k = int(np.argmax(vals))
    return CertificateResult(
        value=float(vals[k]), argmax_time=float(ts[k]), times=ts, values=vals
    )
