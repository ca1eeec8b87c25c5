"""The linear flow w_t = -(-Laplace)^{alpha/2} w + kappa V_h w.

V_h is the inverse-power potential |x|^{-alpha} floored at the half-cell
radius.  Steps use Strang splitting (potential, diffusion, potential).  The
potential substep is positive, but the lattice diffusion kernel is not:
below the first resolved time 4 h^alpha of dyadic_schedule it rings, and
order and nonnegativity fail by percents (2.7% of the sup at 0.01 of that
time).  From that time on both hold, which the order property in
tests/test_propagator.py checks.  Runs over distinct fields share nothing
mutable beyond the per-grid cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import power_map_coeff_max, solve_sigma
from .field import (
    Field,
    Grid,
    WeightSpec,
    _cached,
    _hypot,
    fold,
    heat_propagate,
    octant_norm,
    octant_weight_values,
    propagator,
    unfold,
    weight_values,
    weighted_norm,
)


@dataclass(frozen=True)
class HardyOperatorSpec:
    """Parameters of the operator; cap radius None means h/2 of the grid."""

    alpha: float
    d: int
    kappa: float
    potential_cap_radius: float | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2, or 3, got {self.d}")
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")
        if self.potential_cap_radius is not None and not self.potential_cap_radius > 0.0:
            raise ValueError("potential_cap_radius must be positive")

    def cap_radius(self, grid: Grid) -> float:
        if self.potential_cap_radius is not None:
            return self.potential_cap_radius
        return 0.5 * grid.h

    def potential(self, grid: Grid) -> np.ndarray:
        """octant_potential unfolded to the lattice (cached per grid)."""
        octant = self.octant_potential(grid)
        key = ("potential", self.alpha, self.kappa, self.cap_radius(grid))
        return _cached(grid, key, lambda g: unfold(octant))

    def octant_potential(self, grid: Grid) -> np.ndarray:
        """kappa * max(|x|, cap)^{-alpha} on the octant (see field.fold), cached per grid."""
        if self.d != grid.d:
            raise ValueError(f"spec dimension {self.d} does not match grid {grid.d}")
        cap = self.cap_radius(grid)
        key = ("octant_potential", self.alpha, self.kappa, cap)
        return _cached(
            grid, key, lambda g: self.kappa * np.maximum(g.octant_radius(), cap) ** (-self.alpha)
        )

    def sigma(self) -> float:
        """Weight exponent: the smaller root of the power-map equation.

        Raises for kappa beyond the critical coupling (no root exists and
        the weighted theory does not apply).
        """
        if self.kappa == 0.0:
            return 0.0
        return solve_sigma(self.kappa, self.d, self.alpha)

    def weight(self, t: float) -> WeightSpec | None:
        sigma = self.sigma()
        if sigma == 0.0:
            return None
        return WeightSpec(sigma=sigma, t=t, alpha=self.alpha)


def _strang_intervals(values: np.ndarray, step, potential: np.ndarray, times, substeps: int):
    """Yield (t, values) at each output time, covering every interval from
    the previous time (0 first) by equal Strang substeps.

    step(values, dt) is the diffusion (a propagator or its octant layout)
    and potential the array in the same layout.  The potential half-steps
    between two diffusions fuse into one e^{dt V}, and e^{dt V/2} is built
    once per interval.  The input array is left alone, and a yielded array
    is never written again.
    """
    t_prev = 0.0
    for t_out in times:
        dt = (t_out - t_prev) / substeps
        half = np.exp(0.5 * dt * potential)
        full = half * half if substeps > 1 else None
        values = values * half
        for k in range(substeps, 0, -1):
            values = step(values, dt)
            values *= full if k > 1 else half
        t_prev = t_out
        yield t_out, values


def _lattice_flow(values: np.ndarray, spec: HardyOperatorSpec, grid: Grid, times, substeps: int):
    """_strang_intervals on the full lattice of grid."""
    return _strang_intervals(values, propagator(grid, spec.alpha), spec.potential(grid), times, substeps)


def hardy_step(w: Field, dt: float, spec: HardyOperatorSpec) -> Field:
    """One Strang step exp(V dt/2) exp(-dt (-Lap)^{a/2}) exp(V dt/2)."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    ((_, values),) = _lattice_flow(w.values, spec, w.grid, (dt,), 1)
    return Field(w.grid, values)


def dyadic_schedule(grid: Grid, alpha: float, horizon: float) -> np.ndarray:
    """Output times {t0 * 2^k} up to the horizon, t0 = 4 h^alpha.

    Below t0 the discrete kernel is under-resolved, so nothing is recorded
    there.
    """
    t0 = 4.0 * grid.h ** alpha
    if horizon < t0:
        raise ValueError(f"horizon {horizon} is below the first resolved time {t0}")
    count = int(math.floor(math.log2(horizon / t0))) + 1
    return t0 * 2.0 ** np.arange(count)


@dataclass(frozen=True)
class NormSeries:
    """Plain and weighted L^q norms along an evolution, q in {1, 2, inf}."""

    times: np.ndarray
    sigma: float
    plain_q1: np.ndarray
    plain_q2: np.ndarray
    plain_qinf: np.ndarray
    weighted_q1: np.ndarray
    weighted_q2: np.ndarray
    weighted_qinf: np.ndarray
    final: Field

    def rows(self):
        """Rows matching the CSV column order of the linear-evolve command."""
        cols = (
            self.times,
            self.plain_q1,
            self.plain_q2,
            self.plain_qinf,
            self.weighted_q1,
            self.weighted_q2,
            self.weighted_qinf,
        )
        return list(zip(*cols))


def _check_schedule(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("schedule must be a nonempty 1-d array of times")
    if not (times[0] > 0.0 and np.all(np.diff(times) > 0.0)):
        raise ValueError("schedule times must be positive and strictly increasing")
    return times


def _nonnegative_flow(w0: Field, spec: HardyOperatorSpec, times, substeps: int, norms):
    """Run e^{-tH} w0 through the schedule; return one row per output time
    t, holding weighted_norm(w(t), q, spec.weight(t) if weighted else None)
    for each (q, weighted) in norms, and the Field at the last time.

    A datum even in every coordinate (see field.fold) runs on its octant,
    where its potential is the octant potential, the diffusion the
    propagator's octant layout and a norm weighs each point by its
    multiplicity; the last output is unfolded once.  Any other datum runs
    on the lattice.  Either way each output is checked finite.
    """
    if substeps < 1:
        raise ValueError("substeps_per_interval must be at least 1")
    if float(np.min(w0.values)) < 0.0:
        raise ValueError("w0 must be nonnegative")
    grid, rows = w0.grid, []
    octant = fold(w0.values)
    if not np.array_equal(unfold(octant), w0.values):
        for t, values in _lattice_flow(w0.values, spec, grid, times, substeps):
            w, weight = Field(grid, values), spec.weight(t)
            rows.append([weighted_norm(w, q, weight if on else None) for q, on in norms])
        return rows, w
    step = propagator(grid, spec.alpha).octant
    for t, values in _strang_intervals(octant, step, spec.octant_potential(grid), times, substeps):
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        weight = spec.weight(t)
        phi = None if weight is None else octant_weight_values(grid, weight)
        rows.append([octant_norm(grid, values, q, phi if on else None) for q, on in norms])
    return rows, Field._adopt(grid, unfold(values))


def hardy_evolve(
    w0: Field,
    spec: HardyOperatorSpec,
    times,
    substeps_per_interval: int = 24,
) -> NormSeries:
    """Evolve w0 and record norms at each scheduled time.

    Each interval between consecutive output times (starting from 0) is
    covered by equal Strang substeps; the splitting error is O(dt^2) per
    substep and the potential substep is exact.  A datum even in every
    coordinate runs on its octant (see _nonnegative_flow).
    """
    times = _check_schedule(times)
    sigma = spec.sigma()  # raises for supercritical kappa before any work
    norms = [(q, weighted) for weighted in (False, True) for q in (1.0, 2.0, math.inf)]
    rows, final = _nonnegative_flow(w0, spec, times, substeps_per_interval, norms)
    return NormSeries(times, sigma, *np.array(rows).T, final=final)


# ---------------------------------------------------------------------------
# kernel-ratio probe


@dataclass(frozen=True)
class RatioProbeResult:
    times: np.ndarray
    max_ratio: np.ndarray
    median_ratio: np.ndarray
    min_ratio: np.ndarray

    @property
    def overall_max(self) -> float:
        return float(np.max(self.max_ratio))


def cell_delta(grid: Grid, y) -> tuple[Field, tuple]:
    """Unit-mass indicator of the grid cell nearest to the point y."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size != grid.d:
        raise ValueError(f"y must have {grid.d} coordinates, got {y.size}")
    ax = grid.axis()
    idx = tuple(int(np.argmin(np.abs(ax - c))) for c in y)
    values = np.zeros(grid.shape)
    values[idx] = grid.h ** (-grid.d)
    return Field(grid, values), idx


_SUPPORT_FLOOR = 1e-13


def kernel_ratio_probe(
    grid: Grid,
    spec: HardyOperatorSpec,
    y,
    times,
    window_radius: float | None = None,
    substeps_per_interval: int = 32,
) -> RatioProbeResult:
    """Measure e^{-tH}(x, y) / (phi(x, t) phi(y, t) G_alpha(x - y, t)).

    The numerator is the evolution of a unit-mass cell delta at y; the free
    kernel G_alpha comes from the same delta under kappa = 0 (exact, since
    the free flow is diagonal).  Samples keep |x - y| within the window,
    drop the origin cell (the continuum weight is singular there), and drop
    points where the free kernel has decayed under the support floor.
    """
    bound = power_map_coeff_max(spec.d, spec.alpha)
    if spec.kappa > bound + 1e-12:
        raise ValueError(
            f"kappa = {spec.kappa} exceeds the critical coupling {bound}; "
            "the kernel bound hypothesis fails"
        )
    times = _check_schedule(times)
    delta, idx = cell_delta(grid, y)
    y_point = tuple(grid.axis()[i] for i in idx)
    if window_radius is None:
        window_radius = 0.25 * grid.half_length

    # distance from the source point, unwrapped coordinates
    in_window = _hypot([grid.axis() - c for c in y_point]) <= window_radius
    off_origin = grid.radius() > 0.0

    max_r, med_r, min_r = [], [], []
    for t_out, values in _lattice_flow(delta.values, spec, grid, times, substeps_per_interval):
        free = heat_propagate(delta, t_out, spec.alpha)
        wspec = spec.weight(t_out)
        phi = np.ones(grid.shape) if wspec is None else weight_values(grid, wspec)
        mask = in_window & off_origin & (free.values > _SUPPORT_FLOOR * np.max(free.values))
        ratio = values[mask] / (phi[mask] * phi[idx] * free.values[mask])
        max_r.append(float(np.max(ratio)))
        med_r.append(float(np.median(ratio)))
        min_r.append(float(np.min(ratio)))
    return RatioProbeResult(
        times=times,
        max_ratio=np.array(max_r),
        median_ratio=np.array(med_r),
        min_ratio=np.array(min_r),
    )


# ---------------------------------------------------------------------------
# hypercontractivity


@dataclass(frozen=True)
class HypercontractivityResult:
    slope: float
    expected: float
    times: np.ndarray
    norms: np.ndarray


def hypercontractivity_measure(
    w0: Field,
    spec: HardyOperatorSpec,
    pairs,
    times,
    substeps_per_interval: int = 24,
) -> list:
    """Fit the decay exponent of the weighted q-norm of e^{-tH} w0 for each
    (q, r) in pairs, from one flow; returns one result per pair, in order.

    For a datum with finite weighted r-norm the smoothing gain is
    -(d/alpha)(1/r - 1/q); each fitted slope is returned next to that target.
    """
    pairs = tuple(pairs)
    if not pairs:
        raise ValueError("need at least one (q, r) pair")
    for q, r in pairs:
        if not 1.0 <= r <= q:
            raise ValueError(f"need 1 <= r <= q, got r={r}, q={q}")
    times = _check_schedule(times)
    if times.size < 3 or times[-1] < 2.0 * times[0]:
        raise ValueError("degenerate fit window: need >= 3 times spanning a factor 2")
    weighted = [(q, True) for q, _ in pairs]
    rows, _ = _nonnegative_flow(w0, spec, times, substeps_per_interval, weighted)
    results = []
    for (q, r), norms in zip(pairs, map(np.array, zip(*rows))):
        slope = float(np.polyfit(np.log(times), np.log(norms), 1)[0])
        expected = -(spec.d / spec.alpha) * (1.0 / r - 1.0 / q)  # 1/inf is 0
        results.append(HypercontractivityResult(slope, expected, times, norms))
    return results
