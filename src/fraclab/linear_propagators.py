"""The linear flow w_t = -(-Laplace)^{alpha/2} w + kappa V_h w.

V_h is the inverse-power potential |x|^{-alpha} floored at the half-cell
radius.  Steps use Strang splitting (potential, diffusion, potential).  The
potential substep is positive, but the lattice diffusion kernel is not:
below the first resolved time 4 h^alpha of field.dyadic_schedule it rings, and
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
    _check_fit_window,
    _check_schedule,
    _far_field_radius,
    _hypot,
    fold,
    heat_propagate,
    norm,
    octant_weight_values,
    propagator,
    unfold,
    weight_values,
)


@dataclass(frozen=True)
class HardyOperatorSpec:
    """Parameters of the operator; its potential floors |x| at h/2 of the grid."""

    alpha: float
    d: int
    kappa: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2, or 3, got {self.d}")
        if not self.kappa >= 0.0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")

    def octant_potential(self, grid: Grid) -> np.ndarray:
        """kappa * max(|x|, h/2)^{-alpha} on the octant (see field.fold), cached per grid."""
        if self.d != grid.d:
            raise ValueError(f"spec dimension {self.d} does not match grid {grid.d}")
        key = ("octant_potential", self.alpha, self.kappa)
        return _cached(grid, key, lambda g: self.kappa * g.octant_capped_radius() ** (-self.alpha))

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


def _strang_intervals(values: np.ndarray, grid: Grid, spec: HardyOperatorSpec, times, substeps: int):
    """Yield (t, values) at each output time, covering every interval from
    the previous time (0 first) by equal Strang substeps of spec's flow.

    A state of grid.shape is the lattice, stepped by the propagator with the
    potential unfolded; any other is the octant (see field.fold; n >= 16
    gives n/2 + 1 < n), stepped by its octant layout.  The potential
    half-steps between two diffusions fuse into one e^{dt V}, and e^{dt V/2}
    is built once per interval.  The input array is left alone, and a
    yielded array is never written again.
    """
    if substeps < 1:
        raise ValueError("substeps_per_interval must be at least 1")
    step, potential = propagator(grid, spec.alpha), spec.octant_potential(grid)
    if values.shape == grid.shape:
        potential = unfold(potential)
    else:
        step = step.octant
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


def hardy_step(w: Field, dt: float, spec: HardyOperatorSpec) -> Field:
    """One Strang step exp(V dt/2) exp(-dt (-Lap)^{a/2}) exp(V dt/2)."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    ((_, values),) = _strang_intervals(w.values, w.grid, spec, (dt,), 1)
    return Field._adopt(w.grid, values)


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


def _nonnegative_flow(w0: Field, spec: HardyOperatorSpec, times, substeps: int, norms):
    """Run e^{-tH} w0 through the schedule; return one row per output time
    t, holding weighted_norm(w(t), q, spec.weight(t) if weighted else None)
    for each (q, weighted) in norms, and the Field at the last time.

    A datum even in every coordinate (see field.fold) runs on its octant,
    where a norm weighs each point by its multiplicity and the last output
    is unfolded once; any other datum runs on the lattice.  Both take the
    one loop of _strang_intervals, and each output is checked finite.
    """
    if float(np.min(w0.values)) < 0.0:
        raise ValueError("w0 must be nonnegative")
    grid, rows = w0.grid, []
    values = fold(w0.values)
    even = np.array_equal(unfold(values), w0.values)
    weight_layout = octant_weight_values if even else weight_values
    for t, values in _strang_intervals(values if even else w0.values, grid, spec, times, substeps):
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        weight = spec.weight(t)
        phi = None if weight is None else weight_layout(grid, weight)
        rows.append([norm(grid, values, q, phi if on else None) for q, on in norms])
    return rows, Field._adopt(grid, unfold(values) if even else values)


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


def _cell_delta(grid: Grid, y) -> tuple[Field, tuple]:
    """Unit-mass indicator of the grid cell nearest to the point y on the
    torus, y in the box [-L, L)^d: index rint((y + L)/h) mod n per axis, so
    a point past the last cell's midpoint wraps to cell 0 and a tie takes
    the even index."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size != grid.d:
        raise ValueError(f"y must have {grid.d} coordinates, got {y.size}")
    if not np.all((y >= -grid.half_length) & (y < grid.half_length)):
        raise ValueError(f"y = {y.tolist()} must be finite and lie in [-L, L) = "
                         f"[{-grid.half_length}, {grid.half_length})")
    idx = tuple(int(j) % grid.n for j in np.rint((y + grid.half_length) / grid.h))
    values = np.zeros(grid.shape)
    values[idx] = grid.h ** (-grid.d)
    return Field._adopt(grid, values), idx


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
    delta, idx = _cell_delta(grid, y)
    y_point = tuple(grid.axis()[i] for i in idx)
    if window_radius is None:
        window_radius = _far_field_radius(grid)

    # distance from the source point, unwrapped coordinates
    in_window = _hypot([grid.axis() - c for c in y_point]) <= window_radius
    off_origin = _hypot([grid.axis()] * grid.d) > 0.0

    rows = []  # (max, median, min) of the ratio at each output
    for t_out, values in _strang_intervals(delta.values, grid, spec, times, substeps_per_interval):
        free = heat_propagate(delta, t_out, spec.alpha)
        wspec = spec.weight(t_out)
        phi = np.ones(grid.shape) if wspec is None else weight_values(grid, wspec)
        mask = in_window & off_origin & (free.values > _SUPPORT_FLOOR * np.max(free.values))
        ratio = values[mask] / (phi[mask] * phi[idx] * free.values[mask])
        rows.append((np.max(ratio), np.median(ratio), np.min(ratio)))
    return RatioProbeResult(times, *np.array(rows).T)


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
    times = _check_fit_window(times)
    weighted = [(q, True) for q, _ in pairs]
    rows, _ = _nonnegative_flow(w0, spec, times, substeps_per_interval, weighted)
    results = []
    for (q, r), norms in zip(pairs, map(np.array, zip(*rows))):
        slope = float(np.polyfit(np.log(times), np.log(norms), 1)[0])
        expected = -(spec.d / spec.alpha) * (1.0 / r - 1.0 / q)  # 1/inf is 0
        results.append(HypercontractivityResult(slope, expected, times, norms))
    return results
