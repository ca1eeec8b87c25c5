"""Ball-average norm estimators on the periodic grid.

The estimator takes a sup over ball centers and a dyadic ladder of radii;
ball sums at every center come from one FFT convolution of |u|^q with the
ball's indicator, so the all-centers sup costs O(n^d log n) per radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import Field, Grid, heat_propagate


@dataclass(frozen=True)
class MorreyQuery:
    """Parameters of the M^s_q estimator.

    radii = None means the full dyadic ladder h, 2h, ..., L.  Centers run
    over every grid point unless center_stride decimates the lattice.
    """

    s: float
    q: float = 1.0
    radii: tuple | None = None
    center_stride: int = 1

    def __post_init__(self):
        if not self.q >= 1.0:
            raise ValueError(f"q must be at least 1, got {self.q}")
        if not self.s > self.q:
            raise ValueError(
                f"need s > q for a decaying radius exponent, got s = {self.s}, q = {self.q}"
            )
        if self.radii is not None:
            object.__setattr__(self, "radii", tuple(float(R) for R in self.radii))
            if not self.radii:
                raise ValueError("radii list is empty")
            if any(not R > 0.0 for R in self.radii):
                raise ValueError("radii must be positive")
        if not (isinstance(self.center_stride, int) and self.center_stride >= 1):
            raise ValueError(f"center_stride must be a positive integer, got {self.center_stride}")

    def resolve_radii(self, grid: Grid) -> np.ndarray:
        if self.radii is None:
            count = int(round(math.log2(grid.n)))
            return grid.h * 2.0 ** np.arange(count)  # last entry is L exactly
        radii = np.array(self.radii)
        if np.any(radii < grid.h * (1.0 - 1e-12)) or np.any(
            radii > grid.half_length * (1.0 + 1e-12)
        ):
            raise ValueError(f"radii must lie in [h, L] = [{grid.h}, {grid.half_length}]")
        return radii


@dataclass(frozen=True)
class MorreyEstimate:
    value: float
    argmax_center: tuple
    argmax_radius: float
    radii: np.ndarray
    radius_values: np.ndarray


def morrey_estimate(field: Field, query: MorreyQuery) -> MorreyEstimate:
    """Estimator detail: the value plus where the sup was attained.

    Besides the field it holds three lattice-sized arrays: the spectrum of
    |u|^q, one complex and one real work array.  Each ball mask is built
    in the real array from the 1-d axis, so no |x| lattice is made.
    """
    grid = field.grid
    radii = query.resolve_radii(grid)
    real = np.abs(field.values)
    real **= query.q
    spectrum = np.fft.rfftn(real)
    work = np.empty_like(spectrum)
    squares = np.fft.ifftshift(grid.axis()) ** 2  # the ball about index 0
    lines = [squares.reshape((-1,) + (1,) * k) for k in reversed(range(grid.d))]
    stride = query.center_stride
    h_d = grid.h ** grid.d
    expo = grid.d * (query.q / query.s - 1.0)

    best = -np.inf
    best_idx = None
    best_radius = None
    per_radius = []
    for R in radii:
        real[...] = lines[0]
        for line in lines[1:]:
            real += line
        np.sqrt(real, out=real)
        np.less_equal(real, R, out=real)
        np.multiply(spectrum, np.fft.rfftn(real, out=work), out=work)
        for k in range(grid.d - 1):
            np.fft.ifft(work, axis=k, out=work)
        sums = np.fft.irfft(work, grid.n, axis=-1, out=real)
        if stride > 1:
            sums = sums[(slice(None, None, stride),) * grid.d]
        top_idx = np.unravel_index(int(np.argmax(sums)), sums.shape)
        top = max(float(sums[top_idx]) * h_d, 0.0)
        value = (R ** expo * top) ** (1.0 / query.q)
        per_radius.append(value)
        if value > best:
            best = value
            best_idx = tuple(i * stride for i in top_idx)
            best_radius = float(R)
    axis = grid.axis()
    return MorreyEstimate(
        value=best,
        argmax_center=tuple(float(axis[i]) for i in best_idx),
        argmax_radius=best_radius,
        radii=radii,
        radius_values=np.array(per_radius),
    )


def morrey_norm(field: Field, query: MorreyQuery) -> float:
    """Max over centers and radii of [R^{d(q/s-1)} sum_{B(x,R)} |u|^q h^d]^{1/q}."""
    return morrey_estimate(field, query).value


def morrey_smoothing_probe(field: Field, alpha: float, pair, times) -> float:
    """Fitted log-log slope of the M^{p2} estimator along the free heat flow.

    The reference rate is -(d/alpha)(1/p1 - 1/p2); it is attained when the
    datum saturates M^{p1}, i.e. carries an |x|^{-d/p1} far tail.  p1 = p2
    short-circuits to slope zero.
    """
    p1, p2 = (float(pair[0]), float(pair[1]))
    if not 1.0 < p1 <= p2:
        raise ValueError(f"need 1 < p1 <= p2, got ({p1}, {p2})")
    if not math.isfinite(p2):
        raise ValueError("p2 must be finite")
    if p1 == p2:
        return 0.0
    times = np.asarray(times, dtype=float)
    if times.size < 3 or np.any(times <= 0.0) or np.any(np.diff(times) <= 0.0):
        raise ValueError("need at least 3 positive increasing times")
    if times[-1] < 2.0 * times[0]:
        raise ValueError("fit window must span at least a factor 2 in time")
    query = MorreyQuery(s=p2, q=1.0)
    norms = np.array(
        [morrey_norm(heat_propagate(field, t, alpha), query) for t in times]
    )
    if np.any(norms <= 0.0):
        raise ValueError("estimator vanished inside the fit window")
    slope, _ = np.polyfit(np.log(times), np.log(norms), 1)
    return float(slope)
