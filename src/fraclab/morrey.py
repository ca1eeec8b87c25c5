"""Ball-average norm estimators on the periodic grid.

The estimator takes a sup over ball centers and a dyadic ladder of radii;
ball sums at every center come from one FFT convolution of |u|^q with the
ball's indicator, so the all-centers sup costs O(n^d log n) per radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import Field, Grid, SnapshotBlocks, _check_fit_window, _row_blocks, heat_propagate


@dataclass(frozen=True)
class MorreyQuery:
    """Parameters of the M^s_q estimator.

    radii = None means the full dyadic ladder h, 2h, ..., L.  Centers run
    over every grid point, and ties go to the first center in row-major
    order.
    """

    s: float
    q: float = 1.0
    radii: tuple | None = None

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


_BLOCK_BYTES = 1 << 19  # the estimator's one real block of rows


def _rfftn_rows(blocks, out: np.ndarray) -> np.ndarray:
    """np.fft.rfftn into out of the array given as consecutive blocks of
    rows, in numpy's pass order: per block rfft over the last axis and fft
    over the middle one, then one fft over the first axis."""
    start = 0
    for block in blocks:
        rows = out[start:start + len(block)]
        np.fft.rfft(block, axis=-1, out=rows)
        for axis in range(block.ndim - 2, 0, -1):
            np.fft.fft(rows, axis=axis, out=rows)
        start += len(block)
    if out.ndim > 1:
        np.fft.fft(out, axis=0, out=out)
    return out


def _powers(blocks, q: float):
    for block in blocks:
        np.abs(block, out=block)
        block **= q
        yield block


def _ball_rows(squares: np.ndarray, d: int, R: float, buf: np.ndarray):
    """The indicator of |x| <= R about index 0 in blocks of buf's rows,
    squares summed axis 0 first."""
    for start, block in _row_blocks(len(squares), buf):
        block[...] = squares[start:start + len(block)].reshape((-1,) + (1,) * (d - 1))
        for k in reversed(range(d - 1)):
            block += squares.reshape((-1,) + (1,) * k)
        np.sqrt(block, out=block)
        np.less_equal(block, R, out=block)
        yield block


def morrey_estimate(field: Field | SnapshotBlocks, query: MorreyQuery) -> MorreyEstimate:
    """Estimator detail: the value plus where the sup was attained.

    field is a Field or an open snapshot (field.open_snapshot), read once
    by blocks of rows.  Besides it the estimator holds two half-spectra,
    of |u|^q and one complex work array, and one real block of rows, in
    which each ball mask is built from the 1-d axis and each ball sum is
    formed.  The passes are numpy's rfftn/irfftn ones, so the numbers are
    those of whole-array transforms; ties go to the first center in
    row-major order.
    """
    grid = field.grid
    n, d = grid.n, grid.d
    radii = query.resolve_radii(grid)
    rows = n if d == 1 else max(1, min(n, _BLOCK_BYTES // (8 * n ** (d - 1))))
    buf = np.empty((rows,) + grid.shape[1:])
    spectrum = np.empty(grid.shape[:-1] + (n // 2 + 1,), complex)
    _rfftn_rows(_powers(field.blocks(buf), query.q), spectrum)
    work = np.empty_like(spectrum)
    squares = np.fft.ifftshift(grid.axis()) ** 2  # the ball about index 0
    h_d = grid.h ** grid.d
    expo = grid.d * (query.q / query.s - 1.0)

    best = -np.inf
    best_idx = None
    best_radius = None
    per_radius = []
    for R in radii:
        np.multiply(spectrum, _rfftn_rows(_ball_rows(squares, d, R, buf), work), out=work)
        if d > 1:
            np.fft.ifft(work, axis=0, out=work)
        top, top_idx = -np.inf, None
        for start, sums in _row_blocks(n, buf):
            part = work[start:start + len(sums)]
            for axis in range(1, d - 1):
                np.fft.ifft(part, axis=axis, out=part)
            np.fft.irfft(part, n, axis=-1, out=sums)
            idx = np.unravel_index(int(np.argmax(sums)), sums.shape)
            if sums[idx] > top:  # the first maximum in row-major order
                top = float(sums[idx])
                top_idx = (start + idx[0],) + idx[1:]
        top = max(top * h_d, 0.0)
        value = (R ** expo * top) ** (1.0 / query.q)
        per_radius.append(value)
        if value > best:
            best = value
            best_idx = top_idx
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
    times = _check_fit_window(times)
    query = MorreyQuery(s=p2, q=1.0)
    norms = np.array(
        [morrey_norm(heat_propagate(field, t, alpha), query) for t in times]
    )
    if np.any(norms <= 0.0):
        raise ValueError("estimator vanished inside the fit window")
    slope, _ = np.polyfit(np.log(times), np.log(norms), 1)
    return float(slope)
