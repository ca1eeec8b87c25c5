"""Ball-average norm estimators on the periodic grid.

The estimator takes a sup over ball centers and a dyadic ladder of radii;
ball sums at every center come from one FFT convolution of |u|^q with the
ball's indicator, so the all-centers sup costs O(n^d log n) per radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import np
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


_BLOCK_BYTES = 1 << 19  # the estimator's one real block of rows
_MARGIN = 1e-6  # of sum |u|^q, on every radius's bound (see morrey_estimate)


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


def _powers(blocks, q: float, totals: list):
    """|u|^q block by block; totals becomes [sum, max] of |u|^q."""
    for block in blocks:
        np.abs(block, out=block)
        block **= q
        totals[0] += float(block.sum())
        totals[1] = max(totals[1], float(block.max()))
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


def _ball_count(n: int, d: int, r: float) -> int:
    """Lattice offsets k in [-n/2, n/2)^d with |k| <= r, never fewer than
    the ball mask of radius r h holds: the squared radius is widened by
    1e-9, far above the rounding of the mask's float distances."""
    half = n // 2
    # the squared offsets 0, 1, 1, 4, 4, ..., (n/2)^2 of one axis, ascending
    ascending = np.repeat(np.arange(half + 1.0) ** 2, [1] + [2] * (half - 1) + [1])
    room = np.array([r * r * (1.0 + 1e-9)])  # what is left of r^2 after the leading axes
    for _ in range(d - 1):
        room = np.subtract.outer(room, ascending)
        room = room[room >= 0.0]
    return int(np.searchsorted(ascending, room, "right").sum())


def _value(grid: Grid, query: MorreyQuery, R: float, ball_sum: float) -> float:
    """[R^{d(q/s-1)} h^d ball_sum]^{1/q}, a negative sum read as 0."""
    top = max(ball_sum * grid.h ** grid.d, 0.0)
    return (R ** (grid.d * (query.q / query.s - 1.0)) * top) ** (1.0 / query.q)


def _value_bounds(grid: Grid, query: MorreyQuery, radii, total: float, peak: float) -> list:
    """Per radius, the value of min(total, N_R peak) plus the margin, where
    total = sum |u|^q, peak = max |u|^q and N_R counts the ball's points."""
    counts = (_ball_count(grid.n, grid.d, R / grid.h) for R in radii)
    return [_value(grid, query, R, min(total, N * peak) + _MARGIN * total) for R, N in zip(radii, counts)]


def morrey_estimate(field: Field | SnapshotBlocks, query: MorreyQuery) -> MorreyEstimate:
    """Estimator detail: the value plus where the sup was attained.

    field is a Field or an open snapshot (field.open_snapshot), read once
    by blocks of rows.  Besides it the estimator holds two half-spectra,
    of |u|^q and one complex work array, and one real block of rows, in
    which each ball mask is built from the 1-d axis and each ball sum is
    formed.  The passes are numpy's rfftn/irfftn ones, so the numbers are
    those of whole-array transforms.

    Only the radii that can hold the sup are transformed.  A ball sum of
    radius R is at most min(sum |u|^q, N_R max |u|^q), N_R the lattice
    points of the ball, which bounds each radius's value before its ball is
    transformed.  The bound carries a margin of 1e-6 sum |u|^q for
    rounding: a ball sum from the FFT convolution errs by at most about
    eps log2(n^d) N_R sum |u|^q (the normwise bound), under 1e-8 sum |u|^q
    up to n^d = 2^20 points, so no computed value exceeds its bound.  Radii
    are visited in decreasing order of bound, and the first whose bound
    lies strictly below the best value so far ends the search: every
    radius after it is bounded lower still, so none of them could reach or
    tie the best.  Each radius's value does not depend on the order of
    visits, so the answer is the exhaustive one: ties between radii go to
    the first radius in query order, and ties between centers to the first
    center in row-major order.
    """
    grid = field.grid
    n, d = grid.n, grid.d
    radii = query.resolve_radii(grid)
    rows = n if d == 1 else max(1, min(n, _BLOCK_BYTES // (8 * n ** (d - 1))))
    buf = np.empty((rows,) + grid.shape[1:])
    spectrum = np.empty(grid.shape[:-1] + (n // 2 + 1,), complex)
    totals = [0.0, 0.0]  # sum and max of |u|^q
    _rfftn_rows(_powers(field.blocks(buf), query.q, totals), spectrum)
    work = np.empty_like(spectrum)
    squares = np.fft.ifftshift(grid.axis()) ** 2  # the ball about index 0
    bounds = _value_bounds(grid, query, radii, *totals)

    best = -np.inf
    best_i = best_idx = None
    for i in sorted(range(len(radii)), key=lambda i: -bounds[i]):  # stable: ties in query order
        if bounds[i] < best:
            break
        R = radii[i]
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
        value = _value(grid, query, R, top)
        if value > best or value == best and i < best_i:  # the first radius in query order
            best, best_i, best_idx = value, i, top_idx
    axis = grid.axis()
    return MorreyEstimate(
        value=best,
        argmax_center=tuple(float(axis[i]) for i in best_idx),
        argmax_radius=float(radii[best_i]),
        radii=radii,
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
