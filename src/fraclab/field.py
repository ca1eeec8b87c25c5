"""Periodic-box scalar fields with spectral transforms and weighted norms.

The box is [-L, L)^d sampled on a uniform n^d lattice, so every linear
evolution here is diagonal in the discrete Fourier basis.  Angular
frequencies are (pi/L)*k per axis, which makes the alpha = 2 flow match
the analytic Gaussian semigroup without rescaling.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass

from . import np
from .constants import ModelParams, singular_amplitude

SNAPSHOT_MAGIC = b"FRDF"
SNAPSHOT_VERSION = 1


class SnapshotFormatError(Exception):
    """A snapshot file failed to parse (magic, version, shape, or size)."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [-L, L)^d.

    n must be a power of two (>= 16) so transform sizes stay fast and
    refinement studies can halve/double cleanly.
    """

    d: int
    n: int
    half_length: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2, or 3, got {self.d}")
        if self.n < 16 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two >= 16, got {self.n}")
        if not 0.0 < self.half_length < math.inf:
            raise ValueError(f"half_length must be positive and finite, got {self.half_length}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_length / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    def axis(self) -> np.ndarray:
        """Coordinates along one axis; x = 0 sits at index n/2, and the
        points j and n - j are mirror images bit for bit."""
        return self.h * (np.arange(self.n) - self.n // 2)

    def octant_radius(self) -> np.ndarray:
        """|x| on the octant (see fold), shape (n/2+1,)*d."""
        return _cached(self, "octant_radius", lambda g: _hypot([g.axis()[: g.n // 2 + 1]] * g.d))

    def octant_capped_radius(self) -> np.ndarray:
        """max(|x|, h/2), the half-cell floor of all singular factors, on the octant."""
        return _cached(
            self, "octant_capped_radius", lambda g: np.maximum(g.octant_radius(), 0.5 * g.h)
        )


def dyadic_schedule(grid: Grid, alpha: float, horizon: float) -> np.ndarray:
    """Output times {t0 * 2^k} up to the horizon, t0 = 4 h^alpha.

    Below t0 the discrete kernel is under-resolved, so nothing is recorded
    there.
    """
    t0 = 4.0 * grid.h ** alpha
    if horizon < t0:
        raise ValueError(f"horizon {horizon} is below the first resolved dyadic time {t0}")
    count = int(math.floor(math.log2(horizon / t0))) + 1
    return t0 * 2.0 ** np.arange(count)


def image_safe_horizon(grid: Grid, alpha: float) -> float:
    """Largest time with the self-similar scale t^{1/alpha} at L/8, one
    octave inside the periodic images."""
    return (grid.half_length / 8.0) ** alpha


def _far_field_radius(grid: Grid) -> float:
    """L/4: beyond it the monitors and probes mask the field, which there
    picks up mass from the periodic images."""
    return 0.25 * grid.half_length


def _check_schedule(times, t_end: float = math.inf) -> np.ndarray:
    """times as a float array, checked nonempty, 1-d, positive and
    increasing, its last time at most t_end (to rounding)."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("schedule must be a nonempty 1-d array of times")
    if not (times[0] > 0.0 and np.all(np.diff(times) > 0.0)):
        raise ValueError("times must be positive and strictly increasing")
    if times[-1] > t_end * (1 + 1e-12):
        raise ValueError(f"last time {times[-1]} exceeds t_end {t_end}")
    return times


def _check_fit_window(times) -> np.ndarray:
    """The times of a log-log slope fit as a float array, checked to be at
    least 3 positive increasing times spanning a factor 2."""
    times = np.asarray(times, dtype=float)
    if not (times.ndim == 1 and times.size >= 3 and times[0] > 0.0
            and np.all(np.diff(times) > 0.0) and times[-1] >= 2.0 * times[0]):
        raise ValueError("a fit window needs at least 3 positive increasing times spanning a factor 2")
    return times


# per-grid arrays are pure functions of (d, n, L); benign to race, cheap to share
_CACHE_LOCK = threading.Lock()
_GRID_CACHE: dict = {}


def _cached(grid: Grid, name, build):
    key = (grid.d, grid.n, grid.half_length)
    with _CACHE_LOCK:
        slot = _GRID_CACHE.setdefault(key, {})
    value = slot.get(name)
    if value is None:
        value = build(grid)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        slot[name] = value
    return value


def clear_grid_cache():
    with _CACHE_LOCK:
        _GRID_CACHE.clear()
    propagator.cache_clear()
    _cosine_matrix.cache_clear()
    _halving_twiddles.cache_clear()


def _hypot(axes) -> np.ndarray:
    """|x| on the lattice spanned by 1-d coordinate axes."""
    return np.sqrt(functools.reduce(np.add.outer, [a ** 2 for a in axes]))


def _octant_freq_magnitude(grid: Grid) -> np.ndarray:
    """|k| on the rfftfreq half axis of every dimension."""
    half = 2.0 * np.pi * np.fft.rfftfreq(grid.n, d=grid.h)
    return _hypot([half] * grid.d)


def _mirror(octant: np.ndarray, axes: int, out: np.ndarray | None = None) -> np.ndarray:
    """Reflect the leading `axes` axes about their last index: m points
    become 2(m - 1), and index m - 1 + i takes the value of m - 1 - i.

    The result (a new array, or out) is filled block by block straight
    from the octant, so no temporary is made.
    """
    m = octant.shape[0]
    if out is None:
        out = np.empty((2 * (m - 1),) * axes + octant.shape[axes:])
    halves = ((slice(0, m), slice(None)), (slice(m, None), slice(m - 2, 0, -1)))
    for block in itertools.product(halves, repeat=axes):
        dst, src = zip(*block)
        out[dst] = octant[src]
    return out


def fold(values: np.ndarray) -> np.ndarray:
    """The octant j in [0, n/2] of every axis (x from -L to 0), as a new array.

    A lattice field even in every coordinate, v[j] = v[(n - j) % n] on each
    axis, is fixed by its octant.
    """
    m = values.shape[0] // 2 + 1
    return values[(slice(0, m),) * values.ndim].copy()


def unfold(octant: np.ndarray) -> np.ndarray:
    """The even full-lattice field with this octant: the inverse of fold."""
    return _mirror(octant, octant.ndim)


def _unfolded_planes(octant: np.ndarray):
    """unfold(octant) in row-major order, one plane along the first axis
    at a time: lattice plane i mirrors octant row i, or n - i past the
    octant, into one held buffer.  On d = 1 the pieces are the two half
    lines."""
    m = octant.shape[0]
    if octant.ndim == 1:
        yield octant
        yield octant[m - 2:0:-1]
        return
    n = 2 * (m - 1)
    plane = np.empty((n,) * (octant.ndim - 1))
    for i in range(n):
        yield _mirror(octant[i if i < m else n - i], octant.ndim - 1, plane)


def multiplicity(grid: Grid) -> np.ndarray:
    """Lattice points per octant point, so that weighted octant sums are
    full-lattice sums: per axis 1 at j = 0 and j = n/2 and 2 elsewhere,
    multiplied over the axes."""

    def build(g):
        axis = np.full(g.n // 2 + 1, 2.0)
        axis[0] = axis[-1] = 1.0
        return functools.reduce(np.multiply.outer, [axis] * g.d)

    return _cached(grid, "multiplicity", build)


@dataclass(frozen=True, eq=False)
class Field:
    """Immutable scalar field on a Grid; values are validated finite.

    The constructor copies values, so later writes to the caller's array
    do not reach the field.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self._own(np.array(self.values, dtype=float))

    @classmethod
    def _adopt(cls, grid: Grid, values: np.ndarray) -> Field:
        """A Field over a new float array that no one else holds: the
        constructor's checks without its copy."""
        field = object.__new__(cls)
        object.__setattr__(field, "grid", grid)
        field._own(values)
        return field

    def _own(self, values: np.ndarray):
        if values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))

    def blocks(self, out: np.ndarray):
        """Yield the values copied into out, a block of len(out) rows along
        the first axis at a time (the whole line on d = 1)."""
        for start, block in _row_blocks(self.grid.n, out):
            block[...] = self.values[start:start + len(block)]
            yield block


def _row_blocks(n: int, out: np.ndarray):
    """(start, view of out) over an n-row lattice in blocks of len(out)
    rows along the first axis; the last block may be short."""
    for start in range(0, n, len(out)):
        yield start, out[:n - start]


@dataclass(frozen=True)
class WeightSpec:
    """Evaluation data for phi_sigma(x, t) = 1 + t^{sigma/alpha} |x|^{-sigma}."""

    sigma: float
    t: float
    alpha: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not self.t >= 0.0:
            raise ValueError(f"t must be nonnegative, got {self.t}")
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")


def weight_values(grid: Grid, weight: WeightSpec) -> np.ndarray:
    """phi_sigma on the lattice: the unfold of octant_weight_values."""
    return unfold(octant_weight_values(grid, weight))


def octant_weight_values(grid: Grid, weight: WeightSpec) -> np.ndarray:
    """phi_sigma on the octant (see fold), its radius floored at h/2 so the
    origin cell carries the regularization of the singular data it measures."""
    capped = grid.octant_capped_radius()
    return 1.0 + weight.t ** (weight.sigma / weight.alpha) * capped ** (-weight.sigma)


def weighted_norm(field: Field, q: float, weight: WeightSpec | None = None) -> float:
    """||field||_{q, phi} = (sum |v/phi|^q phi^2 h^d)^{1/q}; sup |v|/phi at q = inf.

    With weight None (or t = 0) this is the plain discrete L^q norm.  At
    q = 2 the weight cancels algebraically and the plain L^2 norm returns.
    """
    phi = None if weight is None else weight_values(field.grid, weight)
    return norm(field.grid, field.values, q, phi)


def norm(grid: Grid, values: np.ndarray, q: float, phi: np.ndarray | None = None) -> float:
    """The discrete (sum |v/phi|^q phi^2 h^d)^{1/q}, or max |v|/phi at q = inf, of
    v = values: of grid.shape the lattice, of any other shape its octant (see
    fold), counted by multiplicity.  phi is the weight in that layout, or None."""
    if not q >= 1.0:
        raise ValueError(f"q must lie in [1, inf], got {q}")
    if math.isinf(q):
        if phi is None:
            return float(np.max(np.abs(values)))
        return float(np.max(np.abs(values) / phi))
    h_d = grid.h ** grid.d
    if phi is None:
        terms = np.abs(values) ** q
    else:
        terms = np.abs(values / phi) ** q * phi ** 2
    total = np.sum(terms) if values.shape == grid.shape else np.vdot(multiplicity(grid), terms)
    return float((total * h_d) ** (1.0 / q))


# ---------------------------------------------------------------------------
# steady profile (also the base of the singular initial data, see config)


def _steady_values(params: ModelParams, capped: np.ndarray, factor: float = 1.0) -> np.ndarray:
    """factor * s |x|^{-alpha/(p-1)} at the capped radii."""
    s = singular_amplitude(params)
    m = params.alpha / (params.p - 1.0)
    return factor * s * capped ** (-m)


def steady_state(grid: Grid, params: ModelParams) -> Field:
    """The steady profile s |x|^{-alpha/(p-1)}, half-cell capped, on the lattice."""
    return Field._adopt(grid, unfold(octant_steady_state(grid, params)))


def octant_steady_state(grid: Grid, params: ModelParams) -> np.ndarray:
    """steady_state on the octant, as a new array."""
    return _steady_values(params, grid.octant_capped_radius())


# ---------------------------------------------------------------------------
# fractional heat flow


def thread_count(threads=None) -> int:
    """Worker count: explicit argument, else FRACLAB_THREADS, else every CPU
    this process may run on.  Every step that takes workers asks here, with
    no argument; classify --threads sets FRACLAB_THREADS."""
    if threads is not None:
        n = int(threads)
    else:
        raw = os.environ.get("FRACLAB_THREADS")
        if raw is None:
            try:
                return len(os.sched_getaffinity(0))
            except AttributeError:  # not on every platform
                return os.cpu_count() or 1
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"FRACLAB_THREADS must be a positive integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"thread count must be positive, got {n}")
    return n


# Octant lines of at most _DCT1_BASE + 1 points take their type-1 DCT as
# one rfft of the unfolded line; longer ones halve first (see _dct1_forward).
_DCT1_BASE = 4096


@functools.lru_cache(maxsize=None)
def _halving_twiddles(m: int):
    """(phases, weighted) for k in [0, m/2]: phases_k = e^{i pi k/(2m)},
    and weighted_k = w_k conj(phases_k) with w_k = 1 at k = 0 and m/2 and 2
    between.  They serve the top level of halving a line of 2m + 1 points;
    the level below reads every second entry.  clear_grid_cache drops them."""
    phases = np.exp((0.5j * np.pi / m) * np.arange(m // 2 + 1))
    weighted = 2.0 * phases.conj()
    weighted[0] *= 0.5
    weighted[-1] *= 0.5
    phases.flags.writeable = weighted.flags.writeable = False
    return phases, weighted


def _dct1_forward(x: np.ndarray) -> np.ndarray:
    """F x, a new array: the unnormalized type-1 DCT rfft(unfold(x)).real of
    a line of N + 1 points, N a power of two, in transform order.

    Each halving level (Makhoul 1980), with M = N/2 and h_j = x_j - x_{N-j},
    writes the odd outputs to its own block of M points: the irfft of the
    Hermitian spectrum e^{i pi k/(2M)} (h_k - i h_{M-k}), k in [0, M/2],
    which holds the outputs 4k + 1 ascending and then 4k + 3 descending.
    The level below takes the even outputs, the DCT-I of g_j = x_j + x_{N-j}
    (j < M), g_M = 2 x_M, held reversed in the rest of the output; at most
    _DCT1_BASE + 1 points are left as one block in natural order, the rfft
    of their unfolded line.  _transform_order gives the permutation.
    """
    out = top = np.empty(x.size)
    n, level = x.size - 1, 0
    while n > _DCT1_BASE:
        m, q = n // 2, n // 4
        if level == 0:
            phases, spectrum = _halving_twiddles(m)[0], np.empty(q + 1, dtype=complex)
        s = spectrum[: q + 1]
        np.subtract(x[: q + 1], x[n : n - q - 1 : -1], out=s.real)
        s.imag[0] = 0.0
        np.subtract(x[m + 1 : m + q + 1], x[m - 1 : m - q - 1 : -1], out=s.imag[1:])
        s *= phases[:: 1 << level]
        # g over x's own even half: below the top level x is out reversed,
        # so g_j lands where x_j was read
        g = out[m:][::-1]
        np.add(x[:m], x[n:m:-1], out=g[:m])
        g[m] = 2.0 * x[m]
        np.fft.irfft(s, m, norm="forward", out=out[:m])
        x, out, n, level = g, out[m:], m, level + 1
    out[...] = np.fft.rfft(unfold(x)).real
    return top


def _dct1_transpose(y: np.ndarray):
    """Overwrite y with F^T y, F being _dct1_forward's map, in natural order.

    The levels run bottom up.  The base block takes the transpose of its
    DCT-I C_b = K_b W_b (K_b the symmetric cosine kernel, W_b = diag(1, 2,
    ..., 2, 1)), which is W_b C_b W_b^{-1}.  Each level above takes
    T = w conj(e^{i pi k/(2M)}) rfft(block) (see _halving_twiddles), the
    irfft transposed, unpacks it as b_j = Re T_j for j < M/2,
    b_{M/2} = Re T_{M/2} - Im T_{M/2} and b_{M-k} = -Im T_k, and runs one
    butterfly with the level below's result a: x_j = a_j + b_j,
    x_{N-j} = a_j - b_j, x_M = 2 a_M.  Every level below the top writes
    its result reversed in its region, so each butterfly writes one half
    to the block its rfft has read and the other over a in place.
    """
    regions, n = [], y.size - 1
    while n > _DCT1_BASE:
        regions.append((y, len(regions) > 0))  # (region, written reversed)
        y, n = y[n // 2 :], n // 2
    u = unfold(y)
    u[0] *= 2.0
    u[n] *= 2.0
    base = np.fft.rfft(u).real
    base[0] *= 0.5
    base[-1] *= 0.5
    (y[::-1] if regions else y)[...] = base
    if not regions:
        return
    weighted = _halving_twiddles(regions[0][0].size // 2)[1]
    spectrum = np.empty(weighted.size, dtype=complex)
    for level in range(len(regions) - 1, -1, -1):
        region, flipped = regions[level]
        n = region.size - 1
        m, q = n // 2, n // 4
        t = np.fft.rfft(region[:m], out=spectrum[: q + 1])
        t *= weighted[:: 1 << level]
        out, a = (region[::-1] if flipped else region), region[m:][::-1]
        middle = t.real[q] - t.imag[q]
        halves = ((out[:m], np.add, np.subtract), (out[n:m:-1], np.subtract, np.add))
        for half, re_op, im_op in halves[::-1] if flipped else halves:
            re_op(a[:q], t.real[:q], out=half[:q])
            half[q] = re_op(a[q], middle)
            im_op(a[q + 1 : m], t.imag[q - 1 : 0 : -1], out=half[q + 1 :])
        out[m] = 2.0 * a[m]


def _transform_order(line: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write a line of N + 1 points, given in natural order, to out in the
    order of _dct1_forward's output; return out's base block."""
    n = line.size - 1
    while n > _DCT1_BASE:
        m, q = n // 2, n // 4
        out[:q] = line[1::4]
        out[q:m] = line[n - 1 :: -4]
        line, out, n = line[::2], out[m:], m
    out[...] = line
    return out


# Octants with at most GEMM_MAX points per axis (n <= 256) take their DCT-I
# as one matrix product per axis (see _cosine_step), wider ones the
# _dct1_forward/_dct1_transpose pair on d = 1 and scipy's dctn/idctn on
# d >= 2.  On a 2-core x86-64 host with one BLAS thread, a step (DCT-I,
# multiplier, DCT-I) took, min/median in ms:
#   129:   GEMM 0.018/0.025 against 0.026/0.039 for the unfolded line's pair;
#   65^3:  GEMM 8.9/11.5 on one thread and 6.4/9.1 split over two; scipy
#          11.9/19.1 with one worker and 7.0/13.6 with two;
#   129^3: GEMM 103/127 and 68/83; scipy 109/155 and 79/91;
#   129^2: GEMM 0.43/0.82 and scipy 0.41/0.85, level;
#   257^2: GEMM 3.7/4.8 against scipy's 2.7/3.9.
GEMM_MAX = 129
# The two halves of a 3-d pass run on two threads when there are two
# workers and the axes have at least _GEMM_PAIR_MIN points.  Same host, a
# step on two threads against one: 65^3 7.9/9.4 against 9.0/13.1 ms, but
# 33^3 0.76/1.09 against 0.44/0.53 ms, where the hand-offs cost more.
_GEMM_PAIR_MIN = 65


@functools.lru_cache(maxsize=None)
def _cosine_matrix(m: int) -> np.ndarray:
    """C[k, j] = w_j cos(pi (jk mod 2N)/N) for j, k in [0, N], N = m - 1,
    with w_j = 1 at j = 0 and j = N and 2 elsewhere: y = C x is scipy's
    unnormalized type-1 DCT of a line of m points.  clear_grid_cache
    drops it."""
    j = np.arange(m)
    c = np.cos((np.pi / (m - 1)) * (np.multiply.outer(j, j) % (2 * (m - 1))))
    c[:, 1:-1] *= 2.0
    c.flags.writeable = False
    return c


def _cosine_pass(c: np.ndarray, src: np.ndarray, dst: np.ndarray, axis: int, rows: slice):
    """Write to dst[rows] the rows `rows` (on the first axis) of the type-1
    DCT of src along `axis`, c being its _cosine_matrix: one matmul."""
    if axis == 0:
        m = src.shape[0]
        np.matmul(c[rows], src.reshape(m, -1), out=dst.reshape(m, -1)[rows])
    elif axis == src.ndim - 1:
        np.matmul(src[rows], c.T, out=dst[rows])
    else:
        np.matmul(c, src[rows], out=dst[rows])


@functools.lru_cache(maxsize=None)
def _helper():
    """The thread that runs the second half of each 3-d cosine pass (see
    _cosine_step), started on first use."""
    from concurrent.futures import ThreadPoolExecutor  # deferred: only those halves need it

    return ThreadPoolExecutor(1, thread_name_prefix="fraclab-fft")


def _cosine_step(values: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """A new octant array: the type-1 DCT of an octant by _cosine_pass on
    every axis, times mult, the DCT again and 1/n^d (the DCT-I is its own
    inverse up to 1/n per axis).  The passes alternate between two new
    arrays.  A 1-d or 2-d pass is one matmul on the calling thread; a 3-d
    pass runs as the same two halves of rows for any worker count, on two
    threads when there are two workers and at least _GEMM_PAIR_MIN points
    per axis.  Only such a step reads the worker count."""
    m, d = values.shape[0], values.ndim
    c, half = _cosine_matrix(m), m // 2
    workers = thread_count() if d == 3 and m >= _GEMM_PAIR_MIN else 1
    buffers = np.empty(values.shape), np.empty(values.shape)
    src = values
    for k in range(2 * d):
        if k == d:
            src *= mult
        dst = buffers[k % 2]
        write_rows = functools.partial(_cosine_pass, c, src, dst, k % d)
        if d < 3:
            write_rows(slice(None))
        elif workers < 2:
            write_rows(slice(0, half))
            write_rows(slice(half, m))
        else:
            second = _helper().submit(write_rows, slice(half, m))
            write_rows(slice(0, half))
            second.result()
        src = dst
    src *= 1.0 / (2 * (m - 1)) ** d
    return src


class SpectralPropagator:
    """exp(-t (-Laplace)^{alpha/2}) on one grid, in two layouts.

    Calling it reads the layout from the array, as norm does.  The grid's
    shape is the full lattice, carried by numpy's rfftn/irfftn on the
    calling thread; the octant of a field even in every coordinate (see
    fold) has the type-1 DCT of the octant for its DFT (Martucci 1994),
    taken on a route the grid fixes.  At most GEMM_MAX points per axis
    take one matrix product per axis with a cached cosine matrix (see
    _cosine_step), in 3-d each pass in two fixed halves, one per worker
    when there are two, so the bits do not depend on the worker count.  A
    wider octant takes scipy.fft's dctn/idctn with workers on d >= 2, the
    one place scipy is imported.

    A wider 1-d octant steps in transform order.  Its DCT-I is C = K W,
    K the symmetric cosine kernel and W = diag(1, 2, ..., 2, 1), and
    _dct1_forward gives F = P C, P the permutation of _transform_order.
    Since C^T = W C W^{-1}, a step is
        (1/n) C m C x = (1/n) W^{-1} F^T (w_P m_P F x),
    w_P and m_P being W's weights and the multiplier in transform order:
    F, a diagonal product, and the exact transpose _dct1_transpose, with
    no pass that puts the spectrum in natural order.  The multiplier of
    such an octant is held in transform order with 1/n and w_P/2 folded
    in, so after F^T only the two end points are doubled.

    The symbol |k|^alpha lives on the rfftfreq half axis in every
    dimension; the full layout's multiplier is its reflection on all axes
    but the last.  Each layout keeps the multiplier of its last t (equal
    substeps reuse it), as one (t, multiplier) tuple swapped whole, so
    shared instances are safe across threads.  The zero mode carries
    multiplier 1, so mass is preserved exactly.
    """

    def __init__(self, grid: Grid, alpha: float):
        if not 0.0 < alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
        self._symbol = _cached(grid, ("symbol", alpha), lambda g: _octant_freq_magnitude(g) ** alpha)
        self._shape = grid.shape
        self._route = "cosine" if grid.n // 2 + 1 <= GEMM_MAX else "ordered" if grid.d == 1 else "scipy"
        self._last = {True: (None, None), False: (None, None)}  # per layout: t, multiplier

    def _multiplier(self, t: float, full: bool) -> np.ndarray:
        """The multiplier of t in the full layout, or else in the octant's."""
        last_t, mult = self._last[full]
        if last_t == t:
            return mult
        if full or self._route != "ordered":
            mult = np.multiply(self._symbol, -t)
            np.exp(mult, out=mult)
            if full and mult.ndim > 1:
                mult = _mirror(mult, mult.ndim - 1)
        else:
            mult = np.empty(self._symbol.size)
            base = _transform_order(self._symbol, mult)
            np.multiply(mult, -t, out=mult)
            np.exp(mult, out=mult)
            mult *= 1.0 / self._shape[0]
            base[0] *= 0.5
            base[-1] *= 0.5
        self._last[full] = (t, mult)
        return mult

    @functools.cached_property
    def z_matrix(self) -> bool:
        """Whether the lattice generator F^{-1} |k|^alpha F is a Z-matrix,
        so that every step is a kernel >= 0 of sum 1: d = 1 (past it the
        cube of frequencies cuts the symbol off) and alpha <= 1.  alpha = 1
        has exact zeros, so an entry counts above 1e-12 of the diagonal."""
        if len(self._shape) != 1:
            return False
        kernel = np.fft.irfft(self._symbol, self._shape[0])
        return bool(kernel[1:].max() <= 1e-12 * kernel[0])

    def __call__(self, values: np.ndarray, t: float) -> np.ndarray:
        """A new array in the layout of values, carried forward by time t:
        the lattice, or the even field with this octant, folded again."""
        if values.shape == self._shape:
            axes = tuple(range(values.ndim))
            spectrum = np.fft.rfftn(values, axes=axes)
            spectrum *= self._multiplier(t, True)
            return np.fft.irfftn(spectrum, self._shape, axes=axes)
        if values.shape != self._symbol.shape:
            raise ValueError(f"shape {values.shape} is neither {self._shape} nor {self._symbol.shape}")
        if self._route == "cosine":
            return _cosine_step(values, self._multiplier(t, False))
        if self._route == "ordered":
            out = _dct1_forward(values)
            out *= self._multiplier(t, False)
            _dct1_transpose(out)
            out[0] *= 2.0
            out[-1] *= 2.0
            return out
        import scipy.fft  # deferred: only these octants load it

        workers = thread_count()
        spectrum = scipy.fft.dctn(values, type=1, workers=workers)
        spectrum *= self._multiplier(t, False)
        return scipy.fft.idctn(spectrum, type=1, workers=workers, overwrite_x=True)


@functools.lru_cache(maxsize=None)
def propagator(grid: Grid, alpha: float) -> SpectralPropagator:
    """The shared SpectralPropagator of (grid, alpha); clear_grid_cache drops it."""
    return SpectralPropagator(grid, alpha)


def heat_propagate(field: Field, t: float, alpha: float) -> Field:
    """Apply exp(-t (-Laplace)^{alpha/2}); t = 0 returns the input field."""
    if not t >= 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    prop = propagator(field.grid, alpha)
    return field if t == 0.0 else Field._adopt(field.grid, prop(field.values, t))


# ---------------------------------------------------------------------------
# snapshot I/O

_HEAD = struct.Struct("<4sII")
_TAIL = struct.Struct("<dddd")


@dataclass(frozen=True)
class SnapshotMeta:
    alpha: float
    p: float
    t: float


def _write_frdf(path, grid: Grid, meta: SnapshotMeta, pieces):
    """The FRDF v1 header, then the payload: the pieces' values in order."""
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, grid.d))
        fh.write(struct.pack(f"<{grid.d}I", *grid.shape))
        fh.write(_TAIL.pack(grid.half_length, meta.alpha, meta.p, meta.t))
        for piece in pieces:
            fh.write(np.ascontiguousarray(piece, dtype="<f8").data)


def write_snapshot(field: Field, path, meta: SnapshotMeta):
    """Write the FRDF v1 binary layout (little-endian, row-major payload)."""
    _write_frdf(path, field.grid, meta, (field.values,))


def write_octant_snapshot(grid: Grid, octant: np.ndarray, path, meta: SnapshotMeta):
    """Write the even lattice field of this octant (see fold) as FRDF v1,
    byte for byte what write_snapshot writes for Field(grid, unfold(octant)),
    streamed one plane at a time so that no lattice array is built.  The
    octant holds every lattice value, so its finite check is the field's
    and runs before the file is opened."""
    if octant.shape != (grid.n // 2 + 1,) * grid.d:
        raise ValueError(f"octant shape {octant.shape} does not match grid {grid}")
    if not np.all(np.isfinite(octant)):
        raise ValueError("field values must be finite")
    _write_frdf(path, grid, meta, _unfolded_planes(octant))


@dataclass(frozen=True)
class SnapshotBlocks:
    """An FRDF v1 file open for reading by blocks of rows (open_snapshot)."""

    grid: Grid
    meta: SnapshotMeta
    fh: object

    def blocks(self, out: np.ndarray):
        """Field.blocks, read from the payload: each block is checked
        finite before it is yielded."""
        for _, block in _row_blocks(self.grid.n, out):
            if self.fh.readinto(block) != block.nbytes:
                raise SnapshotFormatError("payload shrank while it was read")
            if not np.all(np.isfinite(block)):
                raise SnapshotFormatError("payload: field values must be finite")
            yield block


@contextmanager
def open_snapshot(path):
    """An FRDF v1 file as SnapshotBlocks, the read-side twin of
    write_octant_snapshot.  The header and the payload size are checked
    before any payload is read; the payload is then read only through the
    caller's block buffer.  Any defect raises SnapshotFormatError."""
    with open(path, "rb") as fh:
        head = fh.read(_HEAD.size)
        if len(head) < _HEAD.size:
            raise SnapshotFormatError("truncated header: missing magic/version")
        magic, version, d = _HEAD.unpack(head)
        if magic != SNAPSHOT_MAGIC:
            raise SnapshotFormatError(f"bad magic {magic!r}, expected {SNAPSHOT_MAGIC!r}")
        if version != SNAPSHOT_VERSION:
            raise SnapshotFormatError(
                f"unsupported snapshot version {version}, expected {SNAPSHOT_VERSION}"
            )
        if d not in (1, 2, 3):
            raise SnapshotFormatError(f"bad dimension {d}")
        shape_meta = fh.read(4 * d + _TAIL.size)
        if len(shape_meta) < 4 * d + _TAIL.size:
            raise SnapshotFormatError("truncated header: missing shape/metadata")
        ns = struct.unpack_from(f"<{d}I", shape_meta)
        if len(set(ns)) != 1:
            raise SnapshotFormatError(f"anisotropic shape {ns} not supported")
        half_length, alpha, p, t = _TAIL.unpack_from(shape_meta, 4 * d)
        if not all(map(math.isfinite, (alpha, p, t))):
            raise SnapshotFormatError(f"header numbers must be finite: alpha={alpha}, p={p}, t={t}")
        n = ns[0]
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != 8 * n ** d:
            raise SnapshotFormatError(f"payload holds {size} bytes, expected {8 * n ** d}")
        try:
            grid = Grid(d, n, half_length)
        except ValueError as exc:
            raise SnapshotFormatError(f"bad grid header: {exc}") from None
        yield SnapshotBlocks(grid, SnapshotMeta(alpha, p, t), fh)


def read_snapshot(path):
    """Read an FRDF v1 file; returns (Field, SnapshotMeta).

    The payload is read as one block, straight into the field's array,
    with open_snapshot's checks.
    """
    with open_snapshot(path) as snapshot:
        (values,) = snapshot.blocks(np.empty(snapshot.grid.shape, dtype="<f8"))
    return Field._adopt(snapshot.grid, values), snapshot.meta
