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
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

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
        if not self.half_length > 0.0:
            raise ValueError(f"half_length must be positive, got {self.half_length}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_length / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    def axis(self) -> np.ndarray:
        """Coordinates along one axis; x = 0 sits at index n/2."""
        return -self.half_length + self.h * np.arange(self.n)

    def radius(self) -> np.ndarray:
        """|x| on the full lattice, shape (n,)*d."""
        return _cached(self, "radius", lambda g: _hypot([g.axis()] * g.d))

    def capped_radius(self) -> np.ndarray:
        """max(|x|, h/2): the half-cell floor used by all singular factors."""
        return _cached(self, "capped_radius", lambda g: np.maximum(g.radius(), 0.5 * g.h))

    def octant_radius(self) -> np.ndarray:
        """|x| on the octant (see fold), shape (n/2+1,)*d: the arithmetic of
        radius() on the leading coordinates of each axis, so it equals the
        fold of radius() bit for bit."""
        return _cached(self, "octant_radius", lambda g: _hypot([g.axis()[: g.n // 2 + 1]] * g.d))

    def octant_capped_radius(self) -> np.ndarray:
        """capped_radius() on the octant."""
        return _cached(
            self, "octant_capped_radius", lambda g: np.maximum(g.octant_radius(), 0.5 * g.h)
        )


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


def _hypot(axes) -> np.ndarray:
    """|x| on the lattice spanned by 1-d coordinate axes."""
    sq = np.zeros(tuple(a.size for a in axes))
    for k, a in enumerate(axes):
        shape = [1] * len(axes)
        shape[k] = a.size
        sq += (a ** 2).reshape(shape)
    return np.sqrt(sq)


def _octant_freq_magnitude(grid: Grid) -> np.ndarray:
    """|k| on the rfftfreq half axis of every dimension."""
    half = 2.0 * np.pi * np.fft.rfftfreq(grid.n, d=grid.h)
    return _hypot([half] * grid.d)


def _mirror(octant: np.ndarray, axes: int) -> np.ndarray:
    """Reflect the leading `axes` axes about their last index: m points
    become 2(m - 1), and index m - 1 + i takes the value of m - 1 - i.

    The new array is filled block by block straight from the octant, so
    no temporary is made.
    """
    m = octant.shape[0]
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

    def mass(self) -> float:
        return float(np.sum(self.values)) * self.grid.h ** self.grid.d


@dataclass(frozen=True)
class WeightSpec:
    """Evaluation data for phi_sigma(x, t) = 1 + t^{sigma/alpha} |x|^{-sigma}."""

    sigma: float
    t: float
    alpha: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.t < 0.0:
            raise ValueError(f"t must be nonnegative, got {self.t}")
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")


def weight_values(grid: Grid, weight: WeightSpec) -> np.ndarray:
    """phi_sigma on the lattice; the radius is floored at h/2 so the origin
    cell carries the same regularization as the singular data it measures."""
    if weight.t == 0.0:
        return np.ones(grid.shape)
    rc = grid.capped_radius()
    return 1.0 + weight.t ** (weight.sigma / weight.alpha) * rc ** (-weight.sigma)


def weighted_norm(field: Field, q: float, weight: WeightSpec | None = None) -> float:
    """||field||_{q, phi} = (sum |v/phi|^q phi^2 h^d)^{1/q}; sup |v|/phi at q = inf.

    With weight None (or t = 0) this is the plain discrete L^q norm.  At
    q = 2 the weight cancels algebraically and the plain L^2 norm returns.
    """
    if not q >= 1.0:
        raise ValueError(f"q must lie in [1, inf], got {q}")
    v = field.values
    if weight is None:
        phi = None
    else:
        phi = weight_values(field.grid, weight)
    if math.isinf(q):
        if phi is None:
            return float(np.max(np.abs(v)))
        return float(np.max(np.abs(v) / phi))
    h_d = field.grid.h ** field.grid.d
    if phi is None:
        total = np.sum(np.abs(v) ** q)
    else:
        total = np.sum(np.abs(v / phi) ** q * phi ** 2)
    return float((total * h_d) ** (1.0 / q))


# ---------------------------------------------------------------------------
# initial data


@dataclass(frozen=True)
class GaussianDatum:
    """A * exp(-|x|^2 / w^2)."""

    amplitude: float = 1.0
    width: float = 1.0

    def __post_init__(self):
        if not self.width > 0.0:
            raise ValueError(f"width must be positive, got {self.width}")


@dataclass(frozen=True)
class TruncatedSingularDatum:
    """delta * u_inf with the core frozen at its half-cell value.

    delta < 1 gives a strict sub-steady datum; delta >= 1 is allowed but
    flagged with a warning at sampling time.
    """

    params: ModelParams
    delta: float

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")


@dataclass(frozen=True)
class PowerTailDatum:
    """min(K |x|^{-gamma0}, delta * u_inf), capped at the half-cell radius.

    For gamma0 below the steady exponent alpha/(p-1) the K-branch forms the
    core and the steady branch the tail; they meet where the two powers are
    equal, at |x| = (delta*s/K)^{1/(alpha/(p-1) - gamma0)}.
    """

    params: ModelParams
    amplitude: float
    gamma0: float
    delta: float

    def __post_init__(self):
        if not self.amplitude > 0.0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")
        if not self.gamma0 > 0.0:
            raise ValueError(f"gamma0 must be positive, got {self.gamma0}")
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")


@dataclass(frozen=True)
class SteadyTailDeficitDatum:
    """u_inf minus a power tail b |x|^{-ell}, clipped at zero.

    Starts below the steady state with a deficit of prescribed spatial decay,
    the shape whose approach rate to u_inf is exponent-predictable.
    """

    params: ModelParams
    b: float
    ell: float

    def __post_init__(self):
        if self.b < 0.0:
            raise ValueError(f"b must be nonnegative, got {self.b}")
        if not self.ell > 0.0:
            raise ValueError(f"ell must be positive, got {self.ell}")


@dataclass(frozen=True)
class SteadyBumpDeficitDatum:
    """u_inf minus a Gaussian dent b exp(-|x|^2/w^2), clipped at zero.

    The deficit is integrable and localized, the datum class for L2-rate
    checks where the dent spreads at the semigroup's own rate.
    """

    params: ModelParams
    b: float
    width: float = 1.0

    def __post_init__(self):
        if self.b < 0.0:
            raise ValueError(f"b must be nonnegative, got {self.b}")
        if not self.width > 0.0:
            raise ValueError(f"width must be positive, got {self.width}")


def _radial_values(datum, radius, capped) -> np.ndarray:
    """A new array of the datum at the points whose |x| is radius() and
    whose half-cell capped |x| is capped(): the one formula of each datum,
    for the lattice and for its octant."""
    if isinstance(datum, GaussianDatum):
        return datum.amplitude * np.exp(-((radius() / datum.width) ** 2))
    if isinstance(datum, TruncatedSingularDatum):
        if datum.delta >= 1.0:
            warnings.warn(
                f"delta = {datum.delta} >= 1: datum is not a strict sub-steady state",
                UserWarning,
                stacklevel=3,
            )
        return _steady_values(datum.params, capped, datum.delta)
    if isinstance(datum, PowerTailDatum):
        return np.minimum(
            datum.amplitude * capped() ** (-datum.gamma0),
            _steady_values(datum.params, capped, datum.delta),
        )
    if isinstance(datum, SteadyTailDeficitDatum):
        base = _steady_values(datum.params, capped)
        return np.maximum(base - datum.b * capped() ** (-datum.ell), 0.0)
    if isinstance(datum, SteadyBumpDeficitDatum):
        base = _steady_values(datum.params, capped)
        dent = datum.b * np.exp(-((radius() / datum.width) ** 2))
        return np.maximum(base - dent, 0.0)
    raise TypeError(f"unsupported datum type {type(datum).__name__}")


def _steady_values(params: ModelParams, capped, factor: float = 1.0) -> np.ndarray:
    """factor * s |x|^{-alpha/(p-1)} at the capped radii."""
    s = singular_amplitude(params)
    m = params.alpha / (params.p - 1.0)
    return factor * s * capped() ** (-m)


def sample(grid: Grid, datum) -> Field:
    """Evaluate an initial datum on the lattice; values are nonnegative."""
    return Field._adopt(grid, _radial_values(datum, grid.radius, grid.capped_radius))


def octant_sample(grid: Grid, datum) -> np.ndarray:
    """sample on the octant (see fold), as a new array equal to the fold
    of the lattice sample bit for bit."""
    return _radial_values(datum, grid.octant_radius, grid.octant_capped_radius)


def steady_state(grid: Grid, params: ModelParams) -> Field:
    """The scale-invariant steady profile s |x|^{-alpha/(p-1)}, half-cell capped."""
    return Field._adopt(grid, _steady_values(params, grid.capped_radius))


def octant_steady_state(grid: Grid, params: ModelParams) -> np.ndarray:
    """steady_state on the octant, as a new array."""
    return _steady_values(params, grid.octant_capped_radius)


# ---------------------------------------------------------------------------
# fractional heat flow

_FFT_SHARE = threading.local()


def thread_count(threads=None) -> int:
    """Worker count: explicit argument, else FRACLAB_THREADS, else every CPU
    this process may run on."""
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


@contextmanager
def fft_workers(n: int):
    """Give this thread's spectral transforms n workers inside the block;
    outside any block they take thread_count()."""
    previous, _FFT_SHARE.workers = getattr(_FFT_SHARE, "workers", None), n
    try:
        yield
    finally:
        _FFT_SHARE.workers = previous


# Lines of at least SPLIT_MIN points are transformed as two half-length
# lines (see _halves).  With two FFT workers the halves run on two threads,
# which beats numpy's single rfft/irfft pair from 2^17 points on a 2-core
# x86-64 host (a 2^16 line breaks even); below that the thread hand-offs
# cost more than they save.
SPLIT_MIN = 2 ** 17


@functools.lru_cache(maxsize=None)
def _helper():
    """The thread that runs the second half of split transforms, started
    on first use."""
    from concurrent.futures import ThreadPoolExecutor  # deferred: only split lines need it

    return ThreadPoolExecutor(1, thread_name_prefix="fraclab-fft")


def _in_pair(first, second, workers: int):
    """(first(), second()), with second() on the helper thread when
    workers >= 2.  Either way each runs the same arithmetic."""
    if workers < 2:
        return first(), second()
    future = _helper().submit(second)
    return first(), future.result()


@functools.lru_cache(maxsize=None)
def _twiddles(n: int):
    """W^j and its conjugate for j in [0, n/4], W = e^{-2 pi i/n}."""
    w = np.exp((-2j * np.pi / n) * np.arange(n // 4 + 1))
    w_bar = w.conj()
    w.flags.writeable = w_bar.flags.writeable = False
    return w, w_bar


def _halves(x: np.ndarray, workers: int):
    """The half spectra of a real line x of n points: E, the rfft of the
    even samples, and W^j O, the twiddled rfft of the odd samples, for j
    in [0, n/4].  The rfft of x is X[j] = E[j] + W^j O[j] and
    X[n/2 - j] = conj(E[j] - W^j O[j]) (radix-2 decimation in time,
    Cooley & Tukey 1965)."""
    w = _twiddles(x.size)[0]

    def odd():
        spectrum = np.fft.rfft(x[1::2])
        spectrum *= w
        return spectrum

    return _in_pair(lambda: np.fft.rfft(x[0::2]), odd, workers)


def _interleave(even, odd, n: int, workers: int) -> np.ndarray:
    """The real line of n points whose half spectra (see _halves) are
    even() and odd(); each half is computed and inverted on its thread."""
    line = np.empty(n)
    w_bar = _twiddles(n)[1]

    def fill_even():
        line[0::2] = np.fft.irfft(even(), n // 2)

    def fill_odd():
        spectrum = odd()
        spectrum *= w_bar
        line[1::2] = np.fft.irfft(spectrum, n // 2)

    _in_pair(fill_even, fill_odd, workers)
    return line


class SpectralPropagator:
    """exp(-t (-Laplace)^{alpha/2}) on one grid, in two layouts.

    Calling it carries a full lattice array by real FFTs: numpy's
    rfft/irfft on d = 1, which costs no import, and scipy.fft's
    rfftn/irfftn with workers on d >= 2.  A line of at least SPLIT_MIN
    points is carried by its half spectra instead (see _halves), one half
    per worker when there are two, with the same bits for any worker
    count.  octant() carries the octant of a field that is even in every
    coordinate (see fold), whose DFT is the type-1 DCT of the octant
    (Martucci 1994): scipy.fft's dctn/idctn with workers on d >= 2, and on
    d = 1 the unfolded line through the full layout, since a DCT-I pads to
    the full length there anyway.

    The symbol |k|^alpha lives on the rfftfreq half axis in every
    dimension; the full layout's multiplier is its reflection on all axes
    but the last.  One cache entry holds the multipliers of the last t
    (equal substeps reuse them), swapped as one tuple, so shared instances
    are safe across threads.  The zero mode carries multiplier 1, so mass
    is preserved exactly.
    """

    def __init__(self, grid: Grid, alpha: float):
        if not 0.0 < alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
        self._fft = None
        if grid.d > 1:
            import scipy.fft  # deferred: only d >= 2 spectral steps load it

            self._fft = scipy.fft
        self._symbol = _cached(grid, ("symbol", alpha), lambda g: _octant_freq_magnitude(g) ** alpha)
        self._shape = grid.shape
        self._split = grid.d == 1 and grid.n >= SPLIT_MIN
        self._last = (None, None, None)  # t, octant multiplier, full-layout multiplier

    def _multipliers(self, t: float, full: bool):
        last_t, octant, whole = self._last
        if last_t != t:
            octant = np.multiply(self._symbol, -t)
            np.exp(octant, out=octant)
            whole = None
        if full and whole is None:
            whole = self._full_layout(octant)
        self._last = (t, octant, whole)
        return octant, whole

    def _full_layout(self, octant: np.ndarray):
        """The multiplier as the full layout applies it: the octant
        reflected on all axes but the last, or on a split line the pair
        (a, b) with a = (m[j] + m[n/2 - j])/2 and b = (m[j] - m[n/2 - j])/2
        for j in [0, n/4], which takes half spectra E, W^j O to
        a E + b W^j O, b E + a W^j O."""
        if octant.ndim > 1:
            return _mirror(octant, octant.ndim - 1)
        if not self._split:
            return octant
        q = octant.size // 2
        low, high = octant[: q + 1], octant[q:][::-1]
        return 0.5 * (low + high), 0.5 * (low - high)

    def multiplier(self, t: float) -> np.ndarray:
        """e^{-t|k|^alpha} in the rfftn layout of the full lattice."""
        octant, whole = self._multipliers(t, True)
        return octant if octant.ndim == 1 else whole

    def __call__(self, values: np.ndarray, t: float) -> np.ndarray:
        """A new full lattice array: values carried forward by time t."""
        mult = self._multipliers(t, True)[1]
        if self._split:
            a, b = mult
            workers = _workers()
            e, wo = _halves(values, workers)
            return _interleave(lambda: a * e + b * wo, lambda: b * e + a * wo, values.size, workers)
        if self._fft is None:
            spectrum = np.fft.rfft(values)
            spectrum *= mult
            return np.fft.irfft(spectrum, self._shape[0])
        workers = _workers()
        spectrum = self._fft.rfftn(values, workers=workers)
        spectrum *= mult
        return self._fft.irfftn(spectrum, self._shape, workers=workers)

    def octant(self, values: np.ndarray, t: float) -> np.ndarray:
        """A new octant array: the even field with this octant carried
        forward by time t, folded again."""
        if self._fft is None:
            return self(np.concatenate((values, values[-2:0:-1])), t)[: values.size]
        mult = self._multipliers(t, False)[0]
        workers = _workers()
        spectrum = self._fft.dctn(values, type=1, workers=workers)
        spectrum *= mult
        return self._fft.idctn(spectrum, type=1, workers=workers, overwrite_x=True)


def _workers() -> int:
    return getattr(_FFT_SHARE, "workers", None) or thread_count()


@functools.lru_cache(maxsize=None)
def propagator(grid: Grid, alpha: float) -> SpectralPropagator:
    """The shared SpectralPropagator of (grid, alpha); clear_grid_cache drops it."""
    return SpectralPropagator(grid, alpha)


def heat_propagate(field: Field, t: float, alpha: float) -> Field:
    """Apply exp(-t (-Laplace)^{alpha/2}); t = 0 returns the input field."""
    if t < 0.0:
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


def write_snapshot(field: Field, path, meta: SnapshotMeta):
    """Write the FRDF v1 binary layout (little-endian, row-major payload)."""
    grid = field.grid
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, grid.d))
        fh.write(struct.pack(f"<{grid.d}I", *grid.shape))
        fh.write(_TAIL.pack(grid.half_length, meta.alpha, meta.p, meta.t))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").data)


def read_snapshot(path):
    """Read an FRDF v1 file; returns (Field, SnapshotMeta).

    Any structural defect raises SnapshotFormatError before a Field is built.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEAD.size:
        raise SnapshotFormatError("truncated header: missing magic/version")
    magic, version, d = _HEAD.unpack_from(blob, 0)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"bad magic {magic!r}, expected {SNAPSHOT_MAGIC!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(
            f"unsupported snapshot version {version}, expected {SNAPSHOT_VERSION}"
        )
    if d not in (1, 2, 3):
        raise SnapshotFormatError(f"bad dimension {d}")
    body = _HEAD.size + 4 * d
    if len(blob) < body + _TAIL.size:
        raise SnapshotFormatError("truncated header: missing shape/metadata")
    ns = struct.unpack_from(f"<{d}I", blob, _HEAD.size)
    if len(set(ns)) != 1:
        raise SnapshotFormatError(f"anisotropic shape {ns} not supported")
    half_length, alpha, p, t = _TAIL.unpack_from(blob, body)
    n = ns[0]
    payload = blob[body + _TAIL.size:]
    if len(payload) != 8 * n ** d:
        raise SnapshotFormatError(
            f"payload holds {len(payload)} bytes, expected {8 * n ** d}"
        )
    try:
        grid = Grid(d, n, half_length)
    except ValueError as exc:
        raise SnapshotFormatError(f"bad grid header: {exc}") from None
    values = np.frombuffer(payload, dtype="<f8").reshape(grid.shape)
    return Field(grid, values), SnapshotMeta(alpha, p, t)
