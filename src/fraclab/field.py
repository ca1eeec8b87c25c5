"""Periodic-box scalar fields with spectral transforms and weighted norms.

The box is [-L, L)^d sampled on a uniform n^d lattice, so every linear
evolution here is diagonal in the discrete Fourier basis.  Angular
frequencies are (pi/L)*k per axis, which makes the alpha = 2 flow match
the analytic Gaussian semigroup without rescaling.
"""

from __future__ import annotations

import functools
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


def _freq_magnitude(grid: Grid) -> np.ndarray:
    # rfftn layout: full frequency axes except the last, which is halved
    full = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.h)
    half = 2.0 * np.pi * np.fft.rfftfreq(grid.n, d=grid.h)
    return _hypot([full] * (grid.d - 1) + [half])


@dataclass(frozen=True, eq=False)
class Field:
    """Immutable scalar field on a Grid; values are validated finite."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values = values.copy()
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


def sample(grid: Grid, datum) -> Field:
    """Evaluate an initial datum on the lattice; values are nonnegative."""
    if isinstance(datum, GaussianDatum):
        r = grid.radius()
        values = datum.amplitude * np.exp(-((r / datum.width) ** 2))
    elif isinstance(datum, TruncatedSingularDatum):
        if datum.delta >= 1.0:
            warnings.warn(
                f"delta = {datum.delta} >= 1: datum is not a strict sub-steady state",
                UserWarning,
                stacklevel=2,
            )
        params = datum.params
        s = singular_amplitude(params)
        m = params.alpha / (params.p - 1.0)
        values = datum.delta * s * grid.capped_radius() ** (-m)
    elif isinstance(datum, PowerTailDatum):
        params = datum.params
        s = singular_amplitude(params)
        m = params.alpha / (params.p - 1.0)
        rc = grid.capped_radius()
        values = np.minimum(
            datum.amplitude * rc ** (-datum.gamma0),
            datum.delta * s * rc ** (-m),
        )
    elif isinstance(datum, SteadyTailDeficitDatum):
        base = steady_state(grid, datum.params).values
        values = np.maximum(base - datum.b * grid.capped_radius() ** (-datum.ell), 0.0)
    elif isinstance(datum, SteadyBumpDeficitDatum):
        base = steady_state(grid, datum.params).values
        dent = datum.b * np.exp(-((grid.radius() / datum.width) ** 2))
        values = np.maximum(base - dent, 0.0)
    else:
        raise TypeError(f"unsupported datum type {type(datum).__name__}")
    return Field(grid, values)


def steady_state(grid: Grid, params: ModelParams) -> Field:
    """The scale-invariant steady profile s |x|^{-alpha/(p-1)}, half-cell capped."""
    s = singular_amplitude(params)
    m = params.alpha / (params.p - 1.0)
    return Field(grid, s * grid.capped_radius() ** (-m))


# ---------------------------------------------------------------------------
# fractional heat flow

_FFT_SHARE = threading.local()


def thread_count(threads=None) -> int:
    """Worker count: explicit argument, else FRACLAB_THREADS, else 1."""
    if threads is not None:
        n = int(threads)
    else:
        raw = os.environ.get("FRACLAB_THREADS", "1")
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


class SpectralPropagator:
    """exp(-t (-Laplace)^{alpha/2}) on one grid by real FFTs.

    Holds the symbol |k|^alpha, the multiplier of the last t it was
    applied with (equal substeps reuse it) and the transform pair: numpy's
    rfft/irfft on d = 1, where FFT workers cannot split a single transform
    and numpy.fft costs no import, and scipy.fft's rfftn/irfftn with
    workers on d >= 2.  The zero mode carries multiplier 1, so mass is
    preserved exactly.  Shared instances are safe across threads: the
    cache swaps a (t, array) pair.
    """

    def __init__(self, grid: Grid, alpha: float):
        if not 0.0 < alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
        self._fft = None
        if grid.d > 1:
            import scipy.fft  # deferred: only d >= 2 spectral steps load it

            self._fft = scipy.fft
        self._symbol = _cached(grid, ("symbol", alpha), lambda g: _freq_magnitude(g) ** alpha)
        self._shape = grid.shape
        self._last = (None, None)

    def multiplier(self, t: float) -> np.ndarray:
        last_t, mult = self._last
        if last_t != t:
            mult = np.multiply(self._symbol, -t)
            np.exp(mult, out=mult)
            self._last = (t, mult)
        return mult

    def __call__(self, values: np.ndarray, t: float) -> np.ndarray:
        """A new array: values carried forward by time t."""
        if self._fft is None:
            spectrum = np.fft.rfft(values)
            spectrum *= self.multiplier(t)
            return np.fft.irfft(spectrum, self._shape[0])
        workers = getattr(_FFT_SHARE, "workers", None) or thread_count()
        spectrum = self._fft.rfftn(values, workers=workers)
        spectrum *= self.multiplier(t)
        return self._fft.irfftn(spectrum, self._shape, workers=workers)


@functools.lru_cache(maxsize=None)
def propagator(grid: Grid, alpha: float) -> SpectralPropagator:
    """The shared SpectralPropagator of (grid, alpha); clear_grid_cache drops it."""
    return SpectralPropagator(grid, alpha)


def heat_propagate(field: Field, t: float, alpha: float) -> Field:
    """Apply exp(-t (-Laplace)^{alpha/2}); t = 0 returns the input field."""
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    prop = propagator(field.grid, alpha)
    return field if t == 0.0 else Field(field.grid, prop(field.values, t))


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
