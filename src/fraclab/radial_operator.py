"""Principal-value quadrature for the integral fractional Laplacian on
radial profiles, d >= 2.

This is the oracle path, independent of the spectral propagator: the
operator is evaluated as

    A(d, alpha) |S^{d-1}| int_0^inf s^{-1-alpha} [f(r) - M_s f(r)] ds

where M_s f(r) is the mean of f over the sphere of radius s centered at a
point with |x| = r.  The angular averaging regularizes the principal value
(the integrand behaves as s^{1-alpha} near s = 0), so no symmetrized
pairing is needed.  The sign convention is +(-Delta)^{alpha/2} f: on a
power profile |x|^{-g} the result is power_map_coeff(g) * r^{-g-alpha} > 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from . import np
from .constants import frac_lap_constant, log_gamma, sphere_area, singular_amplitude


@dataclass
class RadialProfile:
    """Radial function sampled on a strictly increasing logarithmic grid.

    The values must be positive.  Between nodes they are interpolated
    monotone-cubically in (log r, log value).  Below the first node the
    value is the constant values[0] (capped core); beyond the last node the
    profile continues as a power tail values[-1] * (r / radii[-1])^{-tail_exponent}.
    """

    radii: np.ndarray
    values: np.ndarray
    d: int
    tail_exponent: float
    _interp: object = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.radii.ndim != 1 or self.radii.shape != self.values.shape:
            raise ValueError("radii and values must be 1-d arrays of equal length")
        if not (self.radii[0] > 0.0 and np.all(np.diff(self.radii) > 0.0)):
            raise ValueError("radii must be strictly increasing and positive")
        if not (isinstance(self.d, int) and self.d >= 2):
            raise ValueError(f"d must be an integer >= 2, got {self.d}")
        if not np.all(self.values > 0.0):
            raise ValueError("values must be positive")
        self._interp = _MonotoneCubic(np.log(self.radii), np.log(self.values))

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        below = r < self.radii[0]
        above = r > self.radii[-1]
        mid = ~below & ~above
        out[below] = self.values[0]
        with np.errstate(divide="ignore"):
            out[above] = self.values[-1] * (r[above] / self.radii[-1]) ** (
                -self.tail_exponent
            )
        out[mid] = np.exp(self._interp(np.log(r[mid])))
        return out

    @property
    def resolved(self) -> tuple:
        """The radii (lo, hi) one decade inside the grid, where frac_lap_radial evaluates."""
        return self.radii[0] * 10.0, self.radii[-1] / 10.0


class _MonotoneCubic:
    """Piecewise cubic Hermite interpolant with PCHIP slopes on [x[0], x[-1]].

    Interior slopes are the weighted harmonic mean of the adjacent secants
    (Fritsch & Butland, SIAM J. Sci. Stat. Comput. 5:300, 1984), zero where
    the secants differ in sign or one vanishes; the end slopes follow the
    shape-preserving three-point rule, and two nodes give the secant line.
    Coefficients and evaluation order are those of scipy's
    PchipInterpolator, so values agree with it bit for bit.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        if x.size < 2 or not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("a monotone cubic needs at least two finite nodes")
        h = np.diff(x)
        m = np.diff(y) / h
        slope = np.zeros_like(y)
        if m.size == 1:
            slope[:] = m[0]
        else:
            m0, m1 = m[:-1], m[1:]
            keep = (np.sign(m0) == np.sign(m1)) & (m0 != 0.0) & (m1 != 0.0)
            w1, w2 = (2 * h[1:] + h[:-1])[keep], (h[1:] + 2 * h[:-1])[keep]
            slope[1:-1][keep] = 1.0 / ((w1 / m0[keep] + w2 / m1[keep]) / (w1 + w2))
            slope[0] = _end_slope(h[0], h[1], m[0], m[1])
            slope[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (slope[:-1] + slope[1:] - 2 * m) / h
        self._x = x
        self._c = (y[:-1], slope[:-1], (m - slope[:-1]) / h - t, t / h)

    def __call__(self, q: np.ndarray) -> np.ndarray:
        # interval i holds x[i] <= q < x[i+1]; q = x[-1] falls in the last one
        i = np.searchsorted(self._x[1:-1], q, side="right")
        s = q - self._x[i]
        c0, c1, c2, c3 = (c[i] for c in self._c)
        s2 = s * s
        return c0 + c1 * s + c2 * s2 + c3 * (s2 * s)


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point slope, clipped to keep the end interval monotone."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """leggauss(n) as read-only arrays, built once per n."""
    from numpy.polynomial.legendre import leggauss  # no CLI start-up needs it

    nodes, weights = leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=None)
def _angular_rule(d: int, n_angular: int):
    # Gauss-Legendre on theta in (0, pi); the sin^{d-2} weight is carried in
    # the integrand and divided out by its exact integral.  Returns the
    # squared chord 2(1 - cos theta), cancellation-free, and the weights.
    tq, tw = _gauss_legendre(n_angular)
    theta = 0.5 * math.pi * (tq + 1.0)
    w = 0.5 * math.pi * tw * np.sin(theta) ** (d - 2)
    norm = math.exp(
        0.5 * math.log(math.pi) + log_gamma((d - 1) / 2.0) - log_gamma(d / 2.0)
    )
    w /= norm
    half = 4.0 * np.sin(0.5 * theta) ** 2
    half.flags.writeable = w.flags.writeable = False
    return half, w


def frac_lap_radial(
    profile: RadialProfile,
    alpha: float,
    r_eval: float,
    n_angular: int = 64,
    n_radial: int = 32,
    n_octaves: int = 20,
) -> float:
    """+(-Delta)^{alpha/2} of a radial profile at radius r_eval.

    Radial integral on dyadic panels covering s in [r 2^-n_octaves,
    r 2^n_octaves] (about [r*1e-6, r*1e6] at the default), Gauss-Legendre
    n_radial points per panel; the truncated far tail is completed in
    closed form assuming the profile's power tail (without it the alpha=0.5
    truncation error alone is ~1e-3 relative).  The skipped inner core
    contributes O((2^-n_octaves)^{2-alpha}) and is ignored.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    lo, hi = profile.resolved
    if not lo <= r_eval <= hi:
        raise ValueError(
            f"r_eval={r_eval} outside the resolved annulus [{lo}, {hi}] "
            "(one decade inside the profile grid)"
        )
    half, ang_w = _angular_rule(profile.d, n_angular)
    gq, gw = _gauss_legendre(n_radial)
    edges = r_eval * 2.0 ** np.arange(-n_octaves, n_octaves + 1, dtype=float)
    f_r = float(profile(np.array([r_eval]))[0])
    total = 0.0
    for a_, b_ in zip(edges[:-1], edges[1:]):
        s = 0.5 * (b_ - a_) * gq + 0.5 * (b_ + a_)
        w = 0.5 * (b_ - a_) * gw
        rho = np.sqrt((r_eval - s[:, None]) ** 2 + r_eval * s[:, None] * half[None, :])
        mean = profile(rho) @ ang_w
        total += float(np.sum(w * s ** (-1.0 - alpha) * (f_r - mean)))
    # far-tail completion: int_S^inf s^{-1-a} [f(r) - f(s)] ds with f(s) the
    # power continuation; M_s f -> f(s) to leading order as s -> inf
    S = edges[-1]
    f_S = float(profile(np.array([S]))[0])
    total += f_r * S ** (-alpha) / alpha - f_S * S ** (-alpha) / (
        alpha + profile.tail_exponent
    )
    return frac_lap_constant(profile.d, alpha) * sphere_area(profile.d) * total


def steady_residual(
    params,
    r_min: float,
    r_max: float,
    n_points: int,
    n_angular: int = 64,
    n_radial: int = 32,
    n_octaves: int = 20,
):
    """Relative defect of the steady equation (-Delta)^{a/2} u = u^p on [r_min, r_max].

    Returns (max_relative_residual, per_point) with per_point a list of
    (r, residual).  The profile, s |x|^{-alpha/(p-1)} on 2048 log nodes over
    [1e-4, 1e4], spans 8 decades so the annulus sits well inside its resolved region.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    if r_min > r_max:
        raise ValueError(f"r_min = {r_min} exceeds r_max = {r_max}")
    if not params.singular_regime:
        raise ValueError("steady_residual requires the singular regime (d > alpha, p > p_singular)")
    gamma = params.alpha / (params.p - 1.0)
    s_amp = singular_amplitude(params)
    radii = np.geomspace(1e-4, 1e4, 2048)
    prof = RadialProfile(radii, s_amp * radii ** (-gamma), params.d, tail_exponent=gamma)
    if not prof.resolved[0] <= r_min <= r_max <= prof.resolved[1]:
        raise ValueError(f"[{r_min}, {r_max}] outside the resolved annulus")
    per_point = []
    for r in np.geomspace(r_min, r_max, n_points):
        lhs = frac_lap_radial(
            prof, params.alpha, float(r),
            n_angular=n_angular, n_radial=n_radial, n_octaves=n_octaves,
        )
        rhs = (s_amp * r ** (-gamma)) ** params.p
        per_point.append((float(r), abs(lhs - rhs) / rhs))
    return max(res for _, res in per_point), per_point
