"""Closed-form constants and exponents for the fractional semilinear heat problem.

Everything here is exact-formula work: gamma-function evaluation, the
fractional-Laplacian normalization A(d, alpha), the power-map coefficient
C(gamma) that sends |x|^{-gamma} through the operator, the singular steady
state amplitude, the Hardy constant, critical exponents, and the root solve
for the weight exponent sigma.  All functions are pure; no numpy required.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

_LN_2 = math.log(2.0)
_LN_PI = math.log(math.pi)
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

# Lanczos g=7, n=9 coefficients (Godfrey's set); relative error of the
# reconstructed Gamma is a few ulp on the real half-line.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.

    Lanczos on the well-conditioned range; below 0.5 the recurrence
    Gamma(x) = Gamma(x+1)/x lifts the argument, and above 24 the product
    formula walks down so the (z-0.5)*log(t) term never amplifies rounding
    past ~1e-14 absolute (the target is 1e-13 relative in Gamma).
    """
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        return log_gamma(x + 1.0) - math.log(x)
    if x > 24.0:
        m = int(math.ceil(x - 24.0))
        base = x - m
        return log_gamma(base) + math.fsum(math.log(base + k) for k in range(m))
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (x - 1.0 + k)
    t = x + _LANCZOS_G - 0.5
    return _HALF_LN_2PI + (x - 0.5) * math.log(t) - t + math.log(acc)


@dataclass(frozen=True)
class ModelParams:
    """Problem triple (alpha, d, p) with eager validation."""

    alpha: float
    d: int
    p: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        if not (isinstance(self.d, int) and self.d >= 1):
            raise ValueError(f"d must be a positive integer, got {self.d}")
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")

    @property
    def singular_regime(self) -> bool:
        """Whether the singular steady state exists: d > alpha and p above the singular exponent."""
        p_singular = critical_exponents(self.d, self.alpha)[1]
        return p_singular is not None and self.p > p_singular


def frac_lap_constant(d: int, alpha: float) -> float:
    """Normalization A(d, alpha) = 2^a Gamma((d+a)/2) / (pi^{d/2} |Gamma(-a/2)|).

    |Gamma(-a/2)| = Gamma(1 - a/2) / (a/2) by the recurrence, which keeps the
    evaluation on the positive axis.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return (alpha / 2.0) * math.exp(
        alpha * _LN_2
        + log_gamma((d + alpha) / 2.0)
        - (d / 2.0) * _LN_PI
        - log_gamma(1.0 - alpha / 2.0)
    )


def power_map_coeff(gamma: float, d: int, alpha: float) -> float:
    """Coefficient C(gamma) with (-Delta)^{a/2} |x|^{-gamma} = C(gamma) |x|^{-gamma-a}.

    Defined for 0 < gamma < d - alpha; symmetric about (d-alpha)/2 and
    increasing up to the symmetry point.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    if not 0.0 < gamma < d - alpha:
        raise ValueError(
            f"gamma must lie in (0, d - alpha) = (0, {d - alpha}), got {gamma}"
        )
    return math.exp(
        alpha * _LN_2
        + log_gamma((d - gamma) / 2.0)
        + log_gamma((alpha + gamma) / 2.0)
        - log_gamma((d - alpha - gamma) / 2.0)
        - log_gamma(gamma / 2.0)
    )


def power_map_coeff_max(d: int, alpha: float) -> float:
    """C evaluated at its maximum gamma = (d - alpha)/2."""
    return power_map_coeff((d - alpha) / 2.0, d, alpha)


def singular_amplitude(params: ModelParams) -> float:
    """Amplitude s with u_inf(x) = s |x|^{-alpha/(p-1)} the exact steady state.

    s^{p-1} = C(alpha/(p-1)); requires d > alpha and p above the singular
    exponent so that alpha/(p-1) falls inside C's domain.
    """
    a, d, p = params.alpha, params.d, params.p
    if not params.singular_regime:
        raise ValueError(f"singular amplitude needs d > alpha and p above the singular exponent "
                         f"1 + alpha/(d - alpha), got d={d}, alpha={a}, p={p}")
    return power_map_coeff(a / (p - 1.0), d, a) ** (1.0 / (p - 1.0))


def hardy_constant(d: int, alpha: float) -> float:
    """Best constant c_alpha = pi^alpha [Gamma((d-a)/4)/Gamma((d+a)/4)]^2 of the Hardy inequality."""
    if not 0.0 < alpha < min(d, 2.0):
        raise ValueError(f"hardy_constant needs 0 < alpha < min(d, 2), got alpha={alpha}, d={d}")
    return math.exp(
        alpha * _LN_PI
        + 2.0 * (log_gamma((d - alpha) / 4.0) - log_gamma((d + alpha) / 4.0))
    )


def critical_exponents(d: int, alpha: float) -> tuple[float, float | None]:
    """Fujita exponent 1 + alpha/d and, when d > alpha, the singular exponent 1 + alpha/(d - alpha)."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    p_fujita = 1.0 + alpha / d
    p_singular = 1.0 + alpha / (d - alpha) if d > alpha else None
    return p_fujita, p_singular


def jl_condition(params: ModelParams) -> tuple[bool, float]:
    """Coupling condition p s^{p-1} <= (2 pi)^alpha / c_alpha.

    Returns (satisfied, hardy_ratio) with hardy_ratio = p s^{p-1} c_alpha / (2 pi)^alpha.
    Under it the Hardy-semigroup kernel bound applies.
    """
    kappa = kappa_from_params(params)
    ratio = kappa * hardy_constant(params.d, params.alpha) / (2.0 * math.pi) ** params.alpha
    return ratio <= 1.0 + 1e-12, ratio


def kappa_from_params(params: ModelParams) -> float:
    """Coupling of the linearization at u_inf: kappa = p s^{p-1}."""
    return params.p * singular_amplitude(params) ** (params.p - 1.0)


def kappa_from_delta(params: ModelParams, delta: float) -> float:
    """Coupling dominating a solution under delta*u_inf: kappa = (delta s)^{p-1}."""
    if not 0.0 < delta:
        raise ValueError(f"delta must be positive, got {delta}")
    return (delta * singular_amplitude(params)) ** (params.p - 1.0)


@functools.lru_cache(typed=True)
def solve_sigma(kappa: float, d: int, alpha: float) -> float:
    """Smaller root sigma of C(sigma) = kappa on (0, (d - alpha)/2].

    C is increasing on that interval, so bisection applies.  C is symmetric
    about (d - alpha)/2, so the companion root is d - alpha - sigma.

    Roots are memoized per (kappa, d, alpha) and argument type: a Hardy run
    reads sigma at every output time.
    """
    if not d > alpha:
        raise ValueError(f"a weight exponent needs d > alpha, got d={d}, alpha={alpha}")
    if not kappa > 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    top = (d - alpha) / 2.0
    cmax = power_map_coeff(top, d, alpha)
    if kappa > cmax * (1.0 + 1e-12):
        raise ValueError(
            f"no root: kappa={kappa} exceeds the coefficient maximum {cmax}"
        )
    if kappa >= cmax:
        return top
    lo, hi = 1e-9, top
    if power_map_coeff(lo, d, alpha) > kappa:
        # extremely small kappa; extend the bracket below the default floor
        while lo > 1e-300 and power_map_coeff(lo, d, alpha) > kappa:
            lo *= 1e-2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-14:
            break
        if power_map_coeff(mid, d, alpha) < kappa:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d: 2 pi^{d/2} / Gamma(d/2)."""
    return math.exp(_LN_2 + (d / 2.0) * _LN_PI - log_gamma(d / 2.0))


def ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d: pi^{d/2} / Gamma(d/2 + 1)."""
    return math.exp((d / 2.0) * _LN_PI - log_gamma(d / 2.0 + 1.0))


def singular_morrey_norm(params: ModelParams) -> float:
    """Critical Morrey norm of u_inf: sphere_area(d) * s / (d - alpha/(p-1))."""
    s = singular_amplitude(params)
    return sphere_area(params.d) / (params.d - params.alpha / (params.p - 1.0)) * s


@dataclass(frozen=True)
class RegimeReport:
    """All regime quantities for one parameter triple.

    Fields that require the singular regime are None outside it; sigma is
    None when the linearization coupling exceeds the coefficient maximum
    (no admissible weight exponent).
    """

    p_fujita: float
    p_singular: float | None
    singular_amplitude: float | None
    hardy_ratio: float | None
    jl_satisfied: bool | None
    sigma: float | None
    singular_morrey_norm: float | None


def regime_report(params: ModelParams) -> RegimeReport:
    p_f, p_s = critical_exponents(params.d, params.alpha)
    if not params.singular_regime:
        return RegimeReport(p_f, p_s, None, None, None, None, None)
    satisfied, ratio = jl_condition(params)
    try:
        sigma = solve_sigma(kappa_from_params(params), params.d, params.alpha)
    except ValueError:
        sigma = None
    return RegimeReport(
        p_fujita=p_f,
        p_singular=p_s,
        singular_amplitude=singular_amplitude(params),
        hardy_ratio=ratio,
        jl_satisfied=satisfied,
        sigma=sigma,
        singular_morrey_norm=singular_morrey_norm(params),
    )
