"""Tests for the closed-form constants layer.

The log-gamma oracle below (Stirling series with recurrence shift, in
50-digit decimal arithmetic) is implemented independently of the package
and validated on integer/half-integer points before anything else leans
on it.
"""

import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from scipy.special import gammaln as scipy_gammaln

from fraclab.constants import (
    ModelParams,
    critical_exponents,
    frac_lap_constant,
    hardy_constant,
    jl_condition,
    kappa_from_delta,
    kappa_from_params,
    log_gamma,
    power_map_coeff,
    power_map_coeff_max,
    regime_report,
    singular_amplitude,
    singular_morrey_norm,
    solve_sigma,
)

getcontext().prec = 50

_PI_50 = Decimal("3.14159265358979323846264338327950288419716939937511")

# B_2 .. B_24 as exact rationals for the Stirling tail
_BERNOULLI = [
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
    Fraction(854513, 138),
    Fraction(-236364091, 2730),
]


def stirling_log_gamma(x):
    """Oracle: ln Gamma(x) via recurrence shift to z >= 30 plus the Stirling
    series, all in Decimal.  Truncation error is below 1e-30 there."""
    z = Decimal(x)
    shift = Decimal(0)
    while z < 30:
        shift += z.ln()
        z += 1
    half = Decimal(1) / 2
    out = (z - half) * z.ln() - z + ((2 * _PI_50).ln()) * half
    zpow = z
    for n, b in enumerate(_BERNOULLI, start=1):
        out += Decimal(b.numerator) / (Decimal(b.denominator) * Decimal(2 * n * (2 * n - 1)) * zpow)
        zpow *= z * z
    return out - shift


def test_oracle_on_integer_and_half_integer_points():
    # the oracle itself must be right before it referees anything
    assert abs(stirling_log_gamma(1.0)) < Decimal("1e-30")
    assert abs(stirling_log_gamma(5.0) - Decimal(24).ln()) < Decimal("1e-28")
    assert abs(stirling_log_gamma(0.5) - _PI_50.sqrt().ln()) < Decimal("1e-30")
    # Gamma(7.5) = 135135/128 * sqrt(pi) via Gamma(n + 1/2) = (2n)!/(4^n n!) sqrt(pi)
    exact = (Decimal(135135) / Decimal(128) * _PI_50.sqrt()).ln()
    assert abs(stirling_log_gamma(7.5) - exact) < Decimal("1e-28")
    assert abs(stirling_log_gamma(100.0) - Decimal(math.factorial(99)).ln()) < Decimal("1e-25")


def test_log_gamma_matches_oracle_to_1e13():
    # criterion: |exp(result) - Gamma| / Gamma < 1e-13 over [1e-3, 170],
    # equivalently |result - ln Gamma| < 1e-13 at these magnitudes
    rng = random.Random(7)
    xs = [1e-3, 0.01, 0.1, 0.49, 0.5, 0.51, 1.0, 2.75, 5.0, 23.9, 24.1, 170.0]
    xs += [10 ** rng.uniform(-3, math.log10(170)) for _ in range(200)]
    worst = Decimal(0)
    for x in xs:
        err = abs(Decimal(log_gamma(x)) - stirling_log_gamma(x))
        worst = max(worst, err)
    assert worst < Decimal("1e-13"), f"worst log-gamma error {worst}"


def test_log_gamma_trivial_points():
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-15)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-14)


def test_log_gamma_third_referee_scipy():
    # both implementations should sit within a couple ulp of each other
    rng = random.Random(11)
    for _ in range(300):
        x = 10 ** rng.uniform(-3, 2.23)
        assert abs(log_gamma(x) - scipy_gammaln(x)) < 1e-12 * max(1.0, abs(scipy_gammaln(x)))


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.3)


def test_frac_lap_constant_closed_forms():
    assert frac_lap_constant(1, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert frac_lap_constant(3, 1.0) == pytest.approx(1.0 / math.pi**2, rel=1e-14)


def test_frac_lap_constant_positive():
    rng = random.Random(3)
    for _ in range(50):
        d = rng.randint(1, 10)
        alpha = rng.uniform(0.05, 1.95)
        assert frac_lap_constant(d, alpha) > 0.0


def test_frac_lap_constant_domain():
    with pytest.raises(ValueError):
        frac_lap_constant(3, 2.0)
    with pytest.raises(ValueError):
        frac_lap_constant(3, 0.0)


def test_power_map_symmetry():
    rng = random.Random(5)
    for _ in range(100):
        d = rng.randint(1, 12)
        alpha = rng.uniform(0.05, min(1.95, d - 0.05))
        g = rng.uniform(1e-3, d - alpha - 1e-3)
        c1 = power_map_coeff(g, d, alpha)
        c2 = power_map_coeff(d - alpha - g, d, alpha)
        assert c1 == pytest.approx(c2, rel=1e-12)


def test_power_map_alpha2_reduction_richardson():
    # C(gamma; d, alpha) -> gamma (d - 2 - gamma) as alpha -> 2; the linear
    # alpha-dependence is removed by Richardson extrapolation
    for d, g in [(5, 1.0), (4, 0.7), (7, 2.2)]:
        c1 = power_map_coeff(g, d, 2.0 - 1e-6)
        c2 = power_map_coeff(g, d, 2.0 - 2e-6)
        limit = g * (d - 2.0 - g)
        assert abs(2.0 * c1 - c2 - limit) < 1e-8
    assert power_map_coeff(1.0, 5, 2.0 - 1e-6) == pytest.approx(2.0, rel=1e-5)


def test_power_map_maximum_identity():
    rng = random.Random(9)
    for _ in range(50):
        d = rng.randint(1, 10)
        alpha = rng.uniform(0.05, min(1.95, d - 0.05))
        lhs = power_map_coeff_max(d, alpha) * hardy_constant(d, alpha)
        assert lhs == pytest.approx((2.0 * math.pi) ** alpha, rel=1e-12)
    # (d=3, alpha=1): both sides equal 2/pi * pi^2 = 2 pi
    assert power_map_coeff_max(3, 1.0) == pytest.approx(2.0 / math.pi, rel=1e-13)


def test_power_map_domain():
    with pytest.raises(ValueError):
        power_map_coeff(0.0, 3, 1.0)
    with pytest.raises(ValueError):
        power_map_coeff(2.0, 3, 1.0)


def test_singular_amplitude_values():
    assert singular_amplitude(ModelParams(1.0, 3, 2.0)) == pytest.approx(2.0 / math.pi, rel=1e-13)
    # alpha -> 2 limit against the classical formula (2/(p-1) (d-2-2/(p-1)))^{1/(p-1)}
    s = singular_amplitude(ModelParams(2.0 - 1e-6, 5, 2.0))
    assert abs(s - 2.0) / 2.0 < 1e-6


def test_singular_amplitude_consistency():
    rng = random.Random(13)
    n = 0
    while n < 100:
        d = rng.randint(1, 12)
        alpha = rng.uniform(0.05, min(1.95, d - 0.05))
        p_sg = 1.0 + alpha / (d - alpha)
        p = p_sg + rng.uniform(0.05, 3.0)
        params = ModelParams(alpha, d, p)
        s = singular_amplitude(params)
        c = power_map_coeff(alpha / (p - 1.0), d, alpha)
        assert s ** (p - 1.0) == pytest.approx(c, rel=1e-12)
        n += 1


def test_singular_amplitude_domain():
    with pytest.raises(ValueError, match="d=1, alpha=1.5, p=3.0"):
        singular_amplitude(ModelParams(1.5, 1, 3.0))  # d < alpha
    with pytest.raises(ValueError, match="singular exponent"):
        singular_amplitude(ModelParams(1.0, 3, 1.2))  # below singular exponent


def test_hardy_constant_closed_forms():
    assert hardy_constant(3, 1.0) == pytest.approx(math.pi**2, rel=1e-13)
    assert hardy_constant(5, 1.0) == pytest.approx(4.0, rel=1e-13)
    with pytest.raises(ValueError):
        hardy_constant(1, 1.5)


def test_critical_exponents():
    assert critical_exponents(3, 1.0) == pytest.approx((4.0 / 3.0, 1.5))
    assert critical_exponents(1, 0.5) == pytest.approx((1.5, 2.0))
    pf, ps = critical_exponents(1, 1.5)
    assert ps is None
    rng = random.Random(17)
    for _ in range(50):
        d = rng.randint(1, 10)
        alpha = rng.uniform(0.05, min(1.95, d - 0.05))
        pf, ps = critical_exponents(d, alpha)
        assert ps > pf


def test_jl_condition_examples():
    ok, ratio = jl_condition(ModelParams(1.0, 3, 2.0))
    assert not ok
    assert ratio == pytest.approx(2.0, rel=1e-12)


def test_jl_condition_at_critical_p_ratio_equals_p():
    # at p = (d+alpha)/(d-alpha): s^{p-1} = C((d-alpha)/2) = (2pi)^a/c_a, so ratio = p
    for d, alpha in [(3, 1.0), (5, 1.0), (10, 1.5), (2, 0.5)]:
        p = (d + alpha) / (d - alpha)
        ok, ratio = jl_condition(ModelParams(alpha, d, p))
        assert not ok
        assert ratio == pytest.approx(p, rel=1e-10)


def test_jl_condition_satisfiable_near_singular_exponent():
    for d in (10, 20):
        _, p_sg = critical_exponents(d, 1.0)
        found = False
        for k in range(1, 100):
            p = p_sg + 0.005 * k
            ok, _ = jl_condition(ModelParams(1.0, d, p))
            if ok:
                found = True
                break
        assert found, f"no JL-satisfying p near p_singular for d={d}"


def test_solve_sigma_at_maximum():
    for d, alpha in [(3, 1.0), (1, 0.5), (10, 1.5)]:
        cmax = power_map_coeff_max(d, alpha)
        assert solve_sigma(cmax, d, alpha) == pytest.approx((d - alpha) / 2.0, abs=1e-12)


def test_solve_sigma_residual_and_bracket():
    sigma = solve_sigma(1.0 / math.pi, 3, 1.0)
    assert 0.0 < sigma < 1.0
    assert power_map_coeff(sigma, 3, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_solve_sigma_monotone_in_kappa():
    cmax = power_map_coeff_max(3, 1.0)
    ladder = [cmax * k / 21.0 for k in range(1, 21)]
    sigmas = [solve_sigma(k, 3, 1.0) for k in ladder]
    assert all(a < b for a, b in zip(sigmas, sigmas[1:]))


def test_solve_sigma_inverts_power_map():
    rng = random.Random(23)
    for _ in range(50):
        d = rng.randint(2, 10)
        alpha = rng.uniform(0.1, min(1.9, d - 0.1))
        g = rng.uniform(1e-3, (d - alpha) / 2.0)
        kappa = power_map_coeff(g, d, alpha)
        assert solve_sigma(kappa, d, alpha) == pytest.approx(g, abs=1e-10)


def test_solve_sigma_errors():
    with pytest.raises(ValueError):
        solve_sigma(0.0, 3, 1.0)
    with pytest.raises(ValueError):
        solve_sigma(10.0 * power_map_coeff_max(3, 1.0), 3, 1.0)


def test_sigma_upper_symmetry():
    kappa = 0.5 * power_map_coeff_max(3, 1.0)
    lo = solve_sigma(kappa, 3, 1.0)
    hi = 3 - 1.0 - lo  # C is symmetric about (d - alpha)/2
    assert lo < 1.0 < hi
    assert power_map_coeff(hi, 3, 1.0) == pytest.approx(kappa, rel=1e-10)


def test_sigma_above_linearization_exponent_in_provable_regime():
    # when alpha/(p-1) < (d-alpha)/2 and JL holds, kappa = p s^{p-1} > C(alpha/(p-1))
    # forces the smaller root above alpha/(p-1)
    rng = random.Random(29)
    found = 0
    while found < 50:
        d = rng.choice([8, 10, 12, 16, 20, 24])
        alpha = rng.choice([0.5, 1.0, 1.5])
        p = rng.uniform(2.0, 8.0)
        params = ModelParams(alpha, d, p)
        if alpha / (p - 1.0) >= (d - alpha) / 2.0:
            continue
        ok, _ = jl_condition(params)
        if not ok:
            continue
        sigma = solve_sigma(kappa_from_params(params), d, alpha)
        assert alpha / (p - 1.0) < sigma <= (d - alpha) / 2.0
        found += 1


def test_kappa_bindings():
    params = ModelParams(0.5, 1, 3.0)
    s = singular_amplitude(params)
    assert kappa_from_params(params) == pytest.approx(3.0 * s**2, rel=1e-14)
    assert kappa_from_delta(params, 0.5) == pytest.approx((0.5 * s) ** 2, rel=1e-14)


def test_singular_morrey_norm_closed_forms():
    assert singular_morrey_norm(ModelParams(1.0, 3, 2.0)) == pytest.approx(4.0, rel=1e-12)
    v = singular_morrey_norm(ModelParams(2.0 - 1e-6, 5, 2.0))
    assert v == pytest.approx(16.0 * math.pi**2 / 9.0, rel=1e-5)


def test_regime_report_consistency():
    rep = regime_report(ModelParams(0.5, 1, 3.0))
    assert rep.jl_satisfied == (rep.hardy_ratio <= 1.0 + 1e-12)
    assert rep.sigma is None  # coupling above the coefficient maximum
    assert rep.p_singular == pytest.approx(2.0)
    rep2 = regime_report(ModelParams(0.5, 1, 2.1))
    assert rep2.jl_satisfied
    assert rep2.sigma is not None
    assert power_map_coeff(rep2.sigma, 1, 0.5) == pytest.approx(
        kappa_from_params(ModelParams(0.5, 1, 2.1)), rel=1e-10
    )
    rep3 = regime_report(ModelParams(1.5, 1, 3.0))
    assert rep3.singular_amplitude is None
    assert rep3.p_singular is None
