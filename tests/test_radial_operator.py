"""Tests for the radial principal-value quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

import fraclab.radial_operator as ro
from fraclab.constants import ModelParams, power_map_coeff, singular_amplitude
from fraclab.radial_operator import RadialProfile, _MonotoneCubic, frac_lap_radial, steady_residual


def power_profile(gamma, d, r_lo=1e-4, r_hi=1e4, n=512):
    radii = np.geomspace(r_lo, r_hi, n)
    return RadialProfile(radii, radii ** (-gamma), d, tail_exponent=gamma)


def test_constant_profile_maps_to_zero():
    # analytic zero; numerically the s^{-1-alpha} factor near s=0 amplifies
    # the ~1e-15 rounding jitter of the angular mean to a floor ~1e-8/r
    radii = np.geomspace(1e-3, 1e3, 128)
    prof = RadialProfile(radii, np.ones_like(radii), 3, tail_exponent=0.0)
    for r in (0.1, 1.0, 10.0):
        assert abs(frac_lap_radial(prof, 1.0, r)) < 1e-7 * max(1.0, 1.0 / r)


def test_power_profile_reproduces_coefficient():
    # (d=3, alpha=1, gamma=0.5, r=1) -> C(0.5) = 0.5 within 0.5 percent
    prof = power_profile(0.5, 3)
    got = frac_lap_radial(prof, 1.0, 1.0)
    assert got == pytest.approx(0.5, rel=5e-3)
    # exponent scaling -gamma-alpha at several radii
    for r in (0.3, 1.0, 3.0):
        got = frac_lap_radial(prof, 1.0, r)
        assert got == pytest.approx(0.5 * r ** (-1.5), rel=5e-3)


def test_power_profile_other_configs():
    for d, alpha, gamma in [(2, 0.5, 1.0 / 3.0), (3, 0.5, 1.0), (4, 1.5, 0.9)]:
        prof = power_profile(gamma, d)
        tgt = power_map_coeff(gamma, d, alpha)
        assert frac_lap_radial(prof, alpha, 1.0) == pytest.approx(tgt, rel=5e-3)


def test_steady_residual_canonical_configs():
    for alpha, d, p in [(1.0, 3, 2.0), (0.5, 2, 2.0), (0.5, 3, 2.0)]:
        params = ModelParams(alpha, d, p)
        worst, per_point = steady_residual(params, 0.5, 2.0, 9)
        assert worst < 0.02, f"residual {worst} at (alpha={alpha}, d={d}, p={p})"
        assert len(per_point) == 9


def test_steady_residual_halves_under_quadrature_doubling():
    # start from a deliberately coarse rule so the error is quadrature-dominated
    params = ModelParams(1.0, 3, 2.0)
    coarse, _ = steady_residual(params, 0.8, 1.2, 3, n_angular=6, n_radial=3, n_octaves=6)
    fine, _ = steady_residual(params, 0.8, 1.2, 3, n_angular=12, n_radial=6, n_octaves=12)
    assert fine < coarse / 2.0


def test_steady_residual_scale_covariant():
    params = ModelParams(1.0, 3, 2.0)
    _, pts = steady_residual(params, 0.5, 2.0, 3)
    residuals = [res for _, res in pts]
    # evaluation at r and 4r differ only by quadrature noise
    assert abs(residuals[0] - residuals[-1]) < 1e-4


def test_wrong_amplitude_detected():
    params = ModelParams(1.0, 3, 2.0)
    gamma = params.alpha / (params.p - 1.0)
    s_amp = 1.1 * singular_amplitude(params)
    radii = np.geomspace(1e-4, 1e4, 2048)
    prof = RadialProfile(radii, s_amp * radii ** (-gamma), 3, tail_exponent=gamma)
    lhs = frac_lap_radial(prof, 1.0, 1.0)
    rhs = (s_amp * 1.0) ** params.p
    assert abs(lhs - rhs) / rhs > 0.05


def test_linearity_exact_on_representable_profiles():
    # log-log interpolation is exact for pure powers, so linearity here is
    # limited only by the (linear) quadrature itself
    radii = np.geomspace(1e-4, 1e4, 512)
    prof_a = RadialProfile(radii, 2.0 * radii ** (-0.5), 3, tail_exponent=0.5)
    prof_b = RadialProfile(radii, 5.0 * radii ** (-0.5), 3, tail_exponent=0.5)
    mix = RadialProfile(radii, 7.0 * radii ** (-0.5), 3, tail_exponent=0.5)
    got = frac_lap_radial(mix, 1.0, 1.0)
    want = frac_lap_radial(prof_a, 1.0, 1.0) + frac_lap_radial(prof_b, 1.0, 1.0)
    assert got == pytest.approx(want, rel=1e-10)


def test_linearity_mixed_exponents():
    # sums of unlike powers are not exactly interpolable in log-log; the
    # defect is pure interpolation error and sits near 1e-9 at this density
    radii = np.geomspace(1e-4, 1e4, 2048)
    prof_a = RadialProfile(radii, radii ** (-0.5), 3, tail_exponent=0.5)
    prof_b = RadialProfile(radii, radii ** (-1.2), 3, tail_exponent=1.2)
    mix = RadialProfile(
        radii, 2.0 * prof_a(radii) + 3.0 * prof_b(radii), 3, tail_exponent=0.5
    )
    got = frac_lap_radial(mix, 1.0, 1.0)
    want = 2.0 * frac_lap_radial(prof_a, 1.0, 1.0) + 3.0 * frac_lap_radial(prof_b, 1.0, 1.0)
    assert got == pytest.approx(want, rel=1e-8)


def test_sign_at_interior_maximum():
    # profile with a strict global maximum on the sphere r = 1: the semigroup
    # generator -(-Delta)^{a/2} f must be <= 0 there (maximum principle)
    radii = np.geomspace(1e-3, 1e3, 512)
    vals = np.exp(-((np.log(radii)) ** 2))
    prof = RadialProfile(radii, vals, 3, tail_exponent=3.0)
    assert -frac_lap_radial(prof, 1.0, 1.0) <= 0.0
    assert -frac_lap_radial(prof, 0.5, 1.0) <= 0.0


def test_domain_errors():
    prof = power_profile(0.5, 3)
    with pytest.raises(ValueError):
        frac_lap_radial(prof, 2.0, 1.0)
    with pytest.raises(ValueError):
        frac_lap_radial(prof, 1.0, 1e-4)  # inside the unresolved decade
    with pytest.raises(ValueError):
        RadialProfile(np.array([1.0, 0.5]), np.array([1.0, 1.0]), 3, tail_exponent=1.0)
    with pytest.raises(ValueError):
        RadialProfile(np.array([1.0, 2.0]), np.array([1.0, 1.0]), 1, tail_exponent=1.0)


def test_steady_residual_rejects_bad_sampling():
    params = ModelParams(1.0, 3, 2.0)
    with pytest.raises(ValueError, match="n_points must be at least 1"):
        steady_residual(params, 0.5, 2.0, 0)
    with pytest.raises(ValueError, match="exceeds r_max"):
        steady_residual(params, 2.0, 0.5, 3)


def test_steady_residual_rejects_an_unresolved_r_max_before_any_quadrature(monkeypatch):
    # the steady profile resolves [1e-3, 1e3]; r = 0.5 and 31.6 lie inside
    # it, so only the early check keeps their quadratures from running
    calls = []

    def counting(profile, alpha, r_eval, **kwargs):
        calls.append(r_eval)
        return frac_lap_radial(profile, alpha, r_eval, **kwargs)

    monkeypatch.setattr(ro, "frac_lap_radial", counting)
    params = ModelParams(1.0, 3, 2.0)
    with pytest.raises(ValueError, match="outside the resolved annulus"):
        steady_residual(params, 0.5, 2e3, 3)
    assert calls == []
    steady_residual(params, 0.5, 31.6, 1)
    assert calls == [0.5]


def test_malformed_positive_profiles_rejected():
    with pytest.raises(ValueError):
        RadialProfile(np.array([1.0]), np.array([1.0]), 3, tail_exponent=1.0)
    with pytest.raises(ValueError):
        RadialProfile(np.array([1.0, 2.0]), np.array([1.0, np.inf]), 3, tail_exponent=1.0)
    with pytest.raises(ValueError):
        RadialProfile(np.array([1.0, np.inf]), np.array([1.0, 1.0]), 3, tail_exponent=1.0)
    with pytest.raises(ValueError, match="positive"):
        RadialProfile(np.array([1.0, 2.0]), np.array([1.0, 0.0]), 3, tail_exponent=1.0)
    with pytest.raises(ValueError, match="positive"):
        RadialProfile(np.array([1.0, 2.0]), np.array([-1.0, 1.0]), 3, tail_exponent=1.0)


@st.composite
def _pchip_data(draw):
    n = draw(st.integers(2, 60))
    steps = st.floats(1e-3, 10.0)
    x = np.cumsum([draw(st.floats(-10.0, 10.0))] + draw(st.lists(steps, min_size=n - 1, max_size=n - 1)))
    if draw(st.booleans()):  # monotone data, with flat runs
        y = np.cumsum(draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n)))
    else:  # sign-changing slopes
        y = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    fractions = draw(st.lists(st.floats(0.0, 1.0), max_size=40))
    q = np.concatenate([x, np.minimum(x[0] + np.array(fractions) * (x[-1] - x[0]), x[-1])])
    return x, y, q


@settings(max_examples=200, deadline=None)
@given(data=_pchip_data())
def test_monotone_cubic_matches_scipy_pchip(data):
    x, y, q = data
    with np.errstate(over="ignore"):  # secants near the subnormal range
        want = PchipInterpolator(x, y, extrapolate=False)(q)
        got = _MonotoneCubic(x, y)(q)
    np.testing.assert_array_equal(got, want)
