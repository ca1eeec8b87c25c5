"""End-to-end acceptance suite.

Each test exercises one release criterion at its stated tolerance and
registers a single verdict line (see conftest.record_criterion), so the
run log carries a compact pass/fail table of the whole gate.

Criterion 4 runs the pinned Gaussian datum on the canonical box and
checks the decay the theory promises for it: at least as fast as the
bound t^{-1/(p-1)}, and at the slope of the free fractional heat flow,
which a quadrature computed in the test supplies.  The companion test
runs the same measurement with a datum that carries the critical tail,
the one class for which the bound is sharp, and checks the rate
-1/(p-1) itself.
"""

import dataclasses
import json
import math

import numpy as np
from scipy.integrate import quad

from conftest import record_criterion

from fraclab.analysis import (
    classify_threshold,
    default_fit_window,
    envelope_max,
    fit_power_law,
)
from fraclab.config import InitialSpec, config_from_dict
from fraclab.constants import (
    ModelParams,
    hardy_constant,
    jl_condition,
    kappa_from_params,
    log_gamma,
    power_map_coeff,
    power_map_coeff_max,
    singular_amplitude,
    singular_morrey_norm,
    solve_sigma,
)
from fraclab.constants import ball_volume
from fraclab.field import Field, Grid, steady_state, unfold
from fraclab.linear_propagators import (
    HardyOperatorSpec,
    hardy_evolve,
    hypercontractivity_measure,
    kernel_ratio_probe,
)
from fraclab.morrey import MorreyQuery, morrey_norm, morrey_smoothing_probe
from fraclab.nonlinear_solver import (
    BarrierMonitor,
    Blowup,
    Global,
    SandwichMonitor,
    blowup_certificate,
    evolve,
)
from fraclab.radial_operator import RadialProfile, frac_lap_radial, steady_residual

CMAX_1D = power_map_coeff_max(1, 0.5)


def _config(**sections):
    doc = {"params": {"alpha": 0.5, "d": 1, "p": 3.0}}
    doc.update(sections)
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# 1. constant identities


def test_01_constant_identities():
    # alpha -> 2 limit: C(gamma) degenerates to gamma (d - 2 - gamma), so
    # s(2-, 5, 2) = 2.  The 1e-6 offset in alpha itself moves s by ~1.2e-6,
    # hence the matching tolerance.
    s_limit = singular_amplitude(ModelParams(alpha=2.0 - 1e-6, d=5, p=2.0))
    limit_err = abs(s_limit - 2.0) / 2.0

    rng = np.random.default_rng(20260815)
    amp_err = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        alpha = float(rng.uniform(0.05, min(d, 2.0) - 0.05))
        p = 1.0 + alpha / (d - alpha) + float(rng.uniform(0.05, 4.0))
        s = singular_amplitude(ModelParams(alpha=alpha, d=d, p=p))
        c = power_map_coeff(alpha / (p - 1.0), d, alpha)
        amp_err = max(amp_err, abs(s ** (p - 1.0) - c) / c)

    sym_err = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        alpha = float(rng.uniform(0.05, min(d, 2.0) - 0.05))
        g = min(max(float(rng.uniform(0.0, 1.0)) * (d - alpha), 1e-3), d - alpha - 1e-3)
        c = power_map_coeff(g, d, alpha)
        sym_err = max(sym_err, abs(c - power_map_coeff(d - alpha - g, d, alpha)) / c)

    # the coefficient maximum and the Hardy constant are exact reciprocals
    # up to (2 pi)^alpha
    pair_err = 0.0
    for d in (1, 2, 3, 4, 5):
        for alpha in (0.3, 0.5, 1.0, 1.5, 1.9):
            if alpha >= min(d, 2.0):
                continue
            lhs = power_map_coeff_max(d, alpha) * hardy_constant(d, alpha)
            rhs = (2.0 * math.pi) ** alpha
            pair_err = max(pair_err, abs(lhs - rhs) / rhs)

    # at p = (d + alpha)/(d - alpha) the coupling ratio equals p itself and
    # the condition just fails
    jl_err = 0.0
    jl_all_false = True
    for d, alpha in ((1, 0.5), (2, 1.0), (3, 1.0), (3, 1.5), (5, 1.2)):
        p_star = (d + alpha) / (d - alpha)
        ok, ratio = jl_condition(ModelParams(alpha=alpha, d=d, p=p_star))
        jl_all_false = jl_all_false and not ok
        jl_err = max(jl_err, abs(ratio - p_star) / p_star)

    passed = (
        limit_err < 1e-6
        and amp_err < 1e-12
        and sym_err < 1e-12
        and pair_err < 1e-12
        and jl_all_false
        and jl_err < 1e-10
    )
    detail = (
        f"limit {limit_err:.2e}, amplitude {amp_err:.2e}, symmetry {sym_err:.2e}, "
        f"pairing {pair_err:.2e}, coupling ratio {jl_err:.2e}"
    )
    record_criterion("criterion 1 (constant identities)", passed, detail)
    assert passed, detail


# ---------------------------------------------------------------------------
# 2. sigma solver


def _admissible_triples(count):
    """(kappa, d, alpha, p) with kappa = p s^{p-1} under the coupling bound
    and alpha/(p-1) below the symmetry point, where the root ordering is
    provable.  Scanned deterministically, lowest workable p per (d, alpha)."""
    out = []
    for d in range(6, 48):
        for alpha in (0.5, 1.0, 1.5):
            p_sg = 1.0 + alpha / (d - alpha)
            for p in np.arange(1.02, 1.6, 0.01):
                p = float(p)
                if p <= p_sg + 1e-9:
                    continue
                m = alpha / (p - 1.0)
                if not m < (d - alpha) / 2.0:
                    continue
                kappa = kappa_from_params(ModelParams(alpha=alpha, d=d, p=p))
                if kappa <= power_map_coeff_max(d, alpha):
                    out.append((kappa, d, alpha, p))
                    break
        if len(out) >= count:
            return out[:count]
    raise AssertionError(f"only {len(out)} admissible triples found")


def test_02_sigma_solver():
    worst_res = 0.0
    in_range = True
    triples = _admissible_triples(50)
    for kappa, d, alpha, p in triples:
        sigma = solve_sigma(kappa, d, alpha)
        # residual of the defining identity in its Gamma-ratio form, which
        # the solver itself never evaluates
        res = abs(
            -(2.0 ** alpha)
            + kappa
            * math.exp(
                log_gamma(sigma / 2.0)
                + log_gamma((d - sigma - alpha) / 2.0)
                - log_gamma((d - sigma) / 2.0)
                - log_gamma((sigma + alpha) / 2.0)
            )
        )
        worst_res = max(worst_res, res)
        if not alpha / (p - 1.0) < sigma <= (d - alpha) / 2.0 + 1e-15:
            in_range = False

    passed = worst_res < 1e-12 and in_range
    detail = f"50 triples, max residual {worst_res:.2e}, range holds: {in_range}"
    record_criterion("criterion 2 (sigma solver)", passed, detail)
    assert passed, detail


# ---------------------------------------------------------------------------
# 3. steady state


def test_03_steady_state_operator():
    power_err = 0.0
    for d, alpha, gamma in (
        (3, 0.5, 2.0),
        (2, 0.5, 1.2),
        (3, 1.0, 1.0),
        (3, 1.5, 0.8),
        (2, 1.0, 0.6),
    ):
        radii = np.geomspace(1e-4, 1e4, 2048)
        prof = RadialProfile(radii, radii ** (-gamma), d, tail_exponent=gamma)
        coeff = power_map_coeff(gamma, d, alpha)
        for r in (0.5, 1.0, 2.0):
            want = coeff * r ** (-gamma - alpha)
            power_err = max(power_err, abs(frac_lap_radial(prof, alpha, r) - want) / want)

    steady_err = 0.0
    for alpha, d, p in ((1.0, 3, 2.0), (0.5, 2, 2.0), (0.5, 3, 2.0)):
        res, _ = steady_residual(ModelParams(alpha=alpha, d=d, p=p), 0.5, 2.0, 5)
        steady_err = max(steady_err, res)

    # halving under quadrature doubling, from a coarse base so the gain is
    # attributable to the rule and not to the far-tail completion
    pars = ModelParams(alpha=1.0, d=3, p=2.0)
    res_coarse, _ = steady_residual(pars, 0.5, 2.0, 3, n_angular=16, n_radial=8)
    res_fine, _ = steady_residual(pars, 0.5, 2.0, 3, n_angular=32, n_radial=16)

    passed = power_err < 5e-3 and steady_err < 0.02 and res_fine <= 0.5 * res_coarse
    detail = (
        f"power profiles {power_err:.2e}, steady residual {steady_err:.2e}, "
        f"doubling {res_coarse:.1e} -> {res_fine:.1e}"
    )
    record_criterion("criterion 3 (steady state)", passed, detail)
    assert passed, detail


# ---------------------------------------------------------------------------
# 4. decay of global solutions


def _free_flow_origin_1d(amplitude, width, alpha, t):
    """u(0, t) of the free flow u_t = -(-Delta)^{alpha/2} u on the line
    from A exp(-x^2/w^2), as the Fourier integral
    (1/pi) int_0^inf e^{-t k^alpha} A sqrt(pi) w e^{-k^2 w^2/4} dk.
    The kernel and the datum are even and decreasing in |x|, so this is
    also the sup norm."""
    value, _ = quad(
        lambda k: math.exp(-t * k**alpha - 0.25 * (k * width) ** 2),
        0.0,
        math.inf,
        limit=200,
    )
    return amplitude * width * value / math.sqrt(math.pi)


def test_04_decay_rate_pinned_gaussian():
    """Criterion 4 for the pinned Gaussian datum: the decay the theory
    promises, not the critical-tail rate.

    For data below the singular steady state the paper bounds the sup
    norm by C t^{-1/(p-1)}.  The bound is sharp only for data that carry
    the critical tail |x|^{-alpha/(p-1)}; the companion test checks that
    rate with such a datum.  Here p = 3 lies well above the fractional
    Fujita exponent 1 + alpha/d = 1.5, so a small integrable datum
    follows the free fractional heat flow and decays faster than the
    bound.  The test asserts both halves: the fitted slope is steeper
    than -1/(p-1), and it is within the criterion's 15% of the free-flow
    slope.

    The free-flow reference is the Fourier integral of the flow at the
    origin, evaluated by quadrature at the recorded times and fitted on
    the same window, independently of the solver.  Its slope on the
    default window [0.8, 8] is about -1.46, not the asymptotic free rate
    -d/alpha = -2: the window spans the passage from the datum's scale
    (at t = 0.8 the kernel scale t^{1/alpha} = 0.64 is still below the
    width 1) to the self-similar regime, and the free flow settles at -2
    only on later decades, beyond the image-safe horizon
    (L/8)^alpha = 8 of this box.  The small-amplitude reaction slows the
    decay only slightly, well inside the 15%.
    """
    cfg = _config(
        grid={"n": 4096, "L": 512.0},
        time={"t_end": 8.0, "output_schedule": [float(t) for t in np.geomspace(0.8, 8.0, 10)]},
        initial={"kind": "gaussian", "amplitude": 0.1},
    )
    rec = evolve(cfg)
    window = default_fit_window(rec.times, cfg.build_grid(), cfg.params.alpha)
    fit = fit_power_law(rec.times, rec.sup_norm, window=window)
    bound = -1.0 / (cfg.params.p - 1.0)

    free = [
        _free_flow_origin_1d(cfg.initial.amplitude, cfg.initial.width, cfg.params.alpha, float(t))
        for t in rec.times
    ]
    reference = fit_power_law(rec.times, np.array(free), window=window).exponent
    offset = abs(fit.exponent - reference) / abs(reference)

    passed = isinstance(rec.status, Global) and fit.exponent < bound and offset <= 0.15
    detail = (
        f"slope {fit.exponent:.4f}, free-flow reference {reference:.4f} "
        f"(off {offset*100:.1f}%, band 15%), bound {bound} (gaussian datum as pinned)"
    )
    record_criterion("criterion 4 (decay rate, pinned gaussian)", passed, detail)
    assert passed, detail


def test_04_decay_rate_saturating_companion():
    # same measurement, but the datum carries the critical tail that the
    # rate bound is sharp for; box widened so the fit decade is settled
    cfg = _config(
        grid={"n": 65536, "L": 8192.0},
        time={"t_end": 32.0, "output_schedule": [float(t) for t in np.geomspace(3.2, 32.0, 10)]},
        initial={"kind": "truncated_singular", "delta": 0.5},
    )
    rec = evolve(cfg)
    window = default_fit_window(rec.times, cfg.build_grid(), cfg.params.alpha)
    fit = fit_power_law(rec.times, rec.sup_norm, window=window)
    target = -1.0 / (cfg.params.p - 1.0)

    passed = isinstance(rec.status, Global) and abs(fit.exponent - target) <= 0.15 * abs(target)
    detail = f"slope {fit.exponent:.4f}, target {target} within 15% (critical-tail datum)"
    record_criterion("criterion 4 companion (saturating datum)", passed, detail)
    assert passed, detail


# ---------------------------------------------------------------------------
# 5. comparison sandwich


def _sandwich_run(cfg, **annulus):
    return evolve(cfg, monitors=(SandwichMonitor(cfg.build_grid(), cfg.params, **annulus),))


def test_05_comparison_sandwich():
    cfg = _config(
        grid={"n": 4096, "L": 512.0},
        time={"t_end": 8.0},
        initial={"kind": "truncated_singular", "delta": 0.9},
    )
    rec = _sandwich_run(cfg)
    lower = rec.monitor_maxima["sandwich_violation_lower"]
    upper = rec.monitor_maxima["sandwich_violation_upper"]

    # refinement at a fixed inner cut: the core wake is a resolution
    # artifact, so its footprint at r >= 4 must shrink with h
    viols = []
    for n in (4096, 8192, 16384):
        cfg_n = _config(
            grid={"n": n, "L": 512.0},
            time={"t_end": 8.0},
            initial={"kind": "truncated_singular", "delta": 0.9},
        )
        m = _sandwich_run(cfg_n, r_min=4.0).monitor_maxima
        viols.append(max(m["sandwich_violation_lower"], m["sandwich_violation_upper"]))

    passed = (
        isinstance(rec.status, Global)
        and lower < 1e-3
        and upper < 1e-3
        and viols[0] > viols[1] > viols[2]
    )
    detail = (
        f"violations ({lower:.1e}, {upper:.1e}); refinement "
        f"{viols[0]:.1e} > {viols[1]:.1e} > {viols[2]:.1e}"
    )
    record_criterion("criterion 5 (comparison sandwich)", passed, detail)
    assert passed, detail


# ---------------------------------------------------------------------------
# 6. barrier preservation


def test_06_barrier_preservation():
    worst_singular = 0.0
    for delta in (0.5, 0.9):
        cfg = _config(
            grid={"n": 4096, "L": 512.0},
            time={"t_end": 8.0},
            initial={"kind": "truncated_singular", "delta": delta},
        )
        mon = BarrierMonitor(cfg.build_grid(), cfg.params, barrier="singular")
        rec = evolve(cfg, monitors=(mon,))
        assert isinstance(rec.status, Global)
        worst_singular = max(worst_singular, rec.monitor_maxima["barrier_violation"])

    # two-branch barrier: the datum starts strictly below it (factor 0.9),
    # matching the strict inequality the preservation statement needs
    barrier = InitialSpec("power_tail", amplitude=0.3, gamma0=0.2, delta=0.9)
    cfg = _config(
        grid={"n": 4096, "L": 512.0},
        time={"t_end": 8.0},
        initial={
            "kind": "power_tail",
            "amplitude": 0.3,
            "gamma0": 0.2,
            "delta": 0.9,
            "scale": 0.9,
        },
    )
    mon = BarrierMonitor(cfg.build_grid(), cfg.params, barrier=barrier)
    rec = evolve(cfg, monitors=(mon,))
    tail_viol = rec.monitor_maxima["barrier_violation"]

    passed = isinstance(rec.status, Global) and worst_singular < 1e-3 and tail_viol < 1e-3
    detail = f"steady barrier {worst_singular:.1e}, two-branch barrier {tail_viol:.1e}"
    record_criterion("criterion 6 (barrier preservation)", passed, detail)
    assert passed, detail


# ---------------------------------------------------------------------------
# 7. linear decay with the inverse-power potential


def test_07_linear_hardy_decay():
    # smoothing pairs on a wide box; the window [t_max/10, t_max] stays
    # image-safe and the weight has settled there
    grid = Grid(d=1, n=262144, half_length=32768.0)
    spec = HardyOperatorSpec(alpha=0.5, d=1, kappa=0.2 * CMAX_1D)
    params = ModelParams(alpha=0.5, d=1, p=3.0)
    w0 = InitialSpec("gaussian", amplitude=1.0, width=1.0).build(grid, params)
    t_max = (grid.half_length / 8.0) ** spec.alpha
    times = np.geomspace(t_max / 10.0, t_max, 10)
    pairs = ((math.inf, 1.0), (2.0, 1.0))
    results = hypercontractivity_measure(w0, spec, pairs, times, substeps_per_interval=16)
    offs = {pair: abs(res.slope - res.expected) / abs(res.expected)
            for pair, res in zip(pairs, results)}

    # tail datum: weighted sup decays at -ell/alpha, and the compensated
    # series t^{sigma/alpha} * weighted sup vanishes monotonically
    grid = Grid(d=1, n=131072, half_length=16384.0)
    spec = HardyOperatorSpec(alpha=0.5, d=1, kappa=0.1 * CMAX_1D)
    sigma = spec.sigma()
    rc = unfold(grid.octant_capped_radius())
    ell = 0.5
    w0 = Field(grid, np.minimum(rc ** -0.25, rc ** -ell))
    t_max = (grid.half_length / 8.0) ** spec.alpha
    times = np.geomspace(t_max / 10.0, t_max, 10)
    series = hardy_evolve(w0, spec, times, substeps_per_interval=24)
    fit = fit_power_law(times, series.weighted_qinf)
    tail_target = -ell / spec.alpha
    tail_off = abs(fit.exponent - tail_target) / abs(tail_target)
    compensated = times ** (sigma / spec.alpha) * series.weighted_qinf
    vanishing = bool(np.all(np.diff(compensated) < 0.0)) and compensated[-1] < 0.5 * compensated[0]

    passed = all(off <= 0.15 for off in offs.values()) and tail_off <= 0.15 and vanishing
    detail = (
        f"pairs off ({offs[(math.inf, 1.0)]*100:.1f}%, {offs[(2.0, 1.0)]*100:.1f}%), "
        f"tail slope {fit.exponent:.3f} off {tail_off*100:.1f}%, vanishing: {vanishing}"
    )
    record_criterion("criterion 7 (linear decay)", passed, detail)
    assert passed, detail


# ---------------------------------------------------------------------------
# 8. kernel bound


def test_08_kernel_ratio_bound():
    spec = HardyOperatorSpec(alpha=0.5, d=1, kappa=0.5 * CMAX_1D)
    times = [2.83, 5.66, 11.31]
    maxima = []
    for n in (4096, 8192):
        grid = Grid(d=1, n=n, half_length=512.0)
        probe = kernel_ratio_probe(grid, spec, (0.5,), times, window_radius=64.0)
        assert np.all(np.isfinite(probe.max_ratio))
        maxima.append(probe.overall_max)
    stability = maxima[1] / maxima[0]

    free = kernel_ratio_probe(
        Grid(d=1, n=4096, half_length=512.0),
        HardyOperatorSpec(alpha=0.5, d=1, kappa=0.0),
        (0.5,),
        times,
        window_radius=64.0,
    )

    passed = (
        all(math.isfinite(v) and v > 0.0 for v in maxima)
        and 0.5 <= stability <= 2.0
        and free.overall_max <= 1.0 + 1e-12
    )
    detail = (
        f"max ratio {maxima[0]:.3f} -> {maxima[1]:.3f} (factor {stability:.3f}), "
        f"free flow {free.overall_max:.12f}"
    )
    record_criterion("criterion 8 (kernel bound)", passed, detail)
    assert passed, detail


# ---------------------------------------------------------------------------
# 9. Morrey estimator


def test_09_morrey_estimator():
    grid = Grid(d=1, n=4096, half_length=512.0)
    const = Field(grid, np.full(grid.shape, 2.0))
    got = morrey_norm(const, MorreyQuery(s=3.0, q=1.0))
    want = 2.0 * ball_volume(1) * grid.half_length ** (1.0 / 3.0)
    const_err = abs(got - want) / want

    pars = ModelParams(alpha=0.5, d=1, p=3.0)
    u = steady_state(grid, pars)
    ladder = tuple(16.0 * grid.h * 2.0 ** np.arange(0, 8))
    query = MorreyQuery(s=pars.d * (pars.p - 1.0) / pars.alpha, q=1.0, radii=ladder)
    steady_err = abs(morrey_norm(u, query) - singular_morrey_norm(pars)) / singular_morrey_norm(pars)

    # smoothing rate needs a datum that saturates the source space, i.e.
    # an |x|^{-d/p1} far tail
    rc = unfold(grid.octant_capped_radius())
    crit = Field(grid, np.minimum(4.0, rc ** -0.5))
    slope = morrey_smoothing_probe(crit, 0.5, (2.0, 4.0), np.geomspace(1.0, 8.0, 8))
    target = -(1.0 / 0.5) * (1.0 / 2.0 - 1.0 / 4.0)
    smoothing_off = abs(slope - target) / abs(target)

    passed = const_err < 0.03 and steady_err < 0.05 and smoothing_off <= 0.15
    detail = (
        f"constant field {const_err:.1e}, capped steady state {steady_err:.1e}, "
        f"smoothing slope {slope:.3f} off {smoothing_off*100:.1f}%"
    )
    record_criterion("criterion 9 (Morrey estimator)", passed, detail)
    assert passed, detail


# ---------------------------------------------------------------------------
# 10. dichotomy


def test_10_blowup_dichotomy(tmp_path):
    cfg = _config(
        grid={"n": 256, "L": 32.0},
        time={"t_end": 1000.0, "output_schedule": [100.0, 1000.0]},
        initial={"kind": "gaussian"},
    )
    state = tmp_path / "bisect.json"
    bracket = classify_threshold(cfg, 0.5, 3.0, tol=0.1, state_path=str(state))

    observations = json.loads(state.read_text())["observations"]
    globals_seen = [lam for lam, kind in observations if kind == "Global"]
    blowups_seen = [lam for lam, kind in observations if kind == "Blowup"]
    monotone = max(globals_seen) < min(blowups_seen)

    def scaled(lam):
        return dataclasses.replace(cfg, initial=dataclasses.replace(cfg.initial, scale=lam))

    below = evolve(scaled(0.9 * bracket.lambda_global))
    above = evolve(scaled(1.1 * bracket.lambda_blowup))

    cert_global = blowup_certificate(scaled(bracket.lambda_global).initial_field(), cfg.params, cfg.time.t_end)
    cert_blowup = blowup_certificate(scaled(bracket.lambda_blowup).initial_field(), cfg.params, cfg.time.t_end)

    passed = (
        bracket.ratio <= 1.1
        and monotone
        and isinstance(below.status, Global)
        and isinstance(above.status, Blowup)
        and cert_blowup.value > cert_global.value
    )
    detail = (
        f"bracket [{bracket.lambda_global:.4f}, {bracket.lambda_blowup:.4f}] "
        f"ratio {bracket.ratio:.4f}, spot checks {type(below.status).__name__}/"
        f"{type(above.status).__name__}, certificates {cert_global.value:.4f} < {cert_blowup.value:.4f}"
    )
    record_criterion("criterion 10 (dichotomy)", passed, detail)
    assert passed, detail


# ---------------------------------------------------------------------------
# 11. envelope closed forms


def _envelope_numeric(params, b, ell, sigma, t):
    """Independent maximization of s r^{-m} - b t^{(sigma-ell)/alpha} r^{-sigma}:
    derivative-sign bisection for the argmax (a comparison search cannot
    localize a flat maximum past sqrt(eps)), golden section for the value."""
    m = params.alpha / (params.p - 1.0)
    s = singular_amplitude(params)
    bt = b * t ** ((sigma - ell) / params.alpha)

    def slope_sign(y):
        return sigma * bt * math.exp(-sigma * y) - m * s * math.exp(-m * y)

    lo, hi = -400.0, 400.0
    assert slope_sign(lo) > 0.0 > slope_sign(hi)
    for _ in range(220):
        mid = 0.5 * (lo + hi)
        if slope_sign(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    radius = math.exp(0.5 * (lo + hi))

    value_at = lambda y: s * math.exp(-m * y) - bt * math.exp(-sigma * y)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, c = -400.0, 400.0
    x1, x2 = c - invphi * (c - a), a + invphi * (c - a)
    f1, f2 = value_at(x1), value_at(x2)
    for _ in range(200):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (c - a)
            f2 = value_at(x2)
        else:
            c, x2, f2 = x2, x1, f1
            x1 = c - invphi * (c - a)
            f1 = value_at(x1)
    return radius, value_at(0.5 * (a + c))


def test_11_envelope_closed_forms():
    params = ModelParams(alpha=0.5, d=1, p=3.0)
    m = params.alpha / (params.p - 1.0)
    rng = np.random.default_rng(11)
    worst_radius = 0.0
    worst_value = 0.0
    for k in range(20):
        sigma = float(rng.uniform(m + 0.05, 0.8))
        # alternate between the growing-envelope and limit-exponent variants
        ell = sigma if k % 2 else float(rng.uniform(sigma, 1.5))
        b = float(rng.uniform(0.01, 10.0))
        t = float(rng.uniform(0.1, 100.0))
        closed = envelope_max(params, b, ell, sigma, t)
        radius, value = _envelope_numeric(params, b, ell, sigma, t)
        worst_radius = max(worst_radius, abs(closed.radius - radius) / radius)
        worst_value = max(worst_value, abs(closed.value - value) / abs(value))

    early = envelope_max(params, 0.3, 0.6, 0.6, 0.1)
    late = envelope_max(params, 0.3, 0.6, 0.6, 250.0)
    time_free = early.value == late.value and early.radius == late.radius

    passed = worst_radius <= 1e-8 and worst_value <= 1e-8 and time_free
    detail = (
        f"argmax {worst_radius:.1e}, max {worst_value:.1e}, "
        f"limit case time-free: {time_free}"
    )
    record_criterion("criterion 11 (envelope closed forms)", passed, detail)
    assert passed, detail
