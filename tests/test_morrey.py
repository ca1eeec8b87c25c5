import contextlib
import io
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraclab.morrey as morrey
from fraclab.cli import main
from fraclab.constants import ModelParams, singular_morrey_norm
from fraclab.field import (
    Field,
    Grid,
    SnapshotMeta,
    clear_grid_cache,
    read_snapshot,
    steady_state,
    unfold,
    write_snapshot,
)
from fraclab.morrey import (
    MorreyQuery,
    morrey_estimate,
    morrey_norm,
    morrey_smoothing_probe,
)

PARAMS = ModelParams(alpha=0.5, d=1, p=3.0)


def test_query_validation():
    with pytest.raises(ValueError, match="s > q"):
        MorreyQuery(s=1.0, q=2.0)
    with pytest.raises(ValueError, match="s > q"):
        MorreyQuery(s=2.0, q=2.0)
    with pytest.raises(ValueError, match="at least 1"):
        MorreyQuery(s=2.0, q=0.5)
    with pytest.raises(ValueError, match="positive"):
        MorreyQuery(s=2.0, radii=(1.0, -2.0))


def test_radii_must_fit_the_grid():
    grid = Grid(1, 64, 8.0)
    f = Field(grid, np.ones(grid.shape))
    with pytest.raises(ValueError, match=r"\[h, L\]"):
        morrey_norm(f, MorreyQuery(s=2.0, radii=(16.0,)))
    with pytest.raises(ValueError, match=r"\[h, L\]"):
        morrey_norm(f, MorreyQuery(s=2.0, radii=(0.01,)))


def test_constant_field_closed_form_1d():
    # sup at R = L where the grid ball is the whole torus: c * omega_1 * L^{1/s}
    grid = Grid(1, 256, 32.0)
    c = 0.7
    est = morrey_estimate(Field(grid, np.full(grid.shape, c)), MorreyQuery(s=4.0))
    want = c * 2.0 * 32.0 ** 0.25
    assert est.value == pytest.approx(want, rel=0.03)
    assert est.argmax_radius == 32.0


def test_constant_field_closed_form_2d():
    grid = Grid(2, 128, 8.0)
    got = morrey_norm(Field(grid, np.ones(grid.shape)), MorreyQuery(s=3.0))
    want = np.pi * 8.0 ** (2.0 / 3.0)
    assert got == pytest.approx(want, rel=0.03)


def test_capped_steady_state_at_critical_index():
    # s = d(p-1)/alpha makes the profile's ball averages radius free, so the
    # estimator should sit at sigma_d s / (d - m).  The R = h rung overcounts
    # the ball measure by ~1.5^d and lands ~20% high, so the check runs on
    # the resolved part of the ladder.
    grid = Grid(1, 4096, 512.0)
    u = steady_state(grid, PARAMS)
    resolved = tuple(16.0 * grid.h * 2.0 ** np.arange(8))
    est = morrey_estimate(u, MorreyQuery(s=4.0, radii=resolved))
    assert est.value == pytest.approx(singular_morrey_norm(PARAMS), rel=0.05)
    assert est.argmax_center == (0.0,)


def test_homogeneity_and_monotonicity():
    grid = Grid(1, 512, 64.0)
    rng = np.random.default_rng(7)
    u = rng.random(grid.shape)
    v = u + rng.random(grid.shape)
    q = MorreyQuery(s=3.0, q=1.5)
    nu = morrey_norm(Field(grid, u), q)
    assert morrey_norm(Field(grid, 2.0 * u), q) == pytest.approx(2.0 * nu, rel=1e-12)
    assert nu <= morrey_norm(Field(grid, v), q) * (1.0 + 1e-12)


def test_translation_covariance():
    grid = Grid(1, 512, 64.0)
    rng = np.random.default_rng(11)
    u = rng.random(grid.shape)
    q = MorreyQuery(s=4.0)
    base = morrey_norm(Field(grid, u), q)
    rolled = morrey_norm(Field(grid, np.roll(u, 137)), q)
    assert rolled == pytest.approx(base, rel=1e-10)


def test_sqrt2_ladder_refinement_is_mild():
    grid = Grid(1, 1024, 128.0)
    rng = np.random.default_rng(3)
    u = rng.random(grid.shape) ** 4  # spiky, argmax radius nontrivial
    base_radii = grid.h * 2.0 ** np.arange(10)
    fine_radii = grid.h * 2.0 ** (0.5 * np.arange(19))
    coarse = morrey_norm(Field(grid, u), MorreyQuery(s=2.0, radii=tuple(base_radii)))
    fine = morrey_norm(Field(grid, u), MorreyQuery(s=2.0, radii=tuple(fine_radii)))
    assert fine >= coarse * (1.0 - 1e-12)
    assert fine < 1.10 * coarse


@pytest.mark.parametrize("d, n", [(1, 32), (2, 16), (3, 16)])
@pytest.mark.parametrize("q", [1.0, 1.5])
def test_estimate_matches_a_brute_force_ball_sum(d, n, q):
    # h = 0.5 makes every lattice distance and radius exact, so the integer
    # ball test below picks the same points as the estimator's mask
    grid = Grid(d, n, n / 4.0)
    u = np.random.default_rng(10 * d + int(2 * q)).standard_normal(grid.shape)
    u[(3,) * d] = 20.0  # a spike makes the sup unique: at R = L in d = 1 every center ties
    power = np.abs(u) ** q
    offsets = np.array(list(itertools.product(range(-n // 2, n // 2), repeat=d)))
    squared = (offsets ** 2).sum(axis=1)
    s = 3.0 * q
    radii = MorreyQuery(s=s, q=q).resolve_radii(grid)
    ball_sums = [
        sum(np.roll(power, tuple(o), axis=tuple(range(d)))
            for o in offsets[squared <= (R / grid.h) ** 2])
        for R in radii
    ]
    est = morrey_estimate(Field(grid, u), MorreyQuery(s=s, q=q))
    want = [
        (R ** (d * (q / s - 1.0)) * sums.max() * grid.h ** d) ** (1.0 / q)
        for R, sums in zip(radii, ball_sums)
    ]
    np.testing.assert_allclose(est.radius_values, want, rtol=1e-12, atol=0.0)
    best = int(np.argmax(want))
    top = np.unravel_index(int(np.argmax(ball_sums[best])), ball_sums[best].shape)
    assert est.value == pytest.approx(want[best], rel=1e-12)
    assert est.argmax_radius == radii[best]
    assert est.argmax_center == tuple(float(grid.axis()[i]) for i in top)


def test_read_and_estimate_hold_few_lattice_arrays(tmp_path):
    grid = Grid(2, 256, 64.0)
    nbytes = 8 * grid.n ** 2
    path = tmp_path / "field.frdf"
    field = Field(grid, np.random.default_rng(1).random(grid.shape))
    write_snapshot(field, path, SnapshotMeta(1.0, 2.0, 0.0))
    small = Grid(2, 16, 4.0)
    morrey_estimate(Field(small, np.ones(small.shape)), MorreyQuery(s=4.0))  # lazy imports
    clear_grid_cache()
    tracemalloc.start()
    try:
        field, _ = read_snapshot(path)
        read_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        morrey_estimate(field, MorreyQuery(s=4.0))
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert read_peak <= 1.25 * nbytes
    assert peak - before <= 3.5 * nbytes  # the field plus spectrum and two work arrays
    assert after - before < 0.5 * nbytes  # no |x| lattice is left in the grid cache


def _whole_array_estimate(u: np.ndarray, grid: Grid, query: MorreyQuery):
    """The estimator on whole lattice arrays: numpy's rfftn and irfftn, an
    |x| lattice summed axis 0 first, and one argmax per radius.
    Returns (radius values, argmax centers as lattice indices)."""
    d = grid.d
    spectrum = np.fft.rfftn(np.abs(u) ** query.q)
    squares = np.fft.ifftshift(grid.axis()) ** 2
    r2 = squares.reshape((-1,) + (1,) * (d - 1))
    for k in reversed(range(d - 1)):
        r2 = r2 + squares.reshape((-1,) + (1,) * k)
    radius = np.sqrt(r2)
    values, centers = [], []
    for R in query.resolve_radii(grid):
        ball = (radius <= R).astype(float)
        # spectrum first: with FMA the complex product is not commutative
        # to the bit, and `*` may swap a temporary operand to reuse it
        product = np.multiply(spectrum, np.fft.rfftn(ball))
        sums = np.fft.irfftn(product, s=grid.shape, axes=range(d))
        idx = np.unravel_index(int(np.argmax(sums)), sums.shape)
        top = max(float(sums[idx]) * grid.h ** d, 0.0)
        values.append((R ** (d * (query.q / query.s - 1.0)) * top) ** (1.0 / query.q))
        centers.append(tuple(int(i) for i in idx))
    return np.array(values), centers


def _estimate_in_blocks(field: Field, query: MorreyQuery, rows: int):
    """morrey_estimate with its block of rows cut to `rows` rows."""
    row_bytes = 8 * field.grid.n ** (field.grid.d - 1)
    with mock.patch.object(morrey, "_BLOCK_BYTES", rows * row_bytes):
        return morrey_estimate(field, query)


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    q=st.sampled_from([1.0, 2.0]),
    rows=st.sampled_from([3, 5, 7]),  # 64 and 32 rows end on a short block
    explicit=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_blocked_estimator_is_bit_identical_to_whole_array_transforms(d, q, rows, explicit, seed):
    grid = Grid(d, 32 if d == 3 else 64, 5.0)
    u = np.random.default_rng(seed).standard_normal(grid.shape)
    radii = (grid.h, 3.3 * grid.h, 0.4 * grid.half_length) if explicit else None
    query = MorreyQuery(s=3.0 * q, q=q, radii=radii)
    est = _estimate_in_blocks(Field(grid, u), query, rows)
    values, centers = _whole_array_estimate(u, grid, query)
    assert est.radius_values.tobytes() == values.tobytes()
    best = int(np.argmax(values))
    assert est.value == values[best]
    assert est.argmax_radius == query.resolve_radii(grid)[best]
    assert est.argmax_center == tuple(float(grid.axis()[i]) for i in centers[best])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 3])  # one-row blocks, and 32 rows ending on a short one
def test_constant_field_ties_resolve_to_the_first_strided_center(d, rows):
    # every center ties, and the first lattice point wins across blocks
    grid = Grid(d, 32, 4.0)
    u = np.full(grid.shape, 0.7)
    query = MorreyQuery(s=4.0)
    est = _estimate_in_blocks(Field(grid, u), query, rows)
    values, _ = _whole_array_estimate(u, grid, query)
    assert est.radius_values.tobytes() == values.tobytes()
    assert est.argmax_center == (-4.0,) * d


@pytest.mark.parametrize("d, n", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("mu", [2.0, 0.5, 4.0])
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_estimate_is_invariant_under_the_critical_scaling(d, n, mu, q):
    # M^s_q is invariant under u -> mu^{d/s} u(mu x).  On L -> L/mu the
    # dyadic radii h 2^k scale with h and, mu being a power of two, every
    # radius, lattice distance and ball membership scales exactly, so only
    # the amplitude's rounding is left.
    s = 3.0 * q
    u = np.random.default_rng(d + int(4 * mu)).random((n,) * d)
    query = MorreyQuery(s=s, q=q)
    base = morrey_estimate(Field(Grid(d, n, 6.0), u), query)
    scaled = morrey_estimate(Field(Grid(d, n, 6.0 / mu), mu ** (d / s) * u), query)
    np.testing.assert_allclose(scaled.radius_values, base.radius_values, rtol=1e-13, atol=0.0)
    assert scaled.value == pytest.approx(base.value, rel=1e-13)
    assert scaled.argmax_radius == base.argmax_radius / mu
    assert scaled.argmax_center == tuple(x / mu for x in base.argmax_center)


def test_morrey_command_holds_two_half_spectra_and_one_block(tmp_path):
    grid = Grid(2, 512, 64.0)
    path = tmp_path / "field.frdf"
    write_snapshot(Field(grid, np.random.default_rng(2).random(grid.shape)), path,
                   SnapshotMeta(1.0, 2.0, 0.0))
    small = tmp_path / "small.frdf"
    write_snapshot(Field(Grid(2, 16, 4.0), np.ones((16, 16))), small, SnapshotMeta(1.0, 2.0, 0.0))
    quiet = contextlib.redirect_stdout(io.StringIO())
    with quiet:
        assert main(["morrey", "--snapshot", str(small), "--s", "4"]) == 0  # lazy imports
    clear_grid_cache()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with quiet:
            assert main(["morrey", "--snapshot", str(path), "--s", "4"]) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    half_spectrum = 16 * grid.n * (grid.n // 2 + 1)
    assert peak <= 1.1 * (2 * half_spectrum + morrey._BLOCK_BYTES)


def test_smoothing_probe_critical_tail_datum():
    # datum with the |x|^{-d/p1} far tail saturates the source space, so the
    # fitted decay matches -(d/alpha)(1/p1 - 1/p2)
    grid = Grid(1, 4096, 512.0)
    datum = Field(grid, np.minimum(4.0, unfold(grid.octant_capped_radius()) ** -0.5))
    times = np.geomspace(1.0, 8.0, 8)
    slope = morrey_smoothing_probe(datum, 0.5, (2, 4), times)
    expected = -(1.0 / 0.5) * (0.5 - 0.25)
    assert slope == pytest.approx(expected, rel=0.15)
    # amplitude drops out of a log-log slope
    tripled = Field(grid, 3.0 * datum.values)
    assert morrey_smoothing_probe(tripled, 0.5, (2, 4), times) == pytest.approx(
        slope, abs=1e-12
    )


def test_smoothing_probe_equal_pair_is_flat():
    grid = Grid(1, 256, 32.0)
    datum = Field(grid, np.exp(-grid.axis() ** 2))
    assert morrey_smoothing_probe(datum, 0.5, (2, 2), [1.0, 2.0, 4.0]) == 0.0


def test_smoothing_probe_guards():
    grid = Grid(1, 256, 32.0)
    datum = Field(grid, np.exp(-grid.axis() ** 2))
    with pytest.raises(ValueError, match="p1"):
        morrey_smoothing_probe(datum, 0.5, (4, 2), [1.0, 2.0, 4.0])
    with pytest.raises(ValueError, match="3 positive increasing"):
        morrey_smoothing_probe(datum, 0.5, (2, 4), [1.0, 2.0])
    with pytest.raises(ValueError, match="factor 2"):
        morrey_smoothing_probe(datum, 0.5, (2, 4), [1.0, 1.2, 1.4])
    zero = Field(grid, np.zeros(grid.shape))
    with pytest.raises(ValueError, match="vanished"):
        morrey_smoothing_probe(zero, 0.5, (2, 4), [1.0, 2.0, 4.0])
