import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fraclab.config import InitialSpec
from fraclab.constants import ModelParams, singular_amplitude
from fraclab.field import (
    Field,
    Grid,
    SnapshotFormatError,
    SnapshotMeta,
    WeightSpec,
    heat_propagate,
    open_snapshot,
    read_snapshot,
    unfold,
    weight_values,
    weighted_norm,
    write_octant_snapshot,
    write_snapshot,
)


# the gaussian datum's formula reads none of the model parameters
GAUSSIAN_PARAMS = ModelParams(alpha=1.0, d=1, p=2.0)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _fit_slope(ts, ys):
    return float(np.polyfit(np.log(ts), np.log(ys), 1)[0])


# ---------------------------------------------------------------------------
# construction


def test_grid_validation():
    Grid(1, 16, 1.0)
    with pytest.raises(ValueError):
        Grid(4, 16, 1.0)
    with pytest.raises(ValueError):
        Grid(1, 24, 1.0)
    with pytest.raises(ValueError):
        Grid(1, 8, 1.0)
    with pytest.raises(ValueError):
        Grid(1, 16, 0.0)
    for length in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            Grid(1, 16, length)


def test_grid_geometry():
    g = Grid(1, 16, 4.0)
    assert g.h == 0.5
    ax = g.axis()
    assert ax[0] == -4.0
    assert ax[8] == 0.0
    assert ax[-1] == 3.5
    r = unfold(Grid(2, 16, 4.0).octant_radius())
    assert r[8, 8] == 0.0
    assert r[8, 10] == 1.0


def test_field_rejects_nonfinite():
    g = Grid(1, 16, 1.0)
    bad = np.zeros(16)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        Field(g, bad)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        Field(g, bad)
    with pytest.raises(ValueError):
        Field(g, np.zeros(8))


def test_field_values_read_only():
    g = Grid(1, 16, 1.0)
    f = Field(g, np.ones(16))
    with pytest.raises(ValueError):
        f.values[0] = 2.0


# ---------------------------------------------------------------------------
# initial data


def test_gaussian_datum_center_value():
    g = Grid(1, 32, 4.0)
    f = InitialSpec("gaussian", amplitude=1.0, width=1.0).build(g, GAUSSIAN_PARAMS)
    assert f.values[16] == 1.0
    assert np.all(f.values >= 0.0)


def test_truncated_singular_values():
    params = ModelParams(alpha=1.0, d=3, p=2.0)
    g = Grid(3, 16, 4.0)
    f = InitialSpec("truncated_singular", delta=0.5).build(g, params)
    s = singular_amplitude(params)
    assert s == pytest.approx(2.0 / math.pi, rel=1e-14)
    # |x| = 1 at lattice point (1, 0, 0)
    assert f.values[10, 8, 8] == pytest.approx(0.5 * s, rel=1e-13)
    # core frozen at the half-cell value, which is also the global sup
    cap = 0.5 * s * (0.5 * g.h) ** (-1.0)
    assert f.values[8, 8, 8] == pytest.approx(cap, rel=1e-13)
    assert f.sup() == pytest.approx(cap, rel=1e-13)


def test_truncated_singular_warns_at_delta_one():
    params = ModelParams(alpha=1.0, d=3, p=2.0)
    g = Grid(1, 64, 8.0)
    with pytest.warns(UserWarning):
        InitialSpec("truncated_singular", delta=1.0).build(g, params)


def test_power_tail_branches():
    params = ModelParams(alpha=0.5, d=1, p=3.0)
    m = params.alpha / (params.p - 1.0)  # 0.25
    s = singular_amplitude(params)
    K, gamma0, delta = 0.12, 0.05, 0.5
    # branches K r^{-gamma0} and delta s r^{-m} meet where the powers agree
    r_cross = (delta * s / K) ** (1.0 / (m - gamma0))
    g = Grid(1, 512, 64.0)
    f = InitialSpec("power_tail", amplitude=K, gamma0=gamma0, delta=delta).build(g, params)
    r = unfold(g.octant_radius())
    inner = (r > 0.5) & (r < 0.5 * r_cross)
    outer = (r > 2.0 * r_cross) & (r < 32.0)
    assert inner.any() and outer.any()
    np.testing.assert_allclose(f.values[inner], K * r[inner] ** (-gamma0), rtol=1e-13)
    np.testing.assert_allclose(
        f.values[outer], delta * s * r[outer] ** (-m), rtol=1e-13
    )


def test_build_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown initial kind"):
        InitialSpec("cauchy").build(Grid(1, 16, 1.0), GAUSSIAN_PARAMS)


# ---------------------------------------------------------------------------
# heat flow


def test_heat_identity_and_domain():
    g = Grid(1, 64, 8.0)
    f = InitialSpec("gaussian").build(g, GAUSSIAN_PARAMS)
    assert heat_propagate(f, 0.0, 1.0) is f
    with pytest.raises(ValueError):
        heat_propagate(f, -1.0, 1.0)
    with pytest.raises(ValueError):
        heat_propagate(f, 1.0, 2.5)


def test_heat_preserves_mass():
    g = Grid(2, 32, 8.0)
    f = Field(g, _rng(1).random(g.shape))
    out = heat_propagate(f, 0.7, 1.3)
    assert np.sum(out.values) * g.h ** 2 == pytest.approx(np.sum(f.values) * g.h ** 2, rel=1e-13)


def test_semigroup_property():
    g = Grid(1, 128, 16.0)
    f = Field(g, _rng(2).random(g.shape))
    for alpha in (0.5, 1.0, 2.0):
        one = heat_propagate(heat_propagate(f, 0.3, alpha), 0.9, alpha)
        two = heat_propagate(f, 1.2, alpha)
        assert np.max(np.abs(one.values - two.values)) < 1e-12 * two.sup()


def test_translation_commutes():
    g = Grid(2, 32, 4.0)
    f = Field(g, _rng(3).random(g.shape))
    shift = (5, -11)
    rolled_then = heat_propagate(Field(g, np.roll(f.values, shift, axis=(0, 1))), 0.4, 1.0)
    then_rolled = np.roll(heat_propagate(f, 0.4, 1.0).values, shift, axis=(0, 1))
    assert np.max(np.abs(rolled_then.values - then_rolled)) < 1e-12 * f.sup()


def test_fourier_round_trip():
    g = Grid(3, 16, 2.0)
    v = _rng(4).random(g.shape)
    back = np.fft.irfftn(np.fft.rfftn(v), s=g.shape, axes=(0, 1, 2))
    assert np.max(np.abs(back - v)) < 1e-13 * np.max(np.abs(v))


def test_alpha_two_matches_gaussian_semigroup():
    # exp(-|x|^2/(4a)) flows to (a/(a+t))^{d/2} exp(-|x|^2/(4(a+t))) under alpha=2
    a, t = 0.5, 1.0
    for d, n in ((1, 512), (2, 128)):
        g = Grid(d, n, 16.0)
        r = unfold(g.octant_radius())
        f = Field(g, np.exp(-(r ** 2) / (4.0 * a)))
        out = heat_propagate(f, t, 2.0)
        want = (a / (a + t)) ** (d / 2.0) * np.exp(-(r ** 2) / (4.0 * (a + t)))
        assert np.max(np.abs(out.values - want)) < 1e-8


def test_bump_sup_decay_rate():
    # kernel scaling: sup of the evolved bump falls like t^{-d/alpha}
    g = Grid(1, 4096, 256.0)
    f = InitialSpec("gaussian", amplitude=1.0, width=1.0).build(g, GAUSSIAN_PARAMS)
    ts = np.geomspace(4.0, 40.0, 8)
    sups = [heat_propagate(f, t, 1.0).sup() for t in ts]
    slope = _fit_slope(ts, sups)
    assert slope == pytest.approx(-1.0, abs=0.05)


# ---------------------------------------------------------------------------
# norms


def test_weighted_norm_q2_equals_plain_l2():
    g = Grid(1, 256, 8.0)
    f = Field(g, _rng(5).standard_normal(g.shape))
    w = WeightSpec(sigma=0.4, t=2.0, alpha=1.0)
    plain = weighted_norm(f, 2.0)
    assert weighted_norm(f, 2.0, w) == pytest.approx(plain, rel=1e-12)


def test_weighted_norm_t_zero_is_plain():
    g = Grid(2, 32, 4.0)
    f = Field(g, _rng(6).random(g.shape))
    w = WeightSpec(sigma=0.7, t=0.0, alpha=1.5)
    for q in (1.0, 3.0, math.inf):
        assert weighted_norm(f, q, w) == pytest.approx(weighted_norm(f, q), rel=1e-13)


def test_weight_value_at_scaling_radius():
    # phi = 1 + t^{sigma/alpha} |x|^{-sigma} equals 2 at |x| = t^{1/alpha}
    g = Grid(1, 64, 8.0)
    w = WeightSpec(sigma=0.4, t=1.0, alpha=1.0)
    phi = weight_values(g, w)
    idx = np.argmin(np.abs(g.axis() - 1.0))
    assert phi[idx] == pytest.approx(2.0, rel=1e-13)


def test_weighted_norm_domain_errors():
    g = Grid(1, 16, 1.0)
    f = Field(g, np.ones(16))
    with pytest.raises(ValueError):
        weighted_norm(f, 0.5)
    with pytest.raises(ValueError):
        WeightSpec(sigma=-0.1, t=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        WeightSpec(sigma=0.5, t=-1.0, alpha=1.0)


def test_plain_norms_consistency():
    g = Grid(1, 64, 8.0)
    f = Field(g, np.ones(g.shape))
    # constant c on [-L, L): ||c||_q = c (2L)^{1/q}
    assert weighted_norm(f, 1.0) == pytest.approx(16.0, rel=1e-13)
    assert weighted_norm(f, 2.0) == pytest.approx(4.0, rel=1e-13)
    assert weighted_norm(f, math.inf) == 1.0


# ---------------------------------------------------------------------------
# snapshots


def test_snapshot_round_trip(tmp_path):
    g = Grid(2, 16, 3.0)
    f = Field(g, _rng(7).standard_normal(g.shape))
    meta = SnapshotMeta(alpha=1.5, p=2.0, t=0.25)
    path = tmp_path / "field.frdf"
    write_snapshot(f, path, meta)
    back, got_meta = read_snapshot(path)
    assert got_meta == meta
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_snapshot_rejects_corruption(tmp_path):
    g = Grid(1, 16, 1.0)
    f = Field(g, np.arange(16.0))
    path = tmp_path / "field.frdf"
    write_snapshot(f, path, SnapshotMeta(1.0, 2.0, 0.0))
    blob = path.read_bytes()

    truncated = tmp_path / "trunc.frdf"
    truncated.write_bytes(blob[:10])
    with pytest.raises(SnapshotFormatError):
        read_snapshot(truncated)

    short_payload = tmp_path / "short.frdf"
    short_payload.write_bytes(blob[:-8])
    with pytest.raises(SnapshotFormatError):
        read_snapshot(short_payload)

    bad_magic = tmp_path / "magic.frdf"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(SnapshotFormatError):
        read_snapshot(bad_magic)

    # a file that shrinks after its size check; 64^2 values outgrow the read buffer
    shrinking = tmp_path / "shrinking.frdf"
    write_snapshot(Field(Grid(2, 64, 1.0), np.zeros((64, 64))), shrinking, SnapshotMeta(1.0, 2.0, 0.0))
    with open_snapshot(shrinking) as snapshot:
        os.truncate(shrinking, shrinking.stat().st_size // 2)
        with pytest.raises(SnapshotFormatError, match="payload shrank while it was read"):
            list(snapshot.blocks(np.empty((64, 64))))


def test_snapshot_rejects_a_payload_one_byte_too_long(tmp_path):
    path = tmp_path / "field.frdf"
    write_snapshot(Field(Grid(1, 16, 1.0), np.arange(16.0)), path, SnapshotMeta(1.0, 2.0, 0.0))
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(SnapshotFormatError, match="payload holds 129 bytes, expected 128"):
        read_snapshot(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_snapshot_rejects_values_that_are_not_finite(tmp_path, bad):
    path = tmp_path / "field.frdf"
    write_snapshot(Field(Grid(2, 16, 1.0), np.zeros((16, 16))), path, SnapshotMeta(1.0, 2.0, 0.0))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8 * 20] + np.array([bad], dtype="<f8").tobytes() + blob[-8 * 19:])
    with pytest.raises(SnapshotFormatError, match="finite"):
        read_snapshot(path)


@st.composite
def snapshots(draw):
    """A field on a drawn grid, with any finite doubles, and its metadata."""
    d = draw(st.sampled_from([1, 2, 3]))
    grid = Grid(d, draw(st.sampled_from([16, 32] if d < 3 else [16])), draw(st.floats(1e-3, 1e6)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(arrays(np.float64, grid.shape, elements=finite))
    meta = SnapshotMeta(alpha=draw(finite), p=draw(finite), t=draw(finite))
    return Field(grid, values), meta


@settings(max_examples=30, deadline=None)
@given(snapshot=snapshots())
def test_snapshot_round_trips_bit_for_bit(tmp_path_factory, snapshot):
    field, meta = snapshot
    path = tmp_path_factory.mktemp("frdf") / "field.frdf"
    write_snapshot(field, path, meta)
    back, got_meta = read_snapshot(path)
    assert back.grid == field.grid
    assert back.values.tobytes() == field.values.tobytes()  # -0.0 and subnormals too
    assert got_meta == meta


@settings(max_examples=30, deadline=None)
@given(snapshot=snapshots(), cut=st.floats(0.0, 1.0, exclude_max=True))
def test_every_snapshot_truncation_is_rejected(tmp_path_factory, snapshot, cut):
    field, meta = snapshot
    path = tmp_path_factory.mktemp("frdf") / "field.frdf"
    write_snapshot(field, path, meta)
    blob = path.read_bytes()
    path.write_bytes(blob[: int(cut * len(blob))])
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_octant_writer_matches_the_lattice_writer_byte_for_byte(tmp_path, d, n):
    grid = Grid(d, n, 7.3)
    octant = _rng(100 * d + n).standard_normal((n // 2 + 1,) * d)
    meta = SnapshotMeta(alpha=1.5, p=3.0, t=0.125)
    write_octant_snapshot(grid, octant, tmp_path / "octant.frdf", meta)
    write_snapshot(Field(grid, unfold(octant)), tmp_path / "lattice.frdf", meta)
    assert (tmp_path / "octant.frdf").read_bytes() == (tmp_path / "lattice.frdf").read_bytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_octant_writer_rejects_values_that_are_not_finite_before_writing(tmp_path, d, bad):
    grid = Grid(d, 16, 1.0)
    octant = np.zeros((9,) * d)
    octant[(8,) * d] = bad  # the last value a plane-by-plane writer would reach
    path = tmp_path / "field.frdf"
    with pytest.raises(ValueError, match="finite"):
        write_octant_snapshot(grid, octant, path, SnapshotMeta(1.0, 2.0, 0.0))
    assert not path.exists()
    with pytest.raises(ValueError, match="octant shape"):
        write_octant_snapshot(grid, np.zeros((16,) * d), path, SnapshotMeta(1.0, 2.0, 0.0))


def test_snapshot_rejects_future_version(tmp_path):
    g = Grid(1, 16, 1.0)
    path = tmp_path / "field.frdf"
    write_snapshot(Field(g, np.zeros(16)), path, SnapshotMeta(1.0, 2.0, 0.0))
    blob = bytearray(path.read_bytes())
    blob[4] = 2  # little-endian u32 version field
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError, match="version"):
        read_snapshot(path)
