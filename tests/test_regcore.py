"""Displacement-search core tests against naive loop oracles."""

import numpy as np
import pytest
from scipy import ndimage

from voxelreg import regcore
from voxelreg.regcore import (
    CostVolume,
    DisplacementSet,
    aggregate_costs,
    build_displacement_set,
    build_dsv,
    energy,
    regularize_dsv,
    sad,
    winner_takes_all,
)
from voxelreg.volume import FeatureVolume, VolumeHeader, zero_field


def make_features(data):
    data = np.asarray(data, dtype=np.float32)
    if data.ndim == 3:
        data = data[..., np.newaxis]
    nz, ny, nx, c = data.shape
    return FeatureVolume(VolumeHeader((nx, ny, nz), channels=c), data)


def smooth_features(rng, shape, channels=1, sigma=1.5):
    data = np.stack(
        [ndimage.gaussian_filter(rng.standard_normal(shape), sigma) for _ in range(channels)],
        axis=-1,
    )
    return make_features(data)


# ---------------------------------------------------------------------------
# Displacement set
# ---------------------------------------------------------------------------

def test_displacement_set_q2_lmax4():
    ds = build_displacement_set(2.0, 4.0)
    assert ds.count == 125
    per_axis = sorted(set(ds.displacements[:, 0].tolist()))
    assert per_axis == [-4.0, -2.0, 0.0, 2.0, 4.0]


def test_displacement_set_trivial():
    ds = build_displacement_set(1.0, 0.0)
    assert ds.count == 1
    assert ds.displacements.tolist() == [[0.0, 0.0, 0.0]]


def test_displacement_set_rejects_non_multiple():
    with pytest.raises(ValueError):
        build_displacement_set(3.0, 7.0)
    with pytest.raises(ValueError):
        build_displacement_set(0.0, 4.0)


def test_displacement_set_contains_zero_once_and_negations():
    ds = build_displacement_set(1.0, 2.0)
    rows = [tuple(r) for r in ds.displacements.tolist()]
    assert rows.count((0.0, 0.0, 0.0)) == 1
    assert set(rows) == {(-x, -y, -z) for x, y, z in rows}


def test_displacement_set_order_is_lexicographic_zyx():
    ds = build_displacement_set(1.0, 1.0)
    keys = [(dz, dy, dx) for dx, dy, dz in ds.displacements.tolist()]
    assert keys == sorted(keys)


def test_priority_order_puts_zero_first():
    ds = build_displacement_set(1.0, 2.0)
    order = ds.priority_order()
    assert ds.displacements[order[0]].tolist() == [0.0, 0.0, 0.0]
    l1 = np.abs(ds.displacements[order]).sum(axis=1)
    assert np.all(np.diff(l1) >= 0)


# ---------------------------------------------------------------------------
# SAD
# ---------------------------------------------------------------------------

def test_sad_identity_and_hand_case():
    assert sad((1, 2, 3), (1, 2, 3)) == 0.0
    assert sad((0, 0), (1, 2)) == 3.0


def test_sad_rejects_channel_mismatch():
    with pytest.raises(ValueError):
        sad((1, 2), (1, 2, 3))


def test_sad_matches_scalar_loop_exactly():
    rng = np.random.default_rng(40)
    for _ in range(20):
        a = rng.standard_normal(12)
        b = rng.standard_normal(12)
        want = 0.0
        for c in range(12):
            want += abs(float(a[c]) - float(b[c]))
        assert sad(a, b) == want


# ---------------------------------------------------------------------------
# DSV construction
# ---------------------------------------------------------------------------

def test_dsv_zero_displacement_on_identical_volumes():
    rng = np.random.default_rng(41)
    f = smooth_features(rng, (5, 5, 5), channels=3)
    ds = build_displacement_set(1.0, 1.0)
    dsv = build_dsv(f, f, ds)
    zero_label = int(np.where((ds.displacements == 0).all(axis=1))[0][0])
    assert np.all(dsv.costs[zero_label] == 0.0)


def test_dsv_line_volume_hand_case():
    # 1x1x3 volumes with intensities (0, 1, 2); at the center voxel the
    # +1 step along the long axis must cost |1 - 2| = 1
    line = make_features(np.arange(3, dtype=np.float32).reshape(1, 1, 3))
    ds = build_displacement_set(1.0, 1.0)
    dsv = build_dsv(line, line, ds)
    label = int(np.where((ds.displacements == [1.0, 0.0, 0.0]).all(axis=1))[0][0])
    assert dsv.costs[label, 0, 0, 1] == 1.0


def test_dsv_rejects_mismatched_inputs():
    a = make_features(np.zeros((3, 3, 3)))
    b = make_features(np.zeros((4, 3, 3)))
    ds = build_displacement_set(1.0, 1.0)
    with pytest.raises(ValueError):
        build_dsv(a, b, ds)
    c = make_features(np.zeros((3, 3, 3, 2)))
    with pytest.raises(ValueError):
        build_dsv(a, c, ds)


def dsv_oracle(fixed, moving, displacements):
    """Quadruple loop: voxels x labels, clamped lookup, channel-order SAD."""
    nz, ny, nx, nc = fixed.shape
    out = np.zeros((len(displacements), nz, ny, nx))
    for li, (dx, dy, dz) in enumerate(displacements):
        for z in range(nz):
            for y in range(ny):
                for x in range(nx):
                    zi = min(max(z + int(dz), 0), nz - 1)
                    yi = min(max(y + int(dy), 0), ny - 1)
                    xi = min(max(x + int(dx), 0), nx - 1)
                    acc = 0.0
                    for c in range(nc):
                        acc += abs(float(fixed[z, y, x, c]) - float(moving[zi, yi, xi, c]))
                    out[li, z, y, x] = acc
    return out


def test_dsv_matches_bruteforce_oracle():
    rng = np.random.default_rng(42)
    f_fixed = smooth_features(rng, (8, 8, 8), channels=2)
    f_moving = smooth_features(rng, (8, 8, 8), channels=2)
    ds = build_displacement_set(1.0, 1.0)
    dsv = build_dsv(f_fixed, f_moving, ds)
    want = dsv_oracle(f_fixed.data, f_moving.data, ds.displacements.tolist())
    assert np.abs(dsv.costs - want).max() < 1e-5


def test_dsv_fractional_displacement_matches_trilinear_oracle():
    from tests.test_volume import trilinear_oracle

    rng = np.random.default_rng(43)
    f_fixed = smooth_features(rng, (4, 4, 4), channels=2)
    f_moving = smooth_features(rng, (4, 4, 4), channels=2)
    ds = build_displacement_set(0.5, 0.5)
    dsv = build_dsv(f_fixed, f_moving, ds)
    for li, (dx, dy, dz) in enumerate(ds.displacements.tolist()):
        for z in range(4):
            for y in range(4):
                for x in range(4):
                    acc = 0.0
                    for c in range(2):
                        mv = trilinear_oracle(f_moving.data[..., c], x + dx, y + dy, z + dz)
                        acc += abs(float(f_fixed.data[z, y, x, c]) - mv)
                    assert dsv.costs[li, z, y, x] == pytest.approx(acc, abs=1e-6)


# ---------------------------------------------------------------------------
# Aggregation and regularization
# ---------------------------------------------------------------------------

def test_aggregate_radius_zero_is_identity():
    rng = np.random.default_rng(44)
    dsv = CostVolume((3, 3, 3), rng.uniform(0, 1, size=(2, 3, 3, 3)))
    assert aggregate_costs(dsv, 0) is dsv


def test_aggregate_constant_map_interior():
    dsv = CostVolume((5, 5, 5), np.full((1, 5, 5, 5), 0.5))
    out = aggregate_costs(dsv, 1)
    assert out.costs[0, 2, 2, 2] == pytest.approx(27 * 0.5, abs=1e-9)


def box_sum_oracle(cost_map, radius):
    nz, ny, nx = cost_map.shape
    out = np.zeros_like(cost_map, dtype=np.float64)
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                acc = 0.0
                for dz in range(-radius, radius + 1):
                    for dy in range(-radius, radius + 1):
                        for dx in range(-radius, radius + 1):
                            zi = min(max(z + dz, 0), nz - 1)
                            yi = min(max(y + dy, 0), ny - 1)
                            xi = min(max(x + dx, 0), nx - 1)
                            acc += float(cost_map[zi, yi, xi])
                out[z, y, x] = acc
    return out


def test_aggregate_matches_window_sum_oracle():
    rng = np.random.default_rng(45)
    costs = rng.uniform(0, 2, size=(3, 6, 5, 4))
    dsv = CostVolume((4, 5, 6), costs)
    out = aggregate_costs(dsv, 1)
    for li in range(3):
        want = box_sum_oracle(costs[li], 1)
        assert np.abs(out.costs[li] - want).max() < 1e-4


def test_regularize_sigma_zero_is_identity():
    rng = np.random.default_rng(46)
    dsv = CostVolume((3, 3, 3), rng.uniform(0, 1, size=(2, 3, 3, 3)))
    assert regularize_dsv(dsv, 0.0) is dsv


def test_regularize_constant_map_unchanged():
    dsv = CostVolume((5, 5, 5), np.full((1, 5, 5, 5), 0.75))
    out = regularize_dsv(dsv, 1.0)
    assert np.abs(out.costs - 0.75).max() < 1e-6


def gaussian_smooth_oracle(cost_map, sigma):
    """Direct separable Gaussian convolution, replicated borders."""
    radius = int(4.0 * sigma + 0.5)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * xs * xs / (sigma * sigma))
    kernel /= kernel.sum()
    out = cost_map.astype(np.float64)
    for axis in range(3):
        moved = np.moveaxis(out, axis, 0)
        res = np.zeros_like(moved)
        n = moved.shape[0]
        for i in range(n):
            for k, w in enumerate(kernel):
                j = min(max(i + k - radius, 0), n - 1)
                res[i] += w * moved[j]
        out = np.moveaxis(res, 0, axis)
    return out


def test_regularize_impulse_matches_separable_oracle():
    impulse = np.zeros((1, 7, 7, 7))
    impulse[0, 3, 3, 3] = 1.0
    dsv = CostVolume((7, 7, 7), impulse)
    out = regularize_dsv(dsv, 1.0)
    want = gaussian_smooth_oracle(impulse[0], 1.0)
    assert np.abs(out.costs[0] - want).max() < 1e-5


# ---------------------------------------------------------------------------
# Winner-takes-all
# ---------------------------------------------------------------------------

def make_line_set():
    disp = np.array([[-1.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
    return DisplacementSet(q=1.0, l_max=1.0, displacements=disp)


def test_wta_tie_breaks_to_smaller_displacement():
    ds = make_line_set()
    costs = np.array([3.0, 1.0, 1.0]).reshape(3, 1, 1, 1)
    field = winner_takes_all(CostVolume((1, 1, 1), costs), ds)
    assert field.data[0, 0, 0].tolist() == [0.0, 0.0, 0.0]


def test_wta_plain_argmin():
    ds = make_line_set()
    costs = np.array([2.0, 5.0, 1.0]).reshape(3, 1, 1, 1)
    field = winner_takes_all(CostVolume((1, 1, 1), costs), ds)
    assert field.data[0, 0, 0].tolist() == [1.0, 0.0, 0.0]


def test_wta_matches_loop_oracle_with_ties():
    rng = np.random.default_rng(47)
    ds = build_displacement_set(1.0, 1.0)
    # quantized costs force frequent ties
    costs = np.round(rng.uniform(0, 3, size=(27, 4, 4, 4)) * 4) / 4.0
    field = winner_takes_all(CostVolume((4, 4, 4), costs), ds)
    disp = ds.displacements
    for z in range(4):
        for y in range(4):
            for x in range(4):
                best = None
                for li in range(27):
                    dx, dy, dz = disp[li]
                    key = (costs[li, z, y, x], abs(dx) + abs(dy) + abs(dz), dz, dy, dx)
                    if best is None or key < best[0]:
                        best = (key, (dx, dy, dz))
                assert tuple(field.data[z, y, x].tolist()) == best[1]


def test_wta_rejects_count_mismatch():
    ds = build_displacement_set(1.0, 1.0)
    with pytest.raises(ValueError):
        winner_takes_all(CostVolume((2, 2, 2), np.zeros((5, 2, 2, 2))), ds)


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------

def test_energy_identical_volumes_zero_field():
    rng = np.random.default_rng(48)
    f = smooth_features(rng, (4, 4, 4), channels=2)
    assert energy(f, f, zero_field(f.dims), alpha=1.0) == 0.0


def test_energy_constant_field_has_zero_gradient_term():
    rng = np.random.default_rng(49)
    f = smooth_features(rng, (5, 5, 5))
    const = np.broadcast_to(np.array([1.0, 0, 0], np.float32), (5, 5, 5, 3)).copy()
    header = VolumeHeader((5, 5, 5), channels=3)
    from voxelreg.volume import DisplacementField

    field = DisplacementField(header, const)
    e1 = energy(f, f, field, alpha=0.0)
    e2 = energy(f, f, field, alpha=100.0)
    assert e1 == e2  # gradient of a constant field contributes nothing


def test_energy_matches_scalar_oracle():
    from tests.test_volume import trilinear_oracle

    rng = np.random.default_rng(50)
    f_fixed = smooth_features(rng, (4, 4, 4), channels=2)
    f_moving = smooth_features(rng, (4, 4, 4), channels=2)
    field_data = rng.uniform(-1.5, 1.5, size=(4, 4, 4, 3)).astype(np.float32)
    from voxelreg.volume import DisplacementField

    field = DisplacementField(VolumeHeader((4, 4, 4), channels=3), field_data)
    alpha = 1.7

    data_term = 0.0
    for z in range(4):
        for y in range(4):
            for x in range(4):
                ux, uy, uz = (float(v) for v in field_data[z, y, x])
                for c in range(2):
                    mv = trilinear_oracle(f_moving.data[..., c], x + ux, y + uy, z + uz)
                    data_term += abs(float(f_fixed.data[z, y, x, c]) - mv)
    grad_term = 0.0
    u = field_data.astype(np.float64)
    for c in range(3):
        for z in range(4):
            for y in range(4):
                for x in range(4):
                    if z + 1 < 4:
                        grad_term += (u[z + 1, y, x, c] - u[z, y, x, c]) ** 2
                    if y + 1 < 4:
                        grad_term += (u[z, y + 1, x, c] - u[z, y, x, c]) ** 2
                    if x + 1 < 4:
                        grad_term += (u[z, y, x + 1, c] - u[z, y, x, c]) ** 2
    want = data_term + alpha * grad_term
    assert energy(f_fixed, f_moving, field, alpha) == pytest.approx(want, abs=1e-4)


# ---------------------------------------------------------------------------
# Module invariants
# ---------------------------------------------------------------------------

def full_pipeline_field(f_fixed, f_moving, ds, radius=1, sigma=1.0):
    dsv = build_dsv(f_fixed, f_moving, ds)
    dsv = aggregate_costs(dsv, radius)
    dsv = regularize_dsv(dsv, sigma)
    return winner_takes_all(dsv, ds)


def test_self_registration_gives_zero_field():
    rng = np.random.default_rng(51)
    f = smooth_features(rng, (8, 8, 8), channels=2)
    ds = build_displacement_set(1.0, 2.0)
    field = full_pipeline_field(f, f, ds)
    assert np.all(field.data == 0.0)


def test_exact_translation_recovery_interior():
    rng = np.random.default_rng(52)
    t = (2, -1, 1)  # (dx, dy, dz)
    n = 14
    fixed = smooth_features(rng, (n, n, n))
    # moving(x) = fixed(x - t), so matching moving at x + t reproduces fixed
    zi = np.clip(np.arange(n) - t[2], 0, n - 1)
    yi = np.clip(np.arange(n) - t[1], 0, n - 1)
    xi = np.clip(np.arange(n) - t[0], 0, n - 1)
    moving = make_features(fixed.data[np.ix_(zi, yi, xi)][..., 0])
    ds = build_displacement_set(1.0, 2.0)
    field = full_pipeline_field(fixed, moving, ds, radius=1, sigma=0.0)
    margin = 3  # l_max + patch_radius
    interior = field.data[margin:-margin, margin:-margin, margin:-margin]
    assert np.all(interior == np.array(t, dtype=np.float32))


def test_negation_symmetry_on_translation_pair():
    rng = np.random.default_rng(53)
    t = (1, 0, -1)
    n = 12
    fixed = smooth_features(rng, (n, n, n))
    zi = np.clip(np.arange(n) - t[2], 0, n - 1)
    yi = np.clip(np.arange(n) - t[1], 0, n - 1)
    xi = np.clip(np.arange(n) - t[0], 0, n - 1)
    moving = make_features(fixed.data[np.ix_(zi, yi, xi)][..., 0])
    ds = build_displacement_set(1.0, 2.0)
    fwd = full_pipeline_field(fixed, moving, ds, radius=1, sigma=0.0)
    rev = full_pipeline_field(moving, fixed, ds, radius=1, sigma=0.0)
    margin = 3
    sl = (slice(margin, -margin),) * 3
    assert np.all(fwd.data[sl] == -rev.data[sl])


def test_energy_descent_of_winner_field():
    rng = np.random.default_rng(54)
    for trial in range(10):
        f_fixed = smooth_features(rng, (6, 6, 6), channels=2)
        f_moving = smooth_features(rng, (6, 6, 6), channels=2)
        ds = build_displacement_set(1.0, 1.0)
        field = winner_takes_all(build_dsv(f_fixed, f_moving, ds), ds)
        e_winner = energy(f_fixed, f_moving, field, alpha=0.0)
        e_zero = energy(f_fixed, f_moving, zero_field(f_fixed.dims), alpha=0.0)
        assert e_winner <= e_zero
        if np.any(field.data != 0.0):
            assert e_winner < e_zero


def test_dsv_and_wta_are_bit_deterministic():
    rng = np.random.default_rng(55)
    f_fixed = smooth_features(rng, (6, 6, 6), channels=3)
    f_moving = smooth_features(rng, (6, 6, 6), channels=3)
    ds = build_displacement_set(1.0, 1.0)
    dsv1 = build_dsv(f_fixed, f_moving, ds)
    dsv2 = build_dsv(f_fixed, f_moving, ds)
    assert np.array_equal(dsv1.costs, dsv2.costs)
    w1 = winner_takes_all(dsv1, ds)
    w2 = winner_takes_all(dsv2, ds)
    assert np.array_equal(w1.data, w2.data)


# ---------------------------------------------------------------------------
# Per-label cost kernel and batch filters
# ---------------------------------------------------------------------------

def shift_clamped_oracle(data, dz, dy, dx):
    """Clamped integer shift of a (z, y, x, C) array by index gathering."""
    nz, ny, nx = data.shape[:3]
    zi = np.clip(np.arange(nz) + dz, 0, nz - 1)
    yi = np.clip(np.arange(ny) + dy, 0, ny - 1)
    xi = np.clip(np.arange(nx) + dx, 0, nx - 1)
    return data[np.ix_(zi, yi, xi)]


def sample_shifted_oracle(moving, d):
    """moving(x + d) for d = (dx, dy, dz): blend of the 8 clamped integer corners."""
    dx, dy, dz = (float(v) for v in d)
    bx, by, bz = (int(np.floor(v)) for v in (dx, dy, dz))
    fx, fy, fz = dx - bx, dy - by, dz - bz
    out = np.zeros(moving.shape, dtype=np.float64)
    for cz, wz in ((0, 1.0 - fz), (1, fz)):
        for cy, wy in ((0, 1.0 - fy), (1, fy)):
            for cx, wx in ((0, 1.0 - fx), (1, fx)):
                out += wz * wy * wx * shift_clamped_oracle(moving, bz + cz, by + cy, bx + cx)
    return out


@pytest.mark.parametrize("channels", [1, 3, 12])
@pytest.mark.parametrize("q", [1.0, 0.5])
def test_label_cost_map_matches_clamped_gather_oracle(channels, q):
    # non-cubic dims so that any mix-up of axes shows; at q=1 every shift
    # with |d| = l_max along some axis reaches each face of the padding
    rng = np.random.default_rng(60 + channels)
    f_fixed = make_features(rng.standard_normal((7, 9, 11, channels)))
    f_moving = make_features(rng.standard_normal((7, 9, 11, channels)))
    ds = build_displacement_set(q, 2.0 if q == 1.0 else 1.0)
    assert ds.count == 125
    fixed64, moving64 = regcore._level_arrays(f_fixed, f_moving, ds)
    for arr in (fixed64, moving64):  # views of channel-first storage
        assert np.moveaxis(arr, -1, 0).flags.c_contiguous
    moving_oracle = f_moving.data.astype(np.float64)
    for d in ds.displacements:
        got = regcore._label_cost_map(fixed64, moving64, d)
        want = np.abs(f_fixed.data - sample_shifted_oracle(moving_oracle, d)).sum(axis=-1)
        assert got.shape == (7, 9, 11)
        assert np.abs(got - want).max() < 1e-12, d


def test_batch_filters_in_place_equal_per_map_filters():
    rng = np.random.default_rng(61)
    batch = rng.uniform(0, 5, size=(4, 7, 9, 11))
    want_box = np.stack(
        [np.maximum(ndimage.uniform_filter(m, size=5, mode="nearest") * 125.0, 0.0) for m in batch]
    )
    want_smooth = np.stack(
        [np.maximum(ndimage.gaussian_filter(m, sigma=1.3, mode="nearest"), 0.0) for m in want_box]
    )
    out = batch.copy()
    assert regcore._box_sum_map(out, 2) is out
    assert np.array_equal(out, want_box)
    assert regcore._smooth_map(out, 1.3) is out
    assert np.array_equal(out, want_smooth)
