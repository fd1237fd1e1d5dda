"""Displacement-search core tests against naive loop oracles."""

import threading
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from voxelreg import regcore
from voxelreg.pipeline import chunked_dsv_execution
from voxelreg.regcore import DisplacementSet, build_displacement_set
from voxelreg.volume import DisplacementField, FeatureVolume, zero_field

from tests.oracle import (
    box_sum_oracle,
    cost_volume,
    dsv_oracle,
    energy,
    gaussian_smooth_oracle,
    reference_field,
    winner_field,
)


def make_features(data):
    data = np.asarray(data, dtype=np.float32)
    return FeatureVolume(data[..., np.newaxis] if data.ndim == 3 else data)


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


@pytest.mark.parametrize("q, l_max, fractional", [(1.0, 2.0, False), (2.0, 4.0, False),
                                                  (0.5, 1.0, True), (1.5, 3.0, True)])
def test_displacement_set_fractional(q, l_max, fractional):
    assert build_displacement_set(q, l_max).fractional is fractional


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
    # label i is tie-break rank i: rows sorted by L1, and candidates of
    # equal L1 in lexicographic (dz, dy, dx) order
    ds = build_displacement_set(1.0, 1.0)
    keys = [(abs(dx) + abs(dy) + abs(dz), dz, dy, dx) for dx, dy, dz in ds.displacements.tolist()]
    assert keys == sorted(keys)


def test_priority_order_puts_zero_first():
    ds = build_displacement_set(1.0, 2.0)
    assert ds.displacements[0].tolist() == [0.0, 0.0, 0.0]
    l1 = np.abs(ds.displacements).sum(axis=1)
    assert np.all(np.diff(l1) >= 0)


# ---------------------------------------------------------------------------
# DSV construction
# ---------------------------------------------------------------------------

def test_dsv_sad_accumulates_in_channel_order():
    # at d = 0 every cost must equal a scalar left-to-right float32 loop over
    # the channels exactly, not just to rounding
    rng = np.random.default_rng(40)
    f_fixed = make_features(rng.standard_normal((5, 7, 9, 12)))
    f_moving = make_features(rng.standard_normal((5, 7, 9, 12)))
    ds = build_displacement_set(1.0, 1.0)
    zero_label = int(np.where((ds.displacements == 0).all(axis=1))[0][0])
    got = cost_volume(f_fixed, f_moving, ds)[zero_label]
    assert got.dtype == np.float32
    for z, y, x in np.ndindex(5, 7, 9):
        want = np.float32(0.0)
        for c in range(12):
            want = want + abs(f_fixed.data[z, y, x, c] - f_moving.data[z, y, x, c])
        assert want.dtype == np.float32
        assert got[z, y, x] == want, (z, y, x)


def test_dsv_zero_displacement_on_identical_volumes():
    rng = np.random.default_rng(41)
    f = smooth_features(rng, (5, 5, 5), channels=3)
    ds = build_displacement_set(1.0, 1.0)
    costs = cost_volume(f, f, ds)
    zero_label = int(np.where((ds.displacements == 0).all(axis=1))[0][0])
    assert np.all(costs[zero_label] == 0.0)


def test_dsv_line_volume_hand_case():
    # 1x1x3 volumes with intensities (0, 1, 2); at the center voxel the
    # +1 step along the long axis must cost |1 - 2| = 1
    line = make_features(np.arange(3, dtype=np.float32).reshape(1, 1, 3))
    ds = build_displacement_set(1.0, 1.0)
    costs = cost_volume(line, line, ds)
    label = int(np.where((ds.displacements == [1.0, 0.0, 0.0]).all(axis=1))[0][0])
    assert costs[label, 0, 0, 1] == 1.0


def test_dsv_rejects_mismatched_inputs():
    a = make_features(np.zeros((3, 3, 3)))
    b = make_features(np.zeros((4, 3, 3)))
    ds = build_displacement_set(1.0, 1.0)
    with pytest.raises(ValueError):
        chunked_dsv_execution(a, b, ds, 0, 0.0, 1 << 20)
    c = make_features(np.zeros((3, 3, 3, 2)))
    with pytest.raises(ValueError):
        chunked_dsv_execution(a, c, ds, 0, 0.0, 1 << 20)


def test_dsv_matches_bruteforce_oracle():
    rng = np.random.default_rng(42)
    f_fixed = smooth_features(rng, (8, 8, 8), channels=2)
    f_moving = smooth_features(rng, (8, 8, 8), channels=2)
    ds = build_displacement_set(1.0, 1.0)
    costs = cost_volume(f_fixed, f_moving, ds)
    want = dsv_oracle(f_fixed.data, f_moving.data, ds.displacements.tolist())
    assert np.abs(costs - want).max() < 1e-5


def test_dsv_fractional_displacement_matches_trilinear_oracle():
    from tests.test_volume import trilinear_oracle

    rng = np.random.default_rng(43)
    f_fixed = smooth_features(rng, (4, 4, 4), channels=2)
    f_moving = smooth_features(rng, (4, 4, 4), channels=2)
    ds = build_displacement_set(0.5, 0.5)
    costs = cost_volume(f_fixed, f_moving, ds)
    for li, (dx, dy, dz) in enumerate(ds.displacements.tolist()):
        for z in range(4):
            for y in range(4):
                for x in range(4):
                    acc = 0.0
                    for c in range(2):
                        mv = trilinear_oracle(f_moving.data[..., c], x + dx, y + dy, z + dz)
                        acc += abs(float(f_fixed.data[z, y, x, c]) - mv)
                    assert costs[li, z, y, x] == pytest.approx(acc, abs=1e-6)


# ---------------------------------------------------------------------------
# Aggregation and regularization
# ---------------------------------------------------------------------------

def one_map_scratch(costs):
    return np.empty(costs.shape[1:], costs.dtype)


def test_aggregate_constant_map_interior():
    costs = np.full((1, 5, 5, 5), 0.5, regcore.SEARCH_DTYPE)
    out = regcore._box_sum_map(costs, 1, one_map_scratch(costs))
    assert out[0, 2, 2, 2] == pytest.approx(27 * 0.5, abs=1e-9)


def test_aggregate_matches_window_sum_oracle():
    rng = np.random.default_rng(45)
    costs = rng.uniform(0, 2, size=(3, 6, 5, 4))
    out = costs.astype(regcore.SEARCH_DTYPE)
    regcore._box_sum_map(out, 1, one_map_scratch(out))
    for li in range(3):
        want = box_sum_oracle(costs[li], 1)
        assert np.abs(out[li] - want).max() < 1e-4


def test_regularize_constant_map_unchanged():
    costs = np.full((1, 5, 5, 5), 0.75, regcore.SEARCH_DTYPE)
    out = regcore._smooth_map(costs, 1.0, one_map_scratch(costs))
    assert np.abs(out - 0.75).max() < 1e-6


def test_regularize_impulse_matches_separable_oracle():
    impulse = np.zeros((1, 7, 7, 7))
    impulse[0, 3, 3, 3] = 1.0
    out = impulse.astype(regcore.SEARCH_DTYPE)
    regcore._smooth_map(out, 1.0, one_map_scratch(out))
    want = gaussian_smooth_oracle(impulse[0], 1.0)
    assert np.abs(out[0] - want).max() < 1e-5


# ---------------------------------------------------------------------------
# Winner-takes-all
# ---------------------------------------------------------------------------

def make_line_set():
    # rows in priority order, so label i is row i
    disp = np.array([[0.0, 0, 0], [-1.0, 0, 0], [1.0, 0, 0]])
    ds = DisplacementSet(q=1.0, l_max=1.0, displacements=disp)
    assert np.array_equal(ds.displacements, disp)
    return ds


def scan_winner(costs, ds):
    """Each voxel's displacement after a one-unit walk over every label,
    the label scan of a one-worker integer search."""
    _, labels = strict_unit_walk(costs.astype(regcore.SEARCH_DTYPE), [np.arange(ds.count)], [0])
    return ds.displacements[labels]


def test_wta_tie_breaks_to_smaller_displacement():
    ds = make_line_set()
    # costs of (0, -1, +1): zero ties with +1 at the lowest cost
    costs = np.array([1.0, 3.0, 1.0]).reshape(3, 1, 1, 1)
    field = scan_winner(costs, ds)
    assert field[0, 0, 0].tolist() == [0.0, 0.0, 0.0]


def test_wta_plain_argmin():
    ds = make_line_set()
    costs = np.array([5.0, 2.0, 1.0]).reshape(3, 1, 1, 1)
    field = scan_winner(costs, ds)
    assert field[0, 0, 0].tolist() == [1.0, 0.0, 0.0]


def check_wta_against_loop_oracle(rng, ds):
    # quantized costs force frequent ties
    costs = np.round(rng.uniform(0, 3, size=(27, 4, 4, 4)) * 4) / 4.0
    field = scan_winner(costs, ds)
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
                assert tuple(field[z, y, x].tolist()) == best[1]


def test_wta_matches_loop_oracle_with_ties():
    rng = np.random.default_rng(47)
    cube = build_displacement_set(1.0, 1.0)
    # the set sorts the rows it is given into priority order
    shuffled = DisplacementSet(1.0, 1.0, np.random.default_rng(46).permutation(cube.displacements))
    for ds in (cube, shuffled):
        check_wta_against_loop_oracle(rng, ds)


def strict_unit_walk(costs, units, order):
    """Per-voxel (best cost, best label) of ``costs`` (labels, z, y, x): the
    units walked in label order, taken in ``order``, into one best; the
    first by ``_keep_better`` into the empty best, each later one straight
    into it by ``_keep_lower``."""
    shape = costs.shape[1:]
    best_cost, best_label = np.full(shape, np.inf, np.float32), np.zeros(shape, np.int32)
    mask = np.empty(shape, bool)
    keep = regcore._keep_better
    for u in order:
        for label in units[u]:
            keep(costs[label], label, best_cost, best_label, mask)
        keep = regcore._keep_lower
    return best_cost, best_label


@pytest.mark.parametrize("seed", [83, 84, 85])
def test_unit_walks_merged_in_any_order_equal_argmin(seed):
    # integer costs in {0, 1, 2} tie at most voxels; units are ascending
    # label sets, contiguous as integer slices are or interleaved as weight
    # groups are, walked into one best in shuffled orders
    rng = np.random.default_rng(seed)
    costs = rng.integers(0, 3, size=(40, 5, 6, 7)).astype(np.float32)
    contiguous = np.split(np.arange(40), np.sort(rng.choice(np.arange(1, 40), 5, replace=False)))
    owner = rng.integers(0, 6, size=40)
    interleaved = [np.flatnonzero(owner == u) for u in np.unique(owner)]
    for units in (contiguous, interleaved):
        for _ in range(4):
            best_cost, best_label = strict_unit_walk(costs, units, rng.permutation(len(units)))
            assert np.array_equal(best_label, np.argmin(costs, axis=0))
            assert np.array_equal(best_cost, costs.min(axis=0))


def test_keep_lower_allocates_less_than_a_bool_map():
    # 32^3: the merge runs through its caller's mask
    rng = np.random.default_rng(86)
    cost, best_cost = (rng.integers(0, 3, size=(32, 32, 32)).astype(np.float32) for _ in range(2))
    label, best_label = (rng.integers(0, 50, size=(32, 32, 32)).astype(np.int32) for _ in range(2))
    mask = np.empty((32, 32, 32), bool)
    want_cost, want_label = np.minimum(cost, best_cost), best_label.copy()
    ties, lower = cost == best_cost, cost < best_cost
    want_label[ties] = np.minimum(label, best_label)[ties]
    want_label[lower] = label[lower]
    tracemalloc.start()
    try:
        regcore._keep_lower(cost, label, best_cost, best_label, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mask.nbytes, peak
    assert np.array_equal(best_cost, want_cost) and np.array_equal(best_label, want_label)


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------

def test_energy_identical_volumes_zero_field():
    rng = np.random.default_rng(48)
    f = smooth_features(rng, (4, 4, 4), channels=2)
    assert energy(f, f, zero_field(f.dims), alpha=1.0) == 0.0


def test_energy_rejects_field_dim_mismatch():
    f = smooth_features(np.random.default_rng(48), (4, 4, 4), channels=2)
    with pytest.raises(ValueError, match=r"field dims \(4, 4, 5\) != volume dims \(4, 4, 4\)"):
        energy(f, f, zero_field((4, 4, 5)), alpha=1.0)


def test_energy_constant_field_has_zero_gradient_term():
    rng = np.random.default_rng(49)
    f = smooth_features(rng, (5, 5, 5))
    const = np.broadcast_to(np.array([1.0, 0, 0], np.float32), (5, 5, 5, 3)).copy()
    field = DisplacementField(const)
    e1 = energy(f, f, field, alpha=0.0)
    e2 = energy(f, f, field, alpha=100.0)
    assert e1 == e2  # gradient of a constant field contributes nothing


def test_energy_matches_scalar_oracle():
    from tests.test_volume import trilinear_oracle

    rng = np.random.default_rng(50)
    f_fixed = smooth_features(rng, (4, 4, 4), channels=2)
    f_moving = smooth_features(rng, (4, 4, 4), channels=2)
    field_data = rng.uniform(-1.5, 1.5, size=(4, 4, 4, 3)).astype(np.float32)
    field = DisplacementField(field_data)
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

def test_self_registration_gives_zero_field():
    rng = np.random.default_rng(51)
    f = smooth_features(rng, (8, 8, 8), channels=2)
    ds = build_displacement_set(1.0, 2.0)
    field = reference_field(f, f, ds, 1, 1.0)
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
    field = reference_field(fixed, moving, ds, 1, 0.0)
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
    fwd = reference_field(fixed, moving, ds, 1, 0.0)
    rev = reference_field(moving, fixed, ds, 1, 0.0)
    margin = 3
    sl = (slice(margin, -margin),) * 3
    assert np.all(fwd.data[sl] == -rev.data[sl])


def test_energy_descent_of_winner_field():
    rng = np.random.default_rng(54)
    for trial in range(10):
        f_fixed = smooth_features(rng, (6, 6, 6), channels=2)
        f_moving = smooth_features(rng, (6, 6, 6), channels=2)
        ds = build_displacement_set(1.0, 1.0)
        field = winner_field(cost_volume(f_fixed, f_moving, ds), ds)
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
    costs1 = cost_volume(f_fixed, f_moving, ds)
    costs2 = cost_volume(f_fixed, f_moving, ds)
    assert np.array_equal(costs1, costs2)
    w1 = winner_field(costs1, ds)
    w2 = winner_field(costs2, ds)
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
    """moving(x + d) for d = (dx, dy, dz): blend of the 8 clamped integer
    corners, in (z, y, x) corner order and in the dtype of ``moving``."""
    dx, dy, dz = (float(v) for v in d)
    bx, by, bz = (int(np.floor(v)) for v in (dx, dy, dz))
    fx, fy, fz = dx - bx, dy - by, dz - bz
    out = np.zeros(moving.shape, dtype=moving.dtype)
    for cz, wz in ((0, 1.0 - fz), (1, fz)):
        for cy, wy in ((0, 1.0 - fy), (1, fy)):
            for cx, wx in ((0, 1.0 - fx), (1, fx)):
                out += wz * wy * wx * shift_clamped_oracle(moving, bz + cz, by + cy, bx + cx)
    return out


def kernel_cost_map(fixed32, moving32, d):
    """``regcore._label_cost_map`` of ``d`` read off its weight group's
    ``_blend``, through buffers made here as the searches make theirs."""
    dims = fixed32.shape[:3]
    scratch = regcore._sad_scratch(dims, fixed32.shape[3])
    blended = regcore._blend(moving32, d, np.empty(moving32.size, np.float32), scratch)
    return regcore._label_cost_map(fixed32, blended, d, np.empty(dims, np.float32), scratch)


@pytest.mark.parametrize("channels", [1, 3, 12])
@pytest.mark.parametrize("q", [1.0, 0.5])
def test_label_cost_map_matches_clamped_gather_oracle(channels, q):
    # non-cubic dims so that any mix-up of axes shows; at q=1 every shift
    # with |d| = l_max along some axis reaches each face of the padding.
    # The oracle gathers, blends and sums in float32, channel by channel in
    # channel order, as the kernel does, so the two agree exactly.
    rng = np.random.default_rng(60 + channels)
    f_fixed = make_features(rng.standard_normal((7, 9, 11, channels)))
    f_moving = make_features(rng.standard_normal((7, 9, 11, channels)))
    ds = build_displacement_set(q, 2.0 if q == 1.0 else 1.0)
    assert ds.count == 125
    fixed32, moving32 = regcore._level_arrays(f_fixed, f_moving, ds, 1)
    for arr in (fixed32, moving32):  # float32 views of channel-first storage
        assert arr.dtype == np.float32
        assert np.moveaxis(arr, -1, 0).flags.c_contiguous
    for d in ds.displacements:
        got = kernel_cost_map(fixed32, moving32, d)
        diff = np.abs(f_fixed.data - sample_shifted_oracle(f_moving.data, d))
        want = diff[..., 0]
        for c in range(1, channels):
            want = want + diff[..., c]
        assert got.shape == (7, 9, 11) and got.dtype == np.float32
        assert np.array_equal(got, want), d


def assert_matches_scipy(batch, box, smooth, radius, sigma):
    """``box`` and ``smooth`` (box, then Gaussian, of ``batch``) apply the
    operators of scipy's edge-clamped filters, up to rounding."""
    size = 2 * radius + 1
    want_box = np.stack([ndimage.uniform_filter(m, size, mode="nearest") * size**3 for m in batch])
    np.testing.assert_allclose(box, want_box, rtol=1e-13, atol=0)
    want_smooth = np.stack([ndimage.gaussian_filter(m, sigma, mode="nearest") for m in box])
    np.testing.assert_allclose(smooth, want_smooth, rtol=1e-13, atol=0)


def filter_each_map(batch, radius, sigma):
    """Box then Gaussian, one map at a time, each with a fresh scratch."""
    out = []
    for m in batch:
        one = m[None].copy()
        scratch = one_map_scratch(one)
        regcore._box_sum_map(one, radius, scratch)
        out.append(regcore._smooth_map(one, sigma, scratch)[0])
    return np.stack(out)


def test_batch_filters_in_place_equal_per_map_filters():
    rng = np.random.default_rng(61)
    for shape in ((7, 9, 11), (13, 3, 17)):
        batch = rng.uniform(0, 5, size=(4,) + shape)
        want = filter_each_map(batch, 2, 1.3)
        for maps in (1, 2, 3, 4):  # scratch of 1, 2, 3 maps and of the whole batch
            scratch = np.empty((maps,) + shape)
            out = batch.copy()
            assert regcore._box_sum_map(out, 2, scratch) is out
            box = out.copy()
            assert regcore._smooth_map(out, 1.3, scratch) is out
            assert np.array_equal(out, want), (shape, maps)
        assert_matches_scipy(batch, box, out, 2, 1.3)


@pytest.mark.parametrize("n, radius", [(1, 2), (3, 2), (7, 1), (9, 3)])
def test_box_operator_holds_clamped_window_counts(n, radius):
    op = regcore._clamped_operator(n, regcore._box_taps(radius))
    want = np.zeros((n, n))
    for i in range(n):
        for k in range(-radius, radius + 1):
            want[i, min(max(i + k, 0), n - 1)] += 1
    assert np.array_equal(op, want)
    assert np.array_equal(op.T, want.T)
    assert (op.sum(axis=1) == 2 * radius + 1).all()


@pytest.mark.parametrize("n, sigma", [(1, 1.0), (5, 1.3), (24, 2**0.5), (70, 2.0)])
def test_gauss_operator_rows_sum_to_one(n, sigma):
    taps = regcore._gauss_taps(sigma)
    op = regcore._clamped_operator(n, taps)
    assert np.abs(op.sum(axis=1) - 1.0).max() <= 1e-15
    assert (op >= 0).all()
    assert len(taps) // 2 == int(4.0 * sigma + 0.5)


@pytest.mark.parametrize("shape", [(7, 9, 11), (70, 5, 64)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("taps, param", [(regcore._box_taps, 2), (regcore._gauss_taps, 1.3)])
def test_filter_plan_matrices_are_operator_slices(taps, param, dtype, shape):
    # each matrix is a read-only view cut from one C-contiguous cast of the
    # axis operator (a tile of a band-tiled pass cannot itself be contiguous)
    dtype = np.dtype(dtype)
    plan = regcore._filter_plan(taps, param, shape, dtype)
    nz, ny, nx = shape
    tiled = False
    for tiles, n, x_pass in zip(plan, (nx, ny, nz), (True, False, False)):
        op = regcore._clamped_operator(n, taps(param))
        covered = []
        for matrix, src, dst in tiles:
            assert matrix.dtype == dtype and not matrix.flags.writeable
            assert matrix.base.flags.c_contiguous and not matrix.base.flags.writeable
            band, rows = src[1], dst[1]
            assert 0 <= band.start < band.stop <= n and 0 <= rows.start < rows.stop <= n
            covered.extend(range(rows.start, rows.stop))
            want = op.T[band, rows] if x_pass else op[rows, band]
            assert np.array_equal(matrix, want.astype(dtype))
        assert covered == list(range(n))
        tiled |= len(tiles) > 1
    assert tiled == (shape == (70, 5, 64))


def test_filters_keep_zero_maps_zero_and_never_go_negative():
    rng = np.random.default_rng(64)
    batch = rng.uniform(0, 1, size=(3, 9, 8, 7)) ** 8  # many values near 0
    batch[1] = 0.0
    regcore._box_sum_map(batch, 2, one_map_scratch(batch))
    assert (batch[1] == 0.0).all() and (batch >= 0.0).all()
    regcore._smooth_map(batch, 1.7, one_map_scratch(batch))
    assert (batch[1] == 0.0).all() and (batch >= 0.0).all()


# (z, y, x) passes of (z, x), (y, x) and (x, y) slices: a pass is tiled
# when its dense product n * n * m exceeds 2**18 multiply-adds
@pytest.mark.parametrize("shape, tiled", [((70, 5, 64), [True, False, False]),
                                          ((5, 60, 80), [False, True, True])])
def test_long_axes_are_band_tiled(shape, tiled):
    nz, ny, nx = shape
    reach = len(regcore._gauss_taps(1.3)) // 2
    slices = ((nz, nx), (ny, nx), (nx, ny))
    tiles = [regcore._row_tiles(n, m, reach) for n, m in slices]
    assert [len(t) > 1 for t in tiles] == tiled
    for t, (n, m) in zip(tiles, slices):
        assert [i0 for i0, *_ in t] + [n] == [0] + [i1 for _, i1, *_ in t]
        assert all((i1 - i0) * (b1 - b0) * m <= 2**18 for i0, i1, b0, b1 in t)
    assert len(regcore._row_tiles(64, 64, 2)) == 1

    rng = np.random.default_rng(65)
    batch = rng.uniform(0, 5, size=(3,) + shape)
    out = batch.copy()
    regcore._box_sum_map(out, 2, np.empty((2,) + shape))
    box = out.copy()
    regcore._smooth_map(out, 1.3, np.empty((2,) + shape))
    assert np.array_equal(out, filter_each_map(batch, 2, 1.3))
    assert_matches_scipy(batch, box, out, 2, 1.3)


def test_concurrent_filters_give_the_bits_of_one_thread():
    rng = np.random.default_rng(66)
    batch = rng.uniform(0, 5, size=(8, 24, 20, 22))
    want = batch.copy()
    regcore._box_sum_map(want, 2, np.empty((3,) + batch.shape[1:]))
    regcore._smooth_map(want, 2**0.5, np.empty((3,) + batch.shape[1:]))
    for _ in range(3):
        out = batch.copy()
        start = threading.Barrier(2)

        def work(half):
            part = out[half * 4 : half * 4 + 4]
            scratch = np.empty((2,) + batch.shape[1:])
            start.wait()
            for _ in range(5):  # overlap the two threads' products
                part[:] = batch[half * 4 : half * 4 + 4]
                regcore._box_sum_map(part, 2, scratch)
                regcore._smooth_map(part, 2**0.5, scratch)

        threads = [threading.Thread(target=work, args=(h,)) for h in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert np.array_equal(out, want)


def channel_order_sad_oracle(fixed, moving, d):
    """SAD of (z, y, x, C) arrays at shift d in their dtype (float32 for the
    search), one channel at a time in channel order; each channel blends only
    the corners of nonzero trilinear weight, in (z, y, x) corner order."""
    dx, dy, dz = (float(v) for v in d)
    bx, by, bz = (int(np.floor(v)) for v in (dx, dy, dz))
    fx, fy, fz = dx - bx, dy - by, dz - bz
    corners = []
    for cz, wz in ((0, 1.0 - fz), (1, fz)):
        for cy, wy in ((0, 1.0 - fy), (1, fy)):
            for cx, wx in ((0, 1.0 - fx), (1, fx)):
                w = 1.0 * wz * wy * wx
                if w != 0.0:
                    corners.append((w, shift_clamped_oracle(moving, bz + cz, by + cy, bx + cx)))
    for c in range(fixed.shape[3]):
        if len(corners) == 1:
            sample = corners[0][1][..., c]
        else:
            sample = corners[0][0] * corners[0][1][..., c]
            for w, shifted in corners[1:]:
                sample = sample + w * shifted[..., c]
        total = total + np.abs(fixed[..., c] - sample) if c else np.abs(fixed[..., c] - sample)
    return total


@pytest.mark.parametrize("k", [1, 5, 12])  # k = 5 groups 12 channels as 5, 5, 2
@pytest.mark.parametrize("q", [1.0, 0.5])
def test_grouped_sad_equals_channel_order_loop(k, q):
    rng = np.random.default_rng(62)
    f_fixed = make_features(rng.standard_normal((6, 7, 8, 12)))
    f_moving = make_features(rng.standard_normal((6, 7, 8, 12)))
    ds = build_displacement_set(q, 1.0)
    fixed32, moving32 = regcore._level_arrays(f_fixed, f_moving, ds, 1)
    scratch = np.empty((k, 6, 7, 8), np.float32)
    for d in ds.displacements:
        out = np.empty((6, 7, 8), np.float32)
        blended = regcore._blend(moving32, d, np.empty(moving32.size, np.float32), scratch)
        assert regcore._label_cost_map(fixed32, blended, d, out=out, scratch=scratch) is out
        want = channel_order_sad_oracle(f_fixed.data, f_moving.data, d)
        assert want.dtype == np.float32
        assert np.array_equal(out, want), d


@pytest.mark.parametrize("q, l_max", [(0.25, 0.75), (0.3, 0.6), (1.5, 3.0)])
def test_dsv_weight_groups_keep_each_candidates_bits(q, l_max):
    # fractions other than halves, and steps whose fractions are equal only
    # up to rounding (q = 0.3): every candidate's costs, read off its weight
    # group's blend, equal its own float32 corner blend exactly
    rng = np.random.default_rng(74)
    f_fixed = make_features(rng.standard_normal((5, 6, 7, 3)))
    f_moving = make_features(rng.standard_normal((5, 6, 7, 3)))
    ds = build_displacement_set(q, l_max)
    costs = cost_volume(f_fixed, f_moving, ds)
    for li, d in enumerate(ds.displacements):
        want = channel_order_sad_oracle(f_fixed.data, f_moving.data, d)
        assert np.array_equal(costs[li], want), d


# k_fractional: the group size of levels with fractional candidates while the
# scratch held a second block for the corner products; they now group k too
@pytest.mark.parametrize("side, k, k_fractional", [(18, 12, 12), (24, 12, 9), (32, 8, 4),
                                                   (36, 5, 2), (64, 1, 1)])
def test_sad_scratch_fills_at_most_one_mib(side, k, k_fractional):
    dims = (side, side, side)
    whole = regcore._sad_scratch(dims, 12)
    per_worker = regcore._sad_scratch(dims, 12, 3)
    assert whole.shape == (k,) + dims
    assert per_worker.shape == (3, k) + dims and k >= k_fractional
    assert regcore._sad_scratch(dims, 1).shape == (1,) + dims
    for scratch in (whole, per_worker[0]):
        group = scratch.shape[0]
        assert scratch.dtype == np.float32
        # at most 2**20 bytes, unless one map per block is already more;
        # one more channel per group would pass 2**20, unless all 12 fit
        assert scratch.nbytes <= 2**20 or group == 1
        assert group == 12 or scratch.nbytes * (group + 1) // group > 2**20


def test_label_cost_map_with_scratch_allocates_less_than_a_map():
    # 32^3: a float32 map (128 KiB) outgrows the 64 KiB buffer numpy takes
    # for a ufunc over a strided window; the scratch groups 12 channels as
    # 8, 4
    rng = np.random.default_rng(63)
    f_fixed = make_features(rng.standard_normal((32, 32, 32, 12)))
    f_moving = make_features(rng.standard_normal((32, 32, 32, 12)))
    ds = build_displacement_set(0.5, 1.0)
    fixed32, moving32 = regcore._level_arrays(f_fixed, f_moving, ds, 1)
    out = np.empty((32, 32, 32), np.float32)
    scratch = regcore._sad_scratch(out.shape, 12)
    assert scratch.shape[0] == 8
    for d in ([0.5, -0.5, 1.0], [1.0, 0.0, -1.0]):
        blended = regcore._blend(moving32, np.array(d), np.empty(moving32.size, np.float32), scratch)
        tracemalloc.start()
        try:
            regcore._label_cost_map(fixed32, blended, np.array(d), out=out, scratch=scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes, d


def test_corner_cache_keeps_levels_of_other_pad_and_dims_apart():
    # one shift asked for in turn on four levels that differ in pad (l_max 1
    # or 2) and dims (6 x 7 x 8 or 8 x 8 x 8): a cached window keyed without
    # either would read the wrong voxels, or fail on the shape
    rng = np.random.default_rng(72)
    regcore._window.cache_clear()
    levels = []
    for shape in ((6, 7, 8), (8, 8, 8)):
        f_fixed = make_features(rng.standard_normal(shape + (3,)))
        f_moving = make_features(rng.standard_normal(shape + (3,)))
        for l_max in (1.0, 2.0):
            arrays = regcore._level_arrays(f_fixed, f_moving, build_displacement_set(0.5, l_max), 1)
            levels.append((f_fixed.data, f_moving.data, arrays))
    for d in ([1.0, -1.0, 0.0], [0.5, 0.0, 1.0], [-0.5, 0.5, -1.0], [-0.5, -0.5, -0.5]):
        for _ in range(2):
            for fixed, moving, (fixed32, moving32) in levels:
                got = kernel_cost_map(fixed32, moving32, np.array(d))
                want = channel_order_sad_oracle(fixed, moving, d)
                assert np.array_equal(got, want), (d, fixed.shape, moving32.shape)


def test_repeated_candidate_and_filter_hit_their_caches():
    rng = np.random.default_rng(73)
    f = make_features(rng.standard_normal((5, 6, 7, 2)))
    fixed32, moving32 = regcore._level_arrays(f, f, build_displacement_set(1.0, 1.0), 1)
    d = np.array([1.0, 0.0, -1.0])
    kernel_cost_map(fixed32, moving32, d)
    hits = regcore._window.cache_info().hits
    kernel_cost_map(fixed32, moving32, d)
    assert regcore._window.cache_info().hits == hits + 1
    batch = rng.uniform(0, 5, size=(2, 5, 6, 7)).astype(np.float32)
    regcore._smooth_map(batch, 1.3, one_map_scratch(batch))
    hits = regcore._filter_plan.cache_info().hits
    regcore._smooth_map(batch, 1.3, one_map_scratch(batch))
    assert regcore._filter_plan.cache_info().hits == hits + 1


# ---------------------------------------------------------------------------
# Float32 level copies and filters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q, l_max", [(1.0, 0.0), (1.0, 2.0), (0.5, 1.5), (1.0, 4.0)])
def test_level_arrays_equal_a_cast_and_np_pad(q, l_max):
    # pads of 0, 2, 2 and 4 voxels on non-cubic dims; at l_max = 4 the pad is
    # wider than the 3-voxel z axis
    rng = np.random.default_rng(67)
    f_fixed = make_features(rng.standard_normal((3, 6, 5, 4)))
    f_moving = make_features(rng.standard_normal((3, 6, 5, 4)))
    ds = build_displacement_set(q, l_max)
    fixed, moving = regcore._level_arrays(f_fixed, f_moving, ds, 1)
    pad = int(np.ceil(l_max))
    want = np.pad(f_moving.data, [(pad, pad)] * 3 + [(0, 0)], mode="edge")
    assert fixed.dtype == moving.dtype == np.float32
    assert np.array_equal(fixed, f_fixed.data)
    assert moving.shape == want.shape
    assert np.array_equal(moving.view(np.uint32), want.view(np.uint32))


def test_level_arrays_peak_is_their_two_outputs():
    # 24^3 x 12 with a 4-voxel pad: the copies take 0.6 MiB + 1.5 MiB, and the
    # padded moving copy is made once, with no second copy of the volume
    rng = np.random.default_rng(68)
    f_fixed = make_features(rng.standard_normal((24, 24, 24, 12)))
    f_moving = make_features(rng.standard_normal((24, 24, 24, 12)))
    ds = build_displacement_set(1.0, 4.0)
    plane = 12 * 32 * 32 * 4  # one edge plane of the padded copy, copied out per face
    slack = plane + (4 << 10)
    tracemalloc.start()
    try:
        fixed, moving = regcore._level_arrays(f_fixed, f_moving, ds, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= fixed.nbytes + moving.nbytes + slack, (peak, fixed.nbytes + moving.nbytes)


def filter_float32(batch, scratch_maps):
    """Box (radius 2) then Gaussian (sigma 1.3) of a float32 batch in place,
    through a float32 scratch of ``scratch_maps`` maps."""
    scratch = np.empty((scratch_maps,) + batch.shape[1:], np.float32)
    regcore._box_sum_map(batch, 2, scratch)
    return regcore._smooth_map(batch, 1.3, scratch)


@pytest.mark.parametrize("shape", [(7, 9, 11), (70, 5, 64)])  # the second is band-tiled
def test_float32_filters_give_per_map_bits_and_stay_float32(shape):
    rng = np.random.default_rng(69)
    batch = rng.uniform(0, 5, size=(4,) + shape).astype(np.float32)
    want = np.stack([filter_float32(m[None].copy(), 1)[0] for m in batch])
    assert want.dtype == np.float32
    for maps in (1, 2, 3, 4):
        out = batch.copy()
        assert filter_float32(out, maps) is out
        assert out.dtype == np.float32
        assert np.array_equal(out, want), (shape, maps)
    # through a one-map float32 scratch
    out = batch.copy()
    regcore._box_sum_map(out, 2, one_map_scratch(out))
    assert out.dtype == np.float32
    assert np.array_equal(regcore._smooth_map(out, 1.3, one_map_scratch(out)), want)


def test_float32_filters_match_the_float64_operators():
    # float32 operators and products against the float64 path on the same
    # (float32-valued) maps: every output is a non-negative weighted sum, so
    # its rounding stays within a small multiple of eps32 relative (2.2 eps32
    # on these maps); 64 eps32 is far below any real filter error
    rng = np.random.default_rng(70)
    batch = rng.uniform(0, 5, size=(3, 13, 10, 17)).astype(np.float32)
    batch[1] **= 8  # a wide dynamic range
    got = filter_float32(batch.copy(), 2)
    want = batch.astype(np.float64)
    regcore._box_sum_map(want, 2, one_map_scratch(want))
    regcore._smooth_map(want, 1.3, one_map_scratch(want))
    np.testing.assert_allclose(got, want, rtol=64 * np.finfo(np.float32).eps, atol=0)


def test_float32_filters_allocate_no_float64_map():
    # a float64 operator times a float32 map would make np.matmul compute in
    # float64 and cast back through a temporary of the product's size
    rng = np.random.default_rng(71)
    shape = (32, 32, 32)  # one float32 map is 128 KiB, a float64 one 256 KiB
    batch = rng.uniform(0, 5, size=(2,) + shape).astype(np.float32)
    scratch = np.empty((2,) + shape, np.float32)
    filter_float32(batch.copy(), 2)  # operators built and cached outside the trace
    tracemalloc.start()
    try:
        regcore._box_sum_map(batch, 2, scratch)
        regcore._smooth_map(batch, 1.3, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.dtype == np.float32
    assert peak < batch[0].nbytes, peak


def test_filter_plans_of_either_dtype_keep_cold_cache_bits():
    # a plan cached for one dtype must not serve the other: float32 Gaussian
    # weights are roundings of the float64 ones
    rng = np.random.default_rng(74)
    maps = rng.uniform(0, 5, size=(3, 9, 10, 11))

    def filtered(dtype):
        batch = maps.astype(dtype)
        regcore._box_sum_map(batch, 2, one_map_scratch(batch))
        return regcore._smooth_map(batch, 1.3, one_map_scratch(batch))

    want = {}
    for dtype in (np.float32, np.float64):
        regcore._filter_plan.cache_clear()
        want[dtype] = filtered(dtype)
    for _ in range(2):
        for dtype in (np.float32, np.float64):
            got = filtered(dtype)
            assert got.dtype == dtype
            assert np.array_equal(got, want[dtype]), dtype
