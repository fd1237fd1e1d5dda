"""Feature descriptor tests: analytic cases plus brute-force oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from voxelreg.features import (
    SIX_NEIGHBORHOOD,
    SSC_NOISE_FLOOR,
    SSC_PAIRS,
    DegenerateInputWarning,
    edge_features,
    intensity_standardize,
    normalize_intensity,
    ssc_features,
    zscore_channels,
)
from voxelreg.volume import (
    FeatureVolume,
    ScalarVolume,
    VolumeError,
    load_volume,
    save_volume,
)


def smooth_noise(rng, shape, sigma=1.5):
    from scipy import ndimage

    return ndimage.gaussian_filter(rng.standard_normal(shape), sigma).astype(np.float32)


# ---------------------------------------------------------------------------
# normalize_intensity
# ---------------------------------------------------------------------------

def test_normalize_full_range_is_linear():
    vals = np.arange(100, dtype=np.float32).reshape(4, 5, 5)
    out = normalize_intensity(ScalarVolume(vals), 0.0, 100.0)
    assert np.allclose(out.data[..., 0], vals / 99.0, atol=1e-7)


def test_normalize_constant_volume_warns_and_returns_half():
    vol = ScalarVolume(np.full((3, 3, 3), 7.0))
    with pytest.warns(DegenerateInputWarning):
        out = normalize_intensity(vol, 1.0, 99.0)
    assert np.all(out.data == 0.5)


def test_normalize_bad_percentiles_rejected():
    vol = ScalarVolume(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        normalize_intensity(vol, 50.0, 50.0)
    with pytest.raises(ValueError):
        normalize_intensity(vol, -1.0, 99.0)


def percentile_oracle(values, p):
    """Full-sort percentile with linear interpolation between order stats."""
    s = np.sort(values.reshape(-1).astype(np.float64))
    pos = (s.size - 1) * p / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(s[lo])
    return float(s[lo] + (s[hi] - s[lo]) * (pos - lo))


def test_normalize_matches_sort_based_oracle():
    rng = np.random.default_rng(21)
    data = rng.uniform(-50, 120, size=(6, 7, 8)).astype(np.float32)
    out = normalize_intensity(ScalarVolume(data), 1.0, 99.0)
    lo = percentile_oracle(data, 1.0)
    hi = percentile_oracle(data, 99.0)
    want = np.clip((data.astype(np.float64) - lo) / (hi - lo), 0.0, 1.0)
    assert np.allclose(out.data[..., 0], want, atol=1e-6)


def test_normalize_output_always_in_unit_interval():
    rng = np.random.default_rng(22)
    for _ in range(5):
        data = rng.normal(scale=rng.uniform(0.1, 100), size=(5, 5, 5)).astype(np.float32)
        out = normalize_intensity(ScalarVolume(data), 2.0, 98.0)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0


# ---------------------------------------------------------------------------
# intensity_standardize
# ---------------------------------------------------------------------------

def test_standardize_self_is_identity():
    rng = np.random.default_rng(23)
    vol = ScalarVolume(rng.uniform(0, 100, size=(6, 6, 6)).astype(np.float32))
    out = intensity_standardize(vol, vol)
    assert np.allclose(out.data, vol.data, atol=1e-5)


def test_standardize_doubled_volume_recovers_reference_deciles():
    rng = np.random.default_rng(24)
    ref_data = rng.uniform(10, 200, size=(7, 7, 7)).astype(np.float32)
    ref = ScalarVolume(ref_data)
    vol = ScalarVolume(ref_data * 2.0)
    out = intensity_standardize(vol, ref)

    thresh = percentile_oracle(out.data, 5.0)
    fg_out = out.data[out.data > thresh].astype(np.float64)
    thresh_ref = percentile_oracle(ref_data, 5.0)
    fg_ref = ref_data[ref_data > thresh_ref].astype(np.float64)
    for p in range(0, 101, 10):
        assert percentile_oracle(fg_out, p) == pytest.approx(percentile_oracle(fg_ref, p), abs=1e-4)


def test_standardize_constant_input_errors():
    ref = ScalarVolume(np.arange(27, dtype=np.float32).reshape(3, 3, 3))
    const = ScalarVolume(np.full((3, 3, 3), 5.0))
    with pytest.raises(ValueError):
        intensity_standardize(const, ref)
    with pytest.raises(ValueError):
        intensity_standardize(ref, const)


def test_standardize_output_deciles_within_two_percent_of_reference():
    rng = np.random.default_rng(25)
    ref = ScalarVolume((smooth_noise(rng, (10, 10, 10)) * 80 + 100))
    vol = ScalarVolume((smooth_noise(rng, (10, 10, 10)) * 55 + 30))
    out = intensity_standardize(vol, ref)

    def foreground_deciles(data):
        data = data.astype(np.float64)
        fg = data[data > percentile_oracle(data, 5.0)]
        return np.array([percentile_oracle(fg, p) for p in range(0, 101, 10)])

    got, want = foreground_deciles(out.data), foreground_deciles(ref.data)
    assert np.abs(got - want).max() <= 0.02 * (want[-1] - want[0])


# ---------------------------------------------------------------------------
# edge_features
# ---------------------------------------------------------------------------

def test_edge_constant_volume_is_zero():
    out = edge_features(ScalarVolume(np.full((4, 4, 4), 3.0)))
    assert np.all(out.data == 0.0)


def test_edge_ramp_has_uniform_magnitude():
    nx, ny, nz = 6, 5, 4
    ramp = np.broadcast_to(np.arange(nx, dtype=np.float32) / (nx - 1), (nz, ny, nx)).copy()
    out = edge_features(ScalarVolume(ramp))
    assert np.allclose(out.data[..., 0], 1.0 / (nx - 1), atol=1e-7)


def test_edge_rejects_tiny_volume():
    with pytest.raises(ValueError):
        edge_features(ScalarVolume(np.zeros((2, 4, 4))))


def edge_oracle(data):
    """Per-voxel central/one-sided finite differences on [0,1]-normalized data."""
    data = data.astype(np.float64)
    lo, hi = data.min(), data.max()
    if hi > lo:
        data = (data - lo) / (hi - lo)
    nz, ny, nx = data.shape
    out = np.zeros((nz, ny, nx))
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if 0 < x < nx - 1:
                    gx = (data[z, y, x + 1] - data[z, y, x - 1]) / 2.0
                elif x == 0:
                    gx = data[z, y, 1] - data[z, y, 0]
                else:
                    gx = data[z, y, nx - 1] - data[z, y, nx - 2]
                if 0 < y < ny - 1:
                    gy = (data[z, y + 1, x] - data[z, y - 1, x]) / 2.0
                elif y == 0:
                    gy = data[z, 1, x] - data[z, 0, x]
                else:
                    gy = data[z, ny - 1, x] - data[z, ny - 2, x]
                if 0 < z < nz - 1:
                    gz = (data[z + 1, y, x] - data[z - 1, y, x]) / 2.0
                elif z == 0:
                    gz = data[1, y, x] - data[0, y, x]
                else:
                    gz = data[nz - 1, y, x] - data[nz - 2, y, x]
                out[z, y, x] = math.sqrt(gx * gx + gy * gy + gz * gz)
    return out


def test_edge_matches_finite_difference_oracle():
    rng = np.random.default_rng(26)
    data = rng.uniform(0, 10, size=(4, 5, 6)).astype(np.float32)
    out = edge_features(ScalarVolume(data))
    want = edge_oracle(data)
    assert np.array_equal(out.data[..., 0], want.astype(np.float32))


# ---------------------------------------------------------------------------
# ssc_features
# ---------------------------------------------------------------------------

def test_ssc_pair_table_shape():
    assert len(SIX_NEIGHBORHOOD) == 6
    assert len(SSC_PAIRS) == 12
    for i, j in SSC_PAIRS:
        d2 = sum((a - b) ** 2 for a, b in zip(SIX_NEIGHBORHOOD[i], SIX_NEIGHBORHOOD[j]))
        assert d2 == 2


def test_ssc_constant_volume_is_all_ones():
    out = ssc_features(ScalarVolume(np.full((5, 5, 5), 4.0)))
    assert out.channels == 12
    assert np.all(out.data == 1.0)


def test_ssc_range_is_zero_one():
    rng = np.random.default_rng(27)
    out = ssc_features(ScalarVolume(smooth_noise(rng, (6, 6, 6))))
    assert out.data.min() > 0.0
    assert out.data.max() <= 1.0


def test_ssc_rejects_tiny_volume():
    with pytest.raises(ValueError):
        ssc_features(ScalarVolume(np.zeros((4, 5, 5))))


def test_ssc_affine_intensity_invariance():
    rng = np.random.default_rng(28)
    vol = smooth_noise(rng, (7, 7, 7))
    base = ssc_features(ScalarVolume(vol)).data
    for a, b in [(2.0, 0.0), (0.5, 3.0), (3.7, -11.0)]:
        other = ssc_features(ScalarVolume(a * vol + b)).data
        assert np.abs(other - base).max() < 1e-5


def ssc_oracle(data, patch_radius=1, noise_floor=1e-6):
    """Quadruple-loop descriptor: voxels x pairs x patch offsets, clamped."""
    data = data.astype(np.float64)
    nz, ny, nx = data.shape

    def at(z, y, x):
        return data[min(max(z, 0), nz - 1), min(max(y, 0), ny - 1), min(max(x, 0), nx - 1)]

    def shifted(z, y, x, off):
        # sampling replicates edges at the shift stage and the patch stage
        zc = min(max(z, 0), nz - 1)
        yc = min(max(y, 0), ny - 1)
        xc = min(max(x, 0), nx - 1)
        return at(zc + off[0], yc + off[1], xc + off[2])

    out = np.zeros((nz, ny, nx, 12))
    r = patch_radius
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                dists = []
                for (i, j) in SSC_PAIRS:
                    oi, oj = SIX_NEIGHBORHOOD[i], SIX_NEIGHBORHOOD[j]
                    ssd = 0.0
                    for pz in range(-r, r + 1):
                        for py in range(-r, r + 1):
                            for px in range(-r, r + 1):
                                a = shifted(z + pz, y + py, x + px, oi)
                                b = shifted(z + pz, y + py, x + px, oj)
                                ssd += (a - b) ** 2
                    dists.append(ssd)
                m = max(sum(dists) / 12.0, noise_floor)
                for k, d in enumerate(dists):
                    out[z, y, x, k] = math.exp(-d / m)
    return out


def test_ssc_single_bright_voxel_matches_bruteforce():
    data = np.zeros((5, 5, 5), dtype=np.float32)
    data[2, 2, 2] = 1.0
    got = ssc_features(ScalarVolume(data)).data
    want = ssc_oracle(data)
    neighbors = [(2 + o[0], 2 + o[1], 2 + o[2]) for o in SIX_NEIGHBORHOOD]
    for z, y, x in neighbors:
        assert np.allclose(got[z, y, x], want[z, y, x], atol=1e-6)


def test_ssc_random_volume_matches_bruteforce():
    rng = np.random.default_rng(29)
    data = rng.uniform(0, 1, size=(5, 6, 5)).astype(np.float32)
    got = ssc_features(ScalarVolume(data)).data
    want = ssc_oracle(data)
    assert np.allclose(got, want, atol=1e-6)


def ssc_whole_array(data):
    """The descriptor computed on all 12 channels at once: one 4-D patch
    filter, the channel mean and one exp over the (12, z, y, x) stack."""
    from scipy import ndimage

    padded = np.pad(data.astype(np.float64), 1, mode="edge")
    nz, ny, nx = data.shape
    shifted = [
        padded[1 + dz : 1 + dz + nz, 1 + dy : 1 + dy + ny, 1 + dx : 1 + dx + nx]
        for dz, dy, dx in SIX_NEIGHBORHOOD
    ]
    dists = np.stack([(shifted[i] - shifted[j]) ** 2 for i, j in SSC_PAIRS])
    ndimage.uniform_filter(dists, size=(1, 3, 3, 3), mode="nearest", output=dists)
    dists *= 27.0
    mean_dist = np.maximum(dists.mean(axis=0), SSC_NOISE_FLOOR)
    return np.moveaxis(np.exp(-dists / mean_dist), 0, -1).astype(np.float32)


@pytest.mark.parametrize("shape", [(5, 6, 5), (9, 12, 7), (18, 20, 17)])
def test_ssc_per_channel_equals_whole_array_bit_for_bit(shape):
    rng = np.random.default_rng(31)
    for data in (smooth_noise(rng, shape), rng.uniform(0, 1, size=shape).astype(np.float32)):
        got = ssc_features(ScalarVolume(data)).data
        assert np.array_equal(got.view(np.uint32), ssc_whole_array(data).view(np.uint32))


def test_ssc_peak_memory_is_four_outputs():
    # channel by channel, ssc holds its float64 patch distances (twice the
    # float32 output), the output, and the float64 channel mean and padded
    # input (a sixth of it each, near enough)
    rng = np.random.default_rng(32)
    vol = ScalarVolume(smooth_noise(rng, (36, 38, 35)))
    tracemalloc.start()
    try:
        out = ssc_features(vol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * out.data.nbytes, peak / out.data.nbytes


# ---------------------------------------------------------------------------
# external features: load_volume(..., kind="feature")
# ---------------------------------------------------------------------------

def test_external_single_channel_equals_normalized_intensity(tmp_path):
    rng = np.random.default_rng(30)
    vol = ScalarVolume(rng.uniform(0, 50, size=(4, 4, 4)).astype(np.float32))
    fv = normalize_intensity(vol, 1.0, 99.0)
    stem = tmp_path / "feat"
    save_volume(fv, stem)
    back = load_volume(stem, kind="feature")
    assert isinstance(back, FeatureVolume)
    assert np.array_equal(back.data, fv.data)


def test_external_many_channels_preserved(tmp_path):
    rng = np.random.default_rng(31)
    logits = rng.uniform(0, 1, size=(3, 3, 3, 135))
    softmax = (logits / logits.sum(axis=-1, keepdims=True)).astype(np.float32)
    fv = FeatureVolume(softmax)
    stem = tmp_path / "softmax"
    save_volume(fv, stem)
    back = load_volume(stem, kind="feature")
    assert back.channels == 135
    assert np.allclose(back.data.sum(axis=-1), 1.0, atol=1e-5)


def test_external_nan_payload_rejected(tmp_path):
    import json

    stem = tmp_path / "bad"
    stem.with_suffix(".json").write_text(
        json.dumps({"dims": [2, 1, 1], "spacing": [1, 1, 1], "channels": 2, "dtype": "float32"})
    )
    np.array([0.0, 1.0, np.nan, 2.0], dtype="<f4").tofile(stem.with_suffix(".raw"))
    with pytest.raises(VolumeError):
        load_volume(stem, kind="feature")


def test_zscore_channels():
    rng = np.random.default_rng(32)
    data = np.stack(
        [
            rng.normal(5.0, 3.0, size=(4, 4, 4)),
            np.full((4, 4, 4), 2.0),  # zero-variance channel: centered only
        ],
        axis=-1,
    ).astype(np.float32)
    fv = FeatureVolume(data)
    out = zscore_channels(fv)
    flat = out.data.reshape(-1, 2)
    assert abs(flat[:, 0].mean()) < 1e-5
    assert abs(flat[:, 0].std() - 1.0) < 1e-4
    assert np.all(flat[:, 1] == 0.0)
