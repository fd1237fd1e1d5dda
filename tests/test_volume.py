"""Volume container, I/O and warping tests against naive loop oracles."""

import dataclasses
import json
import math

import numpy as np
import pytest

from voxelreg.volume import (
    DTYPES,
    DisplacementField,
    FeatureVolume,
    LabelVolume,
    NonFiniteDataError,
    PayloadSizeError,
    ScalarVolume,
    SidecarError,
    VolumeError,
    VolumeHeader,
    downsample,
    downsample_features,
    downsampled_dims,
    load_field,
    load_volume,
    save_volume,
    upsample_field,
    warp_features,
    warp_labels,
    warp_scalar,
    zero_field,
)


def make_scalar(data, spacing=(1.0, 1.0, 1.0)):
    data = np.asarray(data, dtype=np.float32)
    nz, ny, nx = data.shape
    return ScalarVolume(VolumeHeader((nx, ny, nz), spacing), data)


def make_field(data):
    data = np.asarray(data, dtype=np.float32)
    nz, ny, nx = data.shape[:3]
    return DisplacementField(VolumeHeader((nx, ny, nz), channels=3), data)


def make_labels(data, dtype="int32"):
    data = np.asarray(data, dtype=np.int32)
    nz, ny, nx = data.shape
    return LabelVolume(VolumeHeader((nx, ny, nz), dtype=dtype), data)


def smooth_noise(rng, shape, sigma=2.0):
    from scipy import ndimage

    return ndimage.gaussian_filter(rng.standard_normal(shape), sigma).astype(np.float32)


# ---------------------------------------------------------------------------
# Header and construction invariants
# ---------------------------------------------------------------------------

def test_header_rejects_bad_fields():
    with pytest.raises(ValueError):
        VolumeHeader((0, 2, 2))
    with pytest.raises(ValueError):
        VolumeHeader((2, 2, 2), spacing=(1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        VolumeHeader((2, 2, 2), channels=0)
    with pytest.raises(ValueError):
        VolumeHeader((2, 2, 2), dtype="float64")


def test_header_counts_must_be_integers():
    h = VolumeHeader((np.int64(2), 1, 1), channels=np.int32(3))
    assert json.loads(json.dumps(h.to_dict()))["dims"] == [2, 1, 1] and h.channels == 3
    for dims, channels in (((2.9, 1, 1), 1), ((2, 1, 1), 1.7), ((2, 1, 1), True), ((True, 1, 1), 1)):
        with pytest.raises(ValueError, match="dims and channels must be integers"):
            VolumeHeader(dims, channels=channels)


@pytest.mark.parametrize("cls, channels", [(ScalarVolume, 1), (FeatureVolume, 2), (DisplacementField, 3)])
def test_float_volumes_reject_integer_header_dtype(cls, channels):
    # an integer header dtype would make save_volume truncate the float payload
    header = VolumeHeader((2, 1, 1), channels=channels, dtype="uint8")
    data = np.full(header.shape_zyx + ((channels,) if channels > 1 else ()), 0.7)
    with pytest.raises(ValueError, match=f"{cls.__name__} requires dtype float32, got uint8"):
        cls(header, data)


def test_header_roundtrips_via_dict():
    h = VolumeHeader((4, 5, 6), spacing=(0.7, 1.25, 3.0), channels=12, dtype="float32")
    assert VolumeHeader.from_dict(h.to_dict()) == h


def test_scalar_volume_rejects_nan():
    data = np.zeros((2, 2, 2), dtype=np.float32)
    data[0, 0, 0] = np.nan
    with pytest.raises(NonFiniteDataError):
        ScalarVolume(VolumeHeader((2, 2, 2)), data)


def test_volume_data_is_readonly():
    vol = make_scalar(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        vol.data[0, 0, 0] = 1.0


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def test_load_zero_volume(tmp_path):
    stem = tmp_path / "zeros"
    (stem.with_suffix(".json")).write_text(
        json.dumps({"dims": [2, 2, 2], "spacing": [1, 1, 1], "channels": 1, "dtype": "float32"})
    )
    np.zeros(8, dtype="<f4").tofile(stem.with_suffix(".raw"))
    vol = load_volume(stem)
    assert isinstance(vol, ScalarVolume)
    assert vol.data.shape == (2, 2, 2)
    assert np.all(vol.data == 0.0)


def test_length_mismatch_is_reported(tmp_path):
    stem = tmp_path / "short"
    (stem.with_suffix(".json")).write_text(
        json.dumps({"dims": [4, 4, 4], "spacing": [1, 1, 1], "channels": 1, "dtype": "float32"})
    )
    np.zeros(63, dtype="<f4").tofile(stem.with_suffix(".raw"))
    with pytest.raises(PayloadSizeError):
        load_volume(stem)


def test_missing_and_garbled_sidecar(tmp_path):
    with pytest.raises(SidecarError):
        load_volume(tmp_path / "nothing.raw")
    stem = tmp_path / "bad"
    stem.with_suffix(".json").write_text("{not json")
    np.zeros(1, dtype="<f4").tofile(stem.with_suffix(".raw"))
    with pytest.raises(SidecarError):
        load_volume(stem)
    stem.with_suffix(".json").write_text(json.dumps({"dims": [0, 1, 1], "dtype": "float32"}))
    with pytest.raises(SidecarError, match="bad.json"):
        load_volume(stem)


@pytest.mark.parametrize(
    "counts", [{"channels": 1.7}, {"channels": True}, {"dims": [2.9, 1, 1]}, {"dims": [2, 1, 1.0]}]
)
def test_sidecar_non_integer_counts_are_sidecar_errors(tmp_path, counts):
    stem = tmp_path / "counts"
    stem.with_suffix(".json").write_text(json.dumps({"dims": [2, 1, 1], "dtype": "float32", **counts}))
    np.zeros(2, dtype="<f4").tofile(stem.with_suffix(".raw"))
    with pytest.raises(SidecarError, match="counts.json.*must be integers"):
        load_volume(stem)


@pytest.mark.parametrize(
    "spacing",
    [["2", True, 1], [True, 1, 1], [1, float("nan"), 1], [1, 1, float("inf")], [1, 1], [1, -2, 1]],
)
def test_sidecar_bad_spacing_is_sidecar_error(tmp_path, spacing):
    stem = tmp_path / "spacing"
    stem.with_suffix(".json").write_text(
        json.dumps({"dims": [2, 1, 1], "spacing": spacing, "dtype": "float32"})
    )
    np.zeros(2, dtype="<f4").tofile(stem.with_suffix(".raw"))
    with pytest.raises(SidecarError, match="spacing.json.*spacing must be three finite positive reals"):
        load_volume(stem)


def test_nan_payload_is_reported(tmp_path):
    stem = tmp_path / "nan"
    stem.with_suffix(".json").write_text(
        json.dumps({"dims": [2, 1, 1], "spacing": [1, 1, 1], "channels": 1, "dtype": "float32"})
    )
    np.array([0.0, np.nan], dtype="<f4").tofile(stem.with_suffix(".raw"))
    with pytest.raises(NonFiniteDataError, match="nan.raw"):
        load_volume(stem)


@pytest.mark.parametrize(
    "values, channels, dtype, load",
    [
        ([0, 1, 2, 3, 4, 5], 3, "float32", lambda stem: load_volume(stem, kind="scalar")),
        ([0, 1], 1, "float32", lambda stem: load_volume(stem, kind="label")),
        ([0, 1], 1, "float32", load_field),
        ([-1, 1], 1, "int32", load_volume),
    ],
    ids=["scalar_of_3_channels", "label_of_float32", "field_of_1_channel", "negative_label"],
)
def test_load_mismatch_is_volume_error_naming_payload(tmp_path, values, channels, dtype, load):
    stem = tmp_path / "vol"
    stem.with_suffix(".json").write_text(
        json.dumps({"dims": [2, 1, 1], "channels": channels, "dtype": dtype})
    )
    np.asarray(values, dtype=DTYPES[dtype]).tofile(stem.with_suffix(".raw"))
    with pytest.raises(VolumeError) as excinfo:
        load(stem)
    assert excinfo.type is VolumeError
    assert str(stem.with_suffix(".raw")) in str(excinfo.value)


def test_containers_are_frozen():
    containers = [
        make_scalar(np.zeros((1, 1, 2))),
        FeatureVolume(VolumeHeader((2, 1, 1), channels=2), np.zeros((1, 1, 2, 2))),
        make_labels(np.zeros((1, 1, 2))),
        make_field(np.zeros((1, 1, 2, 3))),
    ]
    for vol in containers:
        for name in ("header", "data", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(vol, name, None)


def test_uint16_labels_roundtrip(tmp_path):
    # write-then-read oracle: the label set written is the label set read
    rng = np.random.default_rng(7)
    raw = rng.integers(0, 3, size=(3, 3, 3)).astype(np.int32)
    vol = make_labels(raw, dtype="uint16")
    stem = tmp_path / "labels"
    save_volume(vol, stem)
    back = load_volume(stem)
    assert isinstance(back, LabelVolume)
    assert back.header == vol.header
    assert np.array_equal(back.data, raw)
    assert set(np.unique(back.data)) == set(np.unique(raw))


def test_scalar_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    vol = make_scalar(rng.standard_normal((5, 5, 5)).astype(np.float32), spacing=(0.5, 2.0, 1.5))
    stem = tmp_path / "vol"
    save_volume(vol, stem)
    back = load_volume(stem)
    assert isinstance(back, ScalarVolume)
    assert back.header == vol.header
    assert np.array_equal(back.data.view(np.uint32), vol.data.view(np.uint32))


def test_feature_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    data = rng.standard_normal((4, 3, 2, 12)).astype(np.float32)
    vol = FeatureVolume(VolumeHeader((2, 3, 4), channels=12), data)
    stem = tmp_path / "feat"
    save_volume(vol, stem)
    back = load_volume(stem)
    assert isinstance(back, FeatureVolume)
    assert back.header == vol.header
    assert np.array_equal(back.data.view(np.uint32), vol.data.view(np.uint32))


def test_field_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    field = make_field(rng.uniform(-2, 2, size=(3, 4, 5, 3)).astype(np.float32))
    stem = tmp_path / "field"
    save_volume(field, stem)
    back = load_field(stem)
    assert np.array_equal(back.data, field.data)


def test_save_to_unwritable_path_errors(tmp_path):
    vol = make_scalar(np.zeros((2, 2, 2)))
    with pytest.raises(VolumeError):
        save_volume(vol, tmp_path / "missing-dir" / "x")


def test_file_element_order_is_x_fastest_channels_inner(tmp_path):
    # 2x1x1 voxels, 2 channels: file order must be v000c0 v000c1 v100c0 v100c1
    data = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)  # (z=1,y=1,x=2,c=2)
    vol = FeatureVolume(VolumeHeader((2, 1, 1), channels=2), data)
    stem = tmp_path / "order"
    save_volume(vol, stem)
    flat = np.fromfile(stem.with_suffix(".raw"), dtype="<f4")
    assert flat.tolist() == [1.0, 2.0, 3.0, 4.0]


# ---------------------------------------------------------------------------
# Trilinear sampling and warping
# ---------------------------------------------------------------------------

def trilinear_oracle(data, x, y, z):
    """Scalar trilinear interpolation with clamped corner lookups."""
    nz, ny, nx = data.shape

    def at(zi, yi, xi):
        return float(data[min(max(zi, 0), nz - 1), min(max(yi, 0), ny - 1), min(max(xi, 0), nx - 1)])

    x0, y0, z0 = math.floor(x), math.floor(y), math.floor(z)
    fx, fy, fz = x - x0, y - y0, z - z0
    val = 0.0
    for dz in (0, 1):
        for dy in (0, 1):
            for dx in (0, 1):
                w = (fx if dx else 1 - fx) * (fy if dy else 1 - fy) * (fz if dz else 1 - fz)
                val += w * at(z0 + dz, y0 + dy, x0 + dx)
    return val


def test_warp_scalar_zero_field_is_identity():
    rng = np.random.default_rng(6)
    vol = make_scalar(rng.standard_normal((4, 5, 6)).astype(np.float32))
    out = warp_scalar(vol, zero_field(vol.dims))
    assert np.array_equal(out.data, vol.data)


def test_warp_scalar_constant_shift_of_ramp():
    # value x + 10y + 100z is linear, so trilinear sampling at p is exact:
    # a half-voxel shift gives midpoint averages, and -5 / +9 clamp every
    # axis to the first / last voxel
    nx, ny, nz = 5, 4, 3
    zz, yy, xx = np.indices((nz, ny, nx), dtype=np.float32)
    vol = make_scalar(xx + 10 * yy + 100 * zz)
    for s in (1.0, 0.5, -5.0, 9.0):
        field = make_field(np.full((nz, ny, nx, 3), s, np.float32))
        out = warp_scalar(vol, field)
        expected = (
            np.clip(xx + s, 0, nx - 1) + 10 * np.clip(yy + s, 0, ny - 1) + 100 * np.clip(zz + s, 0, nz - 1)
        )
        assert np.array_equal(out.data, expected), s


def test_warp_scalar_matches_loop_oracle():
    rng = np.random.default_rng(7)
    vol = make_scalar(smooth_noise(rng, (6, 7, 8)))
    smooth = smooth_noise(rng, (6, 7, 8, 3)) * 2.0
    # the second field reaches up to 5 voxels past every face
    wild = rng.uniform(-5, 5, size=(6, 7, 8, 3)).astype(np.float32)
    for field in (make_field(smooth), make_field(wild)):
        out = warp_scalar(vol, field)
        for z in range(6):
            for y in range(7):
                for x in range(8):
                    ux, uy, uz = (float(v) for v in field.data[z, y, x])
                    want = trilinear_oracle(vol.data, x + ux, y + uy, z + uz)
                    assert out.data[z, y, x] == pytest.approx(want, abs=1e-5)


def test_warp_scalar_rejects_dim_mismatch():
    vol = make_scalar(np.zeros((3, 3, 3)))
    with pytest.raises(ValueError):
        warp_scalar(vol, zero_field((4, 4, 4)))


@pytest.mark.parametrize("channels", [1, 3, 12])
def test_warp_features_equals_per_channel_warp_scalar(channels):
    rng = np.random.default_rng(14)
    data = rng.standard_normal((5, 6, 7, channels)).astype(np.float32)
    fv = FeatureVolume(VolumeHeader((7, 6, 5), (1.0, 2.0, 0.5), channels=channels), data)
    field = make_field(rng.uniform(-8, 8, size=(5, 6, 7, 3)))
    out = warp_features(fv, field)
    assert isinstance(out, FeatureVolume) and out.header == fv.header
    for c in range(channels):
        want = warp_scalar(make_scalar(data[..., c], spacing=(1.0, 2.0, 0.5)), field)
        assert np.array_equal(out.data[..., c], want.data), c


def test_warp_features_rejects_dim_mismatch():
    fv = FeatureVolume(VolumeHeader((3, 3, 3), channels=2), np.zeros((3, 3, 3, 2)))
    with pytest.raises(ValueError):
        warp_features(fv, zero_field((3, 3, 4)))


def test_warp_labels_zero_field_is_identity():
    rng = np.random.default_rng(8)
    labels = make_labels(rng.integers(0, 4, size=(4, 4, 4)))
    out = warp_labels(labels, zero_field(labels.dims))
    assert np.array_equal(out.data, labels.data)


def test_warp_labels_constant_integer_shift():
    labels = make_labels(np.arange(5).reshape(1, 1, 5))
    field = make_field(np.broadcast_to(np.array([2.0, 0, 0], np.float32), (1, 1, 5, 3)).copy())
    out = warp_labels(labels, field)
    assert out.data.reshape(-1).tolist() == [2, 3, 4, 4, 4]


def test_warp_labels_matches_nearest_neighbor_oracle():
    rng = np.random.default_rng(9)
    labels = make_labels(rng.integers(0, 5, size=(5, 6, 7)))
    field = make_field(smooth_noise(rng, (5, 6, 7, 3)) * 3.0)
    out = warp_labels(labels, field)
    nz, ny, nx = labels.data.shape
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                ux, uy, uz = (float(v) for v in field.data[z, y, x])
                xi = min(max(int(math.floor(x + ux + 0.5)), 0), nx - 1)
                yi = min(max(int(math.floor(y + uy + 0.5)), 0), ny - 1)
                zi = min(max(int(math.floor(z + uz + 0.5)), 0), nz - 1)
                assert out.data[z, y, x] == labels.data[zi, yi, xi]


def test_warp_labels_never_invents_labels():
    rng = np.random.default_rng(10)
    labels = make_labels(rng.integers(0, 6, size=(6, 6, 6)))
    field = make_field(rng.uniform(-3, 3, size=(6, 6, 6, 3)).astype(np.float32))
    out = warp_labels(labels, field)
    assert set(np.unique(out.data)) <= set(np.unique(labels.data))


# ---------------------------------------------------------------------------
# Down/upsampling
# ---------------------------------------------------------------------------

def test_downsample_factor_one_is_identity():
    rng = np.random.default_rng(11)
    vol = make_scalar(rng.standard_normal((5, 5, 5)).astype(np.float32))
    assert downsample(vol, 1) is vol


@pytest.mark.parametrize("factor", [2, 3, 4])
def test_downsample_grid_is_the_level_grid(factor):
    # register() upsamples each level's field onto the next level's grid, so
    # the grid downsample makes must be the one downsampled_dims names
    dims = (7, 9, 11)
    vol = make_scalar(np.zeros(dims[::-1], dtype=np.float32))
    assert downsample(vol, factor).dims == downsampled_dims(dims, factor)
    assert downsampled_dims(dims, factor) == tuple(math.ceil(d / factor) for d in dims)


def test_downsample_constant_preserves_value_and_halves_dims():
    vol = make_scalar(np.full((6, 5, 4), 3.25, dtype=np.float32))
    out = downsample(vol, 2)
    assert out.dims == (2, 3, 3)
    assert out.header.spacing == (2.0, 2.0, 2.0)
    assert np.allclose(out.data, 3.25, atol=1e-6)


@pytest.mark.parametrize("factor", [1, 2, 3])
def test_downsample_features_equals_per_channel_downsample(factor):
    rng = np.random.default_rng(12)
    data = rng.standard_normal((7, 9, 11, 3)).astype(np.float32)
    fv = FeatureVolume(VolumeHeader((11, 9, 7), (1.0, 2.0, 0.5), channels=3), data)
    out = downsample_features(fv, factor)
    for c in range(3):
        want = downsample(make_scalar(data[..., c], spacing=(1.0, 2.0, 0.5)), factor)
        assert np.array_equal(out.data[..., c], want.data), c
    assert out.dims == want.dims
    assert out.header.spacing == want.header.spacing


def gaussian_kernel_1d(sigma):
    radius = int(4.0 * sigma + 0.5)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * xs * xs / (sigma * sigma))
    return k / k.sum()


def convolve_1d_replicate(arr, kernel, axis):
    """Direct 1-D convolution with edge replication, naive loops."""
    out = np.zeros_like(arr, dtype=np.float64)
    radius = (len(kernel) - 1) // 2
    n = arr.shape[axis]
    moved = np.moveaxis(arr, axis, 0)
    res = np.moveaxis(out, axis, 0)
    for i in range(n):
        acc = np.zeros(moved.shape[1:], dtype=np.float64)
        for k, w in enumerate(kernel):
            j = min(max(i + k - radius, 0), n - 1)
            acc += w * moved[j]
        res[i] = acc
    return out


def test_downsample_ramp_matches_separable_oracle():
    nx, ny, nz = 9, 7, 6
    ramp = np.broadcast_to(np.arange(nx, dtype=np.float64), (nz, ny, nx)).copy()
    vol = make_scalar(ramp.astype(np.float32))
    out = downsample(vol, 2)

    kernel = gaussian_kernel_1d(1.0)
    ref = ramp.copy()
    for axis in (0, 1, 2):
        ref = convolve_1d_replicate(ref, kernel, axis)
    ref = ref[::2, ::2, ::2]
    assert np.allclose(out.data, ref, atol=1e-5)


def test_upsample_field_zero_stays_zero():
    out = upsample_field(zero_field((3, 3, 3)), 2, (6, 6, 6))
    assert out.dims == (6, 6, 6)
    assert np.all(out.data == 0.0)


def test_upsample_field_rescales_constant():
    nz = ny = nx = 3
    field = make_field(np.broadcast_to(np.array([1.0, 1.0, 1.0], np.float32), (nz, ny, nx, 3)).copy())
    out = upsample_field(field, 2, (6, 6, 6))
    assert np.allclose(out.data, 2.0)


def test_upsample_field_matches_trilinear_oracle():
    rng = np.random.default_rng(12)
    field = make_field(rng.uniform(-2, 2, size=(3, 4, 5, 3)).astype(np.float32))
    target = (10, 8, 6)
    out = upsample_field(field, 2, target)
    for z in range(target[2]):
        for y in range(target[1]):
            for x in range(target[0]):
                for c in range(3):
                    want = 2.0 * trilinear_oracle(field.data[..., c], x / 2.0, y / 2.0, z / 2.0)
                    assert out.data[z, y, x, c] == pytest.approx(want, abs=1e-5)


def test_roundtrip_property_random_volumes(tmp_path):
    rng = np.random.default_rng(13)
    for trial in range(5):
        dims = tuple(int(d) for d in rng.integers(1, 7, size=3))
        data = rng.standard_normal((dims[2], dims[1], dims[0])).astype(np.float32)
        vol = ScalarVolume(VolumeHeader(dims), data)
        stem = tmp_path / f"t{trial}"
        save_volume(vol, stem)
        back = load_volume(stem)
        assert np.array_equal(back.data, vol.data)
        assert back.header == vol.header
