"""Volume container, I/O and warping tests against naive loop oracles."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from voxelreg import volume
from voxelreg.regcore import DisplacementSet
from voxelreg.volume import (
    DTYPES,
    DisplacementField,
    FeatureVolume,
    LabelVolume,
    ScalarVolume,
    VolumeError,
    VolumeHeader,
    downsample,
    downsampled_dims,
    load_volume,
    save_volume,
    upsample_field,
    warp_labels,
    warp_scalar,
    zero_field,
)


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


@pytest.mark.parametrize(
    "cls, data, spacing",
    [
        (ScalarVolume, np.zeros((2, 1, 1), np.uint8), (1.0, 2.0, 0.5)),
        (FeatureVolume, np.full((1, 2, 3, 5), 0.7), (1.0, 1.0, 1.0)),
        (DisplacementField, np.zeros((3, 1, 2, 3), np.float64), (2.0, 2.0, 2.0)),
    ],
)
def test_float_volume_header_is_read_off_its_array(cls, data, spacing):
    # the saved dtype is float32 whatever the array's, so a float payload
    # is never written as integers
    vol = cls(data, spacing)
    channels = data.shape[3] if data.ndim == 4 else 1
    assert vol.header == VolumeHeader(data.shape[2::-1], spacing, channels, "float32")
    assert vol.data.dtype == np.float32 and vol.dims == data.shape[2::-1]
    assert vol.spacing == spacing


def test_label_volume_header_takes_its_save_dtype():
    vol = LabelVolume(np.zeros((2, 3, 4), np.uint8), (0.5, 1.0, 2.0), "uint16")
    assert vol.header == VolumeHeader((4, 3, 2), (0.5, 1.0, 2.0), 1, "uint16")
    assert vol.data.dtype == np.int32
    assert LabelVolume(np.zeros((1, 1, 1), np.int64)).header.dtype == "int32"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ScalarVolume(np.zeros((1, 2, 2, 3))), "ScalarVolume requires channels == 1"),
        (lambda: ScalarVolume(np.zeros((2, 2))), r"ScalarVolume data must be 3-D, got shape \(2, 2\)"),
        (lambda: LabelVolume(np.zeros((2, 2, 2, 1), np.int32)), "LabelVolume data must be 3-D"),
        (lambda: FeatureVolume(np.zeros((2, 2, 2))), "FeatureVolume data must be 4-D"),
        (lambda: DisplacementField(np.zeros((2, 2, 2, 2))), "DisplacementField requires channels == 3"),
        (lambda: FeatureVolume(np.zeros((2, 2, 2, 0))), "channels must be >= 1"),
        (lambda: ScalarVolume(np.zeros((0, 2, 2))), "dims must be three positive integers"),
        (lambda: ScalarVolume(np.zeros((2, 2, 2)), (1.0, -1.0, 1.0)), "spacing must be three finite"),
        (lambda: LabelVolume(np.zeros((2, 2, 2), np.int32), dtype="float32"),
         "LabelVolume requires an integer dtype, got float32"),
        (lambda: LabelVolume(np.zeros((2, 2, 2))), "label data must be integer"),
        (lambda: LabelVolume(np.full((2, 2, 2), -1)), "labels must be non-negative"),
        (lambda: zero_field((2.5, 2, 2)), "dims and channels must be integers"),
        (lambda: zero_field((2, 2)), "dims must be three positive integers"),
    ],
    ids=["scalar_channels", "scalar_rank", "label_rank", "feature_rank", "field_channels",
         "no_channels", "empty_axis", "bad_spacing", "label_float_dtype", "label_float_data",
         "negative_label", "zero_field_float_dims", "zero_field_two_dims"],
)
def test_bad_array_or_spacing_is_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_header_roundtrips_via_dict():
    h = VolumeHeader((4, 5, 6), spacing=(0.7, 1.25, 3.0), channels=12, dtype="float32")
    assert VolumeHeader.from_dict(h.to_dict()) == h


def test_scalar_volume_rejects_nan():
    data = np.zeros((2, 2, 2), dtype=np.float32)
    data[0, 0, 0] = np.nan
    with pytest.raises(VolumeError):
        ScalarVolume(data)


def test_volume_data_is_readonly():
    vol = ScalarVolume(np.zeros((2, 2, 2)))
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
    with pytest.raises(VolumeError):
        load_volume(stem)


def test_trailing_payload_bytes_are_refused(tmp_path):
    # eight values and 2 stray bytes: the header implies exactly 32 bytes
    stem = tmp_path / "long"
    save_volume(ScalarVolume(np.zeros((2, 2, 2))), stem)
    with open(stem.with_suffix(".raw"), "ab") as fh:
        fh.write(b"\0\0")
    with pytest.raises(VolumeError, match=r"long\.raw: payload has 34 bytes, header implies 32"):
        load_volume(stem)


def test_volume_error_is_a_value_error():
    assert issubclass(VolumeError, ValueError)


def test_missing_and_garbled_sidecar(tmp_path):
    with pytest.raises(VolumeError):
        load_volume(tmp_path / "nothing.raw")
    stem = tmp_path / "bad"
    stem.with_suffix(".json").write_text("{not json")
    np.zeros(1, dtype="<f4").tofile(stem.with_suffix(".raw"))
    with pytest.raises(VolumeError):
        load_volume(stem)
    stem.with_suffix(".json").write_text(json.dumps({"dims": [0, 1, 1], "dtype": "float32"}))
    with pytest.raises(VolumeError, match="bad.json"):
        load_volume(stem)
    stem.with_suffix(".json").write_bytes(b"\xff{}")
    with pytest.raises(VolumeError) as excinfo:
        load_volume(stem)
    assert str(excinfo.value).startswith(f"cannot parse sidecar {stem.with_suffix('.json')}: 'utf-8' codec")


@pytest.mark.parametrize(
    "counts", [{"channels": 1.7}, {"channels": True}, {"dims": [2.9, 1, 1]}, {"dims": [2, 1, 1.0]}]
)
def test_sidecar_non_integer_counts_are_sidecar_errors(tmp_path, counts):
    stem = tmp_path / "counts"
    stem.with_suffix(".json").write_text(json.dumps({"dims": [2, 1, 1], "dtype": "float32", **counts}))
    np.zeros(2, dtype="<f4").tofile(stem.with_suffix(".raw"))
    with pytest.raises(VolumeError, match="counts.json.*must be integers"):
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
    with pytest.raises(VolumeError, match="spacing.json.*spacing must be three finite positive reals"):
        load_volume(stem)


def test_missing_payload_and_unknown_kind_are_named(tmp_path):
    stem = tmp_path / "vol"
    save_volume(ScalarVolume(np.zeros((2, 2, 2))), stem)
    with pytest.raises(ValueError, match=r"vol\.raw: unknown kind 'bogus', expected one of"):
        load_volume(stem, kind="bogus")
    stem.with_suffix(".raw").unlink()
    with pytest.raises(VolumeError, match=r"missing payload .*vol\.raw"):
        load_volume(stem)


def test_nan_payload_is_reported(tmp_path):
    stem = tmp_path / "nan"
    stem.with_suffix(".json").write_text(
        json.dumps({"dims": [2, 1, 1], "spacing": [1, 1, 1], "channels": 1, "dtype": "float32"})
    )
    np.array([0.0, np.nan], dtype="<f4").tofile(stem.with_suffix(".raw"))
    with pytest.raises(VolumeError, match="nan.raw"):
        load_volume(stem)


@pytest.mark.parametrize(
    "values, channels, dtype, load",
    [
        ([0, 1, 2, 3, 4, 5], 3, "float32", lambda stem: load_volume(stem, kind="scalar")),
        ([0, 1], 1, "float32", lambda stem: load_volume(stem, kind="label")),
        ([0, 1], 1, "float32", lambda stem: load_volume(stem, kind="field")),
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
        ScalarVolume(np.zeros((1, 1, 2))),
        FeatureVolume(np.zeros((1, 1, 2, 2))),
        LabelVolume(np.zeros((1, 1, 2), np.int32)),
        DisplacementField(np.zeros((1, 1, 2, 3))),
    ]
    for vol in containers:
        for name in ("header", "data", "spacing", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(vol, name, None)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ScalarVolume(np.zeros((1, 1, 2))),
        lambda: FeatureVolume(np.zeros((1, 1, 2, 2))),
        lambda: LabelVolume(np.zeros((1, 1, 2), np.int32)),
        lambda: DisplacementField(np.zeros((1, 1, 2, 3))),
        lambda: DisplacementSet(1.0, 1.0, np.zeros((2, 3))),
    ],
    ids=["ScalarVolume", "FeatureVolume", "LabelVolume", "DisplacementField", "DisplacementSet"],
)
def test_array_records_compare_by_identity_and_hash(make):
    # the generated __eq__ would compare the arrays and raise on their truth value
    a, b = make(), make()
    assert not (a == b)
    assert a != b
    assert a == a
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


def test_uint16_labels_roundtrip(tmp_path):
    # write-then-read oracle: the label set written is the label set read
    rng = np.random.default_rng(7)
    raw = rng.integers(0, 3, size=(3, 3, 3)).astype(np.int32)
    vol = LabelVolume(raw, dtype="uint16")
    stem = tmp_path / "labels"
    save_volume(vol, stem)
    back = load_volume(stem)
    assert isinstance(back, LabelVolume)
    assert back.header == vol.header
    assert np.array_equal(back.data, raw)
    assert set(np.unique(back.data)) == set(np.unique(raw))


def test_labels_beyond_their_save_dtype_are_not_written(tmp_path):
    vol = LabelVolume(np.full((2, 2, 2), 300), dtype="uint8")
    with pytest.raises(VolumeError, match="labels out of range for dtype uint8"):
        save_volume(vol, tmp_path / "labels")
    assert not list(tmp_path.iterdir())


def test_scalar_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    vol = ScalarVolume(rng.standard_normal((5, 5, 5)), (0.5, 2.0, 1.5))
    stem = tmp_path / "vol"
    save_volume(vol, stem)
    back = load_volume(stem)
    assert isinstance(back, ScalarVolume)
    assert back.header == vol.header
    assert np.array_equal(back.data.view(np.uint32), vol.data.view(np.uint32))


def test_feature_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    data = rng.standard_normal((4, 3, 2, 12)).astype(np.float32)
    vol = FeatureVolume(data)
    stem = tmp_path / "feat"
    save_volume(vol, stem)
    back = load_volume(stem)
    assert isinstance(back, FeatureVolume)
    assert back.header == vol.header
    assert np.array_equal(back.data.view(np.uint32), vol.data.view(np.uint32))


def test_field_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    field = DisplacementField(rng.uniform(-2, 2, size=(3, 4, 5, 3)).astype(np.float32))
    stem = tmp_path / "field"
    save_volume(field, stem)
    back = load_volume(stem, kind="field")
    assert np.array_equal(back.data, field.data)


def test_dotted_names_keep_their_dots(tmp_path):
    # only a trailing .raw/.json is an extension: f.v1 and f.v2 are two volumes
    a, b = ScalarVolume(np.zeros((2, 2, 2))), ScalarVolume(np.ones((2, 2, 2)))
    save_volume(a, tmp_path / "f.v1")
    save_volume(b, tmp_path / "f.v2")
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["f.v1.json", "f.v1.raw", "f.v2.json", "f.v2.raw"]
    for name, vol in (("f.v1", a), ("f.v2", b), ("f.v1.raw", a), ("f.v2.json", b)):
        assert np.array_equal(load_volume(tmp_path / name).data, vol.data), name


def test_save_to_unwritable_path_errors(tmp_path):
    vol = ScalarVolume(np.zeros((2, 2, 2)))
    with pytest.raises(VolumeError):
        save_volume(vol, tmp_path / "missing-dir" / "x")


def test_file_element_order_is_x_fastest_channels_inner(tmp_path):
    # 2x1x1 voxels, 2 channels: file order must be v000c0 v000c1 v100c0 v100c1
    data = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)  # (z=1,y=1,x=2,c=2)
    vol = FeatureVolume(data)
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
    vol = ScalarVolume(rng.standard_normal((4, 5, 6)).astype(np.float32))
    out = warp_scalar(vol, zero_field(vol.dims))
    assert np.array_equal(out.data, vol.data)


def test_warp_scalar_constant_shift_of_ramp():
    # value x + 10y + 100z is linear, so trilinear sampling at p is exact:
    # a half-voxel shift gives midpoint averages, and -5 / +9 clamp every
    # axis to the first / last voxel
    nx, ny, nz = 5, 4, 3
    zz, yy, xx = np.indices((nz, ny, nx), dtype=np.float32)
    vol = ScalarVolume(xx + 10 * yy + 100 * zz)
    for s in (1.0, 0.5, -5.0, 9.0):
        field = DisplacementField(np.full((nz, ny, nx, 3), s, np.float32))
        out = warp_scalar(vol, field)
        expected = (
            np.clip(xx + s, 0, nx - 1) + 10 * np.clip(yy + s, 0, ny - 1) + 100 * np.clip(zz + s, 0, nz - 1)
        )
        assert np.array_equal(out.data, expected), s


def test_warp_scalar_matches_loop_oracle():
    rng = np.random.default_rng(7)
    vol = ScalarVolume(smooth_noise(rng, (6, 7, 8)))
    smooth = smooth_noise(rng, (6, 7, 8, 3)) * 2.0
    # the second field reaches up to 5 voxels past every face
    wild = rng.uniform(-5, 5, size=(6, 7, 8, 3)).astype(np.float32)
    for field in (DisplacementField(smooth), DisplacementField(wild)):
        out = warp_scalar(vol, field)
        for z in range(6):
            for y in range(7):
                for x in range(8):
                    ux, uy, uz = (float(v) for v in field.data[z, y, x])
                    want = trilinear_oracle(vol.data, x + ux, y + uy, z + uz)
                    assert out.data[z, y, x] == pytest.approx(want, abs=1e-5)


def test_warp_scalar_rejects_dim_mismatch():
    vol = ScalarVolume(np.zeros((3, 3, 3)))
    with pytest.raises(ValueError):
        warp_scalar(vol, zero_field((4, 4, 4)))


@pytest.mark.parametrize("channels", [1, 3, 12])
def test_warp_features_equals_per_channel_warp_scalar(channels):
    rng = np.random.default_rng(14)
    data = rng.standard_normal((5, 6, 7, channels)).astype(np.float32)
    fv = FeatureVolume(data, (1.0, 2.0, 0.5))
    field = DisplacementField(rng.uniform(-8, 8, size=(5, 6, 7, 3)))
    out = warp_scalar(fv, field)
    assert isinstance(out, FeatureVolume) and out.header == fv.header
    for c in range(channels):
        want = warp_scalar(ScalarVolume(data[..., c], (1.0, 2.0, 0.5)), field)
        assert np.array_equal(out.data[..., c], want.data), c


@pytest.mark.parametrize("channels", [1, 12])
def test_warp_samples_straight_into_float32(channels):
    # map_coordinates casts each float64 sum into its float32 slot, which
    # is what sampling in float64 and then casting gives; the coordinates
    # include integer shifts and reach up to 6 voxels past every face
    rng = np.random.default_rng(15)
    data = rng.standard_normal((7, 6, 5, channels)).astype(np.float32)
    fv = FeatureVolume(data)
    u = rng.uniform(-6, 6, size=(7, 6, 5, 3)).astype(np.float32)
    u[::2] = np.round(u[::2])
    field = DisplacementField(u)
    out = warp_scalar(fv, field)
    coords = np.indices((7, 6, 5), dtype=np.float64) + np.moveaxis(u[..., ::-1], -1, 0)
    want = volume._trilinear_zyx(fv.data, coords).astype(np.float32)
    assert out.data.dtype == np.float32
    assert np.array_equal(out.data.view(np.uint32), want.view(np.uint32))


def test_warp_features_rejects_dim_mismatch():
    fv = FeatureVolume(np.zeros((3, 3, 3, 2)))
    with pytest.raises(ValueError):
        warp_scalar(fv, zero_field((3, 3, 4)))


def test_warp_labels_rejects_dim_mismatch():
    labels = LabelVolume(np.zeros((3, 3, 3), np.int32))
    with pytest.raises(ValueError, match=r"field dims \(4, 3, 3\) != volume dims \(3, 3, 3\)"):
        warp_labels(labels, zero_field((4, 3, 3)))


def test_warp_labels_zero_field_is_identity():
    rng = np.random.default_rng(8)
    labels = LabelVolume(rng.integers(0, 4, size=(4, 4, 4)))
    out = warp_labels(labels, zero_field(labels.dims))
    assert np.array_equal(out.data, labels.data)


def test_warp_labels_constant_integer_shift():
    labels = LabelVolume(np.arange(5).reshape(1, 1, 5))
    field = DisplacementField(np.broadcast_to(np.array([2.0, 0, 0], np.float32), (1, 1, 5, 3)).copy())
    out = warp_labels(labels, field)
    assert out.data.reshape(-1).tolist() == [2, 3, 4, 4, 4]


def test_warp_labels_matches_nearest_neighbor_oracle():
    rng = np.random.default_rng(9)
    labels = LabelVolume(rng.integers(0, 5, size=(5, 6, 7)))
    smooth = smooth_noise(rng, (5, 6, 7, 3)) * 3.0
    # exact halves, negative ones and ones past both faces, their float32
    # neighbours and tiny offsets of either sign
    below, above = np.nextafter(np.float32([0.5, -0.5]), np.float32([0.0, -1.0]))
    offsets = [-9.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 9.5, below, above, 1e-30, -1e-30]
    halves = rng.choice(np.float32(offsets), size=(5, 6, 7, 3))
    nz, ny, nx = labels.data.shape
    for data in (smooth, halves):
        field = DisplacementField(data)
        out = warp_labels(labels, field)
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
    labels = LabelVolume(rng.integers(0, 6, size=(6, 6, 6)))
    field = DisplacementField(rng.uniform(-3, 3, size=(6, 6, 6, 3)).astype(np.float32))
    out = warp_labels(labels, field)
    assert set(np.unique(out.data)) <= set(np.unique(labels.data))


# ---------------------------------------------------------------------------
# Down/upsampling
# ---------------------------------------------------------------------------

def test_resamplers_refuse_factor_zero():
    with pytest.raises(ValueError, match="factor must be >= 1, got 0"):
        downsample(ScalarVolume(np.zeros((4, 4, 4))), 0)
    with pytest.raises(ValueError, match="factor must be >= 1, got 0"):
        upsample_field(zero_field((2, 2, 2)), 0, (4, 4, 4))


def test_downsample_factor_one_is_identity():
    rng = np.random.default_rng(11)
    vol = ScalarVolume(rng.standard_normal((5, 5, 5)).astype(np.float32))
    assert downsample(vol, 1) is vol


@pytest.mark.parametrize("factor", [2, 3, 4])
def test_downsample_grid_is_the_level_grid(factor):
    # register() upsamples each level's field onto the next level's grid, so
    # the grid downsample makes must be the one downsampled_dims names
    dims = (7, 9, 11)
    vol = ScalarVolume(np.zeros(dims[::-1], dtype=np.float32))
    assert downsample(vol, factor).dims == downsampled_dims(dims, factor)
    assert downsampled_dims(dims, factor) == tuple(math.ceil(d / factor) for d in dims)


def test_downsample_constant_preserves_value_and_halves_dims():
    vol = ScalarVolume(np.full((6, 5, 4), 3.25, dtype=np.float32))
    out = downsample(vol, 2)
    assert out.dims == (2, 3, 3)
    assert out.header.spacing == (2.0, 2.0, 2.0)
    assert np.allclose(out.data, 3.25, atol=1e-6)


@pytest.mark.parametrize("factor", [1, 2, 3])
def test_downsample_features_equals_per_channel_downsample(factor):
    rng = np.random.default_rng(12)
    data = rng.standard_normal((7, 9, 11, 3)).astype(np.float32)
    fv = FeatureVolume(data, (1.0, 2.0, 0.5))
    out = downsample(fv, factor)
    for c in range(3):
        want = downsample(ScalarVolume(data[..., c], (1.0, 2.0, 0.5)), factor)
        assert np.array_equal(out.data[..., c], want.data), c
    assert out.dims == want.dims
    assert out.header.spacing == want.header.spacing


@pytest.mark.parametrize("factor", [2, 3, 4])
@pytest.mark.parametrize("channels", [1, 12])
def test_downsample_is_the_whole_filter_then_subsample_byte_for_byte(factor, channels):
    rng = np.random.default_rng(16)
    data = rng.standard_normal((9, 10, 11, channels)).astype(np.float32)
    if channels == 1:
        vol = ScalarVolume(data[..., 0])
    else:
        vol = FeatureVolume(data)
    sigma = (0.5 * factor,) * 3 + (0.0,) * (vol.data.ndim - 3)
    whole = ndimage.gaussian_filter(vol.data.astype(np.float64), sigma=sigma, mode="nearest")
    want = whole[::factor, ::factor, ::factor].astype(np.float32)
    assert np.array_equal(downsample(vol, factor).data.view(np.uint32), want.view(np.uint32))


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
    vol = ScalarVolume(ramp.astype(np.float32))
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
    field = DisplacementField(np.broadcast_to(np.array([1.0, 1.0, 1.0], np.float32), (nz, ny, nx, 3)).copy())
    out = upsample_field(field, 2, (6, 6, 6))
    assert np.allclose(out.data, 2.0)


def test_upsample_field_matches_trilinear_oracle():
    rng = np.random.default_rng(12)
    field = DisplacementField(rng.uniform(-2, 2, size=(3, 4, 5, 3)).astype(np.float32))
    target = (10, 8, 6)
    out = upsample_field(field, 2, target)
    for z in range(target[2]):
        for y in range(target[1]):
            for x in range(target[0]):
                for c in range(3):
                    want = 2.0 * trilinear_oracle(field.data[..., c], x / 2.0, y / 2.0, z / 2.0)
                    assert out.data[z, y, x, c] == pytest.approx(want, abs=1e-5)


def trilinear_upsample(field, factor, target):
    """The trilinear lookup at x / factor over a whole index grid, scaled."""
    coords = np.indices(target[::-1], dtype=np.float64) / factor
    return (volume._trilinear_zyx(field.data, coords) * factor).astype(np.float32)


@pytest.mark.parametrize("factor", [2, 4, 8])
def test_upsample_field_is_the_trilinear_lookup_byte_for_byte(factor):
    # odd dims, and targets short of factor * dims, exercise the clamped
    # upper corner; the -0.0 samples must come out as map_coordinates' 0.0
    rng = np.random.default_rng(17)
    data = rng.uniform(-3, 3, size=(5, 7, 3, 3)).astype(np.float32)
    data[2, 3, 1] = -0.0
    data[2, 3, 2] = -1.0
    field = DisplacementField(data)
    for target in ((3 * factor, 7 * factor, 5 * factor), (3 * factor - 1, 7 * factor - 1, 4 * factor + 1)):
        got = upsample_field(field, factor, target).data
        want = trilinear_upsample(field, factor, target)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), target


def test_upsample_field_at_ratio_three_is_within_one_ulp():
    # thirds are not exact in float64, so the per-axis sums may round
    # differently from the eight-corner sum
    rng = np.random.default_rng(18)
    field = DisplacementField(rng.uniform(-3, 3, size=(10, 9, 11, 3)).astype(np.float32))
    target = (31, 27, 30)
    got = upsample_field(field, 3, target).data
    want = trilinear_upsample(field, 3, target)
    ulps = np.abs(got.view(np.int32).astype(np.int64) - want.view(np.int32))
    assert ulps.max() <= 1


def test_upsample_field_peak_memory_is_under_three_outputs():
    # per component: the float64 x and y passes (a sixth and a third of
    # the output at ratio 2) and one z slab; no (3, z, y, x) index grid
    rng = np.random.default_rng(19)
    field = DisplacementField(rng.uniform(-3, 3, size=(32, 32, 32, 3)).astype(np.float32))
    upsample_field(field, 2, (64, 64, 64))  # warm numpy's allocator and caches
    tracemalloc.start()
    try:
        out = upsample_field(field, 2, (64, 64, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * out.data.nbytes, peak / out.data.nbytes


def test_roundtrip_property_random_volumes(tmp_path):
    rng = np.random.default_rng(13)
    for trial in range(5):
        dims = tuple(int(d) for d in rng.integers(1, 7, size=3))
        data = rng.standard_normal((dims[2], dims[1], dims[0])).astype(np.float32)
        vol = ScalarVolume(data)
        stem = tmp_path / f"t{trial}"
        save_volume(vol, stem)
        back = load_volume(stem)
        assert np.array_equal(back.data, vol.data)
        assert back.header == vol.header
