"""Volumetric containers, raw+JSON file I/O, interpolation and warping.

All volumes share one on-disk format: a little-endian binary payload
``<name>.raw`` ordered x-fastest (then y, then z) with channels contiguous
per voxel, plus a JSON sidecar ``<name>.json`` holding
``{"dims": [x, y, z], "spacing": [sx, sy, sz], "channels": C, "dtype": ...}``.

In memory, payloads are numpy arrays of shape ``(z, y, x)`` (scalar/label)
or ``(z, y, x, C)`` (feature volumes, displacement fields), which is the
same element order as the file; labels are int32, all else float32. The
four container classes share one base, ``Volume``, that checks and
freezes the payload. A volume is built from its array and spacing,
``FeatureVolume(array, spacing)`` (a label volume also takes the integer
dtype it is saved as), and derives its ``VolumeHeader``, the sidecar's
contents. ``load_volume`` picks the class from the kind table ``KINDS``.
Every operation here is a pure function.

Warping is backward/pull: ``output(x) = moving(x + u(x))``. Warps and
the energy's data term sample through ``ndimage.map_coordinates`` with
``order=1`` and ``mode="nearest"``: out-of-bounds points clamp to the
nearest edge voxel, and integer coordinates return the stored value
exactly. Warps sample straight into float32. Label warps use the same
coordinates with a clamped nearest-voxel lookup.

Level grids are resampled one axis at a time. ``downsample`` runs the
three 1-D passes of ``ndimage.gaussian_filter`` and keeps every
factor-th voxel of an axis right after its pass. ``upsample_field``
interpolates along x, then y, then z with the weights
``map_coordinates`` uses, so for power-of-two ratios its output is byte
for byte what the trilinear lookup gives.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field as dataclass_field
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np
from scipy import ndimage


class VolumeError(Exception):
    """Base class for volume I/O and validation failures."""


class SidecarError(VolumeError):
    """Missing or garbled JSON sidecar header."""


class PayloadSizeError(VolumeError):
    """Raw payload length does not match the sidecar header."""


class NonFiniteDataError(VolumeError):
    """Payload contains NaN or Inf values."""


DTYPES = {
    "float32": np.dtype("<f4"),
    "uint8": np.dtype("u1"),
    "uint16": np.dtype("<u2"),
    "int32": np.dtype("<i4"),
}
_INTEGER_DTYPES = ("uint8", "uint16", "int32")


@dataclass(frozen=True)
class VolumeHeader:
    """Shape, spacing and storage metadata for one volume file."""

    dims: tuple[int, int, int]          # voxel counts (x, y, z)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)  # mm per voxel
    channels: int = 1
    dtype: str = "float32"

    def __post_init__(self):
        counts = (*self.dims, self.channels)
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in counts):
            raise ValueError(f"dims and channels must be integers, got {self.dims!r}, {self.channels!r}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "channels", int(self.channels))
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise ValueError(f"dims must be three positive integers, got {self.dims}")
        spacing = tuple(self.spacing)
        if len(spacing) != 3 or not all(
            isinstance(s, numbers.Real) and not isinstance(s, bool) and math.isfinite(s) and s > 0
            for s in spacing
        ):
            raise ValueError(f"spacing must be three finite positive reals, got {self.spacing!r}")
        object.__setattr__(self, "spacing", tuple(float(s) for s in spacing))
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if self.dtype not in DTYPES:
            raise ValueError(f"unsupported dtype {self.dtype!r}, expected one of {sorted(DTYPES)}")

    @property
    def n_voxels(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    @property
    def shape_zyx(self) -> tuple[int, int, int]:
        return (self.dims[2], self.dims[1], self.dims[0])

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "VolumeHeader":
        try:
            return cls(
                dims=tuple(d["dims"]),
                spacing=tuple(d.get("spacing", (1.0, 1.0, 1.0))),
                channels=d.get("channels", 1),
                dtype=str(d["dtype"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SidecarError(f"invalid sidecar header: {exc}") from exc


@dataclass(frozen=True, eq=False)
class Volume:
    """Base of the four volume kinds; construct those, not this class.

    A volume is its array and its spacing (mm per voxel, x, y, z); its
    header is derived from them and its saved ``dtype``, so it cannot
    disagree with the array. The one copy of the kinds' validation.
    Subclasses set ``n_channels`` (1 means a 3-D array, any other value
    a 4-D one with a channel axis) and override ``_cast``/``_check_payload``.
    Volumes compare (``==``) and hash by identity, not by their arrays.
    """

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    dtype: str = dataclass_field(default="float32", init=False)  # saved dtype; labels choose it
    header: VolumeHeader = dataclass_field(init=False, repr=False)

    n_channels: ClassVar[int | None] = None  # required channel count; None allows any

    def __post_init__(self):
        data = self._cast(self.data)
        channels = data.shape[3] if data.ndim == 4 else 1
        if self.n_channels is not None and channels != self.n_channels:
            raise ValueError(f"{type(self).__name__} requires channels == {self.n_channels}")
        rank = 3 if self.n_channels == 1 else 4
        if data.ndim != rank:
            raise ValueError(f"{type(self).__name__} data must be {rank}-D, got shape {data.shape}")
        header = VolumeHeader(data.shape[2::-1], self.spacing, channels, self.dtype)
        self._check_payload(data)
        data = np.ascontiguousarray(data)
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "spacing", header.spacing)
        object.__setattr__(self, "header", header)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.header.dims

    def _cast(self, data) -> np.ndarray:
        return np.asarray(data, dtype=np.float32)

    def _check_payload(self, data: np.ndarray):
        if not np.isfinite(data).all():
            raise NonFiniteDataError(f"{type(self).__name__} contains non-finite values")


@dataclass(frozen=True, eq=False)
class ScalarVolume(Volume):
    """Single-channel 3-D volume of real values, shape (z, y, x), float32."""

    n_channels = 1


@dataclass(frozen=True, eq=False)
class FeatureVolume(Volume):
    """Per-voxel feature vectors, shape (z, y, x, C), float32."""

    @property
    def channels(self) -> int:
        return self.header.channels


@dataclass(frozen=True, eq=False)
class LabelVolume(Volume):
    """Integer-labeled segmentation, shape (z, y, x), int32; 0 = background."""

    dtype: str = "int32"  # the integer dtype the labels are saved as

    n_channels = 1

    def _cast(self, data) -> np.ndarray:
        if self.dtype not in _INTEGER_DTYPES:
            raise ValueError(f"LabelVolume requires an integer dtype, got {self.dtype}")
        data = np.asarray(data)
        if not np.issubdtype(data.dtype, np.integer):
            raise ValueError("label data must be integer")
        return data.astype(np.int32)

    def _check_payload(self, data: np.ndarray):
        if data.min() < 0:
            raise ValueError("labels must be non-negative")

    def labels(self) -> list[int]:
        """Sorted list of labels present, background excluded."""
        present = np.unique(self.data)
        return [int(v) for v in present if v != 0]


@dataclass(frozen=True, eq=False)
class DisplacementField(Volume):
    """Per-voxel displacement (dx, dy, dz) in voxel units, shape (z, y, x, 3)."""

    n_channels = 3


def zero_field(dims: Sequence[int]) -> DisplacementField:
    shape = VolumeHeader(tuple(dims)).shape_zyx  # checks dims before allocating
    return DisplacementField(np.zeros(shape + (3,), dtype=np.float32))


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def with_extension(path, extension: str, known: Sequence[str] = (".raw", ".json")) -> Path:
    """``path`` with one ``known`` extension stripped, then ``extension`` appended: f.v2 -> f.v2.json."""
    path = Path(path)
    if path.suffix in known:
        path = path.with_suffix("")
    return path.with_name(path.name + extension)


KINDS = {
    "scalar": ScalarVolume,
    "feature": FeatureVolume,
    "label": LabelVolume,
    "field": DisplacementField,
}


def load_volume(path, kind: str = "auto") -> Volume:
    """Load a volume from its ``.raw`` payload + ``.json`` sidecar.

    ``path`` may name the payload, the sidecar, or the common stem.
    ``kind`` picks the class from the kind table ``KINDS``; every kind but
    "label" reads its payload as float32, and a label volume keeps the
    sidecar's dtype. ``kind="auto"`` infers it
    from the header: integer dtypes load as LabelVolume, float with
    channels == 1 as ScalarVolume, and float with any other channel count,
    3 included, as FeatureVolume. A payload the class rejects raises a
    VolumeError that names the payload file.
    """
    sidecar, payload = with_extension(path, ".json"), with_extension(path, ".raw")
    if not sidecar.exists():
        raise SidecarError(f"missing sidecar {sidecar}")
    try:
        header = VolumeHeader.from_dict(json.loads(sidecar.read_text()))
    except (json.JSONDecodeError, SidecarError) as exc:
        raise SidecarError(f"garbled sidecar {sidecar}: {exc}") from exc
    if not payload.exists():
        raise VolumeError(f"missing payload {payload}")

    raw = np.fromfile(payload, dtype=DTYPES[header.dtype])
    expected = header.n_voxels * header.channels
    if raw.size != expected:
        raise PayloadSizeError(
            f"{payload}: payload has {raw.size} values, header implies {expected}"
        )

    if kind == "auto":
        is_integer = header.dtype in _INTEGER_DTYPES
        kind = "label" if is_integer else ("scalar" if header.channels == 1 else "feature")
    if kind not in KINDS:
        raise ValueError(f"{payload}: unknown kind {kind!r}, expected one of {sorted(KINDS)}")
    cls = KINDS[kind]
    # a wrong channel count keeps its axis, so the class reports the count
    channel_axis = () if cls.n_channels == header.channels == 1 else (header.channels,)
    label_dtype = (header.dtype,) if cls is LabelVolume else ()
    try:
        return cls(raw.reshape(header.shape_zyx + channel_axis), header.spacing, *label_dtype)
    except NonFiniteDataError as exc:
        raise NonFiniteDataError(f"{payload}: {exc}") from exc
    except ValueError as exc:
        raise VolumeError(f"{payload}: {exc}") from exc


def save_volume(vol: Volume, path) -> None:
    """Write ``<stem>.raw`` + ``<stem>.json``; float32 payloads round-trip bit-exactly."""
    header = vol.header
    disk_dtype = DTYPES[header.dtype]
    data = vol.data
    if isinstance(vol, LabelVolume):
        info = np.iinfo(disk_dtype)
        if data.max(initial=0) > info.max or data.min(initial=0) < info.min:
            raise VolumeError(f"labels out of range for dtype {header.dtype}")
    out = np.ascontiguousarray(data.astype(disk_dtype, copy=False))
    try:
        with_extension(path, ".json").write_text(json.dumps(header.to_dict()) + "\n")
        out.tofile(with_extension(path, ".raw"))
    except OSError as exc:
        raise VolumeError(f"cannot write {with_extension(path, '')}: {exc}") from exc


# ---------------------------------------------------------------------------
# Interpolation and warping
# ---------------------------------------------------------------------------

def _trilinear_zyx(data: np.ndarray, coords: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Trilinear samples of ``data`` (z, y, x[, C]) at ``coords``, as ``dtype``.

    ``coords`` is a float64 ``(3, ...)`` array of (z, y, x) positions. Each
    channel is one ``ndimage.map_coordinates`` call with ``order=1`` and
    ``mode="nearest"``, which clamps to the edge voxel and returns the
    stored value, bit-exactly, at integer coordinates. It sums in float64
    and casts each sample into its ``dtype`` slot of the output.
    """
    flat = data.reshape(data.shape[:3] + (-1,))
    out = np.empty(coords.shape[1:] + flat.shape[3:], dtype=dtype)
    # contiguous channel copies sample faster than strided channel views
    for c, ch in enumerate(np.ascontiguousarray(np.moveaxis(flat, -1, 0))):
        ndimage.map_coordinates(ch, coords, output=out[..., c], order=1, mode="nearest")
    return out.reshape(coords.shape[1:] + data.shape[3:])


def warp_scalar(
    moving: ScalarVolume | FeatureVolume, field: DisplacementField
) -> ScalarVolume | FeatureVolume:
    """Backward warp ``output(x) = moving(x + u(x))``, trilinear per channel.

    Takes and returns a scalar or a feature volume, with ``moving``'s spacing.
    """
    if field.dims != moving.dims:
        raise ValueError(f"field dims {field.dims} != volume dims {moving.dims}")
    coords = np.indices(field.dims[::-1], dtype=np.float64)  # (3, z, y, x) sample positions
    coords += np.moveaxis(field.data[..., ::-1], -1, 0)
    return type(moving)(_trilinear_zyx(moving.data, coords, np.float32), moving.spacing)


def warp_labels(labels: LabelVolume, field: DisplacementField) -> LabelVolume:
    """Backward warp with nearest-neighbor sampling (round half up, clamped).

    Never introduces labels absent from the input. Per axis, floor(x + u + 0.5)
    is x + floor(u) + (u - floor(u) >= 0.5), computed in the field's float32.
    """
    if field.dims != labels.dims:
        raise ValueError(f"field dims {field.dims} != volume dims {labels.dims}")
    flat = np.zeros(labels.data.shape, np.intp)  # row-major index of each sample
    for axis, n in enumerate(labels.data.shape):
        u = field.data[..., 2 - axis]  # components are (ux, uy, uz)
        index = np.floor(u)
        grid = np.arange(n, dtype=index.dtype).reshape((n,) + (1,) * (2 - axis))  # z, y or x
        index += (u - index >= 0.5) + grid
        flat *= n
        flat += np.clip(index, 0, n - 1, out=index).astype(np.intp)
    return LabelVolume(labels.data.take(flat), labels.spacing, labels.dtype)


# ---------------------------------------------------------------------------
# Multi-resolution helpers
# ---------------------------------------------------------------------------

def downsampled_dims(dims: Sequence[int], factor: int) -> tuple[int, ...]:
    """The grid ``downsample`` makes: every factor-th voxel, ceil(d / factor) per axis."""
    return tuple(-(-d // factor) for d in dims)


def downsample(vol: ScalarVolume | FeatureVolume, factor: int) -> ScalarVolume | FeatureVolume:
    """Gaussian prefilter (sigma = 0.5 * factor) then take every factor-th voxel.

    Takes and returns a scalar or a feature volume, each channel filtered
    on its own. Output dims are ``downsampled_dims``; factor 1 is the identity.

    The filter is ``gaussian_filter``'s own float64 passes along z, y and x
    (edges replicated), and each axis is subsampled right after its pass,
    so later passes filter only the lines that are kept. The result is
    byte for byte ``gaussian_filter(...)[::f, ::f, ::f]``.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return vol
    out = vol.data
    for axis in range(3):  # a channel axis is never filtered
        out = ndimage.gaussian_filter1d(out, 0.5 * factor, axis=axis, output=np.float64, mode="nearest")
        out = out[(slice(None),) * axis + (slice(None, None, factor),)]
    return type(vol)(out.astype(np.float32), tuple(s * factor for s in vol.spacing))


# float64 values in one z slab of an upsampled component: the z pass's two
# slab temporaries (256 KiB each) then stay in cache
_SLAB_VALUES = 1 << 15


def _lerp_plan(n: int, n_out: int, factor: int):
    """Corner indices and weights of ``map_coordinates(order=1, mode="nearest")``
    at positions ``i / factor``, i < n_out, along an axis of length n."""
    p = np.minimum(np.arange(n_out) / factor, n - 1)  # clamped, so >= 0
    i0 = p.astype(np.intp)
    w0 = 1.0 - (p - i0)
    return i0, np.minimum(i0 + 1, n - 1), w0, 1.0 - w0


def _lerp(src: np.ndarray, plan, axis: int) -> np.ndarray:
    """``src[i0] * w0 + src[i1] * w1`` along ``axis`` of a float64 array."""
    i0, i1, w0, w1 = plan
    shape = (-1,) + (1,) * (src.ndim - 1 - axis)
    out = np.take(src, i0, axis=axis)
    out *= w0.reshape(shape)
    upper = np.take(src, i1, axis=axis)
    upper *= w1.reshape(shape)
    out += upper
    return out


def upsample_field(field: DisplacementField, factor: int, target_dims: Sequence[int]) -> DisplacementField:
    """Trilinear upsampling of each component, components scaled by ``factor``.

    Fine voxel ``x`` reads the coarse grid at ``x / factor`` (the coarse
    grid was formed by taking every factor-th voxel), and voxel-unit
    components are rescaled to the finer grid.

    Each component is interpolated in float64 along x, then y, then z (a
    slab of output planes at a time), with the clamped positions and
    weights of ``map_coordinates(order=1, mode="nearest")``; no index grid
    is built. For power-of-two ratios every product and sum is exact, so
    the output is byte for byte that of the trilinear lookup at
    ``x / factor``. At other ratios the float64 sums may round differently,
    which can move a value by one float32 ulp.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    target_dims = tuple(int(d) for d in target_dims)
    if factor == 1 and target_dims == field.dims:
        return field
    nz, ny, nx = target_dims[::-1]
    plan_z, plan_y, plan_x = (
        _lerp_plan(n, n_out, factor) for n, n_out in zip(field.data.shape[:3], (nz, ny, nx))
    )
    out = np.empty((nz, ny, nx, 3), dtype=np.float32)
    step = max(1, _SLAB_VALUES // (ny * nx))
    for c in range(3):
        fine_xy = _lerp(_lerp(field.data[..., c].astype(np.float64), plan_x, 2), plan_y, 1)
        for z in range(0, nz, step):
            planes = slice(z, z + step)
            slab = _lerp(fine_xy, [p[planes] for p in plan_z], 0)
            slab *= factor
            slab += 0.0  # -0.0 becomes 0.0, as in map_coordinates' sum from 0.0
            out[planes, :, :, c] = slab
    return DisplacementField(out, tuple(s / factor for s in field.spacing))
