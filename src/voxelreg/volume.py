"""Volumetric containers, raw+JSON file I/O, interpolation and warping.

All volumes share one on-disk format: a little-endian binary payload
``<name>.raw`` ordered x-fastest (then y, then z) with channels contiguous
per voxel, plus a JSON sidecar ``<name>.json`` holding
``{"dims": [x, y, z], "spacing": [sx, sy, sz], "channels": C, "dtype": ...}``.

In memory, payloads are numpy arrays of shape ``(z, y, x)`` (scalar/label)
or ``(z, y, x, C)`` (feature volumes, displacement fields), which is the
same element order as the file; labels are int32, all else float32. The
four container classes share one base, ``Volume``, that checks and
freezes the payload; ``load_volume`` picks the class from the kind
table ``KINDS``. Every operation here is a pure function.

Warping is backward/pull: ``output(x) = moving(x + u(x))``. Every
trilinear lookup (warps, field upsampling, the energy's data term) goes
through ``ndimage.map_coordinates`` with ``order=1`` and ``mode="nearest"``:
out-of-bounds points clamp to the nearest edge voxel, and integer
coordinates return the stored value exactly. Label warps use the same
coordinates with a clamped nearest-voxel lookup.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
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


@dataclass(frozen=True)
class Volume:
    """Base of the four volume kinds; construct those, not this class.

    The one copy of their validation. Subclasses set ``n_channels`` (1
    means no channel axis) and override ``_cast``/``_check_payload``.
    """

    header: VolumeHeader
    data: np.ndarray

    n_channels: ClassVar[int | None] = None  # required channel count; None allows any

    def __post_init__(self):
        if self.n_channels is not None and self.header.channels != self.n_channels:
            raise ValueError(f"{type(self).__name__} requires channels == {self.n_channels}")
        data = self._cast(self.data)
        expected = self.header.shape_zyx
        if self.n_channels != 1:
            expected += (self.header.channels,)
        if data.shape != expected:
            raise ValueError(f"data shape {data.shape} != header shape {expected}")
        self._check_payload(data)
        data = np.ascontiguousarray(data)
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.header.dims

    def _cast(self, data) -> np.ndarray:
        if self.header.dtype != "float32":
            raise ValueError(f"{type(self).__name__} requires dtype float32, got {self.header.dtype}")
        return np.asarray(data, dtype=np.float32)

    def _check_payload(self, data: np.ndarray):
        if not np.isfinite(data).all():
            raise NonFiniteDataError(f"{type(self).__name__} contains non-finite values")


@dataclass(frozen=True)
class ScalarVolume(Volume):
    """Single-channel 3-D volume of real values, shape (z, y, x), float32."""

    n_channels = 1


@dataclass(frozen=True)
class FeatureVolume(Volume):
    """Per-voxel feature vectors, shape (z, y, x, C), float32."""

    @property
    def channels(self) -> int:
        return self.header.channels


@dataclass(frozen=True)
class LabelVolume(Volume):
    """Integer-labeled segmentation, shape (z, y, x), int32; 0 = background."""

    n_channels = 1

    def _cast(self, data) -> np.ndarray:
        if self.header.dtype not in _INTEGER_DTYPES:
            raise ValueError(f"LabelVolume requires an integer dtype, got {self.header.dtype}")
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


@dataclass(frozen=True)
class DisplacementField(Volume):
    """Per-voxel displacement (dx, dy, dz) in voxel units, shape (z, y, x, 3)."""

    n_channels = 3


def zero_field(dims: Sequence[int], spacing: Sequence[float] = (1.0, 1.0, 1.0)) -> DisplacementField:
    header = VolumeHeader(dims=tuple(dims), spacing=tuple(spacing), channels=3, dtype="float32")
    return DisplacementField(header, np.zeros(header.shape_zyx + (3,), dtype=np.float32))


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def _stem(path) -> Path:
    path = Path(path)
    if path.suffix in (".raw", ".json"):
        return path.with_suffix("")
    return path


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
    "label" gets a float32 header and payload. ``kind="auto"`` infers it
    from the header: integer dtypes load as LabelVolume, float with
    channels == 1 as ScalarVolume, and float with any other channel count,
    3 included, as FeatureVolume. A payload the class rejects raises a
    VolumeError that names the payload file.
    """
    stem = _stem(path)
    sidecar = stem.with_suffix(".json")
    payload = stem.with_suffix(".raw")
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
    if cls is not LabelVolume:
        header = VolumeHeader(header.dims, header.spacing, header.channels, "float32")
    # a wrong channel count keeps its axis, so the class reports the count
    channel_axis = () if cls.n_channels == header.channels == 1 else (header.channels,)
    try:
        return cls(header, raw.reshape(header.shape_zyx + channel_axis))
    except NonFiniteDataError as exc:
        raise NonFiniteDataError(f"{payload}: {exc}") from exc
    except ValueError as exc:
        raise VolumeError(f"{payload}: {exc}") from exc


def load_field(path) -> DisplacementField:
    """Load a displacement field: a 3-channel volume, read as float32."""
    return load_volume(path, kind="field")


def save_volume(vol: Volume, path) -> None:
    """Write ``<stem>.raw`` + ``<stem>.json``; float32 payloads round-trip bit-exactly."""
    stem = _stem(path)
    header = vol.header
    disk_dtype = DTYPES[header.dtype]
    data = vol.data
    if isinstance(vol, LabelVolume):
        info = np.iinfo(disk_dtype)
        if data.max(initial=0) > info.max or data.min(initial=0) < info.min:
            raise VolumeError(f"labels out of range for dtype {header.dtype}")
    out = np.ascontiguousarray(data.astype(disk_dtype, copy=False))
    try:
        stem.with_suffix(".json").write_text(json.dumps(header.to_dict()) + "\n")
        out.tofile(stem.with_suffix(".raw"))
    except OSError as exc:
        raise VolumeError(f"cannot write {stem}: {exc}") from exc


# ---------------------------------------------------------------------------
# Interpolation and warping
# ---------------------------------------------------------------------------

def _trilinear_zyx(data: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Trilinear float64 samples of ``data`` (z, y, x[, C]) at ``coords``.

    ``coords`` is a float64 ``(3, ...)`` array of (z, y, x) positions. Each
    channel is one ``ndimage.map_coordinates`` call with ``order=1`` and
    ``mode="nearest"``, which clamps to the edge voxel and returns the
    stored value, bit-exactly, at integer coordinates.
    """
    channels = np.moveaxis(data.reshape(data.shape[:3] + (-1,)), -1, 0)
    # contiguous channel copies sample faster than strided channel views
    out = [
        ndimage.map_coordinates(ch, coords, output=np.float64, order=1, mode="nearest")
        for ch in np.ascontiguousarray(channels)
    ]
    return np.stack(out, axis=-1).reshape(coords.shape[1:] + data.shape[3:])


def _warp_coords(dims_xyz, field_data) -> np.ndarray:
    """Float64 ``(3, z, y, x)`` sample coordinates x + u(x) of a backward warp."""
    coords = np.indices(dims_xyz[::-1], dtype=np.float64)
    coords += np.moveaxis(field_data[..., ::-1], -1, 0)
    return coords


def warp_scalar(
    moving: ScalarVolume | FeatureVolume, field: DisplacementField
) -> ScalarVolume | FeatureVolume:
    """Backward warp ``output(x) = moving(x + u(x))``, trilinear per channel.

    Takes and returns a scalar or a feature volume; ``warp_features`` is
    the same function.
    """
    if field.dims != moving.dims:
        raise ValueError(f"field dims {field.dims} != volume dims {moving.dims}")
    out = _trilinear_zyx(moving.data, _warp_coords(field.dims, field.data))
    header = VolumeHeader(field.dims, moving.header.spacing, moving.header.channels, "float32")
    return type(moving)(header, out.astype(np.float32))


warp_features = warp_scalar


def warp_labels(labels: LabelVolume, field: DisplacementField) -> LabelVolume:
    """Backward warp with nearest-neighbor sampling (round half up, clamped).

    Never introduces labels absent from the input.
    """
    if field.dims != labels.dims:
        raise ValueError(f"field dims {field.dims} != volume dims {labels.dims}")
    nz, ny, nx = labels.data.shape
    zc, yc, xc = _warp_coords(field.dims, field.data)
    zi = np.clip(np.floor(zc + 0.5).astype(np.intp), 0, nz - 1)
    yi = np.clip(np.floor(yc + 0.5).astype(np.intp), 0, ny - 1)
    xi = np.clip(np.floor(xc + 0.5).astype(np.intp), 0, nx - 1)
    return LabelVolume(labels.header, labels.data[zi, yi, xi])


# ---------------------------------------------------------------------------
# Multi-resolution helpers
# ---------------------------------------------------------------------------

def downsampled_dims(dims: Sequence[int], factor: int) -> tuple[int, ...]:
    """The grid ``downsample`` makes: every factor-th voxel, ceil(d / factor) per axis."""
    return tuple(-(-d // factor) for d in dims)


def downsample(vol: ScalarVolume | FeatureVolume, factor: int) -> ScalarVolume | FeatureVolume:
    """Gaussian prefilter (sigma = 0.5 * factor) then take every factor-th voxel.

    Takes and returns a scalar or a feature volume, each channel filtered
    on its own; ``downsample_features`` is the same function. Output dims
    are ``downsampled_dims``; factor 1 is the identity.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return vol
    # a channel axis gets sigma 0, which scipy skips: channels stay separate
    sigma = (0.5 * factor,) * 3 + (0.0,) * (vol.data.ndim - 3)
    smoothed = ndimage.gaussian_filter(vol.data.astype(np.float64), sigma=sigma, mode="nearest")
    out = smoothed[::factor, ::factor, ::factor]
    dims = downsampled_dims(vol.header.dims, factor)
    spacing = tuple(s * factor for s in vol.header.spacing)
    header = VolumeHeader(dims, spacing, vol.header.channels, "float32")
    return type(vol)(header, out.astype(np.float32))


downsample_features = downsample


def upsample_field(field: DisplacementField, factor: int, target_dims: Sequence[int]) -> DisplacementField:
    """Trilinear upsampling of each component, components scaled by ``factor``.

    Fine voxel ``x`` reads the coarse grid at ``x / factor`` (the coarse
    grid was formed by taking every factor-th voxel), and voxel-unit
    components are rescaled to the finer grid.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    target_dims = tuple(int(d) for d in target_dims)
    if factor == 1 and target_dims == field.dims:
        return field
    coords = np.indices(target_dims[::-1], dtype=np.float64) / factor
    out = _trilinear_zyx(field.data, coords) * factor
    spacing = tuple(s / factor for s in field.header.spacing)
    header = VolumeHeader(target_dims, spacing, 3, "float32")
    return DisplacementField(header, out.astype(np.float32))
