"""Volumetric containers, raw+JSON file I/O, interpolation and warping.

All volumes share one on-disk format: a little-endian binary payload
``<name>.raw`` ordered x-fastest (then y, then z) with channels contiguous
per voxel, plus a JSON sidecar ``<name>.json`` holding
``{"dims": [x, y, z], "spacing": [sx, sy, sz], "channels": C, "dtype": ...}``.

In memory, payloads are numpy arrays of shape ``(z, y, x)`` (scalar/label)
or ``(z, y, x, C)`` (feature volumes, displacement fields), which is the
same element order as the file. Scalar and feature data are kept as
float32, labels as int32. Arrays are marked read-only after construction;
every operation here is a pure function.

Out-of-bounds sampling always clamps to the nearest edge voxel, and
warping is backward/pull: ``output(x) = moving(x + u(x))``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

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
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise ValueError(f"dims must be three positive integers, got {self.dims}")
        if len(self.spacing) != 3 or any(s <= 0 for s in self.spacing):
            raise ValueError(f"spacing must be three positive reals, got {self.spacing}")
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
        return {
            "dims": list(self.dims),
            "spacing": list(self.spacing),
            "channels": self.channels,
            "dtype": self.dtype,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VolumeHeader":
        try:
            return cls(
                dims=tuple(d["dims"]),
                spacing=tuple(d.get("spacing", (1.0, 1.0, 1.0))),
                channels=int(d.get("channels", 1)),
                dtype=str(d["dtype"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SidecarError(f"invalid sidecar header: {exc}") from exc


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _check_finite(data: np.ndarray, what: str):
    if not np.isfinite(data).all():
        raise NonFiniteDataError(f"{what} contains non-finite values")


@dataclass(frozen=True)
class ScalarVolume:
    """Single-channel 3-D volume of real values, shape (z, y, x), float32."""

    header: VolumeHeader
    data: np.ndarray

    def __post_init__(self):
        if self.header.channels != 1:
            raise ValueError("ScalarVolume requires channels == 1")
        data = np.asarray(self.data, dtype=np.float32)
        if data.shape != self.header.shape_zyx:
            raise ValueError(f"data shape {data.shape} != header shape {self.header.shape_zyx}")
        _check_finite(data, "scalar volume")
        object.__setattr__(self, "data", _freeze(data))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.header.dims


@dataclass(frozen=True)
class FeatureVolume:
    """Per-voxel feature vectors, shape (z, y, x, C), float32."""

    header: VolumeHeader
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float32)
        expected = self.header.shape_zyx + (self.header.channels,)
        if data.shape != expected:
            raise ValueError(f"data shape {data.shape} != header shape {expected}")
        _check_finite(data, "feature volume")
        object.__setattr__(self, "data", _freeze(data))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.header.dims

    @property
    def channels(self) -> int:
        return self.header.channels


@dataclass(frozen=True)
class LabelVolume:
    """Integer-labeled segmentation, shape (z, y, x), int32; 0 = background."""

    header: VolumeHeader
    data: np.ndarray

    def __post_init__(self):
        if self.header.channels != 1:
            raise ValueError("LabelVolume requires channels == 1")
        if self.header.dtype not in _INTEGER_DTYPES:
            raise ValueError(f"LabelVolume requires an integer dtype, got {self.header.dtype}")
        data = np.asarray(self.data)
        if not np.issubdtype(data.dtype, np.integer):
            raise ValueError("label data must be integer")
        data = data.astype(np.int32)
        if data.shape != self.header.shape_zyx:
            raise ValueError(f"data shape {data.shape} != header shape {self.header.shape_zyx}")
        if data.min() < 0:
            raise ValueError("labels must be non-negative")
        object.__setattr__(self, "data", _freeze(data))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.header.dims

    def labels(self) -> list[int]:
        """Sorted list of labels present, background excluded."""
        present = np.unique(self.data)
        return [int(v) for v in present if v != 0]


@dataclass(frozen=True)
class DisplacementField:
    """Per-voxel displacement (dx, dy, dz) in voxel units, shape (z, y, x, 3)."""

    header: VolumeHeader
    data: np.ndarray

    def __post_init__(self):
        if self.header.channels != 3:
            raise ValueError("DisplacementField requires channels == 3")
        data = np.asarray(self.data, dtype=np.float32)
        expected = self.header.shape_zyx + (3,)
        if data.shape != expected:
            raise ValueError(f"data shape {data.shape} != header shape {expected}")
        _check_finite(data, "displacement field")
        object.__setattr__(self, "data", _freeze(data))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.header.dims


Volume = Union[ScalarVolume, FeatureVolume, LabelVolume, DisplacementField]


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


def load_volume(path, kind: str = "auto") -> Volume:
    """Load a volume from its ``.raw`` payload + ``.json`` sidecar.

    ``path`` may name the payload, the sidecar, or the common stem. With
    ``kind="auto"`` the volume class is inferred from the header: integer
    dtypes load as LabelVolume, float with channels == 1 as ScalarVolume,
    and float with any other channel count, 3 included, as FeatureVolume
    (load displacement fields with :func:`load_field`). ``kind`` in
    {"scalar", "feature", "label"} forces the class, converting integer
    payloads to float32 if needed.
    """
    stem = _stem(path)
    sidecar = stem.with_suffix(".json")
    payload = stem.with_suffix(".raw")
    if not sidecar.exists():
        raise SidecarError(f"missing sidecar {sidecar}")
    try:
        header = VolumeHeader.from_dict(json.loads(sidecar.read_text()))
    except json.JSONDecodeError as exc:
        raise SidecarError(f"garbled sidecar {sidecar}: {exc}") from exc
    if not payload.exists():
        raise VolumeError(f"missing payload {payload}")

    raw = np.fromfile(payload, dtype=DTYPES[header.dtype])
    expected = header.n_voxels * header.channels
    if raw.size != expected:
        raise PayloadSizeError(
            f"{payload}: payload has {raw.size} values, header implies {expected}"
        )
    if header.channels == 1:
        raw = raw.reshape(header.shape_zyx)
    else:
        raw = raw.reshape(header.shape_zyx + (header.channels,))

    is_integer = header.dtype in _INTEGER_DTYPES
    if kind == "auto":
        kind = "label" if is_integer else ("scalar" if header.channels == 1 else "feature")

    if kind == "label":
        if not is_integer:
            raise VolumeError(f"{payload}: label volumes require an integer dtype")
        return LabelVolume(header, raw)
    if kind == "scalar":
        if header.channels != 1:
            raise VolumeError(f"{payload}: scalar volume requires channels == 1")
        hdr = VolumeHeader(header.dims, header.spacing, 1, "float32")
        return ScalarVolume(hdr, raw.astype(np.float32))
    if kind == "feature":
        hdr = VolumeHeader(header.dims, header.spacing, header.channels, "float32")
        data = raw.astype(np.float32)
        if header.channels == 1:
            data = data[..., np.newaxis]
        return FeatureVolume(hdr, data)
    raise ValueError(f"unknown kind {kind!r}")


def load_field(path) -> DisplacementField:
    """Load a displacement field stored as a 3-channel float32 volume."""
    fv = load_volume(path, kind="feature")
    if fv.channels != 3:
        raise VolumeError(f"displacement field requires 3 channels, got {fv.channels}")
    header = VolumeHeader(fv.header.dims, fv.header.spacing, 3, "float32")
    return DisplacementField(header, fv.data)


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

def _trilinear_zyx(data: np.ndarray, zc: np.ndarray, yc: np.ndarray, xc: np.ndarray) -> np.ndarray:
    """Trilinear sample of ``data`` (z, y, x[, C]) at continuous coordinates.

    Corner indices are clamped to the volume, which realizes the
    clamp-to-edge convention; at integer coordinates the result is the
    stored value, bit-exactly.
    """
    nz, ny, nx = data.shape[:3]
    z0 = np.floor(zc).astype(np.intp)
    y0 = np.floor(yc).astype(np.intp)
    x0 = np.floor(xc).astype(np.intp)
    fz = (zc - z0).astype(np.float64)
    fy = (yc - y0).astype(np.float64)
    fx = (xc - x0).astype(np.float64)

    z0c = np.clip(z0, 0, nz - 1)
    z1c = np.clip(z0 + 1, 0, nz - 1)
    y0c = np.clip(y0, 0, ny - 1)
    y1c = np.clip(y0 + 1, 0, ny - 1)
    x0c = np.clip(x0, 0, nx - 1)
    x1c = np.clip(x0 + 1, 0, nx - 1)

    if data.ndim == 4:
        fz, fy, fx = fz[..., None], fy[..., None], fx[..., None]
    d = data.astype(np.float64, copy=False)
    c000 = d[z0c, y0c, x0c]
    c001 = d[z0c, y0c, x1c]
    c010 = d[z0c, y1c, x0c]
    c011 = d[z0c, y1c, x1c]
    c100 = d[z1c, y0c, x0c]
    c101 = d[z1c, y0c, x1c]
    c110 = d[z1c, y1c, x0c]
    c111 = d[z1c, y1c, x1c]

    c00 = c000 * (1.0 - fx) + c001 * fx
    c01 = c010 * (1.0 - fx) + c011 * fx
    c10 = c100 * (1.0 - fx) + c101 * fx
    c11 = c110 * (1.0 - fx) + c111 * fx
    c0 = c00 * (1.0 - fy) + c01 * fy
    c1 = c10 * (1.0 - fy) + c11 * fy
    return c0 * (1.0 - fz) + c1 * fz


def sample_trilinear(vol: ScalarVolume, p: Sequence[float]) -> float:
    """Sample at a continuous point ``p = (x, y, z)`` in voxel coordinates.

    Out-of-bounds points clamp to the nearest edge voxel, so this is a
    total function.
    """
    x, y, z = (float(v) for v in p)
    return float(_trilinear_zyx(vol.data, np.asarray(z), np.asarray(y), np.asarray(x)))


def _warp_coords(dims_xyz, field_data):
    nz, ny, nx = dims_xyz[2], dims_xyz[1], dims_xyz[0]
    zz, yy, xx = np.meshgrid(
        np.arange(nz, dtype=np.float64),
        np.arange(ny, dtype=np.float64),
        np.arange(nx, dtype=np.float64),
        indexing="ij",
    )
    u = field_data.astype(np.float64, copy=False)
    return zz + u[..., 2], yy + u[..., 1], xx + u[..., 0]


def warp_scalar(moving: ScalarVolume, field: DisplacementField) -> ScalarVolume:
    """Backward warp: ``output(x) = moving(x + u(x))`` with trilinear sampling."""
    if field.dims != moving.dims:
        raise ValueError(f"field dims {field.dims} != volume dims {moving.dims}")
    zc, yc, xc = _warp_coords(field.dims, field.data)
    out = _trilinear_zyx(moving.data, zc, yc, xc)
    header = VolumeHeader(field.dims, moving.header.spacing, 1, "float32")
    return ScalarVolume(header, out.astype(np.float32))


def warp_features(moving: FeatureVolume, field: DisplacementField) -> FeatureVolume:
    """Backward warp applied per channel."""
    if field.dims != moving.dims:
        raise ValueError(f"field dims {field.dims} != volume dims {moving.dims}")
    zc, yc, xc = _warp_coords(field.dims, field.data)
    out = _trilinear_zyx(moving.data, zc, yc, xc)
    header = VolumeHeader(field.dims, moving.header.spacing, moving.channels, "float32")
    return FeatureVolume(header, out.astype(np.float32))


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

def _downsample_array(data: np.ndarray, factor: int) -> np.ndarray:
    sigma = 0.5 * factor
    if data.ndim == 4:
        smoothed = np.empty_like(data, dtype=np.float64)
        for c in range(data.shape[3]):
            smoothed[..., c] = ndimage.gaussian_filter(
                data[..., c].astype(np.float64), sigma=sigma, mode="nearest"
            )
        return smoothed[::factor, ::factor, ::factor, :]
    smoothed = ndimage.gaussian_filter(data.astype(np.float64), sigma=sigma, mode="nearest")
    return smoothed[::factor, ::factor, ::factor]


def _downsampled_header(header: VolumeHeader, factor: int, channels: int) -> VolumeHeader:
    dims = tuple(-(-d // factor) for d in header.dims)  # ceil division
    spacing = tuple(s * factor for s in header.spacing)
    return VolumeHeader(dims, spacing, channels, "float32")


def downsample(vol: ScalarVolume, factor: int) -> ScalarVolume:
    """Gaussian prefilter (sigma = 0.5 * factor) then take every factor-th voxel.

    Output dims are ceil(dims / factor); factor 1 is the identity.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return vol
    out = _downsample_array(vol.data, factor)
    return ScalarVolume(_downsampled_header(vol.header, factor, 1), out.astype(np.float32))


def downsample_features(fv: FeatureVolume, factor: int) -> FeatureVolume:
    """Per-channel counterpart of :func:`downsample`."""
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return fv
    out = _downsample_array(fv.data, factor)
    header = _downsampled_header(fv.header, factor, fv.channels)
    return FeatureVolume(header, out.astype(np.float32))


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
    nz, ny, nx = target_dims[2], target_dims[1], target_dims[0]
    zz, yy, xx = np.meshgrid(
        np.arange(nz, dtype=np.float64) / factor,
        np.arange(ny, dtype=np.float64) / factor,
        np.arange(nx, dtype=np.float64) / factor,
        indexing="ij",
    )
    out = _trilinear_zyx(field.data, zz, yy, xx) * factor
    spacing = tuple(s / factor for s in field.header.spacing)
    header = VolumeHeader(target_dims, spacing, 3, "float32")
    return DisplacementField(header, out.astype(np.float32))
