"""Seeded synthetic volumes, warps and blob labelings for test harnesses.

``make_pair`` builds a registration test case whose ground truth is exact
by construction: the base smooth volume is the MOVING image and the fixed
image is the moving image pulled back through the ground-truth field, so
``warp_scalar(moving, field) == fixed`` holds bit-exactly (and likewise
for the label volumes under nearest-neighbor warping). Registering
``moving`` onto ``fixed`` should therefore recover the stored field.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from voxelreg.volume import (
    DisplacementField,
    LabelVolume,
    ScalarVolume,
    VolumeHeader,
    warp_labels,
    warp_scalar,
)

SYNTH_KINDS = ("translation", "sinusoid", "blobs")


def _check_smooth(header: VolumeHeader, sigma: float):
    if header.n_voxels < 2:
        raise ValueError(f"dims must hold at least 2 voxels for a smooth volume, got {header.dims}")
    if not sigma >= 0:
        raise ValueError(f"noise sigma must be >= 0, got {sigma}")


def _check_blobs(num_structures: int, min_radius: float, max_radius: float):
    if num_structures < 1:
        raise ValueError("num_structures must be >= 1")
    if not 0 <= min_radius <= max_radius:
        raise ValueError(f"need 0 <= min_radius <= max_radius, got {min_radius}, {max_radius}")


def smooth_random_volume(dims, seed: int, sigma: float = 2.5) -> ScalarVolume:
    """Gaussian-filtered white noise, min-max rescaled to [0, 1]."""
    header = VolumeHeader(tuple(dims))
    _check_smooth(header, sigma)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(header.shape_zyx)
    data = ndimage.gaussian_filter(noise, sigma)
    lo, hi = data.min(), data.max()
    data = (data - lo) / (hi - lo)
    return ScalarVolume(header, data.astype(np.float32))


def translation_field(dims, t) -> DisplacementField:
    """Constant displacement t = (tx, ty, tz) at every voxel."""
    t = np.asarray(t, dtype=np.float32)
    if t.shape != (3,):
        raise ValueError("translation must be a 3-vector (tx, ty, tz)")
    header = VolumeHeader(tuple(dims), channels=3)
    return DisplacementField(header, np.broadcast_to(t, header.shape_zyx + (3,)).copy())


def sinusoid_field(dims, amplitude: float, period: float, seed: int) -> DisplacementField:
    """Band-limited smooth warp: per component a product of axis sinusoids.

    Each component is amplitude * sin(2*pi*x/period + p1) * sin(...y...) *
    sin(...z...) with seeded random phases, so |u| <= amplitude everywhere
    and the spatial frequency content is set by ``period``.
    """
    if period <= 0:
        raise ValueError("period must be > 0")
    header = VolumeHeader(tuple(dims), channels=3)
    rng = np.random.default_rng(seed)
    zz, yy, xx = np.indices(header.shape_zyx, dtype=np.float64, sparse=True)
    w = 2.0 * np.pi / period
    comps = []
    for _ in range(3):
        p1, p2, p3 = rng.uniform(0, 2 * np.pi, size=3)
        comps.append(amplitude * np.sin(w * xx + p1) * np.sin(w * yy + p2) * np.sin(w * zz + p3))
    return DisplacementField(header, np.stack(comps, axis=-1).astype(np.float32))


def blob_labels(
    dims,
    num_structures: int,
    seed: int,
    min_radius: float = 3.0,
    max_radius: float = 6.0,
) -> LabelVolume:
    """Spherical blobs with labels 1..num_structures on background 0.

    Blobs are painted in label order (later blobs overwrite overlaps), so
    a structure can in principle vanish; callers that need the effective
    label set should read it from the volume.
    """
    header = VolumeHeader(tuple(dims), dtype="int32")
    _check_blobs(num_structures, min_radius, max_radius)
    rng = np.random.default_rng(seed)
    nz, ny, nx = header.shape_zyx
    data = np.zeros((nz, ny, nx), dtype=np.int32)
    zz, yy, xx = np.indices((nz, ny, nx), dtype=np.float64, sparse=True)
    for label in range(1, num_structures + 1):
        r = rng.uniform(min_radius, max_radius)
        cz = rng.uniform(r, max(nz - 1 - r, r))
        cy = rng.uniform(r, max(ny - 1 - r, r))
        cx = rng.uniform(r, max(nx - 1 - r, r))
        mask = (zz - cz) ** 2 + (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        data[mask] = label
    return LabelVolume(header, data)


def make_pair(
    kind: str,
    dims,
    seed: int,
    translation=(2.0, 0.0, 0.0),
    amplitude: float = 3.0,
    period: float = 32.0,
    num_blobs: int = 24,
    min_radius: float = 3.0,
    max_radius: float = 6.0,
    noise_sigma: float = 2.5,
) -> dict:
    """Build one synthetic registration case.

    Returns a dict with ``moving``, ``fixed``, ``field`` (the ground-truth
    displacement a registration of moving onto fixed should recover),
    ``moving_labels`` and ``fixed_labels``. For ``kind="blobs"`` only a
    label volume is generated (key ``labels``).
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {SYNTH_KINDS}")
    # every input is checked before any volume is made
    header = VolumeHeader(tuple(dims))
    _check_blobs(num_blobs, min_radius, max_radius)
    if kind == "sinusoid" and period <= 0:
        raise ValueError("period must be > 0")
    if kind == "blobs":
        return {
            "labels": blob_labels(dims, num_blobs, seed, min_radius, max_radius)
        }

    _check_smooth(header, noise_sigma)
    moving = smooth_random_volume(dims, seed, sigma=noise_sigma)
    if kind == "translation":
        field = translation_field(dims, translation)
    else:
        field = sinusoid_field(dims, amplitude, period, seed + 1)
    moving_labels = blob_labels(dims, num_blobs, seed + 2, min_radius, max_radius)
    fixed = warp_scalar(moving, field)
    fixed_labels = warp_labels(moving_labels, field)
    return {
        "moving": moving,
        "fixed": fixed,
        "field": field,
        "moving_labels": moving_labels,
        "fixed_labels": fixed_labels,
    }

