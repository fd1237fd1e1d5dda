"""Per-voxel feature descriptors and intensity harmonization.

Descriptors all return a :class:`~voxelreg.volume.FeatureVolume`; the
built-in ones are registered by name in ``DESCRIPTORS``, the one table
the pipeline and the CLI dispatch through:

* ``normalize_intensity`` - percentile-rescaled raw intensity (1 channel).
* ``edge_features`` - gradient magnitude of the [0, 1]-normalized volume
  (1 channel).
* ``ssc_features`` - a 12-channel self-similarity descriptor built from
  patch distances between the edge-adjacent pairs of a voxel's
  6-neighborhood; invariant to affine intensity changes.

``intensity_standardize`` remaps one volume's intensity scale onto a
reference via decile-landmark piecewise-linear matching over foreground
voxels. ``zscore_channels`` rescales each channel of a feature volume,
built-in or external, to zero mean and unit variance.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import ndimage

from voxelreg.volume import FeatureVolume, ScalarVolume


class DegenerateInputWarning(UserWarning):
    """Raised as a warning when an input has no usable intensity spread."""


# ---------------------------------------------------------------------------
# Intensity features
# ---------------------------------------------------------------------------

def normalize_intensity(vol: ScalarVolume, p_low: float = 1.0, p_high: float = 99.0) -> FeatureVolume:
    """Rescale so the p_low percentile maps to 0 and p_high to 1, clipped.

    A volume with zero percentile spread has no usable contrast; it maps
    to all 0.5 and a :class:`DegenerateInputWarning` is emitted.
    """
    if not (0.0 <= p_low < p_high <= 100.0):
        raise ValueError(f"need 0 <= p_low < p_high <= 100, got {p_low}, {p_high}")
    data = vol.data.astype(np.float64)
    lo, hi = np.percentile(data, [p_low, p_high])
    if hi <= lo:
        warnings.warn(
            "constant intensity volume: normalization is degenerate, returning 0.5",
            DegenerateInputWarning,
        )
        out = np.full(data.shape, 0.5, dtype=np.float32)
    else:
        out = np.clip((data - lo) / (hi - lo), 0.0, 1.0).astype(np.float32)
    return FeatureVolume(out[..., np.newaxis], vol.spacing)


_DECILES = np.arange(0.0, 101.0, 10.0)


def _foreground(data: np.ndarray) -> np.ndarray:
    return data[data > np.percentile(data, 5.0)]


def intensity_standardize(vol: ScalarVolume, reference: ScalarVolume) -> ScalarVolume:
    """Remap vol's intensities onto the reference's decile landmarks.

    The landmarks are the 0th..100th percentiles, in steps of 10, of each
    volume's foreground (the voxels above its 5th percentile). The map is
    piecewise linear between them, with duplicate source landmarks
    collapsed so it stays a function, and extends its end segments
    linearly, so mapping a volume onto its own landmarks is the identity.
    """
    values = vol.data.astype(np.float64)
    src_fg = _foreground(values)
    dst_fg = _foreground(reference.data.astype(np.float64))
    for fg, name in ((src_fg, "input"), (dst_fg, "reference")):
        if fg.size == 0 or np.ptp(fg) == 0.0:
            raise ValueError(f"{name} volume is constant over foreground")
    src, dst = np.percentile(src_fg, _DECILES), np.percentile(dst_fg, _DECILES)
    keep = np.concatenate(([True], np.diff(src) > 0))
    src, dst = src[keep], dst[keep]
    out = np.interp(values, src, dst)
    lo_slope = (dst[1] - dst[0]) / (src[1] - src[0])
    hi_slope = (dst[-1] - dst[-2]) / (src[-1] - src[-2])
    out = np.where(values < src[0], dst[0] + (values - src[0]) * lo_slope, out)
    out = np.where(values > src[-1], dst[-1] + (values - src[-1]) * hi_slope, out)
    return ScalarVolume(out.astype(np.float32), vol.spacing)


# ---------------------------------------------------------------------------
# Edge features
# ---------------------------------------------------------------------------

def edge_features(vol: ScalarVolume) -> FeatureVolume:
    """Gradient magnitude of the min-max [0, 1]-normalized volume.

    Central differences in the interior, one-sided at borders (unit voxel
    spacing). A constant volume yields all zeros.
    """
    if min(vol.dims) < 3:
        raise ValueError(f"edge features need dims >= 3 per axis, got {vol.dims}")
    data = vol.data.astype(np.float64)
    lo, hi = data.min(), data.max()
    if hi > lo:
        data -= lo
        data /= hi - lo
    gx, gy, gz = (np.square(g, out=g) for g in np.gradient(data, edge_order=1)[::-1])
    gx += gy
    gx += gz  # in place, in the order of gx * gx + gy * gy + gz * gz
    return FeatureVolume(np.sqrt(gx, out=gx).astype(np.float32)[..., np.newaxis], vol.spacing)


# ---------------------------------------------------------------------------
# Self-similarity context
# ---------------------------------------------------------------------------

# radius r of the (2r+1)^3 patch, and the floor on a voxel's mean patch distance
SSC_PATCH_RADIUS = 1
SSC_NOISE_FLOOR = 1e-6


# 6-neighborhood offsets (dz, dy, dx), sorted lexicographically.
SIX_NEIGHBORHOOD = (
    (-1, 0, 0),
    (0, -1, 0),
    (0, 0, -1),
    (0, 0, 1),
    (0, 1, 0),
    (1, 0, 0),
)

# The 12 edge-adjacent offset pairs: all (i < j) pairs at squared distance 2,
# i.e. every pair except the three opposite ones.
SSC_PAIRS = tuple(
    (i, j)
    for i in range(6)
    for j in range(i + 1, 6)
    if sum((a - b) ** 2 for a, b in zip(SIX_NEIGHBORHOOD[i], SIX_NEIGHBORHOOD[j])) == 2
)
assert len(SSC_PAIRS) == 12


def ssc_features(vol: ScalarVolume) -> FeatureVolume:
    """12-channel self-similarity descriptor.

    For each voxel x and each edge-adjacent pair (o_i, o_j) of its
    6-neighborhood, the patch SSD

        D_k(x) = sum_p (v(x + p + o_i) - v(x + p + o_j))^2

    is taken over the (2r+1)^3 patch offsets p, with every lookup clamped
    to the volume (edge replication: the volume is edge-padded by one
    voxel so each neighbor shift is a slice, and the patch sum replicates
    the edges of the distance maps). Channels are exp(-D_k(x) / m(x)) where
    m(x) is the mean of the 12 distances floored at ``SSC_NOISE_FLOOR``, so all
    outputs lie in (0, 1] and the descriptor is invariant to affine
    intensity changes a*v + b with a > 0. Distances and channels are
    computed one offset pair at a time in float64, and only the 12
    distances and the float32 output are held whole.
    """
    min_dim = 2 * (SSC_PATCH_RADIUS + 1) + 1
    if min(vol.dims) < min_dim:
        raise ValueError(f"ssc needs dims >= {min_dim} per axis, got {vol.dims}")
    padded = np.pad(vol.data.astype(np.float64), 1, mode="edge")
    nz, ny, nx = vol.data.shape
    shifted = [
        padded[1 + dz : 1 + dz + nz, 1 + dy : 1 + dy + ny, 1 + dx : 1 + dx + nx]
        for dz, dy, dx in SIX_NEIGHBORHOOD
    ]

    # one channel (offset pair) at a time, so no temporary outgrows a channel
    size = 2 * SSC_PATCH_RADIUS + 1
    dists = np.empty((12, nz, ny, nx), dtype=np.float64)
    for k, (i, j) in enumerate(SSC_PAIRS):
        diff = np.subtract(shifted[i], shifted[j], out=dists[k])
        np.multiply(diff, diff, out=diff)
        ndimage.uniform_filter(diff, size=size, mode="nearest", output=diff)
        diff *= float(size**3)

    mean_dist = dists.mean(axis=0)  # summed in channel order
    np.maximum(mean_dist, SSC_NOISE_FLOOR, out=mean_dist)
    out = np.empty((nz, ny, nx, 12), dtype=np.float32)
    for k, dist in enumerate(dists):
        np.negative(dist, out=dist)
        np.divide(dist, mean_dist, out=dist)
        out[..., k] = np.exp(dist, out=dist)
    return FeatureVolume(out, vol.spacing)


# Built-in descriptors by name, each ScalarVolume -> FeatureVolume with its
# default parameters. The pipeline and the CLI both dispatch through this
# table, so a new descriptor is one entry here.
DESCRIPTORS = {
    "intensity": normalize_intensity,
    "edge": edge_features,
    "ssc": ssc_features,
}


# ---------------------------------------------------------------------------
# Channel z-scoring
# ---------------------------------------------------------------------------

def zscore_channels(fv: FeatureVolume) -> FeatureVolume:
    """Rescale each channel to zero mean, unit variance.

    Channels with zero variance are centered only; useful when externally
    produced channels carry arbitrary scales (the SAD similarity is
    scale-sensitive).
    """
    data = fv.data.astype(np.float64)
    flat = data.reshape(-1, fv.channels)
    mean = flat.mean(axis=0)
    std = flat.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    out = ((flat - mean) / std).reshape(data.shape).astype(np.float32)
    return FeatureVolume(out, fv.spacing)

