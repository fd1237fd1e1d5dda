"""Discrete displacement-space optimization core.

The displacement search works on a quantized candidate set: every voxel
may move by any 3-vector whose components lie in {0, +-q, +-2q, ...,
+-l_max}. For each candidate d, a dense cost map holds the per-voxel
feature dissimilarity (sum of absolute differences) between the fixed
volume at x and the moving volume at x + d; the stack of all cost maps is
the cost volume. Smoothness is realized by summing costs over a spatial
patch (``aggregate_costs``) and by Gaussian-smoothing each candidate's
cost map (``regularize_dsv``) before the per-voxel argmin
(``winner_takes_all``).

Per level, both feature volumes are copied once to float64, channel-first
(C, z, y, x), the moving one edge-padded by ceil(l_max) voxels, so every
candidate shift (and trilinear corner) is a slice and edge padding gives
the border clamping of a shifted lookup. ``_label_cost_map`` serves both
``build_dsv`` and ``pipeline``'s chunked search; box-sum and Gaussian
filters run in place on whole (labels, z, y, x) batches.

All operations are pure functions over immutable inputs and are
bit-deterministic: the cost volume is label-major (one contiguous 3-D map
per candidate), SAD accumulates channel by channel in channel order, and
argmin ties resolve by smallest L1 displacement, then lexicographic
(dz, dy, dx), so the zero displacement always wins a tie against any
other candidate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from voxelreg.volume import (
    DisplacementField,
    FeatureVolume,
    VolumeHeader,
    _trilinear_zyx,
)


@dataclass(frozen=True)
class DisplacementSet:
    """The quantized displacement candidates, in canonical order.

    ``displacements`` has shape (count, 3) with rows (dx, dy, dz),
    ordered lexicographically by (dz, dy, dx) ascending. The set is the
    full Cartesian cube, contains zero exactly once and is closed under
    negation.
    """

    q: float
    l_max: float
    displacements: np.ndarray

    def __post_init__(self):
        disp = np.ascontiguousarray(np.asarray(self.displacements, dtype=np.float64))
        disp.setflags(write=False)
        object.__setattr__(self, "displacements", disp)

    @property
    def count(self) -> int:
        return self.displacements.shape[0]

    def priority_order(self) -> np.ndarray:
        """Label indices sorted by the tie-break rule: L1 norm, then (dz, dy, dx)."""
        d = self.displacements
        l1 = np.abs(d).sum(axis=1)
        return np.lexsort((d[:, 0], d[:, 1], d[:, 2], l1))


def build_displacement_set(q: float, l_max: float) -> DisplacementSet:
    """Cartesian cube of per-axis steps {0, +-q, ..., +-l_max}.

    ``l_max`` must be an integer multiple of ``q``; the result has
    (2k + 1)^3 candidates for k = l_max / q.
    """
    if q <= 0:
        raise ValueError(f"q must be > 0, got {q}")
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max}")
    k = l_max / q
    if abs(k - round(k)) > 1e-9:
        raise ValueError(f"l_max ({l_max}) must be an integer multiple of q ({q})")
    k = int(round(k))
    steps = np.arange(-k, k + 1, dtype=np.float64) * q
    dz, dy, dx = np.meshgrid(steps, steps, steps, indexing="ij")
    disp = np.column_stack([dx.ravel(), dy.ravel(), dz.ravel()])
    return DisplacementSet(q=float(q), l_max=float(l_max), displacements=disp)


@dataclass(frozen=True)
class CostVolume:
    """Per-voxel, per-candidate similarity costs, label-major.

    ``costs`` has shape (label_count, z, y, x), float64, all entries
    finite and non-negative.
    """

    dims: tuple[int, int, int]  # (x, y, z) of the fixed grid
    costs: np.ndarray

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=np.float64)
        expected = (costs.shape[0], self.dims[2], self.dims[1], self.dims[0])
        if costs.shape != expected:
            raise ValueError(f"costs shape {costs.shape} != expected {expected}")
        if not np.isfinite(costs).all() or costs.min(initial=0.0) < 0.0:
            raise ValueError("costs must be finite and non-negative")
        costs = np.ascontiguousarray(costs)
        costs.setflags(write=False)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def label_count(self) -> int:
        return self.costs.shape[0]


def sad(a, b) -> float:
    """Sum of absolute differences, accumulated in channel order."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"channel count mismatch: {a.shape} vs {b.shape}")
    total = 0.0
    for av, bv in zip(a.tolist(), b.tolist()):
        total += abs(av - bv)
    return total


def _check_feature_pair(f_fixed: FeatureVolume, f_moving: FeatureVolume):
    if f_fixed.dims != f_moving.dims:
        raise ValueError(f"dims mismatch: {f_fixed.dims} vs {f_moving.dims}")
    if f_fixed.channels != f_moving.channels:
        raise ValueError(f"channel mismatch: {f_fixed.channels} vs {f_moving.channels}")


def _level_arrays(f_fixed: FeatureVolume, f_moving: FeatureVolume, disp: DisplacementSet):
    """Float64 (z, y, x, C) views of channel-first copies of both volumes.

    The moving copy is edge-padded by ceil(max |d|), the reach of the
    farthest trilinear corner.
    """
    _check_feature_pair(f_fixed, f_moving)
    pad = math.ceil(np.abs(disp.displacements).max(initial=0.0))
    fixed = np.ascontiguousarray(np.moveaxis(f_fixed.data, -1, 0), dtype=np.float64)
    moving = np.moveaxis(f_moving.data, -1, 0).astype(np.float64)
    moving = np.pad(moving, [(0, 0)] + [(pad, pad)] * 3, mode="edge")
    return np.moveaxis(fixed, 0, -1), np.moveaxis(moving, 0, -1)


def _label_cost_map(fixed64: np.ndarray, moving64: np.ndarray, d: np.ndarray, out=None) -> np.ndarray:
    """Per-voxel SAD between fixed(x) and moving(x + d), shape (z, y, x), into ``out``.

    Both inputs are (z, y, x, C) views as ``_level_arrays`` returns them;
    the moving pad is read off the shape difference. Integer displacements
    are direct lookups (bit-exact); fractional ones blend the 8 integer
    corners with trilinear weights, each channel independently.
    """
    fixed, moving = np.moveaxis(fixed64, -1, 0), np.moveaxis(moving64, -1, 0)
    dims = fixed.shape[1:]
    pad = (moving.shape[1] - dims[0]) // 2
    shift = (float(d[2]), float(d[1]), float(d[0]))
    base = [math.floor(v) for v in shift]
    corners = []  # (weight, window) of every corner with a nonzero weight
    for offset in itertools.product((0, 1), repeat=3):
        w = 1.0
        for v, b, c in zip(shift, base, offset):
            w *= (v - b) if c else 1.0 - (v - b)
        if w != 0.0:
            window = tuple(slice(pad + b + c, pad + b + c + n) for b, c, n in zip(base, offset, dims))
            corners.append((w, window))

    out = np.empty(dims) if out is None else out
    diff, sample = np.empty(dims), np.empty(dims)
    for c in range(fixed.shape[0]):
        shifted = moving[c][corners[0][1]]
        if len(corners) > 1:
            shifted = np.multiply(shifted, corners[0][0], out=sample)
            for w, window in corners[1:]:
                shifted += np.multiply(moving[c][window], w, out=diff)
        acc = out if c == 0 else diff
        np.abs(np.subtract(fixed[c], shifted, out=acc), out=acc)
        if c > 0:
            out += diff
    return out


def build_dsv(f_fixed: FeatureVolume, f_moving: FeatureVolume, disp: DisplacementSet) -> CostVolume:
    """Dense cost volume: costs[d][x] = SAD(fixed(x), moving(x + d))."""
    fixed64, moving64 = _level_arrays(f_fixed, f_moving, disp)
    costs = np.empty((disp.count,) + fixed64.shape[:3], dtype=np.float64)
    for li in range(disp.count):
        _label_cost_map(fixed64, moving64, disp.displacements[li], out=costs[li])
    return CostVolume(dims=f_fixed.dims, costs=costs)


def _box_sum_map(costs: np.ndarray, radius: int) -> np.ndarray:
    """Box-sum every map of a (labels, z, y, x) batch in place, clamped at 0."""
    size = 2 * radius + 1
    ndimage.uniform_filter(costs, size=(1, size, size, size), mode="nearest", output=costs)
    costs *= float(size**3)
    # rolling sums can leave tiny negative residues on all-zero maps
    np.maximum(costs, 0.0, out=costs)
    return costs


def aggregate_costs(dsv: CostVolume, patch_radius: int) -> CostVolume:
    """Box-sum each candidate's cost map over the (2r+1)^3 window.

    Window positions past the border are clamped (edge replication);
    radius 0 is the identity.
    """
    if patch_radius < 0:
        raise ValueError("patch_radius must be >= 0")
    if patch_radius == 0:
        return dsv
    return CostVolume(dims=dsv.dims, costs=_box_sum_map(dsv.costs.copy(), patch_radius))


def _smooth_map(costs: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian-smooth every map of a (labels, z, y, x) batch in place, clamped at 0."""
    ndimage.gaussian_filter(costs, sigma=(0.0, sigma, sigma, sigma), mode="nearest", output=costs)
    np.maximum(costs, 0.0, out=costs)
    return costs


def regularize_dsv(dsv: CostVolume, smooth_sigma: float) -> CostVolume:
    """Gaussian-smooth each candidate's cost map; sigma 0 is the identity."""
    if smooth_sigma < 0:
        raise ValueError("smooth_sigma must be >= 0")
    if smooth_sigma == 0:
        return dsv
    return CostVolume(dims=dsv.dims, costs=_smooth_map(dsv.costs.copy(), smooth_sigma))


def winner_takes_all(dsv: CostVolume, disp: DisplacementSet) -> DisplacementField:
    """Per-voxel argmin over candidates with deterministic tie-breaking.

    Candidates are scanned in priority order (smallest L1 displacement
    first, then lexicographic (dz, dy, dx)), so among equal costs the
    smallest displacement wins and self-similar inputs yield the zero
    field.
    """
    if dsv.label_count != disp.count:
        raise ValueError(f"label_count {dsv.label_count} != |displacements| {disp.count}")
    order = disp.priority_order()
    best = np.argmin(dsv.costs[order], axis=0)
    field = disp.displacements[order][best].astype(np.float32)
    header = VolumeHeader(dsv.dims, channels=3, dtype="float32")
    return DisplacementField(header, field)


def energy(f_fixed: FeatureVolume, f_moving: FeatureVolume, field: DisplacementField, alpha: float) -> float:
    """Diagnostic objective: total SAD under the field plus alpha * |grad u|^2.

    The data term warps the moving features by the field (trilinear,
    clamped) and sums per-voxel SAD; the smoothness term sums squared
    forward differences of each field component over each axis (no
    contribution where the forward neighbor falls outside). The winner
    field at alpha = 0, patch_radius = 0 can never exceed the zero-field
    energy.
    """
    _check_feature_pair(f_fixed, f_moving)
    if field.dims != f_fixed.dims:
        raise ValueError(f"field dims {field.dims} != volume dims {f_fixed.dims}")
    nz, ny, nx = f_fixed.data.shape[:3]
    zz, yy, xx = np.meshgrid(
        np.arange(nz, dtype=np.float64),
        np.arange(ny, dtype=np.float64),
        np.arange(nx, dtype=np.float64),
        indexing="ij",
    )
    u = field.data.astype(np.float64)
    warped = _trilinear_zyx(
        f_moving.data, zz + u[..., 2], yy + u[..., 1], xx + u[..., 0]
    )
    data_term = float(np.abs(f_fixed.data.astype(np.float64) - warped).sum())

    grad_term = 0.0
    for c in range(3):
        comp = u[..., c]
        grad_term += float((np.diff(comp, axis=0) ** 2).sum())
        grad_term += float((np.diff(comp, axis=1) ** 2).sum())
        grad_term += float((np.diff(comp, axis=2) ** 2).sum())
    return data_term + float(alpha) * grad_term
