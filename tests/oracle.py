"""Reference paths the tests check the library against.

The full cost volume is the search ``regcore.chunked_dsv_execution``
runs without materializing: every candidate's SAD map, box-summed over a
patch, Gaussian-smoothed, then the per-voxel argmin. ``cost_volume``,
``filter_costs`` and ``winner_field`` build it one stage at a time through
regcore's own per-label kernel and batch filters, so both paths share
one cost kernel, while the argmin is ``np.argmin`` and never the search
loop's running best, so comparing the two does not compare the loop
with itself. ``reference_field`` chains the three stages.

The rest are naive loops over voxels, labels and window offsets, which
the kernels must match up to rounding, plus the energy and mean-Jaccard
figures the acceptance criteria score.
"""

import numpy as np

from voxelreg import regcore
from voxelreg.volume import DisplacementField, warp_scalar


def cost_volume(f_fixed, f_moving, disp) -> np.ndarray:
    """Float32 (labels, z, y, x) costs: costs[d][x] = SAD(fixed(x), moving(x + d))."""
    fixed, moving = regcore._level_arrays(f_fixed, f_moving, disp, 1)
    costs = np.empty((disp.count,) + fixed.shape[:3], dtype=regcore.SEARCH_DTYPE)
    scratch = regcore._sad_scratch(fixed.shape[:3], fixed.shape[3])
    blended = np.empty(moving.size if disp.fractional else 0, regcore.SEARCH_DTYPE)
    for labels in regcore._weight_groups(disp):
        source = regcore._blend(moving, disp.displacements[labels[0]], blended, scratch)
        for label in labels:
            regcore._label_cost_map(fixed, source, disp.displacements[label], costs[label], scratch)
    return costs


def filter_costs(costs, patch_radius, smooth_sigma) -> np.ndarray:
    """A copy of ``costs`` box-summed over (2r + 1)^3 windows, then
    Gaussian-smoothed, both edge-clamped; a radius or sigma of 0 skips its filter."""
    out = costs.copy()
    scratch = np.empty(out.shape[1:], out.dtype)
    if patch_radius > 0:
        regcore._box_sum_map(out, patch_radius, scratch)
    if smooth_sigma > 0:
        regcore._smooth_map(out, smooth_sigma, scratch)
    return out


def winner_field(costs, disp) -> DisplacementField:
    """Each voxel's first lowest-cost label (the lowest label among ties,
    so the smallest displacement), gathered in float32."""
    return DisplacementField(disp.displacements.astype(np.float32)[np.argmin(costs, axis=0)])


def reference_field(f_fixed, f_moving, disp, patch_radius, smooth_sigma) -> DisplacementField:
    """The winner field of the filtered full cost volume."""
    costs = filter_costs(cost_volume(f_fixed, f_moving, disp), patch_radius, smooth_sigma)
    return winner_field(costs, disp)


def energy(f_fixed, f_moving, field, alpha) -> float:
    """Total SAD under the field plus alpha * |grad u|^2.

    The data term warps the moving features by the field (trilinear,
    clamped) and sums per-voxel SAD; the smoothness term sums squared
    forward differences of each field component over each axis (no
    contribution where the forward neighbor falls outside). The winner
    field at alpha = 0, patch_radius = 0 can never exceed the zero-field
    energy.
    """
    warped = warp_scalar(f_moving, field).data  # refuses a field of other dims
    data_term = float(np.abs(f_fixed.data.astype(np.float64) - warped).sum())
    u = field.data.astype(np.float64)
    grad_term = sum(float((np.diff(u[..., c], axis=axis) ** 2).sum()) for c in range(3) for axis in range(3))
    return data_term + float(alpha) * grad_term


def dsv_oracle(fixed, moving, displacements):
    """Quadruple loop: voxels x labels, clamped lookup, channel-order SAD."""
    nz, ny, nx, nc = fixed.shape
    out = np.zeros((len(displacements), nz, ny, nx))
    for li, (dx, dy, dz) in enumerate(displacements):
        for z in range(nz):
            for y in range(ny):
                for x in range(nx):
                    zi = min(max(z + int(dz), 0), nz - 1)
                    yi = min(max(y + int(dy), 0), ny - 1)
                    xi = min(max(x + int(dx), 0), nx - 1)
                    acc = 0.0
                    for c in range(nc):
                        acc += abs(float(fixed[z, y, x, c]) - float(moving[zi, yi, xi, c]))
                    out[li, z, y, x] = acc
    return out


def box_sum_oracle(cost_map, radius):
    """Window sum over every offset of the (2r + 1)^3 box, clamped lookup."""
    nz, ny, nx = cost_map.shape
    out = np.zeros_like(cost_map, dtype=np.float64)
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                acc = 0.0
                for dz in range(-radius, radius + 1):
                    for dy in range(-radius, radius + 1):
                        for dx in range(-radius, radius + 1):
                            zi = min(max(z + dz, 0), nz - 1)
                            yi = min(max(y + dy, 0), ny - 1)
                            xi = min(max(x + dx, 0), nx - 1)
                            acc += float(cost_map[zi, yi, xi])
                out[z, y, x] = acc
    return out


def gaussian_smooth_oracle(cost_map, sigma):
    """Direct separable Gaussian convolution, replicated borders."""
    radius = int(4.0 * sigma + 0.5)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * xs * xs / (sigma * sigma))
    kernel /= kernel.sum()
    out = cost_map.astype(np.float64)
    for axis in range(3):
        moved = np.moveaxis(out, axis, 0)
        res = np.zeros_like(moved)
        n = moved.shape[0]
        for i in range(n):
            for k, w in enumerate(kernel):
                j = min(max(i + k - radius, 0), n - 1)
                res[i] += w * moved[j]
        out = np.moveaxis(res, 0, axis)
    return out


def mean_jc_oracle(a, b):
    """Mean Jaccard (%) over the nonzero labels of either volume, plain loops."""
    labels = sorted((set(np.unique(a)) | set(np.unique(b))) - {0})
    vals = []
    for lab in labels:
        ma, mb = a == lab, b == lab
        union = np.logical_or(ma, mb).sum()
        inter = np.logical_and(ma, mb).sum()
        vals.append(100.0 * inter / union)
    return sum(vals) / len(vals)
