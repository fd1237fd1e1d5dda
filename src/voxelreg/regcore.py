"""Discrete displacement-space optimization core.

The displacement search works on a quantized candidate set: every voxel
may move by any 3-vector whose components lie in {0, +-q, +-2q, ...,
+-l_max}. For each candidate d, a dense cost map holds the per-voxel
feature dissimilarity (sum of absolute differences) between the fixed
volume at x and the moving volume at x + d. Smoothness is realized by
box-summing each map over a spatial patch (``_box_sum_map``) and
Gaussian-smoothing it (``_smooth_map``); each voxel then takes the
candidate of lowest cost (winner-takes-all). ``chunked_dsv_execution``
runs this search a batch of maps at a time and never holds the stack of
all maps, the cost volume. The tests' reference, ``tests/oracle.py``,
builds that volume from the same kernels and takes its argmin.

The search runs in float32 (``SEARCH_DTYPE``), the features' own dtype:
per level, both feature volumes are copied once to float32,
channel-first (C, z, y, x), the moving one edge-padded by ceil(l_max)
voxels, so every candidate shift (and trilinear corner) is a slice and
edge padding gives the border clamping of a shifted lookup. Cost maps
and the SAD scratch are float32 as well, which halves the bytes both hot
kernels move.

Candidates whose trilinear corners (offsets and weights, ``_corners``)
are equal form a weight group; all integer candidates form one, and
q = 0.5 gives 2**3 groups. ``_blend`` sums a group's weighted corners
over the whole padded moving copy once, and each candidate of the group
then reads one window of that blend, at floor(d): the integer group
reads the copy itself. ``_label_cost_map``, the per-candidate kernel,
computes SAD over groups of channels, one subtract and one abs per
(k, z, y, x) window, so a candidate costs a few large array operations,
not a few per channel. Box-sum and Gaussian filters run in place on
(labels, z, y, x) batches. A filter is its 1-D taps (``_box_taps``,
``_gauss_taps``); its plan (``_filter_plan``) folds them and the edge
clamping into one (n, n) float64 matrix per axis (``_clamped_operator``),
casts that to the maps' dtype (a float64 matrix would make float32
products run in float64) and cuts it into band tiles. The tiles are applied as stacked matrix
products over a few maps at a time, each 2-D product small enough that
BLAS runs it on the calling thread.

The chunked search splits the candidates into work units: each weight
group's labels, ascending, cut into contiguous pieces of at most
ceil(count / W) candidates for W workers, so an integer level is W
slices of the labels. Worker w takes unit w, then the remaining units
one at a time, longest first, and blends each unit's group into a
buffer of its own, so a level holds at most W blends. A unit is walked
in label order in batches, and each filtered map replaces the running
per-voxel (best cost, best label) pair where it is strictly lower
(``_keep_better``). A batch holds as many cost maps as the SAD scratch
(``_sad_scratch``, one block of k maps), so the filters take a batch in
one pass over that scratch, free once the batch is scored. A worker
walks its first unit into its empty best that way and each later one
straight into the same best, each map taken where (cost, label) is lower
(``_keep_lower``, with no memory beyond the worker's mask); the workers'
bests merge the same way. The lowest (cost, label) is what one strict
less-than scan over all labels keeps, so the winner does not depend on
which worker took which unit, or when. The threads share
one interpreter lock, which numpy releases only inside its array loops,
so any Python work between array calls runs on one thread at a time.
That work is cached: a shift's corners (``_corners``) and its window's
index tuple per (shift, pad, dims) (``_window``), a filter's matrices
and band tiles per (taps, parameter, dims, dtype) (``_filter_plan``). A
cached candidate or batch then costs only its array calls. The caches
hold exactly what the uncached code computed, so no bit changes.

All operations are pure functions over immutable inputs and are
bit-deterministic: each cost map is one contiguous 3-D array, a blended
sample's bits depend only on its corners' samples and weights, SAD
accumulates channel by channel in channel order whatever the group size,
a filtered map's bits depend only on the map and the grid, not on its
batch or position (and maps that agree on an output voxel's window agree
on its bits, so exact ties survive filtering), and argmin ties resolve to the lowest label. A label is its
tie-break priority rank (``DisplacementSet``: smallest L1 displacement
first, then (dz, dy, dx)), so zero always wins a tie.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from voxelreg.volume import DisplacementField, FeatureVolume

# dtype of the per-level feature copies, cost maps and SAD scratch
SEARCH_DTYPE = np.dtype(np.float32)


@dataclass(frozen=True, eq=False)
class DisplacementSet:
    """The quantized displacement candidates, in tie-break priority order.

    ``displacements`` has shape (count, 3) with rows (dx, dy, dz), sorted
    here by L1 norm, then (dz, dy, dx), whatever order they come in, so
    label i (row i) is priority rank i. The cube ``build_displacement_set``
    makes contains zero once, as label 0, and is closed under negation.
    """

    q: float
    l_max: float
    displacements: np.ndarray

    def __post_init__(self):
        disp = np.asarray(self.displacements, dtype=np.float64)
        l1 = np.abs(disp).sum(axis=1)
        disp = np.ascontiguousarray(disp[np.lexsort((disp[:, 0], disp[:, 1], disp[:, 2], l1))])
        disp.setflags(write=False)
        object.__setattr__(self, "displacements", disp)

    @property
    def count(self) -> int:
        return self.displacements.shape[0]

    @property
    def fractional(self) -> bool:
        """Whether some candidate has a non-integer component."""
        return bool((self.displacements % 1).any())


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


def _check_feature_pair(f_fixed: FeatureVolume, f_moving: FeatureVolume):
    if f_fixed.dims != f_moving.dims:
        raise ValueError(f"dims mismatch: {f_fixed.dims} vs {f_moving.dims}")
    if f_fixed.channels != f_moving.channels:
        raise ValueError(f"channel mismatch: {f_fixed.channels} vs {f_moving.channels}")


def _check_cost_bound(terms: str, scale: int, *arrays):
    """Refuse ``arrays`` whose largest |value| times ``scale`` (``terms``) could make an infinite cost."""
    largest = float(max(max(a.max(initial=0.0), -a.min(initial=0.0)) for a in arrays))
    if scale * largest >= float(np.finfo(SEARCH_DTYPE).max):
        raise ValueError(f"features too large for float32 costs: {terms} {largest:.3g} reaches the float32"
                         " maximum; z-score them with voxelreg features --descriptor external --zscore")


def _level_arrays(f_fixed: FeatureVolume, f_moving: FeatureVolume, disp: DisplacementSet, box: int):
    """Float32 (z, y, x, C) views of channel-first copies of both volumes.

    The moving copy is edge-padded by ceil(max |d|), the reach of the
    farthest trilinear corner. It is allocated once at its padded shape:
    the interior is copied in, then each axis's two faces replicate the
    edge planes, z, y, x in turn, as ``np.pad(mode="edge")`` does. Refuses
    features whose SAD summed over ``box`` voxels could overflow float32.
    """
    _check_feature_pair(f_fixed, f_moving)
    pad = math.ceil(np.abs(disp.displacements).max(initial=0.0))
    fixed = np.ascontiguousarray(np.moveaxis(f_fixed.data, -1, 0), dtype=SEARCH_DTYPE)
    src = np.moveaxis(f_moving.data, -1, 0)
    moving = np.empty(src.shape[:1] + tuple(n + 2 * pad for n in src.shape[1:]), SEARCH_DTYPE)
    moving[(slice(None),) + tuple(slice(pad, pad + n) for n in src.shape[1:])] = src
    for axis, n in enumerate(src.shape[1:], start=1):
        # the earlier axes are padded already, so the faces span their pads;
        # each edge plane is copied out once, as numpy would otherwise copy
        # it for every face plane (the two overlap in memory bounds)
        face = np.moveaxis(moving, axis, 0)
        face[:pad] = face[pad].copy()
        face[pad + n :] = face[pad + n - 1].copy()
    c = fixed.shape[0]
    _check_cost_bound(f"2 x {c} channels x {box} patch voxels x max |feature|", 2 * c * box, fixed, moving)
    return np.moveaxis(fixed, 0, -1), np.moveaxis(moving, 0, -1)


# bytes of one SAD scratch, unless a single map is larger
_SCRATCH_BYTES = 2**20


def _sad_scratch(dims, channels: int, workers=None) -> np.ndarray:
    """Uninitialized scratch for ``_label_cost_map``: (k, z, y, x) float32.

    k, the channels per SAD group, is as many as keep the scratch within
    1 MiB (2**20 bytes, 2**18 float32 values), but at least 1 and at most
    ``channels``. With ``workers``, one scratch per worker, stacked on a
    leading axis. ``_blend`` and the filters reuse it between candidates,
    so ``chunked_dsv_execution`` sizes its batches to its k maps.
    """
    values = _SCRATCH_BYTES // SEARCH_DTYPE.itemsize
    k = max(1, min(channels, values // math.prod(dims)))
    lead = () if workers is None else (workers,)
    return np.empty(lead + (k,) + tuple(dims), dtype=SEARCH_DTYPE)


# A level asks for each of its candidates once per registration, from every
# search thread. The bounds hold the default schedule's 729 + 125 candidates
# (about 0.5 KB each in either cache), so repeated registrations on one grid
# hit as well, while an LRU scan over more candidates than they hold only
# misses, at the uncached cost.
@functools.lru_cache(maxsize=2048)
def _corners(shift: tuple) -> tuple:
    """(weight, (oz, oy, ox)) of each trilinear corner of ``shift`` = (dx, dy, dz)
    with a nonzero weight, in (z, y, x) corner order: the corner is the
    voxel at floor(shift) + offset. An integer shift has the one corner
    (1.0, (0, 0, 0)); shifts whose corners are equal form a weight group."""
    zyx = shift[::-1]
    base = [math.floor(v) for v in zyx]
    corners = []
    for offset in itertools.product((0, 1), repeat=3):
        w = 1.0
        for v, b, c in zip(zyx, base, offset):
            w *= (v - b) if c else 1.0 - (v - b)
        if w != 0.0:
            corners.append((w, offset))
    return tuple(corners)


_EVERY_CHANNEL = (slice(None),)  # shared by every cached index tuple


@functools.lru_cache(maxsize=2048)
def _window(shift: tuple, pad: int, dims: tuple) -> tuple:
    """The full (C, z, y, x) slice tuple of the window at floor(``shift``),
    ``shift`` = (dx, dy, dz), in a channel-first moving copy padded by
    ``pad`` voxels around ``dims`` (z, y, x)."""
    base = [math.floor(v) for v in shift[::-1]]
    return _EVERY_CHANNEL + tuple(slice(pad + b, pad + b + n) for b, n in zip(base, dims))


def _weight_groups(disp: DisplacementSet) -> list[np.ndarray]:
    """The candidates' labels, one ascending array per weight group
    (``_corners``), groups in order of their first label. The integer
    candidates form one group."""
    groups = {}
    for label, d in enumerate(disp.displacements.tolist()):
        groups.setdefault(_corners(tuple(d)), []).append(label)
    return [np.array(labels) for labels in groups.values()]


# float32 values per piece of a blend: a piece, its products and the corner
# reads then stay in cache (2**17 ran faster than 2**14 to 2**16 and 2**18
# at 32^3 and 64^3 with 12 channels)
_BLEND_PIECE = 2**17


def _blend(moving: np.ndarray, d: np.ndarray, out, scratch) -> np.ndarray:
    """The padded moving copy blended with the trilinear weights of ``d``'s
    weight group, a (z, y, x, C) view as ``moving`` is.

    ``moving`` is the moving view ``_level_arrays`` returns; an integer
    ``d`` returns it as it is. Every candidate of the group reads its
    blended samples as one window, at its floor, of the result
    (``_label_cost_map``). An element is w0 * m[p] + w1 * m[p + o1] + ...
    over the corners in order, in float32, each product rounded before it
    is added, as a per-candidate blend would compute it. The sum runs over
    the flat channel-first copy, so an element whose corners would cross a
    far face reads the next row, plane or channel; no window reads those
    (along a fractional axis, ceil(d) <= pad ends each window a voxel
    short of the far face), and the last ones, with no corner to read,
    are copied. The result is written to ``out`` (any contiguous float32
    array of the copy's size; an integer ``d`` never reads it), and the
    products go through ``scratch`` (any contiguous float32 array, as
    ``_sad_scratch`` makes it), a piece of at most ``_BLEND_PIECE`` values
    or the scratch's size at a time.
    """
    (w0, _), *rest = _corners(tuple(d.tolist()))
    if not rest:
        return moving
    src = moving.transpose(3, 0, 1, 2)
    flat = src.reshape(-1)
    dst = out.reshape(-1)
    ny, nx = src.shape[2:]
    tmp = scratch.reshape(-1)[:_BLEND_PIECE]
    offsets = [(w, (oz * ny + oy) * nx + ox) for w, (oz, oy, ox) in rest]
    end = flat.size - offsets[-1][1]  # the last corner reaches farthest
    for start in range(0, end, tmp.size):
        stop = min(start + tmp.size, end)
        piece = np.multiply(flat[start:stop], w0, out=dst[start:stop])
        for w, o in offsets:
            piece += np.multiply(flat[start + o : stop + o], w, out=tmp[: stop - start])
    dst[end:] = flat[end:]
    return dst.reshape(src.shape).transpose(1, 2, 3, 0)


def _label_cost_map(fixed64: np.ndarray, moving64: np.ndarray, d: np.ndarray, out, scratch) -> np.ndarray:
    """Per-voxel SAD between fixed(x) and moving(x + d), shape (z, y, x), into ``out``.

    Both inputs are (z, y, x, C) views as ``_level_arrays`` returns them
    (float32; the names predate that, and the benchmark's tracer reads
    ``fixed64`` and ``d``), ``moving64`` blended for ``d``'s weight group
    (``_blend``: the level copy itself for an integer ``d``). ``d`` is an
    array (dx, dy, dz). The kernel reads one window of ``moving64``, at
    floor(d), whose slices come from ``_window`` (the pad is read off the
    shape difference), so a cached candidate costs only its array
    operations. ``out`` is a (z, y, x) map of the inputs' dtype.

    Channels are taken k at a time, k read off ``scratch`` (as ``_sad_scratch``
    makes it), so each group costs one subtract and one abs over a (k, z, y, x)
    window. The first group is reduced into ``out`` along the channel axis, later
    ones are added to it row by row: the sum runs in channel order either way.
    """
    fixed, moving = fixed64.transpose(3, 0, 1, 2), moving64.transpose(3, 0, 1, 2)
    channels, dims = fixed.shape[0], fixed.shape[1:]
    window = _window(tuple(d.tolist()), (moving.shape[1] - dims[0]) // 2, dims)
    k = scratch.shape[0]
    for c0 in range(0, channels, k):
        n = min(k, channels - c0)
        # a lone first channel goes straight into out, with no extra pass
        rows = out[None] if c0 == 0 and n == 1 else scratch[:n]
        np.abs(np.subtract(fixed[c0 : c0 + n], moving[c0 : c0 + n][window], out=rows), out=rows)
        if c0 > 0:
            for row in rows:
                out += row
        elif n > 1:
            np.add.reduce(rows, axis=0, out=out)
    return out


# Largest 2-D product, in multiply-adds, that the filters hand to BLAS:
# OpenBLAS runs a product up to this size on the calling thread, so filters
# on concurrent search threads start no BLAS threads to compete with them
# (one large product per pass ran slower end to end than scipy's filters).
_MAX_PRODUCT = 2**18


def _clamped_operator(n: int, taps: np.ndarray) -> np.ndarray:
    """Correlation with ``taps`` along an n-voxel axis as an (n, n) float64
    matrix, edge-clamped: m[i, clamp(i + k - R)] += taps[k], R = len(taps) // 2."""
    reach = len(taps) // 2
    rows = np.repeat(np.arange(n), len(taps))
    cols = np.clip(rows + np.tile(np.arange(len(taps)) - reach, n), 0, n - 1)
    m = np.zeros((n, n))
    np.add.at(m, (rows, cols), np.tile(taps, n))
    return m


def _box_taps(radius: int) -> np.ndarray:
    # integer window counts: the sums need no rescaling
    return np.ones(2 * radius + 1)


def _gauss_taps(sigma: float) -> np.ndarray:
    # scipy's own taps (truncation and normalization), read off an impulse
    radius = int(4.0 * sigma + 0.5)
    impulse = np.zeros(2 * radius + 1)
    impulse[radius] = 1.0
    return ndimage.gaussian_filter1d(impulse, sigma, mode="constant")


def _row_tiles(n: int, m: int, reach: int) -> tuple[tuple[int, int, int, int], ...]:
    """(i0, i1, b0, b1) per tile: output rows [i0, i1) of an n-row operator
    applied to (n, m) slices, and the input band [b0, b1) they read.

    One tile when the dense product fits ``_MAX_PRODUCT``; otherwise T rows
    per tile, T the largest with T * min(n, T + 2 * reach) * m within it.
    """
    if n * n * m <= _MAX_PRODUCT:
        return ((0, n, 0, n),)
    t = 1
    while (t + 1) * min(n, t + 1 + 2 * reach) * m <= _MAX_PRODUCT:
        t += 1
    return tuple(
        (i0, min(i0 + t, n), max(0, i0 - reach), min(n, i0 + t + reach)) for i0 in range(0, n, t)
    )


# a registration uses one plan per filter stage and level grid; the bound
# keeps a long batch over many grids from holding every plan it ever built
@functools.lru_cache(maxsize=16)
def _filter_plan(taps, param, dims: tuple, dtype: np.dtype) -> tuple:
    """The products of one filter over (labels, *dims) batches of ``dtype``.

    ``taps(param)`` gives the filter's 1-D taps. Returns the x, y and z
    passes, each a tuple of (matrix, source, target) per band tile
    (``_row_tiles``): the matrix is a read-only view of the tile of the
    axis's ``_clamped_operator``, cast once to a C-contiguous ``dtype`` copy
    (transposed for x), source and target index the maps for the x pass
    (maps @ matrix) and the y pass (matrix @ maps), and the
    (labels, y, z, x) transposed maps for the z pass.
    """
    nz, ny, nx = dims
    weights = taps(param)
    plan = []
    for n, m, x_pass in ((nx, ny, True), (ny, nx, False), (nz, nx, False)):
        op = _clamped_operator(n, weights)
        op = np.ascontiguousarray(op.T if x_pass else op, dtype=dtype)
        op.setflags(write=False)
        tiles = []
        for i0, i1, b0, b1 in _row_tiles(n, m, len(weights) // 2):
            band, rows = slice(b0, b1), slice(i0, i1)
            if x_pass:  # the band indexes the maps' last axis
                tiles.append((op[band, rows], (..., band), (..., rows)))
            else:  # the band indexes the maps' second-last axis
                tiles.append((op[rows, band], (..., band, slice(None)), (..., rows, slice(None))))
        plan.append(tuple(tiles))
    return tuple(plan)


def _filter_maps(costs: np.ndarray, plan, scratch) -> np.ndarray:
    """Apply a ``_filter_plan`` to every map of a (labels, z, y, x) batch in
    place, x first, as many maps at a time as ``scratch`` (of the maps'
    dtype) holds whole."""
    x, y, z = plan
    dims = costs.shape[1:]
    buf = scratch.reshape((-1,) + dims)
    for start in range(0, len(costs), len(buf)):
        maps = costs[start : start + len(buf)]
        tmp = buf[: len(maps)]
        # x: (y, x) @ (x, x) per (map, z); y: (y, y) @ (y, x) per (map, z)
        for matrix, src, dst in x:
            np.matmul(maps[src], matrix, out=tmp[dst])
        for matrix, src, dst in y:
            np.matmul(matrix, tmp[src], out=maps[dst])
        # z: (z, z) @ (z, x) per (map, y), through transposed views, no copy
        maps_t, tmp_t = maps.transpose(0, 2, 1, 3), tmp.transpose(0, 2, 1, 3)
        for matrix, src, dst in z:
            np.matmul(matrix, maps_t[src], out=tmp_t[dst])
        np.copyto(maps, tmp)
    return costs


def _box_sum_map(costs: np.ndarray, radius: int, scratch) -> np.ndarray:
    """Box-sum every map of a (labels, z, y, x) batch in place.

    ``scratch`` (any contiguous array of one or more whole maps in the
    batch's dtype, such as the SAD kernel's) holds the intermediate passes.
    """
    plan = _filter_plan(_box_taps, radius, costs.shape[1:], costs.dtype)
    return _filter_maps(costs, plan, scratch)


def _smooth_map(costs: np.ndarray, sigma: float, scratch) -> np.ndarray:
    """Gaussian-smooth every map of a (labels, z, y, x) batch in place.

    ``scratch`` as for ``_box_sum_map``. The weights are non-negative and
    so are the maps (SAD, or a box sum of SAD), so the result is too.
    """
    plan = _filter_plan(_gauss_taps, float(sigma), costs.shape[1:], costs.dtype)
    return _filter_maps(costs, plan, scratch)


def _keep_better(cost, label, best_cost, best_label, improved):
    """Where ``cost`` is strictly below ``best_cost``, take it and ``label``."""
    np.less(cost, best_cost, out=improved)
    np.copyto(best_cost, cost, where=improved)
    np.copyto(best_label, label, where=improved)


def _keep_lower(cost, label, best_cost, best_label, mask):
    """Where (``cost``, ``label``) is below (``best_cost``, ``best_label``), take both: the
    lower label where costs tie, then ``_keep_better``, each step through ``mask``."""
    np.equal(cost, best_cost, out=mask)
    np.minimum(best_label, label, out=best_label, where=mask)
    _keep_better(cost, label, best_cost, best_label, mask)


def budget_maps(dims, budget: int) -> int:
    """How many float32 cost maps of a ``dims`` grid ``budget`` bytes hold; none is an error."""
    map_bytes = math.prod(dims) * SEARCH_DTYPE.itemsize
    if budget < map_bytes:
        raise ValueError(f"memory budget {budget} B is smaller than one cost map ({map_bytes} B)")
    return int(budget // map_bytes)


def chunked_dsv_execution(
    f_fixed: FeatureVolume,
    f_moving: FeatureVolume,
    disp: DisplacementSet,
    patch_radius: int,
    smooth_sigma: float,
    memory_budget_bytes: int,
    workers: int = 1,
) -> DisplacementField:
    """Winner field of the filtered cost volume, without materializing it.

    Each voxel gets the candidate of lowest filtered cost, the lowest
    label among ties, as the argmin of the full cost volume in
    ``tests/oracle.py`` picks it; the field's bits are the same for every
    worker count and budget. ``workers`` threads search, never more than
    the candidates or the float32 cost maps the budget holds
    (``budget_maps``), a cap and not the working size: each worker's batch
    holds at most 1/W of it. A budget below one map is an error, as are a
    negative radius or sigma, fewer than one worker, and features whose
    box-summed costs could overflow float32 (``_level_arrays``). A level
    holds float32 channel-first copies of both feature volumes (the moving
    one padded by ceil(l_max) voxels per side) and, per worker, the SAD
    scratch, a batch no larger than it, a best cost, best label and mask
    (9 B per voxel), and on levels with fractional candidates one blended
    moving copy, all allocated in the calling thread. A merge needs only
    the worker's mask, and the field is gathered in float32. The module
    docstring describes the units, batches and merges.
    """
    if patch_radius < 0:
        raise ValueError("patch_radius must be >= 0")
    if smooth_sigma < 0:
        raise ValueError("smooth_sigma must be >= 0")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    nz, ny, nx = f_fixed.data.shape[:3]
    maps = budget_maps((nz, ny, nx), memory_budget_bytes)
    n_workers = min(workers, disp.count, maps)

    fixed, moving = _level_arrays(f_fixed, f_moving, disp, (2 * patch_radius + 1) ** 3)
    # work units: each weight group cut into as few contiguous pieces as
    # keep it within 1/W of the candidates (an integer level gives W
    # slices; as W <= count, no piece is empty), longest first
    units = [
        piece
        for labels in _weight_groups(disp)
        for piece in np.array_split(labels, -(-len(labels) * n_workers // disp.count))
    ]
    units.sort(key=len, reverse=True)

    # every worker's arrays are allocated here, in the calling thread: the
    # same blocks allocated inside the worker threads raised peak RSS by up
    # to a fifth, and by a different amount from run to run
    scratch = _sad_scratch((nz, ny, nx), fixed.shape[3], n_workers)
    per_worker = min(maps // n_workers, scratch.shape[1], len(units[0]))
    buffer = np.empty((n_workers, per_worker, nz, ny, nx), dtype=SEARCH_DTYPE)
    best_cost = np.full((n_workers, nz, ny, nx), np.inf, dtype=SEARCH_DTYPE)
    best_label = np.zeros((n_workers, nz, ny, nx), dtype=np.int32)
    improved = np.empty((n_workers, nz, ny, nx), dtype=bool)
    blended = np.empty((n_workers, moving.size if disp.fractional else 0), SEARCH_DTYPE)

    # worker w walks unit w into its empty best, then takes the remaining
    # units one at a time, each walked straight into that best by label
    rest = iter(units[n_workers:])
    lock = threading.Lock()

    def next_unit():
        with lock:
            return next(rest, None)

    # the kernels are looked up by module name at call time, so a wrapper
    # set on the module (the benchmark's tracer) sees every call
    def walk(w, labels, keep):
        source = _blend(moving, disp.displacements[labels[0]], blended[w], scratch[w])
        for start in range(0, len(labels), per_worker):
            batch_labels = labels[start : start + per_worker]
            batch = buffer[w, : len(batch_labels)]
            for cost_map, d in zip(batch, disp.displacements[batch_labels]):
                _label_cost_map(fixed, source, d, out=cost_map, scratch=scratch[w])
            if patch_radius > 0:
                _box_sum_map(batch, patch_radius, scratch[w])
            if smooth_sigma > 0:
                _smooth_map(batch, smooth_sigma, scratch[w])
            for cost_map, label in zip(batch, batch_labels):
                keep(cost_map, label, best_cost[w], best_label[w], improved[w])

    def search(w):
        walk(w, units[w], _keep_better)
        while (labels := next_unit()) is not None:
            walk(w, labels, _keep_lower)

    if n_workers == 1:
        search(0)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(search, range(n_workers)))  # re-raises a worker's exception
        for w in range(1, n_workers):
            _keep_lower(best_cost[w], best_label[w], best_cost[0], best_label[0], improved[w])
    # gathered in float32: the bits of a float64 gather, cast
    return DisplacementField(disp.displacements.astype(np.float32)[best_label[0]])

