"""Multi-resolution registration driver with memory-bounded execution.

A registration run works coarse to fine. At each level the fixed and
moving images are downsampled by the level's factor, the moving image is
warped by the running field, per-voxel features are recomputed on both
(descriptors like the self-similarity one are not warp-equivariant, so
warping feature volumes instead would change their meaning), and the
discrete search produces an increment that is composed additively into
the running field. Between levels the field is upsampled onto the next
grid. Additive composition is an approximation of true function
composition, adequate for the small, bounded increments searched here.

The cost volume for one level can reach gigabytes, so it is never
materialized whole: ``chunked_dsv_execution`` walks displacement
candidates in tie-break priority order in budget-sized batches, keeping a
running per-voxel (best cost, best candidate) pair. Worker threads each
walk one contiguous slice of that order (the SAD ufuncs and the ``ndimage``
filters release the interpreter lock) and their bests are merged in slice
order. Its output is bit-identical to building, aggregating, smoothing and
arg-minimizing the full cost volume, whatever the worker count.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field as dataclass_field, fields
from typing import Sequence

import numpy as np

from voxelreg import features as feat
from voxelreg import regcore
from voxelreg.volume import (
    DisplacementField,
    FeatureVolume,
    ScalarVolume,
    VolumeHeader,
    downsample,
    downsample_features,
    load_volume,
    upsample_field,
    warp_features,
    warp_scalar,
    zero_field,
)

FEATURE_KINDS = (*feat.DESCRIPTORS, "external")
DEFAULT_MEMORY_BUDGET_MB = 1024
MEMORY_BUDGET_ENV = "REG_MEMORY_BUDGET_MB"


@dataclass(frozen=True)
class LevelParams:
    """Search parameters for one resolution level."""

    factor: int = 1
    q: float = 1.0
    l_max: float = 4.0
    patch_radius: int = 2
    alpha: float = 2.0
    smooth_sigma: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.name == "smooth_sigma":
                continue  # derived from alpha below
            integral = f.name in ("factor", "patch_radius")
            if integral:
                ok = isinstance(value, numbers.Integral)
            else:
                ok = isinstance(value, numbers.Real) and math.isfinite(value)
            if isinstance(value, bool) or not ok:
                what = "an integer" if integral else "a finite real number"
                raise ValueError(f"level {f.name} must be {what}, got {value!r}")
        if self.factor < 1:
            raise ValueError("factor must be >= 1")
        if self.alpha < 0 or self.patch_radius < 0:
            raise ValueError("alpha and patch_radius must be >= 0")
        if self.smooth_sigma is None:
            object.__setattr__(self, "smooth_sigma", float(math.sqrt(self.alpha)))
        if self.smooth_sigma < 0:
            raise ValueError(f"smooth_sigma must be >= 0, got {self.smooth_sigma}")
        # same q / l_max rule as the search, checked before any level runs
        regcore.build_displacement_set(self.q, self.l_max)

    def to_dict(self) -> dict:
        return asdict(self)


def default_levels() -> list[LevelParams]:
    return [
        LevelParams(factor=2, q=2.0, l_max=8.0, patch_radius=2, alpha=2.0),
        LevelParams(factor=1, q=1.0, l_max=2.0, patch_radius=2, alpha=2.0),
    ]


def _check_keys(d: dict, cls, what: str):
    if not isinstance(d, dict):
        raise ValueError(f"a {what} must be a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} key(s) {unknown}")


@dataclass(frozen=True)
class RegistrationConfig:
    """Full description of one registration run.

    Levels are ordered coarse to fine: factors non-increasing, each factor
    divisible by the next, final factor 1. ``standardize`` remaps the
    moving image's intensity scale onto the fixed image (or, when
    ``standardize_reference`` names a volume, remaps both onto that
    reference; a reference requires ``standardize``). External features
    are supplied as raw+JSON paths, one per image. Paths are strings or
    None, the two flags bools, the budget an integer or None, and
    ``workers`` (search threads; None means two, or one on a single-CPU
    machine) a positive integer or None.
    """

    feature: str = "ssc"
    levels: tuple[LevelParams, ...] = dataclass_field(default_factory=lambda: tuple(default_levels()))
    external_fixed: str | None = None
    external_moving: str | None = None
    zscore_external: bool = False
    standardize: bool = False
    standardize_reference: str | None = None
    memory_budget_mb: int | None = None
    workers: int | None = None

    def __post_init__(self):
        if not isinstance(self.levels, Sequence) or not all(
            isinstance(lv, LevelParams) for lv in self.levels
        ):
            raise ValueError(f"config levels must be a list of levels, got {self.levels!r}")
        object.__setattr__(self, "levels", tuple(self.levels))
        for name in ("external_fixed", "external_moving", "standardize_reference"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ValueError(f"config {name} must be a string, got {getattr(self, name)!r}")
        for name in ("zscore_external", "standardize"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"config {name} must be true or false, got {getattr(self, name)!r}")
        mb = self.memory_budget_mb
        if mb is not None and (isinstance(mb, bool) or not isinstance(mb, numbers.Integral)):
            raise ValueError(f"config memory_budget_mb must be an integer, got {mb!r}")
        w = self.workers
        if w is not None and (isinstance(w, bool) or not isinstance(w, numbers.Integral) or w < 1):
            raise ValueError(f"config workers must be a positive integer, got {w!r}")
        if self.standardize_reference and not self.standardize:
            raise ValueError("config standardize_reference requires standardize")
        if self.feature not in FEATURE_KINDS:
            raise ValueError(f"unknown feature {self.feature!r}, expected one of {FEATURE_KINDS}")
        if not self.levels:
            raise ValueError("at least one level is required")
        factors = [lv.factor for lv in self.levels]
        if factors[-1] != 1:
            raise ValueError("final level must have factor 1")
        for a, b in zip(factors, factors[1:]):
            if b > a:
                raise ValueError(f"factors must be non-increasing, got {factors}")
            if a % b != 0:
                raise ValueError(f"each factor must divide the previous one, got {factors}")
        if self.feature == "external" and not (self.external_fixed and self.external_moving):
            raise ValueError("external feature requires external_fixed and external_moving paths")

    def budget_bytes(self) -> int:
        mb = self.memory_budget_mb
        if mb is None:
            env = os.environ.get(MEMORY_BUDGET_ENV)
            try:
                mb = int(env) if env else DEFAULT_MEMORY_BUDGET_MB
            except ValueError:
                raise ValueError(
                    f"{MEMORY_BUDGET_ENV} must be an integer number of MB, got {env!r}"
                ) from None
        if mb <= 0:
            raise ValueError("memory budget must be positive")
        return int(mb) * 1024 * 1024

    def worker_count(self) -> int:
        return min(2, os.cpu_count() or 1) if self.workers is None else self.workers

    def to_dict(self) -> dict:
        return {**asdict(self), "levels": [lv.to_dict() for lv in self.levels]}

    @classmethod
    def from_dict(cls, d: dict) -> "RegistrationConfig":
        """Inverse of ``to_dict``; absent keys take their defaults, unknown ones are errors."""
        _check_keys(d, cls, "config")
        levels = d.get("levels") or ()
        if isinstance(levels, list):  # anything else is rejected by __post_init__
            for lv in levels:
                _check_keys(lv, LevelParams, "level")
            levels = tuple(LevelParams(**lv) for lv in levels)
        return cls(**{**d, "levels": levels or tuple(default_levels())})

    @classmethod
    def from_json(cls, path) -> "RegistrationConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def compose_fields(coarse_up: DisplacementField, increment: DisplacementField) -> DisplacementField:
    """Additive composition u(x) = coarse_up(x) + increment(x)."""
    if coarse_up.dims != increment.dims:
        raise ValueError(f"dims mismatch: {coarse_up.dims} vs {increment.dims}")
    data = coarse_up.data + increment.data
    return DisplacementField(coarse_up.header, data)


def _keep_better(cost, label, best_cost, best_label, improved):
    """Where ``cost`` is strictly below ``best_cost``, take it and ``label``."""
    np.less(cost, best_cost, out=improved)
    np.copyto(best_cost, cost, where=improved)
    np.copyto(best_label, label, where=improved)


def chunked_dsv_execution(
    f_fixed: FeatureVolume,
    f_moving: FeatureVolume,
    disp: regcore.DisplacementSet,
    patch_radius: int,
    smooth_sigma: float,
    memory_budget_bytes: int,
    workers: int = 1,
) -> DisplacementField:
    """Winner field without materializing the full cost volume.

    Candidates are processed in tie-break priority order in batches sized
    so the batched cost maps (float64) fit the budget; each batch is filled
    by the per-label kernel of ``regcore.build_dsv`` and filtered in place,
    whole batch at once. A strict-less-than merge of each map, in priority
    order, against the running best preserves the tie-break, making the
    result bit-identical to the unchunked build/aggregate/regularize/
    winner-takes-all path.

    ``workers`` threads (never more than the candidates, nor than the cost
    maps the budget holds) each run that loop over one contiguous slice of
    the priority order, with 1/W of the budget and running best maps of
    their own. The slices' bests are then
    merged in slice order with the same strict less-than, so the earliest
    slice wins ties as the serial scan does and every worker count gives
    the same field. The budget sizes the batches only; a level also holds
    float64 channel-first copies of both feature volumes (the moving one
    padded by ceil(l_max) voxels per side) and, per worker, a best cost,
    best label and merge mask the size of the level (17 B per voxel).
    """
    nz, ny, nx = f_fixed.data.shape[:3]
    map_bytes = nz * ny * nx * 8
    batch_size = int(memory_budget_bytes // map_bytes)
    if batch_size < 1:
        raise ValueError(
            f"memory budget {memory_budget_bytes} B is smaller than one cost map ({map_bytes} B)"
        )
    n_workers = min(workers, disp.count, batch_size)

    fixed64, moving64 = regcore._level_arrays(f_fixed, f_moving, disp)
    slices = np.array_split(disp.priority_order(), n_workers)

    # every worker's arrays are allocated here, in the calling thread: the
    # same blocks allocated inside the worker threads raised peak RSS by up
    # to a fifth, and by a different amount from run to run
    per_worker = min(batch_size // n_workers, len(slices[0]))
    buffer = np.empty((n_workers, per_worker, nz, ny, nx), dtype=np.float64)
    best_cost = np.full((n_workers, nz, ny, nx), np.inf, dtype=np.float64)
    best_label = np.zeros((n_workers, nz, ny, nx), dtype=np.intp)
    improved = np.empty((n_workers, nz, ny, nx), dtype=bool)

    def search(w):
        labels = slices[w]
        for start in range(0, len(labels), per_worker):
            batch_labels = labels[start : start + per_worker]
            batch = buffer[w, : len(batch_labels)]
            for bi, li in enumerate(batch_labels):
                regcore._label_cost_map(fixed64, moving64, disp.displacements[li], out=batch[bi])
            if patch_radius > 0:
                regcore._box_sum_map(batch, patch_radius)
            if smooth_sigma > 0:
                regcore._smooth_map(batch, smooth_sigma)
            for cost_map, li in zip(batch, batch_labels):
                _keep_better(cost_map, li, best_cost[w], best_label[w], improved[w])

    if n_workers == 1:
        search(0)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(search, range(n_workers)))  # re-raises a worker's exception
        for w in range(1, n_workers):
            _keep_better(best_cost[w], best_label[w], best_cost[0], best_label[0], improved[0])
    best_disp = disp.displacements[best_label[0]].astype(np.float32)

    header = VolumeHeader(f_fixed.dims, channels=3, dtype="float32")
    return DisplacementField(header, best_disp)


def _featurize(vol: ScalarVolume, feature: str) -> FeatureVolume:
    return feat.DESCRIPTORS[feature](vol)


def _check_level_dims(dims, level: LevelParams):
    level_dims = tuple(-(-d // level.factor) for d in dims)
    needed = int(math.ceil(2 * level.l_max + 1))
    if min(level_dims) < needed:
        raise ValueError(
            f"volume too small: level factor {level.factor} gives dims {level_dims}, "
            f"search with l_max={level.l_max} needs >= {needed} per axis"
        )
    return level_dims


def register(
    fixed: ScalarVolume, moving: ScalarVolume, cfg: RegistrationConfig
) -> tuple[DisplacementField, ScalarVolume]:
    """Estimate the field aligning ``moving`` to ``fixed`` and apply it.

    Returns the displacement field on the fixed grid plus the warped
    moving image. Deterministic: identical inputs give bit-identical
    outputs.
    """
    if fixed.dims != moving.dims:
        raise ValueError(f"fixed dims {fixed.dims} != moving dims {moving.dims}")
    level_dims = [_check_level_dims(fixed.dims, level) for level in cfg.levels]
    budget = cfg.budget_bytes()
    workers = cfg.worker_count()

    ext_fixed = ext_moving = None
    if cfg.feature == "external":
        ext_fixed = feat.load_external_features(cfg.external_fixed, zscore=cfg.zscore_external)
        ext_moving = feat.load_external_features(cfg.external_moving, zscore=cfg.zscore_external)
        for fv, name in ((ext_fixed, "fixed"), (ext_moving, "moving")):
            if fv.dims != fixed.dims:
                raise ValueError(f"external {name} feature dims {fv.dims} != image dims {fixed.dims}")

    reference = None
    if cfg.standardize_reference:
        reference = load_volume(cfg.standardize_reference, kind="scalar")

    field: DisplacementField | None = None
    for i, level in enumerate(cfg.levels):
        fixed_l = downsample(fixed, level.factor)
        moving_l = downsample(moving, level.factor)
        if field is None:
            field = zero_field(fixed_l.dims, fixed_l.header.spacing)
        warped_l = warp_scalar(moving_l, field)

        if cfg.standardize:
            if reference is not None:
                ref_l = downsample(reference, level.factor)
                fixed_l = feat.intensity_standardize(fixed_l, ref_l)
                warped_l = feat.intensity_standardize(warped_l, ref_l)
            else:
                warped_l = feat.intensity_standardize(warped_l, fixed_l)

        if cfg.feature == "external":
            f_fix = downsample_features(ext_fixed, level.factor)
            f_mov = warp_features(downsample_features(ext_moving, level.factor), field)
        else:
            f_fix = _featurize(fixed_l, cfg.feature)
            f_mov = _featurize(warped_l, cfg.feature)

        ds = regcore.build_displacement_set(level.q, level.l_max)
        increment = chunked_dsv_execution(
            f_fix, f_mov, ds, level.patch_radius, level.smooth_sigma, budget, workers
        )
        field = compose_fields(field, increment)

        if i + 1 < len(cfg.levels):
            ratio = level.factor // cfg.levels[i + 1].factor
            field = upsample_field(field, ratio, level_dims[i + 1])

    warped = warp_scalar(moving, field)
    return field, warped
