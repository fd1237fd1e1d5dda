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
running per-voxel (best cost, best candidate) pair. Its output is
bit-identical to building, aggregating, smoothing and arg-minimizing the
full cost volume.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field as dataclass_field

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
    upsample_field,
    warp_features,
    warp_scalar,
    zero_field,
)

FEATURE_KINDS = ("intensity", "edge", "ssc", "external")
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
        if self.factor < 1:
            raise ValueError("factor must be >= 1")
        if self.alpha < 0 or self.patch_radius < 0:
            raise ValueError("alpha and patch_radius must be >= 0")
        if self.smooth_sigma is None:
            object.__setattr__(self, "smooth_sigma", float(math.sqrt(self.alpha)))

    def to_dict(self) -> dict:
        return {
            "factor": self.factor,
            "q": self.q,
            "l_max": self.l_max,
            "patch_radius": self.patch_radius,
            "alpha": self.alpha,
            "smooth_sigma": self.smooth_sigma,
        }


def default_levels() -> list[LevelParams]:
    return [
        LevelParams(factor=2, q=2.0, l_max=8.0, patch_radius=2, alpha=2.0),
        LevelParams(factor=1, q=1.0, l_max=2.0, patch_radius=2, alpha=2.0),
    ]


@dataclass(frozen=True)
class RegistrationConfig:
    """Full description of one registration run.

    Levels are ordered coarse to fine: factors non-increasing, each factor
    divisible by the next, final factor 1. ``standardize`` remaps the
    moving image's intensity scale onto the fixed image (or, when
    ``standardize_reference`` names a volume, remaps both onto that
    reference). External features are supplied as raw+JSON paths, one per
    image.
    """

    feature: str = "ssc"
    levels: tuple[LevelParams, ...] = dataclass_field(default_factory=lambda: tuple(default_levels()))
    external_fixed: str | None = None
    external_moving: str | None = None
    zscore_external: bool = False
    standardize: bool = False
    standardize_reference: str | None = None
    memory_budget_mb: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
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
            mb = int(env) if env else DEFAULT_MEMORY_BUDGET_MB
        if mb <= 0:
            raise ValueError("memory budget must be positive")
        return int(mb) * 1024 * 1024

    def to_dict(self) -> dict:
        return {
            "feature": self.feature,
            "levels": [lv.to_dict() for lv in self.levels],
            "external_fixed": self.external_fixed,
            "external_moving": self.external_moving,
            "zscore_external": self.zscore_external,
            "standardize": self.standardize,
            "standardize_reference": self.standardize_reference,
            "memory_budget_mb": self.memory_budget_mb,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RegistrationConfig":
        levels = d.get("levels")
        parsed = (
            tuple(LevelParams(**lv) for lv in levels) if levels else tuple(default_levels())
        )
        return cls(
            feature=d.get("feature", "ssc"),
            levels=parsed,
            external_fixed=d.get("external_fixed"),
            external_moving=d.get("external_moving"),
            zscore_external=bool(d.get("zscore_external", False)),
            standardize=bool(d.get("standardize", False)),
            standardize_reference=d.get("standardize_reference"),
            memory_budget_mb=d.get("memory_budget_mb"),
        )

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


def chunked_dsv_execution(
    f_fixed: FeatureVolume,
    f_moving: FeatureVolume,
    disp: regcore.DisplacementSet,
    patch_radius: int,
    smooth_sigma: float,
    memory_budget_bytes: int,
) -> DisplacementField:
    """Winner field without materializing the full cost volume.

    Candidates are processed in tie-break priority order in batches sized
    so the batched cost maps (float64) fit the budget; each batch is filled
    by the per-label kernel of ``regcore.build_dsv`` and filtered in place,
    whole batch at once. A strict-less-than merge of each map, in priority
    order, against the running best preserves the tie-break, making the
    result bit-identical to the unchunked build/aggregate/regularize/
    winner-takes-all path. The budget sizes the batch only; a level also
    holds float64 channel-first copies of both feature volumes (the moving
    one padded by ceil(l_max) voxels per side) and the running best maps.
    """
    nz, ny, nx = f_fixed.data.shape[:3]
    map_bytes = nz * ny * nx * 8
    batch_size = int(memory_budget_bytes // map_bytes)
    if batch_size < 1:
        raise ValueError(
            f"memory budget {memory_budget_bytes} B is smaller than one cost map ({map_bytes} B)"
        )

    fixed64, moving64 = regcore._level_arrays(f_fixed, f_moving, disp)
    order = disp.priority_order()

    best_cost = np.full((nz, ny, nx), np.inf, dtype=np.float64)
    best_label = np.zeros((nz, ny, nx), dtype=np.intp)
    improved = np.empty((nz, ny, nx), dtype=bool)
    buffer = np.empty((min(batch_size, disp.count), nz, ny, nx), dtype=np.float64)
    for start in range(0, disp.count, batch_size):
        labels = order[start : start + batch_size]
        batch = buffer[: len(labels)]
        for bi, li in enumerate(labels):
            regcore._label_cost_map(fixed64, moving64, disp.displacements[li], out=batch[bi])
        if patch_radius > 0:
            regcore._box_sum_map(batch, patch_radius)
        if smooth_sigma > 0:
            regcore._smooth_map(batch, smooth_sigma)
        for cost_map, li in zip(batch, labels):
            np.less(cost_map, best_cost, out=improved)
            np.copyto(best_cost, cost_map, where=improved)
            np.copyto(best_label, li, where=improved)
    best_disp = disp.displacements[best_label].astype(np.float32)

    header = VolumeHeader(f_fixed.dims, channels=3, dtype="float32")
    return DisplacementField(header, best_disp)


def _featurize(vol: ScalarVolume, feature: str) -> FeatureVolume:
    if feature == "intensity":
        return feat.normalize_intensity(vol, 1.0, 99.0)
    if feature == "edge":
        return feat.edge_features(vol)
    if feature == "ssc":
        return feat.ssc_features(vol)
    raise ValueError(f"no built-in descriptor {feature!r}")


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
    for level in cfg.levels:
        _check_level_dims(fixed.dims, level)
    budget = cfg.budget_bytes()

    ext_fixed = ext_moving = None
    if cfg.feature == "external":
        ext_fixed = feat.load_external_features(cfg.external_fixed, zscore=cfg.zscore_external)
        ext_moving = feat.load_external_features(cfg.external_moving, zscore=cfg.zscore_external)
        for fv, name in ((ext_fixed, "fixed"), (ext_moving, "moving")):
            if fv.dims != fixed.dims:
                raise ValueError(f"external {name} feature dims {fv.dims} != image dims {fixed.dims}")

    reference = None
    if cfg.standardize and cfg.standardize_reference:
        from voxelreg.volume import load_volume

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
            f_fix, f_mov, ds, level.patch_radius, level.smooth_sigma, budget
        )
        field = compose_fields(field, increment)

        if i + 1 < len(cfg.levels):
            next_factor = cfg.levels[i + 1].factor
            ratio = level.factor // next_factor
            next_dims = tuple(-(-d // next_factor) for d in fixed.dims)
            field = upsample_field(field, ratio, next_dims)

    warped = warp_scalar(moving, field)
    return field, warped
