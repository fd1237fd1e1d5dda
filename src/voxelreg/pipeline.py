"""Multi-resolution registration driver.

A registration run works coarse to fine. At each level the fixed and
moving images are downsampled by the level's factor, the moving image is
warped by the running field, per-voxel features are recomputed on both
(descriptors like the self-similarity one are not warp-equivariant, so
warping feature volumes instead would change their meaning), and the
discrete search (``regcore.chunked_dsv_execution``) produces an increment
that is composed additively into the running field. Between levels the
field is upsampled onto the next grid. Additive composition is an
approximation of true function composition, adequate for the small,
bounded increments searched here.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field as dataclass_field, fields
from typing import Sequence

from voxelreg import features as feat
from voxelreg import regcore
from voxelreg.regcore import chunked_dsv_execution
from voxelreg.volume import (
    DisplacementField,
    FeatureVolume,
    ScalarVolume,
    downsample,
    downsampled_dims,
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


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (``taskset`` narrows it), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    None, the two flags bools, the budget a positive integer or None, and
    ``workers`` (search threads; None means two, or one when the process
    may use a single CPU) a positive integer or None.
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
        if mb is not None and mb < 1:
            raise ValueError(f"config memory_budget_mb must be positive, got {mb!r}")
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
        return min(2, usable_cpus()) if self.workers is None else self.workers

    def to_dict(self) -> dict:
        return {**asdict(self), "levels": [lv.to_dict() for lv in self.levels]}

    @classmethod
    def from_dict(cls, d: dict) -> "RegistrationConfig":
        """Inverse of ``to_dict``; absent keys take their defaults, unknown ones are errors."""
        _check_keys(d, cls, "config")
        levels = d.get("levels")
        if isinstance(levels, list):  # anything else is rejected by __post_init__
            for lv in levels:
                _check_keys(lv, LevelParams, "level")
            d = {**d, "levels": tuple(LevelParams(**lv) for lv in levels)}
        return cls(**d)

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


def _featurize(vol: ScalarVolume, feature: str) -> FeatureVolume:
    return feat.DESCRIPTORS[feature](vol)


def _check_level_dims(dims, level: LevelParams):
    level_dims = downsampled_dims(dims, level.factor)
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

    for i, level in enumerate(cfg.levels):
        fixed_l = downsample(fixed, level.factor)
        moving_l = downsample(moving, level.factor)
        if i == 0:
            # warping by the zero field returns the volume bit for bit
            field = zero_field(fixed_l.dims, fixed_l.header.spacing)
            warped_l = moving_l
        else:
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
            f_mov = downsample_features(ext_moving, level.factor)
            if i > 0:
                f_mov = warp_features(f_mov, field)
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
