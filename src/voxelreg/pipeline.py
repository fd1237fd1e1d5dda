"""Multi-resolution registration driver.

A registration run works coarse to fine, from a zero field on the first
level's grid. The source pair is picked once: the fixed and moving
images, or, for external features, the two saved feature volumes (then
no image is read). Every level takes the same steps: both sources are
downsampled by the level's factor, the moving one is warped by the
running field (after level 0), optionally standardized, and, unless the
features are external, featurized (descriptors like the self-similarity
one are not warp-equivariant, so warping feature volumes instead would
change their meaning).

The discrete search (``regcore.chunked_dsv_execution``) then produces an
increment that is composed additively into the running field. Between
levels the field is upsampled onto the next grid. Additive composition
is an approximation of true function composition, adequate for the
small, bounded increments searched here.

``register`` returns a ``Registration``: the final field, and the moving
image warped by it. That warp runs on the first read of ``warped`` (or
``result[1]``, or unpacking ``field, warped = register(...)``), not in
``register``, so a caller that needs only the field, as ``batch`` does,
never pays for it.

Two kinds of resampler run here. The level grids come from
``volume.downsample`` (the sources) and ``volume.upsample_field`` (the
field, between levels), which work one axis at a time. Warps onto a grid
(``warp_scalar``) sample through ``ndimage.map_coordinates``.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
from dataclasses import asdict, dataclass, field as dataclass_field, fields
from functools import cached_property
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
    load_volume,
    read_json,
    upsample_field,
    warp_scalar,
    zero_field,
)
# names perfbench's tracer wraps; no code here calls them
from voxelreg.volume import downsample as downsample_features, warp_scalar as warp_features

FEATURE_KINDS = (*feat.DESCRIPTORS, "external")
DEFAULT_MEMORY_BUDGET_MB = 1024


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (``taskset`` narrows it), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class LevelParams:
    """Search parameters for one resolution level; ``alpha`` sets its smoothing."""

    factor: int = 1
    q: float = 1.0
    l_max: float = 4.0
    patch_radius: int = 2
    alpha: float = 2.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            integral = f.type == "int"
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
        # same q / l_max rule as the search, checked before any level runs
        regcore.candidate_steps(self.q, self.l_max)

    @property
    def smooth_sigma(self) -> float:
        """Gaussian sigma of the cost-map smoothing: sqrt(alpha)."""
        return float(math.sqrt(self.alpha))

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

    Levels are ordered coarse to fine: each factor divides the previous
    one, and the last is 1. ``standardize`` remaps the
    moving image's intensity scale onto the fixed image (or, when
    ``standardize_reference`` names a volume, remaps both onto that
    reference; a reference requires ``standardize``). External features
    are supplied as raw+JSON paths, one per image, that only they take, and
    are searched as saved (``voxelreg features --zscore`` z-scores them),
    so they do not take ``standardize``. Paths are strings or None,
    ``standardize`` a bool, the budget (MB; None means 1024) a positive
    integer or None, and ``workers`` (search threads; None means two, or
    one when the process may use a single CPU) a positive integer or None.
    """

    feature: str = "ssc"
    levels: tuple[LevelParams, ...] = dataclass_field(default_factory=lambda: tuple(default_levels()))
    external_fixed: str | None = None
    external_moving: str | None = None
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
        for f in fields(self):  # the path fields
            if f.type == "str | None" and not isinstance(getattr(self, f.name), (str, type(None))):
                raise ValueError(f"config {f.name} must be a string, got {getattr(self, f.name)!r}")
        if not isinstance(self.standardize, bool):
            raise ValueError(f"config standardize must be true or false, got {self.standardize!r}")
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
            if a % b != 0:
                raise ValueError(f"each factor must divide the previous one, got {factors}")
        if self.feature == "external" and not (self.external_fixed and self.external_moving):
            raise ValueError("external feature requires external_fixed and external_moving paths")
        if self.feature == "external" and self.standardize:
            raise ValueError("config standardize does not apply to external features")
        if self.feature != "external" and (self.external_fixed or self.external_moving):
            raise ValueError(f"config external paths apply only to external features, not {self.feature}")

    def budget_bytes(self) -> int:
        return (self.memory_budget_mb or DEFAULT_MEMORY_BUDGET_MB) * 1024 * 1024

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
        return cls.from_dict(read_json(path, "config"))


def compose_fields(coarse_up: DisplacementField, increment: DisplacementField) -> DisplacementField:
    """Additive composition u(x) = coarse_up(x) + increment(x)."""
    if coarse_up.dims != increment.dims:
        raise ValueError(f"dims mismatch: {coarse_up.dims} vs {increment.dims}")
    return DisplacementField(coarse_up.data + increment.data, coarse_up.spacing)


def _featurize(vol: ScalarVolume, feature: str) -> FeatureVolume:
    return feat.DESCRIPTORS[feature](vol)


def _check_level_dims(dims, level: LevelParams):
    level_dims = downsampled_dims(dims, level.factor)
    if min(level_dims) < 2 * level.l_max + 1:  # inf for l_max near the float maximum
        raise ValueError(
            f"volume too small: level factor {level.factor} gives dims {level_dims}, "
            f"search with l_max={level.l_max} needs >= 2 * l_max + 1 per axis"
        )
    return level_dims


class Registration(Sequence):
    """What ``register`` found: ``field``, and ``warped``, the moving image warped by it.

    ``warped`` is made on its first read and kept. The result unpacks
    and indexes as the pair ``(field, warped)``: ``result[0]`` never
    warps, while ``result[1]`` and unpacking read ``warped``.
    """

    def __init__(self, field: DisplacementField, moving: ScalarVolume):
        self.field = field
        self.moving = moving

    @cached_property
    def warped(self) -> ScalarVolume:
        # sampled on the fixed grid, so it takes the field's spacing
        return ScalarVolume(warp_scalar(self.moving, self.field).data, self.field.spacing)

    def __len__(self) -> int:
        return 2

    def __getitem__(self, index: int):
        return self.warped if range(2)[operator.index(index)] else self.field


def register(fixed: ScalarVolume, moving: ScalarVolume, cfg: RegistrationConfig) -> Registration:
    """Estimate the field aligning ``moving`` to ``fixed``.

    Returns a ``Registration``: the displacement field on the fixed grid,
    and the moving image warped by it, which is made only when read.
    Deterministic: identical inputs give bit-identical outputs.
    """
    if fixed.dims != moving.dims:
        raise ValueError(f"fixed dims {fixed.dims} != moving dims {moving.dims}")
    level_dims = [_check_level_dims(fixed.dims, level) for level in cfg.levels]
    budget, workers = cfg.budget_bytes(), cfg.worker_count()
    regcore.budget_maps(fixed.dims, budget)  # the finest level's grid, before any level runs

    sources = fixed, moving
    if cfg.feature == "external":
        paths = cfg.external_fixed, cfg.external_moving
        sources = tuple(load_volume(path, kind="feature") for path in paths)
        for fv, name in zip(sources, ("fixed", "moving")):
            if fv.dims != fixed.dims:
                raise ValueError(f"external {name} feature dims {fv.dims} != image dims {fixed.dims}")

    reference = None
    if cfg.standardize_reference:
        reference = load_volume(cfg.standardize_reference, kind="scalar")

    # warping by the zero field returns a volume bit for bit, so level 0
    # warps nothing; the level fields' spacing is never used
    field = zero_field(level_dims[0])
    for i, level in enumerate(cfg.levels):
        fixed_l, moving_l = (downsample(src, level.factor) for src in sources)
        if i > 0:
            moving_l = warp_scalar(moving_l, field)
        if cfg.standardize:
            if reference is not None:
                ref_l = downsample(reference, level.factor)
                fixed_l = feat.intensity_standardize(fixed_l, ref_l)
                moving_l = feat.intensity_standardize(moving_l, ref_l)
            else:
                moving_l = feat.intensity_standardize(moving_l, fixed_l)
        if cfg.feature != "external":
            fixed_l, moving_l = _featurize(fixed_l, cfg.feature), _featurize(moving_l, cfg.feature)

        ds = regcore.build_displacement_set(level.q, level.l_max)
        increment = chunked_dsv_execution(
            fixed_l, moving_l, ds, level.patch_radius, level.smooth_sigma, budget, workers
        )
        field = compose_fields(field, increment)

        if i + 1 < len(cfg.levels):
            ratio = level.factor // cfg.levels[i + 1].factor
            field = upsample_field(field, ratio, level_dims[i + 1])

    return Registration(DisplacementField(field.data, fixed.spacing), moving)
