"""Deformable 3-D registration by discrete displacement search.

Subpackages cover volumetric containers and I/O (:mod:`voxelreg.volume`),
per-voxel feature descriptors (:mod:`voxelreg.features`), the discrete
displacement optimizer (:mod:`voxelreg.regcore`), the multi-resolution
driver (:mod:`voxelreg.pipeline`), Jaccard evaluation
(:mod:`voxelreg.evaluation`), synthetic test data (:mod:`voxelreg.synth`)
and the command line interface (:mod:`voxelreg.cli`).
"""

from voxelreg.pipeline import LevelParams, RegistrationConfig, register
from voxelreg.volume import (
    DisplacementField,
    FeatureVolume,
    LabelVolume,
    ScalarVolume,
    VolumeHeader,
    load_volume,
    save_volume,
)

__all__ = [
    "DisplacementField",
    "FeatureVolume",
    "LabelVolume",
    "LevelParams",
    "RegistrationConfig",
    "ScalarVolume",
    "VolumeHeader",
    "load_volume",
    "register",
    "save_volume",
]

__version__ = "0.1.0"
