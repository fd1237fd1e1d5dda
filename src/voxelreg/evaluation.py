"""Jaccard overlap scoring with two-level aggregation and report output.

The overlap between two binary structure masks A and B is scored as
``100 * |A intersect B| / |A union B|``. Scores aggregate in a fixed
order: first the arithmetic mean over the N structures of one volume
pair, then the arithmetic mean over the M pairs of a dataset - never a
pooled voxel-level mean.

Structures absent from both volumes are skipped (excluded from N);
structures present in exactly one volume score 0. Background label 0 is
never scored.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from voxelreg.volume import LabelVolume

REPORT_SCHEMA = 1
N_POLICY = "skip-empty"


def jaccard(a: LabelVolume, b: LabelVolume, label: int) -> float | None:
    """Overlap percentage of one structure, or None when absent from both."""
    if a.dims != b.dims:
        raise ValueError(f"dims mismatch: {a.dims} vs {b.dims}")
    mask_a = a.data == label
    mask_b = b.data == label
    inter = int(np.count_nonzero(mask_a & mask_b))
    union = int(np.count_nonzero(mask_a) + np.count_nonzero(mask_b)) - inter
    if union == 0:
        return None
    return 100.0 * inter / union


def mean_jc_pair(
    fixed_labels: LabelVolume, warped_labels: LabelVolume, label_list
) -> tuple[float, dict[int, float]]:
    """Mean overlap over the non-skipped structures of one pair.

    Returns the pair mean plus the per-structure map. Labels absent from
    both volumes are skipped; an effectively empty label list is an error.
    """
    per_structure: dict[int, float] = {}
    for label in label_list:
        label = int(label)
        if label == 0:
            continue
        jc = jaccard(fixed_labels, warped_labels, label)
        if jc is not None:
            per_structure[label] = jc
    if not per_structure:
        raise ValueError("no scorable structures: every label was empty in both volumes")
    mean = sum(per_structure.values()) / len(per_structure)
    return mean, per_structure


def mean_jc_dataset(pair_means) -> float:
    """Mean of per-pair means; the dataset-level aggregation."""
    pair_means = list(pair_means)
    if not pair_means:
        raise ValueError("dataset mean requires at least one pair")
    return float(sum(pair_means) / len(pair_means))


@dataclass(frozen=True)
class PairResult:
    fixed_id: str
    moving_id: str
    per_structure: dict[int, float]
    mean: float

    def __post_init__(self):
        if not self.per_structure:
            raise ValueError(f"pair {self.fixed_id} -> {self.moving_id} has no scored structures")
        for label, jc in self.per_structure.items():
            if not (0.0 <= jc <= 100.0):
                raise ValueError(f"JC for label {label} out of [0, 100]: {jc}")
        expected = sum(self.per_structure.values()) / len(self.per_structure)
        if abs(expected - self.mean) > 1e-9:
            raise ValueError("pair mean does not equal the mean of its structures")


@dataclass(frozen=True)
class JcReport:
    """Dataset-level report: per-pair results plus their mean."""

    pairs: tuple[PairResult, ...]
    dataset_mean: float
    skipped_pairs: tuple[str, ...] = field(default_factory=tuple)


def build_report(pair_results, skipped_pairs=()) -> JcReport:
    pairs = tuple(pair_results)
    dataset_mean = mean_jc_dataset(p.mean for p in pairs)
    return JcReport(pairs=pairs, dataset_mean=dataset_mean, skipped_pairs=tuple(skipped_pairs))


def pair_result(fixed_id, moving_id, fixed_labels, warped_labels, label_list=None) -> PairResult:
    """Score one registered pair; default label list is every nonzero label."""
    if label_list is None:
        label_list = sorted(set(fixed_labels.labels()) | set(warped_labels.labels()))
    mean, per_structure = mean_jc_pair(fixed_labels, warped_labels, label_list)
    return PairResult(str(fixed_id), str(moving_id), per_structure, mean)


def report_to_dict(report: JcReport) -> dict:
    out = {
        "schema": REPORT_SCHEMA,
        "pairs": [
            {
                "fixed": p.fixed_id,
                "moving": p.moving_id,
                "per_structure": {str(k): p.per_structure[k] for k in sorted(p.per_structure)},
                "mean": p.mean,
            }
            for p in report.pairs
        ],
        "dataset_mean": report.dataset_mean,
        "N_policy": N_POLICY,
    }
    if report.skipped_pairs:
        out["skipped_pairs"] = list(report.skipped_pairs)
    return out


def write_report_json(report: JcReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_report_csv(report: JcReport, path) -> None:
    """Spreadsheet form: one row per structure, then per-pair and dataset means."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fixed", "moving", "label", "jc"])
        for p in report.pairs:
            for label in sorted(p.per_structure):
                writer.writerow([p.fixed_id, p.moving_id, label, repr(p.per_structure[label])])
            writer.writerow([p.fixed_id, p.moving_id, "mean", repr(p.mean)])
        writer.writerow(["dataset", "", "mean", repr(report.dataset_mean)])
