"""Jaccard overlap scoring with two-level aggregation and report output.

The overlap between two binary structure masks A and B is scored as
``100 * |A intersect B| / |A union B|``. Scores aggregate in a fixed
order: first the arithmetic mean over the N structures of one volume
pair, then the arithmetic mean over the M pairs of a dataset - never a
pooled voxel-level mean.

Structures absent from both volumes are skipped (excluded from N);
structures present in exactly one volume score 0. Background label 0 is
never scored.

``PairResult`` and ``JcReport`` read their means off their parts;
``write_report`` writes a report as ``<stem>.json`` and ``<stem>.csv``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from voxelreg.volume import LabelVolume, with_extension

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
    """One pair's per-structure scores; ``mean`` is read off them."""

    fixed_id: str
    moving_id: str
    per_structure: dict[int, float]

    def __post_init__(self):
        if not self.per_structure:
            raise ValueError(f"pair {self.fixed_id} -> {self.moving_id} has no scored structures")
        for label, jc in self.per_structure.items():
            if not (0.0 <= jc <= 100.0):
                raise ValueError(f"JC for label {label} out of [0, 100]: {jc}")

    @property
    def mean(self) -> float:  # the expression mean_jc_pair uses, so the same float
        return sum(self.per_structure.values()) / len(self.per_structure)


@dataclass(frozen=True)
class JcReport:
    """Scored pairs (at least one) and skipped pair ids; ``dataset_mean`` is read off the pairs."""

    pairs: tuple[PairResult, ...]
    skipped_pairs: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        object.__setattr__(self, "skipped_pairs", tuple(self.skipped_pairs))
        if not self.pairs:
            raise ValueError("a JC report needs at least one scored pair")

    @property
    def dataset_mean(self) -> float:
        return mean_jc_dataset(p.mean for p in self.pairs)


def pair_result(fixed_id, moving_id, fixed_labels, warped_labels, label_list=None) -> PairResult:
    """Score one registered pair; default label list is every nonzero label."""
    if label_list is None:
        label_list = sorted(set(fixed_labels.labels()) | set(warped_labels.labels()))
    _, per_structure = mean_jc_pair(fixed_labels, warped_labels, label_list)
    return PairResult(str(fixed_id), str(moving_id), per_structure)


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


def write_report(report: JcReport, path) -> Path:
    """Write ``<stem>.json`` and ``<stem>.csv`` (named by ``with_extension``); returns the JSON path."""
    json_path = with_extension(path, ".json", (".json", ".csv"))
    with open(json_path, "w") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    # spreadsheet form: one row per structure, then per-pair and dataset means
    with open(with_extension(json_path, ".csv", (".json",)), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fixed", "moving", "label", "jc"])
        for p in report.pairs:
            for label in sorted(p.per_structure):
                writer.writerow([p.fixed_id, p.moving_id, label, repr(p.per_structure[label])])
            writer.writerow([p.fixed_id, p.moving_id, "mean", repr(p.mean)])
        writer.writerow(["dataset", "", "mean", repr(report.dataset_mean)])
    return json_path
