"""Jaccard scoring and aggregation tests."""

import csv
import json

import numpy as np
import pytest

from voxelreg.evaluation import (
    JcReport,
    PairResult,
    jaccard,
    mean_jc_dataset,
    mean_jc_pair,
    pair_result,
    write_report,
)
from voxelreg.synth import blob_labels
from voxelreg.volume import LabelVolume


# ---------------------------------------------------------------------------
# jaccard
# ---------------------------------------------------------------------------

def test_jaccard_identical_masks():
    labels = LabelVolume(np.array([[[0, 1, 1, 0]]]))
    assert jaccard(labels, labels, 1) == 100.0


def test_jaccard_disjoint_masks():
    a = LabelVolume(np.array([[[1, 1, 0, 0]]]))
    b = LabelVolume(np.array([[[0, 0, 1, 1]]]))
    assert jaccard(a, b, 1) == 0.0


def test_jaccard_partial_overlap_formula():
    # |A|=|B|=10 with overlap 5: 100 * 5 / 15
    a = np.zeros((1, 1, 20), dtype=np.int32)
    b = np.zeros((1, 1, 20), dtype=np.int32)
    a[0, 0, 0:10] = 1
    b[0, 0, 5:15] = 1
    got = jaccard(LabelVolume(a), LabelVolume(b), 1)
    assert got == pytest.approx(100.0 * 5 / 15, abs=0.01)


def test_jaccard_matches_intersection_over_union_of_masks():
    rng = np.random.default_rng(3)
    a = LabelVolume(rng.integers(0, 5, size=(6, 7, 8)))
    b = LabelVolume(rng.integers(0, 5, size=(6, 7, 8)))
    for label in range(1, 5):
        mask_a, mask_b = a.data == label, b.data == label
        want = 100.0 * np.logical_and(mask_a, mask_b).sum() / np.logical_or(mask_a, mask_b).sum()
        got = jaccard(a, b, label)
        assert type(got) is float and got == want, label


def test_jaccard_empty_in_both_is_skipped():
    a = LabelVolume(np.zeros((2, 2, 2), dtype=np.int32))
    assert jaccard(a, a, 3) is None


def test_jaccard_empty_in_one_scores_zero():
    a = LabelVolume(np.ones((2, 2, 2), dtype=np.int32))
    b = LabelVolume(np.zeros((2, 2, 2), dtype=np.int32))
    assert jaccard(a, b, 1) == 0.0


def test_jaccard_rejects_dim_mismatch():
    a = LabelVolume(np.zeros((2, 2, 2), dtype=np.int32))
    b = LabelVolume(np.zeros((3, 3, 3), dtype=np.int32))
    with pytest.raises(ValueError):
        jaccard(a, b, 1)


def test_jaccard_is_symmetric():
    rng = np.random.default_rng(80)
    a = LabelVolume(rng.integers(0, 4, size=(5, 5, 5)))
    b = LabelVolume(rng.integers(0, 4, size=(5, 5, 5)))
    for label in (1, 2, 3):
        assert jaccard(a, b, label) == jaccard(b, a, label)


def test_jaccard_self_is_hundred_for_nonempty():
    rng = np.random.default_rng(81)
    a = LabelVolume(rng.integers(0, 4, size=(5, 5, 5)))
    for label in (1, 2, 3):
        assert jaccard(a, a, label) == 100.0


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def test_mean_pair_two_structures():
    a = np.zeros((1, 1, 20), dtype=np.int32)
    b = np.zeros((1, 1, 20), dtype=np.int32)
    a[0, 0, 0:4] = 1
    b[0, 0, 2:5] = 1  # inter {2,3} = 2, union {0..4} = 5 -> 40
    a[0, 0, 10:13] = 2
    b[0, 0, 10:15] = 2  # inter 3, union 5 -> 60
    mean, per = mean_jc_pair(LabelVolume(a), LabelVolume(b), [1, 2])
    assert per[1] == pytest.approx(40.0)
    assert per[2] == pytest.approx(60.0)
    assert mean == pytest.approx(50.0)


def test_mean_pair_skips_absent_structures():
    a = np.zeros((1, 1, 10), dtype=np.int32)
    a[0, 0, 0:5] = 1
    b = a.copy()
    b[0, 0, 4] = 0  # inter 4, union 5 -> 80
    mean, per = mean_jc_pair(LabelVolume(a), LabelVolume(b), [1, 7])
    assert 7 not in per
    assert mean == pytest.approx(80.0)


def test_mean_pair_rejects_effectively_empty_list():
    a = LabelVolume(np.zeros((2, 2, 2), dtype=np.int32))
    with pytest.raises(ValueError):
        mean_jc_pair(a, a, [1, 2, 3])


def test_mean_pair_excludes_background():
    a = LabelVolume(np.zeros((2, 2, 2), dtype=np.int32))
    with pytest.raises(ValueError):
        mean_jc_pair(a, a, [0])


def test_mean_pair_130_structures_matches_loop_oracle():
    fixed = blob_labels((48, 48, 48), 130, seed=82, min_radius=2.0, max_radius=4.0)
    rng = np.random.default_rng(83)
    noise = fixed.data.copy()
    # corrupt a random subset of voxels to create partial overlaps
    mask = rng.uniform(size=noise.shape) < 0.1
    noise[mask] = rng.integers(0, 131, size=int(mask.sum()))
    moved = LabelVolume(noise)

    labels = sorted(set(np.unique(fixed.data)) | set(np.unique(moved.data)))
    labels = [l for l in labels if l != 0]
    mean, per = mean_jc_pair(fixed, moved, labels)

    vals = []
    for lab in labels:
        ma = fixed.data == lab
        mb = moved.data == lab
        union = np.logical_or(ma, mb).sum()
        if union == 0:
            continue
        vals.append(100.0 * np.logical_and(ma, mb).sum() / union)
    assert len(per) == len(vals)
    assert mean == pytest.approx(sum(vals) / len(vals), abs=1e-9)


def test_dataset_mean():
    assert mean_jc_dataset([50.0, 30.0]) == 40.0
    assert mean_jc_dataset([35.93]) == 35.93
    with pytest.raises(ValueError):
        mean_jc_dataset([])


def test_dataset_mean_many_pairs_matches_oracle():
    rng = np.random.default_rng(84)
    means = rng.uniform(0, 100, size=144).tolist()
    want = sum(means) / 144
    assert mean_jc_dataset(means) == pytest.approx(want, abs=1e-9)


def test_aggregation_is_mean_of_pair_means_not_pooled():
    # pair 1: one structure at 100; pair 2: three structures at 0
    p1 = PairResult("a", "b", {1: 100.0})
    p2 = PairResult("a", "c", {1: 0.0, 2: 0.0, 3: 0.0})
    report = JcReport((p1, p2))
    assert report.dataset_mean == 50.0  # pooled mean would be 25


def test_report_without_pairs_is_a_value_error():
    with pytest.raises(ValueError, match="^a JC report needs at least one scored pair$"):
        JcReport(())


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_pair_result_mean_is_exactly_mean_jc_pair(seed):
    fixed = blob_labels((16, 16, 16), 5, seed=seed)
    moving = blob_labels((16, 16, 16), 5, seed=seed + 100)
    labels = sorted(set(fixed.labels()) | set(moving.labels()))
    assert pair_result("f", "m", fixed, moving).mean == mean_jc_pair(fixed, moving, labels)[0]


# ---------------------------------------------------------------------------
# Report objects and serialization
# ---------------------------------------------------------------------------

def test_pair_result_validates_mean():
    with pytest.raises(ValueError):
        PairResult("a", "b", {1: 140.0})


def test_pair_result_without_structures_is_a_value_error():
    # the mean of no structures is undefined: a one-line error, not a division by zero
    with pytest.raises(ValueError, match="^pair a -> b has no scored structures$"):
        PairResult("a", "b", {})


def test_report_json_schema(tmp_path):
    labels = blob_labels((16, 16, 16), 4, seed=85)
    pr = pair_result("f1", "m1", labels, labels)
    report = JcReport((pr,))
    path = write_report(report, tmp_path / "report.json")
    assert path == tmp_path / "report.json"
    data = json.loads(path.read_text())
    assert data["schema"] == 1
    assert data["N_policy"] == "skip-empty"
    assert data["dataset_mean"] == 100.0
    assert data["pairs"][0]["fixed"] == "f1"
    assert data["pairs"][0]["moving"] == "m1"
    assert all(v == 100.0 for v in data["pairs"][0]["per_structure"].values())


def test_report_csv_roundtrip(tmp_path):
    labels = blob_labels((16, 16, 16), 3, seed=86)
    pr = pair_result("f1", "m1", labels, labels)
    report = JcReport((pr,))
    write_report(report, tmp_path / "report.json")
    path = tmp_path / "report.csv"
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["fixed", "moving", "label", "jc"]
    assert rows[-1][0] == "dataset"
    assert float(rows[-1][3]) == 100.0


@pytest.mark.parametrize("name, written", [
    ("run.v2", "run.v2"), ("run.v2.json", "run.v2"), ("run.v2.csv", "run.v2"), ("report", "report"),
])
def test_report_name_keeps_its_dots(tmp_path, name, written):
    # only a trailing .json/.csv is replaced, so run.v1 and run.v2 do not collide
    report = JcReport((PairResult("f1", "m1", {1: 50.0}),))
    assert write_report(report, tmp_path / name) == tmp_path / f"{written}.json"
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{written}.csv", f"{written}.json"]


def test_perfect_registration_restores_full_overlap():
    # warping labels by the ground-truth field restores JC 100 exactly,
    # because the synthetic fixed labels are that warp by construction
    from voxelreg.synth import make_pair
    from voxelreg.volume import warp_labels

    case = make_pair("translation", (24, 24, 24), seed=87, translation=(3.0, -2.0, 1.0), num_blobs=6)
    restored = warp_labels(case["moving_labels"], case["field"])
    labels = case["fixed_labels"].labels()
    mean, per = mean_jc_pair(case["fixed_labels"], restored, labels)
    assert mean == 100.0


GOLDEN_JSON = """{
  "N_policy": "skip-empty",
  "dataset_mean": 30.555555555555557,
  "pairs": [
    {
      "fixed": "f1",
      "mean": 61.111111111111114,
      "moving": "m1",
      "per_structure": {
        "1": 100.0,
        "10": 50.0,
        "2": 33.333333333333336
      }
    },
    {
      "fixed": "f2",
      "mean": 0.0,
      "moving": "m2",
      "per_structure": {
        "1": 0.0
      }
    }
  ],
  "schema": 1,
  "skipped_pairs": [
    "f3__m3"
  ]
}
"""

GOLDEN_CSV = (
    "fixed,moving,label,jc\r\n"
    "f1,m1,1,100.0\r\n"
    "f1,m1,2,33.333333333333336\r\n"
    "f1,m1,10,50.0\r\n"
    "f1,m1,mean,61.111111111111114\r\n"
    "f2,m2,1,0.0\r\n"
    "f2,m2,mean,0.0\r\n"
    "dataset,,mean,30.555555555555557\r\n"
)


def test_report_files_match_golden_text(tmp_path):
    # pins sorted keys, indent, float repr, label row order and the skipped pairs
    p1 = PairResult("f1", "m1", {10: 50.0, 2: 100 / 3, 1: 100.0})
    p2 = PairResult("f2", "m2", {1: 0.0})
    report = JcReport((p1, p2), ["f3__m3"])
    assert report.skipped_pairs == ("f3__m3",)
    write_report(report, tmp_path / "report")
    assert (tmp_path / "report.json").read_bytes().decode() == GOLDEN_JSON
    assert (tmp_path / "report.csv").read_bytes().decode() == GOLDEN_CSV
