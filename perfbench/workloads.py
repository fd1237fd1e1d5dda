"""The benchmark's workloads: inputs made from a seed, the timed operation,
and the checks every output must pass.

Every input is a seeded synthetic sinusoid warp from ``voxelreg.synth``, so
the exact ground-truth field is known and the endpoint error can be scored
next to the label overlap. A seed yields several cases, and the accuracy
metrics are means over all of them, so that they describe the method
rather than one random image.

Volumes are smaller than the 64^3 cases named in ROADMAP.md: the whole
benchmark has to run 4 + 22 x 4 times within an hour on a 2-core machine.
Each workload keeps the 64^3 case's candidate count, level schedule and
number of candidate batches per level.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

import numpy as np
from scipy import ndimage

from voxelreg import cli, evaluation, pipeline, synth, volume
from voxelreg.pipeline import LevelParams, RegistrationConfig

AMPLITUDE = 3.0
PERIOD = 40.0
BLOBS = 20


def sub_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def endpoint_error(u: np.ndarray, truth: np.ndarray) -> float:
    return float(np.linalg.norm(u.astype(np.float64) - truth, axis=-1).mean())


def fold_fraction(u: np.ndarray) -> float:
    """Share of voxels where det(I + grad u) <= 0 (central differences)."""
    grads = [np.gradient(u[..., c].astype(np.float64)) for c in range(3)]  # d/dz, d/dy, d/dx
    # j[c][a]: derivative of component c (dx, dy, dz) along axis a (x, y, z)
    j = [[grads[c][2 - a] + (1.0 if a == c else 0.0) for a in range(3)] for c in range(3)]
    det = (
        j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1])
        - j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0])
        + j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0])
    )
    return float((det <= 0).mean())


def pair_jc(fixed_labels, warped_labels, moving_labels) -> float:
    """Mean overlap of one pair over the labels of either input, as batch scores it."""
    labels = sorted(set(fixed_labels.labels()) | set(moving_labels.labels()))
    return evaluation.mean_jc_pair(fixed_labels, warped_labels, labels)[0]


def field_bound(levels) -> float:
    """Largest component any level schedule can produce: each level's
    increment is at most its l_max, scaled up to the full grid."""
    return sum(lv.l_max * lv.factor for lv in levels)


def voxel_labels(dims, levels) -> int:
    """Voxels times candidates summed over the levels of one registration."""
    total = 0
    for lv in levels:
        voxels = math.prod(-(-d // lv.factor) for d in dims)
        total += voxels * (2 * round(lv.l_max / lv.q) + 1) ** 3
    return total


def field_checks(u: np.ndarray, bound: float) -> list[str]:
    if not np.isfinite(u).all():
        return ["field is not finite"]
    peak = float(np.abs(u).max())
    if peak > bound + 1e-5:
        return [f"field component {peak} exceeds the schedule's bound {bound}"]
    return []


class Outcome:
    """Checks and accuracy of one timed operation."""

    def __init__(self, units: int):
        self.units = units          # operations the timed call attempted
        self.failed_units = 0
        self.messages: list[str] = []
        self.scores: dict[str, float] = {}

    def fail(self, message: str, units: int | None = None):
        self.messages.append(message)
        self.failed_units = min(self.units, self.failed_units + (self.units if units is None else units))


class PairWorkload:
    """One ``pipeline.register()`` call per operation on a sinusoid pair."""

    jobs = 1
    units = 1

    def __init__(self, size: int, levels, memory_budget_mb: int | None, cases: int, feature="ssc"):
        self.dims = (size, size, size)
        self.cfg = RegistrationConfig(
            feature=feature, levels=tuple(levels), memory_budget_mb=memory_budget_mb
        )
        self.cases = cases
        self.voxel_labels = voxel_labels(self.dims, self.cfg.levels)

    def setup(self, seed: int, workdir: Path):
        self.pairs = [
            synth.make_pair(
                "sinusoid", self.dims, s, amplitude=AMPLITUDE, period=PERIOD, num_blobs=BLOBS
            )
            for s in sub_seeds(seed, self.cases)
        ]

    def run(self, case: int):
        pair = self.pairs[case]
        field, _ = pipeline.register(pair["fixed"], pair["moving"], self.cfg)
        return field

    def fingerprint(self, field) -> bytes:
        return field.data.tobytes()

    def check(self, case: int, field, score: bool) -> Outcome:
        """Field health always; accuracy when ``score`` (a case's first run,
        since reruns must be bit-identical anyway)."""
        out = Outcome(self.units)
        pair = self.pairs[case]
        u = field.data
        for msg in field_checks(u, field_bound(self.cfg.levels)):
            out.fail(msg)
        if out.messages or not score:
            return out
        truth = pair["field"].data
        warped = volume.warp_labels(pair["moving_labels"], field)
        jc = pair_jc(pair["fixed_labels"], warped, pair["moving_labels"])
        jc0 = pair_jc(pair["fixed_labels"], pair["moving_labels"], pair["moving_labels"])
        epe = endpoint_error(u, truth)
        epe0 = endpoint_error(np.zeros_like(u), truth)
        if not jc > jc0:
            out.fail(f"case {case}: JC {jc:.2f} not above the unregistered {jc0:.2f}")
        if not epe < epe0:
            out.fail(f"case {case}: EPE {epe:.3f} not below the zero field's {epe0:.3f}")
        out.scores = {"jc": jc, "epe": epe, "fold": fold_fraction(u)}
        return out

    @staticmethod
    def summarize(scores: list[dict]) -> dict[str, float]:
        return {
            "jc_mean": evaluation.mean_jc_dataset(s["jc"] for s in scores),
            "epe_mean": statistics.fmean(s["epe"] for s in scores),
            "fold_frac": statistics.fmean(s["fold"] for s in scores),
        }


class BatchWorkload:
    """``voxelreg batch --jobs 2`` over every ordered pair of a volumes manifest.

    Each case is one manifest whose subjects are sinusoid warps of one
    shared base image and label map, so every image recurs in
    2 * (subjects - 1) of its pairs. The fields ``register()`` returns are
    captured on the way out, because the batch command scores overlap but
    writes no field.
    """

    jobs = 2

    def __init__(self, size: int, subjects: int, levels, cases: int, feature="edge"):
        self.dims = (size, size, size)
        self.subjects = subjects
        self.cases = cases
        self.units = subjects * (subjects - 1)
        self.cfg = RegistrationConfig(feature=feature, levels=tuple(levels))
        self.voxel_labels = self.units * voxel_labels(self.dims, self.cfg.levels)

    def setup(self, seed: int, workdir: Path):
        self.cohorts = [
            self._cohort(s, workdir / f"case{c}")
            for c, s in enumerate(sub_seeds(seed, self.cases))
        ]

    def _cohort(self, seed: int, workdir: Path) -> dict:
        base_seed, label_seed, *warp_seeds = sub_seeds(seed, self.subjects + 2)
        base = synth.smooth_random_volume(self.dims, base_seed)
        base_labels = synth.blob_labels(self.dims, BLOBS, label_seed)
        workdir.mkdir(parents=True, exist_ok=True)
        cohort = {"fields": [], "labels": [], "image_ids": {}, "out_dir": workdir / "out"}
        volumes = []
        for k, s in enumerate(warp_seeds):
            field = synth.sinusoid_field(self.dims, AMPLITUDE, PERIOD, s)
            image = volume.warp_scalar(base, field)
            labels = volume.warp_labels(base_labels, field)
            volume.save_volume(image, workdir / f"s{k}_image")
            volume.save_volume(labels, workdir / f"s{k}_labels")
            cohort["fields"].append(field.data)
            cohort["labels"].append(labels)
            cohort["image_ids"][image.data.tobytes()] = k
            volumes.append(
                {"id": f"s{k}", "image": str(workdir / f"s{k}_image"),
                 "labels": str(workdir / f"s{k}_labels")}
            )
        cohort["manifest"] = workdir / "manifest.json"
        cohort["manifest"].write_text(json.dumps(
            {"output_dir": str(cohort["out_dir"]), "config": self.cfg.to_dict(), "volumes": volumes}
        ))
        return cohort

    def run(self, case: int):
        cohort = self.cohorts[case]
        captured = []
        inner = cli.register

        def capture(fixed, moving, cfg):
            result = inner(fixed, moving, cfg)
            captured.append((fixed, moving, result[0]))
            return result

        cli.register = capture
        try:
            code = cli.main(["batch", str(cohort["manifest"]), "--jobs", str(self.jobs)])
        finally:
            cli.register = inner
        report = json.loads((cohort["out_dir"] / "report.json").read_text()) if code == 0 else None
        return code, report, captured

    def fingerprint(self, output) -> str:
        return json.dumps(output[1], sort_keys=True)

    @staticmethod
    def truth(u_fixed: np.ndarray, u_moving: np.ndarray) -> np.ndarray:
        """Ground truth of moving -> fixed for subjects warped from one base,
        on every second voxel along each axis: u(x) = u_f(x) - u_m(x + u(x)),
        solved by fixed-point iteration (a contraction for these warps)."""
        grid = np.indices(u_fixed.shape[:3], dtype=np.float64)[:, ::2, ::2, ::2]  # z, y, x
        target = u_fixed[::2, ::2, ::2].astype(np.float64)
        u = target
        for _ in range(10):
            coords = [grid[0] + u[..., 2], grid[1] + u[..., 1], grid[2] + u[..., 0]]
            u = target - np.stack(
                [ndimage.map_coordinates(u_moving[..., c], coords, order=1, mode="nearest")
                 for c in range(3)], axis=-1)
        return u

    def check(self, case: int, output, score: bool) -> Outcome:
        out = Outcome(self.units)
        cohort = self.cohorts[case]
        code, report, captured = output
        if code != 0 or report is None:
            out.fail(f"batch exited with code {code}")
            return out
        skipped = report.get("skipped_pairs", [])
        if skipped:
            out.fail(f"batch skipped pairs {skipped}", units=len(skipped))
        if len(report["pairs"]) + len(skipped) != self.units:
            out.fail(f"batch reported {len(report['pairs'])} pairs, expected {self.units}")
        if len(captured) != self.units:
            out.fail(f"captured {len(captured)} fields, expected {self.units}")
            return out
        bound = field_bound(self.cfg.levels)
        epes, epes0, folds = [], [], []
        for fixed, moving, field in captured:
            f = cohort["image_ids"].get(fixed.data.tobytes())
            m = cohort["image_ids"].get(moving.data.tobytes())
            if f is None or m is None:
                out.fail("a registered image matches no generated subject", units=1)
                continue
            msgs = field_checks(field.data, bound)
            if msgs:
                out.fail(f"pair s{m}->s{f}: {msgs[0]}", units=1)
                continue
            if not score:
                continue
            truth = self.truth(cohort["fields"][f], cohort["fields"][m])
            epes.append(endpoint_error(field.data[::2, ::2, ::2], truth))
            epes0.append(endpoint_error(np.zeros_like(truth), truth))
            folds.append(fold_fraction(field.data))
        if out.messages or not score:
            return out
        labels = cohort["labels"]
        jc0 = evaluation.mean_jc_dataset(
            pair_jc(labels[f], labels[m], labels[m])
            for f in range(self.subjects) for m in range(self.subjects) if f != m
        )
        jc = report["dataset_mean"]
        epe, epe0 = statistics.fmean(epes), statistics.fmean(epes0)
        if not jc > jc0:
            out.fail(f"case {case}: dataset JC {jc:.2f} not above the unregistered {jc0:.2f}")
        if not epe < epe0:
            out.fail(f"case {case}: mean EPE {epe:.3f} not below the zero field's {epe0:.3f}")
        out.scores = {"jc": jc, "epe": epe, "fold": statistics.fmean(folds)}
        return out

    summarize = staticmethod(PairWorkload.summarize)


def make(name: str):
    """A fresh workload object; each run builds its own."""
    if name == "search729":
        # criterion-9 configuration: one level, 729 integer candidates; the
        # budget gives two batches of cost maps, as 1024 MB does at 64^3
        return PairWorkload(24, [LevelParams(1, 1.0, 4.0, 2, 2.0)], 54, cases=10)
    if name == "pyramid_default":
        # what a user gets without flags: the default 2-level schedule
        return PairWorkload(36, pipeline.default_levels(), None, cases=6)
    if name == "subvoxel_tight":
        # fractional q=0.5 candidates on the fine level; the budget gives
        # the same 2 + 16 batches as 16 MB does at 64^3
        return PairWorkload(
            32, [LevelParams(2, 1.0, 2.0, 2, 2.0), LevelParams(1, 0.5, 1.0, 2, 2.0)], 2, cases=8
        )
    if name == "batch_allpairs":
        return BatchWorkload(40, 5, [LevelParams(1, 1.0, 1.0, 2, 2.0)], cases=3)
    raise KeyError(name)


NAMES = ("search729", "pyramid_default", "subvoxel_tight", "batch_allpairs")
