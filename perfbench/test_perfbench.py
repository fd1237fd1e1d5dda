"""Self-tests of the benchmark harness, on inputs small enough to take seconds.

    python3 -m pytest perfbench
"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from voxelreg import cli, evaluation, pipeline, regcore  # noqa: E402
from voxelreg.pipeline import LevelParams  # noqa: E402

MODULES = {"pipeline": pipeline, "regcore": regcore, "cli": cli, "evaluation": evaluation}
COUNTERS = (
    "regcore.label_maps",
    "regcore.frac_label_maps",
    "regcore.sad_gb_computed",
    "pipeline.batches",
    "features.calls",
)


def tiny_pair(alpha=1.0):
    # 24^3 at a 1 MB budget: 9 maps per batch, so the fine level takes 3 batches
    levels = [LevelParams(2, 1.0, 1.0, 1, alpha), LevelParams(1, 0.5, 0.5, 1, alpha)]
    return workloads.PairWorkload(24, levels, 1, cases=2)


def level_gaps(spans):
    """Each level's span minus the summed durations of its stage spans."""
    kids = tracer.children(spans)
    gaps = []
    for reg in (s for s in spans if s.name == "pipeline.register"):
        for lv in tracer.register_levels(reg, kids):
            envelope = max(s.end for s in lv) - min(s.start for s in lv)
            gaps.append(envelope - sum(s.duration for s in lv))
    return gaps


def traced_op(wl, case):
    with tracer.Tracer(MODULES) as tr:
        start = time.perf_counter()
        wl.run(case)
        wall = time.perf_counter() - start
    return tr, wall


def test_work_counters_repeat_and_levels_add_up(tmp_path):
    wl = tiny_pair()
    wl.setup(3, tmp_path)
    runs = []
    for case in (0, 1, 0):
        start = time.perf_counter()
        wl.run(case)
        plain = time.perf_counter() - start
        tr, wall = traced_op(wl, case)
        runs.append((tr, tracer.layer_metrics(tr.spans, wall), wall - plain))

    for name in COUNTERS:
        assert len({m[name] for _, m, _ in runs}) == 1, name
    for tr, m, overhead in runs:
        chunked = [s for s in tr.spans if s.name == "pipeline.chunked"]
        assert sum(s.attrs["voxels"] * s.attrs["labels"] for s in chunked) == wl.voxel_labels
        assert m["pipeline.batches"] == 1 + 3
        assert m["regcore.frac_label_maps"] == 26
        assert m["pipeline.level1_s"] > 0
        gaps = level_gaps(tr.spans)
        assert len(gaps) == 2
        # the stages cover each level up to what tracing itself adds (the
        # glue between stages, and the tracer's work on each ended stage);
        # on an input this small the wall-time difference is mostly timer
        # noise, so the tracer's own recorded work stands in when larger
        bookkeeping = sum(s.overhead for s in tr.spans)
        for gap in gaps:
            assert -1e-9 <= gap <= max(overhead, bookkeeping)


def test_batch_counters_repeat(tmp_path):
    wl = workloads.BatchWorkload(12, 3, [LevelParams(1, 1.0, 1.0, 1, 1.0)], cases=1)
    wl.setup(5, tmp_path)
    metrics = []
    for _ in range(2):
        tr, wall = traced_op(wl, 0)
        metrics.append(tracer.layer_metrics(tr.spans, wall, wl.jobs))
    for name in COUNTERS + ("volume.io_mb", "features.distinct_input_frac"):
        assert metrics[0][name] == metrics[1][name], name
    assert metrics[0]["features.calls"] == 2 * wl.units
    assert metrics[0]["features.distinct_input_frac"] == 3 / (2 * wl.units)
    assert metrics[0]["cli.pairs_failed"] == 0
    assert metrics[0]["cli.parallel_eff"] > 0


def test_renamed_target_is_missing_not_zero(monkeypatch, tmp_path):
    # alpha=0 never smooths, so the pipeline runs without the helper, as it
    # would after a change that fused it away
    monkeypatch.delattr(regcore, "_smooth_map")
    wl = tiny_pair(alpha=0.0)
    wl.setup(3, tmp_path)
    tr, wall = traced_op(wl, 0)
    assert tr.missing == {"regcore.gauss"}
    metrics, dropped = tracer.available(tracer.layer_metrics(tr.spans, wall), tr.missing)
    assert dropped == ["pipeline.merge_s", "regcore.gauss_s"]
    assert "regcore.gauss_s" not in metrics
    assert metrics["regcore.label_maps"] == 27 + 27


def run_main(monkeypatch, capsys, trace, alpha):
    monkeypatch.setattr(workloads, "make", lambda name: tiny_pair(alpha))
    code = run.main(["--workload", "search729", "--seed", "2", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    details = json.loads(lines[-2].removeprefix("details "))
    return code, details, json.loads(lines[-1])


def test_harness_reports_missing_metric_and_keeps_running(monkeypatch, capsys):
    monkeypatch.delattr(regcore, "_smooth_map")
    code, details, result = run_main(monkeypatch, capsys, trace=1, alpha=0.0)
    assert code == 0
    assert result["attempted"] >= 3
    assert "regcore.gauss_s" in details["missing"]
    assert "regcore.gauss_s" not in result["metrics"]
    assert result["metrics"]["regcore.label_maps"]["value"] == 54


def test_harness_prints_every_end_to_end_metric(monkeypatch, capsys):
    code, details, result = run_main(monkeypatch, capsys, trace=0, alpha=1.0)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert code == 0
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    env = details["environment"]
    assert env["seed"] == 2 and env["nproc"] >= 1 and env["numpy"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_schedules_keep_the_64_cube_batching(name):
    wl = workloads.make(name)
    budget = wl.cfg.budget_bytes()
    batches = []
    for lv in wl.cfg.levels:
        voxels = 1
        for d in wl.dims:
            voxels *= -(-d // lv.factor)
        labels = (2 * round(lv.l_max / lv.q) + 1) ** 3
        batches.append(-(-labels // (budget // (voxels * 8))))
    expected = {
        "search729": [2],
        "pyramid_default": [1, 1],
        "subvoxel_tight": [2, 16],
        "batch_allpairs": [1],
    }
    assert batches == expected[name]
