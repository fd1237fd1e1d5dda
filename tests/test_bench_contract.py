"""The package keeps the span contract that the perfbench harness relies on.

``perfbench/tracer.py`` times voxelreg's layers by wrapping module
attributes (``pipeline._featurize``, ``regcore._label_cost_map``, ...) and
binding their parameters by name. A refactor that renames one of them, or
stops calling it through its module, leaves the benchmark reporting that
layer as missing; this test makes the suite fail instead.
"""

import functools
import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402
from voxelreg import cli, evaluation, pipeline, regcore  # noqa: E402
from voxelreg.features import edge_features  # noqa: E402
from voxelreg.pipeline import LevelParams, RegistrationConfig  # noqa: E402
from voxelreg.synth import make_pair  # noqa: E402
from voxelreg.volume import save_volume  # noqa: E402

MODULES = {"pipeline": pipeline, "regcore": regcore, "cli": cli, "evaluation": evaluation}
TWO_LEVELS = (LevelParams(2, 1.0, 1.0, 1, 1.0), LevelParams(1, 1.0, 1.0, 1, 1.0))


def write_subject(tmp_path, seed):
    case = make_pair("translation", (12, 12, 12), seed, translation=(1.0, 0.0, 0.0),
                     num_blobs=3, min_radius=2.0, max_radius=3.0)
    paths = {"id": f"s{seed}"}
    for key, vol in (("image", case["moving"]), ("labels", case["moving_labels"])):
        paths[key] = str(tmp_path / f"s{seed}_{key}")
        save_volume(vol, paths[key])
    return case, paths


def test_every_traced_target_exists_and_is_called(tmp_path):
    case, subject_a = write_subject(tmp_path, 1)
    _, subject_b = write_subject(tmp_path, 2)
    fixed, moving = case["fixed"], case["moving"]
    for name, vol in (("ext_fixed", fixed), ("ext_moving", moving)):
        save_volume(edge_features(vol), tmp_path / name)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "volumes": [subject_a, subject_b],
        "config": {"feature": "edge", "levels": [TWO_LEVELS[1].to_dict()]},
    }))

    with tracer.Tracer(MODULES) as tr:
        pipeline.register(fixed, moving, RegistrationConfig(feature="ssc", levels=TWO_LEVELS))
        external = RegistrationConfig(
            feature="external",
            levels=TWO_LEVELS,
            external_fixed=str(tmp_path / "ext_fixed"),
            external_moving=str(tmp_path / "ext_moving"),
        )
        pipeline.register(fixed, moving, external)
        assert cli.main(["batch", str(manifest), "--out-dir", str(tmp_path / "out")]) == 0

    assert tr.missing == set()
    assert {s.name for s in tr.spans} == {t[2] for t in tracer.TARGETS}
    assert not any(s.attrs.get("error") for s in tr.spans)


def test_threaded_search_keeps_every_search_span(monkeypatch):
    # two workers whatever the CPU count: the cost-kernel spans then come
    # from worker threads (each level's pool starts its own), and each must
    # still be recorded
    case = make_pair("translation", (12, 12, 12), 3, translation=(1.0, 0.0, 0.0),
                     num_blobs=3, min_radius=2.0, max_radius=3.0)
    cfg = RegistrationConfig(feature="ssc", levels=TWO_LEVELS, workers=2)

    # a pool may run both workers of a tiny level on one thread; holding each
    # thread's first kernel call until a second thread arrives keeps the first
    # busy, so the pool starts a second thread for the other worker
    kernel = regcore._label_cost_map
    started, seen = threading.Barrier(2, timeout=30), threading.local()

    @functools.wraps(kernel)
    def first_call_waits(*args, **kwargs):
        if not getattr(seen, "called", False):
            seen.called = True
            started.wait()
        return kernel(*args, **kwargs)

    monkeypatch.setattr(regcore, "_label_cost_map", first_call_waits)
    with tracer.Tracer(MODULES) as tr:
        pipeline.register(case["fixed"], case["moving"], cfg)

    assert tr.missing == set()
    assert not any(s.attrs.get("error") for s in tr.spans)
    main = threading.get_ident()
    for name in ("regcore.sad", "regcore.box", "regcore.gauss"):
        threads = {s.thread for s in tr.spans if s.name == name}
        assert len(threads) >= 2 and main not in threads, name
    assert {s.name for s in tr.spans} == {t[2] for t in tracer.TARGETS if t[0] in ("pipeline", "regcore")}
