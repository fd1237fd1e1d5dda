"""The package keeps the span contract that the perfbench harness relies on.

``perfbench/tracer.py`` times voxelreg's layers by wrapping module
attributes (``pipeline._featurize``, ``regcore._label_cost_map``, ...) and
binding their parameters by name. A refactor that renames one of them, or
stops calling it through its module, leaves the benchmark reporting that
layer as missing; this test makes the suite fail instead.
"""

import json
import sys
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
