"""End-to-end CLI tests: exit codes, files, reports.

``run_cli`` runs a command in this interpreter through ``cli.main``.
``run_entry_point`` starts ``python -m voxelreg`` in a new interpreter; it
runs only the tests whose point is a fresh process: the entry point's exit
codes, the environment at import time, and the acceptance criteria.
"""

import contextlib
import dataclasses
import functools
import inspect
import io
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import voxelreg
from voxelreg import cli
from voxelreg.cli import (
    CONFIG_FLAGS,
    _config_from_args,
    build_parser,
    enumerate_pairs,
    load_manifest,
)
from voxelreg.features import normalize_intensity, zscore_channels
from voxelreg.pipeline import RegistrationConfig
from voxelreg.volume import load_volume, save_volume
from voxelreg.synth import make_pair, smooth_random_volume


# the child process imports the voxelreg this one imports, installed or not
SRC = str(Path(voxelreg.__file__).resolve().parents[1])


def run_entry_point(*args, env=None):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "voxelreg", *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **(env or {})},
    )


def run_cli(*args):
    """``cli.main(args)`` in this interpreter, with what a child process would report."""
    argv = [str(a) for a in args]
    out, err = io.StringIO(), io.StringIO()
    # main's basicConfig does nothing while pytest's log capture holds root
    # handlers, so the voxelreg logger writes to the captured stderr itself
    handler = logging.StreamHandler(err)
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    level = cli.logger.level
    cli.logger.addHandler(handler)
    cli.logger.setLevel(logging.INFO)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse: 2 on a usage error, 0 after --help
                code = exc.code
    finally:
        cli.logger.removeHandler(handler)
        cli.logger.setLevel(level)
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def assert_one_line_error(res, needle):
    assert res.returncode == 1, res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr
    assert needle in lines[0]


@pytest.fixture(scope="module")
def translation_case(tmp_path_factory):
    """A synthetic translation pair written via the synth command."""
    root = tmp_path_factory.mktemp("case")
    prefix = root / "t"
    res = run_cli(
        "synth", "--kind", "translation", "--dims", "24", "--seed", "5",
        "--out-prefix", prefix, "--translation", "2,0,0",
        "--num-blobs", "6", "--noise-sigma", "1.2",
    )
    assert res.returncode == 0, res.stderr
    return prefix


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_writes_all_outputs(translation_case):
    prefix = translation_case
    for part in ("fixed", "moving", "fixed_labels", "moving_labels", "field"):
        assert (prefix.parent / f"{prefix.name}_{part}.raw").exists()
        assert (prefix.parent / f"{prefix.name}_{part}.json").exists()
    meta = json.loads((prefix.parent / f"{prefix.name}_meta.json").read_text())
    assert meta["seed"] == 5
    assert meta["kind"] == "translation"


def test_synth_same_seed_bit_identical(tmp_path):
    for sub in ("a", "b"):
        res = run_cli(
            "synth", "--kind", "sinusoid", "--dims", "16", "--seed", "9",
            "--out-prefix", tmp_path / sub / "s",
        )
        assert res.returncode == 0, res.stderr
    for part in ("fixed", "moving", "field", "fixed_labels", "moving_labels"):
        a = (tmp_path / "a" / f"s_{part}.raw").read_bytes()
        b = (tmp_path / "b" / f"s_{part}.raw").read_bytes()
        assert a == b, part


def test_synth_translation_warped_equals_shift(translation_case):
    prefix = translation_case
    fixed = load_volume(prefix.parent / f"{prefix.name}_fixed")
    moving = load_volume(prefix.parent / f"{prefix.name}_moving")
    assert np.array_equal(fixed.data[:, :, :-2], moving.data[:, :, 2:])


def test_synth_blobs_kind(tmp_path):
    res = run_cli("synth", "--kind", "blobs", "--dims", "16", "--seed", "3",
                  "--out-prefix", tmp_path / "b", "--num-blobs", "5")
    assert res.returncode == 0, res.stderr
    labels = load_volume(tmp_path / "b_labels")
    assert len(labels.labels()) >= 1
    assert not (tmp_path / "b_fixed.raw").exists()


def test_synth_bad_dims_fails(tmp_path):
    res = run_cli("synth", "--kind", "blobs", "--dims", "0", "--seed", "1",
                  "--out-prefix", tmp_path / "x")
    assert res.returncode == 1
    assert "error:" in res.stderr


@pytest.mark.parametrize("flags, needle", [
    (["--dims", "1"], "dims must hold at least 2 voxels for a smooth volume, got (1, 1, 1)"),
    (["--dims", "8", "--noise-sigma", "-1"], "noise sigma must be >= 0, got -1.0"),
    (["--dims", "8", "--min-radius", "7", "--max-radius", "3"],
     "need 0 <= min_radius <= max_radius, got 7.0, 3.0"),
    (["--dims", "8.5"], "bad --dims '8.5', expected 1 or 3 comma-separated int values"),
    (["--dims", "8,8"], "bad --dims '8,8', expected 1 or 3 comma-separated int values"),
    (["--dims", "8", "--translation", "a"],
     "bad --translation 'a', expected 1 or 3 comma-separated float values"),
    (["--dims", "8", "--amplitude", "nan"], "amplitude must be finite, got nan"),
    (["--dims", "8", "--period", "nan"], "period must be > 0, got nan"),
    (["--dims", "8", "--translation", "1,nan,0"],
     "translation must be 3 finite numbers (tx, ty, tz), got [1.0, nan, 0.0]"),
    # a second --kind replaces the first; none of these writes meta or a traceback
    (["--kind", "blobs", "--dims", "8", "--noise-sigma", "nan"], "noise sigma must be >= 0, got nan"),
    (["--kind", "sinusoid", "--dims", "8", "--period", "inf"], "period must be finite, got inf"),
    (["--kind", "blobs", "--dims", "8", "--max-radius", "inf"], "max_radius must be finite, got inf"),
    (["--kind", "sinusoid", "--dims", "8", "--noise-sigma", "inf"], "noise sigma must be finite, got inf"),
    # the messages name the flags' own values, not numpy's or an inner parameter
    (["--dims", "8", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["--kind", "blobs", "--dims", "8", "--num-blobs", "0"], "blob count must be >= 1, got 0"),
])
def test_synth_bad_input_is_one_line_error(tmp_path, flags, needle):
    res = run_cli("synth", "--kind", "translation", "--seed", "1",
                  "--out-prefix", tmp_path / "x", *flags)
    assert_one_line_error(res, needle)
    assert not list(tmp_path.iterdir())


def test_synth_flags_default_as_make_pair_does(tmp_path, monkeypatch):
    calls = []
    # the stand-in keeps make_pair's signature, which the parser reads
    fake = functools.wraps(make_pair)(lambda kind, dims, **kw: calls.append(kw) or {})
    monkeypatch.setattr(cli.synth, "make_pair", fake)
    res = run_cli("synth", "--kind", "translation", "--dims", "8", "--seed", "1",
                  "--out-prefix", tmp_path / "x")
    assert res.returncode == 0, res.stderr
    defaults = {name: p.default for name, p in inspect.signature(make_pair).parameters.items()
                if p.default is not p.empty}
    assert set(defaults) == set(cli.SYNTH_PARAMS) and "translation" in defaults
    assert calls == [{"seed": 1, **defaults}]


def test_synth_dotted_prefix_keeps_its_dots(tmp_path):
    # each part gets its own files: the dot in the prefix is not an extension
    res = run_cli("synth", "--kind", "translation", "--dims", "8", "--seed", "1",
                  "--out-prefix", tmp_path / "case.7", "--num-blobs", "2",
                  "--min-radius", "1", "--max-radius", "2")
    assert res.returncode == 0, res.stderr
    parts = ("fixed", "moving", "fixed_labels", "moving_labels", "field")
    expected = {f"case.7_{p}.{ext}" for p in parts for ext in ("raw", "json")}
    assert {f.name for f in tmp_path.iterdir()} == expected | {"case.7_meta.json"}
    assert np.all(load_volume(tmp_path / "case.7_field", kind="field").data == [2.0, 0.0, 0.0])
    assert load_volume(tmp_path / "case.7_fixed_labels").header.dtype == "int32"


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------

REGISTER_ARGS = ["register", "--fixed", "f", "--moving", "m", "--out-field", "o"]
FLAG_CONFIG = {
    "feature": "edge",
    "memory_budget_mb": 32,
    "levels": [{"factor": 1, "q": 1.0, "l_max": 2.0, "patch_radius": 1, "alpha": 4.0}],
}


LEVELS = "2:2:4:1:1,1:1:2:1:1"
LEVELS_EXPECTED = [
    {"factor": 2, "q": 2.0, "l_max": 4.0, "patch_radius": 1, "alpha": 1.0},
    {"factor": 1, "q": 1.0, "l_max": 2.0, "patch_radius": 1, "alpha": 1.0},
]
PATHS = ["--external-fixed", "ef", "--external-moving", "em"]


@pytest.mark.parametrize(
    "flags, expected",
    [
        # over the defaults
        ([], {}),
        (["--feature", "intensity"], {"feature": "intensity"}),
        (["--memory-budget", "64"], {"memory_budget_mb": 64}),
        (["--standardize"], {"standardize": True}),
        (["--standardize", "--standardize-reference", "ref"],
         {"standardize": True, "standardize_reference": "ref"}),
        (["--feature", "external", *PATHS],
         {"feature": "external", "external_fixed": "ef", "external_moving": "em"}),
        (["--levels", LEVELS], {"levels": LEVELS_EXPECTED}),
        # over --config
        (["--config", "CFG"], {}),
        (["--config", "CFG", "--feature", "ssc", "--memory-budget", "8"],
         {"feature": "ssc", "memory_budget_mb": 8}),
        (["--config", "CFG", "--levels", LEVELS], {"levels": LEVELS_EXPECTED}),
        (["--config", "CFG", "--standardize", "--standardize-reference", "ref"],
         {"standardize": True, "standardize_reference": "ref"}),
        (["--config", "CFG", "--feature", "external", *PATHS],
         {"feature": "external", "external_fixed": "ef", "external_moving": "em"}),
        # alongside --levels
        (["--levels", LEVELS, "--feature", "intensity", "--memory-budget", "64", "--standardize"],
         {"levels": LEVELS_EXPECTED, "feature": "intensity", "memory_budget_mb": 64,
          "standardize": True}),
    ],
)
def test_register_flags_override_config_fields(tmp_path, flags, expected):
    """Each register flag sets exactly its config field, over defaults or --config."""
    (tmp_path / "cfg.json").write_text(json.dumps(FLAG_CONFIG))
    flags = [str(tmp_path / "cfg.json") if f == "CFG" else f for f in flags]
    cfg = _config_from_args(build_parser().parse_args(REGISTER_ARGS + flags))

    base = RegistrationConfig.from_dict(FLAG_CONFIG if "--config" in flags else {})
    assert cfg.to_dict() == {**base.to_dict(), **expected}


def test_register_flag_names_are_config_fields():
    # I/O paths, --config and --levels aside, every register option is a
    # CONFIG_FLAGS name that sets the config field of that name
    dests = set(vars(build_parser().parse_args(REGISTER_ARGS))) - {"command", "func"}
    io = {"fixed", "moving", "out_field", "out_warped"}
    assert dests == io | {"config", "levels"} | set(CONFIG_FLAGS)
    assert set(CONFIG_FLAGS) <= {f.name for f in dataclasses.fields(RegistrationConfig)}


@pytest.mark.parametrize("flag", ["--q", "--lmax", "--alpha", "--patch-radius"])
def test_register_level_field_flag_is_usage_error(tmp_path, flag):
    # level fields come only from --levels or the config's levels
    res = run_cli("register", "--fixed", tmp_path / "f", "--moving", tmp_path / "m",
                  "--out-field", tmp_path / "o", flag, "1")
    assert res.returncode == 2
    assert f"unrecognized arguments: {flag} 1" in res.stderr


def test_register_reference_without_standardize_is_one_line_error(tmp_path):
    # the flag sets only standardize_reference, so the config's own rule applies
    res = run_cli("register", "--fixed", tmp_path / "f", "--moving", tmp_path / "m",
                  "--out-field", tmp_path / "o", "--standardize-reference", tmp_path / "ref")
    assert_one_line_error(res, "config standardize_reference requires standardize")


def test_readme_register_flags_are_register_options(capsys):
    # the README's configuration section documents no flag the parser lacks
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = re.split(r"^##+ ", readme.split("### Registration configuration", 1)[1], flags=re.M)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    with pytest.raises(SystemExit):
        build_parser().parse_args(["register", "--help"])
    usage = capsys.readouterr().out
    missing = {flag for flag in named if not re.search(rf"{flag}(?![\w-])", usage)}
    assert named and not missing, missing


def test_readme_config_example_is_a_default_config():
    # the configuration section's JSON example parses, names every config
    # field and no other, and holds the default levels, so a field cannot
    # be added to the config without the README showing it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Registration configuration", 1)[1]
    example = json.loads(re.search(r"^```json\n(.*?)^```", section, flags=re.M | re.S).group(1))
    cfg = RegistrationConfig.from_dict(example)
    assert set(example) == {f.name for f in dataclasses.fields(RegistrationConfig)}
    assert cfg.levels == RegistrationConfig().levels


def test_register_self_gives_zero_field(tmp_path):
    vol = smooth_random_volume((16, 16, 16), seed=11)
    save_volume(vol, tmp_path / "vol")
    res = run_cli(
        "register", "--fixed", tmp_path / "vol", "--moving", tmp_path / "vol",
        "--out-field", tmp_path / "field", "--out-warped", tmp_path / "warped",
        "--levels", "1:1:2:1:1", "--feature", "intensity",
    )
    assert res.returncode == 0, res.stderr
    field = load_volume(tmp_path / "field", kind="field")
    assert np.all(field.data == 0.0)
    warped = load_volume(tmp_path / "warped")
    assert np.array_equal(warped.data, vol.data)


def test_register_missing_fixed_is_usage_error(tmp_path):
    res = run_cli("register", "--moving", tmp_path / "m", "--out-field", tmp_path / "f")
    assert res.returncode == 2


def test_register_zscore_external_is_usage_error(tmp_path):
    # external features are z-scored once, by `features --zscore`
    res = run_cli("register", "--fixed", tmp_path / "f", "--moving", tmp_path / "m",
                  "--out-field", tmp_path / "o", "--zscore-external")
    assert res.returncode == 2
    assert "unrecognized arguments: --zscore-external" in res.stderr


def test_register_external_features_that_overflow_costs_is_one_line_error(tmp_path):
    # finite features whose box-summed SAD overflows float32 are refused, not
    # searched into an all-zero field
    from voxelreg.volume import FeatureVolume

    rng = np.random.default_rng(15)
    vol = smooth_random_volume((8, 8, 8), seed=15)
    save_volume(vol, tmp_path / "vol")
    for name in ("ef", "em"):
        data = (1e37 * rng.choice([-1.0, 1.0], (8, 8, 8, 2))).astype(np.float32)
        save_volume(FeatureVolume(data), tmp_path / name)
    res = run_cli(
        "register", "--fixed", tmp_path / "vol", "--moving", tmp_path / "vol",
        "--out-field", tmp_path / "field", "--levels", "1:1:1:1:1", "--feature", "external",
        "--external-fixed", tmp_path / "ef", "--external-moving", tmp_path / "em",
    )
    assert_one_line_error(res, "features too large for float32 costs")
    assert res.stderr.strip().endswith("z-score them with voxelreg features --descriptor external --zscore")
    assert not (tmp_path / "field.raw").exists()


def test_register_nonexistent_input_is_runtime_error(tmp_path):
    res = run_cli(
        "register", "--fixed", tmp_path / "nope", "--moving", tmp_path / "nope",
        "--out-field", tmp_path / "f",
    )
    assert res.returncode == 1
    assert "error:" in res.stderr


def test_register_recovers_synth_translation(translation_case, tmp_path):
    prefix = translation_case
    res = run_cli(
        "register",
        "--fixed", prefix.parent / f"{prefix.name}_fixed",
        "--moving", prefix.parent / f"{prefix.name}_moving",
        "--out-field", tmp_path / "field",
        "--levels", "1:1:2:1:0", "--feature", "intensity",
    )
    assert res.returncode == 0, res.stderr
    field = load_volume(tmp_path / "field", kind="field")
    m = 3
    interior = field.data[m:-m, m:-m, m:-m]
    assert np.all(interior == np.array([2.0, 0.0, 0.0], dtype=np.float32))


def test_register_with_config_file(tmp_path):
    vol = smooth_random_volume((12, 12, 12), seed=12)
    save_volume(vol, tmp_path / "vol")
    cfg = {
        "feature": "edge",
        "levels": [{"factor": 1, "q": 1.0, "l_max": 1.0, "patch_radius": 1, "alpha": 0.5}],
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    res = run_cli(
        "register", "--fixed", tmp_path / "vol", "--moving", tmp_path / "vol",
        "--config", tmp_path / "cfg.json", "--out-field", tmp_path / "field",
    )
    assert res.returncode == 0, res.stderr
    assert np.all(load_volume(tmp_path / "field", kind="field").data == 0.0)


@pytest.mark.parametrize(
    "cfg, needle",
    [
        ({"levels": [{"factr": 2}]}, "factr"),
        ({"featur": "edge"}, "featur"),
        ({"levels": [{"factor": 1, "q": 3.0, "l_max": 2.0}]}, "multiple"),
        ([], "config must be a JSON object"),
        ({"levels": [[1, 1.0]]}, "level must be a JSON object"),
        ({"levels": [{"factor": 1, "q": "1"}]}, "level q must be a finite real number"),
        ({"levels": [{"factor": 1, "patch_radius": 1.5}]}, "level patch_radius must be an integer"),
        ({"levels": [{"factor": 1.5}]}, "level factor must be an integer"),
        ({"levels": [{"factor": 1, "l_max": None}]}, "level l_max must be a finite real number"),
        ({"levels": [{"factor": 1, "alpha": [2]}]}, "level alpha must be a finite real number"),
        ({"levels": [{"factor": 1, "smooth_sigma": 1.0}]}, "unknown level key(s) ['smooth_sigma']"),
        ({"levels": [{"factor": 1, "alpha": float("inf")}]}, "alpha must be a finite real number"),
        ({"levels": 5}, "config levels must be a list of levels, got 5"),
        ({"memory_budget_mb": "64"}, "config memory_budget_mb must be an integer, got '64'"),
        ({"memory_budget_mb": True}, "config memory_budget_mb must be an integer, got True"),
        ({"feature": "external", "external_fixed": 5, "external_moving": "m"},
         "config external_fixed must be a string, got 5"),
        ({"standardize": "false"}, "config standardize must be true or false, got 'false'"),
        ({"zscore_external": False}, "unknown config key(s) ['zscore_external']"),
        ({"standardize_reference": "ref"}, "config standardize_reference requires standardize"),
        ({"workers": 0}, "config workers must be a positive integer, got 0"),
        ({"workers": -2}, "config workers must be a positive integer, got -2"),
        ({"workers": True}, "config workers must be a positive integer, got True"),
        ({"workers": 1.5}, "config workers must be a positive integer, got 1.5"),
        ({"workers": "2"}, "config workers must be a positive integer, got '2'"),
        ({"memory_budget_mb": 0}, "config memory_budget_mb must be positive, got 0"),
        ({"memory_budget_mb": -64}, "config memory_budget_mb must be positive, got -64"),
        ({"levels": []}, "at least one level is required"),
        ({"levels": None}, "config levels must be a list of levels, got None"),
        ({"feature": "external", "external_fixed": "f", "external_moving": "m", "standardize": True},
         "config standardize does not apply to external features"),
        ({"external_fixed": "ef", "external_moving": "em"},
         "config external paths apply only to external features, not ssc"),
        ({"feature": "edge", "external_moving": "em"},
         "config external paths apply only to external features, not edge"),
        ({"feature": "sift"}, "unknown feature 'sift', expected one of"),
    ],
)
def test_register_bad_config_is_one_line_error(tmp_path, cfg, needle):
    vol = smooth_random_volume((12, 12, 12), seed=12)
    save_volume(vol, tmp_path / "vol")
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    res = run_cli(
        "register", "--fixed", tmp_path / "vol", "--moving", tmp_path / "vol",
        "--config", tmp_path / "cfg.json", "--out-field", tmp_path / "field",
    )
    assert_one_line_error(res, needle)


@pytest.mark.parametrize("args, needle", [
    (["register", "--levels", "1:a:2:2:2"],
     "bad level spec '1:a:2:2:2', expected factor:q:l_max:patch_radius:alpha"),
    (["register", "--levels", "2:2:4:1:1,1.5:1:2:1:1"],
     "bad level spec '1.5:1:2:1:1', expected factor:q:l_max:patch_radius:alpha"),
    (["register", "--levels", "1:1:2:1"], "bad level spec '1:1:2:1'"),
    (["evaluate", "--labels", "1,,2"], "bad --labels '1,,2', expected comma-separated integers"),
])
def test_unparsable_flag_value_is_one_line_error(tmp_path, args, needle):
    # the value is rejected before any input is read, so none need exist
    command, *flags = args
    required = {
        "register": ["--fixed", tmp_path / "f", "--moving", tmp_path / "m",
                     "--out-field", tmp_path / "o"],
        "evaluate": ["--fixed-labels", tmp_path / "f", "--warped-labels", tmp_path / "w",
                     "--out-report", tmp_path / "r"],
    }[command]
    assert_one_line_error(run_cli(command, *required, *flags), needle)


@pytest.mark.parametrize("message, line", [
    ("cannot allocate 8.0 GiB", "error: out of memory: cannot allocate 8.0 GiB"),
    ("", "error: out of memory"),
])
def test_register_out_of_memory_is_one_line_error(tmp_path, monkeypatch, capsys, message, line):
    vol = smooth_random_volume((12, 12, 12), seed=12)
    save_volume(vol, tmp_path / "vol")

    def register(fixed, moving, cfg):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "register", register)
    code = cli.main(["register", "--fixed", str(tmp_path / "vol"), "--moving", str(tmp_path / "vol"),
                     "--out-field", str(tmp_path / "field")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [line]


def test_register_ignores_budget_env(tmp_path):
    case = make_pair("translation", (12, 12, 12), seed=12, translation=(1, 0, 0))
    save_volume(case["fixed"], tmp_path / "fixed")
    save_volume(case["moving"], tmp_path / "moving")
    fields = []
    for env in ({}, {"REG_MEMORY_BUDGET_MB": "abc"}, {"REG_MEMORY_BUDGET_MB": "1"}):
        out = tmp_path / f"field{len(fields)}"
        res = run_entry_point(
            "register", "--fixed", tmp_path / "fixed", "--moving", tmp_path / "moving",
            "--levels", "1:1:1:1:1", "--out-field", out, env=env,
        )
        assert res.returncode == 0, res.stderr
        fields.append(load_volume(out, kind="field").data)
    assert all(np.array_equal(f, fields[0]) for f in fields)


@pytest.mark.parametrize("field, warped", [
    ("f", "f"), ("f", "f.raw"), ("f.json", "f"), ("f.raw", "f.json"), ("f", "sub/../f"),
])
def test_register_refuses_one_volume_for_both_outputs(tmp_path, field, warped):
    # refused before any input is read, so none need exist
    res = run_cli("register", "--fixed", tmp_path / "nope", "--moving", tmp_path / "nope",
                  "--out-field", tmp_path / field, "--out-warped", tmp_path / warped)
    assert_one_line_error(res, "name one volume")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    pytest.param(["register", "--fixed", "nope", "--moving", "nope", "--out-warped", "w",
                  "--out-field"], id="--out-field"),
    pytest.param(["register", "--fixed", "nope", "--moving", "nope", "--out-field", "f",
                  "--out-warped"], id="--out-warped"),
    pytest.param(["evaluate", "--fixed-labels", "nope", "--moving-labels", "nope", "--field", "nope",
                  "--out-report"], id="--out-report"),
    pytest.param(["features", "--in", "nope", "--descriptor", "ssc", "--out"], id="--out"),
])
def test_refuses_output_in_missing_directory(tmp_path, monkeypatch, command):
    # the command's last flag points into a missing directory; refused before
    # any input is read, so none need exist, and no output is written
    monkeypatch.chdir(tmp_path)
    res = run_cli(*command, "nodir/v")
    assert_one_line_error(res, f"{command[-1]} nodir/v: {tmp_path / 'nodir'} is not a directory")
    assert list(tmp_path.iterdir()) == []


def test_register_field_sidecar_keeps_the_image_spacing(tmp_path):
    case = make_pair("sinusoid", (24, 24, 24), seed=14, amplitude=1.5, period=12.0)
    for name in ("fixed", "moving"):
        save_volume(type(case[name])(case[name].data, (0.1, 0.2, 0.35)), tmp_path / name)
    res = run_cli("register", "--fixed", tmp_path / "fixed", "--moving", tmp_path / "moving",
                  "--levels", "3:1:1:1:1,1:1:1:1:1", "--feature", "intensity",
                  "--out-field", tmp_path / "field", "--out-warped", tmp_path / "warped")
    assert res.returncode == 0, res.stderr
    for name in ("field", "warped"):
        assert json.loads((tmp_path / f"{name}.json").read_text())["spacing"] == [0.1, 0.2, 0.35]


def test_register_malformed_config_names_its_file(tmp_path):
    (tmp_path / "bad.json").write_text("{bad")
    res = run_cli("register", "--fixed", tmp_path / "nope", "--moving", tmp_path / "nope",
                  "--config", tmp_path / "bad.json", "--out-field", tmp_path / "f")
    assert_one_line_error(res, f"cannot parse config {tmp_path / 'bad.json'}: Expecting property name")


def test_entry_point_carries_exit_codes(tmp_path):
    # python -m voxelreg exits with argparse's usage code and main's return value
    res = run_entry_point("register", "--moving", tmp_path / "m", "--out-field", tmp_path / "f")
    assert res.returncode == 2
    assert res.stderr.startswith("usage: voxelreg register")
    assert "the following arguments are required: --fixed" in res.stderr
    res = run_entry_point("register", "--fixed", tmp_path / "nope", "--moving", tmp_path / "nope",
                          "--out-field", tmp_path / "f")
    assert_one_line_error(res, f"missing sidecar {tmp_path / 'nope.json'}")


def test_register_warps_the_image_only_for_out_warped(tmp_path, image_warps):
    from voxelreg import pipeline

    case = make_pair("translation", (12, 12, 12), seed=13, translation=(1, 0, 0))
    save_volume(case["fixed"], tmp_path / "fixed")
    save_volume(case["moving"], tmp_path / "moving")
    args = ["register", "--fixed", str(tmp_path / "fixed"), "--moving", str(tmp_path / "moving"),
            "--levels", "1:1:1:1:1", "--feature", "intensity"]
    # one level warps nothing before its search
    assert cli.main([*args, "--out-field", str(tmp_path / "f1")]) == 0
    assert image_warps == []
    assert cli.main([*args, "--out-field", str(tmp_path / "f2"),
                     "--out-warped", str(tmp_path / "w2")]) == 0
    assert len(image_warps) == 1
    field = load_volume(tmp_path / "f2", kind="field")
    assert field.data.tobytes() == load_volume(tmp_path / "f1", kind="field").data.tobytes()
    expected = pipeline.warp_scalar(load_volume(tmp_path / "moving", kind="scalar"), field)
    assert load_volume(tmp_path / "w2").data.tobytes() == expected.data.tobytes()


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def test_features_ssc_of_constant_is_all_ones(tmp_path):
    from voxelreg.volume import ScalarVolume

    vol = ScalarVolume(np.full((8, 8, 8), 2.0, dtype=np.float32))
    save_volume(vol, tmp_path / "const")
    res = run_cli("features", "--in", tmp_path / "const", "--descriptor", "ssc",
                  "--out", tmp_path / "ssc")
    assert res.returncode == 0, res.stderr
    fv = load_volume(tmp_path / "ssc")
    assert fv.channels == 12
    assert np.all(fv.data == 1.0)


def test_features_edge_of_ramp_is_constant_interior(tmp_path):
    from voxelreg.volume import ScalarVolume

    nx = 8
    ramp = np.broadcast_to(np.arange(nx, dtype=np.float32), (nx, nx, nx)).copy()
    save_volume(ScalarVolume(ramp), tmp_path / "ramp")
    res = run_cli("features", "--in", tmp_path / "ramp", "--descriptor", "edge",
                  "--out", tmp_path / "edge")
    assert res.returncode == 0, res.stderr
    fv = load_volume(tmp_path / "edge")
    assert np.allclose(fv.data[..., 0], 1.0 / (nx - 1), atol=1e-6)


def test_features_intensity_passes_percentiles(tmp_path):
    vol = smooth_random_volume((10, 9, 8), seed=14)
    save_volume(vol, tmp_path / "vol")
    res = run_cli("features", "--in", tmp_path / "vol", "--descriptor", "intensity",
                  "--out", tmp_path / "int", "--p-low", "10", "--p-high", "90")
    assert res.returncode == 0, res.stderr
    got = load_volume(tmp_path / "int", kind="feature").data
    assert np.array_equal(got, normalize_intensity(vol, 10, 90).data)
    assert not np.array_equal(got, normalize_intensity(vol).data)


@pytest.mark.parametrize(
    "flags, needle",
    [
        (["--descriptor", "intensity", "--p-low", "99", "--p-high", "1"],
         "need 0 <= p_low < p_high <= 100, got 99.0, 1.0"),
        # every other descriptor ignored the flags and wrote the same bytes
        (["--descriptor", "ssc", "--p-low", "5"], "--p-low/--p-high apply only to intensity, not ssc"),
        (["--descriptor", "external", "--p-high", "95"],
         "--p-low/--p-high apply only to intensity, not external"),
    ],
    ids=["reversed", "ssc", "external"],
)
def test_features_bad_percentile_flags_are_one_line_errors(tmp_path, flags, needle):
    save_volume(smooth_random_volume((8, 8, 8), seed=17), tmp_path / "vol")
    res = run_cli("features", "--in", tmp_path / "vol", "--out", tmp_path / "out", *flags)
    assert_one_line_error(res, needle)
    assert not (tmp_path / "out.raw").exists()


def test_features_unknown_descriptor_is_usage_error(tmp_path):
    res = run_cli("features", "--in", tmp_path / "x", "--descriptor", "gabor",
                  "--out", tmp_path / "y")
    assert res.returncode == 2


def test_features_external_passthrough_with_zscore(tmp_path):
    rng = np.random.default_rng(13)
    from voxelreg.volume import FeatureVolume

    data = rng.normal(5, 2, size=(6, 6, 6, 4)).astype(np.float32)
    save_volume(FeatureVolume(data), tmp_path / "ext")
    res = run_cli("features", "--in", tmp_path / "ext", "--descriptor", "external",
                  "--out", tmp_path / "z", "--zscore")
    assert res.returncode == 0, res.stderr
    fv = load_volume(tmp_path / "z")
    flat = fv.data.reshape(-1, 4)
    assert np.abs(flat.mean(axis=0)).max() < 1e-4
    want = zscore_channels(load_volume(tmp_path / "ext", kind="feature")).data
    assert fv.data.tobytes() == want.tobytes()


def test_features_zscore_applies_to_builtin_descriptors(tmp_path):
    save_volume(smooth_random_volume((12, 12, 12), seed=14), tmp_path / "vol")
    for zscore in ([], ["--zscore"]):
        res = run_cli("features", "--in", tmp_path / "vol", "--descriptor", "edge",
                      "--out", tmp_path / f"edge{len(zscore)}", *zscore)
        assert res.returncode == 0, res.stderr
    plain, z = (load_volume(tmp_path / f"edge{i}", kind="feature") for i in (0, 1))
    flat = z.data.reshape(-1, z.channels).astype(np.float64)
    assert np.abs(flat.mean(axis=0)).max() < 1e-5
    assert np.abs(flat.std(axis=0) - 1.0).max() < 1e-5
    assert not np.array_equal(z.data, plain.data)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_identical_labels_scores_hundred(translation_case, tmp_path):
    prefix = translation_case
    labels = prefix.parent / f"{prefix.name}_fixed_labels"
    res = run_cli("evaluate", "--fixed-labels", labels, "--warped-labels", labels,
                  "--out-report", tmp_path / "report.json")
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["dataset_mean"] == 100.0
    assert (tmp_path / "report.csv").exists()


def test_evaluate_disjoint_labels_scores_zero(tmp_path):
    from voxelreg.volume import LabelVolume

    a = np.zeros((4, 4, 4), dtype=np.int32)
    b = np.zeros((4, 4, 4), dtype=np.int32)
    a[0] = 1
    b[3] = 1
    save_volume(LabelVolume(a), tmp_path / "a")
    save_volume(LabelVolume(b), tmp_path / "b")
    res = run_cli("evaluate", "--fixed-labels", tmp_path / "a", "--warped-labels", tmp_path / "b",
                  "--out-report", tmp_path / "report.json")
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["dataset_mean"] == 0.0


def test_evaluate_with_field_restores_ground_truth(translation_case, tmp_path):
    prefix = translation_case
    res = run_cli(
        "evaluate",
        "--fixed-labels", prefix.parent / f"{prefix.name}_fixed_labels",
        "--moving-labels", prefix.parent / f"{prefix.name}_moving_labels",
        "--field", prefix.parent / f"{prefix.name}_field",
        "--out-report", tmp_path / "report.json",
    )
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["dataset_mean"] == 100.0


def test_evaluate_requires_warp_source(tmp_path):
    res = run_cli("evaluate", "--fixed-labels", tmp_path / "a",
                  "--out-report", tmp_path / "r.json")
    assert res.returncode == 1


@pytest.mark.parametrize("extra", [["--moving-labels", "m"], ["--field", "f"],
                                   ["--moving-labels", "m", "--field", "f"]],
                         ids=["moving_labels", "field", "both"])
def test_evaluate_refuses_warped_labels_with_a_warp_source(translation_case, tmp_path, extra):
    prefix = translation_case
    labels = prefix.parent / f"{prefix.name}_fixed_labels"
    res = run_cli("evaluate", "--fixed-labels", labels, "--warped-labels", labels, *extra,
                  "--out-report", tmp_path / "report.json")
    assert_one_line_error(res, "give --warped-labels or --moving-labels with --field, not both")
    assert not (tmp_path / "report.json").exists()


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

def write_pair_files(tmp_path, seed, name):
    case = make_pair("translation", (16, 16, 16), seed=seed,
                     translation=(1.0, 0.0, 0.0), num_blobs=4, noise_sigma=1.5)
    paths = {}
    for key in ("fixed", "moving", "fixed_labels", "moving_labels"):
        stem = tmp_path / f"{name}_{key}"
        save_volume(case[key], stem)
        paths[key] = str(stem)
    labels = sorted(set(case["fixed_labels"].labels()) | set(case["moving_labels"].labels()))
    vals = []
    for lab in labels:
        ma = case["fixed_labels"].data == lab
        mb = case["moving_labels"].data == lab
        union = np.logical_or(ma, mb).sum()
        if union:
            vals.append(100.0 * np.logical_and(ma, mb).sum() / union)
    paths["unregistered_jc"] = sum(vals) / len(vals)
    return paths


def batch_manifest(tmp_path, pairs, config=None, output_dir=None):
    manifest = {"pairs": pairs, "config": config or {
        "feature": "intensity",
        "levels": [{"factor": 1, "q": 1.0, "l_max": 2.0, "patch_radius": 1, "alpha": 0.0}],
    }}
    if output_dir:
        manifest["output_dir"] = str(output_dir)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2))
    return path


def test_batch_identical_volume_pairs_score_hundred(tmp_path):
    p = write_pair_files(tmp_path, seed=21, name="a")
    p.pop("unregistered_jc")
    pairs = [
        {"pair_id": "p0", "fixed": p["fixed"], "moving": p["fixed"],
         "fixed_labels": p["fixed_labels"], "moving_labels": p["fixed_labels"]},
        {"pair_id": "p1", "fixed": p["moving"], "moving": p["moving"],
         "fixed_labels": p["moving_labels"], "moving_labels": p["moving_labels"]},
    ]
    manifest = batch_manifest(tmp_path, pairs, output_dir=tmp_path / "out")
    res = run_cli("batch", manifest)
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["dataset_mean"] == 100.0
    assert len(report["pairs"]) == 2


def test_batch_registers_and_improves_overlap(tmp_path):
    p = write_pair_files(tmp_path, seed=22, name="a")
    before = p.pop("unregistered_jc")
    pairs = [{"pair_id": "p0", **p}]
    manifest = batch_manifest(tmp_path, pairs, output_dir=tmp_path / "out")
    res = run_cli("batch", manifest)
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["dataset_mean"] > before


def test_batch_skips_unreadable_pair_with_warning(tmp_path):
    p = write_pair_files(tmp_path, seed=23, name="a")
    p.pop("unregistered_jc")
    # corrupt one payload: truncated file
    bad_stem = tmp_path / "bad_fixed"
    (tmp_path / "bad_fixed.json").write_text(
        json.dumps({"dims": [16, 16, 16], "spacing": [1, 1, 1], "channels": 1, "dtype": "float32"})
    )
    (tmp_path / "bad_fixed.raw").write_bytes(b"\x00" * 10)
    pairs = [
        {"pair_id": "good", **p},
        {"pair_id": "bad", "fixed": str(bad_stem), "moving": p["moving"],
         "fixed_labels": p["fixed_labels"], "moving_labels": p["moving_labels"]},
    ]
    manifest = batch_manifest(tmp_path, pairs, output_dir=tmp_path / "out")
    res = run_cli("batch", manifest)
    assert res.returncode == 0, res.stderr
    assert "excluded" in res.stderr or "excluded" in res.stdout
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["pairs"]) == 1
    assert report["skipped_pairs"] == ["bad"]


def test_batch_manifest_parse_failure_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    res = run_cli("batch", bad)
    assert res.returncode == 1


@pytest.mark.parametrize(
    "manifest, needle",
    [
        ([], "must be a JSON object, got list"),
        ({"pairs": ["x"]}, "manifest pair 0 must be a JSON object"),
        ({"pairs": {}}, "manifest pairs must be a JSON list"),
        ({"volumes": [{"image": "a", "labels": "b"}]}, "missing fields ['id']"),
        ({"pairs": [{"pair_id": "p", "fixed": 5, "moving": "m", "fixed_labels": "fl",
                     "moving_labels": "ml"}]}, "pair 0 field 'fixed' must be a string, got 5"),
        ({"pairs": [{"pair_id": ["a"], "fixed": "f", "moving": "m", "fixed_labels": "fl",
                     "moving_labels": "ml"}]}, "pair 0 field 'pair_id' must be a string"),
        ({"volumes": [{"id": True, "image": "a", "labels": "b"}]},
         "field 'id' must be a string or an integer, got True"),
        ({"volumes": [{"id": 1, "image": "a", "labels": None}]}, "field 'labels' must be a string"),
        ({"pairs": [], "output_dir": 5}, "manifest output_dir must be a string, got 5"),
        ({"pairs": []}, "has no pairs"),
        # a bad budget fails the manifest once, not every pair in turn
        ({"config": {"memory_budget_mb": 0}, "pairs": [{"pair_id": "p", "fixed": "f",
          "moving": "m", "fixed_labels": "fl", "moving_labels": "ml"}]},
         "config memory_budget_mb must be positive, got 0"),
        # a misspelt key would otherwise run with its default
        ({"outptu_dir": "out", "volumes": [{"id": 1, "image": "a", "labels": "b"}]},
         "unknown manifest key(s) ['outptu_dir']"),
        ({"pairs": [], "pair_mode": "include-self"},
         "manifest pair_mode applies only to 'volumes', not 'pairs'"),
        ({"pairs": [], "volumes": []}, "manifest needs exactly one of 'pairs' and 'volumes'"),
        ({"volumes": [{"id": 1, "image": "a", "labels": "b"}], "pair_mode": "bogus"},
         "unknown pair mode 'bogus'"),
        # ordered mode would skip each as the other's self-pair and find no pairs
        ({"volumes": [{"id": "a", "image": "a", "labels": "b"}, {"id": "a", "image": "c", "labels": "d"}]},
         "manifest volume id 'a' is not unique"),
        # both make the pair ids "1->1"
        ({"volumes": [{"id": 1, "image": "a", "labels": "b"}, {"id": "1", "image": "c", "labels": "d"}]},
         "manifest volume id '1' is not unique"),
    ],
)
def test_batch_manifest_bad_shape_is_one_line_error(tmp_path, manifest, needle):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    assert_one_line_error(run_cli("batch", path), needle)


def test_batch_refuses_external_features(tmp_path):
    # one external_fixed/external_moving pair cannot describe every image pair
    p = write_pair_files(tmp_path, seed=25, name="a")
    p.pop("unregistered_jc")
    config = {"feature": "external", "external_fixed": p["fixed"], "external_moving": p["moving"]}
    manifest = batch_manifest(tmp_path, [{"pair_id": "p0", **p}], config, tmp_path / "out")
    assert_one_line_error(run_cli("batch", manifest), "batch cannot use external features")
    assert not (tmp_path / "out" / "report.json").exists()


def test_batch_manifest_without_pairs_creates_no_output_dir(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"volumes": [{"id": 1, "image": "a", "labels": "b"}]}))
    assert_one_line_error(run_cli("batch", path, "--out-dir", tmp_path / "out"),
                          f"manifest {path} has no pairs")
    assert not (tmp_path / "out").exists()


def test_batch_rejects_duplicate_pair_ids(tmp_path):
    p = write_pair_files(tmp_path, seed=24, name="a")
    p.pop("unregistered_jc")
    pairs = [{"pair_id": "p0", **p}, {"pair_id": "p0", **p}]
    manifest = batch_manifest(tmp_path, pairs, output_dir=tmp_path / "out")
    res = run_cli("batch", manifest)
    assert res.returncode == 1


def test_batch_report_means_are_internally_consistent(tmp_path):
    # dataset mean must equal the mean of the reported per-pair means, and
    # each pair mean the mean of its per-structure entries (no drift)
    pairs = []
    for i, seed in enumerate((31, 32, 33)):
        p = write_pair_files(tmp_path, seed=seed, name=f"c{i}")
        p.pop("unregistered_jc")
        pairs.append({"pair_id": f"p{i}", **p})
    manifest = batch_manifest(tmp_path, pairs, output_dir=tmp_path / "out")
    res = run_cli("batch", manifest)
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    pair_means = [p["mean"] for p in report["pairs"]]
    assert report["dataset_mean"] == pytest.approx(sum(pair_means) / len(pair_means), abs=1e-12)
    for p in report["pairs"]:
        vals = list(p["per_structure"].values())
        assert p["mean"] == pytest.approx(sum(vals) / len(vals), abs=1e-9)


def test_batch_jobs_do_not_change_report(tmp_path):
    paths = {}
    pairs = []
    for i, seed in enumerate((25, 26)):
        paths[i] = write_pair_files(tmp_path, seed=seed, name=f"v{i}")
        paths[i].pop("unregistered_jc")
        pairs.append({"pair_id": f"p{i}", **paths[i]})
    manifest = batch_manifest(tmp_path, pairs, output_dir=tmp_path / "o1")
    res1 = run_cli("batch", manifest, "--jobs", "1", "--out-dir", tmp_path / "o1")
    res4 = run_cli("batch", manifest, "--jobs", "4", "--out-dir", tmp_path / "o4")
    assert res1.returncode == 0 and res4.returncode == 0
    assert (tmp_path / "o1" / "report.json").read_bytes() == (tmp_path / "o4" / "report.json").read_bytes()


def test_batch_skips_pair_that_runs_out_of_memory(tmp_path, monkeypatch, caplog):
    pairs = []
    for i, seed in enumerate((27, 28)):
        p = write_pair_files(tmp_path, seed=seed, name=f"m{i}")
        p.pop("unregistered_jc")
        pairs.append({"pair_id": f"p{i}", **p})
    manifest = batch_manifest(tmp_path, pairs, output_dir=tmp_path / "out")
    oversized = load_volume(pairs[1]["fixed"], kind="scalar").data
    real_register = cli.register

    def register(fixed, moving, cfg):
        if np.array_equal(fixed.data, oversized):
            raise MemoryError
        return real_register(fixed, moving, cfg)

    monkeypatch.setattr(cli, "register", register)
    assert cli.main(["batch", str(manifest)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [p["fixed"] for p in report["pairs"]] == [pairs[0]["fixed"]]
    assert report["skipped_pairs"] == ["p1"]
    assert "pair p1 failed and was excluded: MemoryError" in caplog.text


def test_batch_warps_no_image_and_keeps_its_report(tmp_path, monkeypatch, image_warps):
    # scoring warps the label maps; the moving image's warp is never read

    pairs = []
    for i, seed in enumerate((29, 30)):
        p = write_pair_files(tmp_path, seed=seed, name=f"w{i}")
        p.pop("unregistered_jc")
        pairs.append({"pair_id": f"p{i}", **p})
    manifest = batch_manifest(tmp_path, pairs)  # one level
    assert cli.main(["batch", str(manifest), "--out-dir", str(tmp_path / "lazy")]) == 0
    assert image_warps == []

    real_register = cli.register

    def eager(fixed, moving, cfg):
        field, warped = real_register(fixed, moving, cfg)
        return field, warped

    monkeypatch.setattr(cli, "register", eager)
    assert cli.main(["batch", str(manifest), "--out-dir", str(tmp_path / "eager")]) == 0
    assert len(image_warps) == 2
    reports = [(tmp_path / d / "report.json").read_bytes() for d in ("lazy", "eager")]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_batch_jobs_must_be_positive_integer(tmp_path, jobs):
    res = run_cli("batch", tmp_path / "manifest.json", "--jobs", jobs)
    assert res.returncode == 2
    assert "--jobs" in res.stderr


@pytest.mark.parametrize(
    "cpus, jobs, n_pairs, workers, expected",
    [
        (2, 2, 2, None, 1),  # the default of two threads is capped to one per pair
        (2, 1, 2, None, None),  # one job keeps the default
        (1, 1, 2, None, None),
        (8, 2, 2, 6, 4),  # an explicit count is capped
        (8, 2, 2, 1, 1),  # but never raised
        (2, 4, 4, 3, 1),
        (4, 4, 1, None, None),  # only pairs that can run at once count
        (4, 4, 2, 3, 2),
    ],
)
def test_batch_caps_jobs_times_workers_at_cpu_count(tmp_path, monkeypatch, cpus, jobs, n_pairs,
                                                    workers, expected):
    from voxelreg.volume import zero_field

    p = write_pair_files(tmp_path, seed=29, name="c")
    p.pop("unregistered_jc")
    config = {"feature": "intensity", "workers": workers}
    pairs = [{"pair_id": f"p{i}", **p} for i in range(n_pairs)]
    manifest = batch_manifest(tmp_path, pairs, config, tmp_path / "out")
    seen = []

    def register(fixed, moving, cfg):
        seen.append(cfg.workers)
        return zero_field(fixed.dims), moving

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(cli, "register", register)
    assert cli.main(["batch", str(manifest), "--jobs", str(jobs)]) == 0
    assert seen == [expected] * n_pairs


# ---------------------------------------------------------------------------
# pair enumeration
# ---------------------------------------------------------------------------

def fake_volumes(n):
    return [{"id": f"v{i}", "image": f"v{i}.raw", "labels": f"l{i}.raw"} for i in range(n)]


def test_enumerate_ordered_pairs_count():
    pairs = enumerate_pairs(fake_volumes(12), "ordered")
    assert len(pairs) == 12 * 11  # 132 ordered pairs, self-pairs excluded
    ids = {p["pair_id"] for p in pairs}
    assert len(ids) == 132
    assert not any(p["fixed"] == p["moving"] for p in pairs)


def test_enumerate_include_self_count():
    pairs = enumerate_pairs(fake_volumes(12), "include-self")
    assert len(pairs) == 144  # the N^2 convention


def test_manifest_volumes_mode(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"volumes": fake_volumes(3), "pair_mode": "ordered"}))
    pairs, cfg, out_dir = load_manifest(manifest)
    assert len(pairs) == 6
    assert out_dir is None


def test_manifest_accepts_integer_volume_ids(tmp_path):
    volumes = [{"id": i, "image": f"v{i}.raw", "labels": f"l{i}.raw"} for i in (1, 2)]
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"volumes": volumes}))
    pairs, _, _ = load_manifest(manifest)
    assert [p["pair_id"] for p in pairs] == ["2->1", "1->2"]
