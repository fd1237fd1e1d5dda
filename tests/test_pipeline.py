"""Multi-resolution driver and chunked-execution tests."""

import ast
import dataclasses
import math
import os
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import voxelreg
from voxelreg import pipeline, regcore
from voxelreg.pipeline import (
    LevelParams,
    RegistrationConfig,
    chunked_dsv_execution,
    compose_fields,
    register,
    usable_cpus,
)
from voxelreg.synth import make_pair, smooth_random_volume
from voxelreg.volume import (
    DisplacementField,
    ScalarVolume,
    save_volume,
    warp_labels,
    warp_scalar,
    zero_field,
)
from voxelreg.features import normalize_intensity

from tests.oracle import cost_volume, mean_jc_oracle, reference_field, winner_field


def single_level(q=1.0, l_max=2.0, patch_radius=1, alpha=0.0, **kw):
    return RegistrationConfig(
        levels=(LevelParams(factor=1, q=q, l_max=l_max, patch_radius=patch_radius, alpha=alpha),),
        **kw,
    )


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_rejects_increasing_factors():
    # the final factor is 1, so the divisibility rule alone refuses 2 -> 4
    with pytest.raises(ValueError, match=r"each factor must divide the previous one, got \[2, 4, 1\]"):
        RegistrationConfig(
            levels=(LevelParams(factor=2), LevelParams(factor=4), LevelParams(factor=1))
        )


def test_config_requires_final_factor_one():
    for factors in ((2,), (1, 2)):
        with pytest.raises(ValueError, match="final level must have factor 1"):
            RegistrationConfig(levels=tuple(LevelParams(factor=f) for f in factors))


def test_config_requires_divisible_factors():
    with pytest.raises(ValueError, match=r"each factor must divide the previous one, got \[3, 2, 1\]"):
        RegistrationConfig(
            levels=(LevelParams(factor=3), LevelParams(factor=2), LevelParams(factor=1))
        )


def test_level_params_sigma_defaults_to_sqrt_alpha():
    assert LevelParams(alpha=4.0).smooth_sigma == 2.0
    assert LevelParams(alpha=0.0).smooth_sigma == 0.0
    with pytest.raises(ValueError):
        LevelParams(alpha=-1.0)


def test_level_smooth_sigma_is_alpha_alone():
    for alpha in (0.0, 0.25, 2.0, 3.0):
        level = LevelParams(alpha=alpha)
        assert level.smooth_sigma == float(math.sqrt(alpha))
        assert "smooth_sigma" not in level.to_dict()
    assert len(dataclasses.fields(LevelParams)) == 5
    with pytest.raises(TypeError):
        LevelParams(smooth_sigma=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        LevelParams().smooth_sigma = 1.0


def test_level_params_rejects_bad_candidate_grid():
    # a bad fine level must fail when the schedule is built, not after the
    # coarse levels have run
    with pytest.raises(ValueError, match="multiple"):
        LevelParams(factor=1, q=3.0, l_max=2.0)
    with pytest.raises(ValueError, match="q must be > 0"):
        LevelParams(q=0.0)
    with pytest.raises(ValueError, match="l_max must be >= 0"):
        LevelParams(l_max=-1.0)


def test_level_params_check_builds_no_candidates():
    # validating a level counts its steps; the search builds the 81^3 cube
    tracemalloc.start()
    try:
        LevelParams(q=0.1, l_max=4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_level_params_rejects_factor_zero():
    with pytest.raises(ValueError, match="factor must be >= 1"):
        LevelParams(factor=0)


def test_level_params_accepts_integer_reals():
    # a JSON integer such as "q": 1 is a real number; numpy scalars count too
    cfg = RegistrationConfig.from_dict({"levels": [{"factor": 1, "q": 1, "l_max": 2, "alpha": 0}]})
    level = cfg.levels[0]
    assert (level.q, level.l_max, level.alpha) == (1, 2, 0)
    LevelParams(factor=np.int64(2), patch_radius=np.int32(1), q=np.float32(1.0))
    with pytest.raises(ValueError, match="factor must be an integer"):
        LevelParams(factor=True)


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="featur"):
        RegistrationConfig.from_dict({"featur": "edge"})
    with pytest.raises(ValueError, match="factr"):
        RegistrationConfig.from_dict({"levels": [{"factr": 2}]})


def test_config_without_levels_takes_the_default_schedule():
    # only an absent key means the default; [] and null are errors
    assert RegistrationConfig.from_dict({"feature": "edge"}).levels == RegistrationConfig().levels
    with pytest.raises(ValueError, match="at least one level is required"):
        RegistrationConfig.from_dict({"levels": []})


def test_config_external_requires_paths():
    with pytest.raises(ValueError):
        RegistrationConfig(feature="external")


@pytest.mark.parametrize("allowed, workers", [({0}, 1), ({1, 3}, 2), (set(range(8)), 2)])
def test_worker_count_reads_the_affinity_mask(monkeypatch, allowed, workers):
    # under taskset -c 0 the machine may have many CPUs, the process one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: allowed, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert usable_cpus() == len(allowed)
    assert RegistrationConfig().worker_count() == workers
    assert RegistrationConfig(workers=3).worker_count() == 3


@pytest.mark.parametrize("cpus, expected", [(6, 6), (None, 1)])
def test_usable_cpus_without_affinity_is_the_cpu_count(monkeypatch, cpus, expected):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert usable_cpus() == expected


def test_config_roundtrips_via_dict():
    cfg = single_level(q=2.0, l_max=4.0, feature="edge", standardize=True)
    back = RegistrationConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_config_json_loading(tmp_path):
    import json

    cfg = single_level(q=1.0, l_max=2.0, feature="ssc", memory_budget_mb=64)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg.to_dict()))
    assert RegistrationConfig.from_json(p) == cfg


# ---------------------------------------------------------------------------
# compose_fields
# ---------------------------------------------------------------------------

def test_compose_zero_fields():
    z = zero_field((3, 3, 3))
    out = compose_fields(z, z)
    assert np.all(out.data == 0.0)


def test_compose_constant_fields():
    a = DisplacementField(np.broadcast_to(np.array([1.0, 0, 0], np.float32), (2, 2, 2, 3)).copy())
    b = DisplacementField(np.broadcast_to(np.array([0.0, 2.0, 0], np.float32), (2, 2, 2, 3)).copy())
    out = compose_fields(a, b)
    assert np.allclose(out.data, [1.0, 2.0, 0.0])


def test_compose_matches_sum_oracle():
    rng = np.random.default_rng(60)
    da = rng.uniform(-2, 2, size=(3, 4, 5, 3)).astype(np.float32)
    db = rng.uniform(-2, 2, size=(3, 4, 5, 3)).astype(np.float32)
    out = compose_fields(DisplacementField(da), DisplacementField(db))
    assert np.array_equal(out.data, da + db)


def test_compose_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        compose_fields(zero_field((2, 2, 2)), zero_field((3, 3, 3)))


# ---------------------------------------------------------------------------
# Chunked execution
# ---------------------------------------------------------------------------

def random_feature_pair(seed, n=8, channels=2):
    rng = np.random.default_rng(seed)
    from scipy import ndimage
    from voxelreg.volume import FeatureVolume

    def mk():
        data = np.stack(
            [ndimage.gaussian_filter(rng.standard_normal((n, n, n)), 1.2) for _ in range(channels)],
            axis=-1,
        ).astype(np.float32)
        return FeatureVolume(data)

    return mk(), mk()


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_uses_another_modules_private_name():
    # each voxelreg module reaches the others only through their public
    # names: no `from voxelreg.x import _name`, and no `alias._name` where
    # the alias is an imported voxelreg module (such as `feat`)
    found = []
    for path in sorted(Path(voxelreg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()  # names bound to voxelreg modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "voxelreg"
            ):
                for alias in node.names:
                    if _private(alias.name):
                        found.append(f"{path.name}: from {node.module} import {alias.name}")
                    if node.module == "voxelreg":
                        modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "voxelreg":
                        modules.add(alias.asname or "voxelreg")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _private(node.attr):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in modules:
                    found.append(f"{path.name}: {ast.unparse(node)}")
    assert found == []


def _defined_names(node) -> list[str]:
    """The names a top-level statement defines: a def's, a class's or an assignment's."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _referenced_names(node) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)
    }


def test_every_library_name_is_used_by_the_library_or_exported():
    # code only tests use belongs in tests/: a top-level name of a voxelreg
    # module must be in voxelreg.__all__, or be referred to by module code
    # outside any definition, by a dunder, or by another such name's
    # definition (dunder names are exempt)
    definitions = {}  # name -> the names its definitions refer to
    used = set(voxelreg.__all__)
    for path in sorted(Path(voxelreg.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = [n for n in _defined_names(node) if not (n.startswith("__") and n.endswith("__"))]
            for name in names:
                definitions.setdefault(name, set()).update(_referenced_names(node))
            if not names:
                used |= _referenced_names(node)
    todo = list(used)
    while todo:
        for name in definitions.get(todo.pop(), ()):
            if name not in used:
                used.add(name)
                todo.append(name)
    assert sorted(set(definitions) - used) == []


def test_chunked_big_budget_matches_unchunked():
    f_fixed, f_moving = random_feature_pair(61)
    ds = regcore.build_displacement_set(1.0, 1.0)
    want = reference_field(f_fixed, f_moving, ds, 1, 1.0)
    got = chunked_dsv_execution(f_fixed, f_moving, ds, 1, 1.0, 1 << 30)
    assert np.array_equal(got.data, want.data)


def test_chunked_small_budget_bit_identical():
    f_fixed, f_moving = random_feature_pair(62)
    ds = regcore.build_displacement_set(1.0, 1.0)  # 27 labels
    want = reference_field(f_fixed, f_moving, ds, 1, 0.8)
    map_bytes = 8 * 8 * 8 * regcore.SEARCH_DTYPE.itemsize
    budget = 6 * map_bytes  # forces ceil(27 / 6) = 5 batches
    got = chunked_dsv_execution(f_fixed, f_moving, ds, 1, 0.8, budget)
    assert np.array_equal(got.data, want.data)


def test_chunked_budget_below_one_map_errors():
    f_fixed, f_moving = random_feature_pair(63)
    ds = regcore.build_displacement_set(1.0, 1.0)
    map_bytes = 8**3 * regcore.SEARCH_DTYPE.itemsize  # one float32 cost map
    for budget in (100, map_bytes - 1):
        with pytest.raises(ValueError, match=f"one cost map \\({map_bytes} B\\)"):
            chunked_dsv_execution(f_fixed, f_moving, ds, 0, 0.0, budget)


def signed_feature_pair(seed, scale, n=8, channels=2):
    # features of +-scale, random signs: finite, with SADs of 2 * scale
    from voxelreg.volume import FeatureVolume

    rng = np.random.default_rng(seed)
    return tuple(
        FeatureVolume((scale * rng.choice([-1.0, 1.0], (n, n, n, channels))).astype(np.float32))
        for _ in range(2)
    )


@pytest.mark.parametrize("scale", [2e38, 1e37, 1e36])
def test_chunked_features_that_overflow_float32_costs_error(scale):
    # 2e38 overflows the SAD and 1e37 the r = 1 box sum: refused before the
    # search, with the remedy, before numpy overflows, which would warn; at
    # 1e36, 2 * 2 channels * 27 * 1e36 < float32 max and the search matches
    # the reference path
    f_fixed, f_moving = signed_feature_pair(75, scale)
    ds = regcore.build_displacement_set(1.0, 1.0)
    if scale == 1e36:
        got = chunked_dsv_execution(f_fixed, f_moving, ds, 1, 1.0, 1 << 20, workers=2)
        assert np.array_equal(got.data, reference_field(f_fixed, f_moving, ds, 1, 1.0).data)
        return
    refused = r"^features too large for float32 costs: .*voxelreg features --descriptor external --zscore$"
    with pytest.raises(ValueError, match=refused):
        chunked_dsv_execution(f_fixed, f_moving, ds, 1, 1.0, 1 << 20, workers=2)


@pytest.mark.parametrize("radius, sigma, workers, message", [
    (-1, 0.0, 1, "patch_radius must be >= 0"),
    (0, -1.0, 1, "smooth_sigma must be >= 0"),
    (0, 0.0, 0, "workers must be >= 1, got 0"),
])
def test_chunked_bad_radius_sigma_or_workers_errors(radius, sigma, workers, message):
    # a negative radius or sigma is refused, not run as 0
    f_fixed, f_moving = random_feature_pair(63)
    ds = regcore.build_displacement_set(1.0, 1.0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        chunked_dsv_execution(f_fixed, f_moving, ds, radius, sigma, 1 << 20, workers)


def test_chunked_one_map_budget_runs_on_one_thread(monkeypatch):
    # a budget of one float32 cost map searches on the calling thread whatever
    # the worker count; two maps start the pool
    f_fixed, f_moving = random_feature_pair(63)
    ds = regcore.build_displacement_set(1.0, 1.0)
    map_bytes = 8**3 * regcore.SEARCH_DTYPE.itemsize

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("started a thread pool")

    monkeypatch.setattr(regcore, "ThreadPoolExecutor", NoPool)
    want = reference_field(f_fixed, f_moving, ds, 1, 1.0)
    got = chunked_dsv_execution(f_fixed, f_moving, ds, 1, 1.0, map_bytes, 3)
    assert np.array_equal(got.data, want.data)
    with pytest.raises(AssertionError, match="thread pool"):
        chunked_dsv_execution(f_fixed, f_moving, ds, 1, 1.0, 2 * map_bytes, 3)


@pytest.mark.parametrize("seed", [65, 66])
def test_clamped_border_ties_resolve_to_the_smaller_shift(seed):
    # on the last x plane, every candidate with dx >= r reads the clamped
    # moving edge across the whole (2r + 1)^3 window, so its box sum equals
    # that of dx = r, same dy and dz, exactly; the tie rule picks dx = r
    case = make_pair("translation", (24, 24, 24), seed=seed, translation=(3.0, 0.0, 0.0),
                     noise_sigma=1.2)
    f_fixed, f_moving = (normalize_intensity(case[k]) for k in ("fixed", "moving"))
    radius = 2
    ds = regcore.build_displacement_set(1.0, 4.0)
    field = chunked_dsv_execution(f_fixed, f_moving, ds, radius, 0.0, 1 << 30, 2)
    last_plane_dx = field.data[:, :, -1, 0]
    assert (last_plane_dx <= radius).all()
    assert (field.data[6:-6, 6:-6, 6:-6] == np.float32([3, 0, 0])).all()


def integer_feature_pair(seed, n=8, channels=2):
    from voxelreg.volume import FeatureVolume

    rng = np.random.default_rng(seed)
    return tuple(
        FeatureVolume(rng.integers(0, 3, (n, n, n, channels)).astype(np.float32))
        for _ in range(2)
    )


@pytest.mark.parametrize("radius, sigma", [(0, 0.0), (1, 1.0)])
def test_chunked_worker_counts_bit_identical(radius, sigma):
    # integer-valued features tie often, so the unit merge decides many voxels;
    # q = 0.5 gives 8 weight groups (7 of them read from blends), so there are
    # more units than workers and the (cost, label) merges run at every count
    ds = regcore.build_displacement_set(0.5, 1.0)  # 125 labels
    map_bytes = 8 * 8 * 8 * regcore.SEARCH_DTYPE.itemsize  # one map: one worker
    for seed in (70, 71, 72):
        f_fixed, f_moving = integer_feature_pair(seed)
        want = reference_field(f_fixed, f_moving, ds, radius, sigma)
        for budget in (map_bytes, 2 * map_bytes, 7 * map_bytes, 1 << 30):
            for workers in (1, 2, 3, 5):
                got = chunked_dsv_execution(f_fixed, f_moving, ds, radius, sigma, budget, workers)
                assert np.array_equal(
                    got.data.view(np.uint32), want.data.view(np.uint32)
                ), (seed, budget, workers)


def test_chunked_peak_memory_does_not_grow_with_the_budget():
    # 24^3, 12 channels, 729 labels, two workers: a worker's batch is its SAD
    # scratch (12 maps), so the budget caps the batch but never sizes it
    n, channels, workers = 24, 12, 2
    f_fixed, f_moving = random_feature_pair(64, n=n, channels=channels)
    ds = regcore.build_displacement_set(1.0, 4.0)
    voxels = n**3
    features = 4 * channels * (voxels + (n + 2 * 4) ** 3)  # float32 fixed + padded moving copy
    scratch = regcore._sad_scratch((n, n, n), channels).nbytes  # = one batch
    # per worker: float32 best cost, int32 best rank and bool mask, 9 B per voxel
    bound = features + workers * (scratch + scratch + 9 * voxels)
    slack = 1 << 20  # the returned field, its float32 lookup, operators, labels
    # one untimed call fills the window and filter-plan caches, which would
    # otherwise count against the first measured call only
    chunked_dsv_execution(f_fixed, f_moving, ds, 2, 1.0, 16 << 20, workers)
    peaks = []
    for budget_mb in (16, 1024):
        tracemalloc.start()
        try:
            chunked_dsv_execution(f_fixed, f_moving, ds, 2, 1.0, budget_mb << 20, workers)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[0] - peaks[1]) <= slack // 2, peaks
    assert max(peaks) <= bound + slack, (peaks, bound)


def test_chunked_fractional_peak_holds_one_blend_per_worker():
    # 48^3, 12 channels, q = 0.5: 125 candidates in 8 weight groups, so each
    # worker walks several units, blends each group into its one buffer and
    # walks each unit straight into its one best; at 48^3 a unit best per
    # worker (8 B per voxel) would not fit in the slack
    n, channels, workers = 48, 12, 2
    f_fixed, f_moving = random_feature_pair(64, n=n, channels=channels)
    ds = regcore.build_displacement_set(0.5, 1.0)
    voxels = n**3
    moving = 4 * channels * (n + 2) ** 3  # float32 moving copy padded by 1; so is a blend
    features = 4 * channels * voxels + moving
    scratch = regcore._sad_scratch((n, n, n), channels).nbytes  # = one batch
    # per worker: scratch, batch, blend, float32 best cost, int32 best rank
    # and bool mask (9 B per voxel); then the float32 field (12 B per voxel)
    bound = features + workers * (2 * scratch + moving + 9 * voxels) + 12 * voxels
    slack = 1 << 20  # the field's float32 lookup, operators, labels
    chunked_dsv_execution(f_fixed, f_moving, ds, 2, 1.0, 16 << 20, workers)  # warm the caches
    peaks = []
    for budget_mb in (16, 1024):
        tracemalloc.start()
        try:
            chunked_dsv_execution(f_fixed, f_moving, ds, 2, 1.0, budget_mb << 20, workers)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[0] - peaks[1]) <= slack // 2, peaks
    assert max(peaks) <= bound + slack, (peaks, bound)


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_chunked_ties_across_weight_groups_go_to_the_zero_shift(workers):
    # constant features tie all 125 candidates at every voxel (q = 0.5
    # weights are powers of two, so every blend is exact and every cost 0);
    # the zero shift wins whichever worker walks its unit, and when
    from voxelreg.volume import FeatureVolume

    fv = FeatureVolume(np.full((6, 6, 6, 2), 0.5, np.float32))
    ds = regcore.build_displacement_set(0.5, 1.0)  # 8 weight groups
    want = winner_field(cost_volume(fv, fv, ds), ds)
    assert np.all(want.data == 0.0)
    map_bytes = 6**3 * regcore.SEARCH_DTYPE.itemsize
    for budget in (map_bytes, 2 * map_bytes, 7 * map_bytes, 1 << 30):
        got = chunked_dsv_execution(fv, fv, ds, 1, 1.0, budget, workers)
        assert np.array_equal(got.data.view(np.uint32), want.data.view(np.uint32)), budget


@pytest.mark.parametrize("workers", [2, 5])
def test_chunked_search_calls_the_kernel_once_per_candidate_from_the_workers(monkeypatch, workers):
    # the benchmark's tracer counts regcore._label_cost_map calls (label
    # maps, fractional ones by their d) and times each as one SAD span; with
    # more workers than cores and a short switch interval, a unit taken
    # twice or lost shows as a wrong call count, and a merge that depends
    # on the interleaving as a field unlike the one-worker field (integer
    # features tie often, so the merges decide many voxels)
    calls = []
    kernel = regcore._label_cost_map

    def spy(fixed64, moving64, d, out=None, scratch=None):
        calls.append((threading.get_ident(), tuple(d.tolist())))
        return kernel(fixed64, moving64, d, out=out, scratch=scratch)

    monkeypatch.setattr(regcore, "_label_cost_map", spy)
    f_fixed, f_moving = integer_feature_pair(75)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for q, l_max, fractional in ((1.0, 1.0, 0), (0.5, 1.0, 98)):
            ds = regcore.build_displacement_set(q, l_max)
            want = chunked_dsv_execution(f_fixed, f_moving, ds, 1, 1.0, 1 << 30, 1)
            calls.clear()
            got = chunked_dsv_execution(f_fixed, f_moving, ds, 1, 1.0, 1 << 30, workers)
            assert got.data.tobytes() == want.data.tobytes(), q
            shifts = [d for _, d in calls]
            assert len(shifts) == ds.count
            assert sorted(shifts) == sorted(map(tuple, ds.displacements.tolist()))
            assert sum(any(v % 1 for v in d) for d in shifts) == fractional
            # pool threads, never the caller; a pool thread that is idle when
            # a later worker is submitted runs that one too
            threads = {t for t, _ in calls}
            assert len(threads) <= workers and threading.get_ident() not in threads
    finally:
        sys.setswitchinterval(interval)


def test_chunked_preserves_tiebreak_on_constant_features():
    # constant features tie every candidate; the zero displacement must win
    from voxelreg.volume import FeatureVolume

    data = np.full((6, 6, 6, 2), 0.5, dtype=np.float32)
    fv = FeatureVolume(data)
    ds = regcore.build_displacement_set(1.0, 2.0)
    budget = 40 * 6 * 6 * 6 * regcore.SEARCH_DTYPE.itemsize  # 40 cost maps
    got = chunked_dsv_execution(fv, fv, ds, 1, 1.0, budget)
    assert np.all(got.data == 0.0)


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------

def test_register_self_gives_zero_field_every_feature():
    vol = smooth_random_volume((12, 12, 12), seed=64)
    for feature in ("intensity", "edge", "ssc"):
        field, warped = register(vol, vol, single_level(feature=feature))
        assert np.all(field.data == 0.0), feature
        assert np.array_equal(warped.data, vol.data), feature


def test_register_recovers_integer_translation():
    case = make_pair(
        "translation", (32, 32, 32), seed=65, translation=(2.0, 0.0, 0.0), noise_sigma=1.2
    )
    cfg = single_level(q=1.0, l_max=4.0, patch_radius=2, alpha=0.0, feature="intensity")
    field, warped = register(case["fixed"], case["moving"], cfg)
    m = 6  # l_max + patch_radius
    interior = field.data[m:-m, m:-m, m:-m]
    assert np.all(interior == np.array([2.0, 0.0, 0.0], dtype=np.float32))
    # the warped moving image must match the fixed one on the interior
    err = np.abs(warped.data - case["fixed"].data)[m:-m, m:-m, m:-m]
    assert err.max() < 1e-5


def test_register_two_level_translation():
    case = make_pair(
        "translation", (24, 24, 24), seed=66, translation=(2.0, -2.0, 0.0), noise_sigma=1.5
    )
    cfg = RegistrationConfig(
        feature="intensity",
        levels=(
            LevelParams(factor=2, q=1.0, l_max=2.0, patch_radius=1, alpha=0.0),
            LevelParams(factor=1, q=1.0, l_max=1.0, patch_radius=1, alpha=0.0),
        ),
    )
    field, _ = register(case["fixed"], case["moving"], cfg)
    m = 7
    interior = field.data[m:-m, m:-m, m:-m]
    assert np.all(interior == np.array([2.0, -2.0, 0.0], dtype=np.float32))


def test_register_sinusoid_improves_label_overlap():
    case = make_pair(
        "sinusoid",
        (32, 32, 32),
        seed=67,
        amplitude=2.0,
        period=16.0,
        num_blobs=12,
        min_radius=3.0,
        max_radius=5.0,
    )
    cfg = RegistrationConfig(
        feature="ssc",
        levels=(
            LevelParams(factor=2, q=1.0, l_max=2.0, patch_radius=1, alpha=1.0),
            LevelParams(factor=1, q=1.0, l_max=1.0, patch_radius=1, alpha=1.0),
        ),
    )
    field, _ = register(case["fixed"], case["moving"], cfg)
    before = mean_jc_oracle(case["fixed_labels"].data, case["moving_labels"].data)
    warped = warp_labels(case["moving_labels"], field)
    after = mean_jc_oracle(case["fixed_labels"].data, warped.data)
    assert after > before


def test_register_external_features_match_builtin_intensity(tmp_path):
    case = make_pair("translation", (16, 16, 16), seed=68, translation=(1.0, 0.0, 0.0))
    fixed, moving = case["fixed"], case["moving"]
    save_volume(normalize_intensity(fixed, 1.0, 99.0), tmp_path / "ff")
    save_volume(normalize_intensity(moving, 1.0, 99.0), tmp_path / "fm")
    cfg_ext = single_level(
        q=1.0,
        l_max=2.0,
        feature="external",
        external_fixed=str(tmp_path / "ff"),
        external_moving=str(tmp_path / "fm"),
    )
    cfg_int = single_level(q=1.0, l_max=2.0, feature="intensity")
    field_ext, _ = register(fixed, moving, cfg_ext)
    field_int, _ = register(fixed, moving, cfg_int)
    assert np.array_equal(field_ext.data, field_int.data)


def test_register_external_features_do_no_image_work(tmp_path, monkeypatch):
    # the search reads only the feature volumes: no level downsamples, warps,
    # standardizes or featurizes an image; the one image warp is the result
    from voxelreg import features

    case = make_pair("translation", (16, 16, 16), seed=74, translation=(1.0, 0.0, 0.0))
    fixed, moving = case["fixed"], case["moving"]
    save_volume(normalize_intensity(fixed), tmp_path / "ff")
    save_volume(normalize_intensity(moving), tmp_path / "fm")
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((pipeline, "downsample"), (pipeline, "warp_scalar"),
                         (pipeline, "_featurize"), (features, "intensity_standardize")):
        spy(module, name)
    cfg = RegistrationConfig(
        feature="external",
        levels=(
            LevelParams(factor=2, q=1.0, l_max=1.0, patch_radius=1, alpha=1.0),
            LevelParams(factor=1, q=1.0, l_max=1.0, patch_radius=1, alpha=1.0),
        ),
        external_fixed=str(tmp_path / "ff"),
        external_moving=str(tmp_path / "fm"),
    )
    field, warped = register(fixed, moving, cfg)
    # the levels resample feature volumes through the image resamplers
    *level_calls, (name, (image, final_field)) = calls
    assert {name for name, _ in level_calls} == {"downsample", "warp_scalar"}
    assert not any(isinstance(a, ScalarVolume) for _, args in level_calls for a in args)
    assert name == "warp_scalar" and image is moving and final_field is field


def test_register_external_rejects_dim_mismatch(tmp_path):
    case = make_pair("translation", (16, 16, 16), seed=69)
    bad = smooth_random_volume((12, 12, 12), seed=70)
    save_volume(normalize_intensity(bad, 1.0, 99.0), tmp_path / "bad")
    save_volume(normalize_intensity(case["fixed"], 1.0, 99.0), tmp_path / "ok")
    cfg = single_level(
        feature="external",
        external_fixed=str(tmp_path / "ok"),
        external_moving=str(tmp_path / "bad"),
    )
    with pytest.raises(ValueError):
        register(case["fixed"], case["moving"], cfg)


def test_register_rejects_image_dim_mismatch():
    fixed, moving = smooth_random_volume((8, 8, 8), seed=1), smooth_random_volume((8, 8, 9), seed=1)
    with pytest.raises(ValueError, match=r"fixed dims \(8, 8, 8\) != moving dims \(8, 8, 9\)"):
        register(fixed, moving, single_level(q=1.0, l_max=1.0))


def test_register_refuses_a_budget_below_one_map_before_any_level(monkeypatch):
    # the full-size grid's cost map (72^3 float32, 1492992 B) outgrows 1 MB,
    # while the coarse level's maps would fit: no level is searched
    calls = []

    def spy(*args):
        calls.append(args)
        return chunked_dsv_execution(*args)

    monkeypatch.setattr(pipeline, "chunked_dsv_execution", spy)
    vol = smooth_random_volume((72, 72, 72), seed=1)
    levels = (LevelParams(2, 1.0, 2.0, 1, 1.0), LevelParams(1, 1.0, 1.0, 1, 1.0))
    cfg = RegistrationConfig(feature="intensity", levels=levels, memory_budget_mb=1)
    with pytest.raises(ValueError, match=r"^memory budget 1048576 B is smaller than one cost map "
                       r"\(1492992 B\)$"):
        register(vol, vol, cfg)
    assert calls == []


def test_register_rejects_too_small_volume():
    vol = smooth_random_volume((6, 6, 6), seed=71)
    with pytest.raises(ValueError):
        register(vol, vol, single_level(q=1.0, l_max=4.0))


def test_register_refuses_an_l_max_whose_span_overflows():
    vol = smooth_random_volume((6, 6, 6), seed=71)
    with pytest.raises(ValueError, match=r"l_max=1e\+308 needs >= 2 \* l_max \+ 1 per axis"):
        register(vol, vol, single_level(q=1.0, l_max=1e308))


def test_register_is_deterministic():
    case = make_pair("sinusoid", (16, 16, 16), seed=72, amplitude=1.5, period=12.0)
    cfg = single_level(q=1.0, l_max=2.0, patch_radius=1, alpha=1.0, feature="ssc")
    f1, w1 = register(case["fixed"], case["moving"], cfg)
    f2, w2 = register(case["fixed"], case["moving"], cfg)
    assert np.array_equal(f1.data, f2.data)
    assert np.array_equal(w1.data, w2.data)


def test_register_reads_the_field_without_warping(image_warps):
    # one level warps nothing before its search, so any call is the final warp
    case = make_pair("translation", (12, 12, 12), seed=74, translation=(1.0, 0.0, 0.0))
    result = register(case["fixed"], case["moving"], single_level(feature="intensity"))
    assert result[0] is result.field and result[-2] is result.field
    assert len(result) == 2
    assert image_warps == []
    with pytest.raises(IndexError):
        result[2]


def test_register_warps_once_on_first_read_of_warped(image_warps):
    case = make_pair("translation", (12, 12, 12), seed=74, translation=(1.0, 0.0, 0.0))
    result = register(case["fixed"], case["moving"], single_level(feature="intensity"))
    warped = result.warped
    assert image_warps == [(case["moving"], result.field)]
    assert result.warped is warped and result[1] is warped and result[-1] is warped
    assert len(image_warps) == 1


def test_register_unpacks_to_the_field_and_its_warp():
    case = make_pair("sinusoid", (16, 16, 16), seed=75, amplitude=1.5, period=12.0)
    levels = (LevelParams(2, 1.0, 1.0, 1, 1.0), LevelParams(1, 1.0, 1.0, 1, 1.0))
    field, warped = register(case["fixed"], case["moving"], RegistrationConfig(levels=levels))
    expected = pipeline.warp_scalar(case["moving"], field)
    assert warped.data.tobytes() == expected.data.tobytes()
    assert warped.spacing == expected.spacing


@pytest.mark.parametrize("factors", [(3, 1), (6, 3, 1)])
def test_register_returns_the_field_on_the_fixed_grid(factors):
    # spacing times and then over a factor other than a power of two is not
    # the spacing again, so the field must take the fixed image's own
    from voxelreg.volume import ScalarVolume

    case = make_pair("sinusoid", (48, 48, 48), seed=76, amplitude=1.5, period=12.0)
    fixed, moving = (ScalarVolume(case[k].data, (0.1, 0.2, 0.35)) for k in ("fixed", "moving"))
    cfg = RegistrationConfig(levels=tuple(LevelParams(f, 1.0, 1.0, 1, 1.0) for f in factors))
    field = register(fixed, moving, cfg).field
    assert field.spacing == fixed.spacing
    # no level reads the spacing
    assert field.data.tobytes() == register(case["fixed"], case["moving"], cfg).field.data.tobytes()


def test_register_warped_image_takes_the_fixed_spacing():
    # the moving image is sampled on the fixed grid, whatever its own spacing
    case = make_pair("translation", (24, 24, 24), seed=77, translation=(1.0, 0.0, 0.0))
    fixed = ScalarVolume(case["fixed"].data, (0.5, 0.5, 0.5))
    moving = ScalarVolume(case["moving"].data, (1.0, 1.0, 2.0))
    result = register(fixed, moving, single_level(l_max=1.0, feature="intensity"))
    assert result.warped.spacing == fixed.spacing
    assert result.warped.data.tobytes() == warp_scalar(moving, result.field).data.tobytes()


def test_register_with_standardization():
    case = make_pair(
        "translation", (32, 32, 32), seed=73, translation=(1.0, 0.0, 0.0), noise_sigma=1.2
    )
    moving_scaled = case["moving"]
    # rescale the moving intensities; standardization should undo this
    from voxelreg.volume import ScalarVolume

    scaled = ScalarVolume(moving_scaled.data * 3.0 + 10.0, moving_scaled.spacing)
    cfg = single_level(
        q=1.0, l_max=2.0, patch_radius=1, alpha=0.0, feature="intensity", standardize=True
    )
    field, _ = register(case["fixed"], scaled, cfg)
    m = 3
    interior = field.data[m:-m, m:-m, m:-m]
    assert np.all(interior == np.array([1.0, 0.0, 0.0], dtype=np.float32))


def test_register_with_standardization_reference(tmp_path, monkeypatch):
    # both inputs get the reference's intensity map, so an image registered
    # onto itself stays in place; the spy shows the saved reference was used
    from voxelreg import features
    from voxelreg.volume import ScalarVolume

    vol = smooth_random_volume((16, 16, 16), seed=5)
    ref = smooth_random_volume((16, 16, 16), seed=6)
    ref = ScalarVolume(ref.data * 2.0 + 5.0, ref.spacing)
    save_volume(ref, tmp_path / "ref")
    references = []
    real_standardize = features.intensity_standardize

    def spy(v, reference):
        references.append(reference)
        return real_standardize(v, reference)

    monkeypatch.setattr(features, "intensity_standardize", spy)
    cfg = RegistrationConfig(
        feature="intensity",
        levels=(
            LevelParams(factor=2, q=1.0, l_max=1.0, patch_radius=1, alpha=0.0),
            LevelParams(factor=1, q=1.0, l_max=1.0, patch_radius=1, alpha=0.0),
        ),
        standardize=True,
        standardize_reference=str(tmp_path / "ref"),
    )
    field, warped = register(vol, vol, cfg)
    assert np.all(field.data == 0.0)
    assert np.array_equal(warped.data, vol.data)
    # fixed and moving are each mapped onto the reference, on both levels
    assert [r.dims for r in references] == [(8, 8, 8)] * 2 + [(16, 16, 16)] * 2
    assert all(np.array_equal(r.data, ref.data) for r in references[2:])


def test_memory_budget_comes_only_from_the_config(monkeypatch):
    # REG_MEMORY_BUDGET_MB, set or not and whatever its value, is not a budget
    monkeypatch.delenv("REG_MEMORY_BUDGET_MB", raising=False)
    for env in (None, "7", "abc"):
        if env is not None:
            monkeypatch.setenv("REG_MEMORY_BUDGET_MB", env)
        assert single_level().budget_bytes() == 1024 * 1024 * 1024
        assert single_level(memory_budget_mb=3).budget_bytes() == 3 * 1024 * 1024
