"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a ``[PASS] criterion N`` line on success (visible with
``pytest -s``); a failing criterion fails its test. Run with::

    pytest tests/test_acceptance.py -v
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from voxelreg import regcore
from voxelreg.evaluation import jaccard, mean_jc_dataset, mean_jc_pair
from voxelreg.features import ssc_features
from voxelreg.pipeline import (
    LevelParams,
    RegistrationConfig,
    chunked_dsv_execution,
    register,
)
from voxelreg.synth import blob_labels, make_pair, smooth_random_volume
from voxelreg.volume import (
    FeatureVolume,
    LabelVolume,
    ScalarVolume,
    save_volume,
    warp_labels,
    zero_field,
)

from tests import oracle
from tests.oracle import box_sum_oracle, dsv_oracle, mean_jc_oracle
from tests.test_cli import run_entry_point as run_cli


def announce(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


def smooth_feature_pair(seed, n=6, channels=2, sigma=1.2):
    from scipy import ndimage

    rng = np.random.default_rng(seed)

    def mk():
        data = np.stack(
            [ndimage.gaussian_filter(rng.standard_normal((n, n, n)), sigma) for _ in range(channels)],
            axis=-1,
        ).astype(np.float32)
        return FeatureVolume(data)

    return mk(), mk()


# ---------------------------------------------------------------------------
# 1. Self-registration
# ---------------------------------------------------------------------------

def test_criterion_01_self_registration():
    cfg = RegistrationConfig(
        levels=(LevelParams(factor=1, q=1.0, l_max=1.0, patch_radius=1, alpha=1.0),)
    )
    start = time.monotonic()
    for seed in range(10):
        vol = smooth_random_volume((48, 48, 48), seed=seed)
        for feature in ("intensity", "edge", "ssc"):
            field, warped = register(vol, vol, dataclasses.replace(cfg, feature=feature))
            assert np.all(field.data == 0.0), (seed, feature)
            assert np.array_equal(warped.data, vol.data), (seed, feature)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"self-registration took {elapsed:.1f}s, budget 60s"
    announce(1, f"self-registration zero field, 30 runs in {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 2. Translation recovery
# ---------------------------------------------------------------------------

def test_criterion_02_translation_recovery():
    l_max, patch_radius = 4.0, 2
    cfg = RegistrationConfig(
        levels=(LevelParams(factor=1, q=1.0, l_max=l_max, patch_radius=patch_radius, alpha=0.0),)
    )
    m = int(l_max + patch_radius) + 1  # strictly greater than l_max + patch_radius
    worst = {"intensity": 1.0, "edge": 1.0, "ssc": 1.0}
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        t = tuple(float(v) for v in rng.integers(-4, 5, size=3))
        case = make_pair("translation", (32, 32, 32), seed=seed, translation=t, noise_sigma=1.0)
        want = np.array(t, dtype=np.float32)
        for feature in ("intensity", "edge", "ssc"):
            field, _ = register(case["fixed"], case["moving"], dataclasses.replace(cfg, feature=feature))
            interior = field.data[m:-m, m:-m, m:-m]
            frac = float((interior == want).all(axis=-1).mean())
            worst[feature] = min(worst[feature], frac)
            assert frac >= 0.99, (seed, feature, t, frac)
            if feature in ("intensity", "ssc"):
                assert frac == 1.0, (seed, feature, t, frac)
    announce(
        2,
        "translation recovery exact for intensity/ssc, edge >= 99% "
        f"(worst fractions {worst})",
    )


# ---------------------------------------------------------------------------
# 3. DSV brute-force equivalence
# ---------------------------------------------------------------------------

def test_criterion_03_dsv_bruteforce_equivalence():
    ds = regcore.build_displacement_set(1.0, 1.0)  # 27 labels
    disp_rows = ds.displacements.tolist()
    for trial in range(100):
        rng = np.random.default_rng(2000 + trial)
        f_fixed = FeatureVolume(rng.uniform(0, 1, size=(8, 8, 8, 2)).astype(np.float32))
        f_moving = FeatureVolume(rng.uniform(0, 1, size=(8, 8, 8, 2)).astype(np.float32))
        costs = oracle.cost_volume(f_fixed, f_moving, ds)
        want_costs = dsv_oracle(f_fixed.data, f_moving.data, disp_rows)
        assert np.abs(costs - want_costs).max() < 1e-5, trial

        agg = oracle.filter_costs(costs, 1, 0.0)
        for li in (0, 13, 26):
            want_map = box_sum_oracle(costs[li], 1)
            assert np.abs(agg[li] - want_map).max() < 1e-5, (trial, li)

        field = oracle.winner_field(agg, ds)
        disp = ds.displacements
        for z in range(8):
            for y in range(8):
                for x in range(8):
                    best = None
                    for li in range(27):
                        dx, dy, dz = disp[li]
                        key = (agg[li, z, y, x], abs(dx) + abs(dy) + abs(dz), dz, dy, dx)
                        if best is None or key < best[0]:
                            best = (key, (dx, dy, dz))
                    assert tuple(field.data[z, y, x].tolist()) == best[1], (trial, z, y, x)
    announce(3, "cost volume/box sum/winner match naive loop oracles on 100 trials")


# ---------------------------------------------------------------------------
# 4. Chunked equivalence
# ---------------------------------------------------------------------------

def test_criterion_04_chunked_equivalence():
    ds = regcore.build_displacement_set(1.0, 2.0)  # 125 labels
    n = 10
    map_bytes = n * n * n * regcore.SEARCH_DTYPE.itemsize  # one cost map
    budgets = [map_bytes, 7 * map_bytes, 1 << 30]
    for trial in range(20):
        f_fixed, f_moving = smooth_feature_pair(3000 + trial, n=n)
        want = oracle.reference_field(f_fixed, f_moving, ds, 1, 1.0)
        for budget in budgets:
            got = chunked_dsv_execution(f_fixed, f_moving, ds, 1, 1.0, budget)
            assert np.array_equal(
                got.data.view(np.uint32), want.data.view(np.uint32)
            ), (trial, budget)
    announce(4, "chunked execution bit-identical over 20 instances x 3 budgets")


# ---------------------------------------------------------------------------
# 5. SSC affine invariance
# ---------------------------------------------------------------------------

def test_criterion_05_ssc_affine_invariance():
    # offsets stay moderate relative to the unit intensity range: volumes are
    # stored float32, so a large additive offset would quantize away the
    # neighbor differences the descriptor is built from
    worst = 0.0
    for trial in range(20):
        vol = smooth_random_volume((12, 12, 12), seed=4000 + trial, sigma=1.0)
        base = ssc_features(vol).data
        rng = np.random.default_rng(5000 + trial)
        for _ in range(5):
            a = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
            b = float(rng.uniform(-2.0, 2.0))
            scaled = ScalarVolume(a * vol.data + b, vol.spacing)
            dev = float(np.abs(ssc_features(scaled).data - base).max())
            worst = max(worst, dev)
            assert dev < 1e-5, (trial, a, b, dev)
    announce(5, f"ssc affine invariance: max deviation {worst:.2e} < 1e-5")


# ---------------------------------------------------------------------------
# 6. Jaccard correctness
# ---------------------------------------------------------------------------

def test_criterion_06_jaccard_correctness():
    def labels_of(arr):
        return LabelVolume(np.asarray(arr, dtype=np.int32))

    same = labels_of(np.ones((3, 3, 3)))
    assert jaccard(same, same, 1) == 100.0
    a = np.zeros((1, 1, 8), dtype=np.int32)
    b = np.zeros((1, 1, 8), dtype=np.int32)
    a[0, 0, :4] = 1
    b[0, 0, 4:] = 1
    assert jaccard(labels_of(a), labels_of(b), 1) == 0.0
    a = np.zeros((1, 1, 20), dtype=np.int32)
    b = np.zeros((1, 1, 20), dtype=np.int32)
    a[0, 0, 0:10] = 1
    b[0, 0, 5:15] = 1
    assert jaccard(labels_of(a), labels_of(b), 1) == pytest.approx(33.33, abs=0.01)

    # two-level aggregation against scalar oracles on 130-structure labelings
    pair_means = []
    oracle_means = []
    for seed in (6000, 6001, 6002):
        fixed = blob_labels((48, 48, 48), 130, seed=seed, min_radius=2.0, max_radius=4.0)
        rng = np.random.default_rng(seed + 10)
        noisy = fixed.data.copy()
        mask = rng.uniform(size=noisy.shape) < 0.15
        noisy[mask] = rng.integers(0, 131, size=int(mask.sum()))
        moved = labels_of(noisy)
        label_list = sorted(set(np.unique(fixed.data)) | set(np.unique(moved.data)) - {0})
        mean, per = mean_jc_pair(fixed, moved, label_list)
        pair_means.append(mean)
        oracle_means.append(mean_jc_oracle(fixed.data, moved.data))
        assert mean == pytest.approx(oracle_means[-1], abs=1e-9)
    got = mean_jc_dataset(pair_means)
    want = sum(oracle_means) / len(oracle_means)
    assert got == pytest.approx(want, abs=1e-9)
    announce(6, "jaccard formula cases and two-level aggregation match oracles")


# ---------------------------------------------------------------------------
# 7. End-to-end JC improvement
# ---------------------------------------------------------------------------

def test_criterion_07_end_to_end_jc_improvement():
    cfg = RegistrationConfig(
        feature="ssc",
        levels=(
            LevelParams(factor=2, q=1.0, l_max=2.0, patch_radius=1, alpha=1.0),
            LevelParams(factor=1, q=1.0, l_max=2.0, patch_radius=2, alpha=1.0),
        ),
    )
    gains = []
    for seed in range(200, 210):
        case = make_pair(
            "sinusoid",
            (64, 64, 64),
            seed=seed,
            amplitude=3.0,
            period=40.0,
            num_blobs=20,
            min_radius=4.0,
            max_radius=7.0,
        )
        before = mean_jc_oracle(case["fixed_labels"].data, case["moving_labels"].data)
        field, _ = register(case["fixed"], case["moving"], cfg)
        warped = warp_labels(case["moving_labels"], field)
        after = mean_jc_oracle(case["fixed_labels"].data, warped.data)
        gains.append(after - before)
    positive = sum(g > 0 for g in gains)
    big = sum(g >= 10.0 for g in gains)
    assert positive == 10, gains
    assert big >= 8, gains
    announce(7, f"JC improved in {positive}/10 cases, >= 10 points in {big}/10")


# ---------------------------------------------------------------------------
# 8. Energy descent
# ---------------------------------------------------------------------------

def test_criterion_08_energy_descent():
    ds = regcore.build_displacement_set(1.0, 1.0)
    nonzero_fields = 0
    for trial in range(50):
        f_fixed, f_moving = smooth_feature_pair(7000 + trial, n=6)
        field = oracle.winner_field(oracle.cost_volume(f_fixed, f_moving, ds), ds)
        e_winner = oracle.energy(f_fixed, f_moving, field, alpha=0.0)
        e_zero = oracle.energy(f_fixed, f_moving, zero_field(f_fixed.dims), alpha=0.0)
        assert e_winner <= e_zero, trial
        if np.any(field.data != 0.0):
            nonzero_fields += 1
            assert e_winner < e_zero, trial
        else:
            assert e_winner == e_zero, trial
    assert nonzero_fields > 0  # the check above must actually bite
    announce(8, f"energy descent on 50 instances ({nonzero_fields} with nonzero winners)")


# ---------------------------------------------------------------------------
# 9. Performance envelope
# ---------------------------------------------------------------------------

def test_criterion_09_performance_envelope():
    fixed = smooth_random_volume((64, 64, 64), seed=8000)
    moving = smooth_random_volume((64, 64, 64), seed=8001)
    cfg = RegistrationConfig(
        feature="ssc",
        levels=(LevelParams(factor=1, q=1.0, l_max=4.0, patch_radius=2, alpha=2.0),),
    )
    start = time.monotonic()
    field, _ = register(fixed, moving, cfg)
    elapsed = time.monotonic() - start
    assert field.dims == (64, 64, 64)
    assert elapsed < 120.0, f"64^3 ssc single level took {elapsed:.1f}s, budget 120s"
    announce(9, f"64^3, 729 labels, 12-channel ssc in {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# 10. Determinism
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    # (a) library-level: repeated registration is bit-identical
    case = make_pair("sinusoid", (32, 32, 32), seed=9000, amplitude=2.0, period=20.0)
    cfg = RegistrationConfig(
        feature="ssc",
        levels=(LevelParams(factor=2, q=1.0, l_max=2.0, patch_radius=1, alpha=1.0),
                LevelParams(factor=1, q=1.0, l_max=1.0, patch_radius=1, alpha=1.0)),
    )
    f1, w1 = register(case["fixed"], case["moving"], cfg)
    f2, w2 = register(case["fixed"], case["moving"], cfg)
    assert np.array_equal(f1.data.view(np.uint32), f2.data.view(np.uint32))
    assert np.array_equal(w1.data.view(np.uint32), w2.data.view(np.uint32))

    # (b) synth command: identical seeds give byte-identical files
    for sub in ("s1", "s2"):
        res = run_cli("synth", "--kind", "sinusoid", "--dims", "20", "--seed", "77",
                      "--out-prefix", tmp_path / sub / "c")
        assert res.returncode == 0, res.stderr
    for part in ("fixed", "moving", "field", "fixed_labels", "moving_labels"):
        b1 = (tmp_path / "s1" / f"c_{part}.raw").read_bytes()
        b2 = (tmp_path / "s2" / f"c_{part}.raw").read_bytes()
        assert b1 == b2, part

    # (c) register command twice: byte-identical field artifacts
    save_volume(case["fixed"], tmp_path / "fixed")
    save_volume(case["moving"], tmp_path / "moving")
    for run in ("r1", "r2"):
        res = run_cli(
            "register", "--fixed", tmp_path / "fixed", "--moving", tmp_path / "moving",
            "--out-field", tmp_path / f"{run}_field", "--out-warped", tmp_path / f"{run}_warped",
            "--feature", "ssc", "--levels", "2:1:2:1:1,1:1:1:1:1",
        )
        assert res.returncode == 0, res.stderr
    assert (tmp_path / "r1_field.raw").read_bytes() == (tmp_path / "r2_field.raw").read_bytes()
    assert (tmp_path / "r1_warped.raw").read_bytes() == (tmp_path / "r2_warped.raw").read_bytes()

    # (d) batch with --jobs 1 vs --jobs 4: byte-identical reports
    pairs = []
    for i, seed in enumerate((9100, 9101, 9102, 9103)):
        c = make_pair("translation", (16, 16, 16), seed=seed,
                      translation=(1.0, 0.0, 0.0), num_blobs=4, noise_sigma=1.5)
        entry = {"pair_id": f"p{i}"}
        for key in ("fixed", "moving", "fixed_labels", "moving_labels"):
            stem = tmp_path / f"b{i}_{key}"
            save_volume(c[key], stem)
            entry[key] = str(stem)
        pairs.append(entry)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "pairs": pairs,
        "config": {
            "feature": "intensity",
            "levels": [{"factor": 1, "q": 1.0, "l_max": 2.0, "patch_radius": 1, "alpha": 0.0}],
        },
    }))
    for jobs, sub in ((1, "j1"), (4, "j4")):
        res = run_cli("batch", manifest, "--jobs", jobs, "--out-dir", tmp_path / sub)
        assert res.returncode == 0, res.stderr
    assert (tmp_path / "j1" / "report.json").read_bytes() == (tmp_path / "j4" / "report.json").read_bytes()
    assert (tmp_path / "j1" / "report.csv").read_bytes() == (tmp_path / "j4" / "report.csv").read_bytes()
    announce(10, "bit-identical artifacts across reruns and --jobs 1 vs 4")
