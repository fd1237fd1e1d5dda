"""Synthetic generator determinism and construction guarantees."""

import numpy as np
import pytest

from voxelreg import synth
from voxelreg.synth import (
    blob_labels,
    make_pair,
    sinusoid_field,
    smooth_random_volume,
    translation_field,
)
from voxelreg.volume import warp_labels, warp_scalar


def test_same_seed_is_bit_identical():
    a = make_pair("sinusoid", (16, 16, 16), seed=90)
    b = make_pair("sinusoid", (16, 16, 16), seed=90)
    for key in ("fixed", "moving", "field", "fixed_labels", "moving_labels"):
        assert np.array_equal(a[key].data, b[key].data), key


def test_different_seeds_differ():
    a = smooth_random_volume((12, 12, 12), seed=1)
    b = smooth_random_volume((12, 12, 12), seed=2)
    assert not np.array_equal(a.data, b.data)


def test_smooth_volume_in_unit_range():
    vol = smooth_random_volume((10, 12, 14), seed=91)
    assert vol.data.min() == 0.0
    assert vol.data.max() == 1.0
    assert vol.dims == (10, 12, 14)


def test_translation_case_is_exact_shift_on_interior():
    t = (2, 0, 0)
    case = make_pair("translation", (16, 16, 16), seed=92, translation=t)
    fixed, moving = case["fixed"].data, case["moving"].data
    # fixed(x) = moving(x + t) wherever x + t stays in bounds
    assert np.array_equal(fixed[:, :, :-2], moving[:, :, 2:])


def test_ground_truth_field_warps_moving_onto_fixed_exactly():
    case = make_pair("sinusoid", (20, 20, 20), seed=93, amplitude=2.5, period=12.0)
    rewarped = warp_scalar(case["moving"], case["field"])
    assert np.array_equal(rewarped.data, case["fixed"].data)


def test_ground_truth_field_restores_labels_exactly():
    case = make_pair("sinusoid", (24, 24, 24), seed=94, amplitude=3.0, period=16.0, num_blobs=8)
    restored = warp_labels(case["moving_labels"], case["field"])
    assert np.array_equal(restored.data, case["fixed_labels"].data)


def test_sinusoid_amplitude_bound():
    field = sinusoid_field((20, 20, 20), amplitude=3.0, period=10.0, seed=95)
    assert np.abs(field.data).max() <= 3.0
    assert np.abs(field.data).max() > 0.5  # actually deforms


def test_translation_field_is_constant():
    field = translation_field((4, 5, 6), (1.0, -2.0, 0.5))
    assert np.all(field.data == np.array([1.0, -2.0, 0.5], dtype=np.float32))


def test_blob_labels_cover_many_structures():
    labels = blob_labels((48, 48, 48), 130, seed=96, min_radius=2.0, max_radius=4.0)
    present = labels.labels()
    assert len(present) >= 120  # a few may be overwritten by overlaps
    assert max(present) <= 130
    assert labels.data.min() == 0


def test_blobs_kind_returns_only_labels():
    out = make_pair("blobs", (16, 16, 16), seed=97, num_blobs=5)
    assert set(out) == {"labels"}
    assert len(out["labels"].labels()) >= 1


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make_pair("affine", (8, 8, 8), seed=0)


@pytest.mark.parametrize("make, needle", [
    (lambda: smooth_random_volume((8, 8, 8), seed=0, sigma=-1), "noise sigma must be >= 0, got -1"),
    (lambda: smooth_random_volume((1, 1, 1), seed=0), "dims must hold at least 2 voxels"),
    (lambda: blob_labels((8, 8, 8), 3, seed=0, min_radius=5.0, max_radius=2.0),
     "need 0 <= min_radius <= max_radius, got 5.0, 2.0"),
    (lambda: smooth_random_volume((9.9, 8, 8), seed=0), "dims and channels must be integers"),
    (lambda: blob_labels((8, 8, 8.0), 3, seed=0), "dims and channels must be integers"),
    (lambda: sinusoid_field((8, 8.5, 8), 1.0, 8.0, seed=0), "dims and channels must be integers"),
    (lambda: translation_field((8.5, 8, 8), (1.0, 0.0, 0.0)), "dims and channels must be integers"),
    (lambda: blob_labels((8, 8, 8), 0, seed=0), "blob count must be >= 1, got 0"),
])
def test_bad_generator_input_is_named(make, needle):
    with pytest.raises(ValueError, match=needle):
        make()


@pytest.mark.parametrize("kind, params, needle", [
    ("translation", {"noise_sigma": -1.0}, "noise sigma must be >= 0"),
    ("sinusoid", {"noise_sigma": float("nan")}, "noise sigma must be >= 0"),
    ("translation", {"dims": (1, 1, 1)}, "dims must hold at least 2 voxels"),
    ("sinusoid", {"min_radius": 7.0, "max_radius": 3.0}, "min_radius <= max_radius"),
    ("blobs", {"min_radius": -1.0}, "min_radius <= max_radius"),
    ("sinusoid", {"period": 0.0}, "period must be > 0"),
    ("blobs", {"dims": (0, 4, 4)}, "dims must be three positive integers"),
    ("translation", {"dims": (8.5, 8, 8)}, "dims and channels must be integers"),
    ("sinusoid", {"dims": (8, 8, 9.9)}, "dims and channels must be integers"),
    ("blobs", {"dims": (8, 8.0, 8)}, "dims and channels must be integers"),
    ("translation", {"translation": (1.0, 2.0)}, "translation must be 3 finite numbers"),
    ("translation", {"translation": (1.0, float("nan"), 0.0)}, "translation must be 3 finite numbers"),
    ("sinusoid", {"period": float("nan")}, "period must be > 0, got nan"),
    ("sinusoid", {"amplitude": float("nan")}, "amplitude must be finite, got nan"),
    ("sinusoid", {"amplitude": float("inf")}, "amplitude must be finite, got inf"),
    ("blobs", {"period": -1.0}, "period must be > 0, got -1.0"),
    # every kind checks the noise, period and radii, each for being finite
    ("blobs", {"noise_sigma": float("nan")}, "noise sigma must be >= 0, got nan"),
    ("sinusoid", {"period": float("inf")}, "period must be finite, got inf"),
    ("blobs", {"max_radius": float("inf")}, "max_radius must be finite, got inf"),
    ("sinusoid", {"noise_sigma": float("inf")}, "noise sigma must be finite, got inf"),
    ("translation", {"min_radius": float("inf"), "max_radius": float("inf")},
     "max_radius must be finite, got inf"),
    ("sinusoid", {"seed": -1}, "seed must be >= 0, got -1"),
    ("blobs", {"num_blobs": 0}, "blob count must be >= 1, got 0"),
])
def test_make_pair_checks_inputs_before_any_work(monkeypatch, kind, params, needle):
    def no_work(*args, **kwargs):
        raise AssertionError("a volume was made before the inputs were checked")

    for name in ("smooth_random_volume", "blob_labels", "sinusoid_field", "translation_field"):
        monkeypatch.setattr(synth, name, no_work)
    dims = params.pop("dims", (8, 8, 8))
    with pytest.raises(ValueError, match=needle):
        make_pair(kind, dims, **{"seed": 0, **params})
