"""Fixtures shared by the test modules."""

import pytest

from voxelreg import pipeline


@pytest.fixture
def image_warps(monkeypatch):
    """The (image, field) of every ``pipeline.warp_scalar`` call, in call order."""
    calls = []
    real_warp = pipeline.warp_scalar

    def spy(vol, field):
        calls.append((vol, field))
        return real_warp(vol, field)

    monkeypatch.setattr(pipeline, "warp_scalar", spy)
    return calls
