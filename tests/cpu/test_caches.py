"""Tests for the cache geometry record the ThunderX-1 spec carries."""

import pytest

from repro.params import CacheGeometry


def test_geometry_sets():
    g = CacheGeometry(size_bytes=16 * 1024 * 1024, ways=16, line_bytes=128)
    assert g.sets == 8192


def test_geometry_validation():
    with pytest.raises(ValueError):
        CacheGeometry(size_bytes=0, ways=1)
    with pytest.raises(ValueError):
        CacheGeometry(size_bytes=1000, ways=3, line_bytes=128)
