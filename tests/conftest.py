"""Shared fixtures.

``rootfinder`` caches each pair collision's root and pair count per
process. Every test starts and ends with both caches empty, so a test that
patches the contour walk neither reads a count cached before it nor leaves
its own behind, and a test that counts kernel calls sees the first count.
"""

from __future__ import annotations

import pytest

from wellpoles import rootfinder


def _clear() -> None:
    rootfinder.collision_x.cache_clear()
    rootfinder.collision_pair_count.cache_clear()


@pytest.fixture(autouse=True)
def empty_collision_caches():
    _clear()
    yield
    _clear()
