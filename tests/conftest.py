"""Shared test setup."""

import pytest

from glattice import rationality


@pytest.fixture(autouse=True)
def _cold_block_cache():
    """Every test starts with an empty block-route cache, so a test that
    patches the search (`iso`, `stably_permutation`) never reads a route
    that an earlier test found with the real one."""
    rationality._block_route.cache_clear()
    yield
    rationality._block_route.cache_clear()
