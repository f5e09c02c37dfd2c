"""Shared test fixtures."""

import pytest

from swapsynth import canonical


@pytest.fixture(autouse=True)
def _fresh_kak_memo():
    """Start every test with an empty kak_decompose memo, so that a test that
    patches a KAK internal reaches the patch instead of a remembered result."""
    canonical._decompose.cache_clear()
