"""Test-suite settings shared by every test module."""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from adaweight import weights

# Property tests draw the same examples on every run and keep no example
# database, so the suite is reproducible.  Hypothesis still caches the
# constants it finds in source files; that cache goes to a temporary
# directory, removed at exit, so a run writes nothing into the checkout.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_storage.name)


@pytest.fixture
def cold_arenas():
    """No idle band arena, so that a walk builds its own and a memory peak counts it.

    An arena left by an earlier test would hold the buffers already, and a
    tracemalloc bound would then pass without measuring them.
    """
    weights._IDLE_ARENAS.clear()
