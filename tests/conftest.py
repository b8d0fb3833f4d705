import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from densewire.materials import default_catalog


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture
def traced_peak():
    """`measure(fn, *args)` calls fn under tracemalloc and returns its result
    and the peak bytes traced during the call."""
    def measure(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
