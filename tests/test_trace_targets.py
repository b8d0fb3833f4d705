"""Every name the benchmark's tracer wraps is a callable of its module.

The tracer skips a target it cannot resolve, so a renamed function would
silently drop its per-layer metric; here it fails instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracing import TARGETS  # noqa: E402


@pytest.mark.parametrize("target", TARGETS, ids=[t.name for t in TARGETS])
def test_target_resolves(target):
    assert callable(getattr(importlib.import_module(target.module), target.attr, None))
