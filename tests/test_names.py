"""Every name the benchmark traces, and every exported name, resolves.

``bench/tracing.py`` looks up each ``bench/layers.py`` target by its dotted
path, so removing or renaming a traced function would break every traced
benchmark run; these tests catch that first.
"""

import importlib
import sys
from pathlib import Path

import pytest

import mheight

_BENCH = str(Path(__file__).resolve().parent.parent / "bench")
sys.path.insert(0, _BENCH)
try:
    import layers
finally:
    sys.path.remove(_BENCH)


@pytest.mark.parametrize("path", [path for path, _ in layers.TARGETS])
def test_traced_target_resolves(path):
    module, *attrs = path.split(".")
    owner = importlib.import_module(f"mheight.{module}")
    for attr in attrs:
        owner = getattr(owner, attr)
    assert callable(owner)


@pytest.mark.parametrize("name", mheight.__all__)
def test_exported_name_resolves(name):
    assert hasattr(mheight, name)
