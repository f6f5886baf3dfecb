"""Every function the benchmark's tracer wraps must still exist in the library.

The tracer skips a target it cannot find and reports it as missing, so a
deletion or rename would silently zero that span's per-layer metrics.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("name, owner_path, attr", [t[:3] for t in tracing.TARGETS],
                         ids=[f"{t[1]}.{t[2]}" for t in tracing.TARGETS])
def test_target_resolves(name, owner_path, attr):
    owner = tracing._resolve(owner_path)
    assert owner is not None, f"{name}: {owner_path} does not import"
    assert callable(getattr(owner, attr, None)), f"{name}: {owner_path} has no {attr}"
