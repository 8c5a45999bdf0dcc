"""The per-layer benchmark tracer finds the simulator names it wraps.

``perfbench/tracing.py`` replaces simulator functions by name (its
``TIMED`` and ``COUNTED`` tables).  A refactor that renames or deletes
every target of one entry leaves that metric ``null`` and the traced
benchmark round malformed.  This test loads the tracer from its file,
without installing it, and checks that each entry still resolves.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("name", sorted(tracing.TIMED))
def test_timed_entry_resolves_to_a_function(name):
    targets, _ = tracing.TIMED[name]
    found = [tracing._resolve(module, path) for module, path in targets]
    raws = [f[2] for f in found if f is not None]
    assert raws, f"{name}: none of {targets} exists"
    for raw in raws:
        assert callable(raw) and not isinstance(raw, property), name


@pytest.mark.parametrize("name", sorted(tracing.COUNTED))
def test_counted_entry_resolves(name):
    targets, _ = tracing.COUNTED[name]
    found = [tracing._resolve(module, path) for module, path in targets]
    raws = [f[2] for f in found if f is not None]
    assert raws, f"{name}: none of {targets} exists"
    for raw in raws:
        assert callable(raw) or isinstance(raw, property), name
