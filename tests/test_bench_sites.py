"""The benchmark traces rankflow functions by module and name
(`perfbench/layers.py`); a refactor that drops or renames one of those
names must fail here, not only in the benchmark's own self-test."""

import importlib.util
from pathlib import Path

_LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_site_is_bound():
    layers = _layers()
    sites = [f"{owner}.{attr}" for owner, attr, _, _ in layers.SITES]
    assert len(set(sites)) == len(sites)
    bound = layers.bindings()
    assert sorted(bound) == sorted(sites), f"unbound: {sorted(set(sites) - set(bound))}"
    assert all(callable(fn) for fn in bound.values())
