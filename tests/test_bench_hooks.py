"""The benchmark's tracer wraps destcalc functions by name: each one must exist."""

import importlib
from pathlib import Path


def test_tracer_wraps_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    t = tracer.Tracer()
    t.install()  # raises AttributeError when a wrapped name is gone
    try:
        assert all(getattr(site, attr) is wrapper for site, attr, _, wrapper in t._patches)
    finally:
        t.uninstall()
    assert all(getattr(site, attr) is original for site, attr, original, _ in t._patches)
    patched = {attr for _, attr, _, _ in t._patches}
    assert {n for _, _, names, _, _ in tracer.TARGETS for n in names} <= patched
