"""The benchmark's tracer wraps melan's public names where they are imported.

`perfbench/tracer.py` lists those import sites in SITES.  A name that a
refactor drops or moves would otherwise only break `perfbench/run.py
--trace 1`; installing and uninstalling the tracer here catches it.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_tracer_site_resolves_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracer import SITES, Tracer, _resolve

    originals = [getattr(_resolve(path), attr) for path, attr, _ in SITES]
    tracer = Tracer()
    tracer.install()
    try:
        for path, attr, _ in SITES:
            assert hasattr(getattr(_resolve(path), attr), "__wrapped__")
    finally:
        tracer.uninstall()
    for (path, attr, _), original in zip(SITES, originals):
        assert getattr(_resolve(path), attr) is original
