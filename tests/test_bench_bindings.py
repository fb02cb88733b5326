"""The benchmark's span tracer (``perfbench/spans.py``) patches ``bone``
functions at the module attributes where they are called.  Every binding
must exist where it is bound, and install/uninstall must leave each one
holding its original object."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_binding_installs_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _, _ in spans.BINDINGS if not hasattr(owner, attr)
    ]
    assert missing == []
    originals = [getattr(owner, attr) for owner, attr, _, _ in spans.BINDINGS]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(
            getattr(owner, attr) is not original
            for (owner, attr, _, _), original in zip(spans.BINDINGS, originals)
        )
    finally:
        tracer.uninstall()
    for (owner, attr, _, _), original in zip(spans.BINDINGS, originals):
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
