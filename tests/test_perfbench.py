"""The traced benchmark (`perfbench/run.py --trace 1`) patches library
functions by name through `perfbench/spans.py`; these names must stay."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_spans_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave perfbench/ as it is
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    spans.install(tracer)      # a KeyError names a patched function that is gone
    patched = list(tracer._undo)
    try:
        assert len(patched) == 33
        for owner, attr, orig in patched:
            assert owner.__dict__[attr] is not orig, attr
    finally:
        tracer.uninstall()
    assert not tracer._undo
    for owner, attr, orig in patched:
        assert owner.__dict__[attr] is orig, attr
