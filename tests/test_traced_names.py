"""Every function the benchmark's span tracer wraps must exist in ndsys.

The tracer in perfbench/spans.py looks its targets up by name when a traced
run starts, so a renamed or deleted function would otherwise only show up
there.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    traced = _load_spans(monkeypatch).TRACED
    assert traced
    for module, qualname in traced:
        obj = importlib.import_module(f"ndsys.{module}")
        for part in qualname.split("."):
            assert hasattr(obj, part), f"ndsys.{module}.{qualname} is missing"
            obj = getattr(obj, part)
        assert callable(obj), f"ndsys.{module}.{qualname} is not callable"
