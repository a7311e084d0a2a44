"""The benchmark tracer wraps names that spikepca's modules look up at
call time; a refactor that unbinds one must fail here, not in a traced
benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_binding_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.BINDINGS
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracer.BINDINGS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
