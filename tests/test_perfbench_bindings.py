"""The benchmark tracer wraps names that spikepca's modules look up at
call time; a refactor that unbinds one must fail here, not in a traced
benchmark run."""

import importlib
import importlib.util
import json
import os
import subprocess
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


CHILD = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
tracer = tracer_module.Tracer()
tracer.install()
from spikepca import cli
rc = cli.main(["simulate", "table12", "--gamma", "1", "--n", "20",
               "--replicates", "2", "--seed", "1", "--workers", "1"])
tracer.dump(sys.argv[2])
sys.exit(rc)
"""


def test_traced_table12_nests_draws_under_replicates(tmp_path):
    # the CLI must reach run_table12 through the module, where the tracer
    # wraps it; a name bound at import time would skip the wrapper
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    spans_path = tmp_path / "spans.json"
    result = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, str(TRACER), str(spans_path)],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    spans = json.loads(spans_path.read_text())
    replicates = [s["id"] for s in spans if s["layer"] == "simulate.replicates"]
    # two replicates of two standard_normal draws each: the spike rows
    # and the noise block
    draws = [s for s in spans if s["layer"] == "simulate.rng"]
    assert len(replicates) == 1
    assert len(draws) == 4
    assert all(s["parent"] == replicates[0] for s in draws)
