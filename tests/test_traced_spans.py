"""A traced pass of every benchmark workload records each span it expects.

A traced benchmark run fails when one of its workload's ``expected_spans``
records nothing, for example after a function stops calling another one that
the tracer wraps.  This runs one seed-1 pass of each workload the way the
benchmark's traced pass does and checks every expected span fired.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import ndsys
import ndsys.cli  # noqa: F401  (the query-mix workload calls ndsys.cli.main)

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name):
    """Import a perfbench module from its file, writing no bytecode there."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


spans = _load("spans")
workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_records_every_expected_span(name):
    workload = workloads.WORKLOADS[name]
    plan = workload.build(ndsys, ROOT, 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        state: dict = {}
        for i, op in enumerate(plan.ops):
            tracer.op, tracer.enabled = i, True
            try:
                op.run(state)
            finally:
                tracer.enabled = False
    finally:
        tracer.uninstall()
    counts = spans.span_counts(tracer)
    silent = [s for s in workload.expected_spans if not counts.get(s)]
    assert not silent, f"{name}: no span recorded for {', '.join(silent)}"
