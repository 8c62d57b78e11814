"""Every traced benchmark workload still reports every per-layer metric.

``perfbench/analysis.per_layer`` writes ``null`` for a boundary that the
tracer expected and that recorded no span, as when a refactor routes a call
around a patched function.  ``perfbench/smoke.py`` catches that; this test
runs its check on each workload's reduced traced run, so the suite does too.
"""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_smoke():
    spec = importlib.util.spec_from_file_location(
        "perfbench_smoke", os.path.join(ROOT, "perfbench", "smoke.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_reports_every_layer(workload):
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert _load_smoke().check_run(workload, 1, units) == []
