"""The benchmark's trace mode can still find every function it names.

perfbench/tracer.py wraps jortwist functions by name and BENCHMARK.json
lists the per-layer metrics read from it.  A change that deletes or renames
a traced function must fail here, not in `perfbench/run.py --trace 1`.
Both files are read, never changed.
"""

import importlib.util
import json
from pathlib import Path

import jortwist.cli  # noqa: F401  (the tracer wraps cli too)

ROOT = Path(__file__).resolve().parent.parent

# computed by perfbench/run.py's measure_traced itself, not by the tracer
MEASURED_BY_THE_RUNNER = {"cli.import_s", "cli.output_bytes", "proc.cpu_s",
                          "trace.overhead_ratio"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_metric_resolves():
    names = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    with _load_tracer().Tracer() as tracer:
        pass
    missing = []
    for name in names:
        if name in MEASURED_BY_THE_RUNNER:
            continue
        try:
            tracer.value(name)
        except KeyError:
            missing.append(name)
    assert names and not missing, missing
