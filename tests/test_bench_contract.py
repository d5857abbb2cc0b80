"""The benchmark's contract with the package: every per-layer metric that
``BENCHMARK.json`` names is produced by a traced run.

A traced run (``perfbench/run.py --trace 1``) exits 2 when one of them is
missing, and a metric goes missing when a function or method it names is
renamed, deleted or made private.  Only a traced run showed that until
now, so this test builds the traced run's metrics on a fresh tracer with
no calls made, the way ``perfbench/worker.py`` builds them after a pass.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _zero_call_metrics(tracer_mod, worker) -> dict:
    """The ``trace`` record of a traced pass that made no call."""
    tracer = tracer_mod.Tracer()
    waste = worker.WasteCounters()
    worker.install_tracer(tracer, waste)
    try:
        m = tracer.metrics()
        m.update(waste.metrics(tracer.stats))
        for layer, s in tracer.layer_self().items():
            m[f"layer.{layer}.raw_self_s"] = s
        for layer, s in tracer.layer_self(net=True).items():
            m[f"layer.{layer}.net_self_s"] = s
        m["trace.overhead_s"] = tracer.overhead_s
    finally:
        tracer.restore()
    return m


def test_a_traced_run_produces_every_per_layer_metric(perfbench_module):
    tracer_mod, worker, run = map(perfbench_module, ("tracer", "worker", "run"))
    trace = _zero_call_metrics(tracer_mod, worker)
    values, _ = run.traced_metrics({"trace": trace, "wall_s": 1.0, "op_s": {}})
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    # The operations' shares are filled with 0 for the other workloads.
    names = [
        m["name"] for m in bench["per_layer"] if not m["name"].startswith("cli.op.")
    ]
    assert [n for n in names if n not in values] == []
