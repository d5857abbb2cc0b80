"""Print every end-to-end and per-layer metric of the benchmark, with units.

Usage, from the repository root::

    python3 perfbench/summary.py [--runs K] [WORKLOAD ...]

For each workload (all by default) this makes K untraced runs with seeds
1, 2, ... and one traced run with seed 1, each through ``run.py`` with
the ``run_seconds`` of ``BENCHMARK.json``.  It prints the median,
quartiles and sample count of each end-to-end metric, the error rate,
every per-layer metric of the traced run (a share is followed by its
time in seconds), the tracing overhead (traced ``wall_s`` over the
untraced median), the traced pass net of the tracer's estimated cost
over the same median, and the layer shares the workload was designed to
show, net and raw.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT

SEED = 1

# Layers whose self time should be more than half of the traced pass, and
# layers that should stay below 5% of it.
EXPECTED = {
    "registry-check": (("multicat", "closedmc"), ()),
    "set-bridge": (("hf", "setcat"), ("multicat",)),
    "represent-reload": (("correspond", "enriched", "interchange", "closed"), ("hf",)),
}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--runs", type=int, default=3)
    args = p.parse_args(argv)
    seconds = bench["run_seconds"]

    for wl in args.workloads:
        plain = [run(wl, SEED + i, seconds, 0) for i in range(args.runs)]
        traced = run(wl, SEED, seconds, 1)
        print(f"== {wl}: {args.runs} untraced runs, 1 traced run ==")
        for m in bench["end_to_end"]:
            xs = [r["metrics"][m["name"]]["value"] for r in plain]
            q = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
            print(f"{m['name']:58s} median {statistics.median(xs):.4f} q1 {q[0]:.4f} "
                  f"q3 {q[-1]:.4f} n={len(xs)} {m['unit']}")
        runs = plain + [traced]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{'error_rate':58s} {failed / attempted:.4f} ({failed}/{attempted} operations) ratio")
        values = {k: v["value"] for k, v in traced["metrics"].items()}
        wall = statistics.median(r["metrics"]["wall_s"]["value"] for r in plain)
        print(f"{'trace_overhead':58s} {values['trace.wall_s'] / wall:.4f} ratio")
        # How well the cost estimate explains the overhead: 1 if exactly.
        print(f"{'trace.net_wall_s over untraced wall_s':58s} "
              f"{values['trace.net_wall_s'] / wall:.4f} ratio")
        record = json.loads((HERE / "out" / f"run-{wl}-seed{SEED}-trace1.json").read_text())
        secs = record["metric_seconds"]
        for name, v in traced["metrics"].items():
            line = f"{name:58s} {v['value']:.6g} {v['unit']}"
            print(line + (f" ({secs[name]:.6g} s)" if name in secs else ""))
        layers = {k: v for k, v in values.items() if k.startswith("layer.")}
        net = {k.split(".")[1]: v for k, v in layers.items() if k.endswith(".self_share")}
        raw = {k.split(".")[1]: v for k, v in layers.items() if k.endswith(".raw_self_share")}
        busy, idle = EXPECTED[wl]
        total = sum(net[layer] for layer in busy)
        print(f"{'+'.join(busy)} net self share: {total:.3f} "
              f"({'as designed' if total > 0.5 else 'NOT above half'}; "
              f"raw {sum(raw[layer] for layer in busy):.3f})")
        for layer in idle:
            print(f"{layer} net self share: {net[layer]:.4f} "
                  f"({'idle' if net[layer] < 0.05 else 'NOT idle'}; raw {raw[layer]:.4f})")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
