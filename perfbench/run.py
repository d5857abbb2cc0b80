"""closedcat benchmark: one run of one workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are declared in ``BENCHMARK.json``.  A run

* derives ``PYTHONHASHSEED`` and the order of operations from ``--seed``;
* with ``--trace 0``, starts ``SETUP_PROBES`` interpreters that only set
  up, then runs passes, each in a fresh interpreter, while the next pass
  is expected to end within ``--seconds`` (at least one pass), and
  reports the end-to-end metrics: median ``wall_s``, the median
  ``setup_s`` of probes and passes together, and the median of the
  passes' peak RSS;
* with ``--trace 1``, runs one traced pass and reports its per-layer
  metrics: call counts, ratios, and times as shares of the pass, net of
  the tracer's estimated cost (``tracer.calibrate``), with each layer's
  raw share next to its net one; ``summary.py`` divides ``trace.wall_s``
  by the untraced ``wall_s`` to give the tracing overhead;
* checks every output, traced or not, against the known answer and the
  golden digests; an operation that fails either check counts in
  ``failed``.

Human-readable lines go first; the last line of standard output is the
JSON result.  The full record (run facts, every pass, every counter) is
written to ``perfbench/out/``, with the spans of a traced pass.  Without
``src/closedcat`` next to this directory the run exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
# A run must end within 180 s; a worker that has not ended by then is
# stopped and the run fails.
RUN_LIMIT_S = 170.0


def fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Worker:
    """Starts ``worker.py`` processes one at a time and parses their result."""

    def __init__(self, workload: str, seed: int, deadline: float | None = None):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED=str(hash_seed(seed)),
        )

    def __call__(self, *flags: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), *flags]
        t_spawn = time.perf_counter()
        timeout = None if self.deadline is None else max(self.deadline - t_spawn, 1.0)
        proc = subprocess.run(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker {' '.join(flags)} exited with {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        # perf_counter is CLOCK_MONOTONIC, shared by every process on Linux.
        res["setup_s"] = res.pop("first_op_t") - t_spawn
        return res


def hash_seed(seed: int) -> int:
    return seed % 4294967296


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one closedcat benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args(argv)

    started = time.perf_counter()
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        return fail(f"{bench_file} not found")
    if not (ROOT / "src" / "closedcat" / "__init__.py").is_file():
        return fail("src/closedcat not found next to perfbench/; run from a closedcat checkout")
    bench = json.loads(bench_file.read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "pythonhashseed": hash_seed(args.seed),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "loadavg_before": read_loadavg(),
        "loop": "closed, one client, one operation at a time",
    }
    worker = Worker(args.workload, args.seed, deadline=started + RUN_LIMIT_S)
    setups = []
    try:
        if args.trace:
            passes = [worker("--traced", "--spans-out", str(spans_path(args)))]
        else:
            setups = [worker("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
            passes = []
            t0 = time.perf_counter()
            while True:
                passes.append(worker())
                elapsed = time.perf_counter() - t0
                if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                    break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(f"run failed: {exc}")
    record["loadavg_after"] = read_loadavg()

    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    errors = [(i, op, e) for i, r in enumerate(passes) for op, es in r["errors"].items() for e in es]
    walls = [r["wall_s"] for r in passes]
    setups += [r["setup_s"] for r in passes]
    record.update(
        passes=passes,
        setup_samples=setups,
        error_rate=failed / attempted,
    )
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        values, seconds = traced_metrics(passes[0])
        # Operations of the other workloads read 0.
        values.update({n: 0 for n in names if n.startswith("cli.op.") and n not in values})
        missing = [n for n in names if n not in values]
        if missing:
            return fail(f"per-layer metrics not produced: {missing}")
        metrics = {n: values[n] for n in names}
        record["metric_seconds"] = seconds
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        }

    record["metrics"] = metrics
    write_record(args, record)
    print(f"# run {json.dumps({k: v for k, v in record.items() if k != 'passes'})}")
    print(f"# wall_s per pass {walls}; error_rate {failed}/{attempted}")
    for i, op, e in errors:
        print(f"# FAILED pass {i} {op}: " + " | ".join(e.strip().splitlines()))
    for name, value in metrics.items():
        print(f"# {name} = {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


def traced_metrics(traced: dict) -> tuple[dict, dict]:
    """Per-layer values of a traced pass, and the seconds behind each share.

    Times are reported as shares: they compare across machines of
    different speed, and a function a workload never calls reads 0 as a
    share, not as a time.  Function, operation and ``layer.*.self_share``
    figures are net of the tracer's estimated cost and divided by the net
    pass, ``trace.net_wall_s``; ``layer.*.raw_self_share`` is the raw self
    time over the traced pass, ``trace.wall_s``.
    """
    t = traced["trace"]
    wall = traced["wall_s"]
    net_wall = wall - t["trace.overhead_s"]
    values = {
        "trace.wall_s": wall,
        "trace.net_wall_s": net_wall,
        "trace.overhead_share": t["trace.overhead_s"] / wall,
    }
    seconds = {}
    for k, v in t.items():
        if k.endswith((".net_total_s", ".net_self_s")):
            name, base = k.replace(".net_", ".")[:-2] + "_share", net_wall
        elif k.endswith(".raw_self_s"):
            name, base = k[:-2] + "_share", wall
        else:
            if not k.endswith("_s"):
                values[k] = v
            continue
        values[name] = v / base
        seconds[name] = v
    for op, s in traced["op_s"].items():
        values[f"cli.op.{op}.share"] = s / net_wall
        seconds[f"cli.op.{op}.share"] = s
    return values, seconds


def spans_path(args) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    return OUT / f"spans-{args.workload}-seed{args.seed}.json"


def write_record(args, record: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
