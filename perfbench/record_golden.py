"""Record the golden output digests of every workload operation.

Usage, from the repository root, at the commit whose outputs are the
reference::

    python3 perfbench/record_golden.py

Each workload runs once per seed in ``SEEDS``; the seeds differ in
operation order and ``PYTHONHASHSEED``, and the digests must agree
across them before they are written to ``perfbench/golden.json``.
"""

from __future__ import annotations

import json
import sys

from run import HERE, Worker

SEEDS = (1, 2)


def main() -> int:
    golden = {}
    for workload in ("registry-check", "set-bridge", "represent-reload"):
        seen = []
        for seed in SEEDS:
            res = Worker(workload, seed)("--no-golden")
            if res["errors"]:
                print(f"{workload} seed {seed}: {res['errors']}", file=sys.stderr)
                return 1
            seen.append(res["digests"])
        if any(d != seen[0] for d in seen):
            print(f"{workload}: digests depend on the seed", file=sys.stderr)
            return 1
        golden[workload] = dict(sorted(seen[0].items()))
        print(f"{workload}: {len(golden[workload])} operations")
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
