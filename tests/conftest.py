"""Test-session setup.  ``pythonpath`` in pyproject.toml puts ``src`` on
the path of the test process; the command-line tests start
``python -m closedcat.cli`` in subprocesses, which need it on
PYTHONPATH as well.  ``bench_worker`` is the benchmark's own worker
module, for tests that run its operations."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture
def bench_worker():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = worker  # its dataclasses resolve through it
    spec.loader.exec_module(worker)
    return worker
