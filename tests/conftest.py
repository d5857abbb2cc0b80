"""Test-session setup.  ``pythonpath`` in pyproject.toml puts ``src`` on
the path of the test process; the command-line tests start
``python -m closedcat.cli`` in subprocesses, which need it on
PYTHONPATH as well.  ``perfbench_module`` loads a module of the benchmark,
and ``bench_worker`` is its worker, for tests that run its operations."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


def _load_perfbench(name: str):
    """``perfbench/<name>.py``, loaded as the module ``perfbench_<name>``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses resolve through it
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def perfbench_module():
    return _load_perfbench


@pytest.fixture
def bench_worker():
    return _load_perfbench("worker")
