"""Test-session setup.  ``pythonpath`` in pyproject.toml puts ``src`` on
the path of the test process; the command-line tests start
``python -m closedcat.cli`` in subprocesses, which need it on
PYTHONPATH as well."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
