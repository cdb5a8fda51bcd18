import os
import sys

import pytest

# Make the shared grid checkers importable regardless of invocation directory.
sys.path.insert(0, os.path.dirname(__file__))

# Child interpreters (python -m cvdisc) import the same ./src as the tests,
# also when pytest alone put it on sys.path (pyproject's pythonpath).
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

from cvdisc import oracle  # noqa: E402


@pytest.fixture(autouse=True)
def _cold_measurement_memo():
    """Start every test with an empty oracle measurement memo, so a test that
    patches the oracle's helpers never reads a measurement built before."""
    oracle._measurement.cache_clear()
