"""Shared pytest configuration.

Keeps the tests directory importable (for the oracles module) and pins
hypothesis to a profile that plays well with a bounded suite runtime.
"""

import os
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


@pytest.fixture
def tape_ops(monkeypatch):
    """A list of the numpy calls tape runs make from now on, one entry per
    operation evaluated (a trapped step's recomputation is not counted)."""
    import liesym.expr as ex

    calls = []
    for key, fn in list(ex._TAPE_FNS.items()):
        def counted(*operands, fn=fn):
            if np.geterr()["over"] == "raise":
                calls.append(fn)
            return fn(*operands)
        monkeypatch.setitem(ex._TAPE_FNS, key, counted)
    return calls


def pytest_terminal_summary(terminalreporter):
    """One PASS/FAIL line per acceptance criterion, printed uncaptured at the
    end of the run (see tests/test_acceptance.py)."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(RESULTS):
        ok, text = RESULTS[num]
        terminalreporter.write_line(
            f"[{num:2d}] {'PASS' if ok else 'FAIL'}  {text}")
