"""The benchmark's own op checks over one deck of each workload, untimed.

A change to the program that breaks a check of perfbench/ fails here, in the
test suite, and not first in a timed run. Every CheckFailed fails the test,
one the workload marks as a known defect too. The test imports the
workloads from perfbench/ and writes nothing there, not even bytecode; the
cli workload's ops run as its own `python -m overhang` subprocesses.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["analysis", "replay", "shard", "cli"])
def test_one_deck_passes_every_check_of_the_workload(workload, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in perfbench/
    monkeypatch.syspath_prepend(str(PERFBENCH))
    harness = importlib.import_module("harness")
    wl = importlib.import_module(f"wl_{workload}")
    state = wl.setup(1)
    ops = wl.deck(1, 0, state)
    assert ops
    for op in ops:
        wl.check(op, wl.run(op, state, harness.Tracer(False)), state)
