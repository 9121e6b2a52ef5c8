"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

- Planted faults: a flipped share byte (``shard``), a dropped release
  (``replay``) and a NaN frontier cost (``analysis``) must each fail their
  check and count in ``failed_ratio`` as unexpected failures, which make the
  run's ``correct`` false.
- Without faults no op fails, except the ``analysis`` sessions at 200
  periods, which fail as the known sinh-overflow defect.
- Determinism: the same seed gives identical input and output digests; a
  second seed gives different inputs. For ``cli`` this also runs every form
  twice with the same argv, and the op check requires identical stdout.
- In a directory holding only BENCHMARK.json and the benchmark, a run exits
  non-zero without printing a result.

It runs a few decks per workload, not timed runs, and takes about a minute.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import wl_analysis  # noqa: E402
import wl_cli  # noqa: E402
import wl_replay  # noqa: E402
import wl_shard  # noqa: E402

SEED, OTHER_SEED = 1, 90210


def run_decks(wl, seed: int, decks: int, patch=None) -> dict:
    """Run whole decks untimed; ``patch(state)`` may swap a program function."""
    state, first = harness.setup(wl, seed)
    restore = patch(state) if patch else None
    try:
        run = harness.run_decks(wl, seed, harness.Tracer(False), state, first,
                                lambda done, ops, elapsed: done < decks)
    finally:
        if restore:
            restore()
    return harness.summarize(wl, run, harness.Tracer(False), children_rss=False)


def swap(obj, name: str, make):
    """Replace ``obj.name`` by ``make(original)``; return the undo."""
    original = vars(obj)[name]
    setattr(obj, name, make(original))
    return lambda: setattr(obj, name, original)


def flip_share_byte(state):
    share_cls = state["mechanisms"].Share
    original = share_cls.deserialize.__func__

    def deserialize(cls, line):
        share = original(cls, line)
        if share.index != 1:
            return share
        payload = bytes([share.payload[0] ^ 0x01]) + share.payload[1:]
        return cls(index=share.index, payload=payload)

    return swap(share_cls, "deserialize", lambda _: classmethod(deserialize))


def drop_release(state):
    def make(simulate):
        def wrapped(*args, **kwargs):
            events = simulate(*args, **kwargs)
            releases = [i for i, e in enumerate(events) if e.kind == "release"]
            return [e for i, e in enumerate(events) if i != releases[0]] if releases else events
        return wrapped
    return swap(state["mechanisms"], "simulate_disposition", make)


def nan_cost(state):
    def make(frontier):
        def wrapped(model, lambdas):
            points = frontier(model, lambdas)
            return [dataclasses.replace(points[0], expected_cost=math.nan)] + points[1:]
        return wrapped
    return swap(state["frontier"], "frontier", make)


def expect(ok: bool, what: str, failures: list[str]) -> None:
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def test_planted_faults(failures: list[str]) -> None:
    cases = [
        (wl_shard, flip_share_byte, lambda op: True, "flipped share byte"),
        (wl_replay, drop_release, lambda op: op["form"] == "liquidation", "dropped release"),
        (wl_analysis, nan_cost, lambda op: True, "NaN frontier cost"),
    ]
    for wl, patch, hit, what in cases:
        result = run_decks(wl, SEED, 1, patch)
        hits = sum(1 for op in wl.deck(SEED, 0, {}) if hit(op))
        expect(result["failed_unexpected"] == hits and result["failed_ratio"] > 0,
               f"{wl.__name__}: {what} fails {hits} ops as unexpected failures "
               f"(got {result['failed_unexpected']}, failed_ratio {result['failed_ratio']:.3f})",
               failures)


def test_clean_runs(failures: list[str]) -> None:
    for wl in (wl_shard, wl_replay, wl_analysis):
        result = run_decks(wl, SEED, 2)
        known = result["failed"] - result["failed_unexpected"]
        if wl is wl_analysis:
            ok = result["failed_unexpected"] == 0 and known == result["attempted"] // 3 > 0
        else:
            ok = result["failed"] == 0
        expect(ok, f"{wl.__name__}: clean run fails {result['failed']} of {result['attempted']} "
               f"({known} known)", failures)


def test_determinism(failures: list[str]) -> None:
    for wl, decks in ((wl_shard, 2), (wl_replay, 2), (wl_analysis, 2), (wl_cli, 1)):
        a, b = run_decks(wl, SEED, decks), run_decks(wl, SEED, decks)
        c = run_decks(wl, OTHER_SEED, decks)
        same = (a["input_digest"], a["output_digest"]) == (b["input_digest"], b["output_digest"])
        expect(same and a["failed_unexpected"] == 0,
               f"{wl.__name__}: seed {SEED} twice gives identical inputs and outputs", failures)
        expect(c["input_digest"] != a["input_digest"] and c["output_digest"] != a["output_digest"],
               f"{wl.__name__}: seed {OTHER_SEED} gives different inputs", failures)


def test_bare_directory(failures: list[str]) -> None:
    bare = harness.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "shard", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"bare directory: exit {proc.returncode}, no result printed", failures)


def main() -> int:
    failures: list[str] = []
    test_planted_faults(failures)
    test_clean_runs(failures)
    test_determinism(failures)
    test_bare_directory(failures)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
