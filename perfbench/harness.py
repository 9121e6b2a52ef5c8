"""Closed-loop measurement core shared by every workload.

A worker process runs one workload with one client: it sets up (imports the
program from the checkout's ``src``, generates the first deck of inputs and
runs one untimed warm-up op of each form), prints ``READY``, then runs whole
decks of ops back to back, one op at a time, until the run time has passed
and at least ``MIN_OPS`` ops were attempted.

A deck is a fixed list of op shapes; the seed draws the contents (secrets,
positions, configs, argv values) and the order. Whole decks keep the share of
each op shape the same in every run, so throughput and percentiles do not
depend on where the clock stopped.

On a shared 2-vCPU virtual machine the CPU speed was measured to swing by up
to 2x within seconds, so each op's wall time is scaled by the machine speed
measured around and during it with a fixed reference loop (``SpeedProbe``).
Times in the metrics are at the speed where that loop takes ``REFERENCE_NS``;
raw wall times are reported beside them.

Each op's output is checked by the workload. A failed check or an exception
counts the op as failed; a failure the workload recognises as a documented
defect of the program is counted too, but marked ``known``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

MIN_OPS = 100  # so that p90 has at least ten samples beyond it
HARD_CAP_S = 120  # stop starting ops after this, whatever the op count
REFERENCE_ROUNDS = 250
REFERENCE_NS = 300_000  # the reference loop's time at reference speed
SAMPLE_INTERVAL_S = 0.025


class CheckFailed(Exception):
    """An op's output broke one of the workload's checks."""

    def __init__(self, reason: str, known: bool = False):
        super().__init__(reason)
        self.reason = reason
        self.known = known


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def import_program() -> None:
    """Import ``overhang`` from the checkout, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import overhang

    origin = Path(overhang.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"overhang imported from {origin}, not from {SRC}")


# ---------------------------------------------------------------------------
# Spans

class Tracer:
    """In-memory spans ``[name, start_ns, end_ns, op_id, parent_index]``.

    Disabled tracers hand out one shared no-op context, so untraced runs pay
    only a method call per library call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter_ns(), 0, t.op_id, parent])
        t._stack.append(self.index)

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter_ns()
        t._stack.pop()
        return False


_NO_SPAN = contextlib.nullcontext()


def self_ns_by_op(spans: list[list], n_ops: int) -> list[dict[str, int]]:
    """Per op, span name -> summed self time (span minus its child spans)."""
    child = [0] * len(spans)
    for _, start, end, _, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    by_op: list[dict[str, int]] = [{} for _ in range(n_ops)]
    for i, (name, start, end, op_id, _) in enumerate(spans):
        if 0 <= op_id < n_ops:
            slot = by_op[op_id]
            slot[name] = slot.get(name, 0) + (end - start - child[i])
    return by_op


def span_cost_ns(samples: int = 20000) -> float:
    """Measured cost of recording one nested span."""
    tracer = Tracer(True)
    start = time.perf_counter_ns()
    for _ in range(samples // 2):
        with tracer.span("calibrate"):
            with tracer.span("calibrate"):
                pass
    return (time.perf_counter_ns() - start) / samples


def gf_reference() -> int:
    """Bit-serial GF(256) products, small tuples and dict stores."""
    table: dict[int, tuple] = {}
    acc = 1
    for i in range(REFERENCE_ROUNDS):
        a, b = acc & 0xFF, i & 0xFF
        product = 0
        while b:
            if b & 1:
                product ^= a
            a = (a << 1) ^ (0x11B if a & 0x80 else 0)
            b >>= 1
        table[acc & 4095] = (i, product, str(acc))
        acc = (acc * 31 + product + len(table)) & 0xFFFF
    return acc


class SpeedProbe:
    """Machine speed while ops run, sampled with a fixed reference loop.

    The loop, benchmark code that takes about ``REFERENCE_NS`` at full speed,
    runs right before and right after each op and, from an interval timer,
    every ``SAMPLE_INTERVAL_S`` inside it. An op's slowdown is the mean of
    those samples over ``REFERENCE_NS``. Samples inside an in-process op add
    about 1% to its time, the same share on every run. Each workload picks a
    loop that slows down like its own ops do when the machine is busy. An op
    that runs in a child process is sampled only before and after: a sample
    taken while it runs would measure the other CPU.
    """

    def __init__(self, reference, sample_inside: bool = True):
        self.reference = reference
        self.sample_inside = sample_inside
        self.inside: list[int] = []
        self._previous = None

    def sample(self) -> int:
        start = time.perf_counter_ns()
        self.reference()
        return time.perf_counter_ns() - start

    def _on_timer(self, signum, frame) -> None:
        self.inside.append(self.sample())

    def __enter__(self) -> "SpeedProbe":
        if self.sample_inside:
            self._previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.sample_inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)


# ---------------------------------------------------------------------------
# Statistics

def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (the 'inclusive' method)."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


def deck_rate(records: list[dict], key: str) -> float:
    """Median over decks of passed ops per second of op time (``key`` in ns)."""
    decks: dict[int, list] = {}
    for r in records:
        acc = decks.setdefault(r["deck"], [0, 0])
        acc[0] += r["reason"] is None
        acc[1] += r[key]
    return median([passed / (ns / 1e9) for passed, ns in decks.values()])


# ---------------------------------------------------------------------------
# The loop

def run_decks(wl, seed: int, tracer: Tracer, state: dict, first_deck: list,
              keep_going) -> dict:
    """Run whole decks while ``keep_going(decks_done, ops_done, elapsed_s)``.

    Returns the op records, digests and the benchmark's own time.
    """
    records: list[dict] = []
    inputs = hashlib.sha256()
    outputs = hashlib.sha256()
    self_ns = 0
    deck, d = first_deck, 0
    t0 = time.perf_counter_ns()
    cap = t0 + HARD_CAP_S * 10**9
    with SpeedProbe(wl.reference, sample_inside=wl.IN_PROCESS) as probe:
        while True:
            for op in deck:
                tracer.op_id = len(records)
                c = time.perf_counter_ns()
                before = probe.sample()
                with tracer.span("op"):
                    k = len(probe.inside)
                    a = time.perf_counter_ns()
                    try:
                        out = wl.run(op, state, tracer)
                        error = None
                    except Exception as exc:  # a crash is a failed op, not a failed run
                        out, error = None, f"raised {type(exc).__name__}: {exc}"
                    b = time.perf_counter_ns()
                    inside = probe.inside[k:]
                samples = [before, probe.sample(), *inside]
                slowdown = sum(samples) / len(samples) / REFERENCE_NS
                raw_ns = b - a
                with tracer.span("bench.check"):
                    reason, known = error, False
                    if error is None:
                        try:
                            wl.check(op, out, state)
                        except CheckFailed as fail:
                            reason, known = fail.reason, fail.known
                        except Exception as exc:
                            reason = f"check raised {type(exc).__name__}: {exc}"
                    inputs.update(repr(op).encode())
                    outputs.update(wl.digest(op, out) if error is None else b"error")
                records.append({"form": op["form"], "deck": d, "ns": raw_ns / slowdown, "raw_ns": raw_ns,
                                "slowdown": slowdown, "reason": reason, "known": known,
                                "counts": wl.counts(op, out) if error is None else {}})
                self_ns += time.perf_counter_ns() - c - raw_ns
                if time.perf_counter_ns() > cap:
                    break
            d += 1
            now = time.perf_counter_ns()
            if now > cap or not keep_going(d, len(records), (now - t0) / 1e9):
                break
            with tracer.span("bench.generate"):
                g = time.perf_counter_ns()
                deck = wl.deck(seed, d, state)
                self_ns += time.perf_counter_ns() - g
    return {
        "records": records,
        "wall_ns": time.perf_counter_ns() - t0,
        "decks": d,
        "self_ns": self_ns,
        "input_digest": inputs.hexdigest(),
        "output_digest": outputs.hexdigest(),
    }


def setup(wl, seed: int) -> tuple[dict, list]:
    """Import, generate the first deck and warm up each op form once."""
    state = wl.setup(seed)
    first_deck = wl.deck(seed, 0, state)
    quiet = Tracer(False)
    for op in wl.warmup(seed, state, first_deck):
        try:
            wl.check(op, wl.run(op, state, quiet), state)
        except Exception:  # warm-up is untimed and uncounted; timed ops report failures
            pass
    return state, first_deck


def summarize(wl, run: dict, tracer: Tracer, children_rss: bool) -> dict:
    """End-to-end metrics, failure counts and (when traced) per-layer metrics."""
    records = run["records"]
    failed = [r for r in records if r["reason"] is not None]
    passed = len(records) - len(failed)
    op_ms = [r["ns"] / 1e6 for r in records]
    raw_ms = [r["raw_ns"] / 1e6 for r in records]
    who = resource.RUSAGE_CHILDREN if children_rss else resource.RUSAGE_SELF
    reasons: dict[str, int] = {}
    for r in failed:
        key = ("known: " if r["known"] else "") + r["reason"].splitlines()[0][:160]
        reasons[key] = reasons.get(key, 0) + 1
    result = {
        "attempted": len(records),
        "failed": len(failed),
        "failed_unexpected": sum(1 for r in failed if not r["known"]),
        "failures": reasons,
        "decks": run["decks"],
        "input_digest": run["input_digest"],
        "output_digest": run["output_digest"],
        "metrics": {
            "ops_per_s": deck_rate(records, "ns"),
            "op_ms.p50": quantile(op_ms, 0.5),
            "op_ms.p90": quantile(op_ms, 0.9),
            "ok_ratio": passed / len(records),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        },
        "failed_ratio": len(failed) / len(records),
        "raw": {
            "ops_per_s": deck_rate(records, "raw_ns"),
            "wall_ops_per_s": passed / (run["wall_ns"] / 1e9),
            "op_ms.p50": quantile(raw_ms, 0.5),
            "op_ms.p90": quantile(raw_ms, 0.9),
            "slowdown.p10": quantile([r["slowdown"] for r in records], 0.1),
            "slowdown.p50": quantile([r["slowdown"] for r in records], 0.5),
            "slowdown.p90": quantile([r["slowdown"] for r in records], 0.9),
        },
    }
    if tracer.enabled:
        by_op = self_ns_by_op(tracer.spans, len(records))
        for slot, record in zip(by_op, records):
            for name in slot:
                slot[name] /= record["slowdown"]
        layers, series = wl.layers(records, by_op)
        span_ns = span_cost_ns()
        layers.update({
            "bench.ops_attempted": len(records),
            "bench.self_ms": run["self_ns"] / 1e6,
            "trace.spans": len(tracer.spans),
            "trace.overhead_ratio": len(tracer.spans) * span_ns / run["wall_ns"],
        })
        result["layers"] = layers
        result["series"] = series
    return result


def write_spans(tracer: Tracer, workload: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start_ns", "end_ns", "op_id", "parent"],
                   "spans": tracer.spans}, handle)
    return path


def layer_p50_us(by_op: list[dict], name: str) -> float:
    """Median self time of one span name over the ops that called it, in us."""
    values = [slot[name] / 1e3 for slot in by_op if name in slot]
    return median(values) if values else 0.0
