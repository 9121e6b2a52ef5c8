"""Benchmark for overhang: one closed-loop client, one op at a time.

Run one workload (what BENCHMARK.json names)::

    python3 perfbench/run.py --workload shard --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The lines above it list every metric by
name and unit, including each workload's own per-layer metrics and scaling
series, and the raw wall-clock figures; the same goes to ``perfbench/out/``.

Run every workload, untraced and traced, and print one table::

    python3 perfbench/run.py --all --seed 1 --seconds 20 [--record FILE]

Self-tests of the benchmark (planted faults, seed determinism)::

    python3 perfbench/selftest.py

How a run measures:

- Every process of a run is pinned to one CPU, and op times are scaled to a
  reference machine speed sampled around and during each op (see
  ``harness.SpeedProbe``); without this, speed swings of a shared machine
  moved the figures by 10-20% from run to run on a 2-vCPU virtual machine.
- ``setup_s`` is the median over three fresh worker processes of the time
  from process start to the first timed op: two that only set up, then the
  worker that measures.
- ``ops_per_s`` is the median over decks of passed ops per second of op
  time; ``op_ms.p50`` and ``op_ms.p90`` are over all attempted ops.
- ``ok_ratio`` is passed / attempted; the table prints ``failed_ratio``, one
  minus it, which BENCHMARK.json cannot hold because it is 0 on most
  workloads.
- ``failed`` counts every failed op. ``correct`` is false when any op fails
  other than by a known defect of the program that its workload names.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

WORKLOADS = ("cli", "shard", "replay", "analysis")
SETUP_SAMPLES = 3
END_TO_END = {  # name -> unit, in BENCHMARK.json order
    "setup_s": "s", "ops_per_s": "1/s", "op_ms.p50": "ms", "op_ms.p90": "ms",
    "ok_ratio": "ratio", "peak_rss_mb": "MB",
}
PER_LAYER = {  # reported by every traced run
    "bench.ops_attempted": "count", "bench.self_ms": "ms", "trace.overhead_ratio": "ratio",
    "trace.spans": "count", "cli.interpreter_ms": "ms", "cli.import.overhang_cli_ms": "ms",
    "cli.import.numpy_ms": "ms", "mechanisms.split.calls": "count",
    "mechanisms.reconstruct.calls": "count", "mechanisms.byte_shares": "count",
    "schedule.tranches": "count", "mechanisms.events": "count",
    "frontier.nonfinite_points": "count",
}
WORKER_TIMEOUT_S = 170


# ---------------------------------------------------------------------------
# Worker: one fresh process that sets up and, unless --setup-only, measures.

def worker(args: argparse.Namespace) -> int:
    wl = __import__(f"wl_{args.workload}")
    state, first_deck = harness.setup(wl, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    tracer = harness.Tracer(bool(args.trace))
    seconds = args.seconds

    def keep_going(decks: int, ops: int, elapsed: float) -> bool:
        return elapsed < seconds or ops < harness.MIN_OPS

    run = harness.run_decks(wl, args.seed, tracer, state, first_deck, keep_going)
    result = harness.summarize(wl, run, tracer, children_rss=args.workload == "cli")
    if tracer.enabled:
        result["spans_file"] = str(harness.write_spans(tracer, args.workload, args.seed))
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# Parent: set-up samples, the measuring worker and the probes.

def _worker_cmd(args: argparse.Namespace, setup_only: bool) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd + (["--setup-only"] if setup_only else [])


def _spawn(cmd: list[str]) -> tuple[float, float, str]:
    """Start a worker; return its set-up time in seconds, raw and at reference
    speed (sampled just before the start and just after READY), and the rest
    of its stdout."""
    probe = harness.SpeedProbe(harness.gf_reference, sample_inside=False)
    samples = [probe.sample()]
    start = time.perf_counter_ns()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=harness.ROOT)
    try:
        first = proc.stdout.readline()
        ready = (time.perf_counter_ns() - start) / 1e9
        samples.append(probe.sample())
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    slowdown = sum(samples) / len(samples) / harness.REFERENCE_NS
    with proc:
        try:
            rest = proc.stdout.read()
            proc.wait(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if first.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {' '.join(cmd[2:])}")
    return ready, ready / slowdown, rest


def _probe_ms(argv: list[str], samples: int = 5) -> float:
    """Median wall time of a fresh interpreter running argv."""
    env = dict(os.environ, PYTHONPATH=str(harness.SRC))
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=env, cwd=harness.ROOT, check=True,
                       capture_output=True)
        times.append((time.perf_counter() - start) * 1e3)
    return harness.median(times)


def _import_ms(samples: int = 3) -> dict[str, float]:
    """Cumulative ``-X importtime`` of overhang.cli and numpy, in ms (median)."""
    env = dict(os.environ, PYTHONPATH=str(harness.SRC))
    found: dict[str, list[float]] = {"overhang.cli": [], "numpy": []}
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import overhang.cli"],
                              env=env, cwd=harness.ROOT, check=True, capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) / 1e3)
    return {name: harness.median(values) for name, values in found.items()}


def measure(args: argparse.Namespace) -> dict:
    """One benchmark run: set-up samples, then the measuring worker."""
    setups = [_spawn(_worker_cmd(args, setup_only=True))[:2] for _ in range(SETUP_SAMPLES - 1)]
    raw, scaled, rest = _spawn(_worker_cmd(args, setup_only=False))
    setups.append((raw, scaled))
    result = json.loads(rest.strip().splitlines()[-1])
    result["metrics"] = {"setup_s": harness.median([s for _, s in setups]), **result["metrics"]}
    result["raw"]["setup_s"] = harness.median([r for r, _ in setups])
    if args.trace:
        imports = _import_ms()
        result["layers"].update({
            "cli.interpreter_ms": _probe_ms(["-c", "pass"]),
            "cli.import.overhang_cli_ms": imports["overhang.cli"],
            "cli.import.numpy_ms": imports["numpy"],
        })
    return result


def result_line(result: dict, trace: int) -> dict:
    if trace:
        values = {name: (result["layers"].get(name, 0), unit) for name, unit in PER_LAYER.items()}
    else:
        values = {name: (result["metrics"][name], unit) for name, unit in END_TO_END.items()}
    return {
        "correct": result["failed_unexpected"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }


def _unit(name: str) -> str:
    base = name.removeprefix("raw.")
    if base in END_TO_END or base in PER_LAYER:
        return {**END_TO_END, **PER_LAYER}[base]
    if "ops_per_s" in base:
        return "1/s"
    if ".us" in base:
        return "us"
    if "_ms" in base or base.endswith(".ms"):
        return "ms"
    if "ratio" in base or "slowdown" in base or base.startswith("trace."):
        return "ratio"
    return "count"


def report(result: dict, workload: str, seed: int, trace: int) -> list[str]:
    lines = [f"workload={workload} seed={seed} trace={trace} attempted={result['attempted']} "
             f"failed={result['failed']} (unexpected {result['failed_unexpected']}) "
             f"decks={result['decks']}"]
    for reason, count in sorted(result["failures"].items()):
        lines.append(f"  failure x{count}: {reason}")
    lines.append(f"  digests: inputs {result['input_digest'][:16]} "
                 f"outputs {result['output_digest'][:16]}")
    metrics = dict(result["metrics"], failed_ratio=result["failed_ratio"],
                   **{f"raw.{name}": value for name, value in result["raw"].items()},
                   **dict(sorted(result.get("layers", {}).items())))
    for name, value in metrics.items():
        lines.append(f"  {name:<64} {value:>14.6g} {_unit(name)}")
    for name, points in sorted(result.get("series", {}).items()):
        lines.append(f"  series {name}: " + ", ".join(f"{x}: {y:.4g}" for x, y in points))
    return lines


def save(result: dict, workload: str, seed: int, trace: int) -> None:
    harness.OUT.mkdir(exist_ok=True)
    path = harness.OUT / f"report-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run_all(args: argparse.Namespace) -> int:
    """Every workload untraced and traced; a table of the end-to-end metrics."""
    rows, record = [], {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            one = argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace})
            results[trace] = measure(one)
            save(results[trace], workload, args.seed, trace)
            print("\n".join(report(results[trace], workload, args.seed, trace)), flush=True)
        plain, traced = results[0], results[1]
        traced["layers"]["trace.measured_overhead_ratio"] = (
            plain["metrics"]["ops_per_s"] / traced["metrics"]["ops_per_s"] - 1)
        record["workloads"][workload] = {"untraced": plain, "traced": traced}
        rows.append((workload, plain))
    header = ["workload", "setup_s (s)", "ops_per_s (1/s)", "op_ms.p50 (ms)", "op_ms.p90 (ms)",
              "failed_ratio", "peak_rss_mb (MB)", "ops"]
    print("\n" + "  ".join(f"{h:>16}" for h in header))
    for workload, r in rows:
        m = r["metrics"]
        cells = [workload, m["setup_s"], m["ops_per_s"], m["op_ms.p50"], m["op_ms.p90"],
                 r["failed_ratio"], m["peak_rss_mb"], r["attempted"]]
        print("  ".join(f"{c:>16.4g}" if isinstance(c, float) else f"{c:>16}" for c in cells))
    if args.record:
        src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                        for p in sorted((harness.SRC / "overhang").glob("*.py")))
        record.update({"src.lines": src_lines, "python": platform.python_version(),
                       "machine": f"{platform.machine()}, {os.cpu_count()} CPUs"})
        for entry in record["workloads"].values():
            for result in entry.values():
                result.pop("spans_file", None)
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="with --all, write every result to this JSON file")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (harness.SRC / "overhang" / "__init__.py").is_file():
        print(f"error: no program source at {harness.SRC / 'overhang'}", file=sys.stderr)
        return 2
    # One CPU for the workers and the processes they start: the speed probe
    # then samples the CPU the ops run on, and no op waits on another CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.worker:
        return worker(args)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    result = measure(args)
    save(result, args.workload, args.seed, args.trace)
    print("\n".join(report(result, args.workload, args.seed, args.trace)))
    print(json.dumps(result_line(result, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
