"""``cli``: one fresh ``python -m overhang ...`` process per op.

The deck runs each of the ten subcommand forms once at default-sized inputs:
``impact --table``, ``scenario A|B|C``, ``scenario sweep``, ``schedule
--tranches-per-year``, ``frontier`` with up to three lambdas at 10 periods,
``decision-map``, ``mechanism simulate``, ``mechanism split`` with k <= 3,
``mechanism reconstruct`` of shares made during set-up, and ``anchors``.
Interpreter start and ``import overhang`` dominate each op, so import and
start-up changes move this workload and compute-layer changes should not.

The seed draws each form's arguments, ``--json`` on the forms that take it,
and the order. Warm-up runs the first deck's argv once per form; the timed
run of the same argv must print byte-identical stdout.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys

from harness import ROOT, SRC, gf_reference, import_program, median, require

FORMS = ("impact", "scenario", "sweep", "schedule", "frontier", "decision-map",
         "simulate", "split", "reconstruct", "anchors")
JSON_FORMS = {"impact", "scenario", "sweep", "schedule", "frontier", "decision-map", "anchors"}
SHARE_SETS = 16
NONFINITE = re.compile(rb"(?i)(?<![a-z])[-+]?(nan|inf|infinity)(?![a-z])")
TIMEOUT_S = 60

IN_PROCESS = False  # ops run in child processes
# Process start-up tracks no in-process loop closely; GF(256) bits will do.
reference = gf_reference


def setup(seed: int) -> dict:
    import_program()
    from overhang import mechanisms

    rng = random.Random(f"cli/{seed}/shares")
    share_sets = []
    for _ in range(SHARE_SETS):
        secret = rng.randbytes(rng.randint(16, 32))
        k = rng.randint(1, 3)
        shares = mechanisms.split(secret, k, rng.randint(k, 6), random.Random(rng.getrandbits(32)))
        share_sets.append((secret.hex(), k, [share.serialize() for share in shares]))
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONPATH", "OVERHANG_SEED")}
    env["PYTHONPATH"] = str(SRC)
    return {"env": env, "share_sets": share_sets, "warm_stdout": {}}


def _argv(rng: random.Random, form: str, state: dict) -> tuple[list[str], dict]:
    expect: dict = {}
    if form == "impact":
        argv = ["impact", "--table", "--share", f"{rng.uniform(0.03, 0.12):.4f}",
                "--quality", rng.choice(["disciplined-otc", "mixed", "public-venue"])]
    elif form == "scenario":
        argv = ["scenario", rng.choice("ABC")]
    elif form == "sweep":
        argv = ["scenario", "sweep"]
    elif form == "schedule":
        argv = ["schedule", "--tranches-per-year", str(rng.choice([1, 4, 12, 52])),
                "--horizon", str(rng.randint(5, 12))]
    elif form == "frontier":
        lambdas = sorted(10 ** rng.uniform(-8, -2) for _ in range(rng.randint(1, 3)))
        argv = ["frontier", "--lambdas", ",".join(f"{v:.3g}" for v in lambdas), "--periods", "10"]
    elif form == "decision-map":
        argv = ["decision-map"] + (["--retention-variant"] if rng.random() < 0.5 else [])
    elif form == "simulate":
        terminal = rng.choice(["dormancy", "burn", "adversarial", "liquidation"])
        interval = rng.randint(1, 365)
        argv = ["mechanism", "simulate", "--terminal", terminal, "--interval", str(interval),
                "--grace", str(rng.randint(1, min(12, 3650 // interval)))]
        if terminal == "burn":
            argv += ["--retention", f"{rng.uniform(0, 0.05):.4f}"]
        if terminal == "liquidation":
            argv += ["--tranches-per-year", str(rng.choice([1, 4, 12]))]
    elif form == "split":
        k = rng.randint(1, 3)
        n = rng.randint(k, 6)
        argv = ["mechanism", "split", "--secret-hex", rng.randbytes(rng.randint(16, 32)).hex(),
                "-k", str(k), "-n", str(n)]
        expect = {"shares": n}
    elif form == "reconstruct":
        secret, k, lines = rng.choice(state["share_sets"])
        argv = ["mechanism", "reconstruct", "-k", str(k), *rng.sample(lines, k)]
        expect = {"secret": secret}
    else:
        argv = ["anchors"]
    if form in JSON_FORMS and rng.random() < 0.5:
        argv.append("--json")
    return ["--seed", str(rng.randrange(10**6)), *argv], expect


def deck(seed: int, index: int, state: dict) -> list[dict]:
    rng = random.Random(f"cli/{seed}/{index}")
    ops = []
    for form in FORMS:
        argv, expect = _argv(rng, form, state)
        ops.append({"form": form, "argv": argv, "expect": expect})
    rng.shuffle(ops)
    return ops


def warmup(seed: int, state: dict, first_deck: list) -> list[dict]:
    return [dict(op, warmup=True) for op in first_deck]


def run(op: dict, state: dict, tracer) -> subprocess.CompletedProcess:
    with tracer.span(f"cli.{op['form']}"):
        return subprocess.run([sys.executable, "-m", "overhang", *op["argv"]], cwd=ROOT,
                              env=state["env"], capture_output=True, timeout=TIMEOUT_S)


def _json_prefix(text: str) -> tuple[list, str]:
    """The JSON documents printed one after another, and the text after them."""
    decoder, docs, pos = json.JSONDecoder(), [], 0
    while True:
        rest = text[pos:].lstrip()
        try:
            doc, end = decoder.raw_decode(rest)
        except json.JSONDecodeError:
            return docs, rest
        docs.append(doc)
        pos = len(text) - len(rest) + end


def check(op: dict, proc: subprocess.CompletedProcess, state: dict) -> None:
    require(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr.decode()[-200:]}")
    require(b"Traceback" not in proc.stderr, "traceback on stderr")
    require(NONFINITE.search(proc.stdout) is None, "nan or inf in stdout")
    key = tuple(op["argv"])
    if op.get("warmup"):
        state["warm_stdout"][key] = proc.stdout
    elif key in state["warm_stdout"]:
        require(proc.stdout == state["warm_stdout"][key], "stdout differs between two invocations")
    text = proc.stdout.decode()
    if "--json" in op["argv"]:
        docs, rest = _json_prefix(text)
        require(docs and (not rest or rest.startswith("holdings: ") and rest.count("\n") == 1),
                "--json output does not parse")
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    expect = op["expect"]
    if "secret" in expect:
        require(lines == [expect["secret"]], "reconstructed secret differs from the original")
    if "shares" in expect:
        require(len(lines) == expect["shares"]
                and all(re.fullmatch(r"\d+:[0-9a-f]+", line) for line in lines),
                "split did not print n index:hex lines")


def digest(op: dict, proc: subprocess.CompletedProcess) -> bytes:
    return proc.stdout


def counts(op: dict, proc: subprocess.CompletedProcess) -> dict:
    return {}


def layers(records: list[dict], by_op: list[dict]) -> tuple[dict, dict]:
    out = {}
    for form in FORMS:
        values = [r["ns"] / 1e6 for r in records if r["form"] == form]
        if values:
            out[f"cli.{form}.ms"] = median(values)
    return out, {}
