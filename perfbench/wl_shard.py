"""``shard``: Shamir split, share text round trip and reconstruct.

Each op splits a seeded random secret into n shares with threshold k,
writes the shares as the CLI's ``index:hex`` lines, parses them back and
reconstructs from a seeded random k-subset. GF(256) arithmetic does nearly
all the work, so this workload moves with the sharding layer alone.

The deck holds 35 ops of fixed (k, n, length) shapes from three k classes:
26 with k <= 5, 4 with k in 6..16 and 5 with k in 17..40, n up to 2k and
16..64-byte secrets. The seed draws the secret bytes, the polynomial
coefficients, the subset and the order. The shapes are fixed so that every
run does the same work per deck; the 50th and 90th percentiles each fall in
the middle of three ops of one shape, not on a boundary between shapes.
"""

from __future__ import annotations

import random

from harness import gf_reference, import_program, layer_p50_us, require

FORMS = ("k_le5", "k6_16", "k17_40")

IN_PROCESS = True  # ops run in this process, so the speed probe samples inside them
# The speed reference is GF(256) bit arithmetic, like this workload's ops.
reference = gf_reference


# Sixteen shapes cheaper than the median shape, three ops of the median shape
# (so the 50th percentile sits inside one shape's block), seven dearer ones.
SMALL = [
    (2, 2, 16), (2, 3, 28), (3, 4, 16), (2, 4, 40), (2, 4, 24), (3, 6, 28), (2, 2, 52),
    (3, 3, 24), (3, 3, 40), (2, 2, 48), (3, 4, 52), (2, 3, 64), (4, 6, 24), (4, 8, 16),
    (3, 4, 48), (4, 4, 28),
    (4, 6, 40), (4, 6, 40), (4, 6, 40),
    (5, 7, 28), (3, 6, 64), (4, 8, 48), (4, 4, 64), (5, 10, 40), (5, 7, 64), (5, 5, 52),
]
MEDIUM = [(6, 12, 64), (10, 15, 40), (14, 16, 32), (16, 32, 32)]
# Likewise three ops of the 90th-percentile shape, two dearer ones above.
LARGE = [(17, 34, 64)] * 3 + [(28, 40, 32), (40, 80, 16)]
SHAPES = SMALL + MEDIUM + LARGE


def k_class(k: int) -> str:
    return FORMS[0] if k <= 5 else FORMS[1] if k <= 16 else FORMS[2]


def setup(seed: int) -> dict:
    import_program()
    from overhang import mechanisms

    return {"mechanisms": mechanisms}


def _op(rng: random.Random, k: int, n: int, length: int) -> dict:
    return {
        "form": k_class(k),
        "k": k,
        "n": n,
        "secret": rng.randbytes(length),
        "coeff_seed": rng.getrandbits(32),
        "subset": rng.sample(range(n), k),
    }


def deck(seed: int, index: int, state: dict) -> list[dict]:
    rng = random.Random(f"shard/{seed}/{index}")
    ops = [_op(rng, k, n, length) for k, n, length in SHAPES]
    rng.shuffle(ops)
    return ops


def warmup(seed: int, state: dict, first_deck: list) -> list[dict]:
    rng = random.Random(f"shard/{seed}/warmup")
    return [_op(rng, k, k, 16) for k in (2, 6, 17)]


def run(op: dict, state: dict, tracer) -> dict:
    m = state["mechanisms"]
    with tracer.span("mechanisms.split"):
        shares = m.split(op["secret"], op["k"], op["n"], random.Random(op["coeff_seed"]))
    with tracer.span("mechanisms.share_text"):
        lines = [share.serialize() for share in shares]
        parsed = [m.Share.deserialize(line) for line in lines]
    subset = [parsed[i] for i in op["subset"]]
    with tracer.span("mechanisms.reconstruct"):
        secret = m.reconstruct(subset, op["k"])
    return {"shares": shares, "lines": lines, "parsed": parsed, "secret": secret}


def check(op: dict, out: dict, state: dict) -> None:
    length, n = len(op["secret"]), op["n"]
    shares = out["shares"]
    require(len(shares) == n, f"{len(shares)} shares, expected {n}")
    require(sorted(s.index for s in shares) == list(range(1, n + 1)), "share indices not 1..n")
    require(all(len(s.payload) == length for s in shares), "share payload length != secret length")
    require(out["lines"] == [f"{s.index}:{s.payload.hex()}" for s in shares],
            "share text is not index:hex")
    require([(s.index, s.payload) for s in out["parsed"]] == [(s.index, s.payload) for s in shares],
            "text round trip changed the shares")
    require(out["secret"] == op["secret"], "reconstructed secret differs from the original")


def digest(op: dict, out: dict) -> bytes:
    return "\n".join(out["lines"]).encode() + out["secret"]


def counts(op: dict, out: dict) -> dict:
    return {"k": op["k"], "n": op["n"], "length": len(op["secret"])}


def layers(records: list[dict], by_op: list[dict]) -> tuple[dict, dict]:
    work = {form: {"split_ns": 0, "split_bs": 0, "rec_ns": 0, "rec_bs": 0} for form in FORMS}
    per_k: dict[int, list[int]] = {}
    calls = {"split": 0, "reconstruct": 0}
    byte_shares = 0
    for record, slot in zip(records, by_op):
        if not record["counts"]:
            continue
        length, k, n = (record["counts"][key] for key in ("length", "k", "n"))
        w = work[record["form"]]
        if "mechanisms.split" in slot:
            calls["split"] += 1
            w["split_ns"] += slot["mechanisms.split"]
            w["split_bs"] += length * n
            byte_shares += length * n
        if "mechanisms.reconstruct" in slot:
            calls["reconstruct"] += 1
            w["rec_ns"] += slot["mechanisms.reconstruct"]
            w["rec_bs"] += length * k
            acc = per_k.setdefault(k, [0, 0, 0, 0])
            acc[0] += slot["mechanisms.split"]
            acc[1] += length * n
            acc[2] += slot["mechanisms.reconstruct"]
            acc[3] += length * k
    out = {
        "mechanisms.share_text.ms": layer_p50_us(by_op, "mechanisms.share_text") / 1e3,
        "mechanisms.split.calls": calls["split"],
        "mechanisms.reconstruct.calls": calls["reconstruct"],
        "mechanisms.byte_shares": byte_shares,
    }
    for form, w in work.items():
        if w["split_bs"]:
            out[f"mechanisms.split.us_per_byte_share.{form}"] = w["split_ns"] / 1e3 / w["split_bs"]
        if w["rec_bs"]:
            out[f"mechanisms.reconstruct.us_per_byte_share.{form}"] = w["rec_ns"] / 1e3 / w["rec_bs"]
    series = {
        "split_us_per_byte_share_vs_k": [
            [k, acc[0] / 1e3 / acc[1]] for k, acc in sorted(per_k.items())],
        "reconstruct_us_per_byte_share_vs_k": [
            [k, acc[2] / 1e3 / acc[3]] for k, acc in sorted(per_k.items())],
    }
    return out, series
