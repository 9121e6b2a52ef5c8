"""``replay``: disposition replays over the simulated 3,650-epoch clock.

Each op builds a uniform schedule and a tranche program, then calls
``simulate_disposition`` in one of two ways:

- patient liquidation at 1, 4, 12, 52 or 365 tranches a year for 5- to
  12-year programs, which scans every tranche at every epoch;
- dormancy, burn or adversarial-switch replays, which only step the
  dead-man's switch until it triggers. The heartbeat interval and grace are
  drawn so that the trigger falls inside the horizon.

The deck holds 25 ops of fixed shapes: 10 liquidations and 15 switch
replays. The seed draws the position, the first unlock epoch, the interval,
the grace, the burn retention and the order. The 50th percentile falls among
the switch replays, whose time is mostly building the schedule and tranche
program, and the 90th in the middle of three liquidations of one shape.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction

from harness import CheckFailed, import_program, layer_p50_us, require

HORIZON = 3650
EPOCHS_PER_YEAR = 365
SATS_PER_BTC = 10**8
SWITCH_KINDS = ("dormancy", "burn", "adversarial")
# (tranches per year, program years) for the liquidations in one deck.
# The three at 52 a year hold the 90th percentile; 365 a year is the top op.
LIQUIDATIONS = (
    (1, 5), (1, 8), (1, 12),
    (4, 7), (4, 11),
    (12, 6),
    (52, 9), (52, 9), (52, 9),
    (365, 5),
)
SWITCH_REPEATS = 5
SWITCH_PROGRAM = (52, 8)  # the tranche program built before a switch replay

IN_PROCESS = True  # ops run in this process, so the speed probe samples inside them


class _Kind(enum.Enum):
    ABSOLUTE = "absolute"
    RELATIVE = "relative"


@dataclass(frozen=True)
class _Lock:
    kind: _Kind
    value: int


def _spendable(lock: _Lock, now: int, confirmed_at: int = 0) -> bool:
    if now < 0:
        raise ValueError("now must be nonnegative")
    if lock.kind is _Kind.ABSOLUTE:
        return now >= lock.value
    return now - confirmed_at >= lock.value


_LOCKS = tuple((_Lock(_Kind.ABSOLUTE, 3 * i), i) for i in range(48))


def reference() -> int:
    """Speed reference: an epoch-by-tranche timelock scan in benchmark code."""
    released: set[int] = set()
    events = []
    for now in range(28):
        for i, (lock, amount) in enumerate(_LOCKS):
            if i in released:
                continue
            if _spendable(lock, now):
                released.add(i)
                events.append((now, amount / SATS_PER_BTC))
    return len(events)


def setup(seed: int) -> dict:
    import_program()
    from overhang import decisions, mechanisms, schedule

    kinds = {
        "liquidation": decisions.TerminalStateKind.PATIENT_LIQUIDATION,
        "dormancy": decisions.TerminalStateKind.DORMANCY_NON_RECOVERY,
        "burn": decisions.TerminalStateKind.SILENT_BURN,
        "adversarial": decisions.TerminalStateKind.ADVERSARIAL_SWITCH,
    }
    return {"decisions": decisions, "mechanisms": mechanisms, "schedule": schedule,
            "kinds": kinds}


def _op(rng: random.Random, form: str, tpy: int, years: int) -> dict:
    interval = rng.randint(1, 365)
    grace = rng.randint(1, min(12, HORIZON // interval))
    return {
        "form": form,
        "tpy": tpy,
        "years": years,
        "position": round(rng.uniform(1e4, 1.2e6), 8),
        "start": rng.randint(0, 30),
        "interval": interval,
        "grace": grace,
        "retention": round(rng.uniform(0.0, 0.05), 4) if form == "burn" else 0.0,
    }


def deck(seed: int, index: int, state: dict) -> list[dict]:
    rng = random.Random(f"replay/{seed}/{index}")
    ops = [_op(rng, "liquidation", tpy, years) for tpy, years in LIQUIDATIONS]
    ops += [_op(rng, kind, *SWITCH_PROGRAM) for kind in SWITCH_KINDS * SWITCH_REPEATS]
    rng.shuffle(ops)
    return ops


def warmup(seed: int, state: dict, first_deck: list) -> list[dict]:
    rng = random.Random(f"replay/{seed}/warmup")
    return [_op(rng, "liquidation", 4, 5)] + [_op(rng, kind, 1, 5) for kind in SWITCH_KINDS]


def run(op: dict, state: dict, tracer) -> dict:
    s, m = state["schedule"], state["mechanisms"]
    with tracer.span("schedule.build_uniform_schedule"):
        sched = s.build_uniform_schedule(s.ScheduleParams(position=op["position"],
                                                          horizon=op["years"]))
    with tracer.span("schedule.to_tranche_program"):
        program = s.to_tranche_program(sched, granularity=op["tpy"], start=op["start"])
    kind = state["kinds"][op["form"]]
    terminal = state["decisions"].TerminalState(kind=kind, retention_fraction=op["retention"])
    action = m.DmsAction.DESTROY_SHARDS if op["form"] == "dormancy" else m.DmsAction.PUBLISH_SHARDS
    config = m.DmsConfig(heartbeat_interval=op["interval"], grace_missed=op["grace"],
                         action=action)
    name = "liquidation" if op["form"] == "liquidation" else "switch"
    with tracer.span(f"mechanisms.simulate_disposition.{name}"):
        events = m.simulate_disposition(terminal, config, tranche_program=program,
                                        clock_horizon=HORIZON, position_btc=op["position"])
    return {"schedule": sched, "program": program, "events": events}


def _sats(btc: float) -> int:
    return round(btc * SATS_PER_BTC)


def check(op: dict, out: dict, state: dict) -> None:
    position_sats = _sats(op["position"])
    sched, program, events = out["schedule"], out["program"], out["events"]
    require(sched.position_sats == position_sats, "schedule position != position in sats")
    require(sched.annual_btc * Fraction(op["years"]) == Fraction(position_sats, SATS_PER_BTC),
            "annual pace times horizon != position")
    tranches = list(program.tranches)
    count = max(1, round(op["years"] * op["tpy"]))
    require(len(tranches) == count, f"{len(tranches)} tranches, expected {count}")
    require(sum(amount for _, amount in tranches) == position_sats, "tranches do not sum to the position")
    unlocks = [condition.value for condition, _ in tranches]
    spacing = Fraction(EPOCHS_PER_YEAR, op["tpy"])
    require(all(abs(e - op["start"] - i * spacing) <= Fraction(1, 2) for i, e in enumerate(unlocks)),
            "unlock epochs not evenly spaced from the start")
    epochs = [e.epoch for e in events]
    require(epochs == sorted(epochs), "events not sorted by epoch")
    if op["form"] == "liquidation":
        require(all(e.kind == "release" for e in events), "liquidation emitted a non-release event")
        due = [(e, amount) for e, (_, amount) in zip(unlocks, tranches) if e <= HORIZON]
        require(epochs == sorted(e for e, _ in due), "release epochs != unlock epochs within the horizon")
        released = sum(_sats(e.amount_btc) for e in events)
        require(released == sum(amount for _, amount in due), "released sats != sats due")
        if unlocks[-1] <= HORIZON:
            require(released == position_sats, "released sats != position")
        return
    trigger = op["interval"] * op["grace"]
    position = op["position"]
    expected = {
        "dormancy": [("switch-triggered", 0.0), ("shards-destroyed", 0.0), ("unrecoverable", 0.0)],
        "burn": [("switch-triggered", 0.0), ("burn", position * (1.0 - op["retention"]))],
        "adversarial": [("switch-triggered", 0.0), ("dump", position)],
    }[op["form"]]
    got = [(e.kind, e.amount_btc) for e in events]
    if [kind for kind, _ in got] != [kind for kind, _ in expected]:
        raise CheckFailed(f"{op['form']} events {[k for k, _ in got]}")
    require(all(e == trigger for e in epochs), f"switch fired at {epochs}, expected {trigger}")
    require(all(abs(a - b) <= 1e-9 * max(1.0, abs(b)) for (_, a), (_, b) in zip(got, expected)),
            "switch event amount wrong")


def digest(op: dict, out: dict) -> bytes:
    return "\n".join(e.to_json() for e in out["events"]).encode()


def counts(op: dict, out: dict) -> dict:
    return {"tpy": op["tpy"], "events": len(out["events"]), "tranches": len(out["program"].tranches)}


def layers(records: list[dict], by_op: list[dict]) -> tuple[dict, dict]:
    per_tpy: dict[int, list[int]] = {}
    for record, slot in zip(records, by_op):
        ns = slot.get("mechanisms.simulate_disposition.liquidation")
        if ns is not None and record["counts"]:
            acc = per_tpy.setdefault(record["counts"]["tpy"], [0, 0, 0])
            acc[0] += ns
            acc[1] += record["counts"]["tranches"]
            acc[2] += HORIZON + 1
    out = {
        "mechanisms.simulate_disposition.switch.us":
            layer_p50_us(by_op, "mechanisms.simulate_disposition.switch"),
        "schedule.build_uniform_schedule.us": layer_p50_us(by_op, "schedule.build_uniform_schedule"),
        "schedule.to_tranche_program.us": layer_p50_us(by_op, "schedule.to_tranche_program"),
        "schedule.tranches": sum(r["counts"].get("tranches", 0) for r in records),
        "mechanisms.events": sum(r["counts"].get("events", 0) for r in records),
    }
    series = {"liquidation_us_per_tranche_vs_tpy": [], "liquidation_us_per_epoch_vs_tpy": []}
    for tpy, (ns, tranches, epochs) in sorted(per_tpy.items()):
        per_tranche, per_epoch = ns / 1e3 / tranches, ns / 1e3 / epochs
        out[f"mechanisms.simulate_disposition.liquidation.us_per_tranche.tpy{tpy}"] = per_tranche
        out[f"mechanisms.simulate_disposition.liquidation.us_per_epoch.tpy{tpy}"] = per_epoch
        series["liquidation_us_per_tranche_vs_tpy"].append([tpy, per_tranche])
        series["liquidation_us_per_epoch_vs_tpy"].append([tpy, per_epoch])
    return out, series
