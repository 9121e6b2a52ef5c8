"""Command-line surface: impact, scenario, schedule, frontier, decision-map,
mechanism, anchors.

Output formats: an aligned table (the default), --markdown, --json, --csv,
and for a named scenario --emit-config, the run's RunConfig as JSON that
--config loads back. Only the table and markdown start with a `# seed` line,
so --json, --csv and --emit-config print the same bytes for any --seed: the
one flag accepted where it changes nothing. The seed comes from --seed or the
OVERHANG_SEED environment variable. An integer, in a flag or OVERHANG_SEED, is
ASCII digits after at most one leading '-': int()'s other forms (non-ASCII
digits, '_' separators, '+', spaces) exit 2. A scenario run resolves into one
RunConfig: the config file or the defaults, then --volume, then the scenario
name, which a config [scenario] section excludes. A frontier of one λ prints
one row from optimal_trajectory: its holdings, each `.6g`, joined by ", ",
and its cost and variance, which are frontier()'s at that λ bit for bit.

Exit codes: 0 success; 2 an invalid flag, config file or domain input (any
ValueError: a missing config file, a share line that is not ASCII digits,
one colon and an even number of ASCII hex digits, a --secret-hex that is not
such hex, a share beyond the first k off the polynomial through them, a
NaN, infinite or out-of-domain number, a flag given outside the forms
FLAG_FORMS lists for it); 3 an unknown or missing scenario; 4 a NaN or
infinite result (NonFiniteError, or any other ArithmeticError); 1 stdout
closed by its reader before all of it was written (a broken pipe), or closed
when the process started, with nothing on stderr.
stdout is written on exit 0, and cut short on exit 1; any other exit leaves
it empty. Output is deterministic per (config, seed) pair.

`python -m overhang` and the `overhang` script enter through run(), which
flushes stdout and stderr after main() and ends the process with os._exit,
skipping interpreter teardown: a command must close whatever it opens for
writing before main() returns.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import random
import sys
from functools import cache
from typing import NoReturn, Optional, Sequence

from overhang import decisions, frontier, impact, ledger, mechanisms, scenarios, schedule, shamir
from overhang.config import RunConfig, dump_config, load_config, parse_quality
from overhang.ledger import ShareBasis, format_percent

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1  # the code Python's note on SIGPIPE exits with
EXIT_VALIDATION = 2
EXIT_UNKNOWN = 3
EXIT_COMPUTATION = 4

TERMINALS = {
    "dormancy": decisions.TerminalStateKind.DORMANCY_NON_RECOVERY,
    "burn": decisions.TerminalStateKind.SILENT_BURN,
    "adversarial": decisions.TerminalStateKind.ADVERSARIAL_SWITCH,
    "liquidation": decisions.TerminalStateKind.PATIENT_LIQUIDATION,
}

# The forms, as each subparser's `form` names them, that a flag of only some
# forms of its command applies to; main rejects it elsewhere with exit 2.
# --interval and --grace are still accepted with liquidation, which reads neither.
_SIMULATE = "mechanism simulate --terminal "
FLAG_FORMS = {
    "impact": {"--epsilon": {"impact"}},
    "scenario": {"--nominal": {"scenario NAME"}, "--emit-config": {"scenario NAME --emit-config"},
                 "--epsilons": {"scenario sweep"}, "--horizons": {"scenario sweep"},
                 "--allow-out-of-range": {"scenario sweep"}},
    "schedule": {"--volume": {"schedule"}, "--price": {"schedule"},
                 "--start": {"schedule --tranches-per-year"}},
    "mechanism": {"--position": {_SIMULATE + name for name in TERMINALS if name != "dormancy"},
                  "--program-years": {_SIMULATE + "liquidation"},
                  "--tranches-per-year": {_SIMULATE + "liquidation"}},
}


class UnknownEntityError(ValueError):
    pass


class NonFiniteError(ArithmeticError):
    """A value to be printed is NaN or infinite."""


def _emit(rows: list[dict], fmt: str, out) -> None:
    """Render rows, at least one, as an aligned table, CSV, JSON, or a markdown table."""
    if any(isinstance(v, float) and not math.isfinite(v) for row in rows for v in row.values()):
        raise NonFiniteError("a computed value is not finite; nothing printed")
    if fmt == "json":
        json.dump(rows, out, indent=2)
        out.write("\n")
        return
    headers = list(rows[0].keys())
    if fmt == "csv":
        writer = csv.DictWriter(out, fieldnames=headers)
        writer.writeheader()
        writer.writerows(rows)
        return
    cells = [[_cell(r[h]) for h in headers] for r in rows]
    widths = [
        max(len(h), *(len(row[i]) for row in cells)) for i, h in enumerate(headers)
    ]
    if fmt == "markdown":
        out.write("| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)) + " |\n")
        out.write("|" + "|".join("-" * (w + 2) for w in widths) + "|\n")
        for row in cells:
            out.write("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |\n")
        return
    out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    for row in cells:
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _format_flag(parser: argparse.ArgumentParser, *extra: tuple[str, str, str]) -> None:
    group = parser.add_mutually_exclusive_group()
    for flag, fmt, text in (("--json", "json", "emit JSON"), ("--csv", "csv", "emit CSV"),
                            ("--markdown", "markdown", "emit a markdown table"), *extra):
        group.add_argument(flag, dest="fmt", action="store_const", const=fmt,
                           default=argparse.SUPPRESS, help=text)


def integer(text: str) -> int:
    """The int that text spells as ASCII digits after at most one leading '-'.
    int() also takes other Unicode digits, '_' separators, '+' and spaces."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overhang",
        description="Disposition-space scenario toolkit for a large dormant position.",
    )
    parser.add_argument("--seed", type=integer, default=None, help="deterministic seed")
    parser.set_defaults(fmt="table")
    sub = parser.add_subparsers(dest="command", required=True)

    p_impact = sub.add_parser("impact", help="permanent impact and friction bands")
    p_impact.add_argument("--share", type=float, default=0.07)
    p_impact.add_argument("--epsilon", type=float, default=None, help="default 0.7")
    p_impact.add_argument("--quality", default="disciplined-otc")
    p_impact.add_argument("--participation", type=float, default=0.0017)
    p_impact.add_argument("--table", action="store_true", help="all reference elasticities")
    p_impact.set_defaults(run=_cmd_impact,
                          form=lambda a: "impact --table" if a.table else "impact")
    _format_flag(p_impact)

    p_scen = sub.add_parser("scenario", help="run a named scenario or a sweep")
    p_scen.add_argument("name", nargs="?", default=None, help="A, B, C, or 'sweep'")
    p_scen.add_argument("--config", help="config file (INI sections or JSON)")
    p_scen.add_argument("--volume", type=float, default=None,
                        help="reference daily volume, USD; overrides the config's [run] volume")
    p_scen.add_argument("--nominal", action="store_true", help="use the nominal share basis")
    p_scen.add_argument("--epsilons", type=_float_list, help="comma-separated elasticity grid")
    p_scen.add_argument("--horizons", type=_float_list, help="comma-separated horizon grid, years")
    p_scen.add_argument("--allow-out-of-range", action="store_true", help="allow ε out of range")
    p_scen.set_defaults(run=_cmd_scenario, form=lambda a: "scenario sweep" if a.name == "sweep"
                        else "scenario NAME" + " --emit-config" * (a.fmt == "config"))
    _format_flag(p_scen, ("--emit-config", "config", "emit the run's config"))

    p_sched = sub.add_parser("schedule", help="uniform selldown schedule and tranches")
    p_sched.add_argument("--position", type=float, default=ledger.DEFAULT_POSITION_BTC)
    p_sched.add_argument("--horizon", type=float, default=10)
    p_sched.add_argument("--volume", type=float,
                         help=f"daily volume, USD (default {schedule.DEFAULT_DAILY_VOLUME_USD:g})")
    p_sched.add_argument("--price", type=float,
                         help=f"BTC price, USD (default {ledger.DEFAULT_REFERENCE_PRICE_USD:g})")
    p_sched.add_argument("--tranches-per-year", type=integer, default=None)
    p_sched.add_argument("--start", type=integer, help="first unlock epoch (default 0)")
    p_sched.set_defaults(run=_cmd_schedule, form=lambda a: "schedule" if a.tranches_per_year is None
                         else "schedule --tranches-per-year")
    _format_flag(p_sched)

    p_front = sub.add_parser("frontier", help="optimal-execution frontier")
    p_front.add_argument("--lambdas", type=_float_list, default="0",
                         help="comma-separated risk aversions")
    p_front.add_argument("--total", type=float, default=100.0)
    p_front.add_argument("--periods", type=integer, default=10)
    p_front.add_argument("--tau", type=float, default=1.0)
    p_front.add_argument("--sigma", type=float, default=1600.0)
    p_front.add_argument("--gamma", type=float, default=0.1)
    p_front.add_argument("--eta", type=float, default=1.0)
    p_front.set_defaults(run=_cmd_frontier)
    _format_flag(p_front)

    p_dec = sub.add_parser("decision-map", help="terminal-state ranking and matrix")
    p_dec.add_argument("--retention-variant", action="store_true")
    p_dec.add_argument("--bear-bound", type=float, default=None)
    p_dec.set_defaults(run=_cmd_decision_map)
    _format_flag(p_dec)

    p_mech = sub.add_parser("mechanism", help="disposition mechanism simulation")
    mech_sub = p_mech.add_subparsers(dest="action", required=True)
    p_sim = mech_sub.add_parser("simulate")
    p_sim.add_argument("--terminal", required=True, choices=list(TERMINALS))
    p_sim.add_argument("--retention", type=float, default=0.0)
    p_sim.add_argument("--interval", type=integer, default=30)
    p_sim.add_argument("--grace", type=integer, default=3)
    p_sim.add_argument("--position", type=float, help=f"default {ledger.DEFAULT_POSITION_BTC:g}")
    p_sim.add_argument("--horizon", type=integer, default=3650, help="clock horizon, epochs")
    p_sim.add_argument("--program-years", type=float, help="default 10")
    p_sim.add_argument("--tranches-per-year", type=integer, help="default 1")
    p_sim.set_defaults(run=_cmd_simulate, form=lambda a: _SIMULATE + a.terminal)
    p_split = mech_sub.add_parser("split")
    p_split.add_argument("--secret-hex", required=True)
    p_split.add_argument("--threshold", "-k", type=integer, required=True)
    p_split.add_argument("--shares", "-n", type=integer, required=True)
    p_split.set_defaults(run=_cmd_split)
    p_rec = mech_sub.add_parser("reconstruct")
    p_rec.add_argument("--threshold", "-k", type=integer, required=True)
    p_rec.add_argument("share_lines", nargs="+", help="shares as index:hex")
    p_rec.set_defaults(run=_cmd_reconstruct)

    p_anchors = sub.add_parser("anchors", help="built-in empirical anchor events")
    p_anchors.set_defaults(run=_cmd_anchors)
    _format_flag(p_anchors)

    return parser


def _cmd_impact(args: argparse.Namespace, out) -> None:
    band = impact.friction_band(parse_quality(args.quality), args.participation)
    rows = []
    if args.table:
        epsilons = [s.elasticity.epsilon for s in scenarios.builtin_scenarios()]
    else:
        epsilons = [0.7 if args.epsilon is None else args.epsilon]
    for eps in epsilons:
        permanent = impact.permanent_impact(args.share, impact.ElasticityModel(eps))
        total_low, total_high = impact.combine(permanent, band)
        rows.append({
            "epsilon": eps,
            "permanent": permanent,
            "permanent_pct": format_percent(permanent),
            "friction_pp": f"{band.low:g}-{band.high:g}",
            "friction_extrapolated": band.extrapolated,
            "total_low": total_low,
            "total_high": total_high,
            "total_pct": f"{format_percent(total_low)} to {format_percent(total_high)}",
        })
    _emit(rows, args.fmt, out)


@cache
def _pace_cells(sched: schedule.Schedule) -> dict:
    """A schedule's five row cells, built once per distinct schedule: the
    cells of a sweep column share their schedule, and equal schedules have
    equal cells, since these derive from its fields alone."""
    return {
        "annual_btc": float(sched.annual_btc),
        "daily_btc": float(sched.daily_btc),
        "daily_usd": sched.daily_usd,
        "participation": sched.participation,
        "participation_pct": format_percent(sched.participation, decimals=2),
    }


def _scenario_row(result: scenarios.ScenarioResult) -> dict:
    # One unpack: a named tuple's fields are slower to read by name.
    name, sched, permanent, friction, (low, high), anchor_class = result
    return {
        "scenario": name,
        **_pace_cells(sched),
        "permanent": permanent,
        "friction_pp": f"{friction.low:g}-{friction.high:g}",
        "total_low": low,
        "total_high": high,
        "total_pct": f"{format_percent(low)} to {format_percent(high)}",
        "anchor_class": anchor_class.value,
    }


def _cmd_scenario(args: argparse.Namespace, out) -> None:
    cfg = RunConfig()
    if args.config:
        with open(args.config, encoding="utf-8-sig") as handle:  # a BOM is dropped
            cfg = load_config(handle.read())
    if args.volume is not None:
        cfg = cfg._replace(volume=args.volume)
    if args.name is not None and cfg.scenario is not None:
        raise ValueError(f"{args.name!r} and the config's [scenario] section both name the run")

    if args.name == "sweep":
        summary = scenarios.sensitivity_sweep(
            cfg.ledger,
            epsilon_grid=args.epsilons or scenarios.DEFAULT_EPSILON_GRID,
            horizon_grid=args.horizons or scenarios.DEFAULT_HORIZON_GRID,
            volume=cfg.volume,
            allow_out_of_range=args.allow_out_of_range,
        )
        rows = [_scenario_row(r) for r in summary.results]
        rows.append(dict.fromkeys(rows[0], "") | {
            "scenario": "BOUNDS",
            "total_low": -summary.max_abs_total,
            "total_high": -summary.min_abs_total,
            "total_pct": f"max |total| {format_percent(summary.max_abs_total)}",
        })
        _emit(rows, args.fmt, out)
        return

    if args.name is not None:
        by_name = {s.name: s for s in scenarios.builtin_scenarios()}
        if args.name not in by_name:
            raise UnknownEntityError(f"unknown scenario {args.name!r}")
        cfg = cfg._replace(scenario=by_name[args.name])
    elif cfg.scenario is None:
        raise UnknownEntityError("no scenario name or config given")

    # The emitted config stands for a run that succeeds, so it is run first.
    basis = ShareBasis.NOMINAL if args.nominal else ShareBasis.EFFECTIVE
    result = scenarios.run_scenario(cfg.scenario, cfg.ledger, cfg.volume, basis=basis)
    if args.fmt == "config":
        out.write(json.dumps(dump_config(cfg), indent=2) + "\n")
    else:
        _emit([_scenario_row(result)], args.fmt, out)


def _cmd_schedule(args: argparse.Namespace, out) -> None:
    volume = schedule.DEFAULT_DAILY_VOLUME_USD if args.volume is None else args.volume
    price = ledger.DEFAULT_REFERENCE_PRICE_USD if args.price is None else args.price
    params = schedule.ScheduleParams(
        position=args.position, horizon=args.horizon, reference_daily_volume=volume, price=price
    )
    sched = schedule.build_uniform_schedule(params)
    if args.tranches_per_year is not None:
        program = schedule.to_tranche_program(
            sched, granularity=args.tranches_per_year, start=args.start or 0
        )
        rows = [
            {"tranche": i, "unlock_epoch": epoch, "amount_btc": ledger.sats_to_btc(amount)}
            for i, (epoch, amount) in enumerate(zip(program.epochs, program.amounts))
        ]
    else:
        rows = [{
            "position_btc": ledger.sats_to_btc(sched.position_sats),
            "horizon_years": sched.horizon,
            "annual_btc": float(sched.annual_btc),
            "daily_btc": float(sched.daily_btc),
            "daily_usd": sched.daily_usd,
            "participation": sched.participation,
        }]
    _emit(rows, args.fmt, out)


def _cmd_frontier(args: argparse.Namespace, out) -> None:
    model = frontier.ExecutionModel(
        total_units=args.total,
        periods=args.periods,
        period_length=args.tau,
        volatility=args.sigma,
        permanent_coeff=args.gamma,
        temporary_coeff=args.eta,
    )
    if len(args.lambdas) == 1:  # the one path, priced as its frontier point
        path = frontier.optimal_trajectory(model._replace(risk_aversion=args.lambdas[0]))
        rows = [dataclasses.asdict(frontier.FrontierPoint(*args.lambdas, *path[1:]))
                | {"holdings": ", ".join(f"{x:.6g}" for x in path.holdings)}]
    else:
        rows = [dataclasses.asdict(p) for p in frontier.frontier(model, args.lambdas)]
    _emit(rows, args.fmt, out)


def _cmd_decision_map(args: argparse.Namespace, out) -> None:
    matrix = decisions.consistency_matrix(retention_variant=args.retention_variant)
    run_ledger = ledger.SupplyLedger.from_btc()
    builtin = [scenarios.run_scenario(s, run_ledger) for s in scenarios.builtin_scenarios()]
    summary = decisions.bear_case_summary(matrix, run_ledger, builtin)
    rows = []
    for rank, (kind, effect) in enumerate(zip(summary.ranking, summary.effects), start=1):
        if effect.bound is not None and args.bear_bound is not None:
            effect = effect._replace(bound=args.bear_bound)
        rows.append({
            "rank": rank,
            "terminal_state": kind.value,
            "delta_effective_float_btc": effect.delta_effective_float,
            "market_sign": effect.market_sign.value,
            "bound": "" if effect.bound is None else effect.bound,
        })
    _emit(rows, args.fmt, out)
    out.write("\n")
    matrix_rows = []
    for preference in decisions.PreferenceSet:
        row = {"preference_set": preference.value}
        for kind in decisions.TerminalStateKind:
            row[kind.value] = matrix.mark(preference, kind).value
        matrix_rows.append(row)
    _emit(matrix_rows, args.fmt, out)


def _cmd_split(args: argparse.Namespace, out) -> None:
    try:
        secret = shamir.parse_hex(args.secret_hex)
    except ValueError:
        raise shamir.ShamirError(f"--secret-hex {args.secret_hex!r} is not hex") from None
    shares = shamir.split(secret, args.threshold, args.shares, random.Random(args.seed))
    for share in shares:
        out.write(share.serialize() + "\n")


def _cmd_reconstruct(args: argparse.Namespace, out) -> None:
    shares = [shamir.Share.deserialize(line) for line in args.share_lines]
    out.write(shamir.reconstruct(shares, args.threshold).hex() + "\n")


def _cmd_simulate(args: argparse.Namespace, out) -> None:
    kind = TERMINALS[args.terminal]
    position = ledger.DEFAULT_POSITION_BTC if args.position is None else args.position
    terminal = decisions.TerminalState(kind=kind, retention_fraction=args.retention)
    action = (
        mechanisms.DmsAction.DESTROY_SHARDS
        if kind is decisions.TerminalStateKind.DORMANCY_NON_RECOVERY
        else mechanisms.DmsAction.PUBLISH_SHARDS
    )
    config = mechanisms.DmsConfig(
        heartbeat_interval=args.interval, grace_missed=args.grace, action=action
    )
    program = None
    if kind is decisions.TerminalStateKind.PATIENT_LIQUIDATION:
        years = 10 if args.program_years is None else args.program_years
        per_year = 1 if args.tranches_per_year is None else args.tranches_per_year
        sched = schedule.build_uniform_schedule(
            schedule.ScheduleParams(position=position, horizon=years)
        )
        program = schedule.to_tranche_program(sched, granularity=per_year)
    events = mechanisms.simulate_disposition(
        terminal,
        config,
        tranche_program=program,
        clock_horizon=args.horizon,
        position_btc=position,
    )
    for event in events:
        out.write(event.to_json() + "\n")
    out.write(f"# events: {len(events)}\n")


def _cmd_anchors(args: argparse.Namespace, out) -> None:
    rows = []
    for anchor in scenarios.builtin_anchors():
        band = anchor.observed_impact
        rows.append({
            "name": anchor.name,
            "amount_btc": anchor.amount_btc,
            "impact_low": "" if band is None else band[0],
            "impact_high": "" if band is None else band[1],
            "execution_class": anchor.execution_class.value,
            "note": anchor.note,
        })
    _emit(rows, args.fmt, out)


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    rendered = io.StringIO()
    try:
        if args.seed is None:
            try:
                args.seed = integer(os.environ.get("OVERHANG_SEED", "0"))
            except ValueError as exc:
                raise ValueError(f"OVERHANG_SEED {exc}") from None
        if args.fmt in ("table", "markdown"):
            rendered.write(f"# seed {args.seed}\n")
        for flag, forms in FLAG_FORMS.get(args.command, {}).items():
            value = (args.fmt == "config" if flag == "--emit-config"  # it stores a format
                     else getattr(args, flag[2:].replace("-", "_"), None))
            if value is not None and value is not False and args.form(args) not in forms:
                raise ValueError(f"{flag} does not apply to {args.form(args)}, "
                                 f"only to {' or '.join(sorted(forms))}")
        args.run(args, rendered)
    except UnknownEntityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:  # NonFiniteError, from _emit
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    out = out or sys.stdout
    if out is None:  # the process started with stdout closed: as a broken pipe
        return EXIT_CLOSED_STDOUT
    out.write(rendered.getvalue())
    return EXIT_OK


def run() -> NoReturn:
    """The process entry: main() on sys.argv, then stdout and stderr flushed
    and the process ended with os._exit, without the interpreter's teardown.
    argparse's SystemExit (--help, a usage error) gives its code; any other
    exception propagates as it would."""
    try:
        try:
            code = main()
        except SystemExit as exc:
            code = exc.code
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the process started with it closed
                stream.flush()
    except BrokenPipeError:  # the reader closed stdout; what is unwritten is dropped
        code = EXIT_CLOSED_STDOUT
    os._exit(code)
