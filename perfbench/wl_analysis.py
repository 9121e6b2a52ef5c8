"""``analysis``: one analyst session through the library per op.

A session loads a seeded config (INI or JSON), runs its scenario, recomputes
the permanent impact and friction band, sweeps a 30-, 200- or 1,000-cell
grid, evaluates the frontier over 10..200 risk aversions log-spaced in
[1e-8, 1e-2] at 10, 50 or 200 periods, computes one optimal trajectory, the
bear-case summary, a burn and an overshoot path. It does no GF(256) work, no
replay and starts no process.

The deck holds 15 sessions: every (periods, lambda count) pair once and each
sweep size five times. The seed draws the config, grid values, model scale,
the trajectory's risk aversion, the burn and the overshoot, and the order.

At 200 periods the closed-form frontier overflows ``sinh`` for about half of
the lambda range and returns NaN. Those sessions fail their check and are
counted as failed, marked as this known defect; the ranges stay as they are.
"""

from __future__ import annotations

import json
import math
import random
import warnings

from harness import CheckFailed, gf_reference, import_program, layer_p50_us, require

SWEEPS = {30: (5, 3), 200: (10, 10), 1000: (20, 25)}  # cells: (epsilons, horizons)
PERIODS = (10, 50, 200)
LAMBDA_COUNTS = (10, 57, 105, 152, 200)
LAMBDA_RANGE = (1e-8, 1e-2)
QUALITIES = ("disciplined-otc", "mixed", "public-venue")
SIGMA, GAMMA, ETA, TAU = 1600.0, 0.1, 1.0, 1.0
REL = 1e-12

IN_PROCESS = True  # ops run in this process, so the speed probe samples inside them
# Of the reference loops tried, GF(256) bit arithmetic tracked these ops best.
reference = gf_reference


def setup(seed: int) -> dict:
    import_program()
    from overhang import config, decisions, frontier, impact, ledger, scenarios

    # The 200-period overflow is counted by the check; its warning is noise.
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    return {"config": config, "decisions": decisions, "frontier": frontier,
            "impact": impact, "ledger": ledger, "scenarios": scenarios}


def _config_text(cfg: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(cfg)
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in body.items())
        for section, body in cfg.items()
    )


def _op(rng: random.Random, cells: int, periods: int, n_lambdas: int, as_json: bool) -> dict:
    n_eps, n_hor = SWEEPS[cells]
    cfg = {
        "ledger": {"position": round(rng.uniform(2e5, 1.2e6), 2),
                   "reference_price": round(rng.uniform(4e4, 1.2e5), 2)},
        "scenario": {"name": f"s{rng.randrange(10**6)}", "epsilon": round(rng.uniform(0.3, 1.5), 4),
                     "quality": rng.choice(QUALITIES), "horizon": rng.randint(1, 15)},
        "run": {"volume": round(rng.uniform(1e10, 2e10), 0)},
    }
    lo, hi = (math.log10(v) for v in LAMBDA_RANGE)
    lambdas = [10 ** (lo + (hi - lo) * i / (n_lambdas - 1)) for i in range(n_lambdas)]
    return {
        "form": f"cells{cells}.periods{periods}",
        "cfg": cfg,
        "text": _config_text(cfg, as_json),
        "epsilons": sorted(round(rng.uniform(0.3, 1.5), 4) for _ in range(n_eps)),
        "horizons": sorted(rng.randint(2, 60) / 2 for _ in range(n_hor)),
        "periods": periods,
        "total": round(rng.uniform(50, 500), 3),
        "lambdas": lambdas,
        "trajectory_lambda": rng.choice(lambdas),
        "retention": round(rng.random(), 4),
        "overshoot": (round(rng.uniform(0.0, 0.3), 4), round(rng.uniform(1, 30), 2)),
        "days": rng.randint(30, 365),
    }


def deck(seed: int, index: int, state: dict) -> list[dict]:
    rng = random.Random(f"analysis/{seed}/{index}")
    cells = tuple(SWEEPS)
    ops = [
        _op(rng, cells[(j // 3 + j) % 3], PERIODS[j % 3], LAMBDA_COUNTS[j % 5], j % 2 == 1)
        for j in range(15)
    ]
    rng.shuffle(ops)
    return ops


def warmup(seed: int, state: dict, first_deck: list) -> list[dict]:
    rng = random.Random(f"analysis/{seed}/warmup")
    return [_op(rng, 30, 10, 10, False), _op(rng, 30, 200, 10, True)]


def _model(state: dict, op: dict, risk_aversion: float = 0.0):
    return state["frontier"].ExecutionModel(
        total_units=op["total"], periods=op["periods"], period_length=TAU, volatility=SIGMA,
        permanent_coeff=GAMMA, temporary_coeff=ETA, risk_aversion=risk_aversion)


def run(op: dict, state: dict, tracer) -> dict:
    cfgmod, dec, fr = state["config"], state["decisions"], state["frontier"]
    imp, led, sc = state["impact"], state["ledger"], state["scenarios"]
    with tracer.span("config.load_config"):
        cfg = cfgmod.load_config(op["text"])
    with tracer.span("scenarios.run_scenario"):
        result = sc.run_scenario(cfg.scenario, cfg.ledger, cfg.volume)
    with tracer.span("ledger.position_share"):
        share = led.position_share(cfg.ledger, led.ShareBasis.EFFECTIVE)
    with tracer.span("impact.permanent_impact"):
        permanent = imp.permanent_impact(share, cfg.scenario.elasticity)
    with tracer.span("impact.friction_band"):
        band = imp.friction_band(cfg.scenario.quality, result.schedule.participation)
    qualities = (imp.ExecutionQuality.DISCIPLINED_OTC, imp.ExecutionQuality.MIXED)
    with tracer.span("scenarios.sensitivity_sweep"):
        sweep = sc.sensitivity_sweep(cfg.ledger, op["epsilons"], qualities, op["horizons"],
                                     cfg.volume)
    with tracer.span("frontier.frontier"):
        points = fr.frontier(_model(state, op), op["lambdas"])
    with tracer.span("frontier.optimal_trajectory"):
        trajectory = fr.optimal_trajectory(_model(state, op, op["trajectory_lambda"]))
    with tracer.span("decisions.consistency_matrix"):
        matrix = dec.consistency_matrix()
    with tracer.span("decisions.bear_case_summary"):
        bear = dec.bear_case_summary(matrix, cfg.ledger, sweep.results)
    with tracer.span("ledger.apply_burn"):
        burn = led.apply_burn(cfg.ledger, op["retention"])
    with tracer.span("impact.overshoot_path"):
        path = imp.overshoot_path(result.total[0], imp.OvershootParams(*op["overshoot"]), op["days"])
    return {"cfg": cfg, "result": result, "share": share, "permanent": permanent, "band": band,
            "sweep": sweep, "points": points, "trajectory": trajectory, "bear": bear,
            "burn": burn, "path": path}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


def _band_ok(low: float, high: float) -> bool:
    return math.isfinite(low) and math.isfinite(high) and low <= high <= 0


def overflows(op: dict, risk_aversion: float) -> bool:
    """Whether sinh(kappa * tau * periods) overflows a double for this model."""
    stiffness = risk_aversion * SIGMA**2 * TAU**2 / (ETA - GAMMA * TAU / 2)
    try:
        math.sinh(math.acosh(1 + stiffness / 2) * op["periods"])
    except OverflowError:
        return True
    return False


def check(op: dict, out: dict, state: dict) -> None:
    cfg, spec = out["cfg"], op["cfg"]
    require(cfg.ledger.position_sats == round(spec["ledger"]["position"] * 10**8),
            "config position lost in load_config")
    require(cfg.scenario.elasticity.epsilon == spec["scenario"]["epsilon"]
            and cfg.scenario.quality.value == spec["scenario"]["quality"]
            and cfg.scenario.horizon == spec["scenario"]["horizon"]
            and cfg.volume == spec["run"]["volume"], "config scenario or volume lost in load_config")
    led = cfg.ledger
    share = led.position_sats / (led.total_mined_sats - led.lost_estimate_sats)
    require(_close(out["share"], share), "effective share != position / effective float")
    permanent = (1.0 + share) ** (-1.0 / spec["scenario"]["epsilon"]) - 1.0
    require(_close(out["permanent"], permanent), "permanent impact != (1 + s)^(-1/e) - 1")
    result, band = out["result"], out["band"]
    require(result.permanent == out["permanent"], "run_scenario permanent != permanent_impact")
    require(0 <= band.low <= band.high, "friction band not ordered")
    require(_band_ok(*result.total), f"scenario total {result.total} not finite with low <= high <= 0")
    require(_close(result.total[0], permanent - band.high / 100)
            and _close(result.total[1], permanent - band.low / 100), "total != permanent - friction")

    sweep = out["sweep"]
    cells = len(op["epsilons"]) * 2 * len(op["horizons"])
    require(len(sweep.results) == cells, f"{len(sweep.results)} sweep cells, expected {cells}")
    require(all(_band_ok(*r.total) for r in sweep.results),
            "a sweep total is not finite with low <= high <= 0")
    worst = min(sweep.results, key=lambda r: r.total[0])
    require(out["bear"].worst_case_bound == worst.total, "bear-case bound is not the widest sweep total")
    ranking = out["bear"].ranking
    require(set(ranking) == set(type(ranking[0])) and len(ranking) == len(set(ranking)),
            "bear-case ranking is not a permutation of the terminal states")

    burn = out["burn"]
    residual = round(led.position_sats * op["retention"])
    require(burn.residual_sats == residual and burn.burned_sats + residual == led.position_sats,
            "burn does not conserve the position")
    require(burn.ledger_after.total_mined_sats == led.total_mined_sats - burn.burned_sats,
            "burned sats did not leave total mined")

    path = out["path"]
    magnitude, _ = op["overshoot"]
    base = 1.0 + result.total[0]
    values = [v for _, v in path]
    require([d for d, _ in path] == list(range(op["days"] + 1)), "overshoot path days wrong")
    require(_close(values[0], base * (1 - magnitude)), "overshoot day 0 != (1 + total)(1 - magnitude)")
    require(all(math.isfinite(v) and a <= v <= base for a, v in zip(values, values[1:])),
            "overshoot path not rising toward 1 + total")

    known = []
    points = out["points"]
    require([p.risk_aversion for p in points] == op["lambdas"], "frontier lambdas reordered")
    ok = [math.isfinite(p.expected_cost) and math.isfinite(p.cost_variance) for p in points]
    if any(not fine and not overflows(op, p.risk_aversion) for p, fine in zip(points, ok)):
        raise CheckFailed("frontier point not finite where sinh does not overflow")
    if not all(ok):
        known.append("frontier points")
    good = [p for p, fine in zip(points, ok) if fine]
    require(all(a.expected_cost <= b.expected_cost and a.cost_variance >= b.cost_variance
                for a, b in zip(good, good[1:])),
            "frontier cost not rising or variance not falling with lambda")

    trajectory = out["trajectory"]
    holdings = trajectory.holdings
    require(len(holdings) == op["periods"] + 1, "trajectory length != periods + 1")
    if all(math.isfinite(x) for x in holdings):
        require(holdings[0] == op["total"] and holdings[-1] == 0.0,
                "trajectory does not run from total to 0")
        require(all(a >= b for a, b in zip(holdings, holdings[1:])), "trajectory holdings rise")
        i = op["lambdas"].index(op["trajectory_lambda"])
        require(_close(trajectory.expected_cost, points[i].expected_cost),
                "trajectory cost != frontier cost at the same lambda")
    elif overflows(op, op["trajectory_lambda"]):
        known.append("trajectory holdings")
    else:
        raise CheckFailed("trajectory not finite where sinh does not overflow")
    if known:
        raise CheckFailed(f"non-finite {' and '.join(known)} at {op['periods']} periods: "
                          "sinh overflows in the closed-form frontier", known=True)


def digest(op: dict, out: dict) -> bytes:
    parts = [out["result"].total, out["permanent"], [r.total for r in out["sweep"].results],
             [(p.expected_cost, p.cost_variance) for p in out["points"]],
             out["trajectory"].holdings, out["bear"].worst_case_bound,
             out["burn"].burned_sats, out["path"][-1]]
    return repr(parts).encode()


def counts(op: dict, out: dict) -> dict:
    points = out["points"]
    nonfinite = sum(1 for p in points if not (math.isfinite(p.expected_cost)
                                              and math.isfinite(p.cost_variance)))
    return {"periods": op["periods"], "cells": len(out["sweep"].results), "lambdas": len(points),
            "nonfinite": nonfinite}


def layers(records: list[dict], by_op: list[dict]) -> tuple[dict, dict]:
    sweep: dict[int, list[int]] = {}
    front: dict[int, list[int]] = {}
    for record, slot in zip(records, by_op):
        c = record["counts"]
        if not c:
            continue
        acc = sweep.setdefault(c["cells"], [0, 0])
        acc[0] += slot["scenarios.sensitivity_sweep"]
        acc[1] += c["cells"]
        acc = front.setdefault(c["periods"], [0, 0])
        acc[0] += slot["frontier.frontier"]
        acc[1] += c["lambdas"]
    out = {"frontier.nonfinite_points": sum(r["counts"].get("nonfinite", 0) for r in records)}
    for name in ("frontier.optimal_trajectory", "config.load_config", "scenarios.run_scenario",
                 "decisions.bear_case_summary", "ledger.apply_burn", "impact.permanent_impact",
                 "impact.friction_band", "impact.overshoot_path"):
        out[f"{name}.us"] = layer_p50_us(by_op, name)
    series = {"sweep_us_per_cell_vs_cells": [], "frontier_us_per_lambda_vs_periods": []}
    for cells, (ns, n) in sorted(sweep.items()):
        out[f"scenarios.sensitivity_sweep.us_per_cell.cells{cells}"] = ns / 1e3 / n
        series["sweep_us_per_cell_vs_cells"].append([cells, ns / 1e3 / n])
    for periods, (ns, n) in sorted(front.items()):
        out[f"frontier.frontier.us_per_lambda.periods{periods}"] = ns / 1e3 / n
        series["frontier_us_per_lambda_vs_periods"].append([periods, ns / 1e3 / n])
    return out, series
