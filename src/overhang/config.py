"""Run configuration: flat key = value sections, strict about unknown keys.

The same schema parses from INI-style text (section headers, one key per
line) or from a JSON object keyed by section, so emitted JSON round-trips.
Defaults are the built-in calibration parameters.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field
from typing import Optional

from overhang.impact import ElasticityModel, ExecutionQuality, OvershootParams
from overhang.ledger import SupplyLedger
from overhang.scenarios import Scenario
from overhang.schedule import DEFAULT_DAILY_VOLUME_USD


class ConfigError(ValueError):
    """Raised on unknown keys or unparseable values."""


_KNOWN_KEYS = {
    "ledger": {"total_mined", "lost_estimate", "position", "reference_price"},
    "scenario": {
        "name",
        "epsilon",
        "quality",
        "horizon",
        "overshoot_magnitude",
        "overshoot_half_life",
    },
    "run": {"volume"},
}

_QUALITIES = {q.value: q for q in ExecutionQuality}


@dataclass
class RunConfig:
    ledger: SupplyLedger = field(default_factory=SupplyLedger.from_btc)
    scenario: Optional[Scenario] = None
    volume: float = DEFAULT_DAILY_VOLUME_USD


def parse_quality(text: str) -> ExecutionQuality:
    try:
        return _QUALITIES[text.strip().lower()]
    except KeyError:
        raise ConfigError(
            f"unknown execution quality {text!r}; expected one of {sorted(_QUALITIES)}"
        ) from None


def load_config(text: str) -> RunConfig:
    """Parse a config document (INI-style sections or a JSON object)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            sections = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        if not isinstance(sections, dict) or not all(
            isinstance(body, dict) for body in sections.values()
        ):
            raise ConfigError("JSON config must be an object of section objects")
        sections = {
            name: {k: str(v) for k, v in body.items()}
            for name, body in sections.items()
        }
    else:
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"invalid config: {exc}") from exc
        sections = {name: dict(parser[name]) for name in parser.sections()}

    for name, body in sections.items():
        if name not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{name}]")
        unknown = set(body) - _KNOWN_KEYS[name]
        if unknown:
            raise ConfigError(f"unknown keys in [{name}]: {sorted(unknown)}")

    try:
        return RunConfig(
            ledger=SupplyLedger.from_btc(
                **{key: float(value) for key, value in sections.get("ledger", {}).items()}
            ),
            scenario=_build_scenario(sections["scenario"]) if "scenario" in sections else None,
            volume=float(sections.get("run", {}).get("volume", DEFAULT_DAILY_VOLUME_USD)),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def _build_scenario(body: dict[str, str]) -> Scenario:
    required = {"name", "epsilon", "quality", "horizon"}
    missing = required - set(body)
    if missing:
        raise ConfigError(f"scenario config missing keys: {sorted(missing)}")
    overshoot = None
    if "overshoot_magnitude" in body or "overshoot_half_life" in body:
        overshoot = OvershootParams(
            magnitude=float(body.get("overshoot_magnitude", 0.125)),
            half_life=float(body.get("overshoot_half_life", 7.0)),
        )
    return Scenario(
        name=body["name"],
        elasticity=ElasticityModel(float(body["epsilon"])),
        quality=parse_quality(body["quality"]),
        horizon=float(body["horizon"]),
        overshoot=overshoot,
    )


def scenario_to_json(scenario: Scenario, ledger: SupplyLedger) -> str:
    """Emit a scenario + ledger as JSON that load_config accepts back."""
    doc = {
        "ledger": {
            "total_mined": ledger.total_mined,
            "lost_estimate": ledger.lost_estimate,
            "position": ledger.position,
            "reference_price": ledger.reference_price,
        },
        "scenario": {
            "name": scenario.name,
            "epsilon": scenario.elasticity.epsilon,
            "quality": scenario.quality.value,
            "horizon": scenario.horizon,
        },
    }
    return json.dumps(doc, indent=2)
