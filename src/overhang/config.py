"""Run configuration: flat key = value sections, strict about unknown keys.

The same schema parses from a JSON object keyed by section or from INI-style
lines, each stripped: blank and `#` or `;` comment lines are skipped, `[name]`
opens a section, and `key = value`, split at the first `=`, adds a key new to
its section; any other line is rejected. Keys are case-sensitive and values
literal, and `number` reads each but `name` and `quality`, a JSON number by
its text. `dump_config` writes every key `load_config` reads and the loader
accepts exactly those, so a dumped run loads back to an equal `RunConfig`.
Defaults are the built-in calibration parameters.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple, Optional

from overhang.impact import ElasticityModel, ExecutionQuality
from overhang.ledger import SupplyLedger
from overhang.scenarios import Scenario
from overhang.schedule import DEFAULT_DAILY_VOLUME_USD


class ConfigError(ValueError):
    """Raised on unknown keys or unparseable values."""


_QUALITIES = {q.value: q for q in ExecutionQuality}
_NUMBER = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?")


def number(text: str) -> float:
    """The float that text spells in RFC 8259's number grammar (section 6), in
    ASCII. float() also takes spaces, '_', '+', '.5', '5.', other Unicode
    digits, inf and nan."""
    if not _NUMBER.fullmatch(text):
        raise ValueError(f"invalid number value: {text!r}")
    return float(text)


def integer(text: str) -> int:
    """The int that text spells as ASCII digits after at most one leading '-'.
    int() also takes other Unicode digits, '_' separators, '+' and spaces."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


class RunConfig(NamedTuple):
    ledger: SupplyLedger = SupplyLedger.from_btc()  # one shared, immutable default
    scenario: Optional[Scenario] = None
    volume: float = DEFAULT_DAILY_VOLUME_USD


def dump_config(cfg: RunConfig) -> dict[str, dict]:
    """The run as config sections that load_config reads back to an equal run."""
    ledger = cfg.ledger
    doc: dict[str, dict] = {
        "ledger": {
            "total_mined": ledger.total_mined,
            "lost_estimate": ledger.lost_estimate,
            "position": ledger.position,
            "reference_price": ledger.reference_price,
        },
    }
    scenario = cfg.scenario
    if scenario is not None:
        doc["scenario"] = {
            "name": scenario.name,
            "epsilon": scenario.elasticity.epsilon,
            "quality": scenario.quality.value,
            "horizon": scenario.horizon,
        }
    doc["run"] = {"volume": cfg.volume}
    return doc


# The loader accepts exactly the keys dumped for a run with a scenario, and
# a [scenario] section must hold all of its keys.
_KNOWN_KEYS = {name: set(body) for name, body in dump_config(RunConfig(scenario=Scenario(
    "any", ElasticityModel(1.0), ExecutionQuality.MIXED, 1))).items()}


def parse_quality(text: str) -> ExecutionQuality:
    try:
        return _QUALITIES[text.strip().lower()]
    except KeyError:
        raise ConfigError(
            f"unknown execution quality {text!r}; expected one of {sorted(_QUALITIES)}"
        ) from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; like INI, JSON may not repeat a key or section."""
    if len(obj := dict(pairs)) < len(pairs):
        raise ConfigError(f"a JSON config object repeats a key: {[key for key, _ in pairs]}")
    return obj


def load_config(text: str) -> RunConfig:
    """Parse a config document (INI-style sections or a JSON object)."""
    if text.lstrip().startswith("{"):
        try:  # a number, NaN and Infinity too, as its text, which number reads as a string
            sections = json.loads(text, object_pairs_hook=_unique_keys,
                                  parse_float=str, parse_int=str, parse_constant=str)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        if not isinstance(sections, dict) or not all(
            isinstance(body, dict) and all(type(v) is str for v in body.values())
            for body in sections.values()
        ):
            raise ConfigError("JSON config must be an object of sections of strings and numbers")
    else:
        sections = {}
        for lineno, line in enumerate(map(str.strip, text.split("\n")), 1):
            key, equals, value = line.partition("=")
            if line[:1] == "[" and line[-1] == "]" and line[1:-1] not in sections:
                body = sections[line[1:-1]] = {}
            elif equals and sections and line[0] not in "[#;" and key.strip() not in body:
                body[key.strip()] = value.strip()
            elif line[:1] not in "#;":  # neither a comment nor blank: "" is in every string
                raise ConfigError(f"invalid config line {lineno}: {line!r}")

    for name, body in sections.items():
        if name not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{name}]")
        unknown = set(body) - _KNOWN_KEYS[name]
        if unknown:
            raise ConfigError(f"unknown keys in [{name}]: {sorted(unknown)}")
        for key, value in body.items():
            try:
                body[key] = value if key in ("name", "quality") else number(value)
            except ValueError as exc:
                raise ConfigError(f"[{name}] {key}: {exc}") from None

    try:
        return RunConfig(
            ledger=SupplyLedger.from_btc(**sections.get("ledger", {})),
            scenario=_build_scenario(sections["scenario"]) if "scenario" in sections else None,
            volume=sections.get("run", {}).get("volume", DEFAULT_DAILY_VOLUME_USD),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def _build_scenario(body: dict) -> Scenario:
    missing = _KNOWN_KEYS["scenario"] - set(body)
    if missing:
        raise ConfigError(f"scenario config missing keys: {sorted(missing)}")
    return Scenario(
        name=body["name"],
        elasticity=ElasticityModel(body["epsilon"]),
        quality=parse_quality(body["quality"]),
        horizon=body["horizon"],
    )
