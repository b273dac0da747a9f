"""Scenario bundles: every knob of a run in one serializable record.

A scenario file is INI-style text (configparser dialect): named sections
of key=value pairs, keys matching the dataclass fields below. Unknown
sections or keys raise, master_seed is required, everything else falls
back to the "ama-default" calibration. save/load round-trips exactly;
the scenario hash is a sha256 over the canonical serialization.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
import re
import types
import typing
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .affect import (FORMATS, SEEDING_STRATEGIES, AffectParams, Design,
                     MeasurementParams, require_finite)
from .diffusion import DecisionParams, TransmissionParams
from .graph import GraphConfig
from .impact import ImpactWeights

__all__ = [
    "ScenarioError",
    "CostModel",
    "DesignSpace",
    "GameConfig",
    "Scenario",
    "ama_default",
    "preset_scenario",
    "PRESET_NAMES",
    "load_scenario",
    "save_scenario",
    "scenario_to_text",
    "scenario_hash",
    "derive_stream",
]


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class CostModel:
    """Production cost per format plus a per-seeded-agent outreach cost."""

    meme: float = 1.0
    theatre: float = 4.0
    song: float = 3.0
    mural: float = 5.0
    per_seed: float = 0.25

    def validate(self) -> None:
        for f in fields(self):
            if not getattr(self, f.name) >= 0.0:
                raise ScenarioError(f"cost {f.name} must be >= 0")

    def format_cost(self, fmt: str) -> float:
        return {"meme": self.meme, "theatre": self.theatre,
                "song": self.song, "mural": self.mural}[fmt]


@dataclass(frozen=True)
class DesignSpace:
    """Grid the optimizer enumerates. Symbols stay anchored on one block
    center; all other design fields take the cartesian product."""

    formats: tuple[str, ...] = FORMATS
    hooks: tuple[float, ...] = (0.2, 0.6)
    call_and_response: tuple[bool, ...] = (False, True)
    toxicities: tuple[float, ...] = (0.0, 0.6)
    seed_fractions: tuple[float, ...] = (0.05,)
    seedings: tuple[str, ...] = ("top_matching",)
    symbol_block: int = 0
    budget: float = 12.0
    toxicity_limit: float = 0.5

    def validate(self) -> None:
        require_finite(self)
        for f in self.formats:
            if f not in FORMATS:
                raise ScenarioError(f"unknown format in space: {f!r}")
        for s in self.seedings:
            if s not in SEEDING_STRATEGIES:
                raise ScenarioError(f"unknown seeding in space: {s!r}")
        if not (self.formats and self.hooks and self.call_and_response
                and self.toxicities and self.seed_fractions and self.seedings):
            raise ScenarioError("design space has an empty axis")


@dataclass(frozen=True)
class GameConfig:
    """Two-side contest setup: per-side strategy formats (shared list,
    order fixes the starting profile), symbol anchor blocks, and payoff
    weights applied to each side's own adoption metrics."""

    formats: tuple[str, ...] = ("theatre", "meme")
    left_block: int = 0
    right_block: int = 3
    w_cohesion: float = 0.2
    w_participation: float = 1.0
    w_sway: float = 0.15
    kappa: float = 0.02
    max_iters: int = 50
    hook: float = 0.6
    call_and_response: bool = True
    toxicity: float = 0.0
    seed_fraction: float = 0.05
    seeding: str = "top_matching"

    def validate(self) -> None:
        require_finite(self)
        for f in self.formats:
            if f not in FORMATS:
                raise ScenarioError(f"unknown format in game: {f!r}")
        if self.seeding not in SEEDING_STRATEGIES:
            raise ScenarioError(f"unknown seeding in game: {self.seeding!r}")
        if self.max_iters < 1:
            raise ScenarioError("game max_iters must be >= 1")


def _default_graph() -> GraphConfig:
    return GraphConfig(n=400, n_blocks=4, p_in=0.15, p_out=0.005,
                       identity_dim=1)


def _default_design() -> Design:
    # symbols sit on the block-0 end of the identity line
    return Design(format="theatre", symbols=(0.0,), hook=0.6,
                  call_and_response=True, toxicity=0.0,
                  seed_fraction=0.05, seeding="top_matching")


@dataclass(frozen=True)
class Scenario:
    name: str = "ama-default"
    master_seed: int = 20240817
    reps: int = 300
    max_rounds: int | None = None
    regenerate_graph_per_rep: bool = False
    graph: GraphConfig = field(default_factory=_default_graph)
    affect: AffectParams = field(default_factory=AffectParams)
    measurement: MeasurementParams = field(default_factory=MeasurementParams)
    decision: DecisionParams = field(default_factory=DecisionParams)
    transmission: TransmissionParams = field(default_factory=TransmissionParams)
    impact: ImpactWeights = field(default_factory=ImpactWeights)
    design: Design = field(default_factory=_default_design)
    costs: CostModel = field(default_factory=CostModel)
    space: DesignSpace = field(default_factory=DesignSpace)
    game: GameConfig = field(default_factory=GameConfig)

    def validate(self) -> None:
        # every CSV meta line carries the name as one `scenario=<name>` token
        if not re.fullmatch(r"[^\s=]+", self.name):
            raise ScenarioError(f"scenario name {self.name!r} must be "
                                "non-empty, without whitespace or '='")
        if self.reps < 1:
            raise ScenarioError("reps must be >= 1")
        if self.master_seed < 0:
            raise ScenarioError("master_seed must be a non-negative integer")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ScenarioError("max_rounds must be >= 1 when set")
        self.graph.validate()
        self.affect.validate()
        self.measurement.validate()
        self.decision.validate()
        self.transmission.validate()
        self.impact.validate()
        self.costs.validate()
        self.design.validate(self.graph.identity_dim)
        self.space.validate()
        self.game.validate()


# section name -> scenario field holding that dataclass
_SECTION_FIELDS = {
    "scenario": None,
    "graph": "graph",
    "affect": "affect",
    "measurement": "measurement",
    "decision": "decision",
    "transmission": "transmission",
    "impact": "impact",
    "design": "design",
    "costs": "costs",
    "optimizer": "space",
    "game": "game",
}
_TOP_KEYS = ("name", "master_seed", "reps", "max_rounds",
             "regenerate_graph_per_rep")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # repr is the shortest string that round-trips the exact double
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if value is None:
        return "none"
    return str(value)


def _parse_value(text: str, hint, where: str):
    text = text.strip()
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if text.lower() == "none":
            return None
        return _parse_value(text, args[0], where)
    if origin is tuple:
        inner = typing.get_args(hint)[0]
        if not text:
            return ()
        return tuple(_parse_value(p, inner, where) for p in text.split(","))
    try:
        if hint is bool:
            low = text.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(text)
        if hint is int:
            return int(text)
        if hint is float:
            value = float(text)
            if not math.isfinite(value):
                raise ValueError(text)
            return value
        if hint is str:
            return text
    except ValueError as exc:
        raise ScenarioError(f"bad value for {where}: {text!r}") from exc
    raise ScenarioError(f"unsupported field type at {where}")


def _section_items(obj) -> list[tuple[str, str]]:
    return [(f.name, _format_value(getattr(obj, f.name))) for f in fields(obj)]


def scenario_to_text(scenario: Scenario) -> str:
    """Canonical INI serialization; stable key order, 17-digit floats."""
    out = io.StringIO()
    out.write("[scenario]\n")
    for key in _TOP_KEYS:
        out.write(f"{key} = {_format_value(getattr(scenario, key))}\n")
    for section, attr in _SECTION_FIELDS.items():
        if attr is None:
            continue
        out.write(f"\n[{section}]\n")
        for key, value in _section_items(getattr(scenario, attr)):
            out.write(f"{key} = {value}\n")
    return out.getvalue()


def scenario_hash(scenario: Scenario) -> str:
    return hashlib.sha256(scenario_to_text(scenario).encode("utf-8")).hexdigest()


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario_to_text(scenario))


def _parse_section(cls, parser_section, name: str, base):
    hints = typing.get_type_hints(cls)
    known = {f.name for f in fields(cls)}
    updates = {}
    for key, raw in parser_section.items():
        if key not in known:
            raise ScenarioError(f"unknown key [{name}] {key}")
        updates[key] = _parse_value(raw, hints[key], f"[{name}] {key}")
    return replace(base, **updates)


def load_scenario(path: str) -> Scenario:
    """Parse a scenario file on top of ama-default; master_seed required."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario file {path}: {exc}") from exc

    base = ama_default()
    for section in parser.sections():
        if section not in _SECTION_FIELDS:
            raise ScenarioError(f"unknown section [{section}]")

    top_updates = {}
    if parser.has_section("scenario"):
        hints = typing.get_type_hints(Scenario)
        for key, raw in parser.items("scenario"):
            if key not in _TOP_KEYS:
                raise ScenarioError(f"unknown key [scenario] {key}")
            top_updates[key] = _parse_value(raw, hints[key], f"[scenario] {key}")
    if "master_seed" not in top_updates:
        raise ScenarioError("scenario file must set [scenario] master_seed")

    nested = {}
    for section, attr in _SECTION_FIELDS.items():
        if attr is None or not parser.has_section(section):
            continue
        cls = type(getattr(base, attr))
        nested[attr] = _parse_section(cls, parser[section], section,
                                      getattr(base, attr))

    scenario = replace(base, **top_updates, **nested)
    if "name" not in top_updates:
        scenario = replace(scenario, name="custom")
    scenario.validate()
    return scenario


def derive_stream(master_seed: int, *labels) -> np.random.Generator:
    """Deterministic generator for (master seed, label path).

    Integer labels pass through; any other label is folded to an integer
    through sha256 so arbitrary strings ("graph", "rep", arm names) give
    independent, platform-stable streams.
    """
    entropy = [int(master_seed)]
    for label in labels:
        if isinstance(label, (int, np.integer)):
            entropy.append(int(label))
        else:
            digest = hashlib.sha256(str(label).encode("utf-8")).digest()
            entropy.append(int.from_bytes(digest[:16], "little"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def ama_default() -> Scenario:
    """The documented default calibration. All generator values live here
    (and in scenarios/ama-default.cfg, which must stay in sync)."""
    return Scenario()


def preset_scenario(name: str) -> Scenario:
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown preset {name!r}; have {sorted(_PRESETS)}") from None
    return builder()


def _fragmented() -> Scenario:
    base = ama_default()
    return replace(base, name="ama-fragmented",
                   graph=replace(base.graph, context="fragmented"))


_PRESETS = {
    "ama-default": ama_default,
    "ama-fragmented": _fragmented,
}
PRESET_NAMES = tuple(sorted(_PRESETS))
