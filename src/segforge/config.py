"""Pipeline configuration: a small key=value file with typed, validated keys.

Unknown keys are rejected so typos fail loudly. The effective configuration
(defaults, then file, then flag overrides) is hashed canonically; every
artifact embeds that hash so downstream stages can detect drift.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from pathlib import Path

from .engine import NEGATIVE_ACTION_NAMES, POLICIES, POSITIVE_ACTION_NAMES
from .errors import SegforgeError
from .knowledge import read_text
from .mapping import text_parser


class ConfigInvalid(SegforgeError):
    """The configuration file or an override could not be validated."""


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# the artifacts' float parser, which refuses nan and the infinities
_parse_float = text_parser("float")


def _parse_floats(raw: str) -> tuple[float, ...]:
    # an empty item, as in "1,,2" or "1, 2,", is refused rather than dropped
    return tuple(map(_parse_float, raw.split(",")))


def _setting(key: str, parse, default: str = "", rule=None):
    """A field's config key, the parser of its text, its default as written
    in a config file (an empty default is left commented out) and its rule:
    a test of the parsed value and the text of what the value must be."""
    return field(metadata={"key": key, "parse": parse, "default": default, "rule": rule})


_AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")
_AT_LEAST_2 = (lambda v: v >= 2, "must be at least 2")
_ODD_SIDE = (lambda v: v >= 5 and v % 2 == 1, "must be an odd number >= 5")
_OPEN_UNIT = (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")
_POLICY = (lambda v: v in POLICIES, f"must be one of {', '.join(POLICIES)}")
# the rules that join settings, checked once every field has passed its own
_JOINT_RULES = (
    (lambda c: c.easy_medium < c.medium_hard, "score.easy_medium must lie below score.medium_hard"),
    # a sample of more points than clusters holds two points of one cluster,
    # so its silhouette is not that of singletons alone, which all score 1
    (lambda c: c.cluster_sample_cap > c.cluster_k, "cluster.sample_cap must exceed cluster.k"),
)


def _one_weight_each(names: tuple[str, ...]):
    """The rule of a weight list: one weight per action that a tally counts."""
    return lambda v: len(v) == len(names), f"must hold one weight per action: {', '.join(names)}"


@dataclass(frozen=True)
class PipelineConfig:
    """Validated, typed settings for every pipeline stage, each declared
    once: its field holds its key, parser, default and rule."""

    maze_count: int = _setting("maze.count", int, "972", _AT_LEAST_1)
    maze_width: int = _setting("maze.width", int, "21", _ODD_SIDE)
    maze_height: int = _setting("maze.height", int, "21", _ODD_SIDE)
    space_seed: int = _setting("space.seed", int, "9001")
    cluster_branching: int = _setting("cluster.branching", int, "2", _AT_LEAST_2)
    cluster_k: int = _setting("cluster.k", int, "100", _AT_LEAST_2)
    cluster_threshold_grid: tuple[float, ...] = _setting(
        "cluster.threshold_grid",
        lambda raw: tuple(sorted(set(_parse_floats(raw)))),
        "0.005, 0.01, 0.02, 0.04, 0.08",
        (lambda v: min(v) > 0, "must hold only positive thresholds"),
    )
    cluster_sample_cap: int = _setting("cluster.sample_cap", int, "2000", _AT_LEAST_2)
    cluster_seed: int = _setting("cluster.seed", int, "0")
    positive_weights: tuple[float, ...] = _setting(
        "score.positive_weights", _parse_floats, "1, 1", _one_weight_each(POSITIVE_ACTION_NAMES)
    )
    negative_weights: tuple[float, ...] = _setting(
        "score.negative_weights", _parse_floats, "1, 1", _one_weight_each(NEGATIVE_ACTION_NAMES)
    )
    # Session scores that separate the three mastery bands. Calibrated
    # against the bundled bot policies on the practice game (200 seeds
    # each): random play stays almost entirely below 3, greedy play splits
    # roughly evenly across the three bands.
    easy_medium: float = _setting("score.easy_medium", _parse_float, "3.0")
    medium_hard: float = _setting("score.medium_hard", _parse_float, "9.0")
    sim_players: int = _setting("sim.players", int, "10", _AT_LEAST_1)
    sim_sessions: int = _setting("sim.sessions", int, "25", _AT_LEAST_1)
    sim_policy: str = _setting("sim.policy", str, "greedy", _POLICY)
    sim_seed: int = _setting("sim.seed", int, "4242")
    # batch runs reopen exhausted clusters so small clusters do not starve
    # a whole cohort
    sim_recycle: bool = _setting("sim.recycle", _parse_bool, "true")
    stats_min_n: int = _setting("stats.min_n", int, "30", _AT_LEAST_1)
    stats_ci_level: float = _setting("stats.ci_level", _parse_float, "0.99", _OPEN_UNIT)
    stats_significance: float = _setting("stats.significance", _parse_float, "0.01", _OPEN_UNIT)
    compounds_path: str = _setting("knowledge.compounds_path", str)
    table_path: str = _setting("knowledge.table_path", str)

    def config_hash(self) -> str:
        """Digest of the canonical serialization of the effective config."""
        return hashlib.sha256(serialize_config(self).encode("utf-8")).hexdigest()


def _canonical_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: PipelineConfig) -> str:
    """Canonical text form: sorted `key = value` lines."""
    lines = [
        f"{f.metadata['key']} = {_canonical_value(getattr(config, f.name))}"
        for f in fields(config)
    ]
    return "\n".join(sorted(lines)) + "\n"


def _parse_lines(text: str, source: str, keys) -> dict[str, str]:
    values: dict[str, str] = {}
    first_lines: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigInvalid(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise ConfigInvalid(f"{source}:{lineno}: unknown key {key!r}")
        if (first := first_lines.setdefault(key, lineno)) != lineno:
            raise ConfigInvalid(f"{source}:{lineno}: key {key!r} repeats line {first}")
        values[key] = raw_value.strip()
    return values


def load_config(
    path: str | Path | None = None,
    overrides: dict[str, str] | None = None,
) -> PipelineConfig:
    """Build the effective config from defaults, an optional file, and overrides.

    ``overrides`` maps config keys to raw string values (used for CLI flags)
    and is applied after the file.
    """
    settings = fields(PipelineConfig)
    raw = {f.metadata["key"]: f.metadata["default"] for f in settings}
    if path is not None:
        text = read_text(path, "config file", ConfigInvalid)
        raw.update(_parse_lines(text, str(path), raw))
    for key, value in (overrides or {}).items():
        if key not in raw:
            raise ConfigInvalid(f"unknown override key {key!r}")
        raw[key] = value

    kwargs = {}
    for f in settings:
        key, rule = f.metadata["key"], f.metadata["rule"]
        try:
            kwargs[f.name] = value = f.metadata["parse"](raw[key])
        except (ValueError, TypeError) as exc:
            raise ConfigInvalid(f"bad value for {key}: {raw[key]!r} ({exc})") from exc
        if rule is not None and not rule[0](value):
            raise ConfigInvalid(f"{key} {rule[1]}")
    config = PipelineConfig(**kwargs)
    for holds, message in _JOINT_RULES:
        if not holds(config):
            raise ConfigInvalid(message)
    return config


def default_config_text() -> str:
    """A fully commented config file with every key at its default."""
    lines = ["# segforge pipeline configuration", "#"]
    settings = sorted((f.metadata["key"], f.metadata["default"]) for f in fields(PipelineConfig))
    for key, default in settings:
        lines.append(f"{key} = {default}" if default else f"# {key} =")
    return "\n".join(lines) + "\n"
