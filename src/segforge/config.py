"""Pipeline configuration: a small key=value file with typed, validated keys.

Unknown keys are rejected so typos fail loudly. The effective configuration
(defaults, then file, then flag overrides) is hashed canonically; every
artifact embeds that hash so downstream stages can detect drift.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from pathlib import Path

from .engine import POLICIES
from .errors import SegforgeError


class ConfigInvalid(SegforgeError):
    """The configuration file or an override could not be validated."""


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_floats(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


def _parse_grid(raw: str) -> tuple[float, ...]:
    values = _parse_floats(raw)
    if any(v <= 0 for v in values):
        raise ValueError("thresholds must be positive")
    return tuple(sorted(set(values)))


# key -> (attribute, parser, default as written in a config file)
_KEYS: dict[str, tuple[str, object, str]] = {
    "maze.count": ("maze_count", int, "972"),
    "maze.width": ("maze_width", int, "21"),
    "maze.height": ("maze_height", int, "21"),
    "space.seed": ("space_seed", int, "9001"),
    "cluster.branching": ("cluster_branching", int, "2"),
    "cluster.k": ("cluster_k", int, "100"),
    "cluster.threshold_grid": ("cluster_threshold_grid", _parse_grid, "0.005, 0.01, 0.02, 0.04, 0.08"),
    "cluster.sample_cap": ("cluster_sample_cap", int, "2000"),
    "cluster.seed": ("cluster_seed", int, "0"),
    "score.positive_weights": ("positive_weights", _parse_floats, "1, 1"),
    "score.negative_weights": ("negative_weights", _parse_floats, "1, 1"),
    # calibrated against the bundled bot policies; see engine defaults
    "score.easy_medium": ("easy_medium", float, "3.0"),
    "score.medium_hard": ("medium_hard", float, "9.0"),
    "sim.players": ("sim_players", int, "10"),
    "sim.sessions": ("sim_sessions", int, "25"),
    "sim.policy": ("sim_policy", str, "greedy"),
    "sim.seed": ("sim_seed", int, "4242"),
    # batch runs reopen exhausted clusters so small clusters do not starve
    # a whole cohort; single sessions still fail fast by default
    "sim.recycle": ("sim_recycle", _parse_bool, "true"),
    "stats.min_n": ("stats_min_n", int, "30"),
    "stats.ci_level": ("stats_ci_level", float, "0.99"),
    "stats.significance": ("stats_significance", float, "0.01"),
    "knowledge.compounds_path": ("compounds_path", str, ""),
    "knowledge.table_path": ("table_path", str, ""),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Validated, typed settings for every pipeline stage."""

    maze_count: int
    maze_width: int
    maze_height: int
    space_seed: int
    cluster_branching: int
    cluster_k: int
    cluster_threshold_grid: tuple[float, ...]
    cluster_sample_cap: int
    cluster_seed: int
    positive_weights: tuple[float, ...]
    negative_weights: tuple[float, ...]
    easy_medium: float
    medium_hard: float
    sim_players: int
    sim_sessions: int
    sim_policy: str
    sim_seed: int
    sim_recycle: bool
    stats_min_n: int
    stats_ci_level: float
    stats_significance: float
    compounds_path: str
    table_path: str

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
    by_attr = {attr: key for key, (attr, _, _) in _KEYS.items()}
    lines = []
    for f in fields(config):
        lines.append(f"{by_attr[f.name]} = {_canonical_value(getattr(config, f.name))}")
    return "\n".join(sorted(lines)) + "\n"


def _validate(config: PipelineConfig) -> None:
    checks = (
        (config.maze_count >= 1, "maze.count must be at least 1"),
        (config.maze_width >= 5 and config.maze_width % 2 == 1, "maze.width must be an odd number >= 5"),
        (config.maze_height >= 5 and config.maze_height % 2 == 1, "maze.height must be an odd number >= 5"),
        (config.cluster_branching >= 2, "cluster.branching must be at least 2"),
        (config.cluster_k >= 2, "cluster.k must be at least 2"),
        (config.cluster_sample_cap >= 2, "cluster.sample_cap must be at least 2"),
        (len(config.cluster_threshold_grid) >= 1, "cluster.threshold_grid must not be empty"),
        (config.easy_medium < config.medium_hard, "score.easy_medium must lie below score.medium_hard"),
        (config.sim_players >= 1, "sim.players must be at least 1"),
        (config.sim_sessions >= 1, "sim.sessions must be at least 1"),
        (config.sim_policy in POLICIES, f"sim.policy must be one of {', '.join(POLICIES)}"),
        (config.stats_min_n >= 1, "stats.min_n must be at least 1"),
        (0.0 < config.stats_ci_level < 1.0, "stats.ci_level must lie in (0, 1)"),
        (0.0 < config.stats_significance < 1.0, "stats.significance must lie in (0, 1)"),
    )
    for ok, message in checks:
        if not ok:
            raise ConfigInvalid(message)


def _parse_lines(text: str, source: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigInvalid(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigInvalid(f"{source}:{lineno}: unknown key {key!r}")
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
    raw = {key: default for key, (_, _, default) in _KEYS.items()}
    if path is not None:
        file_path = Path(path)
        if not file_path.is_file():
            raise ConfigInvalid(f"config file not found: {file_path}")
        try:
            text = file_path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigInvalid(f"{file_path}: not UTF-8 text ({exc})") from None
        raw.update(_parse_lines(text, str(file_path)))
    for key, value in (overrides or {}).items():
        if key not in _KEYS:
            raise ConfigInvalid(f"unknown override key {key!r}")
        raw[key] = value

    kwargs = {}
    for key, (attr, parser, _) in _KEYS.items():
        try:
            kwargs[attr] = parser(raw[key])
        except (ValueError, TypeError) as exc:
            raise ConfigInvalid(f"bad value for {key}: {raw[key]!r} ({exc})") from exc
    config = PipelineConfig(**kwargs)
    _validate(config)
    return config


def default_config_text() -> str:
    """A fully commented config file with every key at its default."""
    lines = ["# segforge pipeline configuration", "#"]
    for key, (_, _, default) in sorted(_KEYS.items()):
        lines.append(f"{key} = {default}" if default else f"# {key} =")
    return "\n".join(lines) + "\n"
