"""Tests for config parsing, validation and canonical hashing."""

from __future__ import annotations

import hashlib
import inspect
from dataclasses import fields

import pytest

from segforge import clustering, contentspace, engine, gamestats
from segforge.cli import main
from segforge.config import (
    ConfigInvalid,
    PipelineConfig,
    default_config_text,
    load_config,
    serialize_config,
)

# `segforge init-config` and the default config's hash, which every artifact
# of a default run embeds; both change only with a default
INIT_CONFIG_SHA256 = "c90df95c16915970fa9c76f45082ec80732c0791cf32a7ace3e7095ec33b08d2"
DEFAULT_CONFIG_HASH = "05992b419945f1795cadd4ca540f8cff6f7893de2ec83d8628cdff99e1653b39"

# parameters whose value is a config setting, so that no library default
# can differ from the one the pipeline runs
SETTING_PARAMETERS = {
    "grid",
    "k",
    "branching",
    "sample_cap",
    "seed",
    "width",
    "height",
    "base_seed",
    "easy_medium",
    "medium_hard",
    "positive_weights",
    "negative_weights",
    "recycle",
    "ci_level",
    "significance",
    "min_n",
}


def test_defaults_load_without_file():
    config = load_config()
    assert config.maze_count == 972
    assert config.maze_width == 21
    assert config.cluster_k == 100
    assert config.cluster_branching == 2
    assert config.cluster_threshold_grid == (0.005, 0.01, 0.02, 0.04, 0.08)
    assert config.positive_weights == (1.0, 1.0)
    assert config.easy_medium < config.medium_hard
    assert config.sim_policy == "greedy"


def test_file_values_override_defaults(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "# comment\n"
        "\n"
        "maze.count = 12\n"
        "sim.policy = random\n"
        "cluster.threshold_grid = 0.5, 0.25\n"
        "sim.recycle = false\n"
    )
    config = load_config(path)
    assert config.maze_count == 12
    assert config.sim_policy == "random"
    assert config.cluster_threshold_grid == (0.25, 0.5)  # sorted, deduped
    assert config.sim_recycle is False
    assert config.maze_width == 21  # untouched default


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("maze.cont = 5\n")
    with pytest.raises(ConfigInvalid, match="unknown key"):
        load_config(path)


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("maze.count 5\n")
    with pytest.raises(ConfigInvalid, match="expected 'key = value'"):
        load_config(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigInvalid, match="not found"):
        load_config(tmp_path / "absent.conf")


def test_repeated_key_rejected(tmp_path):
    path = tmp_path / "twice.conf"
    path.write_text("maze.count = 54\n# later\nmaze.count = 60\n")
    with pytest.raises(ConfigInvalid) as info:
        load_config(path)
    assert str(info.value) == f"{path}:3: key 'maze.count' repeats line 1"


# the cases that test_config_fault_names_its_key does not generate: a second
# value past a rule's bound, the rule that joins two settings, values that
# are not finite inside a list or of another kind than nan, and empty items
@pytest.mark.parametrize(
    "line,fragment",
    [
        ("maze.width = 3", "odd"),
        ("score.easy_medium = 12", "below"),
        ("cluster.sample_cap = 100", "cluster.sample_cap must exceed cluster.k"),
        ("cluster.threshold_grid = -0.5", "positive"),
        ("cluster.threshold_grid = nan, 0.01", "finite"),
        ("score.positive_weights = nan, inf", "finite"),
        ("score.positive_weights = 1,,1", "bad value"),
        ("cluster.threshold_grid = 0.01, 0.02,", "bad value"),
        ("score.easy_medium = -inf", "finite"),
    ],
)
def test_validation_failures(tmp_path, line, fragment):
    path = tmp_path / "bad.conf"
    path.write_text(line + "\n")
    with pytest.raises(ConfigInvalid, match=fragment):
        load_config(path)


# text that the parser of a setting of each type refuses; a str setting
# takes any text
UNPARSEABLE = {"int": "many", "bool": "maybe", "float": "high", "tuple[float, ...]": "0.5, x"}
# for each setting that has a rule, a value that breaks it and the text of
# the rule, as its one stderr line must give it after the key
RULE_BREAKERS = {
    "maze.count": ("0", "must be at least 1"),
    "maze.width": ("20", "must be an odd number >= 5"),
    "maze.height": ("1", "must be an odd number >= 5"),
    "cluster.branching": ("1", "must be at least 2"),
    "cluster.k": ("1", "must be at least 2"),
    "cluster.threshold_grid": ("0.01, 0", "must hold only positive thresholds"),
    "cluster.sample_cap": ("0", "must be at least 2"),
    "score.positive_weights": (
        "1",
        "must hold one weight per action: correct_collections, accurate_shots",
    ),
    "score.negative_weights": (
        "1, 1, 1",
        "must hold one weight per action: life_losses, wrong_collections",
    ),
    "sim.players": ("0", "must be at least 1"),
    "sim.sessions": ("-1", "must be at least 1"),
    "sim.policy": ("clever", "must be one of random, greedy"),
    "stats.min_n": ("0", "must be at least 1"),
    "stats.ci_level": ("1.5", "must lie in (0, 1)"),
    "stats.significance": ("0", "must lie in (0, 1)"),
}


def _config_faults():
    """For every setting: text its parser refuses, a value that breaks its
    rule, and nan for a float; None stands for a case the tables lack, and
    a rule case of a setting without a rule fails as well."""
    cases = []
    for f in fields(PipelineConfig):
        key = f.metadata["key"]
        if f.type != "str":
            text = UNPARSEABLE.get(f.type)
            cases.append(pytest.param(key, text, f"bad value for {key}: ", id=f"{key} = {text}"))
        if f.metadata["rule"] is not None or key in RULE_BREAKERS:
            text, must = RULE_BREAKERS.get(key, (None, None))
            cases.append(pytest.param(key, text, f"{key} {must}", id=f"{key} = {text}"))
        if "float" in f.type:
            message = f"bad value for {key}: 'nan' ('nan' is not a finite number)"
            cases.append(pytest.param(key, "nan", message, id=f"{key} = nan"))
    return cases


@pytest.mark.parametrize("key, text, message", _config_faults())
def test_config_fault_names_its_key(tmp_path, capsys, key, text, message):
    assert text is not None, f"{key} has no fault case for its parser or its rule"
    config = tmp_path / "fault.conf"
    config.write_text(f"{key} = {text}\n")
    out = tmp_path / "o"
    assert main(["annotate", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"segforge annotate: {message}")
    assert not (out / "annotations.jsonl").exists()


def test_overrides_apply_after_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("space.seed = 1\n")
    config = load_config(path, overrides={"space.seed": "5", "sim.seed": "5"})
    assert config.space_seed == 5
    assert config.sim_seed == 5


def test_unknown_override_rejected():
    with pytest.raises(ConfigInvalid, match="unknown override"):
        load_config(overrides={"space.sed": "5"})


def test_hash_is_stable_and_value_sensitive(tmp_path):
    base = load_config()
    assert base.config_hash() == load_config().config_hash()
    changed = load_config(overrides={"maze.count": "10"})
    assert changed.config_hash() != base.config_hash()


def test_hash_ignores_formatting(tmp_path):
    a = tmp_path / "a.conf"
    b = tmp_path / "b.conf"
    a.write_text("score.positive_weights = 1,1\nmaze.count=10\n")
    b.write_text("# different layout\nmaze.count = 10\nscore.positive_weights = 1.0, 1.0\n")
    assert load_config(a).config_hash() == load_config(b).config_hash()


def test_serialization_is_sorted_and_complete():
    text = serialize_config(load_config())
    lines = text.strip().splitlines()
    assert lines == sorted(lines)
    assert any(line.startswith("maze.count = ") for line in lines)
    assert any(line.startswith("stats.significance = ") for line in lines)


def test_default_template_round_trips(tmp_path):
    path = tmp_path / "template.conf"
    path.write_text(default_config_text())
    config = load_config(path)
    assert config.config_hash() == load_config().config_hash()


def test_init_config_text_and_default_hash_are_pinned(capsys):
    assert main(["init-config"]) == 0
    text = capsys.readouterr().out
    assert text == default_config_text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == INIT_CONFIG_SHA256
    assert load_config().config_hash() == DEFAULT_CONFIG_HASH


def test_no_library_function_defaults_a_setting():
    defaulted = []
    for module in (clustering, contentspace, engine, gamestats):
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) or obj.__module__ != module.__name__:
                continue
            try:
                parameters = inspect.signature(obj).parameters.values()
            except ValueError:  # a callable without a signature, such as an enum
                continue
            defaulted += [
                f"{module.__name__}.{name}({p.name}=...)"
                for p in parameters
                if p.name in SETTING_PARAMETERS and p.default is not p.empty
            ]
    assert defaulted == []
