"""End-to-end tests for the stage subcommands and their artifacts."""

from __future__ import annotations

import ast
import errno
import gc
import hashlib
import importlib
import importlib.util
import json
import logging
import os
import re
import shutil
import signal
import sqlite3
import stat
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import pytest

from segforge import cli, knowledge
from segforge.cli import ARTIFACTS, STAGE_TABLE, main
from segforge.clustering import ClusterSummary, NoFeasibleThreshold, ThresholdCandidate
from segforge.config import load_config
from segforge.contentspace import (
    FEATURE_NAMES,
    PATH,
    Difficulty,
    extract_features,
    maze_from_record,
    maze_record_json,
)
from segforge.engine import ActionTally, SessionRecord, SimEvent, maze_tree
from segforge.knowledge import CompoundAnnotation
from segforge.mapping import (
    ContentLibrary,
    GameRecord,
    MappingEntry,
    load_library,
    validate_library,
)

TEST_CONFIG = """\
maze.count = 24
sim.players = 4
sim.sessions = 10
stats.min_n = 5
"""


# every (stage, artifact) pair of the read matrix, in table order
READS = [(stage, name) for stage, entry in STAGE_TABLE.items() for name in entry.reads]


def _read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_run")
    config = root / "run.conf"
    config.write_text(TEST_CONFIG)
    out = root / "out"
    exit_code = main(["pipeline", "--config", str(config), "--out", str(out)])
    assert exit_code == 0
    return config, out


def test_pipeline_writes_all_artifacts(workdir):
    _, out = workdir
    declared = {name for stage in STAGE_TABLE.values() for name in stage.writes}
    # every declared file, and no lock or temporary file
    assert {path.name for path in out.iterdir()} == declared


def test_artifacts_have_the_mode_of_a_new_file(workdir):
    _, out = workdir
    probe = out / "probe"
    probe.open("w").close()
    try:
        expected = stat.S_IMODE(probe.stat().st_mode)
    finally:
        probe.unlink()
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in out.iterdir()}
    assert modes == dict.fromkeys(modes, expected)


@pytest.mark.parametrize(
    "stage, name",
    [
        ("categorize", "games.csv"),
        ("map", "library.sqlite"),
        ("map", "library.json"),
        ("simulate", "events.jsonl"),
    ],
)
def test_directory_at_an_output_fails_cleanly(workdir, tmp_path, capsys, stage, name):
    config, out = workdir
    run = tmp_path / "run"
    shutil.copytree(out, run)
    (run / name).unlink()
    (run / name).mkdir()
    names = sorted(path.name for path in run.iterdir())
    assert main([stage, "--config", str(config), "--out", str(run)]) == 1
    assert capsys.readouterr().err == (
        f"segforge {stage}: cannot write {run / name}: Is a directory\n"
    )
    # no temporary file or lock is left, and the directory stays
    assert sorted(path.name for path in run.iterdir()) == names
    assert (run / name).is_dir()


class _FullDisk:
    """A lock file handle whose write fails as on a full disk."""

    def __init__(self, fd, *args, **kwargs):
        os.close(fd)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("fault", ["create", "write"])
def test_lock_that_cannot_be_written_fails_cleanly(tmp_path, monkeypatch, capsys, fault):
    lock = tmp_path / ".segforge.lock"
    real_open = os.open

    def refuse_lock(path, *args, **kwargs):
        if Path(path) == lock:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return real_open(path, *args, **kwargs)

    if fault == "create":
        monkeypatch.setattr(cli.os, "open", refuse_lock)
    else:
        monkeypatch.setattr(cli.os, "fdopen", _FullDisk)
    assert main(["annotate", "--out", str(tmp_path)]) == 1
    code = errno.EACCES if fault == "create" else errno.ENOSPC
    assert capsys.readouterr().err == (
        f"segforge annotate: cannot write {lock}: {os.strerror(code)}\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("holder", ["none", "dead"])
def test_lock_file_has_the_mode_of_a_new_file(tmp_path, holder):
    lock = tmp_path / ".segforge.lock"
    if holder == "dead":
        # a lock naming a reaped pid is taken over with a fresh file
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        lock.write_text(f"{child.pid}\n")
        lock.chmod(0o600)  # a lock file kept rather than made anew would show it
    probe = tmp_path / "probe"
    probe.open("w").close()
    expected = stat.S_IMODE(probe.stat().st_mode)
    with cli._WorkspaceLock(tmp_path):
        mode = stat.S_IMODE(lock.stat().st_mode)
    assert not mode & 0o111
    assert mode == expected


def test_annotations_cover_the_dataset(workdir):
    _, out = workdir
    lines = (out / "annotations.jsonl").read_text().strip().splitlines()
    meta = json.loads(lines[0])
    assert meta["artifact"] == "annotations"
    assert meta["count"] == 100
    records = [json.loads(line) for line in lines[1:]]
    assert [r["compound_id"] for r in records] == list(range(1, 101))


def test_space_has_fifty_variants_per_maze(workdir):
    _, out = workdir
    rows = _read_rows(out / "games.csv")
    assert len(rows) == 24 * 50
    split = {"easy": 0, "medium": 0, "hard": 0}
    for row in rows:
        split[row["difficulty"]] += 1
    assert split == {"easy": 24 * 15, "medium": 24 * 20, "hard": 24 * 15}


def test_cluster_stage_yields_k_per_level(workdir):
    _, out = workdir
    rows = _read_rows(out / "clusters.csv")
    assert len(rows) == 300
    per_level = {"easy": 0, "medium": 0, "hard": 0}
    for row in rows:
        per_level[row["difficulty"]] += 1
    assert per_level == {"easy": 100, "medium": 100, "hard": 100}
    members = _read_rows(out / "membership.csv")
    assert len(members) == 24 * 50
    sizes = {}
    for row in members:
        sizes[row["cluster_id"]] = sizes.get(row["cluster_id"], 0) + 1
    for row in rows:
        assert sizes[row["cluster_id"]] == int(row["n"])


def test_threshold_log_covers_the_grid(workdir):
    _, out = workdir
    rows = _read_rows(out / "threshold_log.csv")
    per_level = {}
    for row in rows:
        per_level.setdefault(row["difficulty"], []).append(float(row["threshold"]))
    for level, grid in per_level.items():
        assert grid == sorted(grid)
        assert len(grid) == 5


def test_threshold_log_marks_the_best_candidate(workdir):
    _, out = workdir
    rows = _read_rows(out / "threshold_log.csv")
    for level in ("easy", "medium", "hard"):
        level_rows = [row for row in rows if row["difficulty"] == level]
        chosen = [row for row in level_rows if row["selected"] == "true"]
        assert len(chosen) == 1
        scored = [row for row in level_rows if row["silhouette"]]
        best = max(float(row["silhouette"]) for row in scored)
        assert float(chosen[0]["silhouette"]) == best


def test_library_maps_every_compound_at_every_level(workdir):
    _, out = workdir
    payload = json.loads((out / "library.json").read_text())
    assert len(payload["mapping"]) == 300
    seen = {(m["compound_id"], m["difficulty"]) for m in payload["mapping"]}
    assert len(seen) == 300
    assert len({m["cluster_id"] for m in payload["mapping"]}) == 300


def test_sessions_meta_and_fields(workdir):
    _, out = workdir
    lines = (out / "sessions.jsonl").read_text().strip().splitlines()
    meta = json.loads(lines[0])
    assert meta["players"] == 4
    assert meta["policy"] == "greedy"
    records = [json.loads(line) for line in lines[1:]]
    assert len(records) == 4 * 10
    for record in records:
        assert record["difficulty"] in ("easy", "medium", "hard")
        assert 1 <= record["duration"] <= 90
        assert record["outcome"] in ("victory", "defeat")


def test_report_numbers_match_sessions(workdir):
    _, out = workdir
    rows = {r["metric"]: r["value"] for r in _read_rows(out / "report_numbers.csv")}
    assert rows["total_sessions"] == "40"
    text = (out / "report.txt").read_text()
    assert "Survey analysis" in text
    assert "sessions analyzed: 40" in text


def test_artifacts_embed_config_hash(workdir):
    config, out = workdir
    first_csv_line = (out / "games.csv").read_text().splitlines()[0]
    assert first_csv_line.startswith("# config_hash=")
    embedded = first_csv_line.split("=", 1)[1]
    meta = json.loads((out / "mazes.jsonl").read_text().splitlines()[0])
    assert meta["config_hash"] == embedded


def test_record_fields_are_the_artifact_schema(workdir):
    _, out = workdir

    def names(cls):
        return {f.name for f in fields(cls)}

    def header(name):
        return (out / name).read_text().splitlines()[1].split(",")

    def keys(name):
        lines = (out / name).read_text().splitlines()[1:]
        return {key for line in lines for key in json.loads(line)}

    conn = sqlite3.connect(out / "library.sqlite")
    try:
        for table, columns in (
            ("games", names(GameRecord)),
            ("compounds", names(CompoundAnnotation)),
            ("clusters", names(ClusterSummary) - {"member_game_ids"}),
            ("mapping", names(MappingEntry)),
        ):
            found = {row[1] for row in conn.execute(f"PRAGMA table_info({table})")}
            assert found == columns, table
    finally:
        conn.close()
    payload = json.loads((out / "library.json").read_text())
    for section, cls in (
        ("games", GameRecord),
        ("compounds", CompoundAnnotation),
        ("clusters", ClusterSummary),
        ("mapping", MappingEntry),
    ):
        assert {key for record in payload[section] for key in record} == names(cls), section
    assert header("games.csv") == [f.name for f in fields(GameRecord)]
    # the centroid spreads over one column per feature; members are in
    # membership.csv
    scalars = [
        f.name for f in fields(ClusterSummary) if f.name not in ("centroid", "member_game_ids")
    ]
    centroid = [f"c{i}" for i in range(len(FEATURE_NAMES))]
    assert header("clusters.csv") == scalars + centroid
    assert header("threshold_log.csv") == (
        ["difficulty"] + [f.name for f in fields(ThresholdCandidate)] + ["selected"]
    )
    # tally is spread into its count lists; events go to events.jsonl
    session_keys = names(SessionRecord) - {"tally", "events"} | names(ActionTally)
    assert keys("sessions.jsonl") == session_keys
    assert keys("events.jsonl") == {"player_id", "game_id"} | names(SimEvent)


def test_truncated_maze_store_fails_cleanly(workdir, tmp_path, capsys):
    config, out = workdir
    broken = tmp_path / "truncated"
    broken.mkdir()
    shutil.copyfile(out / "library.sqlite", broken / "library.sqlite")
    text = (out / "mazes.jsonl").read_text()
    (broken / "mazes.jsonl").write_text(text[: len(text) // 2])
    last_line = len(text[: len(text) // 2].splitlines())
    assert main(["simulate", "--config", str(config), "--out", str(broken)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert f"mazes.jsonl line {last_line}" in err


def test_maze_missing_from_store_fails_cleanly(workdir, tmp_path, capsys):
    config, out = workdir
    broken = tmp_path / "gap"
    broken.mkdir()
    shutil.copyfile(out / "library.sqlite", broken / "library.sqlite")
    lines = (out / "mazes.jsonl").read_text().splitlines()
    kept = [line for line in lines if json.loads(line).get("maze_id") != "m0007"]
    assert len(kept) == len(lines) - 1
    # the meta line counts the records that are left
    kept[0] = json.dumps({**json.loads(kept[0]), "count": len(kept) - 1})
    (broken / "mazes.jsonl").write_text("\n".join(kept) + "\n")
    assert main(["simulate", "--config", str(config), "--out", str(broken)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "mazes.jsonl" in err and "'m0007'" in err
    assert not (broken / "sessions.jsonl").exists()


def _open_a_wall(grid, defect):
    """The cells of ``grid`` with one wall opened: between two path cells
    (a loop), or in the corner, where no path cell touches it (an island)."""
    rows = [list(row) for row in grid.cells]
    if defect == "island":
        rows[0][0] = PATH
    else:
        x, y = next(
            (x, y)
            for y in range(1, grid.height - 1)
            for x in range(1, grid.width - 1)
            if rows[y][x] != PATH and rows[y][x - 1] == rows[y][x + 1] == PATH
        )
        rows[y][x] = PATH
    return tuple(tuple(row) for row in rows)


def _grow_a_dead_end(grid):
    """The cells of ``grid`` with one wall opened beside a dead end where no
    other path cell touches it, so the maze stays a tree one cell larger.
    Inside the lattice every wall beside a dead end leads to another room, so
    the opened cell lies on the border ring."""
    rows = [list(row) for row in grid.cells]
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))

    def path_neighbors(x, y):
        return [
            (x + dx, y + dy)
            for dx, dy in steps
            if 0 <= x + dx < grid.width and 0 <= y + dy < grid.height
            and rows[y + dy][x + dx] == PATH
        ]

    x, y = next(
        (x + dx, y + dy)
        for y in range(grid.height)
        for x in range(grid.width)
        if rows[y][x] == PATH and len(path_neighbors(x, y)) == 1
        for dx, dy in steps
        if 0 <= x + dx < grid.width and 0 <= y + dy < grid.height
        and rows[y + dy][x + dx] != PATH and path_neighbors(x + dx, y + dy) == [(x, y)]
    )
    rows[y][x] = PATH
    return tuple(tuple(row) for row in rows)


@pytest.mark.parametrize("served", [True, False], ids=["served", "unserved"])
@pytest.mark.parametrize(
    "defect", ["loop", "island", "stale-record", "stale-library", "undecodable"]
)
def test_broken_maze_stops_simulate_where_served_and_verify_always(
    workdir, tmp_path, capsys, defect, served
):
    """One maze of the unbroken run breaks: a wall opens into a loop or an
    island; its cells gain one path cell while the features stay stale in
    its mazes.jsonl record, or only in the library's game rows; or its cells
    do not decode. simulate checks a maze when a game on it is first served,
    so only a maze that a session serves stops it; verify names either."""
    config, out = workdir
    maze_of = {row["game_id"]: row["maze_id"] for row in _read_rows(out / "games.csv")}
    sessions = [json.loads(line) for line in (out / "sessions.jsonl").open()][1:]
    played = {maze_of[s["game_id"]] for s in sessions}
    maze_id = min(played) if served else min(set(maze_of.values()) - played)
    broken = tmp_path / "broken"
    broken.mkdir()
    shutil.copyfile(out / "library.sqlite", broken / "library.sqlite")
    lines = (out / "mazes.jsonl").read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if json.loads(line).get("maze_id") == maze_id)
    grid, features = maze_from_record(json.loads(lines[index]))
    if defect in ("loop", "island"):
        grid = type(grid)(**{**vars(grid), "cells": _open_a_wall(grid, defect)})
        expected = [f"{maze_id!r} is not a perfect maze"]
        lines[index] = maze_record_json(grid, features)
    elif defect == "undecodable":
        record = json.loads(lines[index])
        record["cells"] = record["cells"][:-1]
        lines[index] = json.dumps(record)
        expected = [f"mazes.jsonl line {index + 1}: maze {maze_id!r}: ValueError"]
    else:
        grid = type(grid)(**{**vars(grid), "cells": _grow_a_dead_end(grid)})
        maze_tree(grid)  # still a perfect maze
        grown = extract_features(grid)
        assert grown.total_path == features.total_path + 1
        holder = "in its record" if defect == "stale-record" else "in library game"
        expected = [f"{maze_id!r} has total_path {grown.total_path}", f"{features.total_path} {holder}"]
        lines[index] = maze_record_json(grid, grown if defect == "stale-library" else features)
    (broken / "mazes.jsonl").write_text("\n".join(lines) + "\n")

    simulated = main(["simulate", "--config", str(config), "--out", str(broken)])
    simulate_err = capsys.readouterr().err
    assert main(["verify", "--config", str(config), "--out", str(broken)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("segforge verify: mazes.jsonl")
    assert all(part in err for part in expected), err
    if served:
        assert simulated == 1
        assert simulate_err == err.replace("segforge verify:", "segforge simulate:", 1)
        assert not (broken / "sessions.jsonl").exists()
    else:
        assert (simulated, simulate_err) == (0, "")
        for name in ("sessions.jsonl", "events.jsonl"):
            assert (broken / name).read_bytes() == (out / name).read_bytes(), name


# each defect of a library row, as the SQL that puts it on the game and
# cluster bound to :game and :cluster
LIBRARY_DEFECTS = {
    "unknown-difficulty": "UPDATE games SET difficulty = 'eazy' WHERE game_id = :game",
    "non-finite-complexity": "UPDATE games SET complexity = 9e999 WHERE game_id = :game",
    "wrong-n": "UPDATE clusters SET n = n + 1 WHERE cluster_id = :cluster",
    "missing-member": "DELETE FROM games WHERE game_id = :game",
    "member-of-another-level": (
        "UPDATE games SET difficulty = CASE difficulty WHEN 'hard' THEN 'easy' ELSE 'hard' END "
        "WHERE game_id = :game"
    ),
}


@pytest.mark.parametrize("served", [True, False], ids=["served", "unserved"])
@pytest.mark.parametrize("defect", sorted(LIBRARY_DEFECTS))
def test_broken_library_row_stops_simulate_where_served_and_verify_always(
    workdir, tmp_path, capsys, monkeypatch, defect, served
):
    """One cluster of the unbroken run's library breaks, in its own row or
    in a member's game row. simulate reads and checks a cluster, with its
    members' game rows, when a session first serves it, and the game rows
    on a maze when a game on that maze is first served. So the served
    cluster is the first session's, and the unserved one is served by no
    session and has a member on no maze a session plays; only the first
    stops simulate. verify checks the whole library and names either. Both
    close the library file, whether they return or raise."""
    config, out = workdir
    sessions = [json.loads(line) for line in (out / "sessions.jsonl").open()][1:]
    maze_of = {row["game_id"]: row["maze_id"] for row in _read_rows(out / "games.csv")}
    members: dict[str, list[str]] = {}
    for row in _read_rows(out / "membership.csv"):
        members.setdefault(row["cluster_id"], []).append(row["game_id"])
    conn = sqlite3.connect(out / "library.sqlite")
    mapping = conn.execute("SELECT compound_id, difficulty, cluster_id FROM mapping")
    cluster_of = {(compound_id, level): cluster for compound_id, level, cluster in mapping}
    conn.close()
    if served:
        game = sessions[0]["game_id"]
        cluster = cluster_of[sessions[0]["compound_id"], sessions[0]["difficulty"]]
    else:
        served_clusters = {cluster_of[s["compound_id"], s["difficulty"]] for s in sessions}
        played = {maze_of[s["game_id"]] for s in sessions}
        cluster, game = min(
            (cluster, game)
            for cluster, games in members.items()
            if cluster not in served_clusters
            for game in games
            if maze_of[game] not in played
        )
    assert game in members[cluster]
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ("library.sqlite", "mazes.jsonl"):
        shutil.copyfile(out / name, broken / name)
    conn = sqlite3.connect(broken / "library.sqlite")
    assert conn.execute(LIBRARY_DEFECTS[defect], {"game": game, "cluster": cluster}).rowcount == 1
    conn.commit()
    conn.close()
    opened = []

    def recording_load(*args, **kwargs):
        opened.append(load_library(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(cli, "load_library", recording_load)

    simulated = main(["simulate", "--config", str(config), "--out", str(broken)])
    simulate_err = capsys.readouterr().err
    assert main(["verify", "--config", str(config), "--out", str(broken)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("segforge verify: ") and "library.sqlite" in err, err
    if served:
        assert simulated == 1
        assert len(simulate_err.splitlines()) == 1
        assert simulate_err.startswith("segforge simulate: "), simulate_err
        assert "library.sqlite" in simulate_err and repr(cluster) in simulate_err, simulate_err
        assert not (broken / "sessions.jsonl").exists()
        assert not (broken / "events.jsonl").exists()
    else:
        assert (simulated, simulate_err) == (0, "")
        for name in ("sessions.jsonl", "events.jsonl"):
            assert (broken / name).read_bytes() == (out / name).read_bytes(), name
    assert len(opened) == 2
    for library in opened:
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            library._conn.execute("SELECT 1")


def _whole_library(path: str, expected_config_hash: str | None = None) -> ContentLibrary:
    """The library at ``path`` built whole in memory, every table read."""
    with load_library(path, expected_config_hash) as stored:
        whole = ContentLibrary(
            stored.compounds, stored.games, stored.clusters, stored.mapping, stored.metadata
        )
    validate_library(whole)
    return whole


@pytest.mark.parametrize("policy", ["random", "greedy"])
def test_library_read_on_demand_serves_as_the_whole_library(
    workdir, tmp_path, monkeypatch, policy
):
    """Oracle: at a sim.seed other than the default, simulate over the
    library built whole in memory from the same store writes the sessions
    and events that it writes over the library read on demand."""
    _, out = workdir
    config = tmp_path / "oracle.conf"
    config.write_text(TEST_CONFIG + f"sim.policy = {policy}\nsim.seed = 31337\n")
    written = {}
    for kind in ("on-demand", "whole"):
        run = tmp_path / kind
        run.mkdir()
        for name in ("library.sqlite", "mazes.jsonl"):
            shutil.copyfile(out / name, run / name)
        if kind == "whole":
            monkeypatch.setattr(cli, "load_library", _whole_library)
        assert main(["simulate", "--config", str(config), "--out", str(run)]) == 0
        written[kind] = [(run / name).read_bytes() for name in ("sessions.jsonl", "events.jsonl")]
    assert written["on-demand"] == written["whole"]
    assert written["whole"][0] != (out / "sessions.jsonl").read_bytes()


@pytest.mark.parametrize("text", ["", "nan", "-inf"], ids=["blank", "nan", "inf"])
def test_space_with_bad_feature_text_fails_in_categorize(workdir, tmp_path, capsys, text):
    config, out = workdir
    broken = tmp_path / "bad"
    broken.mkdir()
    lines = (out / "space.csv").read_text().splitlines()
    column = lines[1].split(",").index("complexity")
    row = lines[4].split(",")
    row[column] = text
    lines[4] = ",".join(row)
    (broken / "space.csv").write_text("\n".join(lines) + "\n")
    assert main(["categorize", "--config", str(config), "--out", str(broken)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "space.csv line 5" in err and repr(text) in err
    assert not (broken / "games.csv").exists()


def test_games_table_missing_a_column_fails_cleanly(workdir, tmp_path, capsys):
    config, out = workdir
    broken = tmp_path / "narrow"
    broken.mkdir()
    lines = (out / "games.csv").read_text().splitlines()
    column = lines[1].split(",").index("total_path")
    narrowed = [lines[0]] + [
        ",".join(v for i, v in enumerate(line.split(",")) if i != column) for line in lines[1:]
    ]
    (broken / "games.csv").write_text("\n".join(narrowed) + "\n")
    assert main(["cluster", "--config", str(config), "--out", str(broken)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "games.csv line 2" in err and "total_path" in err


@pytest.mark.parametrize("mutation", ["header-removed", "column-dropped", "rows-cut"])
@pytest.mark.parametrize(
    "stage, name", [(stage, name) for stage, name in READS if ARTIFACTS[name].format == "csv"]
)
def test_csv_without_its_declared_header_fails_cleanly(
    workdir, tmp_path, capsys, stage, name, mutation
):
    """Line 2 of a CSV artifact must be its declared columns. Without that
    check a file cut to its hash line read as no rows, and a first row taken
    for the header would drop that row."""
    config, out = workdir
    run = tmp_path / "run"
    run.mkdir()
    for read in STAGE_TABLE[stage].reads:
        shutil.copyfile(out / read, run / read)
    lines = (out / name).read_text().splitlines()
    columns = ARTIFACTS[name].columns
    assert lines[1] == ",".join(columns)
    if mutation == "header-removed":
        del lines[1]
    elif mutation == "column-dropped":
        lines[1] = ",".join(columns[:1] + columns[2:])
    else:
        lines = lines[:1]
    (run / name).write_text("\n".join(lines) + "\n")
    assert main([stage, "--config", str(config), "--out", str(run)]) == 1
    assert capsys.readouterr().err == (
        f"segforge {stage}: {name} line 2: ValueError: the header is not {','.join(columns)}\n"
    )
    assert not any((run / written).exists() for written in STAGE_TABLE[stage].writes)


@pytest.mark.parametrize(
    "stage, name, column, text",
    [
        pytest.param("cluster", "games.csv", "difficulty", "eazy", id="cluster"),
        pytest.param("map", "games.csv", "difficulty", "eazy", id="map"),
        pytest.param("map", "clusters.csv", "difficulty", "eazy", id="map-clusters.csv"),
        pytest.param(
            "simulate", "library.sqlite", "difficulty", "eazy", id="simulate-library.sqlite"
        ),
        # a float field's parser, from the same table of field types, refuses
        # what is not a finite number
        pytest.param("cluster", "games.csv", "complexity", "nan", id="cluster-nan-complexity"),
        pytest.param("map", "clusters.csv", "c3", "inf", id="map-clusters.csv-inf-centroid"),
    ],
)
def test_game_with_unknown_difficulty_fails_cleanly(
    workdir, tmp_path, capsys, stage, name, column, text
):
    config, out = workdir
    broken = tmp_path / "eazy"
    shutil.copytree(out, broken)
    if name == "library.sqlite":
        # a game that the first session serves: simulate reads a game row
        # when it first serves the game's cluster
        served = json.loads((out / "sessions.jsonl").read_text().splitlines()[1])["game_id"]
        conn = sqlite3.connect(broken / name)
        conn.execute("UPDATE games SET difficulty = 'eazy' WHERE game_id = ?", (served,))
        conn.commit()
        conn.close()
        where = "library.sqlite"
    else:
        lines = (out / name).read_text().splitlines()
        level = lines[1].split(",").index("difficulty")
        rows = [line.split(",") for line in lines]
        number = next(i for i, row in enumerate(rows[2:], 2) if row[level] == "easy")
        rows[number][rows[1].index(column)] = text
        (broken / name).write_text("\n".join(",".join(row) for row in rows) + "\n")
        where = f"{name} line {number + 1}"
    assert main([stage, "--config", str(config), "--out", str(broken)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert where in err and repr(text) in err


def test_artifact_readers_give_each_level_as_a_difficulty(workdir):
    config, out = workdir
    config_hash = load_config(config).config_hash()
    library = load_library(str(out / "library.sqlite"))
    records = (
        cli._read(out, "games.csv", config_hash)
        + cli._read(out, "clusters.csv", config_hash)
        + library.games
        + library.clusters
        + library.mapping
    )
    assert {type(record.difficulty) for record in records} == {Difficulty}


@pytest.mark.parametrize(
    "stage, name",
    [
        pytest.param(stage, name, id=f"{stage}-{name}")
        for stage, name in READS
        if ARTIFACTS[name].key
    ],
)
def test_repeated_game_id_fails_cleanly(workdir, tmp_path, capsys, stage, name):
    """Line 6 repeated at the end of an artifact its stage reads. A repeated
    game row would count its game twice in a cluster and break the library's
    unique game ids; a repeated cluster or membership row would break the
    cluster sizes, and the later of two mazes or sessions would silently win."""
    config, out = workdir
    broken = tmp_path / "twice"
    shutil.copytree(out, broken)
    lines = (out / name).read_text().splitlines()
    copied = lines[5]
    if ARTIFACTS[name].format == "csv":
        record = dict(zip(lines[1].split(","), copied.split(",")))
    else:
        record = json.loads(copied)
        # the meta line counts the records, the repeated one too
        meta = json.loads(lines[0])
        if "count" in meta:
            lines[0] = json.dumps({**meta, "count": meta["count"] + 1})
    (broken / name).write_text("\n".join(lines + [copied]) + "\n")
    assert main([stage, "--config", str(config), "--out", str(broken)]) == 1
    err = capsys.readouterr().err.strip()
    named = ", ".join(f"{field} {record[field]!r}" for field in ARTIFACTS[name].key)
    assert err == (
        f"segforge {stage}: {name} line {len(lines) + 1}: ValueError: {named} repeats line 6"
    )


@pytest.mark.parametrize(
    "stage, name", [("map", "annotations.jsonl"), ("simulate", "mazes.jsonl")]
)
def test_record_count_other_than_the_meta_count_fails_cleanly(
    workdir, tmp_path, capsys, stage, name
):
    config, out = workdir
    broken = tmp_path / "short"
    shutil.copytree(out, broken)
    lines = (out / name).read_text().splitlines()
    count = json.loads(lines[0])["count"]
    assert len(lines) == count + 1
    (broken / name).write_text("\n".join(lines[:-1]) + "\n")
    assert main([stage, "--config", str(config), "--out", str(broken)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == (
        f"segforge {stage}: {name}: the meta line gives count {count}, "
        f"but {count - 1} records follow"
    )


@pytest.mark.parametrize(
    "lines, bad_line",
    [
        (["[1]", '{"fun": true, "pre_exam": 0, "post_exam": 1}'], 1),  # meta not an object
        (['{"artifact": "sessions"}', "[1, 2]"], 2),  # record not an object
        (['{"artifact": "sessions"}', '{"fun": true, "post_exam": 1}'], 2),  # no pre_exam
        (['{"fun": true, "pre_exam": 0, "post_exam": 1}'] * 31, 1),  # no meta line
        (['{"artifact": "annotations"}', '{"fun": true, "pre_exam": 0, "post_exam": 1}'], 1),
    ],
    ids=[
        "meta-not-object",
        "record-not-object",
        "record-without-pre-exam",
        "no-meta-line",
        "meta-of-another-artifact",
    ],
)
def test_malformed_sessions_fail_cleanly(workdir, tmp_path, capsys, lines, bad_line):
    config, _ = workdir
    sessions = tmp_path / "sessions.jsonl"
    sessions.write_text("\n".join(lines) + "\n")
    argv = ["analyze", "--config", str(config), "--out", str(tmp_path / "o")]
    assert main(argv + ["--sessions", str(sessions)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert f"sessions.jsonl line {bad_line}" in err


_MISSING = object()


@pytest.mark.parametrize(
    "field, value",
    [
        ("atom_1_number", "x"),
        ("atom_1_number", None),
        ("atom_1_number", True),
        ("formula", None),
        ("compound_id", _MISSING),
        ("compound_id", None),
        ("compound_id", "x"),
        ("compound_id", True),
    ],
    ids=[
        "atom-number-text",
        "atom-number-null",
        "atom-number-bool",
        "formula-null",
        "compound-id-missing",
        "compound-id-null",
        "compound-id-text",
        "compound-id-bool",
    ],
)
def test_retyped_annotation_fails_cleanly(workdir, tmp_path, capsys, field, value):
    config, out = workdir
    broken = tmp_path / "retyped"
    broken.mkdir()
    for name in ("games.csv", "clusters.csv", "membership.csv"):
        shutil.copy(out / name, broken / name)
    lines = (out / "annotations.jsonl").read_text().splitlines()
    record = json.loads(lines[3])
    if value is _MISSING:
        del record[field]
    else:
        record[field] = value
    lines[3] = json.dumps(record)
    (broken / "annotations.jsonl").write_text("\n".join(lines) + "\n")
    assert main(["map", "--config", str(config), "--out", str(broken)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "annotations.jsonl line 4" in err
    assert not (broken / "library.sqlite").exists()


@pytest.mark.parametrize(
    "compound_id, blank, message",
    [
        (1, False, "compound_id 1 repeats line 2"),
        (500, False, "compound_id 500 is not in 1..100"),
        (0, False, "compound_id 0 is not in 1..100"),
        (500, True, "compound_id 500 is not in 1..100"),
    ],
    ids=["repeated", "past-the-last", "zero", "after-a-blank-line"],
)
def test_misnumbered_annotation_fails_cleanly(
    workdir, tmp_path, capsys, compound_id, blank, message
):
    # a repeated id would break the store's unique compound ids, and an id
    # outside 1..N leaves a curriculum position that no compound fills
    config, out = workdir
    broken = tmp_path / "misnumbered"
    broken.mkdir()
    for name in ("games.csv", "clusters.csv", "membership.csv"):
        shutil.copy(out / name, broken / name)
    lines = (out / "annotations.jsonl").read_text().splitlines()
    assert json.loads(lines[3])["compound_id"] == 3
    lines[3] = json.dumps({**json.loads(lines[3]), "compound_id": compound_id})
    if blank:
        lines.insert(3, "")
    (broken / "annotations.jsonl").write_text("\n".join(lines) + "\n")
    assert main(["map", "--config", str(config), "--out", str(broken)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert f"annotations.jsonl line {5 if blank else 4}: ValueError: {message}" in err
    assert not (broken / "library.sqlite").exists()


def test_cluster_count_other_than_compound_count_fails_cleanly(workdir, tmp_path, capsys):
    _, out = workdir
    run = tmp_path / "fewer_clusters"
    run.mkdir()
    for name in ("annotations.jsonl", "games.csv", "clusters.csv", "membership.csv"):
        shutil.copy(out / name, run / name)
    config = tmp_path / "k50.conf"
    config.write_text(TEST_CONFIG + "cluster.k = 50\n")
    assert main(["map", "--config", str(config), "--out", str(run)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == (
        "segforge map: cluster.k is 50, but map needs one cluster per level for each "
        "of the 100 compounds in annotations.jsonl"
    )
    assert not (run / "library.sqlite").exists()


def test_level_with_fewer_games_than_clusters_fails_before_any_search(
    workdir, tmp_path, capsys, monkeypatch
):
    _, out = workdir
    run = tmp_path / "k400"
    run.mkdir()
    shutil.copy(out / "games.csv", run / "games.csv")
    config = tmp_path / "k400.conf"
    config.write_text(TEST_CONFIG + "cluster.k = 400\n")
    searched = []
    monkeypatch.setattr(cli, "search_threshold", lambda *args, **kwargs: searched.append(1))
    assert main(["cluster", "--config", str(config), "--out", str(run)]) == 1
    # 24 mazes hold 360 easy, 480 medium and 360 hard games
    assert capsys.readouterr().err == (
        "segforge cluster: cluster.k is 400, but level 'easy' has only 360 games "
        "in games.csv, fewer than one per cluster\n"
    )
    assert searched == []
    assert not (run / "clusters.csv").exists()
    # with exactly one game per cluster, every threshold would score 1.0
    config = tmp_path / "k360.conf"
    config.write_text(TEST_CONFIG + "cluster.k = 360\n")
    assert main(["cluster", "--config", str(config), "--out", str(run)]) == 1
    assert capsys.readouterr().err == (
        "segforge cluster: cluster.k is 360, but level 'easy' has only 360 games "
        "in games.csv, exactly one per cluster\n"
    )
    assert searched == []
    assert not (run / "clusters.csv").exists()


@pytest.mark.parametrize(
    "field, value",
    [("fun", "no"), ("fun", None), ("pre_exam", 2), ("pre_exam", "1"), ("post_exam", None)],
    ids=["fun-text", "fun-null", "pre-exam-two", "pre-exam-text", "post-exam-null"],
)
def test_retyped_survey_field_fails_cleanly(workdir, tmp_path, capsys, field, value):
    config, out = workdir
    lines = (out / "sessions.jsonl").read_text().splitlines()
    record = json.loads(lines[5])
    record[field] = value
    lines[5] = json.dumps(record)
    sessions = tmp_path / "sessions.jsonl"
    sessions.write_text("\n".join(lines) + "\n")
    argv = ["analyze", "--config", str(config), "--out", str(tmp_path / "o")]
    assert main(argv + ["--sessions", str(sessions)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "sessions.jsonl line 6" in err and field in err


@pytest.mark.parametrize("recycle", ["true", "false"])
def test_simulate_logs_recycles_and_exhausted_pools(workdir, tmp_path, caplog, recycle):
    _, out = workdir
    run = tmp_path / "run"
    run.mkdir()
    for name in ("library.sqlite", "mazes.jsonl"):
        shutil.copyfile(out / name, run / name)
    config = tmp_path / "cohort.conf"
    config.write_text(
        f"maze.count = 24\nsim.policy = random\nsim.players = 9\nsim.sessions = 40\n"
        f"sim.recycle = {recycle}\n"
    )
    with caplog.at_level(logging.INFO, logger="segforge.cli"):
        assert main(["simulate", "--config", str(config), "--out", str(run)]) == 0
    sessions = [json.loads(line) for line in (run / "sessions.jsonl").open()][1:]
    events = [json.loads(line) for line in (run / "events.jsonl").open()][1:]
    # a player's practice game fixes the level of all its sessions
    level_of = {s["player_id"]: s["difficulty"] for s in sessions}
    recycled = dict.fromkeys(Difficulty, 0)
    exhausted = dict.fromkeys(Difficulty, 0)
    for s in sessions:
        recycled[s["difficulty"]] += s["recycled"]
    for e in events:
        if e.get("kind") == "pool_exhausted":
            exhausted[level_of[e["player_id"]]] += 1
    assert sum((recycled if recycle == "true" else exhausted).values()) > 0
    counts = [
        ", ".join(f"{level} {n}" for level, n in per_level.items())
        for per_level in (recycled, exhausted)
    ]
    expected = f"recycled: {counts[0]}; pools exhausted: {counts[1]}"
    assert any(expected in message for message in caplog.messages), caplog.messages


def test_simulate_builds_tables_only_for_played_mazes(workdir, tmp_path, monkeypatch):
    config, out = workdir
    run = tmp_path / "run"
    run.mkdir()
    for name in ("library.sqlite", "mazes.jsonl"):
        shutil.copyfile(out / name, run / name)
    built = []

    def counting_maze_tree(grid):
        built.append(grid.maze_id)
        return maze_tree(grid)

    monkeypatch.setattr(cli, "maze_tree", counting_maze_tree)
    assert main(["simulate", "--config", str(config), "--out", str(run)]) == 0
    maze_of = {row["game_id"]: row["maze_id"] for row in _read_rows(out / "games.csv")}
    sessions = [json.loads(line) for line in (run / "sessions.jsonl").open()][1:]
    played = {maze_of[s["game_id"]] for s in sessions}
    library = set(maze_of.values())
    assert played < library
    # a maze is decoded and checked when its tables are built: once for each
    # played maze, and for no other
    assert Counter(built) == Counter(played)


class _Node:
    pass


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
def test_cluster_pauses_the_collector_and_restores_it(workdir, tmp_path, monkeypatch, collecting):
    _check_cluster_pauses_the_collector(workdir, tmp_path, monkeypatch, collecting, {0})


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
def test_cluster_on_two_processes_pauses_the_collector_and_restores_it(
    workdir, tmp_path, monkeypatch, collecting
):
    _check_cluster_pauses_the_collector(workdir, tmp_path, monkeypatch, collecting, {0, 1})


def _check_cluster_pauses_the_collector(workdir, tmp_path, monkeypatch, collecting, cpus):
    """Run the cluster stage, then a failing one, with the given usable CPUs."""
    config, out = workdir
    shutil.copyfile(out / "games.csv", tmp_path / "games.csv")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    real_search = cli.search_threshold
    real_read = cli._read
    # filled in this process only: a forked child's searches leave no trace
    seen = []
    loaded = []
    failing = []

    def read(*args):
        loaded.append(garbage() is None)
        return real_read(*args)

    def search(*args, **kwargs):
        seen.append((gc.isenabled(), garbage() is None))
        if failing:
            raise NoFeasibleThreshold("no grid threshold gave enough clusters")
        return real_search(*args, **kwargs)

    monkeypatch.setattr(cli, "search_threshold", search)
    monkeypatch.setattr(cli, "_read", read)
    was_collecting = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        # a cycle that is already old when it turns into garbage, so only a
        # full collection frees it
        node = _Node()
        node.self = node
        garbage = weakref.ref(node)
        gc.collect()
        del node
        cli.run_cluster(load_config(config), tmp_path)
        assert gc.isenabled() is collecting
        failing.append(True)
        with pytest.raises(NoFeasibleThreshold):
            cli.run_cluster(load_config(config), tmp_path)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was_collecting else gc.disable)()
    # paused in each level's search here and in the failing one: every level
    # on one CPU, only the level of the most games with a forked child; a
    # caller's disabled collector is left alone, and frees nothing; garbage
    # that is already there goes before the games are loaded
    searched_here = len(Difficulty) if len(cpus) == 1 else 1
    assert [enabled for enabled, _ in seen] == [False] * (searched_here + 1)
    assert loaded[0] is seen[0][1] is collecting
    assert (tmp_path / "clusters.csv").read_bytes() == (out / "clusters.csv").read_bytes()


def _level_of_tags(out):
    """The level of each search's tags: its games' ids, sorted."""
    ids = {}
    for row in _read_rows(out / "games.csv"):
        ids.setdefault(row["difficulty"], []).append(row["game_id"])
    return {tuple(sorted(tags)): level for level, tags in ids.items()}


@pytest.mark.parametrize(
    "failing",
    [("easy",), ("hard",), ("easy", "medium", "hard")],
    ids=["easy", "hard", "every-level"],
)
def test_failed_search_in_the_child_reads_as_in_one_process(
    workdir, tmp_path, monkeypatch, capsys, failing
):
    config, out = workdir
    shutil.copyfile(out / "games.csv", tmp_path / "games.csv")
    level_of = _level_of_tags(out)
    real_search = cli.search_threshold
    real_exit = cli._WorkspaceLock.__exit__
    exits = tmp_path / "lock_exits"

    def search(points, tags, **kwargs):
        level = level_of[tuple(tags)]
        if level in failing:
            raise NoFeasibleThreshold(f"no grid threshold gave {level} enough clusters")
        return real_search(points, tags, **kwargs)

    def lock_exit(self, *exc_info):
        with exits.open("a") as handle:
            handle.write(f"{os.getpid()}\n")
        return real_exit(self, *exc_info)

    monkeypatch.setattr(cli, "search_threshold", search)
    monkeypatch.setattr(cli._WorkspaceLock, "__exit__", lock_exit)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    errors = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        assert main(["cluster", "--config", str(config), "--out", str(tmp_path)]) == 1
        errors.append(capsys.readouterr().err)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert not (tmp_path / ".segforge.lock").exists()
    assert len(forks) == 1
    # the first failing level's error, from whichever process searched it
    assert errors == [f"segforge cluster: no grid threshold gave {failing[0]} enough clusters\n"] * 2
    # only this process let the lock go, once per run
    assert exits.read_text().split() == [str(os.getpid())] * 2
    assert not (tmp_path / "clusters.csv").exists()


@pytest.mark.parametrize("stop", ["child-killed", "parent-interrupted"])
def test_stopped_search_leaves_no_process(workdir, tmp_path, monkeypatch, capsys, stop):
    config, out = workdir
    shutil.copyfile(out / "games.csv", tmp_path / "games.csv")
    level_of = _level_of_tags(out)
    real_search = cli.search_threshold
    parent = os.getpid()

    def search(points, tags, **kwargs):
        level = level_of[tuple(tags)]
        if stop == "child-killed" and level == "easy":
            assert os.getpid() != parent, "easy was searched without a fork"
            os.kill(os.getpid(), signal.SIGKILL)
        if stop == "parent-interrupted" and level == "medium":
            assert os.getpid() == parent, "medium was searched in the child"
            raise KeyboardInterrupt
        return real_search(points, tags, **kwargs)

    monkeypatch.setattr(cli, "search_threshold", search)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    argv = ["cluster", "--config", str(config), "--out", str(tmp_path)]
    if stop == "child-killed":
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "segforge cluster: the process clustering easy and hard was killed by"
            f" signal {int(signal.SIGKILL)} before sending its result\n"
        )
    else:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not (tmp_path / ".segforge.lock").exists()
    assert not (tmp_path / "clusters.csv").exists()


def test_early_stages_are_deterministic(workdir, tmp_path):
    config, out = workdir
    out2 = tmp_path / "again"
    assert main(["annotate", "--config", str(config), "--out", str(out2)]) == 0
    assert main(["gen-space", "--config", str(config), "--out", str(out2)]) == 0
    for name in ("annotations.jsonl", "mazes.jsonl", "space.csv"):
        a = hashlib.sha256((out / name).read_bytes()).hexdigest()
        b = hashlib.sha256((out2 / name).read_bytes()).hexdigest()
        assert a == b, name


def test_missing_prerequisite_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "empty"
    assert main(["cluster", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "games.csv" in err
    assert "categorize" in err


@pytest.mark.parametrize(
    "stage, name, producer", [(stage, name, ARTIFACTS[name].producer) for stage, name in READS]
)
def test_missing_input_names_its_producer(workdir, tmp_path, capsys, stage, name, producer):
    config, out = workdir
    run = tmp_path / "run"
    shutil.copytree(out, run)
    (run / name).unlink()
    assert main([stage, "--config", str(config), "--out", str(run)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == f"segforge {stage}: {name} not found in {run}; run the {producer!r} stage first"


def test_missing_sessions_override_names_simulate(workdir, tmp_path, capsys):
    config, _ = workdir
    moved = tmp_path / "moved-sessions.jsonl"
    argv = ["analyze", "--config", str(config), "--out", str(tmp_path / "o")]
    assert main(argv + ["--sessions", str(moved)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == (
        f"segforge analyze: moved-sessions.jsonl not found in {tmp_path}; "
        "run the 'simulate' stage first"
    )


def test_each_input_is_written_by_one_earlier_stage():
    stages = list(STAGE_TABLE)
    for stage, name in READS:
        writers = [other for other in stages if name in STAGE_TABLE[other].writes]
        assert len(writers) == 1, (stage, name, writers)
        assert stages.index(writers[0]) < stages.index(stage), (stage, name)
        # a reader checks every record's key; the store keys its own tables
        assert ARTIFACTS[name].key or ARTIFACTS[name].format == "sqlite", name


def test_each_artifact_is_written_by_one_stage():
    written = Counter(name for entry in STAGE_TABLE.values() for name in entry.writes)
    assert written == dict.fromkeys(ARTIFACTS, 1)


def test_stages_read_and_write_what_the_table_declares(tmp_path, monkeypatch):
    """Stage by stage, each reads its declared inputs in order, one call
    each, and adds exactly the files it is declared to write."""
    overrides = {"maze.count": "7", "sim.players": "4", "sim.sessions": "10", "stats.min_n": "5"}
    config = load_config(None, overrides)
    real_read = cli._read
    calls = []

    def read(out, name, *args):
        calls.append(name)
        return real_read(out, name, *args)

    monkeypatch.setattr(cli, "_read", read)
    for stage, entry in STAGE_TABLE.items():
        before = {path.name for path in tmp_path.iterdir()}
        calls.clear()
        entry.run(config, tmp_path)
        assert tuple(calls) == entry.reads, stage
        assert {path.name for path in tmp_path.iterdir()} - before == set(entry.writes), stage


def test_readme_stage_table_is_the_stage_table():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    table = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = line.strip().strip("|").split("|")
        if len(cells) == 4 and cells[0].strip().startswith("`"):
            stage, reads, writes = (re.findall(r"`([^`]+)`", cell) for cell in cells[:3])
            table[stage[0]] = (tuple(reads), tuple(writes))
    assert table == {stage: (entry.reads, entry.writes) for stage, entry in STAGE_TABLE.items()}


@pytest.mark.parametrize(
    "argv",
    [
        ["map", "--sessions", "x"],
        ["cluster", "--sessions", "x"],
        ["simulate", "--recycle"],
        ["pipeline", "--sessions", "x"],
    ],
    ids=["map-sessions", "cluster-sessions", "simulate-recycle", "pipeline-sessions"],
)
def test_flag_of_another_stage_is_a_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_csv_that_is_not_utf8_fails_cleanly(workdir, tmp_path, capsys):
    config, out = workdir
    broken = tmp_path / "bytes"
    broken.mkdir()
    data = (out / "games.csv").read_bytes()
    (broken / "games.csv").write_bytes(data + b"\xff\xfe")
    assert main(["cluster", "--config", str(config), "--out", str(broken)]) == 1
    last_line = data.count(b"\n") + 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert f"games.csv line {last_line}: UnicodeDecodeError" in err


def test_jsonl_decode_error_names_its_line(workdir, tmp_path, capsys):
    config, out = workdir
    broken = tmp_path / "bytes"
    shutil.copytree(out, broken)
    data = (out / "annotations.jsonl").read_bytes()
    assert data.count(b"\n") == 101  # meta line and 100 compounds
    (broken / "annotations.jsonl").write_bytes(data + b"\xff\n")
    assert main(["map", "--config", str(config), "--out", str(broken)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "annotations.jsonl line 102: UnicodeDecodeError" in err


def test_config_that_is_not_utf8_fails_cleanly(tmp_path, capsys):
    config = tmp_path / "bytes.conf"
    config.write_bytes(b"maze.count = 24\n\xff\n")
    assert main(["annotate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert str(config) in err and "UTF-8" in err


def test_config_that_cannot_be_read_fails_cleanly(tmp_path, capsys, monkeypatch):
    # the reader's open is made to refuse: a root user may read any file
    config = tmp_path / "locked.conf"
    config.write_text("maze.count = 24\n")

    def refuse(path, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

    monkeypatch.setattr(knowledge, "open", refuse, raising=False)
    assert main(["annotate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"segforge annotate: cannot read config file {config}: {os.strerror(errno.EACCES)}\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["knowledge.compounds_path", "knowledge.table_path"])
@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_unreadable_knowledge_file_fails_cleanly(tmp_path, capsys, key, case):
    target = tmp_path / "knowledge"
    if case == "directory":
        target.mkdir()
    elif case == "not-utf8":
        target.write_bytes(b"H2|hydrogen|2 H|\n\xff\n")
    config = tmp_path / "run.conf"
    config.write_text(f"{key} = {target}\n")
    out = tmp_path / "o"
    assert main(["annotate", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert str(target) in err
    assert not (out / "annotations.jsonl").exists()


def test_bad_config_fails_cleanly(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("maze.cont = 5\n")
    assert main(["annotate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_lock_file_blocks_concurrent_runs(tmp_path, capsys):
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".segforge.lock").write_text(f"{os.getpid()}\n")
    assert main(["annotate", "--out", str(out)]) == 1
    assert ".segforge.lock" in capsys.readouterr().err
    (out / ".segforge.lock").unlink()
    assert main(["annotate", "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "content", ["not a pid\n", "0\n", f"{2**64}\n"], ids=["text", "zero", "huge"]
)
def test_lock_without_a_checkable_pid_blocks(tmp_path, capsys, content):
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".segforge.lock").write_text(content)
    assert main(["annotate", "--out", str(out)]) == 1
    assert ".segforge.lock" in capsys.readouterr().err
    assert (out / ".segforge.lock").read_text() == content


def test_stale_lock_is_taken_over(tmp_path, caplog):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: its pid names no process
    out = tmp_path / "stale"
    out.mkdir()
    (out / ".segforge.lock").write_text(f"{child.pid}\n")
    with caplog.at_level(logging.WARNING, logger="segforge.cli"):
        assert main(["annotate", "--out", str(out)]) == 0
    assert any(f"pid {child.pid}" in message for message in caplog.messages)
    assert (out / "annotations.jsonl").is_file()
    assert not (out / ".segforge.lock").exists()


def test_seed_override_changes_artifacts(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-space", "--out", str(a), "--seed", "1"]) == 0
    assert main(["gen-space", "--out", str(b), "--seed", "2"]) == 0
    assert (a / "mazes.jsonl").read_text() != (b / "mazes.jsonl").read_text()


def test_stage_warns_on_config_drift(tmp_path, caplog):
    out = tmp_path / "drift"
    assert main(["gen-space", "--out", str(out), "--seed", "1"]) == 0
    with caplog.at_level(logging.WARNING):
        assert main(["categorize", "--out", str(out), "--seed", "2"]) == 0
    assert any("different configuration" in r.message for r in caplog.records)


def test_library_and_mazes_under_another_seed_warn_alike(workdir, tmp_path, caplog):
    config, out = workdir
    for name in ("library.sqlite", "mazes.jsonl"):
        shutil.copyfile(out / name, tmp_path / name)
    with caplog.at_level(logging.WARNING):
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path), "--seed", "5"]) == 0
    warned = [r.message for r in caplog.records if r.levelno == logging.WARNING]
    assert [message.split()[0] for message in warned] == ["library.sqlite", "mazes.jsonl"]
    assert all(" was produced under a different configuration (hash " in m for m in warned)


def test_map_writes_level_curves(workdir):
    _, out = workdir
    for name in ("mapping_N.csv", "mapping_S.csv"):
        text = (out / name).read_text()
        assert text.startswith("# config_hash=")
        assert "compound_id,easy,medium,hard" in text.splitlines()[1]
        assert len(text.splitlines()) == 102  # meta + header + 100 compounds


def test_analyze_accepts_explicit_sessions_path(workdir, tmp_path):
    config, out = workdir
    copy = tmp_path / "moved-sessions.jsonl"
    copy.write_text((out / "sessions.jsonl").read_text())
    assert main(
        [
            "analyze",
            "--config",
            str(config),
            "--out",
            str(out),
            "--sessions",
            str(copy),
        ]
    ) == 0


def test_init_config_template_is_loadable(tmp_path, capsys):
    target = tmp_path / "template.conf"
    assert main(["init-config", "--config", str(target)]) == 0
    assert main(["annotate", "--config", str(target), "--out", str(tmp_path / "o")]) == 0


def test_init_config_into_a_missing_directory_fails_cleanly(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "x.cfg"
    assert main(["init-config", "--config", str(target)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert str(target) in err
    assert not target.parent.exists()


def test_out_that_is_a_file_fails_cleanly(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("not a directory\n")
    assert main(["annotate", "--out", str(target)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert str(target) in err
    assert target.read_text() == "not a directory\n"


def test_every_benchmark_span_is_recorded(tmp_path, monkeypatch):
    """The benchmark in perfbench/ times each layer by wrapping the name that
    its caller looks up, in cli or in the layer's own module. A pipeline and
    a cohort, run as the benchmark runs them, record a span for every one of
    those names; a renamed name, or one called through another module, would
    record none."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("bench_spans", root / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # freshly imported, as the benchmark imports them; the modules the other
    # tests hold are put back afterwards
    for name in [n for n in sys.modules if n == "segforge" or n.startswith("segforge.")]:
        monkeypatch.delitem(sys.modules, name)
    fresh = importlib.import_module("segforge.cli")
    mods = SimpleNamespace(
        cli=fresh, clustering=sys.modules["segforge.clustering"], engine=sys.modules["segforge.engine"]
    )
    overrides = {"maze.count": "7", "sim.players": "4", "sim.sessions": "10", "stats.min_n": "5"}
    config = sys.modules["segforge.config"].load_config(None, overrides)
    tracer = spans.Tracer()
    tracer.install(mods)
    try:
        for stage in fresh.STAGE_TABLE:
            getattr(fresh, f"run_{stage.replace('-', '_')}")(config, tmp_path)
    finally:
        tracer.uninstall()
    recorded = {span[spans.NAME] for span in tracer.spans}
    assert {name for _, _, name, _ in spans.wrap_points(mods)} - recorded == set()


def _assigned_literals(path: Path, *names: str) -> dict:
    """The values of the module-level assignments to ``names`` in the Python
    file at ``path``, read without importing it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in names
    }


def test_benchmark_runs_the_stage_table_and_checks_declared_files():
    """perfbench/ names the stages it runs and the files it checks by hand;
    importing its run.py would set its thread variables."""
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    stages = _assigned_literals(bench / "run.py", "BUILD_STAGES", "COHORT_STAGES")
    checked = _assigned_literals(bench / "checks.py", "BUILD_ARTIFACTS", "COHORT_ARTIFACTS")
    assert stages["BUILD_STAGES"] + stages["COHORT_STAGES"] == tuple(STAGE_TABLE)
    for part in ("BUILD", "COHORT"):
        runs = stages[f"{part}_STAGES"]
        written = {name for stage in runs for name in STAGE_TABLE[stage].writes}
        assert set(checked[f"{part}_ARTIFACTS"]) <= written, part
