"""Tests for cluster ordering, deployment and library persistence."""

from __future__ import annotations

import json
import logging
import os
import sqlite3

import pytest

from segforge.clustering import ClusterSummary
from segforge.contentspace import Difficulty
from segforge.knowledge import CompoundAnnotation
from segforge.mapping import (
    CardinalityMismatch,
    ContentLibrary,
    CorruptStore,
    GameRecord,
    IntegrityViolation,
    MappingEntry,
    deploy,
    export_json,
    export_level_curves,
    load_library,
    save_library,
    sort_clusters,
    validate_library,
)


def _summary(cluster_id: str, difficulty: str, n: int, s: float, members: tuple[str, ...]) -> ClusterSummary:
    return ClusterSummary(
        cluster_id=cluster_id,
        difficulty=difficulty,
        n=n,
        s=s,
        centroid=(0.0,) * 8,
        member_game_ids=members,
    )


def _game(game_id: str, difficulty: str) -> GameRecord:
    return GameRecord(
        game_id=game_id,
        maze_id="m0000",
        enemy_type=0 if difficulty == "easy" else 1,
        total_enemy=1,
        total_bullets=1,
        difficulty=difficulty,
        total_path=199,
        total_corners=50,
        total_intersections=20,
        total_deadend=12,
        complexity=0.41,
    )


def _compound(compound_id: int, formula: str) -> CompoundAnnotation:
    return CompoundAnnotation(
        formula=formula,
        atom_1_number=1,
        atom_2_number=8,
        total_types_of_atom=2,
        total_atom=compound_id + 1,
        total_character_symbol_1=1,
        total_character_symbol_2=1,
        compound_id=compound_id,
    )


def _tiny_library() -> ContentLibrary:
    compounds = [_compound(1, "H2O"), _compound(2, "CO2")]
    games = []
    clusters = []
    for level in ("easy", "medium", "hard"):
        small = (f"{level}-g1",)
        large = (f"{level}-g2", f"{level}-g3")
        games.extend(_game(g, level) for g in small + large)
        clusters.append(_summary(f"{level}-000", level, 1, 0.5, small))
        clusters.append(_summary(f"{level}-001", level, 2, 1.5, large))
    mapping = deploy(
        compounds,
        {
            "easy": [c for c in clusters if c.difficulty == "easy"],
            "medium": [c for c in clusters if c.difficulty == "medium"],
            "hard": [c for c in clusters if c.difficulty == "hard"],
        },
    )
    return ContentLibrary(
        compounds=compounds,
        games=games,
        clusters=clusters,
        mapping=mapping,
        metadata={"config_hash": "abc123", "space_seed": "7"},
    )


# ===== Sorting and deployment =====


def test_sort_clusters_by_size_ascending() -> None:
    clusters = [
        _summary("c", "easy", 5, 1.0, ()),
        _summary("a", "easy", 2, 1.0, ()),
        _summary("b", "easy", 9, 1.0, ()),
    ]
    assert [c.cluster_id for c in sort_clusters(clusters)] == ["a", "c", "b"]


def test_sort_clusters_size_tie_prefers_larger_spread() -> None:
    clusters = [
        _summary("a", "easy", 3, 0.5, ()),
        _summary("b", "easy", 3, 2.5, ()),
    ]
    assert [c.cluster_id for c in sort_clusters(clusters)] == ["b", "a"]


def test_sort_clusters_full_tie_prefers_lower_id() -> None:
    clusters = [
        _summary("easy-007", "easy", 3, 1.0, ()),
        _summary("easy-002", "easy", 3, 1.0, ()),
    ]
    assert [c.cluster_id for c in sort_clusters(clusters)] == ["easy-002", "easy-007"]


def test_deploy_pairs_easiest_compound_with_smallest_cluster() -> None:
    library = _tiny_library()
    first = [m for m in library.mapping if m.compound_id == 1]
    assert {m.cluster_id for m in first} == {"easy-000", "medium-000", "hard-000"}
    second = [m for m in library.mapping if m.compound_id == 2]
    assert {m.cluster_id for m in second} == {"easy-001", "medium-001", "hard-001"}


def test_deploy_emits_three_entries_per_compound() -> None:
    library = _tiny_library()
    assert len(library.mapping) == 6
    per_compound = {}
    for entry in library.mapping:
        per_compound.setdefault(entry.compound_id, set()).add(entry.difficulty)
    assert all(levels == {"easy", "medium", "hard"} for levels in per_compound.values())


def test_deploy_is_per_level_bijection() -> None:
    library = _tiny_library()
    for level in ("easy", "medium", "hard"):
        cluster_ids = [m.cluster_id for m in library.mapping if m.difficulty == level]
        assert len(cluster_ids) == len(set(cluster_ids)) == 2


def test_deploy_cluster_sizes_monotone_in_compound_id() -> None:
    library = _tiny_library()
    for level in ("easy", "medium", "hard"):
        sizes = [
            library.cluster_for(c.compound_id, level).n
            for c in sorted(library.compounds, key=lambda c: c.compound_id)
        ]
        assert sizes == sorted(sizes)


def test_deploy_rejects_cluster_count_mismatch() -> None:
    compounds = [_compound(1, "H2O"), _compound(2, "CO2")]
    clusters = {
        "easy": [_summary("easy-000", "easy", 1, 0.0, ())],
        "medium": [
            _summary("medium-000", "medium", 1, 0.0, ()),
            _summary("medium-001", "medium", 2, 0.0, ()),
        ],
        "hard": [
            _summary("hard-000", "hard", 1, 0.0, ()),
            _summary("hard-001", "hard", 2, 0.0, ()),
        ],
    }
    with pytest.raises(CardinalityMismatch):
        deploy(compounds, clusters)


# ===== Persistence =====


def test_library_round_trips_through_sqlite(tmp_path) -> None:
    library = _tiny_library()
    path = str(tmp_path / "library.sqlite")
    save_library(library, path)
    loaded = load_library(path)
    assert loaded == library


def library_from_json(text: str) -> ContentLibrary:
    """The library that ``export_json`` rendered: the round-trip oracle."""
    payload = json.loads(text)
    return ContentLibrary(
        compounds=[CompoundAnnotation(**c) for c in payload["compounds"]],
        games=[GameRecord(**g) for g in payload["games"]],
        clusters=[
            ClusterSummary(
                **{
                    **c,
                    "centroid": tuple(c["centroid"]),
                    "member_game_ids": tuple(c["member_game_ids"]),
                }
            )
            for c in payload["clusters"]
        ],
        mapping=[MappingEntry(**m) for m in payload["mapping"]],
        metadata=dict(payload["metadata"]),
    )


def test_library_round_trips_through_json() -> None:
    library = _tiny_library()
    assert library_from_json(export_json(library)) == library


def test_save_is_deterministic(tmp_path) -> None:
    library = _tiny_library()
    path_a = str(tmp_path / "a.sqlite")
    path_b = str(tmp_path / "b.sqlite")
    save_library(library, path_a)
    save_library(library, path_b)
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        assert fa.read() == fb.read()


def _served_and_validated(path: str):
    """The two ways to meet a defect that a stored library finds when a
    cluster is first served: serving compound 1 at 'easy', whose cluster is
    easy-000, and validating the whole library. Loading finds none."""
    return (
        lambda: load_library(path).cluster_for(1, Difficulty.EASY),
        lambda: validate_library(load_library(path)),
    )


def test_load_rejects_corrupt_file(tmp_path) -> None:
    path = tmp_path / "broken.sqlite"
    path.write_text("this is not a database")
    with pytest.raises(CorruptStore):
        load_library(str(path))


@pytest.mark.parametrize(
    "table, column, value",
    [
        ("games", "complexity", float("inf")),
        ("clusters", "s", float("-inf")),
        ("clusters", "centroid", "[NaN, 0.0]"),
    ],
)
def test_load_rejects_a_number_that_is_not_finite(tmp_path, table, column, value) -> None:
    library = _tiny_library()
    path = str(tmp_path / "library.sqlite")
    save_library(library, path)
    conn = sqlite3.connect(path)
    conn.execute(f"UPDATE {table} SET {column} = ?", (value,))
    conn.commit()
    conn.close()
    for check in _served_and_validated(path):
        with pytest.raises(CorruptStore, match="not a finite number"):
            check()


def test_load_neither_creates_nor_changes_the_file(tmp_path) -> None:
    library = _tiny_library()
    path = tmp_path / "library.sqlite"
    save_library(library, str(path))
    path.chmod(0o444)
    before = path.read_bytes(), path.stat().st_mtime_ns
    with load_library(str(path)) as loaded:
        assert loaded.cluster_for(2, Difficulty.HARD).member_game_ids == ("hard-g2", "hard-g3")
        assert loaded.game("hard-g3") == library.game("hard-g3")
        validate_library(loaded)
        assert loaded == library
        # refused even where the file's mode is not, as for root
        with pytest.raises(sqlite3.OperationalError, match="readonly"):
            loaded._conn.execute("CREATE TABLE probe (x)")
    assert (path.read_bytes(), path.stat().st_mtime_ns) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["library.sqlite"]
    absent = tmp_path / "absent.sqlite"
    with pytest.raises(CorruptStore):
        load_library(str(absent))
    assert not absent.exists()


def test_closed_library_reads_no_more_rows(tmp_path) -> None:
    path = str(tmp_path / "library.sqlite")
    save_library(_tiny_library(), path)
    with load_library(path) as library:
        served = library.cluster_for(1, Difficulty.EASY)
    assert library.cluster_for(1, Difficulty.EASY) == served
    with pytest.raises(CorruptStore, match="closed"):
        library.cluster_for(2, Difficulty.EASY)


def test_load_rejects_missing_file(tmp_path) -> None:
    with pytest.raises(CorruptStore):
        load_library(str(tmp_path / "absent.sqlite"))


def test_load_detects_dangling_membership(tmp_path) -> None:
    library = _tiny_library()
    path = str(tmp_path / "library.sqlite")
    save_library(library, path)
    conn = sqlite3.connect(path)
    conn.execute("DELETE FROM games WHERE game_id = 'easy-g1'")
    conn.commit()
    conn.close()
    for check in _served_and_validated(path):
        with pytest.raises(IntegrityViolation):
            check()


def test_load_detects_cluster_size_lie(tmp_path) -> None:
    library = _tiny_library()
    path = str(tmp_path / "library.sqlite")
    save_library(library, path)
    conn = sqlite3.connect(path)
    conn.execute("UPDATE clusters SET n = 9 WHERE cluster_id = 'easy-000'")
    conn.commit()
    conn.close()
    for check in _served_and_validated(path):
        with pytest.raises(IntegrityViolation):
            check()


def test_load_detects_mapping_to_unknown_cluster(tmp_path) -> None:
    library = _tiny_library()
    path = str(tmp_path / "library.sqlite")
    save_library(library, path)
    conn = sqlite3.connect(path)
    conn.execute("PRAGMA foreign_keys = OFF")
    conn.execute("DELETE FROM clusters WHERE cluster_id = 'hard-001'")
    conn.execute("DELETE FROM membership WHERE cluster_id = 'hard-001'")
    conn.commit()
    conn.close()
    with pytest.raises(IntegrityViolation):
        load_library(path)


def test_load_detects_member_game_of_another_level(tmp_path) -> None:
    library = _tiny_library()
    path = str(tmp_path / "library.sqlite")
    save_library(library, path)
    conn = sqlite3.connect(path)
    conn.execute("UPDATE games SET difficulty = 'hard' WHERE game_id = 'easy-g1'")
    conn.commit()
    conn.close()
    for check in _served_and_validated(path):
        with pytest.raises(IntegrityViolation, match="easy-g1"):
            check()


def test_load_detects_mapping_to_cluster_of_another_level(tmp_path) -> None:
    library = _tiny_library()
    path = str(tmp_path / "library.sqlite")
    save_library(library, path)
    conn = sqlite3.connect(path)
    # the cluster and its one game agree, but compound 1's easy entry now
    # points at a medium cluster
    conn.execute("UPDATE clusters SET difficulty = 'medium' WHERE cluster_id = 'easy-000'")
    conn.execute("UPDATE games SET difficulty = 'medium' WHERE game_id = 'easy-g1'")
    conn.commit()
    conn.close()
    with pytest.raises(IntegrityViolation, match="mapping"):
        load_library(path)


def test_load_detects_compound_without_a_level(tmp_path) -> None:
    library = _tiny_library()
    path = str(tmp_path / "library.sqlite")
    save_library(library, path)
    conn = sqlite3.connect(path)
    conn.execute("DELETE FROM mapping WHERE compound_id = 2 AND difficulty = 'hard'")
    conn.commit()
    conn.close()
    with pytest.raises(IntegrityViolation, match="compound 2 has no 'hard' cluster"):
        load_library(path)


def test_load_detects_game_in_no_cluster(tmp_path) -> None:
    library = _tiny_library()
    path = str(tmp_path / "library.sqlite")
    save_library(library, path)
    conn = sqlite3.connect(path)
    # a copy of easy-g1 under a new id, in no membership row
    conn.executescript(
        "CREATE TEMP TABLE copy AS SELECT * FROM games WHERE game_id = 'easy-g1';"
        "UPDATE copy SET game_id = 'easy-g9';"
        "INSERT INTO games SELECT * FROM copy;"
    )
    conn.close()
    # no cluster serves it, so only the whole library's check finds it
    with pytest.raises(IntegrityViolation, match="'easy-g9' belongs to no cluster"):
        validate_library(load_library(path))


def test_validate_rejects_game_in_two_clusters() -> None:
    library = _tiny_library()
    clusters = list(library.clusters)
    clusters[1] = _summary("easy-001", "easy", 2, 1.5, ("easy-g2", "easy-g1"))
    tampered = ContentLibrary(
        compounds=library.compounds,
        games=library.games,
        clusters=clusters,
        mapping=library.mapping,
        metadata=library.metadata,
    )
    with pytest.raises(IntegrityViolation):
        validate_library(tampered)


def test_load_warns_on_config_hash_mismatch(tmp_path, caplog) -> None:
    library = _tiny_library()
    path = str(tmp_path / "library.sqlite")
    save_library(library, path)
    with caplog.at_level(logging.WARNING, logger="segforge.mapping"):
        load_library(path, expected_config_hash="different")
    assert any("config hash" in message for message in caplog.messages)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="segforge.mapping"):
        load_library(path, expected_config_hash="abc123")
    assert not caplog.messages


# ===== Level curve export =====


def test_level_curves_have_one_row_per_compound() -> None:
    n_rows, s_rows = export_level_curves(_tiny_library())
    assert len(n_rows) == 2 and len(s_rows) == 2
    assert n_rows[0] == (1, 1, 1, 1)
    assert n_rows[1] == (2, 2, 2, 2)
    assert s_rows[0] == (1, 0.5, 0.5, 0.5)
