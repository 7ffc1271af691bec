"""Golden digests: the bytes of every artifact of a reduced pipeline run.

``segforge pipeline`` runs at ``maze.count = 54`` with every
other setting at its default (greedy bots, 10 players x 25 sessions). Each
file of the run directory must hash to the digest recorded here. A random
cohort of 40 players x 25 sessions then plays the same library and maze
files, through ``simulate`` and ``analyze``, and its four files must hash to
their digests too. A change that alters an artifact's bytes must update its
digest and argue for the change in CHANGES.md.
"""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import os
import shutil

import pytest

from segforge.cli import STAGE_TABLE, main
from segforge.mapping import load_library

GOLDEN_CONFIG = "maze.count = 54\n"

GOLDEN_SHA256 = {
    "annotations.jsonl": "3f6ef02eb335e7d25ac173ecc396e85d0a2b48ef13c3c2bc5300ed6b100b7783",
    "clusters.csv": "2072aec46480cca287e79e54831dc0b9b3ca95ce49a682eed9f3409659b1e422",
    "events.jsonl": "61dd8f8459d52b82dd1a424e8d220fe1d67b35ca649823a76ea3fbaf61e4aed6",
    "games.csv": "e1fe48953f7798faca380ddc4051122da730b25f46be05ad65510ddcf44a60c5",
    "library.json": "2b9bf9d3e8b25e4eeac22bc11b817c298d86bbe3abadeee0694bfcded8489201",
    "library.sqlite": "74773162d4f27d3872538e6bdc76d8071a0ee0349a216dbf669b788a9d96b596",
    "mapping_N.csv": "bc53c84df2a4fca93e525cf71648c0a6f9433d6e29f5b005497e453d800e0911",
    "mapping_S.csv": "d19f7d61013e619ed972a9f6683985608cd94d6d6d2d23c1ae79cb77050cc6bd",
    "mazes.jsonl": "e3afa478d0b984f8c72368615b46e3174a0e2703483e576d0eca5700d3d32c74",
    "membership.csv": "578b432ef8ef9a2693f531858e899dd41bbcaee0b4f2caa257c40fa0865e1b7c",
    "report.txt": "680527d74836531533c9c0afc8bc957eca61b0f5f354cf9113bbc795523b3a54",
    "report_numbers.csv": "86b94203fbbde67a6936c4e7a9efe2be865a775eb2d4805aa09ab8e52264cf7e",
    "sessions.jsonl": "52217fcc1c68d86d3f232350009c78dd4af4861aeac6440fead2e1baf374c619",
    "space.csv": "86e1448493804a2465c0f2d4c3a1c685319480953cb2336dea192850793a3a2b",
    "threshold_log.csv": "a79571b53afc9d6434e131cd02a78fd2ec3218817a17057faaa20403030c14cc",
}

RANDOM_CONFIG = GOLDEN_CONFIG + "sim.policy = random\nsim.players = 40\n"

RANDOM_SHA256 = {
    "events.jsonl": "26f26d33ac3f8bf51ff10f0fe495c13d53f7ba63c67541efeddbdbdeea2d7d04",
    "report.txt": "d703e616160855a1f64e95df434b2dcb5388ceb874b90c3edb47f83564d59370",
    "report_numbers.csv": "171c7a681ec4189d94950baf49badfbeaafe6d7fbf66e277b23a147966841927",
    "sessions.jsonl": "45609142fe3e3ab784f152cfb33f5f0fa8c19b2a6d980a4bbb89df08a03fe0e0",
}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    config = root / "golden.conf"
    config.write_text(GOLDEN_CONFIG)
    out = root / "out"
    argv = ["pipeline", "--config", str(config), "--out", str(out)]
    assert main(argv) == 0
    return out


@pytest.fixture(scope="module")
def random_run(golden_run, tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-random")
    config = root / "random.conf"
    config.write_text(RANDOM_CONFIG)
    out = root / "out"
    out.mkdir()
    for name in ("library.sqlite", "mazes.jsonl"):
        shutil.copyfile(golden_run / name, out / name)
    for stage in ("simulate", "analyze"):
        assert main([stage, "--config", str(config), "--out", str(out)]) == 0
    return out


def test_run_directory_holds_exactly_the_golden_files(golden_run):
    assert sorted(p.name for p in golden_run.iterdir()) == sorted(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_artifact_matches_golden_digest(golden_run, name):
    digest = hashlib.sha256((golden_run / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name], name


@pytest.mark.parametrize("name", sorted(RANDOM_SHA256))
def test_random_cohort_matches_golden_digest(random_run, name):
    digest = hashlib.sha256((random_run / name).read_bytes()).hexdigest()
    assert digest == RANDOM_SHA256[name], name


CLUSTER_FILES = ("clusters.csv", "membership.csv", "threshold_log.csv")


def test_cluster_bytes_do_not_depend_on_the_process_count(golden_run, tmp_path, monkeypatch):
    """The cluster stage forked, on one CPU, and with a fork that fails,
    which searches every level in this process as on one CPU."""
    config = tmp_path / "golden.conf"
    config.write_text(GOLDEN_CONFIG)
    real_fork = os.fork
    forks = []

    def fork():
        forks.append(mode)
        if mode == "fork-fails":
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    produced = {}
    for mode, cpus in (("forked", {0, 1}), ("one-cpu", {0}), ("fork-fails", {0, 1})):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        out = tmp_path / mode
        out.mkdir()
        shutil.copyfile(golden_run / "games.csv", out / "games.csv")
        assert main(["cluster", "--config", str(config), "--out", str(out)]) == 0
        produced[mode] = {name: (out / name).read_bytes() for name in CLUSTER_FILES}
    assert forks == ["forked", "fork-fails"]
    golden = {name: (golden_run / name).read_bytes() for name in CLUSTER_FILES}
    assert produced["forked"] == produced["one-cpu"] == produced["fork-fails"] == golden


def test_stage_table_declares_each_golden_file_once():
    declared = [name for stage in STAGE_TABLE.values() for name in stage.writes]
    assert sorted(declared) == sorted(GOLDEN_SHA256)


def test_simulate_counts_the_mazes_it_built_tables_for(golden_run, tmp_path, caplog):
    """simulate's closing line counts the mazes it built routing tables for,
    which are the mazes of the games played, out of the library's mazes."""
    config = tmp_path / "golden.conf"
    config.write_text(GOLDEN_CONFIG)
    for name in ("library.sqlite", "mazes.jsonl"):
        shutil.copyfile(golden_run / name, tmp_path / name)
    with caplog.at_level(logging.INFO, logger="segforge.cli"):
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sessions.jsonl").read_bytes() == (golden_run / "sessions.jsonl").read_bytes()
    library = load_library(str(tmp_path / "library.sqlite"))
    maze_of = {game.game_id: game.maze_id for game in library.games}
    lines = (tmp_path / "sessions.jsonl").read_text().splitlines()[1:]
    played = {maze_of[json.loads(line)["game_id"]] for line in lines}
    expected = f"routing tables built for {len(played)} of {len(set(maze_of.values()))} library mazes"
    assert any(message.endswith(expected) for message in caplog.messages), caplog.messages


def test_simulate_counts_the_clusters_and_games_it_read(golden_run, tmp_path, caplog):
    """simulate reads from the library the clusters that its sessions are
    served from, with their members' game rows, and the game rows on the
    mazes it plays; a log line counts both out of the library's."""
    config = tmp_path / "golden.conf"
    config.write_text(GOLDEN_CONFIG)
    for name in ("library.sqlite", "mazes.jsonl"):
        shutil.copyfile(golden_run / name, tmp_path / name)
    with caplog.at_level(logging.INFO, logger="segforge.cli"):
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
    with load_library(str(golden_run / "library.sqlite")) as library:
        cluster_of = {(m.compound_id, m.difficulty): m.cluster_id for m in library.mapping}
        members = {c.cluster_id: c.member_game_ids for c in library.clusters}
        maze_of = {game.game_id: game.maze_id for game in library.games}
    lines = (tmp_path / "sessions.jsonl").read_text().splitlines()[1:]
    sessions = [json.loads(line) for line in lines]
    served = {cluster_of[s["compound_id"], s["difficulty"]] for s in sessions}
    played = {maze_of[s["game_id"]] for s in sessions}
    read = {g for c in served for g in members[c]} | {g for g, m in maze_of.items() if m in played}
    assert 0 < len(served) < len(members) and len(read) < len(maze_of)
    expected = (
        f"read {len(served)} of {len(members)} clusters and {len(read)} of {len(maze_of)} "
        "library games"
    )
    assert expected in caplog.messages, caplog.messages


def test_verify_finds_the_golden_run_whole_and_changes_nothing(golden_run, tmp_path, capsys, caplog):
    """verify checks every maze the library uses against its record and the
    library games on it, and writes nothing: no line on stderr, no warning,
    and the run directory keeps its files and their bytes."""
    config = tmp_path / "golden.conf"
    config.write_text(GOLDEN_CONFIG)
    before = {path.name: path.read_bytes() for path in golden_run.iterdir()}
    with caplog.at_level(logging.INFO, logger="segforge"):
        assert main(["verify", "--config", str(config), "--out", str(golden_run)]) == 0
    assert capsys.readouterr().err == ""
    assert [r.message for r in caplog.records if r.levelno >= logging.WARNING] == []
    assert {path.name: path.read_bytes() for path in golden_run.iterdir()} == before
    library = load_library(str(golden_run / "library.sqlite"))
    mazes = len({game.maze_id for game in library.games})
    expected = f"verified {mazes} mazes and {len(library.games)} library games: 0 broken"
    assert expected in caplog.messages, caplog.messages
