"""Output checks, artifact digests and artifact counts for one repetition.

A check returns a list of problems; an empty list means the output is correct.
Counts are read from the artifacts the stages wrote, so they exist whether or
not the run is traced, and two runs of one seed must give the same ones.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

BUILD_ARTIFACTS = (
    "annotations.jsonl",
    "mazes.jsonl",
    "space.csv",
    "games.csv",
    "clusters.csv",
    "membership.csv",
    "threshold_log.csv",
    "library.sqlite",
    "library.json",
)
COHORT_ARTIFACTS = ("sessions.jsonl", "events.jsonl", "report.txt", "report_numbers.csv")
LEVELS = ("easy", "medium", "hard")


def digests(out: Path, names: tuple[str, ...]) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def _csv_rows(path: Path) -> list[dict[str, str]]:
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _jsonl(path: Path) -> tuple[dict, list[dict]]:
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]


def build_counts(out: Path, k: int) -> dict[str, int]:
    log = _csv_rows(out / "threshold_log.csv")
    scored = [row for row in log if row["silhouette"]]
    _, mazes = _jsonl(out / "mazes.jsonl")
    return {
        "contentspace.mazes": len(mazes),
        "contentspace.games": len(_csv_rows(out / "space.csv")),
        "clustering.candidates": len(log),
        "clustering.leaves": sum(int(row["leaf_count"]) for row in log),
        "clustering.refine_merges": sum(int(row["leaf_count"]) - k for row in scored),
        "mapping.library_bytes": (out / "library.sqlite").stat().st_size,
        "cli.build_bytes": sum((out / name).stat().st_size for name in BUILD_ARTIFACTS),
    }


def cohort_counts(out: Path) -> dict[str, int]:
    _, sessions = _jsonl(out / "sessions.jsonl")
    _, events = _jsonl(out / "events.jsonl")
    return {
        "engine.sessions": len(sessions),
        "engine.victories": sum(r["outcome"] == "victory" for r in sessions),
        "engine.recycles": sum(bool(r["recycled"]) for r in sessions),
        "engine.events": len(events),
        "cli.cohort_bytes": sum((out / name).stat().st_size for name in COHORT_ARTIFACTS),
    }


def check_build(mods, config, out: Path) -> list[str]:
    """The library loads and validates, each level has ``cluster.k`` clusters,
    and membership rows = sum of cluster n = game count."""
    problems = []
    missing = [name for name in BUILD_ARTIFACTS if not (out / name).is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"]
    try:
        library = mods.mapping.load_library(str(out / "library.sqlite"), config.config_hash())
        mods.mapping.validate_library(library)
    except mods.errors.SegforgeError as exc:
        return [f"library.sqlite does not validate: {exc}"]
    for level in LEVELS:
        found = sum(c.difficulty == level for c in library.clusters)
        if found != config.cluster_k:
            problems.append(f"level {level} has {found} clusters, expected {config.cluster_k}")
    members = len(_csv_rows(out / "membership.csv"))
    total_n = sum(c.n for c in library.clusters)
    games = len(_csv_rows(out / "games.csv"))
    if not members == total_n == games == len(library.games):
        problems.append(
            f"membership rows {members}, sum of cluster n {total_n}, games.csv rows {games}"
            f" and library games {len(library.games)} differ"
        )
    if len(_jsonl(out / "mazes.jsonl")[1]) != config.maze_count:
        problems.append(f"mazes.jsonl does not hold {config.maze_count} mazes")
    return problems


def check_cohort(library, config, out: Path) -> tuple[int, list[str]]:
    """Sessions served from the wrong cluster, or missing, and other problems.

    Returns (failed sessions, problems). Every session must serve a game of the
    cluster mapped for its compound and difficulty, the session count must equal
    players x sessions, and the report must be written.
    """
    expected = config.sim_players * config.sim_sessions
    problems = []
    missing = [name for name in COHORT_ARTIFACTS if not (out / name).is_file()]
    if missing:
        return expected, [f"missing artifacts: {', '.join(missing)}"]
    if not (out / "report.txt").read_text(encoding="utf-8").strip():
        problems.append("report.txt is empty")
    _, sessions = _jsonl(out / "sessions.jsonl")
    members = {c.cluster_id: set(c.member_game_ids) for c in library.clusters}
    served_right = 0
    for record in sessions:
        try:
            cluster = library.cluster_for(record["compound_id"], record["difficulty"])
        except KeyError:
            continue
        served_right += record["game_id"] in members[cluster.cluster_id]
    if len(sessions) != expected:
        problems.append(f"{len(sessions)} sessions written, expected {expected}")
    if served_right != len(sessions):
        problems.append(f"{len(sessions) - served_right} sessions served outside their mapped cluster")
    return max(expected - served_right, 0), problems
