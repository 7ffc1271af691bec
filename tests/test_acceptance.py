"""Release acceptance suite.

One test per release criterion, numbered and self-contained. Each test
prints a single summary line on success so a run with ``-s`` (or the
captured output of a failure) reads as a checklist. Criteria that exercise
the full-scale pipeline share two complete default-configuration runs.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import random
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from segforge.cli import STAGE_TABLE, main
from segforge.clustering import CFTree, search_threshold, silhouette
from segforge.config import load_config
from segforge.contentspace import (
    Difficulty,
    GameParams,
    classify_difficulty,
    enumerate_space,
    generate_mazes,
    maze_from_record,
)
from segforge.engine import PlayerProfile, maze_tree, run_session
from segforge.gamestats import crosstab, proportion_ztest, render_p_value
from segforge.knowledge import (
    annotate,
    annotate_dataset,
    load_periodic_table,
    parse_compound_line,
)
from segforge.mapping import load_library

import cftree_reference as reference

LEVELS = ("easy", "medium", "hard")
CONFIG = load_config()
STATS = dict(
    ci_level=CONFIG.stats_ci_level,
    significance=CONFIG.stats_significance,
    min_n=CONFIG.stats_min_n,
)
STAGES = tuple(STAGE_TABLE)


def _ok(number: int, text: str) -> None:
    print(f"criterion {number}: PASS - {text}")


def _read_rows(path: Path) -> list[dict[str, str]]:
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    return list(csv.DictReader(lines[1:]))


@pytest.fixture(scope="session")
def full_runs(tmp_path_factory) -> list[tuple[Path, dict[str, float]]]:
    """Two complete pipeline runs at default settings, with stage timings."""
    runs = []
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp(f"full_{tag}")
        timings: dict[str, float] = {}
        started = perf_counter()
        for stage in STAGES:
            stage_start = perf_counter()
            assert main([stage, "--out", str(out)]) == 0, stage
            timings[stage] = perf_counter() - stage_start
        timings["total"] = perf_counter() - started
        runs.append((out, timings))
    return runs


@pytest.fixture(scope="session")
def serving_library(tmp_path_factory):
    """A reduced but complete content library for high-volume serving tests."""
    root = tmp_path_factory.mktemp("serving")
    cfg = root / "reduced.cfg"
    cfg.write_text("maze.count = 24\nmaze.width = 15\nmaze.height = 15\n")
    art = root / "artifacts"
    for stage in ("annotate", "gen-space", "categorize", "cluster", "map"):
        assert main([stage, "--config", str(cfg), "--out", str(art)]) == 0, stage
    library = load_library(str(art / "library.sqlite"))
    mazes = {}
    for line in (art / "mazes.jsonl").read_text().splitlines()[1:]:
        grid, _ = maze_from_record(json.loads(line))
        mazes[grid.maze_id] = maze_tree(grid)
    return library, mazes


# ===== 1. Annotation fidelity =====


def test_criterion_1_annotation_fidelity() -> None:
    table = load_periodic_table()
    spec = parse_compound_line("CO2|carbon dioxide|1 C|2 O")
    elapsed = min(_timed_annotate(spec, table) for _ in range(3))
    annotation = annotate(spec, table)
    observed = (
        annotation.atom_1_number,
        annotation.atom_2_number,
        annotation.total_types_of_atom,
        annotation.total_atom,
        annotation.total_character_symbol_1,
        annotation.total_character_symbol_2,
    )
    assert observed == (6, 8, 2, 3, 1, 1)
    assert elapsed < 0.001
    _ok(1, f"CO2 -> {observed} in {elapsed * 1e6:.0f} us")


def _timed_annotate(spec, table) -> float:
    start = perf_counter()
    annotate(spec, table)
    return perf_counter() - start


# ===== 2. Ordering fidelity =====


def test_criterion_2_ordering_fidelity() -> None:
    ordered = annotate_dataset()
    by_formula = {a.formula: a.compound_id for a in ordered}
    assert by_formula["H2"] == 1
    assert by_formula["CaB6"] == 100
    assert sorted(a.compound_id for a in ordered) == list(range(1, 101))
    _ok(2, "H2 ranks first and CaB6 ranks last of 100 compounds")


# ===== 3. Content space size =====


def test_criterion_3_content_space_size() -> None:
    mazes = generate_mazes(972, 21, 21, base_seed=9001)
    games = enumerate_space(mazes)
    assert len(games) == 48600

    # The rules must classify every cell of the (enemy_type, total_enemy)
    # grid, with no gaps and no overlap.
    expected_grid = {
        (0, 1): Difficulty.EASY,
        (0, 2): Difficulty.EASY,
        (0, 3): Difficulty.EASY,
        (0, 4): Difficulty.MEDIUM,
        (0, 5): Difficulty.MEDIUM,
        (1, 1): Difficulty.MEDIUM,
        (1, 2): Difficulty.MEDIUM,
        (1, 3): Difficulty.HARD,
        (1, 4): Difficulty.HARD,
        (1, 5): Difficulty.HARD,
    }
    observed_grid = {
        (et, te): classify_difficulty(GameParams("g", "m", et, te, 1))
        for et in (0, 1)
        for te in range(1, 6)
    }
    assert observed_grid == expected_grid

    # Five bullet loadouts per rule cell per maze.
    cells = Counter(expected_grid.values())
    per_level = Counter(classify_difficulty(game) for game in games)
    for level, cell_count in cells.items():
        assert per_level[level] == 5 * len(mazes) * cell_count
    assert sum(per_level.values()) == 48600
    split = {level.value: count for level, count in sorted(per_level.items())}
    _ok(3, f"972 mazes -> 48600 games split {split}")


# ===== 4. Tree clustering at desk scale =====

_BLOB_CENTERS = ((0.0, 0.0), (12.0, 0.0), (0.0, 12.0), (12.0, 12.0))
_BLOB_OFFSETS = (
    (0.0, 0.0),
    (0.9, 0.2),
    (-0.7, 0.5),
    (0.4, -0.8),
    (-0.3, -0.6),
    (0.6, 0.7),
    (-0.9, -0.1),
    (0.1, 0.9),
)


def _desk_points() -> tuple[list[tuple[float, float]], list[str]]:
    points, tags = [], []
    for blob, (cx, cy) in enumerate(_BLOB_CENTERS):
        for slot, (dx, dy) in enumerate(_BLOB_OFFSETS):
            points.append((cx + dx, cy + dy))
            tags.append(f"p{blob}{slot}")
    return points, tags


def _best_medoid_partition(points: list[tuple[float, float]]) -> set[frozenset[int]]:
    """Exhaustive scan of every 4-medoid assignment, minimal total distance."""
    data = np.asarray(points)
    diff = data[:, None, :] - data[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    combos = np.array(list(itertools.combinations(range(len(points)), 4)))
    per_combo = sq[combos]
    costs = per_combo.min(axis=1).sum(axis=1)
    assignment = per_combo[costs.argmin()].argmin(axis=0)
    groups: dict[int, set[int]] = {}
    for index, slot in enumerate(assignment):
        groups.setdefault(int(slot), set()).add(index)
    return {frozenset(group) for group in groups.values()}


def _check_tree_invariants(tree: CFTree, points_by_tag: dict[str, tuple[float, ...]]) -> None:
    assert tree.root is not None
    seen: list[str] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        assert 1 <= len(node.entries) <= tree.branching
        for entry in node.entries:
            if node.is_leaf:
                assert entry.child is None
                assert entry.cf.n == len(entry.members)
                seen.extend(entry.members)
                expected = reference.ClusteringFeature.zero(tree.dim)
                for tag in entry.members:
                    expected.add_point(points_by_tag[tag])
                for d in range(tree.dim):
                    assert math.isclose(entry.cf.ls[d], expected.ls[d], abs_tol=1e-9)
                    assert math.isclose(entry.cf.ss[d], expected.ss[d], abs_tol=1e-9)
            else:
                child = entry.child
                assert child is not None and child.entries
                total = reference.ClusteringFeature.zero(tree.dim)
                for sub in child.entries:
                    total.add(sub.cf)
                assert entry.cf.n == total.n
                for d in range(tree.dim):
                    assert math.isclose(entry.cf.ls[d], total.ls[d], abs_tol=1e-9)
                    assert math.isclose(entry.cf.ss[d], total.ss[d], abs_tol=1e-9)
                stack.append(child)
    assert sorted(seen) == sorted(points_by_tag)


def test_criterion_4_tree_clustering_desk_scale() -> None:
    points, tags = _desk_points()
    oracle = _best_medoid_partition(points)
    assert len(oracle) == 4

    started = perf_counter()
    result = search_threshold(
        points,
        tags,
        grid=(0.25, 0.5, 1.0, 2.0),
        k=4,
        branching=3,
        sample_cap=len(points),
        seed=CONFIG.cluster_seed,
    )
    elapsed = perf_counter() - started
    index_of = {tag: i for i, tag in enumerate(tags)}
    partition = {
        frozenset(index_of[tag] for tag in cluster.members)
        for cluster in result.clusters
    }
    assert partition == oracle
    assert elapsed < 1.0

    rng = random.Random(20260814)
    points_by_tag = dict(zip(tags, points))
    for round_number in range(1000):
        order = list(range(len(points)))
        rng.shuffle(order)
        tree = CFTree(
            threshold=(0.5, 1.0, 2.0)[round_number % 3],
            branching=(2, 3, 4)[(round_number // 3) % 3],
        )
        for index in order:
            tree.insert(points[index], tags[index])
        _check_tree_invariants(tree, points_by_tag)
    _ok(4, f"4 blobs recovered exactly in {elapsed * 1e3:.1f} ms; 1000 insertion orders clean")


# ===== 5. Silhouette oracle =====


def _brute_silhouette(points: list[tuple[float, ...]], labels: list[int]) -> float:
    total = 0.0
    for i, point in enumerate(points):
        own_sum, own_count = 0.0, 0
        foreign: dict[int, tuple[float, int]] = {}
        for j, other in enumerate(points):
            if i == j:
                continue
            d = math.dist(point, other)
            if labels[j] == labels[i]:
                own_sum += d
                own_count += 1
            else:
                acc, count = foreign.get(labels[j], (0.0, 0))
                foreign[labels[j]] = (acc + d, count + 1)
        a = own_sum / own_count
        b = min(acc / count for acc, count in foreign.values())
        denom = max(a, b)
        total += 0.0 if denom == 0 else (b - a) / denom
    return total / len(points)


def test_criterion_5_silhouette_oracle(full_runs) -> None:
    rng = random.Random(7)
    cases = []
    floats = [tuple(rng.uniform(-5.0, 5.0) for _ in range(8)) for _ in range(200)]
    float_labels = [i % 7 for i in range(200)]
    rng.shuffle(float_labels)
    cases.append((floats, float_labels))
    lattice = [tuple(float(rng.randrange(4)) for _ in range(3)) for _ in range(60)]
    lattice_labels = [i % 3 for i in range(60)]
    rng.shuffle(lattice_labels)
    cases.append((lattice, lattice_labels))
    for points, labels in cases:
        expected = _brute_silhouette(points, labels)
        for cap in (len(points), CONFIG.cluster_sample_cap):
            assert silhouette(
                points, labels, sample_cap=cap, seed=CONFIG.cluster_seed
            ) == pytest.approx(expected, abs=1e-9)

    # The full-scale run must score every feasible grid threshold inside
    # [-1, 1] and keep the best scorer (smallest threshold on ties).
    out_a, _ = full_runs[0]
    rows = _read_rows(out_a / "threshold_log.csv")
    for level in LEVELS:
        level_rows = [row for row in rows if row["difficulty"] == level]
        assert len(level_rows) == 5
        scored = [
            (float(row["threshold"]), float(row["silhouette"]))
            for row in level_rows
            if row["silhouette"]
        ]
        assert scored, level
        for _, value in scored:
            assert -1.0 <= value <= 1.0
        chosen = [row for row in level_rows if row["selected"] == "true"]
        assert len(chosen) == 1
        best_score = max(value for _, value in scored)
        best_threshold = min(t for t, value in scored if value == best_score)
        assert float(chosen[0]["threshold"]) == best_threshold
        assert float(chosen[0]["silhouette"]) == best_score
    _ok(5, "matches the quadratic reference; full run scored and argmaxed every level")


# ===== 6. Mapping structure =====


def test_criterion_6_mapping_structure(full_runs) -> None:
    out_a, timings = full_runs[0]
    build_seconds = sum(timings[stage] for stage in STAGES[:5])
    assert build_seconds < 300.0

    cluster_rows = _read_rows(out_a / "clusters.csv")
    assert len(cluster_rows) == 300
    assert Counter(row["difficulty"] for row in cluster_rows) == {
        level: 100 for level in LEVELS
    }

    payload = json.loads((out_a / "library.json").read_text())
    mapping = payload["mapping"]
    assert len(mapping) == 300
    coverage = {(entry["compound_id"], entry["difficulty"]) for entry in mapping}
    assert coverage == {(c, level) for c in range(1, 101) for level in LEVELS}

    size_of = {c["cluster_id"]: c["n"] for c in payload["clusters"]}
    for level in LEVELS:
        entries = sorted(
            (entry for entry in mapping if entry["difficulty"] == level),
            key=lambda entry: entry["compound_id"],
        )
        cluster_ids = [entry["cluster_id"] for entry in entries]
        assert len(set(cluster_ids)) == 100
        sizes = [size_of[cluster_id] for cluster_id in cluster_ids]
        assert all(left <= right for left, right in zip(sizes, sizes[1:]))
    _ok(6, f"300 clusters mapped bijectively per level in {build_seconds:.0f} s")


# ===== 7. Serving contracts =====


def test_criterion_7_serving_contracts(serving_library) -> None:
    library, mazes = serving_library
    total_sessions = 0
    for p in range(20):
        profile = PlayerProfile(f"acceptance-{p:02d}")
        profile.mastery = (Difficulty.EASY, Difficulty.MEDIUM, Difficulty.HARD)[p % 3]
        served: set[str] = set()
        for _ in range(50):
            cluster = library.cluster_for(
                profile.next_material_index, profile.mastery.value
            )
            members = set(cluster.member_game_ids)
            remaining = sorted(members - profile.played_game_ids)
            expect_recycled = not remaining
            if expect_recycled:
                remaining = sorted(members)

            # Independent nearest-to-centroid scan over the same pool.
            vectors = {gid: library.game(gid).vector() for gid in remaining}
            mean = [
                sum(vector[d] for vector in vectors.values()) / len(vectors)
                for d in range(8)
            ]
            expected_game, best = None, None
            for gid in remaining:
                dist = sum((x - m) ** 2 for x, m in zip(vectors[gid], mean))
                if best is None or dist < best:
                    best, expected_game = dist, gid

            record = run_session(
                profile, library, mazes, "greedy", seed=90_000 + total_sessions,
                recycle=True,
                positive_weights=CONFIG.positive_weights,
                negative_weights=CONFIG.negative_weights,
            )
            total_sessions += 1
            assert record.game_id == expected_game
            assert record.game_id in members
            assert record.recycled == expect_recycled
            if expect_recycled:
                served -= members
            assert record.game_id not in served
            served.add(record.game_id)
    assert total_sessions == 1000
    _ok(7, "1000 sessions: no repeats before recycle, members only, scans agree")


# ===== 8. Statistics fidelity =====


def test_criterion_8_statistics_fidelity() -> None:
    two_sided = proportion_ztest(352, 540, **STATS)
    assert abs(two_sided.z - 7.06) <= 0.01
    assert render_p_value(two_sided.p_value) == "0.00000"
    greater = proportion_ztest(352, 540, alternative="greater", **STATS)
    less = proportion_ztest(352, 540, alternative="less", **STATS)
    assert two_sided.h0_rejected
    assert greater.h0_rejected
    assert not less.h0_rejected

    pairs = (
        [(True, True)] * 154
        + [(True, False)] * 48
        + [(False, True)] * 65
        + [(False, False)] * 42
    )
    table = crosstab(pairs)
    observed = (
        table.fun_learning,
        table.fun_not_learning,
        table.not_fun_learning,
        table.not_fun_not_learning,
    )
    assert observed == (154, 48, 65, 42)
    assert table.total == 309
    _ok(8, f"z={two_sided.z:.4f}, p renders 0.00000, crosstab {observed}")


# ===== 9. End-to-end determinism =====


def test_criterion_9_end_to_end_determinism(full_runs) -> None:
    (out_a, timings_a), (out_b, timings_b) = full_runs
    digests = {}
    for name in ("library.sqlite", "library.json"):
        digest_a = hashlib.sha256((out_a / name).read_bytes()).hexdigest()
        digest_b = hashlib.sha256((out_b / name).read_bytes()).hexdigest()
        assert digest_a == digest_b, name
        digests[name] = digest_a
    wall = timings_a["total"] + timings_b["total"]
    assert wall < 600.0
    _ok(9, f"library digests match ({digests['library.sqlite'][:12]}...) in {wall:.0f} s")


def test_full_runs_repeat_every_artifact(full_runs) -> None:
    """Stronger than the release bar: every artifact is byte-identical."""
    (out_a, _), (out_b, _) = full_runs
    names = sorted(path.name for path in out_a.iterdir() if path.is_file())
    assert names == sorted(path.name for path in out_b.iterdir() if path.is_file())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
