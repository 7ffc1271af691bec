"""Tests for maze generation, feature extraction and the parameter space."""

from __future__ import annotations

from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segforge.contentspace import (
    BULLET_COUNTS,
    ENEMY_COUNTS,
    ENEMY_TYPES,
    PATH,
    WALL,
    Difficulty,
    DimensionTooSmall,
    EmptyMazeSet,
    FEATURE_NAMES,
    FeatureScaler,
    GameParams,
    InsufficientData,
    MazeFeatures,
    MazeGrid,
    classify_difficulty,
    decode_cells,
    encode_cells,
    enumerate_space,
    extract_features,
    generate_maze,
    generate_mazes,
    maze_from_record,
    maze_to_record,
)
from segforge.config import load_config
from segforge.mapping import GameRecord

CONFIG = load_config()
SIZE = (CONFIG.maze_width, CONFIG.maze_height)


def _maze(seed: int) -> MazeGrid:
    """The maze ``seed`` carves at the pipeline's size."""
    return generate_maze(seed, *SIZE, f"m{seed}")


def _grid_from_strings(rows: list[str], maze_id: str = "hand") -> MazeGrid:
    cells = tuple(
        tuple(PATH if ch == "." else WALL for ch in row) for row in rows
    )
    return MazeGrid(
        maze_id=maze_id, seed=0, width=len(rows[0]), height=len(rows), cells=cells
    )


# ===== Feature extraction on hand-built grids =====


def test_straight_corridor_counts_two_deadends_no_corners() -> None:
    grid = _grid_from_strings(
        [
            "#######",
            "#.....#",
            "#######",
        ]
    )
    features = extract_features(grid)
    assert features.total_path == 5
    assert features.total_corners == 0
    assert features.total_intersections == 0
    assert features.total_deadend == 2
    assert features.complexity == pytest.approx(0.4)


def test_l_bend_counts_one_corner() -> None:
    grid = _grid_from_strings(
        [
            "#####",
            "#...#",
            "###.#",
            "###.#",
            "#####",
        ]
    )
    features = extract_features(grid)
    assert features.total_path == 5
    assert features.total_corners == 1
    assert features.total_intersections == 0
    assert features.total_deadend == 2
    assert features.complexity == pytest.approx(0.6)


def test_plus_shape_counts_one_intersection_four_deadends() -> None:
    grid = _grid_from_strings(
        [
            "#####",
            "##.##",
            "#...#",
            "##.##",
            "#####",
        ]
    )
    features = extract_features(grid)
    assert features.total_path == 5
    assert features.total_corners == 0
    assert features.total_intersections == 1
    assert features.total_deadend == 4
    assert features.complexity == pytest.approx(1.0)


def test_straight_through_cells_are_not_corners() -> None:
    # A 2x2 open block: every cell has one horizontal and one vertical
    # neighbour, so all four count as corners.
    grid = _grid_from_strings(
        [
            "####",
            "#..#",
            "#..#",
            "####",
        ]
    )
    features = extract_features(grid)
    assert features.total_corners == 4
    assert features.total_deadend == 0
    assert features.total_intersections == 0


# ===== Maze generation =====


def _path_cells(grid: MazeGrid) -> list[tuple[int, int]]:
    return [
        (x, y)
        for y in range(grid.height)
        for x in range(grid.width)
        if grid.cells[y][x] == PATH
    ]


def _is_connected(grid: MazeGrid) -> bool:
    cells = set(_path_cells(grid))
    if not cells:
        return False
    start = next(iter(cells))
    seen = {start}
    queue = deque([start])
    while queue:
        x, y = queue.popleft()
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            neighbor = (x + dx, y + dy)
            if neighbor in cells and neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return seen == cells


def _adjacency_count(grid: MazeGrid) -> int:
    cells = set(_path_cells(grid))
    count = 0
    for x, y in cells:
        if (x + 1, y) in cells:
            count += 1
        if (x, y + 1) in cells:
            count += 1
    return count


def test_generated_maze_has_wall_border() -> None:
    grid = _maze(3)
    assert all(cell == WALL for cell in grid.cells[0])
    assert all(cell == WALL for cell in grid.cells[-1])
    assert all(row[0] == WALL and row[-1] == WALL for row in grid.cells)


def test_generated_maze_is_perfect() -> None:
    # Perfect maze: connected and acyclic, i.e. path-cell adjacencies form a
    # spanning tree of the path cells.
    for seed in range(5):
        grid = _maze(seed)
        assert _is_connected(grid)
        assert _adjacency_count(grid) == len(_path_cells(grid)) - 1


def test_default_maze_has_199_path_cells() -> None:
    # 10x10 rooms on the odd lattice plus 99 carved connections.
    grid = _maze(11)
    assert len(_path_cells(grid)) == 199


def test_maze_generation_is_deterministic_per_seed() -> None:
    assert _maze(42).cells == _maze(42).cells
    assert _maze(42).cells != _maze(43).cells


@pytest.mark.parametrize("width,height", [(4, 21), (21, 4), (3, 21), (21, 3), (20, 21), (21, 20)])
def test_maze_rejects_bad_dimensions(width: int, height: int) -> None:
    with pytest.raises(DimensionTooSmall):
        generate_maze(0, width, height, "m0")


def test_minimum_maze_size_works() -> None:
    grid = generate_maze(0, 5, 5, "m0")
    assert _is_connected(grid)


# ===== Space enumeration and difficulty =====


def test_enumerate_space_is_full_cartesian_product() -> None:
    mazes = generate_mazes(2, *SIZE, base_seed=5)
    space = enumerate_space(mazes)
    assert len(space) == 2 * len(ENEMY_TYPES) * len(ENEMY_COUNTS) * len(BULLET_COUNTS)
    assert len({p.game_id for p in space}) == len(space)


def test_enumerate_space_orders_by_maze_id() -> None:
    mazes = generate_mazes(3, *SIZE, base_seed=1)
    shuffled = [mazes[2], mazes[0], mazes[1]]
    assert enumerate_space(shuffled) == enumerate_space(mazes)


def test_enumerate_space_rejects_empty_input() -> None:
    with pytest.raises(EmptyMazeSet):
        enumerate_space([])


def _params(enemy_type: int, total_enemy: int) -> GameParams:
    return GameParams(
        game_id="g",
        maze_id="m",
        enemy_type=enemy_type,
        total_enemy=total_enemy,
        total_bullets=1,
    )


@pytest.mark.parametrize(
    "enemy_type,total_enemy,expected",
    [
        (0, 1, Difficulty.EASY),
        (0, 2, Difficulty.EASY),
        (0, 3, Difficulty.EASY),
        (0, 4, Difficulty.MEDIUM),
        (0, 5, Difficulty.MEDIUM),
        (1, 1, Difficulty.MEDIUM),
        (1, 2, Difficulty.MEDIUM),
        (1, 3, Difficulty.HARD),
        (1, 4, Difficulty.HARD),
        (1, 5, Difficulty.HARD),
    ],
)
def test_difficulty_truth_table(enemy_type: int, total_enemy: int, expected: Difficulty) -> None:
    assert classify_difficulty(_params(enemy_type, total_enemy)) is expected


@given(
    enemy_type=st.sampled_from(ENEMY_TYPES),
    total_enemy=st.sampled_from(ENEMY_COUNTS),
)
def test_difficulty_rules_partition_the_grid(enemy_type: int, total_enemy: int) -> None:
    level = classify_difficulty(_params(enemy_type, total_enemy))
    assert level in (Difficulty.EASY, Difficulty.MEDIUM, Difficulty.HARD)


def test_per_maze_difficulty_counts() -> None:
    space = enumerate_space(generate_mazes(1, *SIZE, CONFIG.space_seed))
    counts = Counter(classify_difficulty(p) for p in space)
    assert counts[Difficulty.EASY] == 15
    assert counts[Difficulty.MEDIUM] == 20
    assert counts[Difficulty.HARD] == 15


# ===== Vectors and scaling =====


def test_vectorize_component_order() -> None:
    game = GameRecord(
        game_id="g",
        maze_id="m",
        enemy_type=1,
        total_enemy=4,
        total_bullets=2,
        difficulty="hard",
        total_path=199,
        total_corners=60,
        total_intersections=30,
        total_deadend=12,
        complexity=0.51,
    )
    assert game.vector() == (1.0, 4.0, 2.0, 199.0, 60.0, 30.0, 12.0, 0.51)
    assert game.vector() == tuple(float(getattr(game, name)) for name in FEATURE_NAMES)


def _scaled(vectors: list[tuple[float, ...]]) -> list[tuple[float, ...]]:
    return FeatureScaler.fit(vectors).transform(vectors)


def test_normalize_maps_to_unit_interval() -> None:
    vectors = [(0.0, 10.0), (5.0, 20.0), (10.0, 30.0)]
    assert _scaled(vectors) == [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]


def test_normalize_constant_dimension_becomes_zero() -> None:
    vectors = [(7.0, 1.0), (7.0, 2.0)]
    assert _scaled(vectors) == [(0.0, 0.0), (0.0, 1.0)]


def test_normalize_needs_two_vectors() -> None:
    with pytest.raises(InsufficientData):
        _scaled([(1.0, 2.0)])


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
        min_size=2,
        max_size=12,
    )
)
def test_normalized_values_stay_in_unit_interval(vectors: list[tuple[float, float]]) -> None:
    for vector in _scaled(vectors):
        for x in vector:
            assert -1e-12 <= x <= 1.0 + 1e-12


# ===== Maze store round trip =====


def test_rle_round_trip() -> None:
    grid = _maze(9)
    assert decode_cells(encode_cells(grid), grid.width, grid.height) == grid.cells


def test_rle_rejects_truncated_payload() -> None:
    with pytest.raises(ValueError):
        decode_cells("3W", 2, 2)


def test_maze_record_round_trip() -> None:
    grid = _maze(4)
    features = extract_features(grid)
    back_grid, back_features = maze_from_record(maze_to_record(grid, features))
    assert back_grid == grid
    assert back_features == features


def test_generated_features_look_sane() -> None:
    for seed in range(3):
        grid = _maze(seed)
        features = extract_features(grid)
        classified = (
            features.total_corners + features.total_intersections + features.total_deadend
        )
        assert classified <= features.total_path
        assert 0.0 <= features.complexity <= 3.0
        assert features.total_deadend >= 1
