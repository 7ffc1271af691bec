"""Game content space: procedural mazes, structural features, parameter grid.

A game variant is a maze plus three play parameters (enemy behaviour, enemy
count, bullet count). Each maze is summarised by five structural features;
together with the play parameters they form the eight-dimensional feature
vector used by the clustering stage.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, fields
from enum import Enum

from .errors import SegforgeError

WALL = 0
PATH = 1

ENEMY_TYPES = (0, 1)  # 0 wanders randomly, 1 chases the player
ENEMY_COUNTS = (1, 2, 3, 4, 5)
BULLET_COUNTS = (1, 2, 3, 4, 5)

class DimensionTooSmall(SegforgeError):
    """Maze dimensions must be odd and at least 5x5."""


class EmptyMazeSet(SegforgeError):
    """Space enumeration needs at least one maze."""


class InsufficientData(SegforgeError):
    """Normalization needs at least two vectors."""


class Difficulty(str, Enum):
    EASY = "easy"
    MEDIUM = "medium"
    HARD = "hard"

    def __str__(self) -> str:  # CSV-friendly
        return self.value


@dataclass(frozen=True)
class MazeGrid:
    """A rectangular wall/path grid; ``cells[y][x]`` is WALL or PATH."""

    maze_id: str
    seed: int
    width: int
    height: int
    cells: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MazeFeatures:
    """Structural summary of one maze."""

    total_path: int
    total_corners: int
    total_intersections: int
    total_deadend: int
    complexity: float


_MAZE_FEATURES = tuple(f.name for f in fields(MazeFeatures))
FEATURE_NAMES = ("enemy_type", "total_enemy", "total_bullets") + _MAZE_FEATURES


@dataclass(frozen=True)
class GameParams:
    """One playable game variant."""

    game_id: str
    maze_id: str
    enemy_type: int
    total_enemy: int
    total_bullets: int


# ===== Maze generation =====


def generate_maze(seed: int, width: int, height: int, maze_id: str) -> MazeGrid:
    """Carve a perfect maze with a seeded randomized depth-first search.

    The maze lives on an odd lattice: room cells sit at odd coordinates and
    the border ring is always wall. The same (seed, width, height) triple
    always produces the same grid.
    """
    if width < 5 or height < 5 or width % 2 == 0 or height % 2 == 0:
        raise DimensionTooSmall(f"need odd dimensions >= 5, got {width}x{height}")
    rng = random.Random(seed)
    grid = [[WALL] * width for _ in range(height)]
    grid[1][1] = PATH
    stack = [(1, 1)]
    while stack:
        x, y = stack[-1]
        candidates = []
        for dx, dy in ((2, 0), (-2, 0), (0, 2), (0, -2)):
            nx, ny = x + dx, y + dy
            if 1 <= nx < width - 1 and 1 <= ny < height - 1 and grid[ny][nx] == WALL:
                candidates.append((nx, ny))
        if candidates:
            nx, ny = rng.choice(candidates)
            grid[(y + ny) // 2][(x + nx) // 2] = PATH
            grid[ny][nx] = PATH
            stack.append((nx, ny))
        else:
            stack.pop()
    cells = tuple(tuple(row) for row in grid)
    return MazeGrid(maze_id=maze_id, seed=seed, width=width, height=height, cells=cells)


def generate_mazes(count: int, width: int, height: int, base_seed: int) -> list[MazeGrid]:
    """Generate ``count`` mazes with per-maze seeds ``base_seed + index``."""
    return [
        generate_maze(base_seed + i, width, height, maze_id=f"m{i:04d}")
        for i in range(count)
    ]


# ===== Feature extraction =====


def extract_features(grid: MazeGrid) -> MazeFeatures:
    """Count corridor shapes over all path cells.

    A path cell is classified by its orthogonal path neighbours: one
    neighbour makes a dead end, three or more an intersection, and exactly
    two make a corner only when they turn (one horizontal, one vertical).
    Complexity is the classified share of the path area.
    """
    cells = grid.cells
    width, height = grid.width, grid.height
    total_path = 0
    corners = 0
    intersections = 0
    deadends = 0
    for y in range(height):
        row = cells[y]
        for x in range(width):
            if row[x] != PATH:
                continue
            total_path += 1
            horizontal = 0
            vertical = 0
            if x > 0 and row[x - 1] == PATH:
                horizontal += 1
            if x + 1 < width and row[x + 1] == PATH:
                horizontal += 1
            if y > 0 and cells[y - 1][x] == PATH:
                vertical += 1
            if y + 1 < height and cells[y + 1][x] == PATH:
                vertical += 1
            degree = horizontal + vertical
            if degree == 1:
                deadends += 1
            elif degree >= 3:
                intersections += 1
            elif degree == 2 and horizontal == 1 and vertical == 1:
                corners += 1
    complexity = (corners + intersections + deadends) / total_path if total_path else 0.0
    return MazeFeatures(
        total_path=total_path,
        total_corners=corners,
        total_intersections=intersections,
        total_deadend=deadends,
        complexity=complexity,
    )


# ===== Parameter space =====


def enumerate_space(mazes: list[MazeGrid]) -> list[GameParams]:
    """Cross every maze with all enemy type / enemy count / bullet combos.

    Mazes are taken in maze_id order so the resulting game_id sequence is
    reproducible regardless of input order.
    """
    if not mazes:
        raise EmptyMazeSet("cannot enumerate a space without mazes")
    params = []
    for maze in sorted(mazes, key=lambda m: m.maze_id):
        for enemy_type in ENEMY_TYPES:
            for total_enemy in ENEMY_COUNTS:
                for total_bullets in BULLET_COUNTS:
                    params.append(
                        GameParams(
                            game_id=f"{maze.maze_id}-e{enemy_type}-n{total_enemy}-b{total_bullets}",
                            maze_id=maze.maze_id,
                            enemy_type=enemy_type,
                            total_enemy=total_enemy,
                            total_bullets=total_bullets,
                        )
                    )
    return params


def classify_difficulty(params: GameParams) -> Difficulty:
    """Difficulty from enemy behaviour and enemy count.

    Random enemies stay easy up to three on the field; chasing enemies start
    at medium and turn hard from three on. The three rules partition the
    whole parameter grid.
    """
    if params.enemy_type == 0:
        return Difficulty.EASY if params.total_enemy <= 3 else Difficulty.MEDIUM
    return Difficulty.MEDIUM if params.total_enemy <= 2 else Difficulty.HARD


# ===== Feature scaling =====


@dataclass(frozen=True)
class FeatureScaler:
    """Per-dimension min/max bounds for [0, 1] scaling."""

    mins: tuple[float, ...]
    maxs: tuple[float, ...]

    @classmethod
    def fit(cls, vectors: list[tuple[float, ...]]) -> "FeatureScaler":
        if len(vectors) < 2:
            raise InsufficientData("min-max scaling needs at least two vectors")
        dim = len(vectors[0])
        if any(len(v) != dim for v in vectors):
            raise ValueError("vectors must share one dimensionality")
        mins = tuple(min(v[d] for v in vectors) for d in range(dim))
        maxs = tuple(max(v[d] for v in vectors) for d in range(dim))
        return cls(mins=mins, maxs=maxs)

    def transform(self, vectors: list[tuple[float, ...]]) -> list[tuple[float, ...]]:
        spans = [mx - mn for mn, mx in zip(self.mins, self.maxs)]
        out = []
        for v in vectors:
            out.append(
                tuple(
                    (x - mn) / span if span else 0.0
                    for x, mn, span in zip(v, self.mins, spans)
                )
            )
        return out


# ===== Maze store serialization =====

_RLE_TOKEN = re.compile(r"(\d+)([WP])")


def encode_cells(grid: MazeGrid) -> str:
    """Run-length encode the flattened grid, e.g. ``21W1P3W...``."""
    flat = [cell for row in grid.cells for cell in row]
    parts = []
    run_value = flat[0]
    run_length = 0
    for cell in flat:
        if cell == run_value:
            run_length += 1
        else:
            parts.append(f"{run_length}{'P' if run_value == PATH else 'W'}")
            run_value = cell
            run_length = 1
    parts.append(f"{run_length}{'P' if run_value == PATH else 'W'}")
    return "".join(parts)


def decode_cells(rle: str, width: int, height: int) -> tuple[tuple[int, ...], ...]:
    flat: list[int] = []
    consumed = 0
    for match in _RLE_TOKEN.finditer(rle):
        consumed += len(match.group(0))
        flat.extend([PATH if match.group(2) == "P" else WALL] * int(match.group(1)))
    if consumed != len(rle) or len(flat) != width * height:
        raise ValueError(f"run-length payload does not cover a {width}x{height} grid")
    return tuple(tuple(flat[y * width : (y + 1) * width]) for y in range(height))


def maze_to_record(grid: MazeGrid, features: MazeFeatures) -> dict:
    record = dict(vars(grid), cells=encode_cells(grid))
    record.update((name, getattr(features, name)) for name in _MAZE_FEATURES)
    return record


def maze_from_record(record: dict) -> tuple[MazeGrid, MazeFeatures]:
    grid = MazeGrid(
        maze_id=record["maze_id"],
        seed=record["seed"],
        width=record["width"],
        height=record["height"],
        cells=decode_cells(record["cells"], record["width"], record["height"]),
    )
    return grid, MazeFeatures(*[record[name] for name in _MAZE_FEATURES])


def maze_record_json(grid: MazeGrid, features: MazeFeatures) -> str:
    return json.dumps(maze_to_record(grid, features), sort_keys=False)
