"""The BFS bot simulator that routed on distance fields, kept as an oracle.

The code below ``_Arena`` is the simulator as it was before routing moved to
unique-path queries on the maze's spanning tree, copied verbatim: every route
is a breadth-first search over the path cells, several per tick. On a perfect
maze it must give the same ``SimResult`` as ``segforge.engine.bot_simulate``,
events included.
"""

from __future__ import annotations

import random
from collections import deque

from segforge.contentspace import GameParams, MazeGrid, PATH
from segforge.engine import (
    AVATAR_SPEED,
    BAD_ATOMS_ON_FIELD,
    COLLECTION_TARGET,
    GOOD_ATOMS_ON_FIELD,
    NEGATIVE_ACTION_NAMES,
    POSITIVE_ACTION_NAMES,
    SHOT_RANGE,
    STARTING_LIVES,
    TIME_LIMIT,
    ActionTally,
    SimEvent,
    SimResult,
)
from segforge.mapping import GameRecord


class _Arena:
    """Mutable play state on one maze."""

    def __init__(self, grid: MazeGrid, params: GameParams | GameRecord, rng: random.Random):
        self.rng = rng
        self.width = grid.width
        self.height = grid.height
        self.cells = grid.cells
        self.path_cells = [
            (x, y)
            for y in range(grid.height)
            for x in range(grid.width)
            if grid.cells[y][x] == PATH
        ]
        self.start = self.path_cells[0]
        self.exit = self.path_cells[-1]
        self.avatar = self.start
        self.lives = STARTING_LIVES
        self.ammo = params.total_bullets
        self.collected = 0
        self.enemy_type = params.enemy_type
        spawn_candidates = [
            c for c in self.path_cells if c not in (self.start, self.exit)
        ]
        self.enemies = rng.sample(spawn_candidates, min(params.total_enemy, len(spawn_candidates)))
        free = [c for c in spawn_candidates if c not in self.enemies]
        picks = rng.sample(free, min(GOOD_ATOMS_ON_FIELD + BAD_ATOMS_ON_FIELD, len(free)))
        self.good_atoms = set(picks[:GOOD_ATOMS_ON_FIELD])
        self.bad_atoms = set(picks[GOOD_ATOMS_ON_FIELD:])

    def is_path(self, cell: tuple[int, int]) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height and self.cells[y][x] == PATH

    def neighbors(self, cell: tuple[int, int]) -> list[tuple[int, int]]:
        x, y = cell
        return [
            c
            for c in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
            if self.is_path(c)
        ]

    def respawn_atom(self, good: bool) -> None:
        occupied = self.good_atoms | self.bad_atoms | {self.avatar, self.start, self.exit}
        free = [c for c in self.path_cells if c not in occupied]
        if not free:
            return
        cell = self.rng.choice(free)
        (self.good_atoms if good else self.bad_atoms).add(cell)

    def line_of_sight(self, source: tuple[int, int], target: tuple[int, int]) -> bool:
        sx, sy = source
        tx, ty = target
        if sx != tx and sy != ty:
            return False
        distance = abs(sx - tx) + abs(sy - ty)
        if distance == 0 or distance > SHOT_RANGE:
            return False
        step_x = (tx > sx) - (tx < sx)
        step_y = (ty > sy) - (ty < sy)
        x, y = sx + step_x, sy + step_y
        while (x, y) != (tx, ty):
            if self.cells[y][x] != PATH:
                return False
            x, y = x + step_x, y + step_y
        return True

    def visible_enemies(self) -> list[tuple[int, tuple[int, int]]]:
        """(distance, cell) for enemies in shooting range, nearest first."""
        hits = []
        for cell in self.enemies:
            if self.line_of_sight(self.avatar, cell):
                hits.append((abs(cell[0] - self.avatar[0]) + abs(cell[1] - self.avatar[1]), cell))
        return sorted(hits)

    def distance_field(
        self, sources: list[tuple[int, int]], blocked: set[tuple[int, int]] | None = None
    ):
        """BFS distances over path cells to the nearest of ``sources``."""
        blocked = blocked or set()
        dist = dict.fromkeys(sources, 0)
        queue = deque(dist)
        while queue:
            cell = queue.popleft()
            for neighbor in self.neighbors(cell):
                if neighbor in dist or neighbor in blocked:
                    continue
                dist[neighbor] = dist[cell] + 1
                queue.append(neighbor)
        return dist


def _avatar_shoot(arena: _Arena, tally: dict, events: list[SimEvent], tick: int) -> None:
    arena.ammo -= 1
    visible = arena.visible_enemies()
    if visible:
        _, cell = visible[0]
        arena.enemies.remove(cell)
        # The hit enemy retreats to a far, seeded respawn point.
        occupied = set(arena.enemies) | {arena.avatar, arena.start, arena.exit}
        free = [c for c in arena.path_cells if c not in occupied]
        if free:
            arena.enemies.append(arena.rng.choice(free))
        tally["accurate_shots"] += 1
        events.append(SimEvent(tick, "shot_hit", f"{cell[0]},{cell[1]}"))
    else:
        events.append(SimEvent(tick, "shot_missed"))


def _enter_cell(
    arena: _Arena, cell: tuple[int, int], tally: dict, events: list[SimEvent], tick: int
) -> bool:
    """Move the avatar onto ``cell`` and apply its effects.

    Returns True when the move wins the game.
    """
    arena.avatar = cell
    if arena.avatar in arena.enemies:
        arena.lives -= 1
        tally["life_losses"] += 1
        events.append(SimEvent(tick, "life_lost", "enemy_contact"))
        arena.avatar = arena.start
        return False
    if arena.avatar in arena.good_atoms:
        arena.good_atoms.remove(arena.avatar)
        arena.collected += 1
        tally["correct_collections"] += 1
        events.append(SimEvent(tick, "collect_good", str(arena.collected)))
        if arena.collected < COLLECTION_TARGET:
            arena.respawn_atom(good=True)
        if arena.collected == COLLECTION_TARGET:
            events.append(SimEvent(tick, "exit_open"))
    elif arena.avatar in arena.bad_atoms:
        arena.bad_atoms.remove(arena.avatar)
        arena.lives -= 1
        tally["wrong_collections"] += 1
        events.append(SimEvent(tick, "collect_bad"))
        arena.respawn_atom(good=False)
    if arena.collected >= COLLECTION_TARGET and arena.avatar == arena.exit:
        events.append(SimEvent(tick, "victory"))
        return True
    return False


def _random_turn(arena: _Arena, tally: dict, events: list[SimEvent], tick: int) -> bool:
    if arena.ammo > 0 and arena.rng.random() < 0.25:
        _avatar_shoot(arena, tally, events, tick)
        return False
    for _ in range(AVATAR_SPEED):
        options = arena.neighbors(arena.avatar)
        if not options:
            return False
        if _enter_cell(arena, arena.rng.choice(options), tally, events, tick):
            return True
    return False


def _route_field(arena: _Arena, target: tuple[int, int]):
    """BFS field toward ``target``, avoiding hazards when a route allows it.

    In a perfect maze there is a single corridor between any two cells, so
    the avoidance levels collapse quickly: block enemy surroundings first,
    then just enemies, then accept any route.
    """
    danger = set(arena.enemies)
    for enemy in arena.enemies:
        danger.update(arena.neighbors(enemy))
    for blocked in (
        arena.bad_atoms | danger,
        arena.bad_atoms | set(arena.enemies),
        set(arena.enemies),
        set(),
    ):
        field = arena.distance_field([target], blocked=blocked - {target, arena.avatar})
        if arena.avatar in field:
            return field
    return None


def _flee_step(arena: _Arena) -> None:
    """Back away when an enemy is within two cells and no route exists."""
    enemy_field = arena.distance_field(arena.enemies)
    gap = enemy_field.get(arena.avatar, TIME_LIMIT)
    if gap > 2:
        return
    nxt = None
    for option in sorted(arena.neighbors(arena.avatar)):
        option_gap = enemy_field.get(option, TIME_LIMIT)
        if option not in arena.enemies and option not in arena.bad_atoms and option_gap > gap:
            gap = option_gap
            nxt = option
    if nxt is not None:
        arena.avatar = nxt


def _greedy_turn(arena: _Arena, tally: dict, events: list[SimEvent], tick: int) -> bool:
    if arena.ammo > 0 and arena.visible_enemies():
        _avatar_shoot(arena, tally, events, tick)
        return False
    if arena.collected >= COLLECTION_TARGET:
        target = arena.exit
    else:
        # nearest correct atom, preferring ones whose corridor is free of
        # wrong atoms and enemies (crossing either costs a life)
        target = None
        for hazards in (
            set(arena.enemies) | arena.bad_atoms,
            set(arena.enemies),
            set(),
        ):
            field = arena.distance_field([arena.avatar], blocked=hazards)
            reachable = sorted((field[a], a) for a in arena.good_atoms if a in field)
            if reachable:
                target = reachable[0][1]
                break
    if target is None:
        _flee_step(arena)
        return False
    field = _route_field(arena, target)
    if field is None:
        _flee_step(arena)
        return False
    for _ in range(AVATAR_SPEED):
        nxt = min(
            (
                n
                for n in arena.neighbors(arena.avatar)
                if n in field and field[n] < field[arena.avatar] and n not in arena.enemies
            ),
            key=lambda n: (field[n], n),
            default=None,
        )
        if nxt is None:
            _flee_step(arena)
            return False
        if _enter_cell(arena, nxt, tally, events, tick):
            return True
        if arena.avatar == target or arena.avatar == arena.start:
            return False
    return False


def _enemy_turn(arena: _Arena, tally: dict, events: list[SimEvent], tick: int) -> None:
    moved: list[tuple[int, int]] = []
    chase_field = None
    if arena.enemy_type == 1:
        chase_field = arena.distance_field([arena.avatar])
    for cell in arena.enemies:
        if arena.enemy_type == 1 and chase_field is not None and cell in chase_field:
            nxt = min(
                (n for n in arena.neighbors(cell) if n in chase_field),
                key=lambda n: (chase_field[n], n),
                default=cell,
            )
            if chase_field.get(nxt, 0) >= chase_field.get(cell, 0):
                nxt = cell
        else:
            options = arena.neighbors(cell) + [cell]
            nxt = arena.rng.choice(options)
        moved.append(nxt)
    arena.enemies = moved
    if arena.avatar in arena.enemies:
        arena.lives -= 1
        tally["life_losses"] += 1
        events.append(SimEvent(tick, "life_lost", "enemy_caught_avatar"))
        arena.avatar = arena.start


def bot_simulate(
    grid: MazeGrid,
    params: GameParams | GameRecord,
    policy: str,
    seed: int,
) -> SimResult:
    """Play one game headlessly with a scripted policy.

    One tick is one simulated second, capped at the 90-second session limit.
    The bot wins by collecting ten correct atoms and then reaching the exit;
    it loses on expired time or exhausted lives. The run is a pure function
    of (maze, params, policy, seed).
    """
    if policy not in ("random", "greedy"):
        raise ValueError(f"unknown policy {policy!r}")
    rng = random.Random(seed)
    arena = _Arena(grid, params, rng)
    tally = {name: 0 for name in POSITIVE_ACTION_NAMES + NEGATIVE_ACTION_NAMES}
    events: list[SimEvent] = [SimEvent(0, "spawn", f"{arena.avatar[0]},{arena.avatar[1]}")]
    victory = False
    duration = TIME_LIMIT
    for tick in range(1, TIME_LIMIT + 1):
        if policy == "random":
            victory = _random_turn(arena, tally, events, tick)
        else:
            victory = _greedy_turn(arena, tally, events, tick)
        if victory:
            duration = tick
            break
        if arena.lives <= 0:
            events.append(SimEvent(tick, "defeat", "no_lives"))
            duration = tick
            break
        _enemy_turn(arena, tally, events, tick)
        if arena.lives <= 0:
            events.append(SimEvent(tick, "defeat", "no_lives"))
            duration = tick
            break
    else:
        events.append(SimEvent(TIME_LIMIT, "defeat", "time_out"))
    return SimResult(
        victory=victory,
        duration=duration,
        tally=ActionTally(
            positives=tuple(tally[name] for name in POSITIVE_ACTION_NAMES),
            negatives=tuple(tally[name] for name in NEGATIVE_ACTION_NAMES),
        ),
        events=tuple(events),
    )
