"""Adaptive game serving and headless bot play.

A player practices once to estimate a mastery level, then works through the
compound curriculum in order. For each material the engine picks the game
closest to the centroid of the player's unplayed games inside the mapped
cluster, simulates (or records) a play session, scores the logged actions,
and advances the curriculum on victory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .contentspace import Difficulty, GameParams, MazeGrid, PATH, generate_maze
from .errors import SegforgeError
from .mapping import ContentLibrary

POSITIVE_ACTION_NAMES = ("correct_collections", "accurate_shots")
NEGATIVE_ACTION_NAMES = ("life_losses", "wrong_collections")

TIME_LIMIT = 90  # seconds; one simulation tick per second
STARTING_LIVES = 3
COLLECTION_TARGET = 10
GOOD_ATOMS_ON_FIELD = 6
BAD_ATOMS_ON_FIELD = 4
AVATAR_SPEED = 4  # cells per tick; enemies move one
SHOT_RANGE = 6

PRACTICE_MAZE_SEED = 1729
PRACTICE_MAZE_WIDTH = 21
PRACTICE_MAZE_HEIGHT = 21
PRACTICE_GAME = GameParams(
    game_id="practice-game",
    maze_id="practice",
    enemy_type=0,
    total_enemy=2,
    total_bullets=3,
)


class WeightLengthMismatch(SegforgeError):
    """Weight vectors must match the action tally lengths."""


class UnknownMaterial(SegforgeError):
    """The requested compound is not mapped in the library."""


class EmptyPool(SegforgeError):
    """Every game in the mapped cluster has already been played."""


class CurriculumComplete(SegforgeError):
    """The player has finished the last compound."""


class ImperfectMaze(SegforgeError):
    """The path cells of a maze do not form one tree."""


@dataclass(frozen=True)
class ActionTally:
    """Counts of positive and negative logged actions for one session."""

    positives: tuple[int, ...]
    negatives: tuple[int, ...]


@dataclass(frozen=True)
class SimEvent:
    tick: int
    kind: str
    detail: str = ""


@dataclass(frozen=True)
class SimResult:
    victory: bool
    duration: int
    tally: ActionTally
    events: tuple[SimEvent, ...]


@dataclass
class SessionRecord:
    """One served and played game with its logged outcome."""

    player_id: str
    compound_id: int
    difficulty: Difficulty | None  # None for the practice game
    game_id: str
    policy: str
    seed: int
    tally: ActionTally
    score: float
    outcome: str
    duration: int
    events: tuple[SimEvent, ...] = ()
    recycled: bool = False
    fun: bool = False
    pre_exam: int = 0
    post_exam: int = 0

    def to_record(self) -> dict:
        """The sessions.jsonl record: the fields in declaration order, with
        ``tally`` spread in place into its lists and ``events`` left out."""
        record = {}
        for name, value in vars(self).items():
            if name == "tally":
                record.update((key, list(counts)) for key, counts in vars(value).items())
            elif name != "events":
                record[name] = value
        return record


@dataclass
class PlayerProfile:
    """Mutable curriculum state for one player."""

    player_id: str
    mastery: Difficulty = Difficulty.EASY
    next_material_index: int = 1
    played_game_ids: set[str] = field(default_factory=set)
    attempted_materials: set[int] = field(default_factory=set)


# ===== Scoring and assessment =====


def score(
    tally: ActionTally,
    positive_weights: tuple[float, ...],
    negative_weights: tuple[float, ...],
) -> float:
    """Weighted positive actions minus weighted negative actions."""
    if len(positive_weights) != len(tally.positives):
        raise WeightLengthMismatch(
            f"{len(tally.positives)} positive counts, {len(positive_weights)} weights"
        )
    if len(negative_weights) != len(tally.negatives):
        raise WeightLengthMismatch(
            f"{len(tally.negatives)} negative counts, {len(negative_weights)} weights"
        )
    gain = sum(w * a for w, a in zip(positive_weights, tally.positives))
    loss = sum(w * a for w, a in zip(negative_weights, tally.negatives))
    return gain - loss


def assess_level(session_score: float, easy_medium: float, medium_hard: float) -> Difficulty:
    """Band a session score into a mastery level (half-open intervals)."""
    if easy_medium >= medium_hard:
        raise ValueError("easy_medium threshold must lie below medium_hard")
    if session_score < easy_medium:
        return Difficulty.EASY
    if session_score < medium_hard:
        return Difficulty.MEDIUM
    return Difficulty.HARD


# ===== Material and game selection =====


def next_material(profile: PlayerProfile, total_materials: int) -> int:
    """The compound the player should study next (1-based)."""
    if profile.next_material_index > total_materials:
        raise CurriculumComplete(
            f"player {profile.player_id!r} finished all {total_materials} materials"
        )
    return profile.next_material_index


def candidate_pool(
    library: ContentLibrary,
    compound_id: int,
    mastery: Difficulty,
    played: set[str],
) -> list[tuple[str, tuple[float, ...]]]:
    """Unplayed (game_id, feature vector) pairs of the mapped cluster.

    Sorted by game_id; a brand-new player sees the whole cluster.
    """
    try:
        cluster = library.cluster_for(compound_id, mastery)
    except KeyError as exc:
        raise UnknownMaterial(exc.args[0]) from exc
    remaining = sorted(set(cluster.member_game_ids) - played)
    if not remaining:
        raise EmptyPool(
            f"all {len(cluster.member_game_ids)} games of cluster "
            f"{cluster.cluster_id!r} already played"
        )
    return [(game_id, library.game(game_id).vector()) for game_id in remaining]


def select_game(pool: list[tuple[str, tuple[float, ...]]]) -> str:
    """The pool member closest to the pool's own mean vector.

    The reference point is recomputed from the remaining candidates, not
    taken from any stored cluster summary. Distance ties pick the lowest
    game_id.
    """
    if not pool:
        raise EmptyPool("cannot select from an empty pool")
    dim = len(pool[0][1])
    centroid = tuple(
        sum(vector[d] for _, vector in pool) / len(pool) for d in range(dim)
    )
    best_id = None
    best_key = None
    for game_id, vector in pool:
        dist = sum((x - c) ** 2 for x, c in zip(vector, centroid))
        key = (dist, game_id)
        if best_key is None or key < best_key:
            best_key = key
            best_id = game_id
    return best_id


# ===== Headless bot simulation =====


@dataclass(frozen=True)
class MazeTree:
    """The tables the bots route on, built once per maze and shared by every
    game on it; play reads them and never changes them.

    ``path_cells`` lists the path cells in row order, ``adjacent`` maps each
    to its path neighbours, and ``wander`` maps each to its path neighbours
    followed by the cell itself, the steps a wandering enemy draws from.
    ``node`` and ``span_min`` come from one Euler tour of the spanning tree
    rooted at the first cell, which lists a cell on entering it and again on
    coming back to it from each child. ``node`` maps each cell to its depth,
    the tour indices where it is first and last listed, and its parent
    (None for the root); a cell's descendants are the cells first listed
    between its two indices. ``span_min`` is a sparse table of the minimum
    depth over the tour: for a span of ``d`` indices after a start ``i``,
    ``span_min[d]`` is ``(row, w)`` with ``w + 1`` the largest power of two
    at most ``d + 1`` and ``row[j]`` the least depth over indices ``j`` to
    ``j + w``, so the least depth from ``i`` to ``i + d`` is the smaller of
    ``row[i]`` and ``row[i + d - w]``. ``cells`` is the maze's grid, for
    line of sight. Every cell in the tables is the same tuple object as in
    ``path_cells``.
    """

    maze_id: str
    cells: tuple[tuple[int, ...], ...]
    path_cells: tuple[tuple[int, int], ...]
    adjacent: dict[tuple[int, int], tuple[tuple[int, int], ...]]
    wander: dict[tuple[int, int], tuple[tuple[int, int], ...]]
    node: dict[tuple[int, int], tuple[int, int, int, tuple[int, int] | None]]
    span_min: tuple[tuple[tuple[int, ...], int], ...]


def perfect_maze(
    grid: MazeGrid,
) -> tuple[tuple[tuple[int, int], ...], dict[tuple[int, int], tuple[tuple[int, int], ...]]]:
    """The path cells of ``grid`` in row order and each one's path
    neighbours, every cell one shared tuple object.

    Raises ImperfectMaze unless the path cells form one tree (connected, with
    one edge fewer than cells), because then every route is the unique path
    between its two ends.
    """
    path_cells = tuple(
        (x, y)
        for y in range(grid.height)
        for x in range(grid.width)
        if grid.cells[y][x] == PATH
    )
    if not path_cells:
        raise ImperfectMaze(f"maze {grid.maze_id!r} has no path cells")
    # each cell's own tuple, so the tables share one object per cell
    canonical = {cell: cell for cell in path_cells}.get
    adjacent = {}
    for cell in path_cells:
        x, y = cell
        # this order is what the random draws pick from
        around = (
            canonical((x + 1, y)),
            canonical((x - 1, y)),
            canonical((x, y + 1)),
            canonical((x, y - 1)),
        )
        adjacent[cell] = tuple([c for c in around if c is not None])
    seen = {path_cells[0]}
    stack = [path_cells[0]]
    while stack:
        for neighbor in adjacent[stack.pop()]:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    edges = sum(map(len, adjacent.values())) // 2
    if len(seen) < len(path_cells) or edges != len(path_cells) - 1:
        raise ImperfectMaze(
            f"maze {grid.maze_id!r} is not a perfect maze: {len(path_cells)} path cells "
            f"with {edges} edges, {len(seen)} of them connected to the start"
        )
    return path_cells, adjacent


def maze_tree(grid: MazeGrid) -> MazeTree:
    """The routing tables of ``grid``; raises ImperfectMaze as
    ``perfect_maze`` does."""
    path_cells, adjacent = perfect_maze(grid)
    wander = {cell: around + (cell,) for cell, around in adjacent.items()}
    root = path_cells[0]
    tour = [0]  # the depth at each tour index
    node = {}
    # (cell, its depth, its first tour index, its parent, its neighbours
    # not yet looked at)
    stack = [(root, 0, 0, None, iter(adjacent[root]))]
    while stack:
        cell, depth, first, parent, around = stack[-1]
        for neighbor in around:
            # the cells form a tree, so only the parent was seen before
            if neighbor is not parent:
                stack.append((neighbor, depth + 1, len(tour), cell, iter(adjacent[neighbor])))
                tour.append(depth + 1)
                break
        else:
            stack.pop()
            node[cell] = (depth, first, len(tour) - 1, parent)
            if stack:
                tour.append(depth - 1)
    # the least depth over 2 (w + 1) indices is the lesser over its halves
    levels = [(tuple(tour), 0)]
    while 2 * (levels[-1][1] + 1) <= len(tour):
        row, w = levels[-1]
        halves = zip(row[: -w - 1], row[w + 1 :])
        levels.append((tuple([x if x < y else y for x, y in halves]), 2 * w + 1))
    span_min = []
    for level in levels:
        span_min += [level] * (level[1] + 1)
    span_min = tuple(span_min[: len(tour)])
    return MazeTree(grid.maze_id, grid.cells, path_cells, adjacent, wander, node, span_min)


def practice_tree() -> MazeTree:
    """The routing tables of the fixed practice maze."""
    return maze_tree(
        generate_maze(PRACTICE_MAZE_SEED, PRACTICE_MAZE_WIDTH, PRACTICE_MAZE_HEIGHT, "practice")
    )


class _Arena:
    """Mutable play state on one maze."""

    def __init__(self, tree: MazeTree, params: GameParams, rng: random.Random):
        self.rng = rng
        self.cells = tree.cells
        self.path_cells = tree.path_cells
        self.adjacent = tree.adjacent
        self.wander = tree.wander
        self.node = tree.node
        self.span_min = tree.span_min
        self.start = self.path_cells[0]
        self.exit = self.path_cells[-1]
        self.avatar = self.start
        self.lives = STARTING_LIVES
        self.ammo = params.total_bullets
        self.collected = 0
        self.enemy_type = params.enemy_type
        # path cells are distinct, with the start first and the exit last
        spawn_candidates = self.path_cells[1:-1]
        self.enemies = rng.sample(spawn_candidates, min(params.total_enemy, len(spawn_candidates)))
        free = [c for c in spawn_candidates if c not in self.enemies]
        picks = rng.sample(free, min(GOOD_ATOMS_ON_FIELD + BAD_ATOMS_ON_FIELD, len(free)))
        self.good_atoms = set(picks[:GOOD_ATOMS_ON_FIELD])
        self.bad_atoms = set(picks[GOOD_ATOMS_ON_FIELD:])

    def distance(self, source: tuple[int, int], target: tuple[int, int]) -> int:
        """The number of steps on the path from ``source`` to ``target``: the
        two depths less twice the depth of the last ancestor they share,
        which is the least depth the tour passes between the two cells."""
        node = self.node
        depth_a, at_a, _, _ = node[source]
        depth_b, at_b, _, _ = node[target]
        if at_a > at_b:
            at_a, at_b = at_b, at_a
        row, w = self.span_min[at_b - at_a]
        x, y = row[at_a], row[at_b - w]
        return depth_a + depth_b - 2 * (x if x < y else y)

    def step(self, source: tuple[int, int], target: tuple[int, int]) -> tuple[int, int]:
        """The cell after ``source`` on the path to ``target``, another cell:
        the child whose subtree holds ``target``, else the parent."""
        node = self.node
        _, first, last, parent = node[source]
        at = node[target][1]
        if first < at <= last:
            for child in self.adjacent[source]:
                _, child_first, child_last, _ = node[child]
                if first < child_first <= at <= child_last:
                    return child
        return parent

    def crosses(
        self,
        cells: set[tuple[int, int]] | list[tuple[int, int]],
        source: tuple[int, int],
        target: tuple[int, int],
    ) -> bool:
        """Whether any of ``cells`` lies on the path from ``source`` to
        ``target``, ``source`` left out and ``target`` counted.

        The path climbs from ``source`` to the last ancestor the two ends
        share, then descends to ``target``. So a cell whose subtree holds
        ``source`` is on it when it is no shallower than that ancestor, and
        any other cell is on it when its subtree holds ``target``.
        """
        node = self.node
        at_a = node[source][1]
        at_b = node[target][1]
        lo, hi = (at_a, at_b) if at_a < at_b else (at_b, at_a)
        row, w = self.span_min[hi - lo]
        x, y = row[lo], row[hi - w]
        meet = x if x < y else y
        for cell in cells:
            depth, first, last, _ = node[cell]
            if first <= at_a <= last:
                if depth >= meet and cell != source:
                    return True
            elif first <= at_b <= last:
                return True
        return False

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
    rng = arena.rng
    if arena.ammo > 0 and rng.random() < 0.25:
        _avatar_shoot(arena, tally, events, tick)
        return False
    getrandbits = rng.getrandbits
    for _ in range(AVATAR_SPEED):
        options = arena.adjacent[arena.avatar]
        n = len(options)
        if not n:
            return False
        # rng.choice(options) written out: CPython's Random.choice draws
        # n.bit_length() bits until they fall below n (_randbelow_with_getrandbits),
        # so this takes the same bits from the stream; a helper function would
        # cost the call it saves
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        cell = options[r]
        if (
            cell in arena.good_atoms
            or cell in arena.bad_atoms
            or cell in arena.enemies
            or cell == arena.exit
        ):
            if _enter_cell(arena, cell, tally, events, tick):
                return True
        else:
            # a plain corridor cell: entering it only moves the avatar
            arena.avatar = cell
    return False


def _enemy_gap(arena: _Arena, cell: tuple[int, int]) -> int:
    """Distance from ``cell`` to the nearest enemy, TIME_LIMIT without one."""
    return min((arena.distance(cell, enemy) for enemy in arena.enemies), default=TIME_LIMIT)


def _flee_step(arena: _Arena) -> None:
    """Back away when an enemy is within two cells."""
    gap = _enemy_gap(arena, arena.avatar)
    if gap > 2:
        return
    nxt = None
    for option in sorted(arena.adjacent[arena.avatar]):
        option_gap = _enemy_gap(arena, option)
        if option not in arena.enemies and option not in arena.bad_atoms and option_gap > gap:
            gap = option_gap
            nxt = option
    if nxt is not None:
        arena.avatar = nxt


def _greedy_turn(arena: _Arena, tally: dict, events: list[SimEvent], tick: int) -> bool:
    if arena.ammo > 0 and arena.visible_enemies():
        _avatar_shoot(arena, tally, events, tick)
        return False
    avatar = arena.avatar
    if arena.collected >= COLLECTION_TARGET:
        target = arena.exit
    else:
        # nearest correct atom, preferring ones whose corridor is free of
        # wrong atoms and enemies (crossing either costs a life), then ones
        # free of enemies, then the nearest; ties go to the lower cell
        enemies = arena.enemies
        hazards = arena.bad_atoms.union(enemies)
        distance = arena.distance
        crosses = arena.crosses
        ranked = sorted([(distance(avatar, atom), atom) for atom in arena.good_atoms])
        for _, target in ranked:
            if not crosses(hazards, avatar, target):
                break
        else:
            target = next(
                (atom for _, atom in ranked if not crosses(enemies, avatar, atom)),
                ranked[0][1] if ranked else None,
            )
    # no atom left, or the bot already stands on its target
    if target is None or target == avatar:
        _flee_step(arena)
        return False
    for _ in range(AVATAR_SPEED):
        nxt = arena.step(arena.avatar, target)
        if nxt in arena.enemies:
            _flee_step(arena)
            return False
        if _enter_cell(arena, nxt, tally, events, tick):
            return True
        if arena.avatar == target or arena.avatar == arena.start:
            return False
    return False


# the bot policies by name, each a turn function; sim.policy names one
POLICIES = {"random": _random_turn, "greedy": _greedy_turn}


def _enemy_turn(arena: _Arena, tally: dict, events: list[SimEvent], tick: int) -> None:
    moved: list[tuple[int, int]] = []
    if arena.enemy_type == 1:
        # a chaser steps along its path to the avatar, or stays on it
        avatar = arena.avatar
        step = arena.step
        for cell in arena.enemies:
            moved.append(cell if cell == avatar else step(cell, avatar))
    else:
        wander = arena.wander
        getrandbits = arena.rng.getrandbits
        for cell in arena.enemies:
            steps = wander[cell]
            # rng.choice(steps), written out as in _random_turn
            n = len(steps)
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            moved.append(steps[r])
    arena.enemies = moved
    if arena.avatar in arena.enemies:
        arena.lives -= 1
        tally["life_losses"] += 1
        events.append(SimEvent(tick, "life_lost", "enemy_caught_avatar"))
        arena.avatar = arena.start


def bot_simulate(
    tree: MazeTree,
    params: GameParams,
    policy: str,
    seed: int,
) -> SimResult:
    """Play one game headlessly with the scripted policy named ``policy``,
    one of ``POLICIES``.

    One tick is one simulated second, capped at the 90-second session limit.
    The bot wins by collecting ten correct atoms and then reaching the exit;
    it loses on expired time or exhausted lives. The run is a pure function
    of (tree, params, policy, seed). The bots route on the maze's spanning
    tree, which ``maze_tree`` builds once for all games on the maze.

    Each tick the random avatar's steps and every wandering enemy's step are
    drawn from ``tree``'s ``adjacent`` and ``wander`` tables by the rule of
    ``random.Random.choice``, written out in place. A random game makes
    about 550 such draws, and the method call with its ``_randbelow`` call
    costs more than the draw: from three cells, ``rng.choice`` took 188 ns
    and the written-out draw 68 ns (CPython 3.11 on a 2-core VM). A helper
    function would bring a call back. The written-out draws take the same
    bits from the generator, so a seed plays the same game either way.
    """
    turn = POLICIES.get(policy)
    if turn is None:
        raise ValueError(f"unknown policy {policy!r}, not one of {', '.join(POLICIES)}")
    rng = random.Random(seed)
    arena = _Arena(tree, params, rng)
    tally = {name: 0 for name in POSITIVE_ACTION_NAMES + NEGATIVE_ACTION_NAMES}
    events: list[SimEvent] = [SimEvent(0, "spawn", f"{arena.avatar[0]},{arena.avatar[1]}")]
    for tick in range(1, TIME_LIMIT + 1):
        victory = turn(arena, tally, events, tick)
        if not victory and arena.lives > 0:
            _enemy_turn(arena, tally, events, tick)
        if victory or arena.lives <= 0:
            break
    if not victory:
        events.append(SimEvent(tick, "defeat", "no_lives" if arena.lives <= 0 else "time_out"))
    return SimResult(
        victory=victory,
        duration=tick,
        tally=ActionTally(
            positives=tuple(tally[name] for name in POSITIVE_ACTION_NAMES),
            negatives=tuple(tally[name] for name in NEGATIVE_ACTION_NAMES),
        ),
        events=tuple(events),
    )


# ===== Sessions =====


def practice_session(
    profile: PlayerProfile,
    tree: MazeTree,
    policy: str,
    seed: int,
    *,
    easy_medium: float,
    medium_hard: float,
    positive_weights: tuple[float, ...],
    negative_weights: tuple[float, ...],
) -> SessionRecord:
    """Estimate mastery by playing the stand-alone practice game.

    ``tree`` is the practice maze's, from ``practice_tree``. That maze is
    fixed and independent of the content library, so the estimate depends
    only on play quality and the seed.
    """
    result = bot_simulate(tree, PRACTICE_GAME, policy, seed)
    session_score = score(result.tally, positive_weights, negative_weights)
    profile.mastery = assess_level(session_score, easy_medium, medium_hard)
    return SessionRecord(
        player_id=profile.player_id,
        compound_id=0,
        difficulty=None,
        game_id=PRACTICE_GAME.game_id,
        policy=policy,
        seed=seed,
        tally=result.tally,
        score=session_score,
        outcome="victory" if result.victory else "defeat",
        duration=result.duration,
        events=result.events,
    )


def run_session(
    profile: PlayerProfile,
    library: ContentLibrary,
    mazes: dict[str, MazeTree],
    policy: str,
    seed: int,
    *,
    recycle: bool,
    positive_weights: tuple[float, ...],
    negative_weights: tuple[float, ...],
) -> SessionRecord:
    """Serve, simulate and record one curriculum session on the routing
    tables in ``mazes``, keyed by maze id.

    Victory advances the curriculum to the next compound; defeat keeps the
    player on the same material. With ``recycle`` enabled an exhausted
    cluster forgets its played games instead of failing.
    """
    material = next_material(profile, library.compound_count)
    recycled = False
    try:
        pool = candidate_pool(library, material, profile.mastery, profile.played_game_ids)
    except EmptyPool:
        if not recycle:
            raise
        cluster = library.cluster_for(material, profile.mastery)
        profile.played_game_ids -= set(cluster.member_game_ids)
        recycled = True
        pool = candidate_pool(library, material, profile.mastery, profile.played_game_ids)
    game_id = select_game(pool)
    game = library.game(game_id)
    result = bot_simulate(mazes[game.maze_id], game, policy, seed)
    session_score = score(result.tally, positive_weights, negative_weights)

    first_attempt = material not in profile.attempted_materials
    record = SessionRecord(
        player_id=profile.player_id,
        compound_id=material,
        difficulty=game.difficulty,
        game_id=game_id,
        policy=policy,
        seed=seed,
        tally=result.tally,
        score=session_score,
        outcome="victory" if result.victory else "defeat",
        duration=result.duration,
        events=result.events,
        recycled=recycled,
        # Bot stand-ins for the survey fields: a session is "fun" when the
        # score came out positive, and the exam bit flips on a win.
        fun=session_score > 0,
        pre_exam=0 if first_attempt else 1,
        post_exam=1 if result.victory else (0 if first_attempt else 1),
    )
    profile.attempted_materials.add(material)
    profile.played_game_ids.add(game_id)
    if result.victory:
        profile.next_material_index += 1
    return record
