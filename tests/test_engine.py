"""Tests for scoring, mastery assessment, game selection and bot sessions."""

from __future__ import annotations

import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segforge.clustering import ClusterSummary
from segforge.config import load_config
from segforge.contentspace import (
    Difficulty,
    GameParams,
    MazeGrid,
    extract_features,
    generate_maze,
)
from segforge.engine import (
    ActionTally,
    CurriculumComplete,
    EmptyPool,
    ImperfectMaze,
    MazeTree,
    POLICIES,
    PlayerProfile,
    SessionRecord,
    UnknownMaterial,
    WeightLengthMismatch,
    _Arena,
    assess_level,
    bot_simulate,
    candidate_pool,
    maze_tree,
    next_material,
    perfect_maze,
    practice_session,
    practice_tree,
    run_session,
    score,
    select_game,
)
from segforge.knowledge import CompoundAnnotation
from segforge.mapping import ContentLibrary, GameRecord, deploy

import bfs_engine

CONFIG = load_config()
# the pipeline's scoring, mastery bands and recycling, for the tests that do
# not vary them
WEIGHTS = dict(positive_weights=CONFIG.positive_weights, negative_weights=CONFIG.negative_weights)
BANDS = dict(easy_medium=CONFIG.easy_medium, medium_hard=CONFIG.medium_hard)
SESSION = dict(recycle=CONFIG.sim_recycle, **WEIGHTS)

# ===== Fixtures =====


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


# params consistent with each difficulty: (enemy_type, total_enemy)
_LEVEL_PARAMS = {
    "easy": ((0, 1), (0, 2), (0, 3), (0, 1), (0, 2), (0, 3)),
    "medium": ((0, 4), (0, 5), (1, 1), (1, 2), (0, 4), (1, 1)),
    "hard": ((1, 3), (1, 4), (1, 5), (1, 3), (1, 4), (1, 5)),
}


def _build_world():
    """A tiny but fully wired library plus its mazes' routing tables."""
    mazes = {}
    features = {}
    for i in range(3):
        maze_id = f"m{i:04d}"
        grid = generate_maze(77 + i, width=11, height=11, maze_id=maze_id)
        mazes[maze_id] = maze_tree(grid)
        features[maze_id] = extract_features(grid)

    compounds = [_compound(1, "H2O"), _compound(2, "CO2")]
    games: list[GameRecord] = []
    clusters: list[ClusterSummary] = []
    for level, params in _LEVEL_PARAMS.items():
        ids = []
        for j, (enemy_type, total_enemy) in enumerate(params):
            maze_id = f"m{j % 3:04d}"
            feats = features[maze_id]
            game_id = f"{level}-g{j}"
            games.append(
                GameRecord(
                    game_id=game_id,
                    maze_id=maze_id,
                    enemy_type=enemy_type,
                    total_enemy=total_enemy,
                    total_bullets=1 + j % 5,
                    difficulty=level,
                    total_path=feats.total_path,
                    total_corners=feats.total_corners,
                    total_intersections=feats.total_intersections,
                    total_deadend=feats.total_deadend,
                    complexity=feats.complexity,
                )
            )
            ids.append(game_id)
        clusters.append(
            ClusterSummary(f"{level}-000", level, 2, 0.5, (0.0,) * 8, tuple(ids[:2]))
        )
        clusters.append(
            ClusterSummary(f"{level}-001", level, 4, 1.5, (0.0,) * 8, tuple(ids[2:]))
        )
    mapping = deploy(
        compounds,
        {level: [c for c in clusters if c.difficulty == level] for level in _LEVEL_PARAMS},
    )
    library = ContentLibrary(
        compounds=compounds,
        games=games,
        clusters=clusters,
        mapping=mapping,
        metadata={},
    )
    return library, mazes


@pytest.fixture(scope="module")
def world():
    return _build_world()


# ===== Scoring =====


def test_score_unit_weights():
    # the default config weighs every action 1
    assert score(ActionTally(positives=(5, 1), negatives=(2, 0)), **WEIGHTS) == 4


def test_score_weighted():
    tally = ActionTally(positives=(3, 4), negatives=(2,))
    assert score(tally, positive_weights=(2, 1), negative_weights=(0.5,)) == 9


def test_score_no_negatives():
    assert score(ActionTally(positives=(4, 2), negatives=()), CONFIG.positive_weights, ()) == 6


def test_score_weight_length_mismatch():
    tally = ActionTally(positives=(1, 2), negatives=(1,))
    with pytest.raises(WeightLengthMismatch):
        score(tally, positive_weights=(1.0,), negative_weights=(1.0,))
    with pytest.raises(WeightLengthMismatch):
        score(tally, positive_weights=(1.0, 1.0), negative_weights=(1.0, 1.0))


@given(
    pos=st.lists(st.integers(0, 50), min_size=2, max_size=2),
    neg=st.lists(st.integers(0, 50), min_size=2, max_size=2),
    pos2=st.lists(st.integers(0, 50), min_size=2, max_size=2),
    neg2=st.lists(st.integers(0, 50), min_size=2, max_size=2),
)
def test_score_is_linear(pos, neg, pos2, neg2):
    t1 = ActionTally(positives=tuple(pos), negatives=tuple(neg))
    t2 = ActionTally(positives=tuple(pos2), negatives=tuple(neg2))
    merged = ActionTally(
        positives=tuple(a + b for a, b in zip(pos, pos2)),
        negatives=tuple(a + b for a, b in zip(neg, neg2)),
    )
    assert score(merged, **WEIGHTS) == score(t1, **WEIGHTS) + score(t2, **WEIGHTS)


# ===== Assessment =====


def test_assess_boundaries():
    assert assess_level(3.0, 3.0, 9.0) is Difficulty.MEDIUM
    assert assess_level(3.0 - 1e-9, 3.0, 9.0) is Difficulty.EASY
    assert assess_level(9.0, 3.0, 9.0) is Difficulty.HARD
    assert assess_level(-5.0, 3.0, 9.0) is Difficulty.EASY
    assert assess_level(6.0, 3.0, 9.0) is Difficulty.MEDIUM


def test_assess_rejects_unordered_thresholds():
    with pytest.raises(ValueError):
        assess_level(1.0, 5.0, 5.0)


@given(st.floats(-50, 50), st.floats(-50, 50))
def test_assess_is_monotone(s1, s2):
    order = {Difficulty.EASY: 0, Difficulty.MEDIUM: 1, Difficulty.HARD: 2}
    lo, hi = min(s1, s2), max(s1, s2)
    assert order[assess_level(lo, 3.0, 9.0)] <= order[assess_level(hi, 3.0, 9.0)]


# ===== Material progression =====


def test_new_player_starts_at_first_material():
    assert next_material(PlayerProfile("p1"), total_materials=100) == 1


def test_next_material_returns_current_index():
    profile = PlayerProfile("p1", next_material_index=42)
    assert next_material(profile, total_materials=100) == 42


def test_curriculum_complete():
    profile = PlayerProfile("p1", next_material_index=101)
    with pytest.raises(CurriculumComplete):
        next_material(profile, total_materials=100)


# ===== Candidate pool =====


def test_pool_is_whole_cluster_for_new_player(world):
    library, _ = world
    cluster = library.cluster_for(1, "easy")
    pool = candidate_pool(library, 1, Difficulty.EASY, played=set())
    assert [gid for gid, _ in pool] == sorted(cluster.member_game_ids)
    for gid, vector in pool:
        assert vector == library.game(gid).vector()


def test_pool_excludes_played(world):
    library, _ = world
    cluster = library.cluster_for(1, "easy")
    first = sorted(cluster.member_game_ids)[0]
    pool = candidate_pool(library, 1, Difficulty.EASY, played={first})
    assert first not in [gid for gid, _ in pool]
    assert len(pool) == len(cluster.member_game_ids) - 1


def test_pool_exhaustion_raises(world):
    library, _ = world
    cluster = library.cluster_for(1, "easy")
    with pytest.raises(EmptyPool):
        candidate_pool(library, 1, Difficulty.EASY, played=set(cluster.member_game_ids))


def test_pool_unknown_material(world):
    library, _ = world
    with pytest.raises(UnknownMaterial) as caught:
        candidate_pool(library, 99, Difficulty.EASY, played=set())
    assert str(caught.value) == "no cluster mapped for compound 99 at 'easy'"


# ===== Game selection =====


def test_select_game_nearest_to_pool_mean():
    pool = [("a", (0.0, 0.0)), ("b", (2.0, 2.0)), ("c", (5.0, 5.0))]
    assert select_game(pool) == "b"


def test_select_game_singleton():
    assert select_game([("only", (3.0, 4.0))]) == "only"


def test_select_game_tie_takes_lowest_id():
    assert select_game([("b", (2.0, 2.0)), ("a", (0.0, 0.0))]) == "a"


def test_select_game_empty_pool():
    with pytest.raises(EmptyPool):
        select_game([])


@given(st.permutations(range(5)))
def test_select_game_permutation_invariant(order):
    base = [
        ("g0", (0.0, 1.0)),
        ("g1", (4.0, 4.0)),
        ("g2", (2.0, 2.5)),
        ("g3", (1.0, 0.0)),
        ("g4", (3.0, 5.0)),
    ]
    shuffled = [base[i] for i in order]
    assert select_game(shuffled) == select_game(base)


def _brute_force_select(pool):
    dim = len(pool[0][1])
    mean = tuple(sum(v[d] for _, v in pool) / len(pool) for d in range(dim))
    return min(pool, key=lambda p: (sum((x - m) ** 2 for x, m in zip(p[1], mean)), p[0]))[0]


def test_select_game_matches_brute_force_on_library_pools(world):
    library, _ = world
    for cluster in library.clusters:
        pool = [(gid, library.game(gid).vector()) for gid in sorted(cluster.member_game_ids)]
        assert select_game(pool) == _brute_force_select(pool)


# ===== Bot simulation =====


@pytest.fixture(scope="module")
def small_grid():
    return generate_maze(77, width=11, height=11, maze_id="m0000")


@pytest.fixture(scope="module")
def small_tree(small_grid):
    return maze_tree(small_grid)


EASY_PARAMS = GameParams("g-e", "m0000", enemy_type=0, total_enemy=2, total_bullets=3)


def test_bot_is_deterministic(small_tree):
    a = bot_simulate(small_tree, EASY_PARAMS, "greedy", seed=11)
    b = bot_simulate(small_tree, EASY_PARAMS, "greedy", seed=11)
    assert a == b
    c = bot_simulate(small_tree, EASY_PARAMS, "random", seed=11)
    d = bot_simulate(small_tree, EASY_PARAMS, "random", seed=11)
    assert c == d


def test_bot_seeds_differ(small_tree):
    logs = {bot_simulate(small_tree, EASY_PARAMS, "random", seed=s).events for s in range(5)}
    assert len(logs) > 1


def test_bot_rejects_unknown_policy(small_tree):
    assert set(POLICIES) == {"random", "greedy"}
    with pytest.raises(ValueError, match="'clever', not one of random, greedy"):
        bot_simulate(small_tree, EASY_PARAMS, "clever", seed=0)


def test_bot_respects_time_and_tallies(small_tree):
    for seed in range(30):
        for policy in ("random", "greedy"):
            result = bot_simulate(small_tree, EASY_PARAMS, policy, seed)
            assert 1 <= result.duration <= 90
            assert all(c >= 0 for c in result.tally.positives)
            assert all(c >= 0 for c in result.tally.negatives)
            if result.victory:
                # ten correct collections are required before the exit opens
                assert result.tally.positives[0] >= 10


def test_bot_wins_and_loses_somewhere(small_tree):
    outcomes = {bot_simulate(small_tree, EASY_PARAMS, "greedy", s).victory for s in range(60)}
    assert outcomes == {True, False}


def test_greedy_beats_random_on_easy_games(small_tree):
    seeds = range(100)
    greedy = statistics.mean(
        score(bot_simulate(small_tree, EASY_PARAMS, "greedy", s).tally, **WEIGHTS) for s in seeds
    )
    rand = statistics.mean(
        score(bot_simulate(small_tree, EASY_PARAMS, "random", s).tally, **WEIGHTS) for s in seeds
    )
    assert greedy > rand


def _inline_choice(rng: random.Random, seq: tuple):
    """The draw that _random_turn and _enemy_turn write out in place of
    ``rng.choice(seq)``."""
    n = len(seq)
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return seq[r]


@pytest.mark.parametrize("n", range(1, 6))
def test_inline_draw_matches_random_choice(n):
    # the bots' moves, and so every random session and event, rest on this
    seq = tuple(f"step-{i}" for i in range(n))
    for seed in range(300):
        ours, theirs = random.Random(seed), random.Random(seed)
        for step in range(12):
            if step % 3 == 1:
                assert ours.random() == theirs.random()
            assert _inline_choice(ours, seq) == theirs.choice(seq), (
                f"Random.choice of {n} items no longer draws n.bit_length() bits "
                "until they fall below n on this interpreter; the inline draws "
                "in engine.py must follow its rule"
            )
        assert ours.getstate() == theirs.getstate()


@settings(max_examples=150, deadline=None)
@given(
    maze_seed=st.integers(0, 10**6),
    width=st.integers(2, 15).map(lambda n: 2 * n + 1),
    height=st.integers(2, 15).map(lambda n: 2 * n + 1),
    policy=st.sampled_from(["greedy", "random"]),
    enemy_type=st.sampled_from([0, 1]),
    total_enemy=st.integers(0, 8),
    total_bullets=st.integers(0, 5),
    seed=st.integers(0, 2**32),
)
def test_bot_matches_the_bfs_simulator(
    maze_seed, width, height, policy, enemy_type, total_enemy, total_bullets, seed
):
    grid = generate_maze(maze_seed, width, height, f"m{maze_seed}")
    params = GameParams("g", grid.maze_id, enemy_type, total_enemy, total_bullets)
    expected = bfs_engine.bot_simulate(grid, params, policy, seed)
    assert bot_simulate(maze_tree(grid), params, policy, seed) == expected


def _tables(tree: MazeTree) -> tuple:
    """Everything play could change in ``tree``'s tables, order included."""
    return (
        tree.cells,
        tree.path_cells,
        list(tree.adjacent.items()),
        list(tree.wander.items()),
        list(tree.node.items()),
        tree.span_min,
    )


@settings(max_examples=40, deadline=None)
@given(
    maze_seed=st.integers(0, 10**6),
    width=st.integers(2, 15).map(lambda n: 2 * n + 1),
    height=st.integers(2, 15).map(lambda n: 2 * n + 1),
    games=st.lists(
        st.tuples(
            st.sampled_from(["greedy", "random"]),
            st.sampled_from([0, 1]),
            st.integers(0, 8),
            st.integers(0, 5),
            st.integers(0, 2**32),
        ),
        min_size=2,
        max_size=6,
    ),
)
def test_games_sharing_one_tree_match_fresh_tables(maze_seed, width, height, games):
    grid = generate_maze(maze_seed, width, height, f"m{maze_seed}")
    tree = maze_tree(grid)
    before = _tables(tree)
    for policy, enemy_type, total_enemy, total_bullets, seed in games:
        params = GameParams("g", grid.maze_id, enemy_type, total_enemy, total_bullets)
        result = bot_simulate(tree, params, policy, seed)
        assert result == bot_simulate(maze_tree(grid), params, policy, seed)
        assert result == bfs_engine.bot_simulate(grid, params, policy, seed)
    assert _tables(tree) == before


def _grid(*rows: str) -> MazeGrid:
    cells = tuple(tuple(int(c == ".") for c in row) for row in rows)
    return MazeGrid("hand", 0, len(rows[0]), len(rows), cells)


LOOP_GRID = _grid(
    "#######",
    "#.....#",
    "#.#.#.#",
    "#.....#",
    "#######",
)
ISLAND_GRID = _grid(
    "#######",
    "#...#.#",
    "#######",
)
# one edge fewer than cells, yet not a tree: only the reachability test fails
LOOP_AND_ISLAND_GRID = _grid(
    "######",
    "#..#.#",
    "#..###",
    "######",
)


@pytest.mark.parametrize(
    "grid",
    [LOOP_GRID, ISLAND_GRID, LOOP_AND_ISLAND_GRID],
    ids=["loop", "island", "loop-and-island"],
)
def test_bot_rejects_a_maze_that_is_not_a_tree(grid):
    # a bot plays only on a MazeTree, which such a maze cannot have, and
    # simulate's check of every library maze refuses it too
    for build in (maze_tree, perfect_maze):
        with pytest.raises(ImperfectMaze, match="'hand' is not a perfect maze"):
            build(grid)


def test_maze_tree_spans_every_path_cell(small_grid):
    tree = maze_tree(small_grid)
    path_cells, adjacent, node = tree.path_cells, tree.adjacent, tree.node
    assert tree.maze_id == small_grid.maze_id and tree.cells is small_grid.cells
    assert list(path_cells) == sorted(path_cells, key=lambda c: (c[1], c[0]))
    assert set(adjacent) == set(node) == set(path_cells)
    assert tree.wander == {cell: around + (cell,) for cell, around in adjacent.items()}
    root = path_cells[0]
    assert node[root][0] == 0 and node[root][3] is None
    for cell, (depth, _, _, parent) in node.items():
        if cell is not root:
            # each parent is a neighbour one level shallower
            assert parent in adjacent[cell] and node[parent][0] == depth - 1
    ancestors = {}
    for cell in path_cells:
        line, up = {cell}, node[cell][3]
        while up is not None:
            line.add(up)
            up = node[up][3]
        ancestors[cell] = line
    # a cell's tour interval holds another's exactly when the parent links
    # lead from the other to it; two intervals otherwise do not meet
    for outer in path_cells:
        _, first, last, _ = node[outer]
        for inner in path_cells:
            _, inner_first, inner_last, _ = node[inner]
            inside = first <= inner_first and inner_last <= last
            assert inside == (outer in ancestors[inner])
            if not inside and inner not in ancestors[outer]:
                assert inner_last < first or last < inner_first
    # the tour lists a cell once on entering it and once more per child
    tour = tree.span_min[0][0]
    assert len(tour) == 2 * len(path_cells) - 1
    for depth, first, last, _ in node.values():
        assert tour[first] == tour[last] == depth
    for d, (row, w) in enumerate(tree.span_min):
        assert (w + 1) <= d + 1 < 2 * (w + 1)
        for i in range(len(tour) - d):
            assert min(tour[i : i + d + 1]) == min(row[i], row[i + d - w])
    for (x, y), neighbors in adjacent.items():
        order = [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]
        assert list(neighbors) == [c for c in order if c in adjacent]
    # one tuple object per cell, shared by every table
    canonical = {id(cell) for cell in path_cells}
    assert len(canonical) == len(path_cells)
    assert {id(c) for neighbors in adjacent.values() for c in neighbors} <= canonical
    assert {id(c) for steps in tree.wander.values() for c in steps} <= canonical
    assert {id(c) for c in (*adjacent, *tree.wander, *node)} <= canonical
    assert {id(entry[3]) for cell, entry in node.items() if cell is not root} <= canonical


def _climbing_path(tree: MazeTree, source, target) -> list:
    """The unique path between two cells, both included, built the plain
    way as an oracle for the Euler-tour queries: root the tree at the first
    path cell with parent and depth maps, then climb from both ends until
    they meet."""
    root = tree.path_cells[0]
    parent, depth = {}, {root: 0}
    stack = [root]
    while stack:
        cell = stack.pop()
        for neighbor in tree.adjacent[cell]:
            if neighbor not in depth:
                parent[neighbor] = cell
                depth[neighbor] = depth[cell] + 1
                stack.append(neighbor)
    a, b = source, target
    up, down = [a], [b]
    climb = depth[a] - depth[b]
    for _ in range(climb):
        a = parent[a]
        up.append(a)
    for _ in range(-climb):
        b = parent[b]
        down.append(b)
    while a != b:
        a = parent[a]
        b = parent[b]
        up.append(a)
        down.append(b)
    down.pop()
    up.extend(reversed(down))
    return up


@settings(max_examples=150, deadline=None)
@given(
    maze_seed=st.integers(0, 10**6),
    width=st.integers(2, 15).map(lambda n: 2 * n + 1),
    height=st.integers(2, 15).map(lambda n: 2 * n + 1),
    kind=st.sampled_from(["any", "same", "ancestor", "root"]),
    holds=st.sampled_from(["source", "target", "neither"]),
    data=st.data(),
)
def test_tour_queries_match_the_climbing_oracle(maze_seed, width, height, kind, holds, data):
    tree = maze_tree(generate_maze(maze_seed, width, height, f"m{maze_seed}"))
    arena = _Arena(tree, GameParams("g", tree.maze_id, 0, 0, 0), random.Random(0))
    cells = tree.path_cells
    a = data.draw(st.sampled_from(cells))
    if kind == "any":
        b = data.draw(st.sampled_from(cells))
    elif kind == "same":
        b = a
    elif kind == "ancestor":
        b = data.draw(st.sampled_from(_climbing_path(tree, a, cells[0])))
    else:
        b = cells[0]
    a, b = data.draw(st.permutations([a, b]))
    path = _climbing_path(tree, a, b)
    assert arena.distance(a, b) == arena.distance(b, a) == len(path) - 1
    if a != b:
        assert arena.step(a, b) is path[1]
        assert arena.step(b, a) is path[-2]
    others = data.draw(st.sets(st.sampled_from(cells), max_size=6))
    if holds == "source":
        others.add(a)
    elif holds == "target":
        others.add(b)
    else:
        others -= {a, b}
    # the source is left out of the path and the target counted
    on_path = not others.isdisjoint(path[1:])
    assert arena.crosses(others, a, b) == on_path
    assert arena.crosses(list(others), a, b) == on_path
    assert arena.crosses(others, b, a) == (not others.isdisjoint(path[:-1]))


# ===== Practice sessions =====


@pytest.fixture(scope="module")
def practice_maze():
    return practice_tree()


def test_practice_sets_mastery_consistently(practice_maze):
    profile = PlayerProfile("p1")
    record = practice_session(profile, practice_maze, "greedy", seed=3, **BANDS, **WEIGHTS)
    assert record.difficulty is None
    assert record.compound_id == 0
    assert profile.mastery is assess_level(record.score, **BANDS)


def test_practice_reassesses_every_run(practice_maze):
    profile = PlayerProfile("p1", mastery=Difficulty.HARD)
    weak_seed = next(
        s
        for s in range(50)
        if practice_session(
            PlayerProfile("x"), practice_maze, "random", seed=s, **BANDS, **WEIGHTS
        ).score
        < CONFIG.easy_medium
    )
    practice_session(profile, practice_maze, "random", seed=weak_seed, **BANDS, **WEIGHTS)
    assert profile.mastery is Difficulty.EASY


def test_practice_is_deterministic(practice_maze):
    a = practice_session(PlayerProfile("p1"), practice_maze, "greedy", 9, **BANDS, **WEIGHTS)
    b = practice_session(PlayerProfile("p2"), practice_tree(), "greedy", 9, **BANDS, **WEIGHTS)
    assert a.score == b.score
    assert a.events == b.events


# ===== Full sessions =====


def test_session_serves_from_mapped_cluster(world):
    library, mazes = world
    profile = PlayerProfile("p1")
    record = run_session(profile, library, mazes, "greedy", seed=1, **SESSION)
    cluster = library.cluster_for(1, "easy")
    assert record.game_id in cluster.member_game_ids
    assert record.game_id in profile.played_game_ids
    assert record.difficulty == "easy"
    assert record.compound_id == 1


def test_session_record_serializes(world):
    library, mazes = world
    record = run_session(PlayerProfile("p1"), library, mazes, "random", seed=5, **SESSION)
    data = record.to_record()
    assert data["player_id"] == "p1"
    assert data["positives"] == list(record.tally.positives)
    assert set(data) >= {"game_id", "score", "outcome", "duration", "fun", "pre_exam", "post_exam"}


def test_no_repeats_until_pool_empty(world):
    library, mazes = world
    profile = PlayerProfile("p1", mastery=Difficulty.MEDIUM)
    members = library.cluster_for(1, "medium").member_game_ids
    served = []
    for seed in range(len(members)):
        profile.next_material_index = 1  # stay on the same material
        record = run_session(profile, library, mazes, "random", seed, recycle=False, **WEIGHTS)
        served.append(record.game_id)
    assert sorted(served) == sorted(members)
    profile.next_material_index = 1
    with pytest.raises(EmptyPool):
        run_session(profile, library, mazes, "random", seed=99, recycle=False, **WEIGHTS)


def test_recycle_reopens_exhausted_cluster(world):
    library, mazes = world
    profile = PlayerProfile("p1", mastery=Difficulty.MEDIUM)
    members = set(library.cluster_for(1, "medium").member_game_ids)
    profile.played_game_ids = set(members)
    profile.attempted_materials = {1}
    record = run_session(profile, library, mazes, "random", seed=0, recycle=True, **WEIGHTS)
    assert record.recycled
    assert record.game_id in members
    assert profile.played_game_ids == {record.game_id}


def _find_seed(world, victory: bool) -> int:
    """A seed whose first easy session for compound 1 ends as requested."""
    library, mazes = world
    pool = candidate_pool(library, 1, Difficulty.EASY, played=set())
    game = library.game(select_game(pool))
    for seed in range(300):
        if bot_simulate(mazes[game.maze_id], game, "greedy", seed).victory is victory:
            return seed
    raise AssertionError("no matching seed found")


def test_victory_advances_material(world):
    library, mazes = world
    profile = PlayerProfile("p1")
    seed = _find_seed(world, victory=True)
    record = run_session(profile, library, mazes, "greedy", seed=seed, **SESSION)
    assert record.outcome == "victory"
    assert profile.next_material_index == 2
    assert record.pre_exam == 0 and record.post_exam == 1


def test_defeat_repeats_material(world):
    library, mazes = world
    profile = PlayerProfile("p1")
    seed = _find_seed(world, victory=False)
    record = run_session(profile, library, mazes, "greedy", seed=seed, **SESSION)
    assert record.outcome == "defeat"
    assert profile.next_material_index == 1
    assert record.pre_exam == 0 and record.post_exam == 0
    # the retry is no longer a first encounter
    retry = run_session(profile, library, mazes, "greedy", seed=seed + 1000, **SESSION)
    assert retry.compound_id == 1
    assert retry.pre_exam == 1


def test_session_score_uses_supplied_weights(world):
    library, mazes = world
    base = run_session(PlayerProfile("p1"), library, mazes, "greedy", seed=4, **SESSION)
    doubled = run_session(
        PlayerProfile("p2"),
        library,
        mazes,
        "greedy",
        seed=4,
        recycle=CONFIG.sim_recycle,
        positive_weights=(2.0, 2.0),
        negative_weights=(0.0, 0.0),
    )
    assert doubled.tally == base.tally
    assert doubled.score == 2 * sum(base.tally.positives)


def test_curriculum_complete_propagates(world):
    library, mazes = world
    profile = PlayerProfile("p1", next_material_index=library.compound_count + 1)
    with pytest.raises(CurriculumComplete):
        run_session(profile, library, mazes, "greedy", seed=0, **SESSION)
