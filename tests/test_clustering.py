"""Tests for CF-tree clustering, refinement, silhouette and threshold search."""

from __future__ import annotations

import math
import random
from collections import defaultdict

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from segforge import clustering
from segforge.clustering import (
    CFTree,
    Cluster,
    ClusteringFeature,
    DimensionMismatch,
    NoFeasibleThreshold,
    SingleCluster,
    ThresholdCandidate,
    ThresholdSearchResult,
    TooFewClusters,
    build_tree,
    leaf_clusters,
    refine_to_k,
    search_threshold,
    silhouette,
    summarize,
)
from segforge.config import load_config

import cftree_reference as reference

CONFIG = load_config()
# the pipeline's settings, for the tests that do not vary them
BRANCHING = CONFIG.cluster_branching
SAMPLING = dict(sample_cap=CONFIG.cluster_sample_cap, seed=CONFIG.cluster_seed)
SEARCH = dict(branching=BRANCHING, **SAMPLING)

# ===== Reference implementations (kept deliberately naive) =====


def _dist(p: tuple[float, ...], q: tuple[float, ...]) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def brute_silhouette(points: list[tuple[float, ...]], labels: list) -> float:
    groups: dict = defaultdict(list)
    for i, label in enumerate(labels):
        groups[label].append(i)
    total = 0.0
    for i, point in enumerate(points):
        own = groups[labels[i]]
        if len(own) > 1:
            a = sum(_dist(point, points[j]) for j in own if j != i) / (len(own) - 1)
        else:
            a = 0.0
        b = min(
            sum(_dist(point, points[j]) for j in members) / len(members)
            for label, members in groups.items()
            if label != labels[i]
        )
        denom = max(a, b)
        total += 0.0 if denom == 0.0 else (b - a) / denom
    return total / len(points)


def naive_refine(clusters: list[Cluster], k: int) -> list[Cluster]:
    """Quadratic greedy merge: globally nearest pair, lowest-id tie-break."""
    state = {
        c.cluster_id: (c.cf.copy(), list(c.members)) for c in clusters
    }
    while len(state) > k:
        ids = sorted(state)
        centroids = {cid: state[cid][0].centroid() for cid in ids}
        best = None
        for i, a in enumerate(ids):
            ca = centroids[a]
            for b in ids[i + 1 :]:
                d = sum((x - y) ** 2 for x, y in zip(ca, centroids[b]))
                key = (d, a, b)
                if best is None or key < best:
                    best = key
        _, a, b = best
        state[a][0].add(state[b][0])
        state[a][1].extend(state[b][1])
        del state[b]
    return [
        Cluster(cluster_id=cid, cf=cf, members=tuple(members))
        for cid, (cf, members) in sorted(state.items())
    ]


def reference_search_threshold(
    points: list[tuple[float, ...]],
    tags: list[str],
    *,
    grid: tuple[float, ...],
    k: int,
    branching: int,
    sample_cap: int,
    seed: int,
) -> ThresholdSearchResult:
    """Threshold search that builds, refines and scores every candidate."""
    best = None
    log = []
    for threshold in sorted(grid):
        tree = build_tree(points, tags, threshold=threshold, branching=branching)
        leaves = leaf_clusters(tree)
        if len(leaves) < k:
            log.append(ThresholdCandidate(threshold, len(leaves), None))
            continue
        clusters = refine_to_k(leaves, k)
        label_of = {tag: c.cluster_id for c in clusters for tag in c.members}
        labels = [label_of[tag] for tag in tags]
        score = silhouette(points, labels, sample_cap=sample_cap, seed=seed)
        log.append(ThresholdCandidate(threshold, len(leaves), score))
        if best is None or score > best.score:
            best = ThresholdSearchResult(threshold, clusters, score)
    if best is None:
        raise NoFeasibleThreshold("no feasible threshold")
    best.log = log
    return best


def _leaf_sequence(tree: CFTree) -> list[tuple]:
    return [
        (tuple(e.members), e.cf.n, tuple(e.cf.ls), tuple(e.cf.ss))
        for e in tree.leaf_entries()
    ]


def _check_tree(tree: CFTree, points_by_tag: dict[str, tuple[float, ...]]) -> None:
    """Structural invariants: occupancy, CF additivity, member partition."""
    assert tree.root is not None
    seen_tags: list[str] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        assert 1 <= len(node.entries) <= tree.branching
        for entry in node.entries:
            if node.is_leaf:
                assert entry.child is None
                assert entry.cf.n == len(entry.members)
                seen_tags.extend(entry.members)
                expected = reference.ClusteringFeature.zero(tree.dim)
                for tag in entry.members:
                    expected.add_point(points_by_tag[tag])
                for d in range(tree.dim):
                    assert entry.cf.ls[d] == pytest.approx(expected.ls[d], abs=1e-9)
                    assert entry.cf.ss[d] == pytest.approx(expected.ss[d], abs=1e-9)
            else:
                child = entry.child
                assert child is not None and child.entries
                total = reference.ClusteringFeature.zero(tree.dim)
                for sub in child.entries:
                    total.add(sub.cf)
                assert entry.cf.n == total.n
                for d in range(tree.dim):
                    assert entry.cf.ls[d] == pytest.approx(total.ls[d], abs=1e-9)
                    assert entry.cf.ss[d] == pytest.approx(total.ss[d], abs=1e-9)
                stack.append(child)
    assert sorted(seen_tags) == sorted(points_by_tag)


# ===== Clustering features =====
# The per-point methods live on in the reference tree only; the
# production tree inlines the same arithmetic.


def test_cf_accumulates_count_sum_and_squares() -> None:
    cf = reference.ClusteringFeature.from_point((1.0, 2.0))
    cf.add_point((3.0, 4.0))
    assert cf.n == 2
    assert cf.ls == [4.0, 6.0]
    assert cf.ss == [10.0, 20.0]
    assert cf.centroid() == (2.0, 3.0)
    merged = ClusteringFeature(1, [1.0, 2.0], [1.0, 4.0])
    merged.add(ClusteringFeature(1, [3.0, 4.0], [9.0, 16.0]))
    assert (merged.n, merged.ls, merged.ss) == (cf.n, cf.ls, cf.ss)
    assert merged.centroid() == (2.0, 3.0)


def test_cf_radius_of_unit_pair_is_half() -> None:
    cf = reference.ClusteringFeature.from_point((0.0,))
    assert cf.radius_with_point((1.0,)) == pytest.approx(0.5)


def test_cf_radius_clamps_negative_variance_to_zero() -> None:
    # merged sums n=2, ls=2, ss=2-1e-12: variance -5e-13 before the clamp
    cf = reference.ClusteringFeature(1, [1.0], [1.0 - 1e-12])
    assert cf.radius_with_point((1.0,)) == 0.0
    # The production tree clamps too: the point joins at threshold 0.0.
    tree = CFTree(threshold=0.0, branching=BRANCHING)
    tree.insert((1.0,), "a")
    tree.root.entries[0].cf.ss[0] = 1.0 - 1e-12
    tree.insert((1.0,), "b")
    assert [e.members for e in tree.leaf_entries()] == [["a", "b"]]


def test_cf_merged_radius_matches_actual_merge() -> None:
    points = [(0.0, 0.0), (1.0, 1.0), (3.0, -2.0)]
    cf = reference.ClusteringFeature.from_point(points[0])
    cf.add_point(points[1])
    preview = cf.radius_with_point(points[2])
    cf.add_point(points[2])
    centre = cf.centroid()
    spread = sum(math.dist(p, centre) ** 2 for p in points) / len(points)
    assert preview == pytest.approx(math.sqrt(spread))


# ===== Tree insertion =====


def test_distant_pair_under_tight_threshold_makes_two_entries() -> None:
    tree = build_tree([(0.0,), (1.0,)], ["a", "b"], threshold=0.1, branching=BRANCHING)
    entries = tree.leaf_entries()
    assert len(entries) == 2


def test_pair_within_threshold_is_absorbed() -> None:
    # Merged radius of {0, 1} is exactly 0.5.
    tree = build_tree([(0.0,), (1.0,)], ["a", "b"], threshold=0.5, branching=BRANCHING)
    entries = tree.leaf_entries()
    assert len(entries) == 1
    assert entries[0].cf.n == 2


def test_duplicate_point_always_absorbs() -> None:
    for threshold in (0.005, 0.5):
        tree = build_tree(
            [(3.0, 4.0), (3.0, 4.0)], ["a", "b"], threshold=threshold, branching=BRANCHING
        )
        entries = tree.leaf_entries()
        assert len(entries) == 1
        assert entries[0].cf.n == 2


def test_nearest_entry_tie_goes_to_the_first_entry() -> None:
    # 0 is as near to the entry of -2 as to that of 2, and either merged
    # radius is exactly 1.
    points, tags = [(-2.0,), (2.0,), (0.0,)], ["a", "b", "c"]
    tree = build_tree(points, tags, threshold=1.0, branching=BRANCHING)
    assert [e.members for e in tree.leaf_entries()] == [["a", "c"], ["b"]]
    assert _leaf_sequence(tree) == _leaf_sequence(reference.build_tree(points, tags, threshold=1.0))


def test_min_refused_is_the_smallest_refused_radius() -> None:
    # {0, 1} has merged radius 0.5, {2, 2.5} 0.25; 2 is nearest to 1.
    tree = build_tree(
        [(0.0,), (1.0,), (2.0,), (2.5,)], ["a", "b", "c", "d"], threshold=0.1, branching=BRANCHING
    )
    assert len(tree.leaf_entries()) == 4
    assert tree.min_refused == pytest.approx(0.25)


def test_min_refused_is_infinite_when_every_point_is_absorbed() -> None:
    tree = build_tree([(1.0, 2.0)] * 5, list("abcde"), threshold=0.0, branching=BRANCHING)
    assert len(tree.leaf_entries()) == 1
    assert tree.min_refused == math.inf


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-4, max_value=4),
            st.integers(min_value=-4, max_value=4),
        ),
        min_size=2,
        max_size=60,
    ),
    st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
    st.sampled_from([0.0, 0.3, 0.7, 0.95]),
    st.sampled_from([2, 3]),
)
def test_tree_is_unchanged_below_min_refused(
    int_points: list[tuple[int, int]], threshold: float, fraction: float, branching: int
) -> None:
    points = [(float(x), float(y)) for x, y in int_points]
    tags = [f"t{i:03d}" for i in range(len(points))]
    tree = build_tree(points, tags, threshold=threshold, branching=branching)
    limit = tree.min_refused
    if limit == math.inf:
        later = threshold + 10.0 * fraction
    else:
        later = threshold + fraction * (limit - threshold)
    assume(later < limit)
    again = build_tree(points, tags, threshold=later, branching=branching)
    assert _leaf_sequence(again) == _leaf_sequence(tree)
    assert again.min_refused == limit
    if limit != math.inf:
        # At min_refused itself the first refused point is absorbed instead.
        changed = build_tree(points, tags, threshold=limit, branching=branching)
        assert [e.members for e in changed.leaf_entries()] != [
            e.members for e in tree.leaf_entries()
        ]


def _structure(node) -> tuple:
    """A node and everything below it: leaf flag, then each entry's count,
    sums, members and child."""
    return (
        node.is_leaf,
        [
            (e.cf.n, e.cf.ls, e.cf.ss, e.members, None if e.child is None else _structure(e.child))
            for e in node.entries
        ],
    )


@st.composite
def _tree_inputs(draw) -> tuple[list[tuple[float, ...]], list[str]]:
    """Random-float or duplicate-heavy integer points, with columns that are
    constant at 0.0, -0.0, 1.0, 3.0 or the non-integer 0.1 mixed in, under
    tags in shuffled order."""
    width = draw(st.integers(min_value=1, max_value=3))
    if draw(st.booleans()):
        coordinate = st.integers(min_value=-3, max_value=3).map(float)
    else:
        coordinate = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
    rows = draw(st.lists(st.lists(coordinate, min_size=width, max_size=width), min_size=1, max_size=60))
    for value in draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 3.0, 0.1]), max_size=3)):
        column = draw(st.integers(min_value=0, max_value=len(rows[0])))
        for row in rows:
            row.insert(column, value)
    order = draw(st.permutations(range(len(rows))))
    return [tuple(row) for row in rows], [f"t{i:03d}" for i in order]


@settings(max_examples=150, deadline=None)
@given(
    _tree_inputs(),
    st.sampled_from([0.0, 0.05, 0.3, 1.0, 4.0]),
    st.sampled_from([2, 3]),
)
def test_build_tree_matches_the_reference_tree(
    inputs: tuple[list[tuple[float, ...]], list[str]], threshold: float, branching: int
) -> None:
    points, tags = inputs
    got = build_tree(points, tags, threshold=threshold, branching=branching)
    want = reference.build_tree(points, tags, threshold=threshold, branching=branching)
    assert _structure(got.root) == _structure(want.root)
    assert got.min_refused == want.min_refused
    assert got.dim == want.dim
    # Leaf sums reach the artifacts: they must match bit for bit, the sign
    # of a zero included. (Inner sums may differ in the sign of a zero
    # only, which no squared distance can see.)
    assert repr(_leaf_sequence(got)) == repr(_leaf_sequence(want))


def test_build_tree_drops_only_integer_constant_columns(monkeypatch) -> None:
    widths: set[int] = set()
    insert = CFTree.insert

    def spy(self, point, tag):
        widths.add(len(point))
        insert(self, point, tag)

    monkeypatch.setattr(CFTree, "insert", spy)
    rng = random.Random(6)
    # columns: varying, 0.0, 1.0, 0.1, varying, -0.0 and 0.0 mixed
    points = [(rng.random(), 0.0, 1.0, 0.1, rng.random(), (0.0, -0.0)[i % 2]) for i in range(30)]
    tags = [f"p{i:02d}" for i in range(30)]
    tree = build_tree(points, tags, threshold=0.2, branching=BRANCHING)
    assert widths == {4}
    assert tree.dim == 6
    assert all(len(e.cf.ls) == len(e.cf.ss) == 6 for e in tree.leaf_entries())
    assert _leaf_sequence(tree) == _leaf_sequence(reference.build_tree(points, tags, threshold=0.2))


def test_insert_rejects_dimension_mismatch() -> None:
    tree = CFTree(threshold=0.1, branching=BRANCHING)
    tree.insert((0.0, 0.0), "a")
    with pytest.raises(DimensionMismatch):
        tree.insert((0.0,), "b")


def test_tree_splits_keep_occupancy_within_branching() -> None:
    points = [(float(i), 0.0) for i in range(64)]
    tags = [f"p{i:02d}" for i in range(64)]
    tree = build_tree(points, tags, threshold=0.01, branching=BRANCHING)
    _check_tree(tree, dict(zip(tags, points)))


def test_build_tree_is_insertion_order_stable() -> None:
    rng = random.Random(5)
    points = [(rng.random(), rng.random()) for _ in range(40)]
    tags = [f"p{i:02d}" for i in range(40)]
    tree_a = build_tree(points, tags, threshold=0.05, branching=BRANCHING)
    order = list(range(40))
    rng.shuffle(order)
    tree_b = build_tree(
        [points[i] for i in order],
        [tags[i] for i in order],
        threshold=0.05,
        branching=BRANCHING,
    )
    members_a = sorted(tuple(sorted(e.members)) for e in tree_a.leaf_entries())
    members_b = sorted(tuple(sorted(e.members)) for e in tree_b.leaf_entries())
    assert members_a == members_b


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-8, max_value=8),
            st.integers(min_value=-8, max_value=8),
        ),
        min_size=1,
        max_size=48,
    ),
    st.sampled_from([0.0, 0.25, 1.0, 4.0]),
    st.sampled_from([2, 3, 4]),
)
def test_tree_invariants_hold_for_random_sequences(
    int_points: list[tuple[int, int]], threshold: float, branching: int
) -> None:
    points = [(float(x), float(y)) for x, y in int_points]
    tags = [f"t{i:03d}" for i in range(len(points))]
    tree = CFTree(threshold=threshold, branching=branching)
    for point, tag in zip(points, tags):
        tree.insert(point, tag)
    _check_tree(tree, dict(zip(tags, points)))


# ===== Refinement =====


def _singleton(cid: int, point: tuple[float, ...]) -> Cluster:
    return Cluster(cid, ClusteringFeature(1, list(point), [x * x for x in point]), (f"g{cid}",))


def test_refine_merges_near_pairs_first() -> None:
    clusters = [
        _singleton(0, (0.0,)),
        _singleton(1, (0.01,)),
        _singleton(2, (10.0,)),
        _singleton(3, (10.01,)),
    ]
    refined = refine_to_k(clusters, 2)
    assert [c.cluster_id for c in refined] == [0, 2]
    assert sorted(refined[0].members) == ["g0", "g1"]
    assert sorted(refined[1].members) == ["g2", "g3"]


def test_refine_keeps_exact_count_unchanged() -> None:
    clusters = [_singleton(i, (float(i),)) for i in range(4)]
    refined = refine_to_k(clusters, 4)
    assert [c.cluster_id for c in refined] == [0, 1, 2, 3]


def test_refine_rejects_too_few_clusters() -> None:
    clusters = [_singleton(i, (float(i),)) for i in range(3)]
    with pytest.raises(TooFewClusters):
        refine_to_k(clusters, 5)


def test_refine_zero_distance_ties_pick_lowest_ids() -> None:
    clusters = [
        _singleton(0, (1.0, 1.0)),
        _singleton(1, (5.0, 5.0)),
        _singleton(2, (1.0, 1.0)),
        _singleton(3, (5.0, 5.0)),
        _singleton(4, (1.0, 1.0)),
    ]
    refined = refine_to_k(clusters, 2)
    assert [c.cluster_id for c in refined] == [0, 1]
    assert sorted(refined[0].members) == ["g0", "g2", "g4"]
    assert sorted(refined[1].members) == ["g1", "g3"]


def test_refine_is_input_order_invariant() -> None:
    rng = random.Random(11)
    clusters = [_singleton(i, (rng.random() * 4, rng.random() * 4)) for i in range(24)]
    expected = refine_to_k(clusters, 5)
    for _ in range(5):
        shuffled = clusters[:]
        rng.shuffle(shuffled)
        got = refine_to_k(shuffled, 5)
        assert [c.cluster_id for c in got] == [c.cluster_id for c in expected]
        assert [sorted(c.members) for c in got] == [sorted(c.members) for c in expected]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=6),
        ),
        min_size=2,
        max_size=24,
    ),
    st.integers(min_value=1, max_value=6),
)
def test_refine_matches_naive_greedy_merge(
    int_points: list[tuple[int, int, int]], k: int
) -> None:
    k = min(k, len(int_points))
    clusters = [
        _singleton(i, (float(x), float(y), float(z)))
        for i, (x, y, z) in enumerate(int_points)
    ]
    fast = refine_to_k(clusters, k)
    slow = naive_refine(clusters, k)
    assert [c.cluster_id for c in fast] == [c.cluster_id for c in slow]
    assert [sorted(c.members) for c in fast] == [sorted(c.members) for c in slow]
    for f, s in zip(fast, slow):
        assert f.cf.n == s.cf.n
        for a, b in zip(f.cf.centroid(), s.cf.centroid()):
            assert a == pytest.approx(b, abs=1e-9)


def test_refine_matches_naive_on_random_floats() -> None:
    rng = random.Random(23)
    for trial in range(10):
        clusters = [
            _singleton(i, (rng.uniform(0, 10), rng.uniform(0, 10))) for i in range(30)
        ]
        fast = refine_to_k(clusters, 4)
        slow = naive_refine(clusters, 4)
        assert [sorted(c.members) for c in fast] == [sorted(c.members) for c in slow]


def test_refine_matches_naive_on_many_duplicate_singletons() -> None:
    # About 300 singletons on 40 distinct points: hundreds of zero-distance
    # ties are open at once, and most cached neighbours go stale.
    rng = random.Random(31)
    distinct = rng.sample([(float(x), float(y)) for x in range(7) for y in range(7)], 40)
    clusters = [_singleton(i, rng.choice(distinct)) for i in range(300)]
    fast = refine_to_k(clusters, 9)
    slow = naive_refine(clusters, 9)
    assert [c.cluster_id for c in fast] == [c.cluster_id for c in slow]
    assert [sorted(c.members) for c in fast] == [sorted(c.members) for c in slow]
    assert [c.cf.n for c in fast] == [c.cf.n for c in slow]


def _reference_singleton(cid: int, point: tuple[float, ...]) -> Cluster:
    return Cluster(cid, reference.ClusteringFeature.from_point(point), (f"g{cid}",))


def _same_refine(got: list[Cluster], want: list[Cluster]) -> None:
    """Equal ids, members, counts and sums, bit for bit."""
    assert repr([(c.cluster_id, c.members, c.cf.n, c.cf.ls, c.cf.ss) for c in got]) == repr(
        [(c.cluster_id, c.members, c.cf.n, c.cf.ls, c.cf.ss) for c in want]
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=2),
        ),
        min_size=2,
        max_size=80,
    ),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([None, 0.0, 0.3]),
)
def test_refine_matches_the_reference_refine(
    int_points: list[tuple[int, int, int]], k: int, threshold: float | None
) -> None:
    # Singletons, or the leaves of a tree: clusters of several points whose
    # centroids are not on the grid.
    points = [(x / 3, y / 3, float(z)) for x, y, z in int_points]
    tags = [f"g{i:03d}" for i in range(len(points))]
    if threshold is None:
        clusters = [_singleton(i, p) for i, p in enumerate(points)]
        oracle_input = [_reference_singleton(i, p) for i, p in enumerate(points)]
    else:
        clusters = leaf_clusters(build_tree(points, tags, threshold=threshold, branching=BRANCHING))
        oracle_input = [
            Cluster(c.cluster_id, reference.ClusteringFeature(c.cf.n, list(c.cf.ls), list(c.cf.ss)), c.members)
            for c in clusters
        ]
    k = min(k, len(clusters))
    _same_refine(refine_to_k(clusters, k), reference.refine_to_k(oracle_input, k))


@pytest.mark.parametrize("chunk_floats", [1, 4000, clustering._REFRESH_FLOATS])
def test_refine_matches_the_reference_on_600_duplicate_singletons(
    monkeypatch, chunk_floats: int
) -> None:
    # 600 singletons on 60 distinct points refined to 5: the live rows are
    # compacted several times, and stale zero-distance tie groups of many
    # rows are refreshed together; with 1 float per chunk each chunk holds
    # one row, with 4000 a few, so those groups span many chunks.
    monkeypatch.setattr(clustering, "_REFRESH_FLOATS", chunk_floats)
    rng = random.Random(41)
    distinct = rng.sample([(float(x), float(y)) for x in range(10) for y in range(10)], 60)
    points = [rng.choice(distinct) for _ in range(600)]
    clusters = [_singleton(i, p) for i, p in enumerate(points)]
    oracle_input = [_reference_singleton(i, p) for i, p in enumerate(points)]
    _same_refine(refine_to_k(clusters, 5), reference.refine_to_k(oracle_input, 5))


# ===== Silhouette =====


def test_silhouette_two_tight_pairs_scores_high() -> None:
    points = [(0.0,), (0.1,), (10.0,), (10.1,)]
    labels = [0, 0, 1, 1]
    score = silhouette(points, labels, **SAMPLING)
    assert score == pytest.approx(0.99005, abs=1e-4)
    assert score == pytest.approx(brute_silhouette(points, labels), abs=1e-9)


def test_silhouette_requires_two_clusters() -> None:
    with pytest.raises(SingleCluster):
        silhouette([(0.0,), (1.0,)], [0, 0], **SAMPLING)


def test_silhouette_singleton_cluster_uses_zero_intra() -> None:
    points = [(0.0,), (5.0,), (5.1,)]
    labels = [0, 1, 1]
    assert silhouette(points, labels, **SAMPLING) == pytest.approx(
        brute_silhouette(points, labels), abs=1e-9
    )


def test_silhouette_identical_points_score_zero() -> None:
    points = [(1.0, 1.0)] * 4
    labels = [0, 0, 1, 1]
    assert silhouette(points, labels, **SAMPLING) == 0.0


def test_silhouette_matches_brute_force_on_random_data() -> None:
    rng = random.Random(3)
    for trial in range(5):
        points = [
            (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
            for _ in range(60)
        ]
        labels = [rng.randrange(4) for _ in range(60)]
        if len(set(labels)) < 2:
            continue
        assert silhouette(points, labels, **SAMPLING) == pytest.approx(
            brute_silhouette(points, labels), abs=1e-9
        )


def test_silhouette_values_stay_in_bounds() -> None:
    rng = random.Random(9)
    points = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(40)]
    labels = [rng.randrange(3) for _ in range(40)]
    score = silhouette(points, labels, **SAMPLING)
    assert -1.0 <= score <= 1.0


def test_silhouette_sampling_is_seeded_and_capped() -> None:
    rng = random.Random(4)
    points = [(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(300)]
    points += [(rng.gauss(8, 1), rng.gauss(8, 1)) for _ in range(300)]
    labels = [0] * 300 + [1] * 300
    a = silhouette(points, labels, sample_cap=100, seed=12)
    b = silhouette(points, labels, sample_cap=100, seed=12)
    c = silhouette(points, labels, sample_cap=100, seed=13)
    assert a == b
    assert a != c  # different sample, almost surely different mean


def test_silhouette_no_sampling_below_cap() -> None:
    points = [(0.0,), (0.2,), (7.0,), (7.2,)]
    labels = [0, 0, 1, 1]
    assert silhouette(points, labels, sample_cap=2000, seed=1) == silhouette(
        points, labels, sample_cap=len(points), seed=0
    )


# ===== Threshold search =====


def _blobs(rng: random.Random, centers: list[tuple[float, float]], per_blob: int):
    points = []
    labels = []
    for b, (cx, cy) in enumerate(centers):
        for _ in range(per_blob):
            points.append((cx + rng.uniform(-0.05, 0.05), cy + rng.uniform(-0.05, 0.05)))
            labels.append(b)
    tags = [f"g{i:03d}" for i in range(len(points))]
    return points, labels, tags


def test_search_threshold_recovers_separated_blobs() -> None:
    rng = random.Random(8)
    points, truth, tags = _blobs(rng, [(0, 0), (6, 0), (0, 6)], per_blob=8)
    result = search_threshold(points, tags, grid=(0.005, 0.02, 0.08), k=3, **SEARCH)
    assert len(result.clusters) == 3
    by_tag = {}
    for cluster in result.clusters:
        for tag in cluster.members:
            by_tag[tag] = cluster.cluster_id
    partitions = defaultdict(set)
    for tag, label in zip(tags, truth):
        partitions[label].add(by_tag[tag])
    # every ground-truth blob maps onto exactly one recovered cluster
    recovered = [partitions[b] for b in sorted(partitions)]
    assert all(len(r) == 1 for r in recovered)
    assert len(set().union(*recovered)) == 3
    assert result.score > 0.9


def test_search_threshold_logs_every_candidate() -> None:
    rng = random.Random(2)
    points, _, tags = _blobs(rng, [(0, 0), (4, 4)], per_blob=6)
    result = search_threshold(points, tags, grid=(0.01, 0.04), k=2, **SEARCH)
    assert [c.threshold for c in result.log] == [0.01, 0.04]
    assert all(c.leaf_count >= 1 for c in result.log)
    feasible = [c for c in result.log if c.silhouette is not None]
    assert feasible
    assert result.score == max(c.silhouette for c in feasible)


def test_search_threshold_tie_prefers_smaller_threshold() -> None:
    # Two far blobs: every threshold yields the same perfect clustering.
    points = [(0.0,), (0.0,), (100.0,), (100.0,)]
    tags = ["a", "b", "c", "d"]
    result = search_threshold(points, tags, grid=(0.04, 0.01, 0.02), k=2, **SEARCH)
    assert result.best_threshold == 0.01


def test_search_threshold_raises_when_nothing_feasible() -> None:
    points = [(0.0,), (0.0,), (0.0,)]
    tags = ["a", "b", "c"]
    with pytest.raises(NoFeasibleThreshold):
        search_threshold(points, tags, grid=(0.01, 0.08), k=2, **SEARCH)


def test_search_threshold_singletons_score_without_error() -> None:
    # Tiny threshold keeps every distinct point a singleton: k == point count.
    points = [(0.0,), (1.0,), (2.0,), (3.0,)]
    tags = ["a", "b", "c", "d"]
    result = search_threshold(points, tags, grid=(0.005,), k=4, **SEARCH)
    assert len(result.clusters) == 4
    assert result.score == pytest.approx(1.0)


def _assert_same_search(got: ThresholdSearchResult, want: ThresholdSearchResult) -> None:
    assert got.log == want.log
    assert got.best_threshold == want.best_threshold
    assert got.score == want.score
    assert [c.cluster_id for c in got.clusters] == [c.cluster_id for c in want.clusters]
    assert [c.members for c in got.clusters] == [c.members for c in want.clusters]
    assert [(c.cf.n, c.cf.ls, c.cf.ss) for c in got.clusters] == [
        (c.cf.n, c.cf.ls, c.cf.ss) for c in want.clusters
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
        ),
        min_size=3,
        max_size=60,
    ),
    st.sampled_from([0.0, 0.05, 0.2, 0.5]),
    st.lists(
        st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.5, 3.0]), min_size=1, max_size=5
    ),
    st.integers(min_value=2, max_value=6),
    st.sampled_from([2, 3]),
)
def test_search_threshold_matches_building_every_tree(
    int_points: list[tuple[int, int]],
    base: float,
    fractions: list[float],
    k: int,
    branching: int,
) -> None:
    # Duplicate-heavy points; the grid steps relative to the base tree's
    # min_refused land below it, on it and above it.
    points = [(x / 4, y / 4) for x, y in int_points]
    tags = [f"g{i:03d}" for i in range(len(points))]
    limit = build_tree(points, tags, threshold=base, branching=branching).min_refused
    span = 1.0 if limit == math.inf else limit - base
    grid = (base,) + tuple(base + f * span for f in fractions)
    kwargs = dict(grid=grid, k=k, branching=branching, sample_cap=20, seed=3)
    try:
        want = reference_search_threshold(points, tags, **kwargs)
    except NoFeasibleThreshold:
        with pytest.raises(NoFeasibleThreshold):
            search_threshold(points, tags, **kwargs)
        return
    _assert_same_search(search_threshold(points, tags, **kwargs), want)


def test_search_threshold_builds_each_distinct_tree_once(monkeypatch) -> None:
    calls: dict[str, int] = defaultdict(int)
    for name in ("build_tree", "leaf_clusters", "refine_to_k", "silhouette"):
        original = getattr(clustering, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(clustering, name, counted)
    # Each pair has merged radius 0.5: thresholds below it keep 5 leaves,
    # from 0.5 on the pairs merge into 3 leaves and 20 stays apart.
    points = [(0.0,), (1.0,), (10.0,), (11.0,), (20.0,)]
    tags = ["a", "b", "c", "d", "e"]
    grid = (0.1, 0.2, 0.4, 0.5, 0.6)
    result = search_threshold(points, tags, grid=grid, k=2, **SEARCH)
    assert dict(calls) == {"build_tree": 2, "leaf_clusters": 2, "refine_to_k": 2, "silhouette": 2}
    assert [c.leaf_count for c in result.log] == [5, 5, 5, 3, 3]
    monkeypatch.undo()
    want = reference_search_threshold(points, tags, grid=grid, k=2, **SEARCH)
    _assert_same_search(result, want)


# ===== Summaries =====


def test_summarize_counts_and_spread_from_raw_vectors() -> None:
    cf = ClusteringFeature(2, [1.0, 1.0], [1.0, 1.0])
    cluster = Cluster(0, cf, ("a", "b"))
    raw = {"a": (0.0, 0.0), "b": (2.0, 2.0)}
    summary = summarize(cluster, raw, difficulty="easy", label="easy-000")
    assert summary.n == 2
    # population std of {0, 2} is 1 per dimension, summed over 2 dimensions
    assert summary.s == pytest.approx(2.0)
    assert summary.cluster_id == "easy-000"
    assert summary.difficulty == "easy"
    assert summary.member_game_ids == ("a", "b")


def test_summarize_singleton_has_zero_spread() -> None:
    cluster = Cluster(0, ClusteringFeature(1, [3.0, 4.0], [9.0, 16.0]), ("a",))
    summary = summarize(cluster, {"a": (30.0, 40.0)}, difficulty="hard", label="hard-000")
    assert summary.s == 0.0
    assert summary.n == 1
