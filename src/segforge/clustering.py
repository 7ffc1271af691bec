"""Hierarchical clustering of feature vectors via a CF-tree.

Points stream into a height-balanced tree of clustering features (count,
linear sum, square sum per dimension). Leaf entries absorb points while the
merged RMS radius stays under a threshold; overfull nodes split around their
two farthest entries. A global refinement pass then merges the nearest leaf
cluster pairs down to a fixed cluster count, and silhouette scoring picks
the best threshold from a small grid.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import add, truediv

import numpy as np

from .contentspace import Difficulty
from .errors import SegforgeError

# Stale rows are refreshed in chunks whose difference block holds at most
# this many floats (1 MiB).
_REFRESH_FLOATS = 1 << 17


class DimensionMismatch(SegforgeError):
    """A point does not match the tree's dimensionality."""


class TooFewClusters(SegforgeError):
    """Refinement target exceeds the number of available clusters."""


class SingleCluster(SegforgeError):
    """Silhouette needs at least two represented clusters."""


class NoFeasibleThreshold(SegforgeError):
    """No grid threshold produced enough leaf clusters."""


class ClusteringFeature:
    """Additive cluster summary: point count, linear sum, square sum."""

    __slots__ = ("n", "ls", "ss")

    def __init__(self, n: int, ls: list[float], ss: list[float]) -> None:
        self.n = n
        self.ls = ls
        self.ss = ss

    def copy(self) -> "ClusteringFeature":
        return ClusteringFeature(self.n, list(self.ls), list(self.ss))

    def add(self, other: "ClusteringFeature") -> None:
        self.n += other.n
        self.ls = list(map(add, self.ls, other.ls))
        self.ss = list(map(add, self.ss, other.ss))

    def centroid(self) -> tuple[float, ...]:
        return tuple(map(truediv, self.ls, repeat(self.n)))


class _Entry:
    __slots__ = ("cf", "child", "members")

    def __init__(
        self,
        cf: ClusteringFeature,
        child: "_Node | None" = None,
        members: list[str] | None = None,
    ) -> None:
        self.cf = cf
        self.child = child
        self.members = members


class _Node:
    __slots__ = ("is_leaf", "entries")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.entries: list[_Entry] = []


class CFTree:
    """Threshold-absorbing CF-tree with nearest-centroid descent."""

    def __init__(self, threshold: float, branching: int) -> None:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        if branching < 2:
            raise ValueError("branching factor must be at least 2")
        self.threshold = threshold
        self.branching = branching
        self.dim: int | None = None
        self.root: _Node | None = None
        # Smallest merged radius a leaf entry refused. The threshold decides
        # nothing else, so a tree built at any t in [threshold, min_refused)
        # is this same tree.
        self.min_refused = math.inf

    def insert(self, point: tuple[float, ...], tag: str) -> None:
        """Route a tagged point to its closest leaf entry.

        Each node is descended through its entry with the nearest centroid
        (squared Euclidean distance; the first entry wins a tie). The point
        is absorbed into the nearest leaf entry when the merged RMS radius
        stays within the threshold, otherwise it opens a new entry. Nodes
        that exceed the branching factor split around their farthest entry
        pair, and splits propagate upward.
        """
        if self.dim is None:
            self.dim = len(point)
        elif len(point) != self.dim:
            raise DimensionMismatch(f"expected {self.dim}-dim point, got {len(point)}")
        if self.root is None:
            self.root = _Node(is_leaf=True)
        path: list[tuple[_Node, _Entry]] = []  # inner nodes and the entry taken
        node = self.root
        while True:
            best, best_d = None, math.inf
            for entry in node.entries:
                cf = entry.cf
                n = cf.n
                d = 0.0
                # Partial sums never fall, so once one reaches best_d this
                # entry cannot be strictly nearer: the first of a tie wins.
                for l, x in zip(cf.ls, point):
                    diff = l / n - x
                    d += diff * diff
                    if d >= best_d:
                        break
                else:
                    if d < best_d:
                        best, best_d = entry, d
            if node.is_leaf:
                break
            path.append((node, best))
            node = best.child

        sq = [x * x for x in point]
        split = None
        if best is not None:
            cf = best.cf
            n = cf.n + 1
            ls = list(map(add, cf.ls, point))
            ss = list(map(add, cf.ss, sq))
            total = 0.0
            for l, s in zip(ls, ss):
                mean = l / n
                variance = s / n - mean * mean
                # Accumulated float error can push a tight cluster's
                # variance a hair negative.
                total += 0.0 if variance < 0.0 else variance
            radius = math.sqrt(total)
            if radius <= self.threshold:
                cf.n = n
                cf.ls, cf.ss = ls, ss
                best.members.append(tag)
            else:
                if radius < self.min_refused:
                    self.min_refused = radius
                best = None  # refused: the point opens an entry of its own
        if best is None:
            node.entries.append(_Entry(ClusteringFeature(1, list(point), sq), members=[tag]))
            if len(node.entries) > self.branching:
                split = self._split(node)
        for inner, entry in reversed(path):
            if split is None:
                cf = entry.cf
                cf.n += 1
                # In place: the lists stay where the entry's other data is.
                cf.ls[:] = map(add, cf.ls, point)
                cf.ss[:] = map(add, cf.ss, sq)
            else:
                inner.entries.remove(entry)
                inner.entries.extend(split)
                split = self._split(inner) if len(inner.entries) > self.branching else None
        if split is not None:
            self.root = _Node(is_leaf=False)
            self.root.entries.extend(split)

    def _split(self, node: _Node) -> tuple[_Entry, _Entry]:
        entries = node.entries
        count = len(entries)
        centroids = [list(map(truediv, e.cf.ls, repeat(e.cf.n))) for e in entries]
        # Squared centroid distances; symmetric, since fl(x - y) == -fl(y - x).
        dist = [[0.0] * count for _ in range(count)]
        far, seed_a, seed_b = -1.0, 0, 1
        for i in range(count):
            for j in range(i + 1, count):
                d = 0.0
                for x, y in zip(centroids[i], centroids[j]):
                    diff = x - y
                    d += diff * diff
                dist[i][j] = dist[j][i] = d
                if d > far:
                    far, seed_a, seed_b = d, i, j
        left = _Node(node.is_leaf)
        right = _Node(node.is_leaf)
        for index, entry in enumerate(entries):
            if index == seed_a:
                left.entries.append(entry)
            elif index == seed_b:
                right.entries.append(entry)
            elif dist[index][seed_a] <= dist[index][seed_b]:
                left.entries.append(entry)
            else:
                right.entries.append(entry)
        halves = []
        for half in (left, right):
            # Summed from a copy of the first entry, not from zero, since
            # 0.0 + x == x (only a -0.0 would come out +0.0 from zero).
            total = half.entries[0].cf.copy()
            for entry in half.entries[1:]:
                total.add(entry.cf)
            halves.append(_Entry(total, child=half))
        return halves[0], halves[1]

    def leaf_entries(self) -> list[_Entry]:
        """All leaf entries in stable left-to-right traversal order."""
        if self.root is None:
            return []
        out: list[_Entry] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.extend(node.entries)
            else:
                for entry in reversed(node.entries):
                    stack.append(entry.child)
        return out


def build_tree(
    points: list[tuple[float, ...]],
    tags: list[str],
    threshold: float,
    branching: int,
) -> CFTree:
    """Insert tagged points in ascending tag order for reproducible trees.

    A column that holds the same integer value c in every point (the same
    bits, and small enough that c * c * len(points) stays below 2**53) adds
    exactly 0.0 to every distance and radius, since every sum of it is
    exact. The tree is built without such columns, and each entry's sums
    are then widened back to full width with n * c and n * (c * c), the
    values the entry would have summed itself.
    """
    if len(points) != len(tags):
        raise ValueError("points and tags must align")
    tree = CFTree(threshold=threshold, branching=branching)
    order = sorted(range(len(tags)), key=tags.__getitem__)
    if not order:
        return tree
    dim = len(points[order[0]])
    for index in order:
        if len(points[index]) != dim:
            raise DimensionMismatch(f"expected {dim}-dim point, got {len(points[index])}")
    data = np.array(points, dtype=float)
    bits = data.view(np.int64)
    first = data[0].tolist()
    limit = 2.0**53 / len(points)
    constant = {
        d: c
        for d, c in enumerate(first)
        if (bits[:, d] == bits[0, d]).all() and c.is_integer() and c * c <= limit
    }
    narrow = data[:, [d for d in range(dim) if d not in constant]].tolist()
    for index in order:
        tree.insert(narrow[index], tags[index])
    stack = [tree.root]
    while stack:
        node = stack.pop()
        for entry in node.entries:
            cf = entry.cf
            for d, c in constant.items():
                cf.ls.insert(d, cf.n * c)
                cf.ss.insert(d, cf.n * (c * c))
            if entry.child is not None:
                stack.append(entry.child)
    tree.dim = dim
    return tree


# ===== Clusters and refinement =====


@dataclass
class Cluster:
    """One cluster: additive summary plus its member tags."""

    cluster_id: int
    cf: ClusteringFeature
    members: tuple[str, ...]


def leaf_clusters(tree: CFTree) -> list[Cluster]:
    """One cluster per leaf entry, ids numbered in traversal order."""
    return [
        Cluster(cluster_id=i, cf=entry.cf.copy(), members=tuple(entry.members))
        for i, entry in enumerate(tree.leaf_entries())
    ]


def refine_to_k(clusters: list[Cluster], k: int) -> list[Cluster]:
    """Merge the two nearest cluster centroids until exactly ``k`` remain.

    Merging adds the clustering features and keeps the lower cluster_id.
    Ties on the centroid distance pick the pair with the lowest ids, so the
    result depends only on the cluster set, never on input order.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(clusters) < k:
        raise TooFewClusters(f"need at least {k} clusters, have {len(clusters)}")
    work = sorted(clusters, key=lambda c: c.cluster_id)
    if len({c.cluster_id for c in work}) != len(work):
        raise ValueError("cluster ids must be unique")
    if len(work) == k:
        return [Cluster(c.cluster_id, c.cf.copy(), tuple(c.members)) for c in work]

    n = len(work)
    cfs = [c.cf.copy() for c in work]
    cents = np.array([cf.centroid() for cf in cfs], dtype=float)
    dim = cents.shape[1]
    parent = list(range(n))
    # Row r of the arrays below is cluster slot slots[r]. Dead rows are
    # dropped once half are dead; the rest keep their slot order, so the
    # lowest-row tie rule stays the lowest-id rule.
    slots = np.arange(n)
    alive = np.ones(n, dtype=bool)
    # Cached nearest neighbours; a generation counter per row detects rows
    # whose cached target centroid has since moved.
    nn_dist = np.full(n, np.inf)
    nn_idx = np.zeros(n, dtype=np.int64)
    nn_gen = np.zeros(n, dtype=np.int64)
    gen = np.zeros(n, dtype=np.int64)

    block = 256
    sq = np.einsum("ij,ij->i", cents, cents)
    for start in range(0, n, block):
        end = min(start + block, n)
        dist = sq[start:end, None] + sq[None, :] - 2.0 * (cents[start:end] @ cents.T)
        dist[np.arange(end - start), np.arange(start, end)] = np.inf
        rows = np.arange(end - start)
        idx = np.argmin(dist, axis=1)
        nn_idx[start:end] = idx
        nn_dist[start:end] = dist[rows, idx]
    np.maximum(nn_dist, 0.0, out=nn_dist)

    def refresh(stale: np.ndarray) -> None:
        """Refresh the nearest neighbour of each stale row, in chunks.

        einsum sums each row of the difference block on its own, so a
        row's distances do not depend on the rows around it. A row's
        distance to itself is set to inf; to a dead row it is inf already.
        """
        step = max(1, _REFRESH_FLOATS // max(1, cents.size))
        for start in range(0, stale.size, step):
            chunk = stale[start : start + step]
            rows = np.arange(chunk.size)
            diffs = (cents[None, :, :] - cents[chunk][:, None, :]).reshape(-1, dim)
            dist = np.einsum("ij,ij->i", diffs, diffs).reshape(chunk.size, -1)
            dist[rows, chunk] = np.inf
            pos = np.argmin(dist, axis=1)
            nn_idx[chunk] = pos
            nn_dist[chunk] = dist[rows, pos]
            nn_gen[chunk] = gen[pos]

    remaining = n
    while remaining > k:
        # Select the closest pair; refresh any stale rows that surface.
        while True:
            d = nn_dist.min()
            ties = np.flatnonzero(nn_dist == d)
            targets = nn_idx[ties]
            stale = ties[nn_gen[ties] != gen[targets]]
            if stale.size:
                refresh(stale)
                continue
            # Lowest (min id, max id) pair among the tied rows.
            low = np.minimum(ties, targets)
            high = np.maximum(ties, targets)
            a = int(low.min())
            b = int(high[low == a].min())
            break

        slot_a, slot_b = int(slots[a]), int(slots[b])
        cfs[slot_a].add(cfs[slot_b])
        cents[a] = cfs[slot_a].centroid()
        # A dead row's centroid is inf, so its distance to any row is inf.
        cents[b] = np.inf
        gen[a] += 1
        gen[b] += 1  # rows that cached b are stale now
        alive[b] = False
        parent[slot_b] = slot_a
        nn_dist[b] = np.inf
        remaining -= 1
        if remaining == k:
            break

        diffs = cents - cents[a]
        dist = np.einsum("ij,ij->i", diffs, diffs)
        dist[a] = np.inf
        j = int(dist.argmin())
        nn_idx[a] = j
        nn_dist[a] = dist[j]
        nn_gen[a] = gen[j]
        # The merged centroid may now be someone's nearest neighbour.
        closer = dist < nn_dist
        np.copyto(nn_dist, dist, where=closer)
        np.copyto(nn_idx, a, where=closer)
        np.copyto(nn_gen, gen[a], where=closer)

        if 2 * remaining <= slots.size:
            keep = np.flatnonzero(alive)
            row_of = np.full(slots.size, -1, dtype=np.int64)
            row_of[keep] = np.arange(keep.size)
            nn_idx = row_of[nn_idx[keep]]
            nn_gen = nn_gen[keep]
            # A row whose cached neighbour is gone stays stale: no row has
            # generation -1.
            gone = nn_idx < 0
            nn_gen[gone] = -1
            nn_idx[gone] = 0
            slots, cents, nn_dist, gen = slots[keep], cents[keep], nn_dist[keep], gen[keep]
            alive = np.ones(keep.size, dtype=bool)

    def find_root(slot: int) -> int:
        while parent[slot] != slot:
            parent[slot] = parent[parent[slot]]
            slot = parent[slot]
        return slot

    live = slots[alive].tolist()
    member_lists: dict[int, list[str]] = {slot: [] for slot in live}
    for slot, cluster in enumerate(work):
        member_lists[find_root(slot)].extend(cluster.members)
    return [
        Cluster(cluster_id=work[slot].cluster_id, cf=cfs[slot], members=tuple(member_lists[slot]))
        for slot in live
    ]


# ===== Silhouette =====


def silhouette(
    points: list[tuple[float, ...]],
    labels: list,
    sample_cap: int,
    seed: int,
) -> float:
    """Mean silhouette over the (possibly sampled) labelled points.

    Uses Euclidean distances. Singleton points score with a = 0, and a point
    at zero distance from both its own and the nearest foreign cluster
    scores 0. When the point count exceeds ``sample_cap`` a seeded uniform
    sample is scored instead, so a cap of ``len(points)`` scores them all.
    """
    if len(points) != len(labels):
        raise ValueError("points and labels must align")
    if len(points) > sample_cap:
        rng = random.Random(seed)
        keep = sorted(rng.sample(range(len(points)), sample_cap))
        points = [points[i] for i in keep]
        labels = [labels[i] for i in keep]
    unique = sorted(set(labels))
    if len(unique) < 2:
        raise SingleCluster("silhouette needs at least two represented clusters")

    data = np.asarray(points, dtype=float)
    n = data.shape[0]
    sq = np.einsum("ij,ij->i", data, data)
    dist_sq = sq[:, None] + sq[None, :] - 2.0 * (data @ data.T)
    np.maximum(dist_sq, 0.0, out=dist_sq)
    dist = np.sqrt(dist_sq)
    np.fill_diagonal(dist, 0.0)

    label_index = {label: i for i, label in enumerate(unique)}
    member_of = np.array([label_index[label] for label in labels])
    counts = np.bincount(member_of, minlength=len(unique))
    # Row sums of distances into each cluster, shape (clusters, points).
    cluster_sums = np.zeros((len(unique), n))
    for c in range(len(unique)):
        cluster_sums[c] = dist[:, member_of == c].sum(axis=1)

    own_counts = counts[member_of]
    own_sums = cluster_sums[member_of, np.arange(n)]
    a = np.where(own_counts > 1, own_sums / np.maximum(own_counts - 1, 1), 0.0)

    means = cluster_sums / counts[:, None]
    means[member_of, np.arange(n)] = np.inf
    b = means.min(axis=0)

    denom = np.maximum(a, b)
    s = np.where(denom > 0, (b - a) / np.where(denom > 0, denom, 1.0), 0.0)
    return float(s.mean())


# ===== Threshold search =====


@dataclass(frozen=True)
class ThresholdCandidate:
    """One grid candidate: leaf count and score (None when infeasible)."""

    threshold: float
    leaf_count: int
    silhouette: float | None


@dataclass
class ThresholdSearchResult:
    best_threshold: float
    clusters: list[Cluster]
    score: float
    log: list[ThresholdCandidate] = field(default_factory=list)


def search_threshold(
    points: list[tuple[float, ...]],
    tags: list[str],
    *,
    grid: tuple[float, ...],
    k: int,
    branching: int,
    sample_cap: int,
    seed: int,
) -> ThresholdSearchResult:
    """Pick the grid threshold whose refined clustering scores best.

    Every candidate threshold gets a log entry. Candidates whose tree yields
    fewer than ``k`` leaf clusters are infeasible (no score). Score ties
    keep the smaller threshold. A threshold below the previous tree's
    ``min_refused`` would rebuild that very tree, so its candidate takes the
    previous leaf count and score without building, refining or scoring.
    """
    if not grid:
        raise ValueError("threshold grid must not be empty")
    best: ThresholdSearchResult | None = None
    log: list[ThresholdCandidate] = []
    tree: CFTree | None = None
    for threshold in sorted(grid):
        if tree is not None and threshold < tree.min_refused:
            # The same tree again: same leaf count and score, and a score
            # tie keeps the smaller threshold.
            log.append(replace(log[-1], threshold=threshold))
            continue
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
        raise NoFeasibleThreshold(
            f"no threshold in {sorted(grid)} produced {k} leaf clusters"
        )
    best.log = log
    return best


# ===== Summaries =====


@dataclass(frozen=True)
class ClusterSummary:
    """Reporting view of a cluster: size N and spread S.

    ``s`` sums the population standard deviations of every vector dimension
    over the raw (non-normalized) member vectors.
    """

    cluster_id: str
    difficulty: Difficulty
    n: int
    s: float
    centroid: tuple[float, ...]
    member_game_ids: tuple[str, ...]


def summarize(
    cluster: Cluster,
    raw_vectors: dict[str, tuple[float, ...]],
    difficulty: Difficulty,
    label: str,
) -> ClusterSummary:
    """Build the reporting summary for one refined cluster.

    The spread S is computed in a second pass over the raw member vectors,
    not from the (possibly normalized) clustering features.
    """
    data = np.asarray([raw_vectors[tag] for tag in cluster.members], dtype=float)
    spread = float(data.std(axis=0, ddof=0).sum())
    return ClusterSummary(
        cluster_id=label,
        difficulty=difficulty,
        n=cluster.cf.n,
        s=spread,
        centroid=cluster.cf.centroid(),
        member_game_ids=tuple(cluster.members),
    )
