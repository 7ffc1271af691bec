"""The CF-tree insert path and ``refine_to_k`` as they were before the
inlined rewrite, kept as oracles.

``segforge.clustering`` builds the same trees and the same refined
clusters, bit for bit, with fewer operations: the nearest-entry scan, the
merged radius and the split are inlined, ``build_tree`` leaves out columns
that hold one integer value throughout, and ``refine_to_k`` refreshes stale
rows in blocks and drops dead rows as it goes. ``tests/test_clustering.py``
checks the two against each other.
"""

from __future__ import annotations

import math

import numpy as np

from segforge.clustering import Cluster, DimensionMismatch, TooFewClusters
from segforge.config import load_config

DEFAULT_BRANCHING = load_config().cluster_branching


class ClusteringFeature:
    """Additive cluster summary: point count, linear sum, square sum."""

    __slots__ = ("n", "ls", "ss")

    def __init__(self, n: int, ls: list[float], ss: list[float]) -> None:
        self.n = n
        self.ls = ls
        self.ss = ss

    @classmethod
    def zero(cls, dim: int) -> "ClusteringFeature":
        return cls(0, [0.0] * dim, [0.0] * dim)

    @classmethod
    def from_point(cls, point: tuple[float, ...]) -> "ClusteringFeature":
        return cls(1, list(point), [x * x for x in point])

    def copy(self) -> "ClusteringFeature":
        return ClusteringFeature(self.n, list(self.ls), list(self.ss))

    def add(self, other: "ClusteringFeature") -> None:
        self.n += other.n
        ls, ss = self.ls, self.ss
        for d, (l, s) in enumerate(zip(other.ls, other.ss)):
            ls[d] += l
            ss[d] += s

    def add_point(self, point: tuple[float, ...]) -> None:
        self.n += 1
        ls, ss = self.ls, self.ss
        for d, x in enumerate(point):
            ls[d] += x
            ss[d] += x * x

    def centroid(self) -> tuple[float, ...]:
        n = self.n
        return tuple(l / n for l in self.ls)

    def radius_with_point(self, point: tuple[float, ...]) -> float:
        """RMS distance of member points from the centroid once the cluster
        has absorbed ``point``.

        Per-dimension variances are clamped at zero; accumulated float error
        can push them a hair negative for tight clusters.
        """
        n = self.n + 1
        total = 0.0
        for l, s, x in zip(self.ls, self.ss, point):
            l += x
            s += x * x
            mean = l / n
            total += max(s / n - mean * mean, 0.0)
        return math.sqrt(total)

    def distance_to_point(self, point: tuple[float, ...]) -> float:
        """Squared Euclidean distance from the centroid to ``point``."""
        n = self.n
        total = 0.0
        for l, x in zip(self.ls, point):
            diff = l / n - x
            total += diff * diff
        return total


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

    def __init__(self, threshold: float, branching: int = DEFAULT_BRANCHING) -> None:
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

        The point is absorbed into the nearest leaf entry when the merged
        radius stays within the threshold, otherwise it opens a new entry.
        Nodes that exceed the branching factor split around their farthest
        entry pair, and splits propagate upward.
        """
        if self.dim is None:
            self.dim = len(point)
        elif len(point) != self.dim:
            raise DimensionMismatch(f"expected {self.dim}-dim point, got {len(point)}")
        if self.root is None:
            self.root = _Node(is_leaf=True)
        split = self._insert(self.root, point, tag)
        if split is not None:
            new_root = _Node(is_leaf=False)
            new_root.entries.extend(split)
            self.root = new_root

    def _insert(
        self, node: _Node, point: tuple[float, ...], tag: str
    ) -> tuple[_Entry, _Entry] | None:
        if node.is_leaf:
            if node.entries:
                best = min(node.entries, key=lambda e: e.cf.distance_to_point(point))
                radius = best.cf.radius_with_point(point)
                if radius <= self.threshold:
                    best.cf.add_point(point)
                    best.members.append(tag)
                    return None
                self.min_refused = min(self.min_refused, radius)
            node.entries.append(_Entry(ClusteringFeature.from_point(point), members=[tag]))
        else:
            best = min(node.entries, key=lambda e: e.cf.distance_to_point(point))
            split = self._insert(best.child, point, tag)
            if split is None:
                best.cf.add_point(point)
                return None
            node.entries.remove(best)
            node.entries.extend(split)
        if len(node.entries) > self.branching:
            return self._split(node)
        return None

    def _split(self, node: _Node) -> tuple[_Entry, _Entry]:
        entries = node.entries
        seed_a, seed_b = _farthest_pair(entries)
        left = _Node(node.is_leaf)
        right = _Node(node.is_leaf)
        centroid_a = entries[seed_a].cf.centroid()
        centroid_b = entries[seed_b].cf.centroid()
        for index, entry in enumerate(entries):
            if index == seed_a:
                left.entries.append(entry)
            elif index == seed_b:
                right.entries.append(entry)
            else:
                centroid = entry.cf.centroid()
                if _sqdist(centroid, centroid_a) <= _sqdist(centroid, centroid_b):
                    left.entries.append(entry)
                else:
                    right.entries.append(entry)
        return (
            _Entry(_sum_cfs(left.entries, self.dim), child=left),
            _Entry(_sum_cfs(right.entries, self.dim), child=right),
        )

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


def _sqdist(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    total = 0.0
    for x, y in zip(a, b):
        diff = x - y
        total += diff * diff
    return total


def _farthest_pair(entries: list[_Entry]) -> tuple[int, int]:
    centroids = [entry.cf.centroid() for entry in entries]
    best = (-1.0, 0, 1)
    for i in range(len(centroids)):
        for j in range(i + 1, len(centroids)):
            d = _sqdist(centroids[i], centroids[j])
            if d > best[0]:
                best = (d, i, j)
    return best[1], best[2]


def _sum_cfs(entries: list[_Entry], dim: int) -> ClusteringFeature:
    total = ClusteringFeature.zero(dim)
    for entry in entries:
        total.add(entry.cf)
    return total


def build_tree(
    points: list[tuple[float, ...]],
    tags: list[str],
    threshold: float,
    branching: int = DEFAULT_BRANCHING,
) -> CFTree:
    """Insert tagged points in ascending tag order for reproducible trees."""
    if len(points) != len(tags):
        raise ValueError("points and tags must align")
    tree = CFTree(threshold=threshold, branching=branching)
    for index in sorted(range(len(tags)), key=lambda i: tags[i]):
        tree.insert(points[index], tags[index])
    return tree


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
    alive = np.ones(n, dtype=bool)
    parent = list(range(n))
    # Cached nearest neighbours; a generation counter per slot detects rows
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

    def recompute_row(i: int) -> tuple[np.ndarray, np.ndarray]:
        """Refresh row i's nearest neighbour; return the other live rows and their distances."""
        targets = np.flatnonzero(alive)
        targets = targets[targets != i]
        diffs = cents[targets] - cents[i]
        dist = np.einsum("ij,ij->i", diffs, diffs)
        pos = int(np.argmin(dist))
        nn_idx[i] = targets[pos]
        nn_dist[i] = dist[pos]
        nn_gen[i] = gen[targets[pos]]
        return targets, dist

    remaining = n
    while remaining > k:
        # Select the closest pair; refresh any stale rows that surface.
        while True:
            i = int(np.argmin(nn_dist))
            d = nn_dist[i]
            ties = np.flatnonzero(nn_dist == d)
            targets = nn_idx[ties]
            stale = ties[~alive[targets] | (nn_gen[ties] != gen[targets])]
            if stale.size:
                for t in stale:
                    recompute_row(int(t))
                continue
            # Lowest (min id, max id) pair among the tied rows.
            low = np.minimum(ties, targets)
            high = np.maximum(ties, targets)
            a = int(low.min())
            b = int(high[low == a].min())
            break

        cfs[a].add(cfs[b])
        cents[a] = cfs[a].centroid()
        gen[a] += 1
        alive[b] = False
        parent[b] = a
        nn_dist[b] = np.inf
        remaining -= 1
        if remaining == k:
            break

        targets, dist = recompute_row(a)
        # The merged centroid may now be someone's nearest neighbour.
        closer = dist < nn_dist[targets]
        hit = targets[closer]
        nn_dist[hit] = dist[closer]
        nn_idx[hit] = a
        nn_gen[hit] = gen[a]

    def find_root(slot: int) -> int:
        while parent[slot] != slot:
            parent[slot] = parent[parent[slot]]
            slot = parent[slot]
        return slot

    member_lists: dict[int, list[str]] = {
        slot: [] for slot in range(n) if alive[slot]
    }
    for slot, cluster in enumerate(work):
        member_lists[find_root(slot)].extend(cluster.members)
    return [
        Cluster(cluster_id=work[slot].cluster_id, cf=cfs[slot], members=tuple(member_lists[slot]))
        for slot in range(n)
        if alive[slot]
    ]
