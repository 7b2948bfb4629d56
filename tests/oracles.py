"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written on a different algorithmic route from
the library: component discovery by breadth-first search instead of union-find,
set-partition enumeration by block insertion instead of restricted growth
strings, warping cost by explicit path enumeration instead of dynamic
programming, pairwise scores by listing every member pair instead of a
contingency table, and the F distribution by direct quadrature of its density.
The greedy merge references are the scalar loops the vectorised merge engine
must reproduce exactly, tie-breaks and floating-point sums included.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy import integrate

from crowdgroups import (
    AffinityMatrix,
    MergeStep,
    MergeTrace,
    PairFeatures,
    Partition,
    TimeWindow,
    Trajectory,
    WindowedScene,
    affinity,
    joint_feature_map,
)


# ---------------------------------------------------------------------------
# Spanning-component scorer (reference for gmitre_score / mitre_score)


def _bfs_components(nodes: list, edges: list[tuple]) -> list[set]:
    adj: dict = {n: set() for n in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen: set = set()
    components = []
    for start in nodes:
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        comp = {start}
        while queue:
            cur = queue.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    comp.add(nxt)
                    queue.append(nxt)
        components.append(comp)
    return components


def _partition_edges(clusters: Iterable[Iterable], augmented: bool) -> tuple[list, list[tuple]]:
    nodes: list = []
    edges: list[tuple] = []
    for cluster in clusters:
        cluster = list(cluster)
        nodes.extend(cluster)
        edges.extend(zip(cluster, cluster[1:]))
        if augmented:
            for m in cluster:
                nodes.append(("fake", m))
            if len(cluster) == 1:
                edges.append((cluster[0], ("fake", cluster[0])))
    return nodes, edges


def _spanning_recall(q_clusters, r_clusters, augmented: bool) -> float:
    q_nodes, q_edges = _partition_edges(q_clusters, augmented)
    r_nodes, r_edges = _partition_edges(r_clusters, augmented)
    assert sorted(map(repr, q_nodes)) == sorted(map(repr, r_nodes))
    r_comp_of = {}
    for idx, comp in enumerate(_bfs_components(r_nodes, r_edges)):
        for n in comp:
            r_comp_of[n] = idx
    needed = 0
    missing = 0
    for comp in _bfs_components(q_nodes, q_edges):
        needed += len(comp) - 1
        missing += len({r_comp_of[n] for n in comp}) - 1
    if needed == 0:
        return 1.0
    return 1.0 - missing / needed


def spanning_score(truth_clusters, pred_clusters, augmented: bool = True):
    """(recall, precision, f1) by explicit BFS over spanning-forest graphs."""
    recall = _spanning_recall(truth_clusters, pred_clusters, augmented)
    precision = _spanning_recall(pred_clusters, truth_clusters, augmented)
    return recall, precision, _f1(precision, recall)


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# Pair enumeration (reference for pairwise_loss / positive_pairwise_metric)


def _co_member_pairs(clusters) -> set[frozenset]:
    return {frozenset(pair) for c in clusters for pair in itertools.combinations(c, 2)}


def pair_scores(truth_clusters, pred_clusters) -> tuple[float, float, float, float]:
    """(pairwise disagreement, positive-pair recall, precision, f1) by listing
    every member pair."""
    members = sorted(m for c in truth_clusters for m in c)
    true_pairs = _co_member_pairs(truth_clusters)
    pred_pairs = _co_member_pairs(pred_clusters)
    all_pairs = [frozenset(p) for p in itertools.combinations(members, 2)]
    disagree = sum((p in true_pairs) != (p in pred_pairs) for p in all_pairs)
    loss = disagree / len(all_pairs) if all_pairs else 0.0
    hits = len(true_pairs & pred_pairs)
    recall = hits / len(true_pairs) if true_pairs else 1.0
    precision = hits / len(pred_pairs) if pred_pairs else 1.0
    return loss, recall, precision, _f1(precision, recall)


# ---------------------------------------------------------------------------
# Scalar greedy merge loop (reference for the vectorised merge engine)


def _scalar_greedy(ids: Sequence[int], cross: np.ndarray, loss=None):
    """Greedy merging by scanning every active cluster pair per merge; ties go
    to the lexicographically smallest pair of cluster min-ids. `loss`, when
    given, maps a list of clusters to its loss, and each candidate merge's
    change in loss joins its gain. Returns the clusters, the merge steps and
    the end point's loss."""
    cross = cross.copy()
    clusters: dict[int, list[int]] = {i: [ids[i]] for i in range(len(ids))}
    low: dict[int, int] = {i: ids[i] for i in range(len(ids))}
    cur_loss = loss(list(clusters.values())) if loss else 0.0
    steps: list[MergeStep] = []
    while len(clusters) >= 2:
        active = sorted(clusters)
        best: tuple[int, int] | None = None
        best_gain, best_key, best_loss = 0.0, (0, 0), 0.0
        for x in range(len(active)):
            i = active[x]
            row = cross[i]
            for y in range(x + 1, len(active)):
                j = active[y]
                gain, cand_loss = row[j], 0.0
                if loss is not None:
                    rest = [clusters[k] for k in active if k not in (i, j)]
                    cand_loss = loss(rest + [clusters[i] + clusters[j]])
                    gain = (cand_loss - cur_loss) + row[j]
                if gain <= 0.0:
                    continue
                key = (low[i], low[j]) if low[i] < low[j] else (low[j], low[i])
                if best is None or gain > best_gain or (gain == best_gain and key < best_key):
                    best, best_gain, best_key, best_loss = (i, j), float(gain), key, cand_loss
        if best is None:
            break
        i, j = best
        first, second = sorted([tuple(sorted(clusters[i])), tuple(sorted(clusters[j]))])
        steps.append(MergeStep(len(steps) + 1, first, second, best_gain))
        cur_loss = best_loss
        clusters[i].extend(clusters.pop(j))
        low[i] = min(low[i], low[j])
        cross[i, :] += cross[j, :]
        cross[:, i] += cross[:, j]
        cross[i, i] = 0.0
    return list(clusters.values()), steps, cur_loss


def reference_greedy_cc(affinities: AffinityMatrix) -> tuple[Partition, MergeTrace]:
    clusters, steps, _ = _scalar_greedy(affinities.members, affinities.matrix)
    return Partition(clusters), MergeTrace(tuple(steps))


def reference_oracle(example, w, loss: str = "gmitre") -> tuple[Partition, float]:
    """Greedy loss-augmented oracle; every candidate's loss comes from the
    spanning-forest BFS or the pair enumeration above."""
    w = np.asarray(w, dtype=float).reshape(-1)
    scene, truth = example.scene, example.truth

    def loss_of(clusters) -> float:
        if loss == "pairwise":
            return pair_scores(truth.clusters, clusters)[0]
        return 1.0 - spanning_score(truth.clusters, clusters, augmented=loss == "gmitre")[2]

    clusters, _, end_loss = _scalar_greedy(scene.members, affinity(scene, w).matrix, loss_of)
    y_star = Partition(clusters)
    psi_gap = joint_feature_map(scene, y_star) - joint_feature_map(scene, truth)
    hinge = end_loss + float(w @ psi_gap)
    if hinge < 0.0:
        return truth, 0.0
    return y_star, hinge


# ---------------------------------------------------------------------------
# Set-partition enumeration by block insertion


def iter_set_partitions(items: Sequence) -> Iterator[list[list]]:
    """All partitions of `items`, built by inserting each element into every
    existing block or a new one."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in iter_set_partitions(rest):
        for k in range(len(sub)):
            yield sub[:k] + [[first] + sub[k]] + sub[k + 1 :]
        yield [[first]] + sub


def random_partition(members: Sequence[int], rng: np.random.Generator) -> Partition:
    labels = rng.integers(0, len(members), size=len(members))
    return Partition.from_labels(list(members), [int(x) for x in labels])


# ---------------------------------------------------------------------------
# DTW by monotone-path enumeration


def dtw_path_minimum(pa: np.ndarray, pb: np.ndarray) -> float:
    """Minimum cumulative squared-Euclidean cost over all monotone warping
    paths from (0,0) to (A-1,B-1), normalized by max(A, B)."""
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    a, b = len(pa), len(pb)

    def cell(i: int, j: int) -> float:
        d = pa[i] - pb[j]
        return float(d @ d)

    def best_from(i: int, j: int) -> float:
        here = cell(i, j)
        if i == a - 1 and j == b - 1:
            return here
        candidates = []
        if i + 1 < a:
            candidates.append(best_from(i + 1, j))
        if j + 1 < b:
            candidates.append(best_from(i, j + 1))
        if i + 1 < a and j + 1 < b:
            candidates.append(best_from(i + 1, j + 1))
        return here + min(candidates)

    return best_from(0, 0) / max(a, b)


# ---------------------------------------------------------------------------
# F distribution by quadrature


def f_density(x: float, d1: float, d2: float) -> float:
    if x <= 0.0:
        return 0.0
    log_num = 0.5 * (d1 * math.log(d1 * x) + d2 * math.log(d2)
                     - (d1 + d2) * math.log(d1 * x + d2))
    log_beta = math.lgamma(d1 / 2) + math.lgamma(d2 / 2) - math.lgamma((d1 + d2) / 2)
    return math.exp(log_num - log_beta) / x


def f_cdf_quadrature(s: float, d1: float, d2: float) -> float:
    if s <= 0.0:
        return 0.0
    value, _err = integrate.quad(f_density, 0.0, s, args=(d1, d2), limit=200)
    return value


# ---------------------------------------------------------------------------
# Scene construction helpers


def make_scene(members: Sequence[int], d_by_pair: dict[tuple[int, int], np.ndarray]) -> WindowedScene:
    """A WindowedScene from explicit per-pair distance vectors; trajectory
    content is a placeholder (features are supplied, not computed)."""
    members = sorted(members)
    times = np.arange(2.0)
    segments = {
        m: Trajectory(m, times, np.zeros((2, 2)) + float(m)) for m in members
    }
    window = TimeWindow(0, 0.0, 2.0, frozenset(members), segments, frozenset())
    pairs = []
    for a, b in itertools.combinations(members, 2):
        pairs.append(PairFeatures((a, b), np.asarray(d_by_pair[(a, b)], dtype=float)))
    return WindowedScene(window, tuple(pairs))


def random_scene(n: int, rng: np.random.Generator, first_id: int = 1) -> WindowedScene:
    members = list(range(first_id, first_id + n))
    d = {
        (a, b): rng.uniform(0.0, 1.0, size=4)
        for a, b in itertools.combinations(members, 2)
    }
    return make_scene(members, d)


def brute_force_best_partition(members: Sequence[int], value) -> tuple[float, Partition]:
    """Maximize `value(Partition)` by full enumeration; ties keep the first
    canonical form encountered in block-insertion order."""
    best: tuple[float, Partition] | None = None
    for blocks in iter_set_partitions(list(members)):
        p = Partition(blocks)
        v = value(p)
        if best is None or v > best[0]:
            best = (v, p)
    assert best is not None
    return best
