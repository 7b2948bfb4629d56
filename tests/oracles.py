"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written on a different algorithmic route from
the library: component discovery by breadth-first search instead of union-find,
set-partition enumeration by block insertion instead of restricted growth
strings, warping cost by explicit path enumeration instead of dynamic
programming, pairwise scores and the joint feature map by listing every member
pair instead of a contingency table or a label comparison at the pair rows,
and the F distribution by direct quadrature of its density. Spanning and
pair scores are exact fractions of the counts, each rounded once to a float.
The scalar pair features are the one-pair-at-a-time bodies the batched
feature kernels replaced: intersect1d per pair, lstsq per regression, and a
double loop of math.exp over two members' visited cells per heat product.
The greedy merge references are the scalar loops the vectorised merge engine
must reproduce exactly, tie-breaks and floating-point sums included. The
reference Frank-Wolfe step asks the oracle on every step and runs the line
search in the units of Lacoste-Julien et al. (lambda = 1/C, planes scaled by
1/(lambda n)); the primal objective asks the oracle once per example.
The synthetic group member's replay of its leader is the per-sample loop
the one-cumsum replay replaced; the leader walk, start placement and dataset
row formatting are the per-step numpy-scalar loops the float-stepping walk,
vectorised gap test and list formatting replaced. Window slicing is the
per-window loop of two searchsorted calls and a checked copy per member that
one searchsorted per trajectory and segment views replaced.
The partition score, affinity lookup, merge-trace replay, partition from
labels and ground-truth group lookup live here rather than in the package,
since only the checks use them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy import integrate

from crowdgroups import (
    AffinityMatrix,
    ConfigError,
    FeatureConfig,
    MergeStep,
    MergeTrace,
    Partition,
    TimeWindow,
    Trajectory,
    WindowedScene,
    affinity,
    f_cdf,
    gmm_eval,
    joint_feature_map,
)
from crowdgroups import features, learning
from crowdgroups.features import (
    _DEGENERATE_RSS,
    _NO_GAIN_RTOL,
    DTW_TAU,
    GRANGER_FALLBACK,
    HALL_SIGMAS,
    NO_OVERLAP_DISTANCE,
)
from crowdgroups.trajectories import _SPAN_EPS


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


def _spanning_links(q_clusters, r_clusters, augmented: bool) -> tuple[int, int]:
    """(needed, missing): the links q's spanning forest needs, and those of
    them that join nodes in different components of r's forest."""
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
    return needed, missing


def _exact_ratio(part: int, whole: int) -> Fraction:
    """part / whole as a fraction, and 1 when nothing is needed."""
    return Fraction(part, whole) if whole else Fraction(1)


def _exact_f1(precision: Fraction, recall: Fraction) -> float:
    """2PR / (P + R) in exact arithmetic, rounded once (0 when P = R = 0)."""
    total = precision + recall
    return float(2 * precision * recall / total) if total else 0.0


def spanning_score(truth_clusters, pred_clusters, augmented: bool = True):
    """(recall, precision, f1) by explicit BFS over spanning-forest graphs,
    each computed exactly from the link counts and rounded once."""
    truth_needed, truth_missing = _spanning_links(truth_clusters, pred_clusters, augmented)
    pred_needed, pred_missing = _spanning_links(pred_clusters, truth_clusters, augmented)
    # both sides find the same number of the links they need
    assert truth_needed - truth_missing == pred_needed - pred_missing
    recall = _exact_ratio(truth_needed - truth_missing, truth_needed)
    precision = _exact_ratio(pred_needed - pred_missing, pred_needed)
    return float(recall), float(precision), _exact_f1(precision, recall)


# ---------------------------------------------------------------------------
# Pair enumeration (reference for pairwise_loss / positive_pairwise_metric and
# for joint_feature_map)


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
    recall = _exact_ratio(hits, len(true_pairs))
    precision = _exact_ratio(hits, len(pred_pairs))
    return loss, float(recall), float(precision), _exact_f1(precision, recall)


def pair_enumeration_psi(scene, p: Partition) -> np.ndarray:
    """Psi(scene, p): [1 - d; -d] of every member pair that p puts in one
    cluster, added one pair at a time in combinations order."""
    rows = {tuple(pair): d for pair, d in zip(scene.pairs.tolist(), scene.feature_matrix)}
    co_members = _co_member_pairs(p.clusters)
    total = np.zeros(8)
    for a, b in itertools.combinations(scene.members, 2):
        if frozenset((a, b)) in co_members:
            d = rows[(a, b)]
            total = total + np.concatenate([1.0 - d, -d])
    return total


def affinity_value(affinities: AffinityMatrix, a: int, b: int) -> float:
    """W entry of the pedestrian pair (a, b)."""
    index = affinities.members.index
    return float(affinities.matrix[index(a), index(b)])


def partition_score(p: Partition, affinities: AffinityMatrix) -> float:
    """Sum of W entries over unordered intra-cluster pairs (half of each
    group's W block)."""
    if p.members != set(affinities.members):
        raise ValueError("partition and affinity matrix cover different members")
    total = 0.0
    for c in p.groups:
        g = [affinities.members.index(m) for m in c]
        total += float(affinities.matrix[np.ix_(g, g)].sum()) / 2.0
    return total


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


def replay_merges(trace: MergeTrace, members: Iterable[int]) -> list[Partition]:
    """Reapply the merges from all singletons, returning the partition after
    each step (index 0 is the all-singletons start). Raises ValueError when a
    step references a cluster that does not exist at that point, so a
    successful replay certifies hierarchical coherence."""
    state: set[frozenset[int]] = {frozenset((m,)) for m in members}
    out = [Partition(state)]
    for step in trace.steps:
        a, b = frozenset(step.first), frozenset(step.second)
        if a not in state or b not in state:
            raise ValueError(f"merge step {step.iteration} references clusters absent from the state")
        state -= {a, b}
        state.add(a | b)
        out.append(Partition(state))
    return out


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
# Frank-Wolfe block update that asks the oracle every time, and the primal


def reference_bcfw_step(model, examples, i) -> float:
    """Block-coordinate Frank-Wolfe (Lacoste-Julien et al. 2013, Alg. 4) with
    lambda = 1/C, for the model's C and loss, over the model's n blocks:
    w_s = psi_i(y) / (lambda n) and l_s = loss(y) / n, where the model stores
    its loss offsets times C. The oracle's answer is scored again from its
    partition. Returns gamma."""
    lam, n = 1.0 / model.C, len(model.block_w)
    example = examples[i]
    y_star = learning.loss_augmented_oracle(example, model.w, loss=model.loss).partition
    w_s = (example.truth_psi - joint_feature_map(example.scene, y_star)) / (lam * n)
    l_s = learning.LOSSES[model.loss](example.truth, y_star) / n
    w_i, l_i = model.block_w[i].copy(), float(model.block_l[i]) * lam
    denom = lam * float((w_i - w_s) @ (w_i - w_s))
    gamma = 0.0
    if denom > 0.0:
        gamma = min(1.0, max(0.0, (lam * float((w_i - w_s) @ model.w) - l_i + l_s) / denom))
    model.block_w[i] = (1.0 - gamma) * w_i + gamma * w_s
    model.block_l[i] = ((1.0 - gamma) * l_i + gamma * l_s) / lam
    model.w = model.w + model.block_w[i] - w_i
    model.l += float(model.block_l[i]) - l_i / lam
    return gamma


def primal_objective(examples, model) -> float:
    """0.5 ||w||^2 + (C/n) sum of oracle hinge values."""
    examples = list(examples)
    hinge_sum = sum(learning.loss_augmented_oracle(ex, model.w, loss=model.loss).hinge
                    for ex in examples)
    return 0.5 * float(model.w @ model.w) + (model.C / len(examples)) * hinge_sum


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


def partition_from_labels(members: Sequence[int], labels: Sequence[int]) -> Partition:
    """Cluster members sharing a label value."""
    if len(members) != len(labels):
        raise ValueError("members and labels must have equal length")
    by_label: dict[int, list[int]] = {}
    for m, lab in zip(members, labels):
        by_label.setdefault(lab, []).append(m)
    return Partition(by_label.values())


def random_partition(members: Sequence[int], rng: np.random.Generator) -> Partition:
    labels = rng.integers(0, len(members), size=len(members))
    return partition_from_labels(list(members), [int(x) for x in labels])


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
# Scalar pair features (reference for the batched feature kernels)


def _common_indices(seg_a: Trajectory, seg_b: Trajectory):
    return np.intersect1d(seg_a.times, seg_b.times, return_indices=True)


def scalar_proxemic_distance(seg_a: Trajectory, seg_b: Trajectory) -> float:
    common, ia, ib = _common_indices(seg_a, seg_b)
    if common.size == 0:
        raise ValueError("segments share no common timestamps")
    deltas = seg_a.points[ia] - seg_b.points[ib]
    sig2 = np.square(np.asarray(HALL_SIGMAS, dtype=float))
    d2 = np.einsum("ij,ij->i", deltas, deltas)
    responses = np.mean(
        np.exp(-d2[:, None] / (2.0 * sig2)) / (2.0 * math.pi * sig2), axis=1
    )
    peak = gmm_eval((0.0, 0.0))
    value = 1.0 - float(responses.mean()) / peak
    return min(1.0, max(0.0, value))


def _dtw_raw(pa: np.ndarray, pb: np.ndarray) -> float:
    diff = pa[:, None, :] - pb[None, :, :]
    cost = np.einsum("ijk,ijk->ij", diff, diff)
    a, b = cost.shape
    acc = np.empty_like(cost)
    acc[0, :] = np.cumsum(cost[0, :])
    acc[:, 0] = np.cumsum(cost[:, 0])
    for i in range(1, a):
        row = acc[i]
        prev = acc[i - 1]
        for j in range(1, b):
            best = prev[j]
            if prev[j - 1] < best:
                best = prev[j - 1]
            if row[j - 1] < best:
                best = row[j - 1]
            row[j] = cost[i, j] + best
    return float(acc[-1, -1]) / max(a, b)


def scalar_dtw_shape_distance(seg_a: Trajectory, seg_b: Trajectory) -> float:
    raw = _dtw_raw(seg_a.points, seg_b.points)
    return raw / (raw + DTW_TAU * DTW_TAU)


def lstsq_rss(design: np.ndarray, target: np.ndarray) -> float:
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    return float(resid @ resid)


def scalar_granger_causality_area(target: Trajectory, source: Trajectory, lag: int = 2) -> float | None:
    """Per pair and coordinate, one np.linalg.lstsq fit of the restricted and
    one of the unrestricted design on the intersect1d common samples."""
    common, it, isrc = _common_indices(target, source)
    k = int(common.size)
    m = int(lag)
    dof = k - 2 * m - 1
    if dof < 1:
        return None
    y_pts = target.points[it]
    x_pts = source.points[isrc]
    rss_restricted = 0.0
    rss_unrestricted = 0.0
    ones = np.ones((k - m, 1))
    for c in (0, 1):
        y = y_pts[m:, c]
        own = np.column_stack([y_pts[m - j : k - j, c] for j in range(1, m + 1)])
        other = np.column_stack([x_pts[m - j : k - j, c] for j in range(1, m + 1)])
        rss_restricted += lstsq_rss(np.hstack([ones, own]), y)
        rss_unrestricted += lstsq_rss(np.hstack([ones, own, other]), y)
    if rss_restricted <= _DEGENERATE_RSS:
        return None
    if rss_unrestricted <= _DEGENERATE_RSS:
        return 1.0
    gain = rss_restricted - rss_unrestricted
    if gain <= _NO_GAIN_RTOL * rss_restricted:
        return f_cdf(0.0, m, dof)  # the source adds nothing beyond rounding
    return f_cdf((gain / m) / (rss_unrestricted / dof), m, dof)


def scalar_granger_distance_flagged(seg_a: Trajectory, seg_b: Trajectory, cfg: FeatureConfig | None = None) -> tuple[float, bool]:
    cfg = cfg or FeatureConfig()
    areas = (
        scalar_granger_causality_area(seg_b, seg_a, cfg.granger_lag),
        scalar_granger_causality_area(seg_a, seg_b, cfg.granger_lag),
    )
    defined = [a for a in areas if a is not None]
    if not defined:
        return GRANGER_FALLBACK, True
    value = 1.0 - max(defined)
    return min(1.0, max(0.0, value)), False


def scalar_heat_cells(seg: Trajectory, cfg: FeatureConfig) -> list[tuple[float, float, float]]:
    """(x, y, E) per visited cell in first-visit order: the cell centre in
    metres on cells of edge heat_cell_edge anchored at (0, 0), and
    E = exp(-k_r * the cell's summed dwell seconds)."""
    dwells: dict[tuple[int, int], float] = {}
    times = seg.times
    for i in range(len(times)):
        x, y = (float(v) for v in seg.points[i])
        cell = (math.floor(x / cfg.heat_cell_edge), math.floor(y / cfg.heat_cell_edge))
        dwell = float(times[i + 1] - times[i]) if i + 1 < len(times) else 0.0
        dwells[cell] = dwells.get(cell, 0.0) + dwell
    return [
        ((col + 0.5) * cfg.heat_cell_edge, (row + 0.5) * cfg.heat_cell_edge, math.exp(-cfg.heat_k_r * dwell))
        for (col, row), dwell in dwells.items()
    ]


def scalar_heat_product(cells_a, cells_b, length: float) -> float:
    """sum_i sum_j E_i E_j exp(-|c_i - c_j|^2 / (4 length^2)), one math.exp per term."""
    total = 0.0
    for xa, ya, ea in cells_a:
        for xb, yb, eb in cells_b:
            total += ea * eb * math.exp(-((xa - xb) ** 2 + (ya - yb) ** 2) / (4.0 * length * length))
    return total


def scalar_heat_distance(seg_a: Trajectory, seg_b: Trajectory, cfg: FeatureConfig) -> float:
    """1 - the cosine of the two Gaussian-smoothed maps on the world grid's
    cells, clipped to [0, 1]; 1.0 when a norm is 0."""
    a, b = (scalar_heat_cells(seg, cfg) for seg in (seg_a, seg_b))
    norm_a = math.sqrt(scalar_heat_product(a, a, cfg.heat_length))
    norm_b = math.sqrt(scalar_heat_product(b, b, cfg.heat_length))
    if norm_a == 0.0 or norm_b == 0.0:
        return 1.0
    return min(1.0, max(0.0, 1.0 - scalar_heat_product(a, b, cfg.heat_length) / (norm_a * norm_b)))


def _scalar_far(seg_a: Trajectory, seg_b: Trajectory) -> bool:
    """Shares a timestamp and is more than features.NEAR_RADIUS apart at each."""
    common, ia, ib = _common_indices(seg_a, seg_b)
    radius = features.NEAR_RADIUS
    for k in range(common.size):
        dx, dy = (float(v) for v in seg_a.points[ia[k]] - seg_b.points[ib[k]])
        if dx * dx + dy * dy <= radius * radius:
            return False
    return common.size > 0


def scalar_pair_table(window: TimeWindow, configs: FeatureConfig | None = None):
    """(feature matrix, granger_fallback, no_overlap, far) of the window, one
    pair at a time in triu order: far pairs are (1, 1, 1, 1) and the others as
    build_scene computed them before batching."""
    configs = configs or FeatureConfig()
    members = sorted(window.members)
    segments = window.segments
    rows, fallbacks, no_overlaps, fars = [], [], [], []
    for a, b in itertools.combinations(members, 2):
        seg_a, seg_b = segments[a], segments[b]
        no_overlap = _common_indices(seg_a, seg_b)[0].size == 0
        far = _scalar_far(seg_a, seg_b)
        fallback = False
        if far:
            rows.append((1.0, 1.0, 1.0, 1.0))
        else:
            if no_overlap:
                d_ph = d_ca = NO_OVERLAP_DISTANCE
            else:
                d_ph = scalar_proxemic_distance(seg_a, seg_b)
                d_ca, fallback = scalar_granger_distance_flagged(seg_a, seg_b, configs)
            d_sh = scalar_dtw_shape_distance(seg_a, seg_b)
            d_he = scalar_heat_distance(seg_a, seg_b, configs)
            rows.append((d_ph, d_sh, d_ca, d_he))
        fallbacks.append(fallback)
        no_overlaps.append(no_overlap)
        fars.append(far)
    return (
        np.array(rows).reshape(-1, 4), np.array(fallbacks, bool), np.array(no_overlaps, bool), np.array(fars, bool)
    )


# ---------------------------------------------------------------------------
# Synthetic scenes by per-sample loops (references for synth._replay,
# _leader_walk, _sample_starts and _rows)


def replay_loop(leader_path: np.ndarray, lag: int) -> np.ndarray:
    """Position k is position k - 1 plus the leader's displacement k - lag
    back, or plus zero while k <= lag."""
    displacements = np.diff(leader_path, axis=0)
    shifted = np.zeros_like(leader_path)
    shifted[0] = leader_path[0]
    for k in range(1, len(leader_path)):
        src = k - lag
        shifted[k] = shifted[k - 1] + (displacements[src - 1] if src >= 1 else 0.0)
    return shifted


def leader_walk_loop(rng, spec, start, n_steps, dt, bounces: set | None = None) -> np.ndarray:
    """One numpy step and one scalar heading draw per sample, each axis
    reflected off the 2 m margin in turn (reference for synth._leader_walk).
    Each reflection that fires adds its (axis, "low" or "high") to `bounces`."""
    bounces = set() if bounces is None else bounces
    heading = rng.uniform(0.0, 2.0 * math.pi)
    pos = start.astype(float).copy()
    out = np.empty((n_steps, 2))
    margin = 2.0
    step_std = spec.wander_std * math.sqrt(dt)
    for k in range(n_steps):
        out[k] = pos
        heading += rng.normal(0.0, step_std)
        step = spec.speed * dt * np.array([math.cos(heading), math.sin(heading)])
        nxt = pos + step
        for axis in range(2):
            if nxt[axis] < margin:
                nxt[axis] = margin + (margin - nxt[axis])
                heading = math.pi - heading if axis == 0 else -heading
                bounces.add((axis, "low"))
            hi = spec.extent - margin
            if nxt[axis] > hi:
                nxt[axis] = hi - (nxt[axis] - hi)
                heading = math.pi - heading if axis == 0 else -heading
                bounces.add((axis, "high"))
        pos = nxt
    return out


def sample_starts_loop(rng, spec, count, min_gap) -> np.ndarray:
    """One scalar hypot per (candidate, placed start) pair, the gap halving
    while the area is too crowded (reference for synth._sample_starts)."""
    margin = 2.0
    lo, hi = margin, spec.extent - margin
    if hi <= lo:
        raise ConfigError("extent too small for the walk margin")
    gap = min_gap
    while True:
        starts: list[np.ndarray] = []
        ok = True
        for _ in range(count):
            for _attempt in range(2_000):
                p = rng.uniform(lo, hi, size=2)
                if all(float(np.hypot(*(p - q))) >= gap for q in starts):
                    starts.append(p)
                    break
            else:
                ok = False
                break
        if ok:
            return np.asarray(starts)
        gap *= 0.5
        if gap < 0.25:
            raise ConfigError(f"could not place {count} starts in extent {spec.extent}")


def rows_loop(traj: Trajectory, fps: float) -> list[str]:
    """`frame ped x y` rows formatted from numpy scalars one sample at a time
    (reference for synth._rows)."""
    lines = []
    for t, (x, y) in zip(traj.times, traj.points):
        frame = int(round(float(t) * fps))
        lines.append(f"{frame} {traj.pedestrian_id} {x:.6f} {y:.6f}")
    return lines


def slice_windows_loop(trajectories, window_len: float, stride: float) -> list[TimeWindow]:
    """Two searchsorted calls and a new, checked Trajectory per (window,
    trajectory) pair (reference for trajectories.slice_windows)."""
    trajectories = list(trajectories)
    if not trajectories:
        return []
    t_min = min(tr.start_t for tr in trajectories)
    t_max = max(tr.end_t for tr in trajectories)
    gaps = np.concatenate([np.diff(tr.times) for tr in trajectories if len(tr) >= 2] or [np.array([0.0])])
    span_end = t_max + float(np.median(gaps))
    windows = []
    index = 0
    while t_min + index * stride + window_len <= span_end + _SPAN_EPS:
        start = t_min + index * stride
        end = start + window_len
        segments, dropped = {}, set()
        for tr in trajectories:
            i0 = int(np.searchsorted(tr.times, start, side="left"))
            i1 = int(np.searchsorted(tr.times, end, side="left"))
            if i1 - i0 >= 2:
                segments[tr.pedestrian_id] = Trajectory(tr.pedestrian_id, tr.times[i0:i1], tr.points[i0:i1])
            elif i1 - i0 == 1:
                dropped.add(tr.pedestrian_id)
        windows.append(TimeWindow(index, start, end, frozenset(segments), segments, frozenset(dropped)))
        index += 1
    return windows


# ---------------------------------------------------------------------------
# Scene statistics by a frame x member x member loop


def group_index(labels: Partition, pedestrian_id: int) -> int | None:
    """Index of the pedestrian's ground-truth group, None for a singleton."""
    for k, g in enumerate(labels.groups):
        if pedestrian_id in g:
            return k
    return None


def scalar_scene_stats(windows, labels: Partition) -> tuple:
    """(d_in, d_out, d_io) with a Python loop over frames and member pairs and
    a linear group lookup per pair."""
    intra: list[float] = []
    nearest: list[float] = []
    for window in windows:
        frames: dict[float, dict[int, np.ndarray]] = {}
        for ped, seg in window.segments.items():
            for t, p in zip(seg.times, seg.points):
                frames.setdefault(float(t), {})[ped] = p
        for present in frames.values():
            ids = sorted(present)
            for a in ids:
                ga = group_index(labels, a)
                best = None
                for b in ids:
                    if b == a:
                        continue
                    dist = float(np.hypot(*(present[a] - present[b])))
                    if ga is not None and ga == group_index(labels, b):
                        if a < b:
                            intra.append(dist)
                    elif best is None or dist < best:
                        best = dist
                if best is not None:
                    nearest.append(best)
    d_in = float(np.mean(intra)) if intra else None
    d_out = float(np.mean(nearest)) if nearest else None
    d_io = d_in / d_out if d_in is not None and d_out else None
    return d_in, d_out, d_io


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
    rows = [d_by_pair[pair] for pair in itertools.combinations(members, 2)]
    return WindowedScene(window, np.reshape(rows, (-1, 4)))


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


def random_ragged_window(rng: np.random.Generator, frame: float = 0.4, spread: float = 4.0) -> TimeWindow:
    """2-15 members with 2-25 samples each on a shared frame grid, staggered
    starts over 30 frames and dropped frames, so some pairs never co-occur and
    some share only a few samples. About one member in ten stands still and one
    in ten replays an earlier member's path one frame later. Paths start within
    `spread` meters of the origin on each axis."""
    segments: dict[int, Trajectory] = {}
    for m in range(1, int(rng.integers(2, 16)) + 1):
        k = int(rng.integers(2, 26))
        start = int(rng.integers(0, 30))
        frames = np.sort(rng.choice(np.arange(start, start + k + int(rng.integers(0, 6))), k, replace=False))
        points = np.cumsum(rng.normal(scale=0.4, size=(k, 2)), axis=0) + rng.uniform(-spread, spread, size=2)
        kind = rng.random()
        if kind < 0.1:
            points = np.tile(rng.uniform(-spread, spread, size=2), (k, 1))
        elif kind < 0.2 and segments:
            leader = segments[int(rng.integers(1, m))]
            frames = np.round(leader.times / frame).astype(int) + 1
            points = leader.points.copy()
        segments[m] = Trajectory(m, frames * frame, points)
    return TimeWindow(0, 0.0, 60 * frame, frozenset(segments), segments)

