"""Partition-comparison scores and losses.

Every score is a closed form of the contingency table between the predicted
and the truth partition (one row per predicted cluster, one column per truth
cluster, each entry the members the two share). The group-aware
spanning-forest score augments every pedestrian with a fake counterpart that
is linked to its owner only when the owner is a singleton, so wrongly grouped
or wrongly isolated singletons cost recall/precision. The plain variant skips
the augmentation; the pairwise variant counts disagreeing co-membership pairs.
`MergeLoss` evaluates the same closed forms for every candidate merge of a
working partition at once, for the training oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .partitioning import Partition


@dataclass(frozen=True)
class ForestScore:
    """Spanning-forest recall/precision and their F1."""

    recall: float
    precision: float
    f1: float


class _Tally(NamedTuple):
    """Integer summaries of a contingency table. Any field may be an array,
    one entry per candidate partition."""

    members: int
    pred_clusters: int
    truth_clusters: int
    cells: int  # (pred, truth) cluster pairs sharing at least one member
    pred_singletons: int
    truth_singletons: int
    both_singletons: int  # members alone in both partitions
    pred_pairs: int  # co-member pairs in the prediction
    truth_pairs: int
    shared_pairs: int  # co-member pairs in both


def contingency(truth: Partition, pred: Partition) -> np.ndarray:
    """Members shared by each predicted cluster (row) and truth cluster (column)."""
    if truth.members != pred.members:
        raise ValueError("partitions cover different member sets")
    truth_label = truth.labels()
    table = np.zeros((len(pred), len(truth)), dtype=np.int64)
    for row, cluster in enumerate(pred.clusters):
        for m in cluster:
            table[row, truth_label[m]] += 1
    return table


def _pairs(sizes: np.ndarray):
    return sizes * (sizes - 1) // 2


def _tally(table: np.ndarray) -> _Tally:
    pred_sizes, truth_sizes = table.sum(axis=1), table.sum(axis=0)
    pred_single, truth_single = pred_sizes == 1, truth_sizes == 1
    return _Tally(
        members=int(pred_sizes.sum()),
        pred_clusters=table.shape[0],
        truth_clusters=table.shape[1],
        cells=int(np.count_nonzero(table)),
        pred_singletons=int(pred_single.sum()),
        truth_singletons=int(truth_single.sum()),
        both_singletons=int(table[pred_single][:, truth_single].sum()),
        pred_pairs=int(_pairs(pred_sizes).sum()),
        truth_pairs=int(_pairs(truth_sizes).sum()),
        shared_pairs=int(_pairs(table).sum()),
    )


def _ratio(num, den, empty: float):
    """num / den, or `empty` where den is 0."""
    return np.where(den > 0, num / np.maximum(den, 1), empty)


def _f1(precision, recall):
    total = precision + recall
    nonzero = total > 0.0
    return np.where(nonzero, 2.0 * precision * recall / np.where(nonzero, total, 1.0), 0.0)


def _spanning(t: _Tally, augmented: bool):
    """(precision, recall) of the spanning forests: each side needs
    size - 1 links per cluster, and misses one for every extra cluster of the
    other side that a cluster of its own meets. With fake counterparts, every
    singleton also needs the link to its fake, which the other side misses
    unless the member is a singleton there too."""
    pred_missing, pred_needed = t.cells - t.pred_clusters, t.members - t.pred_clusters
    truth_missing, truth_needed = t.cells - t.truth_clusters, t.members - t.truth_clusters
    if augmented:
        pred_missing = pred_missing + t.pred_singletons - t.both_singletons
        pred_needed = pred_needed + t.pred_singletons
        truth_missing = truth_missing + t.truth_singletons - t.both_singletons
        truth_needed = truth_needed + t.truth_singletons
    precision = 1.0 - _ratio(pred_missing, pred_needed, 0.0)
    recall = 1.0 - _ratio(truth_missing, truth_needed, 0.0)
    return precision, recall


def _pairwise(t: _Tally):
    """Fraction of member pairs whose co-membership disagrees."""
    disagree = t.pred_pairs + t.truth_pairs - 2 * t.shared_pairs
    return _ratio(disagree, _pairs(t.members), 0.0)


def _loss(kind: str, t: _Tally):
    if kind == "pairwise":
        return _pairwise(t)
    return 1.0 - _f1(*_spanning(t, augmented=kind == "gmitre"))


def _score(precision, recall) -> ForestScore:
    return ForestScore(float(recall), float(precision), float(_f1(precision, recall)))


def gmitre_score(truth: Partition, pred: Partition) -> ForestScore:
    """Group-aware spanning-forest score with fake singleton counterparts."""
    return _score(*_spanning(_tally(contingency(truth, pred)), augmented=True))


def gmitre_loss(truth: Partition, pred: Partition) -> float:
    return 1.0 - gmitre_score(truth, pred).f1


def mitre_score(truth: Partition, pred: Partition) -> ForestScore:
    """Spanning-forest score over the raw members; blind to singleton errors."""
    return _score(*_spanning(_tally(contingency(truth, pred)), augmented=False))


def mitre_loss(truth: Partition, pred: Partition) -> float:
    return 1.0 - mitre_score(truth, pred).f1


def pairwise_loss(truth: Partition, pred: Partition) -> float:
    """Fraction of unordered member pairs whose co-membership disagrees."""
    return float(_pairwise(_tally(contingency(truth, pred))))


def positive_pairwise_metric(truth: Partition, pred: Partition) -> ForestScore:
    """Precision/recall over intra-group pairs only; empty denominators count
    as vacuously perfect."""
    t = _tally(contingency(truth, pred))
    precision = _ratio(t.shared_pairs, t.pred_pairs, 1.0)
    return _score(precision, _ratio(t.shared_pairs, t.truth_pairs, 1.0))


class MergeLoss:
    """Loss against a fixed truth of a working partition and of every merge of
    two of its clusters.

    Rows are the merge engine's: each working cluster keeps the row of its
    smallest member, and merging rows i < j folds j into i. Per row it keeps
    the truth clusters met (`present`), the size and the members alone in the
    truth; per row pair, the truth clusters both meet (`present @ present.T`;
    only multi-member truth clusters can be shared by disjoint rows) and their
    co-member pairs (`counts @ counts.T`). These give every candidate's merged
    tally at once. A merge updates row and column i and takes the chosen
    candidate's tally and loss; dead rows keep stale, meaningless values.
    """

    def __init__(self, kind: str, truth: Partition, members: Sequence):
        """Starts from all singletons; `members` must be increasing."""
        self.kind = kind
        self._present = counts = contingency(truth, Partition.singletons(members))
        self._overlap, self._shared = counts @ counts.T, counts @ counts.T
        self._sizes = counts.sum(axis=1)
        self._lone = counts[:, counts.sum(axis=0) == 1].sum(axis=1)
        self._tally = _tally(counts)
        self.current = float(_loss(kind, self._tally))

    def candidates(self) -> np.ndarray:
        """Entry (i, j): the loss once the clusters of rows i and j are merged."""
        t, sizes = self._tally, self._sizes
        single = (sizes == 1).astype(np.int64)
        both = single * self._lone
        self._merged = t._replace(
            pred_clusters=t.pred_clusters - 1,
            cells=t.cells - self._overlap,
            pred_singletons=t.pred_singletons - single[:, None] - single[None, :],
            both_singletons=t.both_singletons - both[:, None] - both[None, :],
            pred_pairs=t.pred_pairs + np.outer(sizes, sizes),
            shared_pairs=t.shared_pairs + self._shared,
        )
        self._losses = _loss(self.kind, self._merged)
        return self._losses

    def merge(self, i: int, j: int) -> None:
        """Fold the cluster of row j into row i (i < j), a candidate of the
        last candidates() call."""
        self._tally = _Tally(*(int(f[i, j]) if isinstance(f, np.ndarray) else f for f in self._merged))
        self.current = float(self._losses[i, j])
        self._present[i] |= self._present[j]
        self._overlap[i] = self._overlap[:, i] = self._present @ self._present[i]
        self._shared[i] += self._shared[j]
        self._shared[:, i] = self._shared[i]
        self._sizes[i] += self._sizes[j]
        self._lone[i] += self._lone[j]
