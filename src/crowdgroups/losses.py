"""Partition-comparison scores and losses.

Every score is a closed form of the contingency table between the predicted
and the truth partition (one row per predicted cluster, one column per truth
cluster, each entry the members the two share). The group-aware
spanning-forest score augments every pedestrian with a fake counterpart that
is linked to its owner only when the owner is a singleton, so wrongly grouped
or wrongly isolated singletons cost recall/precision. The plain variant skips
the augmentation; the pairwise variant counts disagreeing co-membership pairs.
Each side of a spanning forest finds the same number of the links it needs,
so recall and precision are found / needed and F1 is
2 found / (pred needed + truth needed): every score and loss is one division
of two ints, correctly rounded. `MergeLoss` keeps those two ints and, for
every candidate merge of a working partition at once, the change a merge
makes to them, so the training oracle divides by the same expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .partitioning import Partition


@dataclass(frozen=True)
class ForestScore:
    """Spanning-forest recall/precision and their F1."""

    recall: float
    precision: float
    f1: float


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


def _pairs(sizes):
    return sizes * (sizes - 1) // 2


def _ratio(part: int, whole: int) -> float:
    """part / whole, and 1.0 when nothing is needed (whole = 0, so part = 0)."""
    return part / whole if whole else 1.0


def _links(table: np.ndarray, augmented: bool) -> tuple[int, int, int]:
    """(found, pred needed, truth needed) of the spanning forests: each side
    needs size - 1 links per cluster and misses one for every extra cluster
    of the other side that a cluster of its own meets, so with m members and
    c non-empty cells both sides find m - c. With fake counterparts, every
    singleton also needs the link to its fake, which the other side finds
    only when the member is a singleton there too."""
    pred_sizes, truth_sizes = table.sum(axis=1), table.sum(axis=0)
    members = int(pred_sizes.sum())
    found = members - np.count_nonzero(table)
    pred_needed, truth_needed = members - len(pred_sizes), members - len(truth_sizes)
    if augmented:
        pred_single, truth_single = pred_sizes == 1, truth_sizes == 1
        found += int(table[pred_single][:, truth_single].sum())
        pred_needed += int(pred_single.sum())
        truth_needed += int(truth_single.sum())
    return found, pred_needed, truth_needed


def _pair_counts(table: np.ndarray) -> tuple[int, int, int]:
    """Co-member pairs of the prediction, of the truth and of both."""
    return tuple(int(_pairs(sizes).sum()) for sizes in (table.sum(axis=1), table.sum(axis=0), table))


def _forest_score(truth: Partition, pred: Partition, augmented: bool) -> ForestScore:
    found, pred_needed, truth_needed = _links(contingency(truth, pred), augmented)
    return ForestScore(_ratio(found, truth_needed), _ratio(found, pred_needed),
                       _ratio(2 * found, pred_needed + truth_needed))


def gmitre_score(truth: Partition, pred: Partition) -> ForestScore:
    """Group-aware spanning-forest score with fake singleton counterparts."""
    return _forest_score(truth, pred, augmented=True)


def gmitre_loss(truth: Partition, pred: Partition) -> float:
    return 1.0 - gmitre_score(truth, pred).f1


def mitre_score(truth: Partition, pred: Partition) -> ForestScore:
    """Spanning-forest score over the raw members; blind to singleton errors."""
    return _forest_score(truth, pred, augmented=False)


def mitre_loss(truth: Partition, pred: Partition) -> float:
    return 1.0 - mitre_score(truth, pred).f1


def pairwise_loss(truth: Partition, pred: Partition) -> float:
    """Fraction of unordered member pairs whose co-membership disagrees (0
    with no pairs)."""
    table = contingency(truth, pred)
    pred_pairs, truth_pairs, shared = _pair_counts(table)
    return (pred_pairs + truth_pairs - 2 * shared) / max(_pairs(int(table.sum())), 1)


def positive_pairwise_metric(truth: Partition, pred: Partition) -> ForestScore:
    """Precision/recall over intra-group pairs only; empty denominators count
    as vacuously perfect. F1 has the spanning scores' closed form."""
    pred_pairs, truth_pairs, shared = _pair_counts(contingency(truth, pred))
    return ForestScore(_ratio(shared, truth_pairs), _ratio(shared, pred_pairs),
                       _ratio(2 * shared, pred_pairs + truth_pairs))


class MergeLoss:
    """Loss against a fixed truth of a working partition and of every merge of
    two of its clusters.

    Rows are the merge engine's: each working cluster keeps the row of its
    smallest member, and merging rows i < j folds j into i. The loss is a
    ratio of two ints, as in the public functions: 2 found over the links
    both sides need (loss 1 - ratio), or disagreeing pairs over member pairs.
    The scorer keeps both ints and, as n x n int arrays, the change a merge of
    rows (i, j) makes to each, so candidates() adds the changes and divides.
    Spanning: found rises by the truth clusters both rows meet (`present @
    present.T`), less the rows that are singletons alone in the truth too
    (gmitre); the prediction needs one link more, less its singleton rows
    (gmitre). Pairwise: the disagreements change by the size product less
    twice the co-member pairs the rows share, which adds up over rows, so a
    merge adds row j to row i. A merge rewrites row and column i only; dead
    rows keep stale values. Build the all-singletons start once per truth
    and copy() it for each search that needs its own.
    """

    def __init__(self, kind: str, truth: Partition, members: Sequence):
        """Starts from all singletons; `members` must be increasing."""
        self.kind = kind
        counts = contingency(truth, Partition.singletons(members))
        if kind == "pairwise":
            # at all singletons every truth pair disagrees; a merge of two
            # members adds one pair, which agrees when they share a truth
            # cluster; the member pairs never change
            self._num = _pair_counts(counts)[1]
            self._den, self._den_step = max(_pairs(len(members)), 1), 0
            self._num_step = 1 - 2 * (counts @ counts.T)
        else:
            found, pred_needed, truth_needed = _links(counts, augmented=kind == "gmitre")
            self._num, self._den = 2 * found, pred_needed + truth_needed
            self._present = counts
            self._single = np.full(len(counts), int(kind == "gmitre"))
            self._both = self._single * counts[:, counts.sum(axis=0) == 1].sum(axis=1)
            self._num_step = 2 * (counts @ counts.T - self._both[:, None] - self._both)
            self._den_step = 1 - self._single[:, None] - self._single
        self.current = self._loss(_ratio(self._num, self._den))

    def _loss(self, ratio):
        return ratio if self.kind == "pairwise" else 1.0 - ratio

    def copy(self) -> "MergeLoss":
        twin = object.__new__(MergeLoss)
        twin.__dict__ = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in self.__dict__.items()}
        return twin

    def candidates(self) -> np.ndarray:
        """Entry (i, j): the loss once the clusters of rows i and j are merged."""
        return self._loss((self._num + self._num_step) / (self._den + self._den_step))

    def merge(self, i: int, j: int) -> None:
        """Fold the cluster of row j into row i (i < j)."""
        self._num += int(self._num_step[i, j])
        if self.kind == "pairwise":
            self._num_step[i] += self._num_step[j]
        else:
            self._den += int(self._den_step[i, j])
            self._present[i] |= self._present[j]
            self._single[i] = self._both[i] = 0
            self._num_step[i] = 2 * (self._present @ self._present[i] - self._both)
            self._den_step[i] = self._den_step[:, i] = 1 - self._single
        self._num_step[:, i] = self._num_step[i]
        self.current = self._loss(_ratio(self._num, self._den))
