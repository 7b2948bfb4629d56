"""Affinity matrices and correlation clustering.

The clustering objective is the sum of pairwise affinities inside clusters;
positive entries pull members together, negative entries push them apart, and
the number of clusters is never fixed in advance. Inference is greedy
bottom-up merging; an exhaustive enumerator over restricted-growth strings
serves as an exact oracle on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .features import WindowedScene

EXHAUSTIVE_MEMBER_LIMIT = 12
_SYMMETRY_ATOL = 1e-9


class Partition:
    """Disjoint non-empty clusters over a finite member set, in canonical form.

    Canonical form: members sorted within each cluster, clusters sorted by
    smallest member. Equality and hashing follow the canonical form.
    """

    __slots__ = ("clusters", "members")

    def __init__(self, clusters: Iterable[Iterable[int]]):
        canon: list[tuple[int, ...]] = []
        seen: set[int] = set()
        for cluster in clusters:
            c = tuple(sorted(cluster))
            if not c:
                raise ValueError("clusters must be non-empty")
            for m in c:
                if m in seen:
                    raise ValueError(f"member {m!r} appears in more than one cluster")
                seen.add(m)
            canon.append(c)
        canon.sort(key=lambda c: c[0])
        object.__setattr__(self, "clusters", tuple(canon))
        object.__setattr__(self, "members", frozenset(seen))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @classmethod
    def singletons(cls, members: Iterable[int]) -> "Partition":
        return cls([m] for m in members)

    @classmethod
    def from_labels(cls, members: Sequence[int], labels: Sequence[int]) -> "Partition":
        """Cluster members sharing a label value."""
        if len(members) != len(labels):
            raise ValueError("members and labels must have equal length")
        by_label: dict[int, list[int]] = {}
        for m, lab in zip(members, labels):
            by_label.setdefault(lab, []).append(m)
        return cls(by_label.values())

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c for c in self.clusters if len(c) >= 2)

    @property
    def singleton_members(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.clusters if len(c) == 1)

    def labels(self) -> dict[int, int]:
        """Member -> cluster index (canonical order)."""
        out: dict[int, int] = {}
        for k, cluster in enumerate(self.clusters):
            for m in cluster:
                out[m] = k
        return out

    def to_json_obj(self, window_index: int | None = None) -> dict:
        obj: dict = {}
        if window_index is not None:
            obj["window"] = int(window_index)
        obj["groups"] = [list(c) for c in self.groups]
        obj["singletons"] = list(self.singleton_members)
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Partition":
        clusters = [list(c) for c in obj.get("groups", [])]
        clusters.extend([m] for m in obj.get("singletons", []))
        return cls(clusters)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.clusters == other.clusters

    def __hash__(self) -> int:
        return hash(self.clusters)

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.clusters)

    def __repr__(self) -> str:
        inner = ", ".join("{" + ", ".join(map(str, c)) + "}" for c in self.clusters)
        return f"Partition({inner})"


class AffinityMatrix:
    """Symmetric pairwise affinity W over a strictly increasing member list.

    The diagonal is unused and held at zero; the upper triangle is canonical
    (near-symmetric input is symmetrized from it).
    """

    __slots__ = ("members", "matrix", "_index")

    def __init__(self, members: Sequence[int], matrix) -> None:
        members = tuple(int(m) for m in members)
        if any(a >= b for a, b in zip(members, members[1:])):
            raise ValueError("members must be strictly increasing")
        m = np.array(matrix, dtype=float)
        n = len(members)
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match {n} members")
        if n and not np.allclose(m, m.T, atol=_SYMMETRY_ATOL, rtol=0.0):
            raise ValueError("affinity matrix must be symmetric")
        upper = np.triu(m, k=1)
        m = upper + upper.T
        m.setflags(write=False)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(members)})

    def __setattr__(self, name, value):
        raise AttributeError("AffinityMatrix is immutable")

    def __len__(self) -> int:
        return len(self.members)

    def index_of(self, pedestrian_id: int) -> int:
        return self._index[pedestrian_id]

    def value(self, a: int, b: int) -> float:
        return float(self.matrix[self._index[a], self._index[b]])


class MergeStep(NamedTuple):
    iteration: int
    first: tuple[int, ...]
    second: tuple[int, ...]
    delta: float


@dataclass(frozen=True)
class MergeTrace:
    """Ordered record of greedy merges; every delta is strictly positive."""

    steps: tuple[MergeStep, ...] = ()

    def replay(self, members: Iterable[int]) -> list[Partition]:
        """Reapply the merges from all singletons, returning the partition after
        each step (index 0 is the all-singletons start). Raises ValueError when a
        step references a cluster that does not exist at that point, so a
        successful replay certifies hierarchical coherence."""
        state: set[frozenset[int]] = {frozenset((m,)) for m in members}
        out = [Partition(state)]
        for step in self.steps:
            a, b = frozenset(step.first), frozenset(step.second)
            if a not in state or b not in state:
                raise ValueError(
                    f"merge step {step.iteration} references clusters absent from the state"
                )
            state.remove(a)
            state.remove(b)
            state.add(a | b)
            out.append(Partition(state))
        return out


def _affinity_array(scene: "WindowedScene", w: np.ndarray) -> np.ndarray:
    """The symmetric (n, n) array of pair affinities scene.affinity_terms @ w,
    scattered at the scene's pair rows; the diagonal is zero."""
    n = len(scene.members)
    matrix = np.zeros((n, n))
    values = scene.affinity_terms @ w
    ia, ib = scene.pair_rows
    matrix[ia, ib] = values
    matrix[ib, ia] = values
    return matrix


def affinity(scene: "WindowedScene", w) -> AffinityMatrix:
    """W^{ab} = alpha.(1 - d(a,b)) - beta.d(a,b) for every pair, with w = [alpha; beta]."""
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.shape != (8,):
        raise ValueError(f"weight vector must have 8 components, got {w.shape}")
    return AffinityMatrix(scene.members, _affinity_array(scene, w))


def _groups_score(matrix: np.ndarray, index_groups: Iterable[np.ndarray]) -> float:
    total = 0.0
    for g in index_groups:
        if len(g) >= 2:
            total += float(matrix[np.ix_(g, g)].sum()) / 2.0
    return total


def partition_score(p: Partition, affinities: AffinityMatrix) -> float:
    """Sum of W entries over unordered intra-cluster pairs."""
    if p.members != set(affinities.members):
        raise ValueError("partition and affinity matrix cover different members")
    groups = [
        np.fromiter((affinities.index_of(m) for m in c), dtype=int, count=len(c))
        for c in p.clusters
        if len(c) >= 2
    ]
    return _groups_score(affinities.matrix, groups)


def _greedy_merge(cross, loss=None) -> tuple[list[tuple[int, ...]], list[MergeStep]]:
    """Greedy bottom-up merging over member indices 0..n-1 of a symmetric
    affinity matrix `cross`, the one merge loop behind prediction and the
    training oracle.

    Each round merges the cluster pair with the largest strictly positive
    gain: their cross-affinity sum, plus, when `loss` is given, the change in
    loss the merge causes (`loss.candidates() - loss.current`; `loss.merge`
    is told every merge). Each cluster keeps the row of its smallest index:
    merging rows i < j adds row and column j into i, then sets them to -inf,
    like the diagonal, to keep them out of the argmax. The matrix stays
    symmetric, so its first row-major maximum is the live pair with the
    smallest pair of min-ids. Returns the clusters (sorted index tuples in row
    order) and the merges as index-tuple steps.
    """
    cross = np.array(cross, dtype=float)
    n = len(cross)
    np.fill_diagonal(cross, -np.inf)
    clusters: list = [(i,) for i in range(n)]
    steps: list[MergeStep] = []
    for _ in range(n - 1):
        gain = cross if loss is None else (loss.candidates() - loss.current) + cross
        i, j = divmod(int(np.argmax(gain)), n)
        best = float(gain[i, j])
        if not best > 0.0:
            break
        steps.append(MergeStep(len(steps) + 1, clusters[i], clusters[j], best))
        clusters[i] = tuple(sorted(clusters[i] + clusters[j]))
        clusters[j] = None
        cross[i] += cross[j]
        cross[:, i] = cross[i]
        cross[j] = cross[:, j] = -np.inf
        if loss is not None:
            loss.merge(i, j)
    return [c for c in clusters if c is not None], steps


def greedy_cc(affinities: AffinityMatrix) -> tuple[Partition, MergeTrace]:
    """Bottom-up correlation clustering from singletons.

    Each iteration merges the cluster pair with the largest strictly positive
    cross-affinity sum; ties go to the lexicographically smallest pair of
    cluster min-ids. Stops when no merge would increase the score.
    """
    ids = affinities.members
    clusters, steps = _greedy_merge(affinities.matrix)

    def named(cluster: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(ids[k] for k in cluster)

    trace = tuple(s._replace(first=named(s.first), second=named(s.second)) for s in steps)
    return Partition(map(named, clusters)), MergeTrace(trace)


def iter_partition_labels(n: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of range(n) as restricted-growth strings.

    A restricted-growth string assigns item i a label <= 1 + max of earlier
    labels, so each partition is produced exactly once.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        yield ()
        return

    labels = [0] * n

    def rec(i: int, max_label: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(labels)
            return
        for lab in range(max_label + 2):
            labels[i] = lab
            yield from rec(i + 1, max(max_label, lab))

    yield from rec(1, 0)


def exhaustive_cc(affinities: AffinityMatrix) -> Partition:
    """Exact correlation-clustering maximizer by full partition enumeration.

    Ties are broken toward the lexicographically smallest canonical form.
    Refuses instances with more than EXHAUSTIVE_MEMBER_LIMIT members.
    """
    ids = affinities.members
    n = len(ids)
    if n > EXHAUSTIVE_MEMBER_LIMIT:
        raise ValueError(
            f"exhaustive partition search is limited to {EXHAUSTIVE_MEMBER_LIMIT} members, got {n}"
        )
    if n == 0:
        return Partition([])
    matrix = affinities.matrix
    best_score = -np.inf
    best_form: tuple[tuple[int, ...], ...] | None = None
    for labels in iter_partition_labels(n):
        groups: dict[int, list[int]] = {}
        for pos, lab in enumerate(labels):
            groups.setdefault(lab, []).append(pos)
        score = _groups_score(
            matrix, [np.array(g) for g in groups.values() if len(g) >= 2]
        )
        if score > best_score:
            best_score = score
            best_form = tuple(tuple(ids[k] for k in g) for g in groups.values())
        elif score == best_score:
            form = tuple(tuple(ids[k] for k in g) for g in groups.values())
            if best_form is None or form < best_form:
                best_form = form
    assert best_form is not None
    return Partition(best_form)
