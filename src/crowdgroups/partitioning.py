"""Affinity matrices and correlation clustering.

The clustering objective is the sum of pairwise affinities inside clusters;
positive entries pull members together, negative entries push them apart, and
the number of clusters is never fixed in advance. Inference is greedy
bottom-up merging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import _frozen_array

if TYPE_CHECKING:  # pragma: no cover
    from .features import WindowedScene

_SYMMETRY_ATOL = 1e-9


@dataclass(frozen=True)
class Partition:
    """Disjoint non-empty clusters over a finite member set, in canonical form.

    Canonical form: members sorted within each cluster, clusters sorted by
    smallest member. Equality and hashing follow the canonical form.
    """

    clusters: tuple[tuple[int, ...], ...]
    members: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        canon: list[tuple[int, ...]] = []
        seen: set[int] = set()
        for cluster in self.clusters:
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

    @classmethod
    def singletons(cls, members: Iterable[int]) -> "Partition":
        return cls([m] for m in members)

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c for c in self.clusters if len(c) >= 2)

    @property
    def singleton_members(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.clusters if len(c) == 1)

    def labels(self) -> dict[int, int]:
        """Member -> cluster index (canonical order)."""
        return {m: k for k, cluster in enumerate(self.clusters) for m in cluster}

    def to_json_obj(self) -> dict:
        return {"groups": [list(c) for c in self.groups], "singletons": list(self.singleton_members)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Partition":
        clusters = [list(c) for c in obj.get("groups", [])]
        clusters.extend([m] for m in obj.get("singletons", []))
        return cls(clusters)

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.clusters)

    def __repr__(self) -> str:
        inner = ", ".join("{" + ", ".join(map(str, c)) + "}" for c in self.clusters)
        return f"Partition({inner})"


@dataclass(frozen=True, eq=False)
class AffinityMatrix:
    """Symmetric pairwise affinity W over a strictly increasing member list.

    The diagonal is unused and held at zero; the upper triangle is canonical
    (near-symmetric input is symmetrized from it). The matrix is a read-only copy.
    """

    members: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        members = tuple(int(m) for m in self.members)
        if any(a >= b for a, b in zip(members, members[1:])):
            raise ValueError("members must be strictly increasing")
        m = np.asarray(self.matrix, dtype=float)
        n = len(members)
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match {n} members")
        if n and not np.allclose(m, m.T, atol=_SYMMETRY_ATOL, rtol=0.0):
            raise ValueError("affinity matrix must be symmetric")
        upper = np.triu(m, k=1)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "matrix", _frozen_array(upper + upper.T))

    def __len__(self) -> int:
        return len(self.members)


class MergeStep(NamedTuple):
    iteration: int
    first: tuple[int, ...]
    second: tuple[int, ...]
    delta: float


@dataclass(frozen=True)
class MergeTrace:
    """Ordered record of greedy merges; every delta is strictly positive."""

    steps: tuple[MergeStep, ...] = ()


def _affinity_array(scene: "WindowedScene", w) -> np.ndarray:
    """The symmetric (n, n) array of pair affinities scene.affinity_terms @ w
    at the scene's pair rows, zero on the diagonal; the one check of w's
    length, which the pair table fixes: one weight per column of its terms."""
    w = np.asarray(w, dtype=float).reshape(-1)
    terms = scene.affinity_terms
    if w.shape != terms.shape[1:]:
        raise ValueError(f"weight vector must have {terms.shape[1]} components, got {w.shape}")
    n = len(scene.members)
    matrix = np.zeros((n, n))
    values = terms @ w
    ia, ib = scene.pair_rows
    matrix[ia, ib] = values
    matrix[ib, ia] = values
    return matrix


def affinity(scene: "WindowedScene", w) -> AffinityMatrix:
    """W^{ab} = alpha.(1 - d(a,b)) - beta.d(a,b) for every pair, with w = [alpha; beta]."""
    return AffinityMatrix(scene.members, _affinity_array(scene, w))


def _greedy_merge(cross, ids: Sequence[int], loss=None) -> tuple[list[tuple[int, ...]], tuple[MergeStep, ...]]:
    """Greedy bottom-up merging over a symmetric affinity matrix `cross` whose
    row k belongs to member ids[k] (ids strictly increasing), the one merge
    loop behind prediction and the training oracle.

    Each round merges the cluster pair with the largest strictly positive
    gain: their cross-affinity sum, plus, when `loss` is given, the change in
    loss the merge causes (`loss.gains()`, read each round; `loss.merge` is
    told every merge, by row). Each cluster keeps the row of its smallest
    index: merging rows i < j adds row and column j into i, then sets them to
    -inf, like the diagonal, to keep them out of the argmax. The matrix stays
    symmetric, so its first row-major maximum is the live pair with the
    smallest pair of min-ids. Each live cluster is a sorted tuple of member
    ids; returns them and the merges as steps over member ids.
    """
    cross = np.array(cross, dtype=float)
    n = len(cross)
    np.fill_diagonal(cross, -np.inf)
    clusters = {i: (ids[i],) for i in range(n)}
    steps: list[MergeStep] = []
    for _ in range(n - 1):
        gain = cross if loss is None else loss.gains() + cross
        i, j = divmod(int(gain.argmax()), n)
        best = float(gain[i, j])
        if not best > 0.0:
            break
        steps.append(MergeStep(len(steps) + 1, clusters[i], clusters[j], best))
        clusters[i] = tuple(sorted(clusters[i] + clusters.pop(j)))
        cross[i] += cross[j]
        cross[:, i] = cross[i]
        cross[j] = cross[:, j] = -np.inf
        if loss is not None:
            loss.merge(i, j)
    return list(clusters.values()), tuple(steps)


def greedy_cc(affinities: AffinityMatrix) -> tuple[Partition, MergeTrace]:
    """Bottom-up correlation clustering from singletons.

    Each iteration merges the cluster pair with the largest strictly positive
    cross-affinity sum; ties go to the lexicographically smallest pair of
    cluster min-ids. Stops when no merge would increase the score.
    """
    clusters, steps = _greedy_merge(affinities.matrix, affinities.members)
    return Partition(clusters), MergeTrace(steps)
