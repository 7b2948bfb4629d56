"""Partitions, affinity matrices, and correlation clustering solvers."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from crowdgroups import (
    AffinityMatrix,
    Partition,
    greedy_cc,
)

from oracles import (
    affinity_value,
    brute_force_best_partition,
    partition_score,
    random_partition,
    reference_greedy_cc,
    replay_merges,
)


def aff(members, entries):
    """Build an AffinityMatrix from {(a, b): w} pair entries."""
    members = sorted(members)
    idx = {m: i for i, m in enumerate(members)}
    mat = np.zeros((len(members), len(members)))
    for (a, b), v in entries.items():
        mat[idx[a], idx[b]] = v
        mat[idx[b], idx[a]] = v
    return AffinityMatrix(members, mat)


# ---------------------------------------------------------------------------
# Partition container


def test_partition_canonical_order():
    p = Partition([[3, 1], [2], [5, 4]])
    assert p.clusters == ((1, 3), (2,), (4, 5))
    assert p.members == frozenset({1, 2, 3, 4, 5})


def test_partition_equality_ignores_input_order():
    assert Partition([[2, 1], [3]]) == Partition([(3,), (1, 2)])
    assert hash(Partition([[1, 2]])) == hash(Partition([[2, 1]]))


def test_partition_rejects_duplicates_and_empty_clusters():
    with pytest.raises(ValueError):
        Partition([[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        Partition([[1], []])


def test_partition_groups_and_singletons():
    p = Partition([[1, 2], [3], [4, 5, 6]])
    assert p.groups == ((1, 2), (4, 5, 6))
    assert p.singleton_members == (3,)


def test_partition_labels_assign_cluster_ids():
    p = Partition([[1, 2], [4]])
    labels = p.labels()
    assert labels[1] == labels[2] != labels[4]


def test_partition_json_round_trip():
    p = Partition([[1, 5], [2], [3, 4]])
    assert Partition.from_json_obj(p.to_json_obj()) == p


def test_empty_partition():
    p = Partition([])
    assert p.clusters == ()
    assert p.members == frozenset()


# ---------------------------------------------------------------------------
# AffinityMatrix


def test_affinity_matrix_validation():
    with pytest.raises(ValueError):
        AffinityMatrix([2, 1], np.zeros((2, 2)))
    with pytest.raises(ValueError):
        AffinityMatrix([1, 2], np.zeros((3, 3)))
    with pytest.raises(ValueError):
        AffinityMatrix([1, 2], [[0.0, 1.0], [-1.0, 0.0]])


def test_affinity_matrix_symmetrizes_and_freezes():
    m = AffinityMatrix([1, 2], [[9.0, 2.0], [2.0, 9.0]])
    assert affinity_value(m, 1, 2) == 2.0
    assert affinity_value(m, 2, 1) == 2.0
    assert m.matrix[0, 0] == 0.0  # diagonal unused
    with pytest.raises(ValueError):
        m.matrix[0, 1] = 5.0
    with pytest.raises(AttributeError):
        m.members = (1, 2)


# ---------------------------------------------------------------------------
# partition_score


def test_partition_score_sums_intra_cluster_pairs():
    m = aff([1, 2, 3], {(1, 2): 2.0, (1, 3): -1.0, (2, 3): 0.5})
    assert partition_score(Partition([[1, 2], [3]]), m) == pytest.approx(2.0)
    assert partition_score(Partition([[1, 2, 3]]), m) == pytest.approx(1.5)
    assert partition_score(Partition([[1], [2], [3]]), m) == 0.0


def test_partition_score_member_mismatch():
    m = aff([1, 2], {(1, 2): 1.0})
    with pytest.raises(ValueError):
        partition_score(Partition([[1, 3]]), m)


# ---------------------------------------------------------------------------
# Greedy solver


def test_greedy_positive_pair_merges():
    m = aff([1, 2], {(1, 2): 0.7})
    p, trace = greedy_cc(m)
    assert p == Partition([[1, 2]])
    assert len(trace.steps) == 1
    assert trace.steps[0].delta == pytest.approx(0.7)


def test_greedy_all_negative_stays_singletons():
    m = aff([1, 2, 3], {(1, 2): -0.1, (1, 3): -2.0, (2, 3): -0.5})
    p, trace = greedy_cc(m)
    assert p == Partition([[1], [2], [3]])
    assert trace.steps == ()


def test_greedy_transitivity_bridge():
    # strong a-b and b-c ties pull in a weakly negative a-c pair
    m = aff([1, 2, 3], {(1, 2): 1.0, (2, 3): 1.0, (1, 3): -0.4})
    p, _ = greedy_cc(m)
    assert p == Partition([[1, 2, 3]])


def test_greedy_stops_when_merge_hurts():
    m = aff([1, 2, 3], {(1, 2): 1.0, (2, 3): 0.2, (1, 3): -0.9})
    p, _ = greedy_cc(m)
    assert p == Partition([[1, 2], [3]])


def test_greedy_tie_break_prefers_lowest_ids():
    # two identical-gain merges: (1,2) must win over (3,4)
    m = aff([1, 2, 3, 4], {(1, 2): 1.0, (3, 4): 1.0})
    _, trace = greedy_cc(m)
    assert trace.steps[0].first == (1,)
    assert trace.steps[0].second == (2,)


def test_greedy_trace_replays_to_result():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        members = list(range(1, n + 1))
        mat = rng.normal(size=(n, n))
        mat = (mat + mat.T) / 2
        m = AffinityMatrix(members, mat)
        p, trace = greedy_cc(m)
        states = replay_merges(trace, members)
        assert states[0] == Partition([[x] for x in members])
        assert states[-1] == p
        # deltas strictly positive and every replayed state is a valid partition
        assert all(s.delta > 0 for s in trace.steps)


def test_greedy_matches_scalar_reference_exactly():
    rng = np.random.default_rng(7)
    for trial in range(300):
        n = int(rng.integers(0, 12))
        members = sorted(int(m) for m in rng.choice(100, size=n, replace=False))
        if trial % 2:
            mat = rng.normal(size=(n, n))
        else:
            # small integers force equal-gain merges, so the tie-break decides
            mat = rng.integers(-2, 3, size=(n, n)).astype(float)
        m = AffinityMatrix(members, np.triu(mat, 1) + np.triu(mat, 1).T)
        assert greedy_cc(m) == reference_greedy_cc(m)
    rng = np.random.default_rng(8)
    for n, low in itertools.product(range(12, 41, 2), (-2, -3, -4)):
        members = sorted(int(m) for m in rng.choice(1000, size=n, replace=False))
        # up to 40 members, tie-heavy; the more repulsive, the more clusters remain
        mat = rng.integers(low, 3, size=(n, n)).astype(float)
        m = AffinityMatrix(members, np.triu(mat, 1) + np.triu(mat, 1).T)
        assert greedy_cc(m) == reference_greedy_cc(m)


def test_greedy_empty_and_single():
    p, trace = greedy_cc(AffinityMatrix([], np.zeros((0, 0))))
    assert p == Partition([])
    p, trace = greedy_cc(AffinityMatrix([5], np.zeros((1, 1))))
    assert p == Partition([[5]])
    assert trace.steps == ()


# ---------------------------------------------------------------------------
# Greedy against the brute-force optimum


def optimum(m: AffinityMatrix) -> tuple[float, Partition]:
    return brute_force_best_partition(m.members, lambda p: partition_score(p, m))


def test_greedy_never_beats_exhaustive():
    rng = np.random.default_rng(5)
    for _ in range(80):
        n = int(rng.integers(2, 8))
        members = list(range(1, n + 1))
        mat = rng.normal(size=(n, n))
        mat = (mat + mat.T) / 2
        m = AffinityMatrix(members, mat)
        greedy_p, _ = greedy_cc(m)
        assert partition_score(greedy_p, m) <= optimum(m)[0] + 1e-12


def test_scale_invariance_of_argmax():
    rng = np.random.default_rng(6)
    for lam in (0.1, 1.0, 7.3):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            members = list(range(1, n + 1))
            mat = rng.normal(size=(n, n))
            mat = (mat + mat.T) / 2
            base = AffinityMatrix(members, mat)
            scaled = AffinityMatrix(members, lam * mat)
            assert optimum(base)[1] == optimum(scaled)[1]
            assert greedy_cc(base)[0] == greedy_cc(scaled)[0]
