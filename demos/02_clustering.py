"""
Correlation clustering by greedy merging
========================================

The clustering never needs to be told how many groups exist: a signed
affinity matrix already encodes that. Positive entries pull a pair into the
same cluster, negative entries push them apart, and a partition's score is
the sum of within-cluster affinities. Greedy bottom-up merging climbs that
score; on small scenes we can afford the exhaustive optimum and compare.
"""

import numpy as np

from crowdgroups import AffinityMatrix, Partition, greedy_cc


def partition_score(p, mat):
    """Sum of within-cluster affinities: half of each group's block of W."""
    index = {m: i for i, m in enumerate(mat.members)}
    total = 0.0
    for group in p.groups:
        rows = [index[m] for m in group]
        total += float(mat.matrix[np.ix_(rows, rows)].sum()) / 2.0
    return total


def set_partitions(items):
    """Every partition of `items`: the first item joins each block of every
    partition of the rest, or stands alone."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for k in range(len(sub)):
            yield sub[:k] + [[first] + sub[k]] + sub[k + 1:]
        yield [[first]] + sub


def exhaustive_best(mat):
    """The highest-scoring partition, by enumerating all of them."""
    candidates = (Partition(blocks) for blocks in set_partitions(list(mat.members)))
    return max(candidates, key=lambda p: partition_score(p, mat))


# ---------------------------------------------------------------------------
# a hand-built scene: pedestrians 1+2 attract, 4+5 attract a bit less,
# 3 repels everyone. zeros on the diagonal; the matrix is symmetric.

members = [1, 2, 3, 4, 5]
w = np.array([
    [0.0, 0.9, -0.6, -0.4, -0.5],
    [0.9, 0.0, -0.7, -0.3, -0.2],
    [-0.6, -0.7, 0.0, -0.8, -0.9],
    [-0.4, -0.3, -0.8, 0.0, 0.6],
    [-0.5, -0.2, -0.9, 0.6, 0.0],
])
matrix = AffinityMatrix(members, w)

partition, trace = greedy_cc(matrix)
print("greedy result :", partition.groups, "singletons", partition.singleton_members)
print("greedy score  :", round(partition_score(partition, matrix), 3))
for step in trace.steps:
    print(f"  merge {step.first} + {step.second}  (score gain {step.delta:+.2f})")

best = exhaustive_best(matrix)
print("exhaustive    :", best.groups, "score", round(partition_score(best, matrix), 3))
assert partition == best

# ---------------------------------------------------------------------------
# transitivity: a strongly coupled chain absorbs a mildly repelling pair.
# 1-2 and 2-3 attract at +1; 1-3 repels at -0.5. merging all three scores
# 1 + 1 - 0.5 = 1.5, more than any two-cluster arrangement, so the greedy
# pass fuses the chain even though 1 and 3 dislike each other.

chain = AffinityMatrix([1, 2, 3], [[0, 1.0, -0.5], [1.0, 0, 1.0], [-0.5, 1.0, 0]])
fused, _ = greedy_cc(chain)
print("chain fuses into:", fused.groups)

# ---------------------------------------------------------------------------
# the argmax only cares about affinity signs and ratios, not the scale:
# multiplying the matrix by any positive constant leaves the result alone.

for lam in (0.1, 1.0, 7.3):
    scaled, _ = greedy_cc(AffinityMatrix(members, lam * w))
    print(f"scale {lam:>3}: same partition -> {scaled == partition}")

# ---------------------------------------------------------------------------
# greedy is a heuristic: it never beats the exhaustive optimum, and on
# matrices with clean block structure it lands exactly on it.

rng = np.random.default_rng(7)
gaps = []
for _ in range(200):
    m = rng.normal(size=(6, 6))
    m = (m + m.T) / 2.0
    mat = AffinityMatrix(range(1, 7), m)
    got, _ = greedy_cc(mat)
    gaps.append(partition_score(exhaustive_best(mat), mat) - partition_score(got, mat))
gaps = np.array(gaps)
print(f"optimality gap over 200 random scenes: mean {gaps.mean():.4f}, max {gaps.max():.4f}")
print(f"greedy == exhaustive on {int((gaps < 1e-12).sum())} / 200")
