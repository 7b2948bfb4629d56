"""
Tour of the four pairwise social features
=========================================

Builds a handful of synthetic trajectory pairs and walks through each
pairwise distance: physical proximity, shape similarity under warping,
directional causality, and shared-space usage. Every distance lands in
[0, 1], where 0 means "looks like a social pair".
"""

import numpy as np

from crowdgroups import (
    FeatureConfig,
    Trajectory,
    dtw_shape_distance,
    gmm_eval,
    granger_distance,
    heatmap_build,
    heatmap_distance,
    proxemic_distance,
)

rng = np.random.default_rng(0)
times = np.arange(40, dtype=float) / 2.5  # 16 seconds at 2.5 samples/s


def walker(ped_id, start, velocity, wobble=0.03):
    steps = np.outer(times, velocity) + rng.normal(scale=wobble, size=(len(times), 2))
    return Trajectory(ped_id, times, np.asarray(start) + steps)


# ---------------------------------------------------------------------------
# proxemics: a mixture of four zero-mean Gaussians over the displacement,
# one per interpersonal zone (intimate ... public). mass near zero separation
# is high, so the distance 1 - mixture/peak is low for people walking close.

print("mixture at contact distance:", round(gmm_eval(0.0), 5))
for sep in (0.4, 1.0, 3.0, 9.0):
    print(f"  mixture at {sep:>4} m: {gmm_eval(sep):.5f}")

side_by_side = walker(1, (0.0, 0.0), (1.2, 0.0))
shoulder = walker(2, (0.0, 0.6), (1.2, 0.0))
across_the_square = walker(3, (0.0, 12.0), (1.2, 0.0))

print("d_ph side-by-side :", round(proxemic_distance(side_by_side, shoulder), 4))
print("d_ph 12 m apart   :", round(proxemic_distance(side_by_side, across_the_square), 4))

# ---------------------------------------------------------------------------
# shape: dynamic time warping on the paths, squared-Euclidean ground cost,
# softened to raw / (raw + 1 m^2). warping forgives pace differences but
# not route differences, and the feature stays translation-sensitive on
# purpose: mates share the same corridor, not just the same curve shape.

same_route_slower = Trajectory(4, times, side_by_side.points[:: 2].repeat(2, axis=0))
print("d_sh same route, half pace:", round(dtw_shape_distance(side_by_side, same_route_slower), 4))
print("d_sh parallel 12 m away   :", round(dtw_shape_distance(side_by_side, across_the_square), 4))

# ---------------------------------------------------------------------------
# causality: does one walker's past help predict the other's future beyond
# the other's own past? fit vector autoregressions both ways and keep the
# more confident direction. a follower trailing a leader by a step or two
# lights this up; independent walkers sit near the 0.5 coin-flip area.

leader_path = np.cumsum(rng.normal(scale=0.3, size=(len(times) + 2, 2)), axis=0)
leader = Trajectory(5, times, leader_path[2:])
follower = Trajectory(6, times, leader_path[:-2] + rng.normal(scale=0.02, size=(len(times), 2)))
print("d_ca leader/follower :", round(granger_distance(leader, follower, FeatureConfig(granger_lag=2)), 4))

loner_a = Trajectory(7, times, np.cumsum(rng.normal(scale=0.3, size=(len(times), 2)), axis=0))
loner_b = Trajectory(8, times, np.cumsum(rng.normal(scale=0.3, size=(len(times), 2)), axis=0) + 4.0)
print("d_ca independent     :", round(granger_distance(loner_a, loner_b, FeatureConfig(granger_lag=2)), 4))

# ---------------------------------------------------------------------------
# visited areas: list the cells each walker visited (0.3 m cells anchored at
# the x and y minima of all the window's samples, as build_scene does),
# weight each by how briefly it was occupied, put a Gaussian of length
# heat_length on every cell centre and compare the two smoothed maps by
# cosine. no grid is ever built: the cosine needs only the distances between
# visited cells. mates cover the same ground; strangers leave trails far
# apart. a 1 m length makes the locality obvious on a toy scene this small
# (the default is 3 m).

sharp = FeatureConfig(heat_length=1.0)
trio = {t.pedestrian_id: t for t in (side_by_side, shoulder, across_the_square)}
origin = np.vstack([t.points for t in trio.values()]).min(axis=0)
h_a = heatmap_build(side_by_side, sharp, origin)
h_b = heatmap_build(shoulder, sharp, origin)
h_c = heatmap_build(across_the_square, sharp, origin)
print("d_he shared corridor :", round(heatmap_distance(h_a, h_b, sharp), 4))
print("d_he disjoint trails :", round(heatmap_distance(h_a, h_c, sharp), 4))
