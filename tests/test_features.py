"""Pairwise social features: proxemics, shape, causality, visited areas."""

from __future__ import annotations

import copy
import gc
import hashlib
import io
import logging
import math
import os
import pickle
import subprocess
import sys
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import crowdgroups
from crowdgroups import (
    ConfigError,
    FeatureConfig,
    Model,
    RunConfig,
    SynthSpec,
    Trajectory,
    TimeWindow,
    WindowedScene,
    build_scene,
    build_scenes,
    dtw_shape_distance,
    f_cdf,
    gmm_eval,
    granger_causality_area,
    granger_distance,
    heatmap_build,
    heatmap_distance,
    proxemic_distance,
    slice_windows,
    synth_generate,
    write_features_csv,
)
import crowdgroups.features as features_module
from crowdgroups.features import HALL_SIGMAS, NEAR_RADIUS
from crowdgroups.harness import _model_settings
from crowdgroups.trajectories import align_segments

import oracles
from oracles import dtw_path_minimum, f_cdf_quadrature

logging.getLogger("crowdgroups").setLevel(logging.INFO)


def traj(ped, points, t0=0.0, dt=1.0):
    points = np.asarray(points, dtype=float)
    times = t0 + dt * np.arange(len(points))
    return Trajectory(ped, times, points)


def window_of(*trajs, start=None, end=None):
    segs = {t.pedestrian_id: t for t in trajs}
    start = min(t.start_t for t in trajs) if start is None else start
    end = max(t.end_t for t in trajs) + 1.0 if end is None else end
    return TimeWindow(
        index=0,
        start_t=start,
        end_t=end,
        members=frozenset(segs),
        segments=segs,
    )


# ---------------------------------------------------------------------------
# Configuration validation


def test_far_gate_is_the_widest_hall_zone():
    # a far pair skips d_ph, so the gate must be where the widest zone ends
    assert NEAR_RADIUS == max(HALL_SIGMAS)


def test_granger_config_validation():
    assert FeatureConfig().granger_lag == 2
    assert FeatureConfig(granger_lag=np.int64(3)).granger_lag == 3
    # a whole float is not an int, in code as in config files
    for lag in (0, 3.0):
        with pytest.raises(ConfigError, match="granger"):
            FeatureConfig(granger_lag=lag)


def test_heatmap_config_validation():
    assert FeatureConfig().heat_length == 3.0
    for key, value in (("heat_cell_edge", 0.0), ("heat_length", 0.0), ("heat_length", -1.0), ("heat_k_r", -1.0)):
        with pytest.raises(ConfigError, match=key):
            FeatureConfig(**{key: value})


def test_feature_configs_round_trip(tmp_path):
    # a RunConfig is a FeatureConfig; a model's config gives its feature settings back
    values = dict(granger_lag=3, heat_cell_edge=0.5, heat_length=1.5, heat_k_r=0.0)
    config = RunConfig(**values)
    assert isinstance(config, FeatureConfig)
    path = tmp_path / "model.json"
    Model(config=config.to_flat_dict()).save(path)
    assert _model_settings(Model.load(path).config)[2] == config


# ---------------------------------------------------------------------------
# WindowedScene pair table


def test_pair_features_validation():
    win = window_of(traj(1, [[0, 0], [1, 0]]), traj(2, [[0, 1], [1, 1]]))
    WindowedScene(win, np.zeros((1, 4)), [True], [False])
    assert WindowedScene(win, np.ones((1, 4)), [False], [False], [True]).far_count == 1
    with pytest.raises(ValueError):
        WindowedScene(win, np.zeros((1, 3)))
    with pytest.raises(ValueError):
        WindowedScene(win, np.zeros(4))
    with pytest.raises(ValueError):
        WindowedScene(win, np.array([[0.0, 0.5, 1.5, 0.0]]))
    with pytest.raises(ValueError):
        WindowedScene(win, np.array([[0.0, -0.5, 0.5, 0.0]]))
    with pytest.raises(ValueError):
        WindowedScene(win, np.array([[0.0, 0.5, np.nan, 0.0]]))
    with pytest.raises(ValueError):
        WindowedScene(win, np.zeros((1, 4)), granger_fallback=[False, True])
    with pytest.raises(ValueError):
        WindowedScene(win, np.zeros((1, 4)), no_overlap=[])
    with pytest.raises(ValueError):
        WindowedScene(win, np.zeros((1, 4)), far=[True, False])


def test_pair_features_vectors():
    d = np.array([0.1, 0.2, 0.3, 0.4])
    win = window_of(traj(1, [[0, 0], [1, 0]]), traj(2, [[0, 1], [1, 1]]))
    scene = WindowedScene(win, d[None, :])
    assert scene.pairs.tolist() == [[1, 2]]
    assert np.allclose(scene.affinity_terms, [[0.9, 0.8, 0.7, 0.6, -0.1, -0.2, -0.3, -0.4]])
    w = np.arange(8.0)
    alpha, beta = w[:4], w[4:]
    assert w @ scene.affinity_terms[0] == pytest.approx(alpha @ (1 - d) - beta @ d)
    assert scene.granger_fallback.tolist() == [False]
    assert scene.no_overlap.tolist() == [False]
    assert scene.far.tolist() == [False] and scene.far_count == 0
    for array in (scene.feature_matrix, scene.granger_fallback, scene.no_overlap, scene.far):
        assert not array.flags.writeable


def test_windowed_scene_pair_count_checked():
    a = traj(1, [[0, 0], [1, 0]])
    b = traj(2, [[0, 1], [1, 1]])
    win = window_of(a, b)
    with pytest.raises(ValueError):
        WindowedScene(window=win, feature_matrix=np.zeros((0, 4)))
    with pytest.raises(ValueError):
        WindowedScene(window=win, feature_matrix=np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# Proxemics


def test_gmm_peak_closed_form():
    want = np.mean([1.0 / (2 * math.pi * s * s) for s in HALL_SIGMAS])
    assert gmm_eval(0.0) == pytest.approx(want, abs=1e-15)
    assert gmm_eval((0.0, 0.0)) == pytest.approx(want, abs=1e-15)


def test_gmm_monotone_decreasing():
    vals = [gmm_eval(r) for r in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert gmm_eval((3.0, 4.0)) == pytest.approx(gmm_eval(5.0))


def test_proxemic_distance_extremes():
    a = traj(1, [[0, 0], [0, 0]])
    assert proxemic_distance(a, traj(2, [[0, 0], [0, 0]])) == pytest.approx(0.0)
    far = proxemic_distance(a, traj(2, [[80, 0], [80, 0]]))
    assert far == pytest.approx(1.0, abs=1e-6)


def test_proxemic_distance_monotone_in_separation():
    a = traj(1, [[0, 0], [0, 0]])
    ds = [
        proxemic_distance(a, traj(2, [[r, 0], [r, 0]]))
        for r in (0.2, 0.6, 1.5, 4.0, 10.0)
    ]
    assert all(x < y for x, y in zip(ds, ds[1:]))


def test_proxemic_distance_uses_common_timestamps_only():
    a = traj(1, [[0, 0], [0, 0], [9, 9]], t0=0.0)
    b = traj(2, [[0, 0], [0, 0]], t0=0.0)
    # the t=2 sample of `a` has no counterpart and must not contribute
    assert proxemic_distance(a, b) == pytest.approx(0.0)


def test_proxemic_distance_no_common_times():
    a = traj(1, [[0, 0], [1, 0]], t0=0.0)
    b = traj(2, [[0, 0], [1, 0]], t0=10.0)
    with pytest.raises(ValueError):
        proxemic_distance(a, b)


# ---------------------------------------------------------------------------
# Shape (dynamic time warping)


def test_dtw_identical_is_zero():
    a = traj(1, [[0, 0], [1, 1], [2, 0]])
    b = traj(2, [[0, 0], [1, 1], [2, 0]])
    assert dtw_shape_distance(a, b) == 0.0


def test_dtw_single_point_hand_value():
    a = traj(1, [[0.0, 0.0]])
    b = traj(2, [[3.0, 4.0]])
    # one aligned pair, squared distance 25
    assert dtw_shape_distance(a, b) == pytest.approx(25.0 / 26.0)
    # a raw cost of DTW_TAU^2 = 1 square meter is halfway
    assert dtw_shape_distance(a, traj(2, [[1.0, 0.0]])) == 0.5


def test_dtw_cost_across_the_sample_bound_stays_finite():
    # opposite corners of the bounded plane: a cost of 8e200 m^2 is finite, and
    # d_sh rounds to its limit 1 without a guard (warnings are errors here)
    a = traj(1, [[-1e100, -1e100], [1e100, 1e100]])
    b = traj(2, [[1e100, 1e100], [-1e100, -1e100]])
    assert dtw_shape_distance(a, b) == 1.0


def test_dtw_matches_path_enumeration():
    rng = np.random.default_rng(12)
    for _ in range(120):
        na, nb = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        pa = rng.normal(size=(na, 2))
        pb = rng.normal(size=(nb, 2))
        a = traj(1, pa)
        b = traj(2, pb)
        raw_want = dtw_path_minimum(pa, pb)
        got = dtw_shape_distance(a, b)
        assert got == pytest.approx(raw_want / (raw_want + 1.0), abs=1e-9)


def test_dtw_translation_sensitivity():
    # warping distance is on raw positions: a parallel offset costs
    a = traj(1, [[0, 0], [1, 0], [2, 0]])
    b = traj(2, [[0, 3], [1, 3], [2, 3]])
    assert dtw_shape_distance(a, b) > 0.8


# ---------------------------------------------------------------------------
# F distribution


def test_f_cdf_median_of_f11():
    # F(1,1) is the ratio of two chi-square(1): its median is exactly 1
    assert f_cdf(1.0, 1, 1) == pytest.approx(0.5, abs=1e-10)


def test_f_cdf_edge_cases():
    assert f_cdf(0.0, 2, 3) == 0.0
    assert f_cdf(-1.0, 2, 3) == 0.0
    assert f_cdf(math.inf, 2, 3) == 1.0
    with pytest.raises(ValueError):
        f_cdf(float("nan"), 2, 3)
    # the degrees of freedom follow the rule of every int setting: 2.0 is refused
    for bad in (0, -1, math.nan, math.inf, -math.inf, 2.5, 2.0, np.float64(3.0), True, False, np.True_):
        with pytest.raises(ValueError, match="degrees of freedom"):
            f_cdf(1.0, bad, 3)
        with pytest.raises(ValueError, match="degrees of freedom"):
            f_cdf(1.0, 3, bad)
    assert f_cdf(1.0, np.int32(2), np.int64(5)) == f_cdf(1.0, 2, 5)


def test_f_cdf_monotone():
    grid = [0.1, 0.5, 1.0, 2.0, 5.0, 20.0]
    vals = [f_cdf(s, 2, 7) for s in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < 1.0 for v in vals)


def test_f_cdf_matches_quadrature():
    # every causality lag 1-4 with dof 1-200, and a wider first dof
    grid = [(s, d1, d2) for d1 in (1, 2, 3, 4) for d2 in range(1, 201) for s in (0.3, 1.0, 3.5)]
    grid += [(s, 5, 2) for s in (0.2, 0.7, 1.0, 1.9, 4.0)]
    worst = max(abs(f_cdf(s, d1, d2) - f_cdf_quadrature(s, d1, d2)) for s, d1, d2 in grid)
    assert worst <= 1e-8


def test_odd_lag_f_cdf_matches_quadrature_at_large_dof():
    # odd m sums dof // 2 powers of 1 - x by Horner's rule, up to 1,000 terms here
    grid = [(s, m, dof) for m in (1, 3, 5) for dof in (1, 2, 3, 4, 51, 52, 499, 500, 1999, 2000)
            for s in (0.05, 0.3, 1.0, 3.5)]
    worst = max(abs(f_cdf(s, m, dof) - f_cdf_quadrature(s, m, dof)) for s, m, dof in grid)
    assert worst <= 1e-9


def test_closed_form_beta_matches_scipy_betainc():
    from scipy.special import betainc

    rng = np.random.default_rng(17)
    worst = 0.0
    for m in (1, 2, 3, 4):
        for dof in range(1, 201):
            x = rng.random(2000)
            worst = max(worst, np.abs(features_module._beta_halves(x, m, dof) - betainc(m / 2, dof / 2, x)).max())
    assert worst <= 1e-13


def test_closed_form_beta_edges_are_exact_and_raise_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (1, 2, 3, 4):
            for dof in (1, 2, 3, 8, 9):
                got = features_module._beta_halves(np.array([0.0, 1.0, np.nan]), m, dof)
                assert got[:2].tolist() == [0.0, 1.0] and np.isnan(got[2])
                assert f_cdf(0.0, m, dof) == 0.0 and f_cdf(math.inf, m, dof) == 1.0
    # arcsin(sqrt(x)) loses half the digits near x = 1, where I_x(1/2, 1/2) = 1 - (2/pi) arcsin(sqrt(1 - x))
    x = 1.0 - 1e-12
    y = 1.0 - x  # exact
    got = features_module._beta_halves(np.array(x), 1, 1)
    assert got == pytest.approx(1.0 - 2.0 / math.pi * math.asin(math.sqrt(y)), abs=1e-15)


def test_granger_causality_area_rejects_bad_lags():
    a, b = traj(1, _walk(60)), traj(2, _walk(61))
    for lag in (0, 2.5, 2.0, True, math.nan, math.inf, "2"):
        with pytest.raises(ValueError, match="lag"):
            granger_causality_area(a, b, lag)
    assert granger_causality_area(a, b, np.int64(2)) == granger_causality_area(a, b, 2)


def test_granger_rows_overridden_after_the_f_cdf_raise_no_warnings():
    # rss_u = 0 (no more fitted samples than design columns) makes the statistic
    # inf and x NaN before the area is pinned to 1; a constant target makes
    # rss_r = 0 and the area None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lag in (1, 2, 3):
            k = 2 * lag + 2
            assert granger_causality_area(traj(1, _walk(60)[:k]), traj(2, _walk(61)[:k]), lag) == 1.0
            assert granger_causality_area(traj(1, np.zeros((24, 2))), traj(2, _walk(62)), lag) is None


# ---------------------------------------------------------------------------
# Causality


def delayed_pair(n=80, lag=1, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    steps = rng.normal(scale=0.3, size=(n + lag, 2))
    leader = np.cumsum(steps, axis=0)
    follower = leader[:-lag] + [0.4, 0.0] if lag else leader.copy()
    leader = leader[lag:]
    if noise:
        follower = follower + rng.normal(scale=noise, size=follower.shape)
    return traj(1, leader), traj(2, follower)


def test_granger_detects_delayed_copy():
    leader, follower = delayed_pair(n=80, lag=1, noise=0.01)
    area = granger_causality_area(follower, leader, lag=2)
    assert area is not None and area > 0.999
    assert granger_distance(leader, follower) < 0.05


def test_granger_exact_copy_degenerate_direction():
    leader, follower = delayed_pair(n=60, lag=1, noise=0.0)
    # noiseless replay: unrestricted regression is exact, area pins to 1
    assert granger_causality_area(follower, leader, lag=1) == 1.0


def test_granger_too_short_returns_none():
    a = traj(1, np.random.default_rng(0).normal(size=(5, 2)))
    b = traj(2, np.random.default_rng(1).normal(size=(5, 2)))
    assert granger_causality_area(a, b, lag=2) is None  # needs >= 2m+2 = 6


def test_granger_constant_target_returns_none():
    a = traj(1, np.zeros((30, 2)))
    b = traj(2, np.random.default_rng(2).normal(size=(30, 2)))
    assert granger_causality_area(a, b, lag=2) is None


def test_granger_lag_validation():
    a = traj(1, np.zeros((10, 2)))
    with pytest.raises(ValueError):
        granger_causality_area(a, a, lag=0)


def test_granger_distance_fallback_flag():
    # 4 common samples < 6 required: both directions undefined
    a = traj(1, np.random.default_rng(3).normal(size=(4, 2)))
    b = traj(2, np.random.default_rng(4).normal(size=(4, 2)))
    assert granger_distance(a, b) == 0.5
    win = window_of(a, b)
    scene = build_scene(win)
    assert scene.granger_fallback.tolist() == [True]
    assert scene.granger_fallback_count == 1


# ---------------------------------------------------------------------------
# Heat maps


def test_heat_cells_are_world_grid_centres():
    # heat cells are anchored at the world origin: rows are (x, y, E) with the
    # centres of the world grid's cells, negative ones included, in (x, y)
    # order, and energies over the largest
    a = traj(1, [[0.0, 0.5], [1.0, 0.5]])
    b = traj(2, [[-0.5, -1.2], [2.5, 3.1]])
    cfg = FeatureConfig(heat_cell_edge=1.0)
    cells = heatmap_build(b, cfg)
    assert cells[:, :2].tolist() == [[-0.5, -1.5], [2.5, 3.5]]
    assert cells[:, 2].tolist() == pytest.approx([math.exp(-cfg.heat_k_r), 1.0], abs=1e-15)
    assert build_scene(window_of(a, b), cfg).feature_matrix[0, 3] == heatmap_distance(heatmap_build(a, cfg), cells, cfg)


def test_heatmap_static_point_peaks_at_cell():
    # a walker standing still is one cell of energy 1; two of them, r metres
    # apart, are 1 - exp(-r^2 / (4 length^2)) apart in d_he
    cfg = FeatureConfig(heat_cell_edge=1.0, heat_length=2.0, heat_k_r=0.1)
    here = traj(1, [[0.5, 0.5], [0.5, 0.5]])
    assert heatmap_build(here, cfg).tolist() == [[0.5, 0.5, 1.0]]
    for r in (0.0, 1.0, 3.0):
        there = traj(2, [[0.5 + r, 0.5], [0.5 + r, 0.5]])
        got = heatmap_distance(heatmap_build(here, cfg), heatmap_build(there, cfg), cfg)
        assert got == pytest.approx(1.0 - math.exp(-r * r / (4.0 * cfg.heat_length**2)), abs=1e-15)


def test_heatmap_build_defaults_to_one_grid_for_every_segment():
    # every map shares the world's cells: the same path
    # 100 m away visits other cells, and the kernel underflows at that distance
    walk = [[0.2, 0.4], [1.1, 0.9], [2.3, 1.2], [3.0, 2.2]]
    here, there = traj(1, walk), traj(2, np.add(walk, [100.0, 0.0]))
    assert heatmap_distance(heatmap_build(here), heatmap_build(there)) == 1.0
    assert heatmap_distance(heatmap_build(here), heatmap_build(traj(3, walk))) == 0.0


def test_heatmap_dwell_time_decay():
    # same cells, longer occupancy: the left cell's energy decays with its dwell;
    # the final cell dwells 0 s and has the largest energy
    cfg = FeatureConfig(heat_cell_edge=1.0, heat_k_r=0.5)
    fast = traj(1, [[0.5, 0.5], [3.5, 0.5]], dt=1.0)
    slow = traj(2, [[0.5, 0.5], [3.5, 0.5]], dt=4.0)
    assert heatmap_build(fast, cfg)[:, 2].tolist() == pytest.approx([math.exp(-0.5 * 1.0), 1.0], abs=1e-15)
    assert heatmap_build(slow, cfg)[:, 2].tolist() == pytest.approx([math.exp(-0.5 * 4.0), 1.0], abs=1e-15)
    # a revisited cell counts once, with its dwells summed: the first cell
    # dwells 1 s and then 0 s, as long as the other, so both have energy 1
    loop = heatmap_build(traj(3, [[0.5, 0.5], [3.5, 0.5], [0.5, 0.5]]), cfg)
    assert loop.tolist() == [[0.5, 0.5, 1.0], [3.5, 0.5, 1.0]]


def test_heatmap_distance_cases():
    one = np.array([[0.5, 0.5, 1.0]])
    far = np.array([[100.5, 0.5, 1.0]])
    two = np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 1.0]])
    zero = two * [1.0, 1.0, 0.0]
    assert heatmap_distance(one, one) == 0.0 and heatmap_distance(two, two) == 0.0
    assert heatmap_distance(one, far) == 1.0  # the kernel underflows at 100 m
    assert heatmap_distance(zero, two) == heatmap_distance(two, zero) == heatmap_distance(zero, zero) == 1.0
    assert heatmap_distance(np.zeros((0, 3)), one) == heatmap_distance(np.zeros((0, 3)), np.zeros((0, 3))) == 1.0
    # members with different cell counts: the smaller is padded with zero energies
    kernel = math.exp(-1.0 / 36.0)  # cells 1 m apart at length 3 m
    want = 1.0 - (0.5 + kernel) / math.sqrt(0.25 + 1.0 + 2 * 0.5 * kernel)
    assert heatmap_distance(one, two) == pytest.approx(want, abs=1e-15)
    assert heatmap_distance(one, two, FeatureConfig(heat_length=0.1)) > heatmap_distance(one, two)


def test_heat_invariants_on_random_ragged_windows():
    # d_he(a, a) = 0 and d_he is symmetric up to rounding (the two orders sum
    # the same products in another order); moving the whole window by whole
    # cells leaves every d_he bit-identical (coordinates are multiples of 1/16,
    # so the moves are exact); a member whose every energy underflows is 1.0
    # from everyone
    rng = np.random.default_rng(7)
    cfg = FeatureConfig(heat_cell_edge=0.25)
    for _ in range(40):
        win = oracles.random_ragged_window(rng)
        segs = [Trajectory(m, s.times, np.round(s.points * 16) / 16) for m, s in sorted(win.segments.items())]
        moved = [Trajectory(s.pedestrian_id, s.times, s.points + (7 * 0.25, -3 * 0.25)) for s in segs]
        got = build_scene(window_of(*segs), cfg).feature_matrix[:, 3]
        assert got.tobytes() == build_scene(window_of(*moved), cfg).feature_matrix[:, 3].tobytes()
        maps = [heatmap_build(s, cfg) for s in segs]
        for h in maps:
            assert heatmap_distance(h, h, cfg) == 0.0
            assert heatmap_distance(h, h * [1.0, 1.0, 0.0], cfg) == 1.0
        for h_a, h_b in zip(maps, maps[1:]):
            assert heatmap_distance(h_a, h_b, cfg) == pytest.approx(heatmap_distance(h_b, h_a, cfg), abs=1e-14)
    stuck = traj(9, [[0.5, 0.5], [1.5, 0.5], [0.5, 0.5]])  # every cell dwells 1 s
    scene = build_scene(window_of(stuck, traj(10, [[0.5, 1.5], [1.5, 1.5]])), FeatureConfig(heat_k_r=1e4))
    assert scene.feature_matrix[0, 3] == 1.0


# ---------------------------------------------------------------------------
# Scene assembly


def test_build_scene_pair_layout():
    a = traj(1, [[0, 0], [1, 0], [2, 0], [3, 0], [4, 0], [5, 0], [6, 0]])
    b = traj(2, [[0, 1], [1, 1], [2, 1], [3, 1], [4, 1], [5, 1], [6, 1]])
    c = traj(3, [[9, 9], [9, 8], [9, 7], [9, 6], [9, 5], [9, 4], [9, 3]])
    scene = build_scene(window_of(a, b, c))
    assert scene.members == (1, 2, 3)
    assert scene.pairs.tolist() == [[1, 2], [1, 3], [2, 3]]
    assert [r.tolist() for r in scene.pair_rows] == [[0, 0, 1], [1, 2, 2]]
    assert scene.feature_matrix.shape == (3, 4)
    assert np.allclose(scene.affinity_terms, np.hstack([1 - scene.feature_matrix, -scene.feature_matrix]))
    # close parallel mates are nearer than the crossing stranger in every feature
    d_ab = scene.feature_matrix[0]
    d_ac = scene.feature_matrix[1]
    assert d_ab[0] < d_ac[0] and d_ab[1] < d_ac[1]


def test_build_scene_no_overlap_pair():
    a = traj(1, [[0, 0], [1, 0]], t0=0.0)
    b = traj(2, [[0, 1], [1, 1]], t0=100.0)
    win = window_of(a, b, start=0.0, end=102.0)
    scene = build_scene(win)
    d = scene.feature_matrix[0]
    assert scene.no_overlap.tolist() == [True]
    assert d[0] == 1.0 and d[2] == 1.0  # proxemics and causality pinned
    assert scene.no_overlap_count == 1
    assert 0.0 <= d[1] <= 1.0 and 0.0 <= d[3] <= 1.0


def test_build_scene_rows_match_scalar_features_on_ragged_window():
    # ids 3, 7, 12: (3, 7) share 10 samples, (3, 12) none, and (7, 12) only 4,
    # fewer than the 6 the causality regression needs
    rng = np.random.default_rng(5)

    def walk(k):
        return np.cumsum(rng.normal(scale=0.4, size=(k, 2)), axis=0)

    win = window_of(traj(3, walk(10)), traj(7, walk(16)), traj(12, walk(4), t0=12.0))
    scene = build_scene(win)
    ia, ib = scene.pair_rows
    members = scene.members
    for k in range(len(ia)):
        seg_a, seg_b = win.segments[members[ia[k]]], win.segments[members[ib[k]]]
        overlap = np.intersect1d(seg_a.times, seg_b.times).size > 0
        want = [
            proxemic_distance(seg_a, seg_b) if overlap else 1.0,
            dtw_shape_distance(seg_a, seg_b),
            granger_distance(seg_a, seg_b) if overlap else 1.0,
            heatmap_distance(heatmap_build(seg_a), heatmap_build(seg_b)),
        ]
        assert scene.feature_matrix[k].tolist() == want
    assert scene.pairs.tolist() == [[3, 7], [3, 12], [7, 12]]
    assert scene.no_overlap.tolist() == [False, True, False]
    assert scene.granger_fallback.tolist() == [False, False, True]
    assert scene.feature_matrix[2, 2] == 0.5
    assert (scene.no_overlap_count, scene.granger_fallback_count) == (1, 1)


def test_build_scene_features_bounded():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(2, 12))
        trajs = [
            traj(m + 1, np.cumsum(rng.normal(scale=0.4, size=(k, 2)), axis=0))
            for m in range(n)
        ]
        scene = build_scene(window_of(*trajs))
        fm = scene.feature_matrix
        assert np.all(fm >= 0.0) and np.all(fm <= 1.0)
        assert np.all(np.isfinite(fm))


def test_write_features_csv_golden():
    d = np.array([0.25, 0.5, 0.75, 1.0])
    a = traj(1, [[0, 0], [1, 0]])
    b = traj(2, [[0, 1], [1, 1]])
    win = window_of(a, b)
    scene = WindowedScene(window=win, feature_matrix=d[None, :])
    buf = io.StringIO()
    write_features_csv([scene], buf)
    assert buf.getvalue().splitlines() == [
        "window,a,b,d_ph,d_sh,d_ca,d_he",
        "0,1,2,0.25,0.5,0.75,1",
    ]


def test_write_features_csv_equals_the_csv_writer():
    # the features CSV is joined by hand, far rows from one preformatted
    # suffix, on the invariant that its ints and _fmt floats need no quoting;
    # its bytes must equal the csv module's through _fmt over near, far and
    # no-overlap rows and across 4,096-row blocks
    walk = np.cumsum(np.random.default_rng(3).normal(scale=0.4, size=(8, 2)), axis=0)
    small = window_of(traj(1, walk), traj(2, walk + 0.5), traj(3, walk + 20.0), traj(4, walk, t0=50.0))
    # pairs (2k, 2k + 1) walk 1 m apart and every other pair at least 9 m
    large = window_of(*(traj(m, walk + [10.0 * (m // 2) + m % 2, 0.0]) for m in range(92)))
    scenes = [build_scene(small), build_scene(large)]
    assert len(scenes[1].pairs) > 4096 and all(s.far.any() and not s.far.all() for s in scenes)
    assert scenes[0].no_overlap.any()
    got, want = io.StringIO(), io.StringIO()
    write_features_csv(scenes, got)
    crowdgroups.harness._write_csv(want, ["window", "a", "b", *crowdgroups.FEATURE_NAMES], (
        [s.window.index, a, b, *d] for s in scenes for (a, b), d in zip(s.pairs.tolist(), s.feature_matrix.tolist())))
    assert got.getvalue() == want.getvalue()


# ---------------------------------------------------------------------------
# Batched kernels against the scalar references


def _pairs_of(win):
    members = sorted(win.members)
    return [(win.segments[a], win.segments[b]) for i, a in enumerate(members) for b in members[i + 1 :]]


def _check_causality(win, scene, cfg):
    for k, (seg_a, seg_b) in enumerate(_pairs_of(win)):
        if scene.no_overlap[k] or scene.far[k]:
            continue
        want, fallback = oracles.scalar_granger_distance_flagged(seg_a, seg_b, cfg)
        assert scene.granger_fallback[k] == fallback
        assert scene.feature_matrix[k, 2] == pytest.approx(want, abs=1e-12, rel=0)


def _check_heat(win, scene, cfg):
    # d_he equals the one-pair functions exactly and the scalar double loop to 1e-12
    maps = {m: heatmap_build(seg, cfg) for m, seg in win.segments.items()}
    for (a, b), far, got in zip(scene.pairs.tolist(), scene.far, scene.feature_matrix[:, 3].tolist()):
        if far:
            assert got == 1.0
            continue
        assert got == heatmap_distance(maps[a], maps[b], cfg)
        want = oracles.scalar_heat_distance(win.segments[a], win.segments[b], cfg)
        assert got == pytest.approx(want, abs=1e-12, rel=0)


def _check_all(win, scene, cfg):
    matrix, fallback, no_overlap, far = oracles.scalar_pair_table(win, cfg)
    assert scene.no_overlap.tolist() == no_overlap.tolist()
    assert scene.far.tolist() == far.tolist()
    assert scene.granger_fallback.tolist() == fallback.tolist()
    assert scene.feature_matrix[:, :2].tolist() == matrix[:, :2].tolist()
    assert np.abs(scene.feature_matrix[:, 2:] - matrix[:, 2:]).max(initial=0.0) <= 1e-12
    _check_heat(win, scene, cfg)


EQUIVALENCE_CASES = {
    "defaults": (FeatureConfig(), _check_all),
    "lag1": (FeatureConfig(granger_lag=1), _check_causality),
    "lag3": (FeatureConfig(granger_lag=3), _check_causality),
    "length": (FeatureConfig(heat_length=0.5), _check_heat),
}


@pytest.mark.parametrize("case", list(EQUIVALENCE_CASES))
def test_build_scene_matches_scalar_references_on_random_ragged_windows(case):
    # d_ph and d_sh are bit-identical; d_ca (another QR) and d_he (another
    # summation order) agree to 1e-12; the flags are identical. Non-default
    # settings check the features they change.
    cfg, check = EQUIVALENCE_CASES[case]
    rng = np.random.default_rng(2024)
    seen = {"no_overlap": 0, "fallback": 0, "rows": 0}
    for _ in range(200):
        win = oracles.random_ragged_window(rng)
        scene = build_scene(win, cfg)
        check(win, scene, cfg)
        seen["no_overlap"] += scene.no_overlap_count
        seen["fallback"] += scene.granger_fallback_count
        seen["rows"] += len(scene.pairs)
    assert seen["no_overlap"] > 0 and seen["fallback"] > 0 and seen["rows"] > 2000


def test_build_scene_matches_scalar_references_on_spread_ragged_windows():
    # paths start up to 12 m apart on each axis, so far pairs are common
    rng = np.random.default_rng(2024)
    far = rows = 0
    for _ in range(60):
        win = oracles.random_ragged_window(rng, spread=12.0)
        scene = build_scene(win)
        _check_all(win, scene, FeatureConfig())
        far, rows = far + scene.far_count, rows + len(scene.pairs)
    assert far > 0.3 * rows and rows > 1000


def test_pair_rows_ignore_bystanders():
    # a pair's row is a property of the pair: dropping any other member of the
    # window leaves all four features and the flags bit-identical
    rng = np.random.default_rng(38)
    rows = 0
    for _ in range(60):
        win = oracles.random_ragged_window(rng)
        scene = build_scene(win)
        full = {pair: k for k, pair in enumerate(map(tuple, scene.pairs.tolist()))}
        for gone in scene.members:
            rest = build_scene(window_of(*(seg for m, seg in win.segments.items() if m != gone)))
            keep = [full[pair] for pair in map(tuple, rest.pairs.tolist())]
            for name in ("far", "no_overlap", "granger_fallback"):
                assert getattr(rest, name).tolist() == getattr(scene, name)[keep].tolist(), name
            assert rest.feature_matrix.tobytes() == scene.feature_matrix[keep].tobytes()
            rows += len(keep)
    assert rows > 10000


# (settings beside 1 m cells and heat_length = 0.5, member paths sampled 1 s apart)
HEAT_LAYOUT_CASES = {
    # member 1 stands in one cell against member 2's two: the pair pads member 1
    "one-cell": ({}, [[[2.2, 1.2]] * 3, [[0.5, 0.5], [4.5, 3.5]]]),
    # member 1 reaches all four edges of the window's box
    "four-edges": ({}, [[[0.5, 0.5], [4.5, 0.5], [4.5, 3.5], [0.5, 3.5], [2.5, 2.5]], [[1.5, 1.5], [2.5, 1.5]]]),
    "one-row": ({}, [[[0.5, 0.5], [1.5, 0.5], [5.5, 0.5]], [[3.5, 0.5], [4.5, 0.5], [3.5, 0.5]]]),
    "one-column": ({}, [[[0.5, 0.5], [0.5, 1.5], [0.5, 5.5]], [[0.5, 3.5], [0.5, 4.5], [0.5, 3.5]]]),
    "revisits": (
        {}, [[[0.5, 0.5], [1.5, 0.5], [0.5, 0.5], [1.5, 2.5], [0.5, 0.5], [1.5, 0.5]], [[2.5, 2.5], [2.5, 1.5]]],
    ),
    # every cell of member 1 dwells 1 s, so all four share the energy exp(-k_r);
    # member 2 has two cells of that energy and a last one of energy 1
    "equal-energies": (
        {}, [[[0.5, 0.5], [1.5, 0.5], [2.5, 1.5], [3.5, 2.5], [3.5, 2.6]], [[0.5, 2.5], [1.5, 1.5], [2.5, 0.5]]],
    ),
    # every cell dwells 1 s and exp(-k_r) underflows to 0: all energies are 0, so d_he = 1
    "underflow": ({"heat_k_r": 1e4}, [[[0.5, 0.5], [1.5, 0.5], [1.5, 0.5]], [[2.5, 1.5], [2.5, 1.5]]]),
}


@pytest.mark.parametrize("case", list(HEAT_LAYOUT_CASES))
def test_heatmap_layout_edge_cases_match_the_scalar_reference(monkeypatch, case):
    # at the edges of the zero-padded cell tables, each member's cells inside
    # build_scene equal heatmap_build's bit for bit and the scalar reference's
    # to 1e-12, and so does d_he
    settings, paths = HEAT_LAYOUT_CASES[case]
    cfg = FeatureConfig(heat_cell_edge=1.0, heat_length=0.5, **settings)
    win = window_of(*(traj(m, p) for m, p in enumerate(paths, 1)))
    tables = []
    build = features_module._heat_cells
    monkeypatch.setattr(features_module, "_heat_cells", lambda *args: tables.append(build(*args)) or tables[-1])
    scene = build_scene(win, cfg)
    monkeypatch.undo()
    [(table, counts)] = tables
    for k, m in enumerate(scene.members):
        cells = heatmap_build(win.segments[m], cfg)
        assert np.array_equal(table[k, : counts[k]], cells) and not table[k, counts[k] :].any()
        want = sorted(oracles.scalar_heat_cells(win.segments[m], cfg))
        peak = max(w[2] for w in want)
        assert np.abs(cells[:, :2] - [w[:2] for w in want]).max() <= 1e-12
        assert np.abs(cells[:, 2] - [w[2] / peak if peak else 0.0 for w in want]).max() <= 1e-12
    assert not scene.far.any()
    _check_heat(win, scene, cfg)
    if case == "underflow":
        assert not table[..., 2].any() and np.all(scene.feature_matrix[:, 3] == 1.0)


@pytest.mark.parametrize("chunk", [1, 7])
def test_build_scene_does_not_depend_on_chunk_size(monkeypatch, chunk):
    rng = np.random.default_rng(11)
    windows = [oracles.random_ragged_window(rng) for _ in range(20)]
    want = [build_scene(win) for win in windows]
    monkeypatch.setattr(features_module, "_CHUNK_ELEMENTS", chunk)
    for win, scene in zip(windows, want):
        got = build_scene(win)
        assert got.feature_matrix.tolist() == scene.feature_matrix.tolist()
        assert got.granger_fallback.tolist() == scene.granger_fallback.tolist()
        assert got.no_overlap.tolist() == scene.no_overlap.tolist()
        assert got.far.tolist() == scene.far.tolist()


DTW_LAYOUTS = {
    # members of 2 to 14 samples, one of them with exactly 2 and two with 14:
    # the pairs end on every diagonal 3 to 26, up to 11 on one
    "ragged": (list(range(2, 15)) + [5, 7, 9, 14], range(3, 27)),
    # the longest member has 2 samples: each diagonal's band is one or two cells wide
    "two-samples": ([2, 2, 2], [2]),
}


@pytest.mark.parametrize("chunk", [None, 1, 7, 16 * 15 * 5])
@pytest.mark.parametrize("layout", list(DTW_LAYOUTS))
def test_dtw_end_cell_schedule_matches_the_scalar_reference(monkeypatch, layout, chunk):
    # members within a 1 m box so that no pair is far, among them pairs of
    # lengths (2, size) and (size, size), whose cells reach both ends of each
    # diagonal's valid band; each chunk reads its end cells by its sorted
    # schedule. The chunks hold all pairs, one pair, or five of the ragged
    # layout's (16 (size + 1) floats a pair)
    lengths, diagonals = DTW_LAYOUTS[layout]
    rng = np.random.default_rng(13)
    segments = [Trajectory(m, (int(rng.integers(0, 10)) + np.arange(k)) * 0.4, rng.uniform(-0.5, 0.5, size=(k, 2)))
                for m, k in enumerate(lengths, start=1)]
    ia, ib = np.triu_indices(len(segments), 1)
    pairs = Counter(tuple(sorted((lengths[a], lengths[b]))) for a, b in zip(ia, ib))
    size = max(lengths)
    assert pairs[2, size] and pairs[size, size]
    ends = Counter(lengths[a] + lengths[b] - 2 for a, b in zip(ia, ib))
    assert sorted(ends) == list(diagonals) and max(ends.values()) >= min(5, len(ia))
    if chunk is not None:
        monkeypatch.setattr(features_module, "_CHUNK_ELEMENTS", chunk)
    got = features_module._dtw_rows(align_segments(segments), ia, ib)
    want = [oracles.scalar_dtw_shape_distance(segments[a], segments[b]) for a, b in zip(ia, ib)]
    assert got.tolist() == want


def _common_samples(seg_a, seg_b):
    """Each segment's points at the pair's common timestamps, in time order."""
    common = np.intersect1d(seg_a.times, seg_b.times)
    return seg_a.points[np.isin(seg_a.times, common)], seg_b.points[np.isin(seg_b.times, common)]


def test_build_scene_fits_causality_once_per_common_count(monkeypatch):
    # the pairs run in order of their common count K: each non-far pair
    # sharing a timestamp reaches exactly one causality call, both directions
    # of it, its common samples in time order and no padding; every call holds
    # one K, and each chunk of a K run that fits (K >= 2m + 2) factors its
    # designs in one np.linalg.qr
    rng = np.random.default_rng(12)
    causality, qr = features_module._causality, np.linalg.qr
    calls, factored = [], []
    monkeypatch.setattr(features_module, "_causality", lambda *args: calls.append(args) or causality(*args))
    monkeypatch.setattr(np.linalg, "qr", lambda *args, **kw: factored.append(args[0].shape) or qr(*args, **kw))
    several_k = split_runs = 0
    for chunk in (1 << 30, 1 << 12):  # one chunk per K run, or several in the longer runs
        monkeypatch.setattr(features_module, "_CHUNK_ELEMENTS", chunk)
        for _ in range(30):
            win = oracles.random_ragged_window(rng)
            calls.clear()
            factored.clear()
            scene = build_scene(win)
            segments = [win.segments[m] for m in scene.members]
            want = Counter()
            for i, j, far in zip(*scene.pair_rows, scene.far):
                pa, pb = _common_samples(segments[i], segments[j])
                if not far and len(pa):
                    want[pa.tobytes(), pb.tobytes()] += 1
            got, shapes = Counter(), []
            for y_pts, x_pts, m in calls:
                n, k = len(y_pts) // 2, y_pts.shape[1]  # b caused by a, then a caused by b
                assert m == 2 and y_pts.shape == x_pts.shape
                assert np.array_equal(y_pts[n:], x_pts[:n]) and np.array_equal(x_pts[n:], y_pts[:n])
                got.update((pa.tobytes(), pb.tobytes()) for pb, pa in zip(y_pts[:n], x_pts[:n]))
                if k >= 2 * m + 2:
                    shapes.append((4 * n, k - m, 2 * m + 2))  # (rows x coordinates, K - m, columns)
            assert got == want and sum(want.values()) == scene.far.size - scene.far_count - scene.no_overlap_count
            assert factored == shapes
            ks = [y_pts.shape[1] for y_pts, _, _ in calls]
            if chunk == 1 << 30:
                assert len(set(ks)) == len(ks)  # one call per K
                several_k += len(factored) > 1
            else:
                split_runs += len(set(ks)) < len(ks)
    assert several_k >= 20 and split_runs >= 10


@pytest.mark.parametrize("lag", [1, 2, 3])
def test_causality_batch_matches_one_pair_calls(lag):
    # each chunk fits the pairs of one common count K: d_ca and its fallback
    # flag equal the one-pair granger_distance's exactly, and exact fits
    # (2m + 2 <= K <= 3m + 1: no more fitted samples than design columns) read
    # d_ca = 0.0 unless they fall back. Pairs with a standing or replayed
    # member are left out of the exact-fit count: their designs are rank-deficient
    cfg = FeatureConfig(granger_lag=lag)
    rng = np.random.default_rng(34)
    exact = mixed = 0
    for _ in range(80):
        win = oracles.random_ragged_window(rng)
        scene = build_scene(win, cfg)
        segments = [win.segments[m] for m in scene.members]
        counts = set()
        for k, (i, j) in enumerate(zip(*scene.pair_rows)):
            if scene.far[k] or scene.no_overlap[k]:
                continue
            pair = segments[i], segments[j]
            _, want, fallback = features_module._one_pair(*pair, cfg)
            got = scene.feature_matrix[k, 2]
            assert got == granger_distance(*pair, cfg) == want[0] and scene.granger_fallback[k] == fallback[0]
            n = len(_common_samples(*pair)[0])
            counts.add(n)
            moving = all(np.ptp(seg.points, axis=0).all() for seg in pair)
            full_rank = moving and not np.isin(pair[0].points, pair[1].points).any()
            if 2 * lag + 2 <= n <= 3 * lag + 1 and full_rank and not fallback[0]:
                assert got == 0.0
                exact += 1
        mixed += len({n for n in counts if n >= 2 * lag + 2}) > 1
    assert exact >= 10 and mixed >= 40


def test_causality_refits_rank_deficient_pairs_from_their_own_rows(monkeypatch):
    # a standing member's lags are collinear with the intercept; its pairs
    # (K = 20 and 18) share a window with a full-rank pair of K = 26, and
    # _rss refits them from exactly the designs of their one-pair calls
    walk = traj(1, _walk(70, k=30))
    standing = traj(2, np.tile([3.0, -1.0], (20, 1)))
    other = traj(3, _walk(71, k=26), t0=2.0)
    designs = []
    rss = features_module._rss
    monkeypatch.setattr(features_module, "_rss", lambda *args: designs.append(args) or rss(*args))
    for lag in (1, 2, 3):
        designs.clear()
        scene = build_scene(window_of(walk, standing, other), FeatureConfig(granger_lag=lag))
        batched, designs[:] = designs[:], []
        assert not scene.far.any() and not scene.no_overlap.any()
        for seg_a, seg_b in ((walk, standing), (walk, other), (standing, other)):
            granger_causality_area(seg_b, seg_a, lag)
            granger_causality_area(seg_a, seg_b, lag)
        assert len(batched) == len(designs) >= 4
        assert sorted((d.shape, d.tobytes(), y.tobytes()) for d, y in batched) == sorted(
            (d.shape, d.tobytes(), y.tobytes()) for d, y in designs)
        assert {len(y) for _, y in batched} == {20 - lag, 18 - lag}


def test_beta_halves_of_an_array_equals_its_one_element_calls():
    # a causality chunk evaluates all its pairs' statistics in one call: each
    # element gets the bits of a one-pair call
    rng = np.random.default_rng(35)
    x = np.concatenate([rng.random(60), [0.0, 1.0, 1.0 - 1e-12, np.nan]])
    for m in (1, 2, 3, 4):
        for dof in range(1, 61):
            got = features_module._beta_halves(x, m, dof)
            want = [features_module._beta_halves(x[i : i + 1], m, dof)[0] for i in range(x.size)]
            assert np.array_equal(got, want, equal_nan=True)


# ---------------------------------------------------------------------------
# Far-pair gating


DENSE_SPEC = SynthSpec(
    n_groups=20, n_singletons=40, extent=60.0, group_size_min=3, group_size_max=3, duration=10.0
)  # 100 pedestrians in one 10 s window


def _synth_window(spec, seed, ragged=False):
    """The scene's first 10 s window; `ragged` gives every pedestrian a random
    visible span and drops a tenth of its samples."""
    trajs, _ = synth_generate(spec, seed=seed)
    if ragged:
        rng = np.random.default_rng(seed)
        cut = []
        for t in trajs:
            keep = rng.random(len(t.times)) > 0.1
            lo, hi = np.sort(rng.integers(0, len(t.times), size=2))
            keep[:lo] = keep[hi + 1 :] = False
            if keep.any():
                cut.append(Trajectory(t.pedestrian_id, t.times[keep], t.points[keep]))
        trajs = cut
    return slice_windows(trajs, 10.0, 10.0)[0]


GATING_WINDOWS = {
    "default": (SynthSpec(), 0, False),
    "dense": (DENSE_SPEC, 0, False),
    "ragged": (SynthSpec(duration=40.0), 3, True),
}


@pytest.mark.parametrize("case", list(GATING_WINDOWS))
def test_far_gating_leaves_the_other_rows_bit_identical(monkeypatch, case):
    win = _synth_window(*GATING_WINDOWS[case])
    gated = build_scene(win)
    monkeypatch.setattr(features_module, "NEAR_RADIUS", math.inf)
    full = build_scene(win)
    far, near = gated.far, ~gated.far
    assert 0 < gated.far_count < len(far) and full.far_count == 0
    assert np.all(gated.feature_matrix[far] == 1.0)
    assert not (gated.granger_fallback[far].any() or gated.no_overlap[far].any() or full.no_overlap[far].any())
    assert gated.feature_matrix[near].tolist() == full.feature_matrix[near].tolist()
    assert gated.granger_fallback[near].tolist() == full.granger_fallback[near].tolist()
    assert gated.no_overlap.tolist() == full.no_overlap.tolist()


def test_far_rule_boundary_and_no_overlap():
    # (1, 2) are exactly 7.6 m apart at one shared sample and farther at the
    # others: not far. (1, 3) and (2, 3) are farther at every shared sample:
    # far. Member 4 never co-occurs with anyone: no_overlap, not far.
    a = traj(1, [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    b = traj(2, [[7.6, 0.0], [20.0, 0.0], [30.0, 0.0]])
    c = traj(3, [[0.0, 7.6000001], [0.0, 8.0], [0.0, 9.0]])
    d = traj(4, [[0.0, 0.0], [1.0, 0.0]], t0=10.0)
    win = window_of(a, b, c, d)
    scene = build_scene(win)
    assert scene.pairs.tolist() == [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
    assert scene.far.tolist() == [False, True, False, True, False, False]
    assert scene.no_overlap.tolist() == [False, False, True, False, True, True]
    assert (scene.far_count, scene.no_overlap_count) == (2, 3)
    assert scene.feature_matrix[[1, 3]].tolist() == [[1.0] * 4] * 2
    assert scene.feature_matrix[0, 0] < 1.0
    assert oracles.scalar_pair_table(win)[3].tolist() == scene.far.tolist()


def _digests_under_blas_threads(script: str, *args) -> list[str]:
    """The script's output under OPENBLAS_NUM_THREADS 1 and 2."""
    src = str(Path(crowdgroups.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    return digests


def test_heat_distances_do_not_depend_on_blas_threads():
    # a BLAS dot splits long maps across threads, and the split changes the
    # rounding; d_he must come out byte-identical under any thread count
    script = (
        "import hashlib\n"
        "from crowdgroups import SynthSpec, build_scene, slice_windows, synth_generate\n"
        f"spec = {DENSE_SPEC!r}\n"
        "win = slice_windows(synth_generate(spec, seed=0)[0], 10.0, 10.0)[0]\n"
        "print(hashlib.sha256(build_scene(win).feature_matrix[:, 3].tobytes()).hexdigest())\n"
    )
    digests = _digests_under_blas_threads(script)
    assert digests[0] == digests[1]
    win = _synth_window(DENSE_SPEC, 0)
    assert digests[0] == hashlib.sha256(build_scene(win).feature_matrix[:, 3].tobytes()).hexdigest()


def test_ragged_feature_matrix_does_not_depend_on_blas_threads(tmp_path):
    # a ragged window's chunks pad the causality designs of many common
    # counts K into one QR batch; every feature must come out byte-identical
    # under any thread count
    win = _synth_window(DENSE_SPEC, 0, ragged=True)
    scene = build_scene(win)
    _, _, present = align_segments([win.segments[m] for m in scene.members])
    ia, ib = scene.pair_rows
    counts = (present[ia] & present[ib]).sum(axis=1)[~scene.far]
    assert len(set(counts[counts >= 6].tolist())) >= 10
    path = tmp_path / "window.pickle"
    path.write_bytes(pickle.dumps((win.start_t, win.end_t, list(win.segments.values()))))
    script = (
        "import hashlib, pickle, sys\n"
        "from crowdgroups import TimeWindow, build_scene\n"
        "with open(sys.argv[1], 'rb') as fh:\n"
        "    start, end, segments = pickle.load(fh)\n"
        "win = TimeWindow(0, start, end, {s.pedestrian_id for s in segments}, {s.pedestrian_id: s for s in segments})\n"
        "print(hashlib.sha256(build_scene(win).feature_matrix.tobytes()).hexdigest())\n"
    )
    digests = _digests_under_blas_threads(script, str(path))
    assert digests[0] == digests[1] == hashlib.sha256(scene.feature_matrix.tobytes()).hexdigest()


def test_build_scene_empty_and_single_member_windows():
    empty = TimeWindow(index=0, start_t=0.0, end_t=1.0, members=frozenset(), segments={})
    for win in (empty, window_of(traj(4, [[0, 0], [1, 1]]))):
        scene = build_scene(win)
        assert scene.feature_matrix.shape == (0, 4)
        assert scene.granger_fallback.shape == scene.no_overlap.shape == scene.far.shape == (0,)


def _ragged_slice(seed):
    """A slice of overlapping windows over a random ragged window's segments,
    several of them with members, and hand-made copies of its windows, which
    belong to no slice."""
    rng = np.random.default_rng(seed)
    while True:
        trajs = list(oracles.random_ragged_window(rng).segments.values())
        windows = slice_windows(trajs, 6.0, 1.6)
        if sum(len(w.members) >= 2 for w in windows) >= 4:
            return windows, [TimeWindow(w.index, w.start_t, w.end_t, w.members, w.segments, w.dropped)
                             for w in windows]


def _assert_same_scene(got, want):
    assert got.members == want.members
    for name in ("feature_matrix", "granger_fallback", "no_overlap", "far"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("order", ["in-order", "reverse", "repeated", "interleaved-configs", "tiny-budget"])
def test_slice_batches_equal_hand_made_windows_bit_for_bit(monkeypatch, seed, order):
    # a slice's windows are featurized together on first use; each scene must
    # equal, bit for bit, the scene of a hand-made copy of its window (a batch
    # of one) whatever the order of the requests, and a batch adds no window
    # already built under the same config
    windows, copies = _ragged_slice(seed)
    configs = [FeatureConfig()]
    requests = list(range(len(windows)))
    if order == "reverse":
        requests.reverse()
    elif order == "repeated":
        requests = [k for k in requests for _ in range(2)] + requests
    elif order == "interleaved-configs":
        configs.append(FeatureConfig(granger_lag=1, heat_cell_edge=0.5, heat_length=1.0))
    elif order == "tiny-budget":  # at least two batches, one of several windows
        total = sum(len(w.members) * (len(w.members) - 1) // 2 for w in windows)
        monkeypatch.setattr(features_module, "_BATCH_PAIRS", total // 2)
    batches = []
    window_rows = features_module._window_rows
    monkeypatch.setattr(features_module, "_window_rows", lambda batch, cfg: batches.append(
        (bool(batch[0]._slice), cfg, [w.index for w in batch])) or window_rows(batch, cfg))
    for k in requests:
        for cfg in configs:
            scene = build_scene(windows[k], cfg)
            assert scene.window is windows[k]
            _assert_same_scene(scene, build_scenes([copies[k]], cfg)[0])
    assert all(w._slice is windows[0]._slice for w in windows) and not any(c._slice for c in copies)
    ahead = features_module._AHEAD
    assert {(w.index, cfg) for w in windows for cfg in ahead[w]} == {(w.index, cfg) for w in windows for cfg in configs}
    assert all(ahead[w][cfg] is None for w in windows for cfg in configs)  # handed out once, then dropped
    assert not any(c in ahead for c in copies)
    assert all(len(batch) == 1 for ours, _, batch in batches if not ours)
    ours = [(cfg, batch) for slice_batch, cfg, batch in batches if slice_batch]
    built = set()
    for cfg, batch in ours:
        assert not built & {(cfg, k) for k in batch[1:]}
        built |= {(cfg, k) for k in batch}
    if order != "repeated":
        assert sum(len(batch) for _, batch in ours) == len(windows) * len(configs)
    if order in ("in-order", "interleaved-configs"):
        assert len(ours) == len(configs)
    if order == "tiny-budget":
        assert len(ours) > 1 and max(len(batch) for _, batch in ours) > 1


@pytest.mark.parametrize("seed", range(3))
def test_build_scene_of_a_copied_slice_window_gets_its_own_rows(seed):
    # a copy of a slice window keeps the original's slice; its batch starts
    # with the copy, so the copy's rows are stored, and the original, asked
    # for later, still gets its own
    for k in range(len(_ragged_slice(seed)[0])):
        windows, copies = _ragged_slice(seed)
        original = windows[k]
        clone = copy.copy(original)
        assert clone._slice is original._slice and clone is not original
        scene = build_scene(clone)
        assert scene.window is clone
        _assert_same_scene(scene, build_scenes([original])[0])
        later = build_scene(original)
        assert later.window is original
        _assert_same_scene(later, scene)
        for w, c in zip(windows, copies):
            _assert_same_scene(build_scene(w), build_scenes([c])[0])


def test_dropping_a_slice_frees_its_windows_and_their_rows_built_ahead():
    # windows hold their slice, and the table of rows built ahead holds its
    # windows, by weak reference, so dropping the windows frees them and their
    # rows without the cycle collector
    windows, _ = _ragged_slice(0)
    gc.collect()
    gc.disable()
    try:
        build_scene(windows[0])
        ahead = [rows for w in windows[1:] for rows in features_module._AHEAD.get(w, {}).values()]
        assert ahead  # the next windows' rows wait in the table
        refs = [weakref.ref(ahead[0][0]), *map(weakref.ref, windows)]
        del windows, ahead
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_build_scenes_of_no_windows_and_of_hand_made_windows():
    # build_scenes featurizes the hand-made windows it is given as one batch,
    # whose scenes equal their batches of one
    windows, copies = _ragged_slice(1)
    assert build_scenes([]) == []
    for got, want in zip(build_scenes(copies), (build_scene(c) for c in copies), strict=True):
        assert got.window is want.window
        _assert_same_scene(got, want)
    assert not any(w in features_module._AHEAD for w in windows + copies)  # built alone, nothing ahead


def _walk(seed, k=24):
    return np.cumsum(np.random.default_rng(seed).normal(scale=0.4, size=(k, 2)), axis=0)


@pytest.mark.parametrize("lag", [1, 2, 3])
def test_granger_stationary_and_duplicate_sources_match_reference(lag, monkeypatch):
    # rank-deficient unrestricted designs: a plain QR would find spurious
    # causality, and the RSS the source saves is rounding, so the area is
    # exactly 0 whichever memory order lstsq gets its design in
    target = traj(1, _walk(30))
    sources = (traj(2, np.tile([3.0, -1.0], (24, 1))), traj(2, target.points))
    for source in sources:
        assert granger_causality_area(target, source, lag) == 0.0
        assert oracles.scalar_granger_causality_area(target, source, lag) == 0.0
        assert granger_distance(target, source, FeatureConfig(granger_lag=lag)) == pytest.approx(
            oracles.scalar_granger_distance_flagged(target, source, FeatureConfig(granger_lag=lag))[0], abs=1e-12, rel=0
        )
    c_ordered = oracles.lstsq_rss
    monkeypatch.setattr(oracles, "lstsq_rss", lambda design, y: c_ordered(np.asfortranarray(design), y))
    for source in sources:
        assert oracles.scalar_granger_causality_area(target, source, lag) == 0.0


def test_granger_lags_run_over_compacted_common_samples():
    # the source has only every other frame: its common samples with the target
    # are not consecutive frames, and the lags step over the compacted samples
    target = traj(1, _walk(31, k=30), dt=0.4)
    source_points = target.points[::2] + np.random.default_rng(32).normal(scale=0.05, size=(15, 2))
    source = Trajectory(2, target.times[::2], source_points)
    compact_target = traj(1, target.points[::2], dt=0.4)
    compact_source = traj(2, source_points, dt=0.4)
    for lag in (1, 2, 3):
        got = granger_causality_area(target, source, lag)
        assert got == granger_causality_area(compact_target, compact_source, lag)
        assert got == pytest.approx(oracles.scalar_granger_causality_area(target, source, lag), abs=1e-12, rel=0)


def test_granger_refits_by_lstsq_only_rank_deficient_designs(monkeypatch):
    # the QR fits a design with no more samples than columns exactly; only a
    # rank-deficient R diagonal sends a design to np.linalg.lstsq
    calls = []
    rss = features_module._rss
    monkeypatch.setattr(features_module, "_rss", lambda *args: calls.append(args) or rss(*args))

    def refits(target, source, lag):
        calls.clear()
        got = granger_causality_area(target, source, lag)
        want = oracles.scalar_granger_causality_area(target, source, lag)
        assert (got is None) == (want is None)
        if want is not None:
            assert got == pytest.approx(want, abs=1e-12, rel=0)
        return len(calls)

    for lag in (1, 2):
        for k in (2 * lag + 2, 2 * lag + 3):
            assert refits(traj(1, _walk(50)[:k]), traj(2, _walk(51)[:k]), lag) == 0
    target = traj(1, _walk(52))
    for source in (traj(2, np.tile([3.0, -1.0], (24, 1))), traj(2, target.points)):
        for lag in (1, 2):
            assert refits(target, source, lag) >= 1


def test_granger_none_and_fallback_decisions_match_reference():
    walk = _walk(40)
    leader, follower = delayed_pair(n=40, lag=1, noise=0.0)
    cases = [
        (traj(1, walk[:5]), traj(2, _walk(41)[:5])),  # dof < 1 at lag 2 in both directions
        (traj(1, walk[:6]), traj(2, _walk(42)[:6])),  # dof == 1, more columns than rows
        (traj(1, np.zeros((24, 2))), traj(2, walk)),  # constant target: restricted fit exact
        (follower, leader),  # noiseless replay: unrestricted fit exact
        (traj(1, np.zeros((24, 2))), traj(2, np.ones((24, 2)))),  # degenerate both ways
    ]
    for seg_a, seg_b in cases:
        for target, source in ((seg_a, seg_b), (seg_b, seg_a)):
            for lag in (1, 2):
                want = oracles.scalar_granger_causality_area(target, source, lag)
                got = granger_causality_area(target, source, lag)
                assert (got is None) == (want is None)
                if want is not None:
                    assert got == pytest.approx(want, abs=1e-12, rel=0)
        scene = build_scene(window_of(seg_a, seg_b))
        want_value, want_flag = oracles.scalar_granger_distance_flagged(seg_a, seg_b)
        assert scene.granger_fallback.tolist() == [want_flag]
        assert scene.feature_matrix[0, 2] == pytest.approx(want_value, abs=1e-12, rel=0)

