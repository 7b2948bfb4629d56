"""Pairwise social features: proxemics, shape, causality, heat maps."""

from __future__ import annotations

import hashlib
import io
import logging
import math
import os
import subprocess
import sys
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
    window_grid,
    write_features_csv,
)
import crowdgroups.features as features_module
from crowdgroups.features import HALL_SIGMAS
from crowdgroups.harness import _snapshot_feature_configs

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


def test_proxemics_config_validation():
    assert FeatureConfig().proxemic_sigmas == HALL_SIGMAS
    assert FeatureConfig(proxemic_sigmas=[1, 2]).proxemic_sigmas == (1.0, 2.0)
    for sigmas in ((), (1.0, -2.0), (2.0, 1.0)):
        with pytest.raises(ConfigError):
            FeatureConfig(proxemic_sigmas=sigmas)


def test_granger_config_validation():
    assert FeatureConfig().granger_lag == 2
    assert FeatureConfig(granger_lag=3.0).granger_lag == 3
    with pytest.raises(ConfigError):
        FeatureConfig(granger_lag=0)


def test_heatmap_config_validation():
    with pytest.raises(ConfigError):
        FeatureConfig(heat_cell_edge=0.0)
    with pytest.raises(ConfigError):
        FeatureConfig(heat_k_s=-1.0)
    with pytest.raises(ConfigError):
        FeatureConfig(heat_accumulate="sum")


def test_feature_configs_round_trip(tmp_path):
    # a RunConfig is a FeatureConfig; a model's snapshot gives its feature settings back
    values = dict(
        proxemic_sigmas=(1.0, 2.0), granger_lag=3, heat_cell_edge=0.5,
        heat_k_s=0.1, heat_k_r=0.0, heat_accumulate="visits",
    )
    config = RunConfig(**values)
    assert isinstance(config, FeatureConfig)
    path = tmp_path / "model.json"
    Model(config_snapshot=config.to_flat_dict()).save(path)
    assert _snapshot_feature_configs(Model.load(path).config_snapshot) == config


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
    assert dtw_shape_distance(a, b, tau=5.0) == pytest.approx(0.5)


def test_dtw_tau_validation_and_softening():
    a = traj(1, [[0, 0]])
    b = traj(2, [[1, 0]])
    with pytest.raises(ValueError):
        dtw_shape_distance(a, b, tau=0.0)
    assert dtw_shape_distance(a, b, tau=0.5) > dtw_shape_distance(a, b, tau=2.0)


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
    with pytest.raises(ValueError):
        f_cdf(1.0, 0, 3)


def test_f_cdf_monotone():
    grid = [0.1, 0.5, 1.0, 2.0, 5.0, 20.0]
    vals = [f_cdf(s, 2, 7) for s in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < 1.0 for v in vals)


def test_f_cdf_matches_quadrature():
    for d1, d2 in ((1, 1), (2, 5), (3, 10), (5, 2)):
        for s in (0.2, 0.7, 1.0, 1.9, 4.0):
            assert f_cdf(s, d1, d2) == pytest.approx(
                f_cdf_quadrature(s, d1, d2), abs=1e-8
            )


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


def test_window_grid_covers_members():
    a = traj(1, [[0.0, 0.0], [1.0, 0.5]])
    b = traj(2, [[2.0, 2.0], [2.5, 2.9]])
    grid = window_grid(window_of(a, b), FeatureConfig(heat_cell_edge=1.0))
    assert (grid.x0, grid.y0) == (0.0, 0.0)
    assert grid.covers(*grid.cell_of((2.5, 2.9)))
    assert not grid.covers(-1, 0)


def test_heatmap_static_point_peaks_at_cell():
    cfg = FeatureConfig(heat_cell_edge=1.0, heat_k_s=0.5, heat_k_r=0.1)
    seg = traj(1, [[0.2, 0.2], [0.2, 0.2]])
    grid = window_grid(window_of(seg, traj(2, [[3.2, 0.2], [3.2, 0.2]])), cfg)
    heat = heatmap_build(seg, cfg, grid=grid)
    assert heat.shape == (grid.rows, grid.cols)
    assert heat[0, 0] == 1.0  # max-normalized at the visited cell
    # diffusion decays with grid-index distance
    assert heat[0, 1] == pytest.approx(math.exp(-cfg.heat_k_s * 1.0))
    assert heat[0, 2] == pytest.approx(math.exp(-cfg.heat_k_s * 2.0))


def test_heatmap_dwell_time_decay():
    # same cells, longer occupancy: the left cell loses remembered heat;
    # large k_s keeps cross-cell diffusion negligible
    cfg = FeatureConfig(heat_cell_edge=1.0, heat_k_s=50.0, heat_k_r=0.5)
    fast = traj(1, [[0.5, 0.5], [3.5, 0.5]], dt=1.0)
    slow = traj(2, [[0.5, 0.5], [3.5, 0.5]], dt=4.0)
    grid = window_grid(window_of(fast, slow), cfg)
    h_fast = heatmap_build(fast, cfg, grid=grid)
    h_slow = heatmap_build(slow, cfg, grid=grid)
    # first cell dwells 1 s vs 4 s; final cell dwells 0 s and is the peak
    assert h_fast[0, 3] == 1.0 and h_slow[0, 3] == 1.0
    assert h_fast[0, 0] == pytest.approx(math.exp(-0.5 * 1.0), abs=1e-9)
    assert h_slow[0, 0] == pytest.approx(math.exp(-0.5 * 4.0), abs=1e-9)


def test_heatmap_accumulate_modes():
    cfg_b = FeatureConfig(heat_cell_edge=1.0, heat_k_s=50.0, heat_k_r=0.0, heat_accumulate="binary")
    cfg_v = FeatureConfig(heat_cell_edge=1.0, heat_k_s=50.0, heat_k_r=0.0, heat_accumulate="visits")
    # visits cell (0,0) twice and (0,3) once
    seg = traj(1, [[0.5, 0.5], [3.5, 0.5], [0.5, 0.5]])
    other = traj(2, [[0.5, 0.5], [3.5, 0.5], [0.5, 0.5]])
    grid = window_grid(window_of(seg, other), cfg_b)
    h_b = heatmap_build(seg, cfg_b, grid=grid)
    h_v = heatmap_build(seg, cfg_v, grid=grid)
    assert h_b[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert h_b[0, 3] == pytest.approx(1.0, abs=1e-9)
    assert h_v[0, 0] == 1.0
    assert h_v[0, 3] == pytest.approx(0.5, abs=1e-9)


def test_heatmap_grid_auto_expands(caplog):
    cfg = FeatureConfig(heat_cell_edge=1.0)
    small = window_grid(window_of(traj(1, [[0, 0], [1, 1]]), traj(2, [[0, 1], [1, 0]])), cfg)
    wanderer = traj(3, [[5.0, 5.0], [6.0, 6.0]])
    with caplog.at_level(logging.INFO, logger="crowdgroups.features"):
        heat = heatmap_build(wanderer, cfg, grid=small)
    assert heat.shape[0] >= 6 and heat.shape[1] >= 6
    assert any("expanded" in rec.message for rec in caplog.records)


def test_heatmap_distance_cases():
    a = np.array([[1.0, 0.0]])
    b = np.array([[0.0, 1.0]])
    assert heatmap_distance(a, a) == pytest.approx(0.0)
    assert heatmap_distance(a, b) == pytest.approx(1.0)
    assert heatmap_distance(np.zeros((2, 2)), np.ones((2, 2))) == 1.0
    with pytest.raises(ValueError):
        heatmap_distance(np.zeros((1, 2)), np.zeros((2, 1)))


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
    grid = window_grid(win)
    for k in range(len(ia)):
        seg_a, seg_b = win.segments[members[ia[k]]], win.segments[members[ib[k]]]
        overlap = np.intersect1d(seg_a.times, seg_b.times).size > 0
        want = [
            proxemic_distance(seg_a, seg_b) if overlap else 1.0,
            dtw_shape_distance(seg_a, seg_b),
            granger_distance(seg_a, seg_b) if overlap else 1.0,
            heatmap_distance(heatmap_build(seg_a, grid=grid), heatmap_build(seg_b, grid=grid)),
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
    grid = window_grid(win, cfg)
    maps = {m: heatmap_build(seg, cfg, grid=grid) for m, seg in win.segments.items()}
    for m, seg in win.segments.items():
        assert np.array_equal(maps[m], oracles.scalar_heatmap_build(seg, cfg, grid))
    got = scene.feature_matrix[:, 3]
    want = [
        1.0 if far else oracles.scalar_heatmap_distance(maps[a], maps[b])
        for (a, b), far in zip(scene.pairs.tolist(), scene.far)
    ]
    assert got.tolist() == want


def _check_proxemics(win, scene, cfg):
    want = [
        oracles.scalar_proxemic_distance(a, b, cfg) if not (scene.no_overlap[k] or scene.far[k]) else 1.0
        for k, (a, b) in enumerate(_pairs_of(win))
    ]
    assert scene.feature_matrix[:, 0].tolist() == want


def _check_all(win, scene, cfg):
    matrix, fallback, no_overlap, far = oracles.scalar_pair_table(win, cfg)
    assert scene.no_overlap.tolist() == no_overlap.tolist()
    assert scene.far.tolist() == far.tolist()
    assert scene.granger_fallback.tolist() == fallback.tolist()
    assert scene.feature_matrix[:, [0, 1, 3]].tolist() == matrix[:, [0, 1, 3]].tolist()
    assert np.abs(scene.feature_matrix[:, 2] - matrix[:, 2]).max(initial=0.0) <= 1e-12
    _check_heat(win, scene, cfg)


EQUIVALENCE_CASES = {
    "defaults": (FeatureConfig(), _check_all),
    "sigmas": (FeatureConfig(proxemic_sigmas=(0.3, 0.9, 2.5)), _check_proxemics),
    "lag1": (FeatureConfig(granger_lag=1), _check_causality),
    "lag3": (FeatureConfig(granger_lag=3), _check_causality),
    "visits": (FeatureConfig(heat_accumulate="visits"), _check_heat),
    "k_s": (FeatureConfig(heat_k_s=0.1), _check_heat),
}


@pytest.mark.parametrize("case", list(EQUIVALENCE_CASES))
def test_build_scene_matches_scalar_references_on_random_ragged_windows(case):
    # d_ph, d_sh, d_he and the heat maps are bit-identical; d_ca agrees to
    # 1e-12 (another QR); the flags are identical. Non-default settings check
    # the features they change.
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
    src = str(Path(crowdgroups.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]
    win = _synth_window(DENSE_SPEC, 0)
    assert digests[0].strip() == hashlib.sha256(build_scene(win).feature_matrix[:, 3].tobytes()).hexdigest()


def test_build_scene_empty_and_single_member_windows():
    empty = TimeWindow(index=0, start_t=0.0, end_t=1.0, members=frozenset(), segments={})
    for win in (empty, window_of(traj(4, [[0, 0], [1, 1]]))):
        scene = build_scene(win)
        assert scene.feature_matrix.shape == (0, 4)
        assert scene.granger_fallback.shape == scene.no_overlap.shape == scene.far.shape == (0,)


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

