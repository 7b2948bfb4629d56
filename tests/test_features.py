"""Pairwise social features: proxemics, shape, causality, heat maps."""

from __future__ import annotations

import io
import logging
import math

import numpy as np
import pytest

from crowdgroups import (
    ConfigError,
    FeatureConfigs,
    GrangerConfig,
    HeatmapConfig,
    Model,
    PairFeatures,
    ProxemicsConfig,
    RunConfig,
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
    window_grid,
    write_features_csv,
)
from crowdgroups.features import HALL_SIGMAS
from crowdgroups.harness import _snapshot_feature_configs

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
    assert ProxemicsConfig().sigmas == HALL_SIGMAS
    with pytest.raises(ConfigError):
        ProxemicsConfig(())
    with pytest.raises(ConfigError):
        ProxemicsConfig((1.0, -2.0))
    with pytest.raises(ConfigError):
        ProxemicsConfig((2.0, 1.0))


def test_granger_config_validation():
    assert GrangerConfig().lag == 2
    assert GrangerConfig(3).min_samples() == 8
    with pytest.raises(ConfigError):
        GrangerConfig(0)


def test_heatmap_config_validation():
    with pytest.raises(ConfigError):
        HeatmapConfig(cell_edge=0.0)
    with pytest.raises(ConfigError):
        HeatmapConfig(k_s=-1.0)
    with pytest.raises(ConfigError):
        HeatmapConfig(accumulate="sum")


def test_feature_configs_round_trip(tmp_path):
    cfg = FeatureConfigs(
        proxemics=ProxemicsConfig((1.0, 2.0)),
        granger=GrangerConfig(3),
        heatmap=HeatmapConfig(cell_edge=0.5, k_s=0.1, k_r=0.0, accumulate="visits"),
    )
    config = RunConfig(
        proxemic_sigmas=(1.0, 2.0), granger_lag=3, heat_cell_edge=0.5,
        heat_k_s=0.1, heat_k_r=0.0, heat_accumulate="visits",
    )
    assert config.feature_configs() == cfg
    path = tmp_path / "model.json"
    Model(config_snapshot=config.to_flat_dict()).save(path)
    assert _snapshot_feature_configs(Model.load(path).config_snapshot) == cfg


# ---------------------------------------------------------------------------
# PairFeatures / WindowedScene containers


def test_pair_features_validation():
    with pytest.raises(ValueError):
        PairFeatures(pair=(2, 1), d=np.zeros(4))
    with pytest.raises(ValueError):
        PairFeatures(pair=(1, 2), d=np.zeros(3))
    with pytest.raises(ValueError):
        PairFeatures(pair=(1, 2), d=np.array([0.0, 0.5, 1.5, 0.0]))
    with pytest.raises(ValueError):
        PairFeatures(pair=(1, 2), d=np.array([0.0, 0.5, np.nan, 0.0]))


def test_pair_features_vectors():
    d = np.array([0.1, 0.2, 0.3, 0.4])
    pf = PairFeatures(pair=(1, 2), d=d)
    assert np.allclose(pf.augmented, [0.9, 0.8, 0.7, 0.6, 0.1, 0.2, 0.3, 0.4])
    assert np.allclose(pf.affinity_term, [0.9, 0.8, 0.7, 0.6, -0.1, -0.2, -0.3, -0.4])
    w = np.arange(8.0)
    alpha, beta = w[:4], w[4:]
    assert w @ pf.affinity_term == pytest.approx(alpha @ (1 - d) - beta @ d)


def test_windowed_scene_pair_count_checked():
    a = traj(1, [[0, 0], [1, 0]])
    b = traj(2, [[0, 1], [1, 1]])
    win = window_of(a, b)
    with pytest.raises(ValueError):
        WindowedScene(window=win, pairs=())


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
    assert scene.pairs[0].granger_fallback
    assert scene.granger_fallback_count == 1


# ---------------------------------------------------------------------------
# Heat maps


def test_window_grid_covers_members():
    a = traj(1, [[0.0, 0.0], [1.0, 0.5]])
    b = traj(2, [[2.0, 2.0], [2.5, 2.9]])
    grid = window_grid(window_of(a, b), HeatmapConfig(cell_edge=1.0))
    assert (grid.x0, grid.y0) == (0.0, 0.0)
    assert grid.covers(*grid.cell_of((2.5, 2.9)))
    assert not grid.covers(-1, 0)


def test_heatmap_static_point_peaks_at_cell():
    cfg = HeatmapConfig(cell_edge=1.0, k_s=0.5, k_r=0.1)
    seg = traj(1, [[0.2, 0.2], [0.2, 0.2]])
    grid = window_grid(window_of(seg, traj(2, [[3.2, 0.2], [3.2, 0.2]])), cfg)
    heat = heatmap_build(seg, cfg, grid=grid)
    assert heat.shape == (grid.rows, grid.cols)
    assert heat[0, 0] == 1.0  # max-normalized at the visited cell
    # diffusion decays with grid-index distance
    assert heat[0, 1] == pytest.approx(math.exp(-cfg.k_s * 1.0))
    assert heat[0, 2] == pytest.approx(math.exp(-cfg.k_s * 2.0))


def test_heatmap_dwell_time_decay():
    # same cells, longer occupancy: the left cell loses remembered heat;
    # large k_s keeps cross-cell diffusion negligible
    cfg = HeatmapConfig(cell_edge=1.0, k_s=50.0, k_r=0.5)
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
    cfg_b = HeatmapConfig(cell_edge=1.0, k_s=50.0, k_r=0.0, accumulate="binary")
    cfg_v = HeatmapConfig(cell_edge=1.0, k_s=50.0, k_r=0.0, accumulate="visits")
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
    cfg = HeatmapConfig(cell_edge=1.0)
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
    assert scene.pair_ids == ((1, 2), (1, 3), (2, 3))
    assert scene.feature_matrix.shape == (3, 4)
    assert np.allclose(scene.augmented, np.hstack([1 - scene.feature_matrix, scene.feature_matrix]))
    assert np.allclose(scene.affinity_terms, np.hstack([1 - scene.feature_matrix, -scene.feature_matrix]))
    # close parallel mates are nearer than the crossing stranger in every feature
    d_ab = scene.pairs[0].d
    d_ac = scene.pairs[1].d
    assert d_ab[0] < d_ac[0] and d_ab[1] < d_ac[1]


def test_build_scene_no_overlap_pair():
    a = traj(1, [[0, 0], [1, 0]], t0=0.0)
    b = traj(2, [[0, 1], [1, 1]], t0=100.0)
    win = window_of(a, b, start=0.0, end=102.0)
    scene = build_scene(win)
    pair = scene.pairs[0]
    assert pair.no_overlap
    assert pair.d[0] == 1.0 and pair.d[2] == 1.0  # proxemics and causality pinned
    assert scene.no_overlap_count == 1
    assert 0.0 <= pair.d[1] <= 1.0 and 0.0 <= pair.d[3] <= 1.0


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
    scene = WindowedScene(window=win, pairs=(PairFeatures(pair=(1, 2), d=d),))
    buf = io.StringIO()
    write_features_csv([scene], buf)
    assert buf.getvalue().splitlines() == [
        "window,a,b,d_ph,d_sh,d_ca,d_he",
        "0,1,2,0.25,0.5,0.75,1",
    ]
