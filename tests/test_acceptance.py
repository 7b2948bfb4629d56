"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints one `criterion N PASS` line with the measured quantities;
the optional dataset-replication criterion is skipped unless the environment
points at real recordings (CROWDGROUPS_BIWI_DIR).
"""

from __future__ import annotations

import functools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from crowdgroups import (
    AffinityMatrix,
    FeatureConfig,
    LOSSES,
    Model,
    Partition,
    RunConfig,
    SynthSpec,
    TimeWindow,
    TrainConfig,
    TrainingExample,
    Trajectory,
    affinity,
    bcfw_train,
    build_scene,
    dtw_shape_distance,
    f_cdf,
    gmitre_loss,
    gmitre_score,
    gmm_eval,
    granger_causality_area,
    granger_distance,
    greedy_cc,
    joint_feature_map,
    loss_augmented_oracle,
    mitre_loss,
    partition_score,
    predict,
    run_experiment,
    slice_windows,
    synth_generate,
    window_ground_truth,
    write_dataset,
)
from crowdgroups.features import HALL_SIGMAS

from oracles import (
    brute_force_best_partition,
    dtw_path_minimum,
    f_cdf_quadrature,
    iter_set_partitions,
    random_partition,
    random_scene,
    spanning_score,
)


def _sym(rng, n, scale=1.0):
    m = rng.normal(scale=scale, size=(n, n))
    return (m + m.T) / 2.0


@functools.lru_cache(maxsize=1)
def _clustering_instances():
    """The criterion-2 instances: 1000 random and 200 block-structured."""
    rng = np.random.default_rng(2024)
    random_instances = []
    for _ in range(1000):
        members = tuple(range(1, 7))
        mat = AffinityMatrix(members, _sym(rng, 6))
        part, trace = greedy_cc(mat)
        _, best = brute_force_best_partition(members, lambda p: partition_score(p, mat))
        random_instances.append((mat, part, trace, best))
    block_instances = []
    for _ in range(200):
        members = list(range(1, 7))
        planted = random_partition(members, rng)
        labels = planted.labels()
        m = np.zeros((6, 6))
        for i in range(6):
            for j in range(i + 1, 6):
                same = labels[members[i]] == labels[members[j]]
                v = rng.uniform(0.2, 1.0) if same else -rng.uniform(0.2, 1.0)
                m[i, j] = m[j, i] = v
        mat = AffinityMatrix(members, m)
        part, trace = greedy_cc(mat)
        _, best = brute_force_best_partition(members, lambda p: partition_score(p, mat))
        block_instances.append((mat, part, trace, best, planted))
    return random_instances, block_instances


def test_criterion_01_group_aware_scoring_exact():
    start = time.monotonic()
    a, b, c = 1, 2, 3
    assert gmitre_loss(Partition([[a], [b], [c]]), Partition([[a, b], [c]])) == pytest.approx(0.6, abs=1e-12)
    assert gmitre_loss(Partition([[a, b], [c]]), Partition([[a, b, c]])) == pytest.approx(0.5, abs=1e-12)
    assert mitre_loss(Partition([[a, b], [c, 4]]), Partition([[a, b, c, 4]])) == pytest.approx(0.2, abs=1e-12)

    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        members = list(range(1, n + 1))
        truth = random_partition(members, rng)
        pred = random_partition(members, rng)
        want_r, want_p, want_f = spanning_score(truth.clusters, pred.clusters, augmented=True)
        got = gmitre_score(truth, pred)
        worst = max(
            worst,
            abs(got.recall - want_r),
            abs(got.precision - want_p),
            abs(got.f1 - want_f),
        )
    elapsed = time.monotonic() - start
    assert worst <= 1e-12
    assert elapsed < 10.0
    print(f"criterion 1 PASS: frozen values exact, 1000-pair oracle gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_clustering_vs_exhaustive():
    start = time.monotonic()
    random_instances, block_instances = _clustering_instances()
    for mat, part, _, best in random_instances:
        assert partition_score(part, mat) <= partition_score(best, mat) + 1e-12
    for mat, part, _, best, planted in block_instances:
        assert part == best == planted
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        "criterion 2 PASS: greedy <= exhaustive on 1000 random instances, "
        f"exact on 200 block-structured, {elapsed:.1f}s"
    )


def test_criterion_03_merge_structure_properties():
    random_instances, block_instances = _clustering_instances()
    members = list(range(1, 7))
    for mat, part, trace, *_ in random_instances + block_instances:
        states = trace.replay(members)
        assert states[-1] == part  # replay reaches the result, no invalid step

    rng = np.random.default_rng(33)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        ids = list(range(1, n + 1))
        base = _sym(rng, n)
        reference, _ = greedy_cc(AffinityMatrix(ids, base))
        for lam in (0.1, 1.0, 7.3):
            scaled, _ = greedy_cc(AffinityMatrix(ids, lam * base))
            assert scaled == reference

    mat = AffinityMatrix([1, 2, 3], [[0, 1.0, -0.5], [1.0, 0, 1.0], [-0.5, 1.0, 0]])
    part, _ = greedy_cc(mat)
    assert part == Partition([[1, 2, 3]])
    print(
        "criterion 3 PASS: 1200 traces replay coherently, argmax scale-invariant "
        "for lambda in {0.1, 1, 7.3}, transitivity example fused"
    )


def test_criterion_04_feature_oracles():
    rng = np.random.default_rng(44)
    worst_dtw = 0.0
    for _ in range(500):
        na, nb = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        pa, pb = rng.normal(size=(na, 2)), rng.normal(size=(nb, 2))
        raw = dtw_path_minimum(pa, pb)
        got = dtw_shape_distance(
            Trajectory(1, np.arange(na, dtype=float), pa),
            Trajectory(2, np.arange(nb, dtype=float), pb),
        )
        worst_dtw = max(worst_dtw, abs(got - raw / (raw + 1.0)))
    assert worst_dtw <= 1e-9

    assert abs(f_cdf(1.0, 1, 1) - 0.5) <= 1e-10
    worst_f = 0.0
    grid = [
        (s, m, dof)
        for s in (0.1, 0.4, 0.8, 1.0, 1.7, 2.6, 4.0, 7.5, 12.0, 30.0)
        for (m, dof) in ((1, 1), (1, 9), (2, 5), (3, 12), (5, 40))
    ]
    assert len(grid) == 50
    for s, m, dof in grid:
        worst_f = max(worst_f, abs(f_cdf(s, m, dof) - f_cdf_quadrature(s, m, dof)))
    assert worst_f <= 1e-8

    closed = float(np.mean([1.0 / (2 * math.pi * s * s) for s in HALL_SIGMAS]))
    assert gmm_eval(0.0) == pytest.approx(closed, abs=1e-12)
    assert abs(gmm_eval(0.0) - 0.190) <= 1e-3

    pair_count = 0
    scenes = 0
    while pair_count < 10_000:
        n = 8
        k = int(rng.integers(2, 25))
        segs = {}
        for m in range(1, n + 1):
            t0 = float(rng.integers(0, 3)) if rng.random() < 0.3 else 0.0
            pts = np.cumsum(rng.normal(scale=0.5, size=(k, 2)), axis=0)
            if rng.random() < 0.1:
                pts = np.tile(rng.normal(size=2), (k, 1))  # loiterer
            segs[m] = Trajectory(m, t0 + np.arange(k, dtype=float), pts)
        window = TimeWindow(
            index=scenes, start_t=0.0, end_t=float(k + 3),
            members=frozenset(segs), segments=segs,
        )
        scene = build_scene(window)
        fm = scene.feature_matrix
        assert np.all(np.isfinite(fm)) and fm.min() >= 0.0 and fm.max() <= 1.0
        pair_count += len(scene.pairs)
        scenes += 1
    print(
        f"criterion 4 PASS: DTW oracle gap {worst_dtw:.2e}, F-CDF quadrature gap "
        f"{worst_f:.2e}, mixture peak {gmm_eval(0.0):.5f}, {pair_count} pairs in [0,1]"
    )


def _straight_walk(rng, k, phi=0.5):
    eps = rng.normal(size=k)
    s = np.empty(k)
    s[0] = eps[0]
    for t in range(1, k):
        s[t] = phi * s[t - 1] + eps[t]
    theta = rng.uniform(0.0, 2.0 * math.pi)
    start = rng.uniform(-5.0, 5.0, size=2)
    return start + s[:, None] * np.array([math.cos(theta), math.sin(theta)])


def test_criterion_05_causality_planting_and_null():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    k = 80
    d_cas = []
    for _ in range(50):
        lag = int(rng.integers(1, 3))  # lag <= regression order m = 2
        steps = rng.normal(scale=0.3, size=(k + lag, 2))
        leader = np.cumsum(steps, axis=0)
        follower = leader[: k] + rng.normal(scale=0.02, size=(k, 2)) + [0.4, 0.0]
        lead_t = Trajectory(1, np.arange(k, dtype=float), leader[lag : k + lag])
        foll_t = Trajectory(2, np.arange(k, dtype=float), follower)
        d_cas.append(granger_distance(lead_t, foll_t, FeatureConfig(granger_lag=2)))
    median_dca = float(np.median(d_cas))
    assert median_dca < 0.05

    rng = np.random.default_rng(0)
    areas = []
    for _ in range(1000):
        a = Trajectory(1, np.arange(60, dtype=float), _straight_walk(rng, 60))
        b = Trajectory(2, np.arange(60, dtype=float), _straight_walk(rng, 60))
        area = granger_causality_area(b, a, lag=2)
        assert area is not None
        areas.append(area)
    null_mean = float(np.mean(areas))
    elapsed = time.monotonic() - start
    assert abs(null_mean - 0.5) <= 0.05
    assert elapsed < 60.0
    print(
        f"criterion 5 PASS: planted-pair median d_ca {median_dca:.4f}, "
        f"independent-walk null mean {null_mean:.4f}, {elapsed:.1f}s"
    )


def test_criterion_06_learning_consistency():
    rng = np.random.default_rng(66)
    worst_compat = 0.0
    for _ in range(200):
        scene = random_scene(int(rng.integers(1, 7)), rng)
        w = rng.normal(size=8) * 2
        p = random_partition(list(scene.members), rng)
        gap = abs(float(w @ joint_feature_map(scene, p)) - partition_score(p, affinity(scene, w)))
        worst_compat = max(worst_compat, gap)
    assert worst_compat <= 1e-9

    trajs, labels = synth_generate(SynthSpec(duration=60.0), seed=1)
    windows = [w for w in slice_windows(trajs, 10.0, 10.0) if w.members]
    examples = [
        TrainingExample(s, window_ground_truth(s.window, labels))
        for s in (build_scene(w) for w in windows)
    ]
    checked = 0
    worst_identity = 0.0

    def hook(state, info):
        nonlocal checked, worst_identity
        assert 0.0 <= info.gamma <= 1.0
        gap = float(np.max(np.abs(state.w - np.sum(state.block_w, axis=0))))
        worst_identity = max(worst_identity, gap)
        checked += 1

    bcfw_train(examples, TrainConfig(max_iterations=200), iteration_hook=hook)
    assert checked == 200
    assert worst_identity <= 1e-9

    worst_hinge_gap = -np.inf
    for _ in range(200):
        n = int(rng.integers(1, 8))
        scene = random_scene(n, rng)
        truth = random_partition(list(scene.members), rng)
        example = TrainingExample(scene, truth)
        w = rng.normal(size=8) * 2
        loss_name = ("gmitre", "mitre", "pairwise")[int(rng.integers(3))]
        loss_fn = LOSSES[loss_name]
        hinge = loss_augmented_oracle(example, w, loss_name).hinge
        psi_truth = joint_feature_map(scene, truth)
        best = max(
            loss_fn(truth, Partition(blocks))
            + float(w @ (joint_feature_map(scene, Partition(blocks)) - psi_truth))
            for blocks in iter_set_partitions(list(scene.members))
        )
        assert hinge >= 0.0
        assert hinge <= best + 1e-9
        worst_hinge_gap = max(worst_hinge_gap, hinge - best)
    print(
        f"criterion 6 PASS: compatibility gap {worst_compat:.2e}, block-identity gap "
        f"{worst_identity:.2e}, gamma in [0,1] for 200 steps, oracle <= exhaustive "
        f"max on 200 windows (worst slack {worst_hinge_gap:.2e})"
    )


def test_criterion_07_end_to_end_recovery(tmp_path):
    start = time.monotonic()
    trajs, labels = synth_generate(SynthSpec(), seed=0)
    data_dir = tmp_path / "scene"
    write_dataset(data_dir, trajs, labels, fps=SynthSpec().fps, seed=0)
    result = run_experiment(RunConfig(runs=5), data_dir, tmp_path / "report")
    rows = []
    for run in result["runs"]:
        metrics = (tmp_path / "report" / f"run-{run['seed']}" / "metrics.csv").read_text()
        gmitre_row = [r for r in metrics.splitlines() if r.startswith("gmitre,")][0]
        _, precision, recall, _ = gmitre_row.split(",")
        rows.append((run["seed"], float(precision), float(recall)))
    elapsed = time.monotonic() - start
    for seed, precision, recall in rows:
        assert precision >= 0.90, (seed, precision)
        assert recall >= 0.90, (seed, recall)
    assert elapsed < 300.0
    summary = ", ".join(f"seed {s}: P {p:.3f} R {r:.3f}" for s, p, r in rows)
    print(f"criterion 7 PASS: {summary}, {elapsed:.1f}s")


def test_criterion_08_loss_choice_ordering():
    spec = SynthSpec(
        n_groups=2, group_size_min=2, group_size_max=2,
        n_singletons=8, extent=22.0, noise_std=0.12,
    )
    trajs, labels = synth_generate(spec, seed=11)
    n_single = spec.n_singletons
    n_grouped = 2 * 2
    assert n_single / (n_single + n_grouped) >= 0.5  # singleton-rich by design
    windows = slice_windows(trajs, 10.0, 10.0)
    t0 = min(t.start_t for t in trajs)
    split = t0 + 100.0 + 1e-9
    train_scenes = [build_scene(w) for w in windows if w.end_t <= split and w.members]
    test_scenes = [build_scene(w) for w in windows if w.end_t > split and w.members]
    examples = [
        TrainingExample(s, window_ground_truth(s.window, labels)) for s in train_scenes
    ]
    truths = [window_ground_truth(s.window, labels) for s in test_scenes]

    means = {}
    for loss in ("gmitre", "pairwise"):
        f1s = []
        for seed in range(5):
            model = bcfw_train(
                examples, TrainConfig(loss=loss, max_iterations=300, seed=seed)
            )
            scores = [
                gmitre_score(truth, predict(scene, model))
                for scene, truth in zip(test_scenes, truths)
            ]
            f1s.append(float(np.mean([s.f1 for s in scores])))
        means[loss] = float(np.mean(f1s))
    assert means["gmitre"] > means["pairwise"]
    print(
        "criterion 8 PASS: singleton-rich test f1 "
        f"{means['gmitre']:.4f} (group-aware loss) > {means['pairwise']:.4f} (pairwise loss)"
    )


TABLE_TARGETS = {"hotel": (0.973, 0.977), "eth": (0.918, 0.942)}


@pytest.mark.skipif(
    "CROWDGROUPS_BIWI_DIR" not in os.environ,
    reason="set CROWDGROUPS_BIWI_DIR to a directory of real dataset directories",
)
def test_criterion_09_dataset_replication(tmp_path):
    root = Path(os.environ["CROWDGROUPS_BIWI_DIR"])
    candidates = [root] if (root / "trajectories.txt").is_file() else sorted(
        d for d in root.iterdir() if (d / "trajectories.txt").is_file()
    )
    assert candidates, f"no dataset directories under {root}"
    reports = []
    for data_dir in candidates:
        result = run_experiment(RunConfig(runs=5), data_dir, tmp_path / data_dir.name)
        p = result["summary"]["gmitre"]["precision"]["mean"]
        r = result["summary"]["gmitre"]["recall"]["mean"]
        reports.append(f"{data_dir.name}: P {p:.3f} R {r:.3f}")
        for key, (want_p, want_r) in TABLE_TARGETS.items():
            if key in data_dir.name.lower():
                assert abs(p - want_p) <= 0.10, (data_dir.name, p)
                assert abs(r - want_r) <= 0.10, (data_dir.name, r)
    print("criterion 9 PASS: " + "; ".join(reports))
