"""Structured max-margin learning of the affinity weights."""

from __future__ import annotations

import numpy as np
import pytest

from crowdgroups import (
    ConfigError,
    GroundTruthLabels,
    LOSSES,
    Model,
    Partition,
    TrainConfig,
    TrainingExample,
    Trajectory,
    TimeWindow,
    WindowedScene,
    bcfw_train,
    compatibility,
    affinity,
    greedy_cc,
    joint_feature_map,
    loss_augmented_oracle,
    make_training_examples,
    online_predict_train,
    partition_score,
    predict,
    primal_objective,
    sequential_train,
    slice_windows,
)
from crowdgroups.losses import MergeLoss

from oracles import (
    iter_set_partitions,
    make_scene,
    random_partition,
    random_scene,
    reference_oracle,
)


def separable_scene(members=(1, 2, 3, 4), mates=((1, 2), (3, 4)), near=0.1, far=0.9):
    """Scene whose mate pairs are near in every feature and strangers far."""
    mates_set = {tuple(sorted(p)) for p in mates}
    d_by_pair = {}
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            v = near if (a, b) in mates_set else far
            d_by_pair[(a, b)] = np.full(4, v)
    return make_scene(list(members), d_by_pair)


def separable_example(**kwargs):
    scene = separable_scene(**kwargs)
    truth = Partition([[1, 2], [3, 4]])
    return TrainingExample(scene, truth)


def empty_scene():
    win = TimeWindow(index=0, start_t=0.0, end_t=1.0, members=frozenset(), segments={})
    return WindowedScene(window=win, pairs=())


# ---------------------------------------------------------------------------
# Containers and configuration


def test_training_example_validates_members():
    scene = separable_scene()
    with pytest.raises(ValueError):
        TrainingExample(scene, Partition([[1, 2], [3]]))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(C=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(max_iterations=-1)
    with pytest.raises(ConfigError):
        TrainConfig(loss="accuracy")
    with pytest.raises(ConfigError):
        TrainConfig(early_stop_patience=0)
    with pytest.raises(ConfigError):
        TrainConfig(objective_every=-1)
    with pytest.raises(ConfigError):
        TrainConfig(sequential_budget=0)


def test_losses_registry():
    assert set(LOSSES) == {"gmitre", "mitre", "pairwise"}


# ---------------------------------------------------------------------------
# Joint feature map


def test_joint_feature_map_singletons_zero():
    scene = separable_scene()
    p = Partition([[m] for m in scene.members])
    assert np.array_equal(joint_feature_map(scene, p), np.zeros(8))


def test_joint_feature_map_sums_cluster_pairs():
    scene = separable_scene()
    p = Partition([[1, 2], [3], [4]])
    row = scene.affinity_terms[0]  # pair (1, 2)
    assert np.allclose(joint_feature_map(scene, p), row)


def test_joint_feature_map_member_mismatch():
    scene = separable_scene()
    with pytest.raises(ValueError):
        joint_feature_map(scene, Partition([[1, 2], [3], [9]]))


def test_compatibility_equals_partition_score():
    rng = np.random.default_rng(14)
    for _ in range(60):
        scene = random_scene(int(rng.integers(1, 7)), rng)
        w = rng.normal(size=8)
        p = random_partition(list(scene.members), rng)
        want = partition_score(p, affinity(scene, w))
        assert compatibility(scene, p, w) == pytest.approx(want, abs=1e-9)


def test_compatibility_weight_shape_checked():
    scene = separable_scene()
    with pytest.raises(ValueError):
        compatibility(scene, Partition([[1, 2], [3, 4]]), np.ones(5))


# ---------------------------------------------------------------------------
# Incremental loss tracking


@pytest.mark.parametrize("kind", sorted(LOSSES))
def test_loss_tracker_matches_public_loss_along_merges(kind):
    # every candidate of the merge scorer, not gain + current (that sum rounds)
    rng = np.random.default_rng(15)
    loss_fn = LOSSES[kind]
    for _ in range(40):
        n = int(rng.integers(2, 8))
        members = list(range(1, n + 1))
        truth = random_partition(members, rng)
        scorer = MergeLoss(kind, truth, members)
        clusters = [[m] for m in members]
        assert scorer.current == loss_fn(truth, Partition(clusters))
        while len(clusters) >= 2:
            candidates = scorer.candidates()
            for i in range(len(clusters)):
                for j in range(i + 1, len(clusters)):
                    rest = [c for k, c in enumerate(clusters) if k not in (i, j)]
                    merged = Partition(rest + [clusters[i] + clusters[j]])
                    assert candidates[i, j] == loss_fn(truth, merged)
            i, j = sorted(int(k) for k in rng.choice(len(clusters), size=2, replace=False))
            scorer.merge(i, j)
            clusters[i] = clusters[i] + clusters.pop(j)
            assert scorer.current == loss_fn(truth, Partition(clusters))


# ---------------------------------------------------------------------------
# Loss-augmented oracle


@pytest.mark.parametrize("loss", sorted(LOSSES))
def test_oracle_bounded_by_exhaustive_maximum(loss):
    rng = np.random.default_rng(16)
    loss_fn = LOSSES[loss]
    for _ in range(40):
        n = int(rng.integers(1, 6))
        scene = random_scene(n, rng)
        members = list(scene.members)
        truth = random_partition(members, rng)
        example = TrainingExample(scene, truth)
        w = rng.normal(size=8)
        y_star, hinge = loss_augmented_oracle(example, w, loss)
        psi_truth = joint_feature_map(scene, truth)

        def h(p):
            return loss_fn(truth, p) + float(
                w @ (joint_feature_map(scene, p) - psi_truth)
            )

        best = max(h(Partition(blocks)) for blocks in iter_set_partitions(members))
        assert hinge == pytest.approx(h(y_star), abs=1e-9) or (
            y_star == truth and hinge == 0.0
        )
        assert -1e-12 <= hinge <= best + 1e-9


@pytest.mark.parametrize("loss", sorted(LOSSES))
def test_oracle_matches_scalar_reference_exactly(loss):
    rng = np.random.default_rng(18)
    for trial in range(150):
        scene = random_scene(int(rng.integers(0, 10)), rng)
        w = rng.normal(size=8) * 2
        if trial % 2:
            # integer weights on 0/1 distances make integer affinities: ties
            scene = make_scene(
                list(scene.members),
                {pair.pair: rng.integers(0, 2, size=4).astype(float) for pair in scene.pairs},
            )
            w = rng.integers(-2, 3, size=8).astype(float)
        example = TrainingExample(scene, random_partition(list(scene.members), rng))
        assert loss_augmented_oracle(example, w, loss) == reference_oracle(example, w, loss)


def test_oracle_hinge_never_negative():
    rng = np.random.default_rng(17)
    for _ in range(80):
        scene = random_scene(int(rng.integers(1, 7)), rng)
        truth = random_partition(list(scene.members), rng)
        _, hinge = loss_augmented_oracle(
            TrainingExample(scene, truth), rng.normal(size=8) * 3
        )
        assert hinge >= 0.0


def test_oracle_empty_scene():
    example = TrainingExample(empty_scene(), Partition([]))
    y, hinge = loss_augmented_oracle(example, np.ones(8))
    assert y == Partition([]) and hinge == 0.0


def test_oracle_rejects_bad_arguments():
    example = separable_example()
    with pytest.raises(ValueError):
        loss_augmented_oracle(example, np.ones(8), loss="nope")
    with pytest.raises(ValueError):
        loss_augmented_oracle(example, np.ones(3))


# ---------------------------------------------------------------------------
# Batch training


def test_bcfw_block_identity_and_gamma_range():
    examples = [
        separable_example(),
        separable_example(near=0.2, far=0.8),
        separable_example(near=0.05, far=0.95),
    ]
    gammas = []

    def hook(state, info):
        gammas.append(info.gamma)
        assert np.allclose(state.w, np.sum(state.block_w, axis=0), atol=1e-9)

    model = bcfw_train(examples, TrainConfig(max_iterations=120), iteration_hook=hook)
    assert len(gammas) == 120
    assert all(0.0 <= g <= 1.0 for g in gammas)
    assert np.allclose(model.w, model.block_w.sum(axis=0), atol=1e-9)
    assert model.l == pytest.approx(float(np.sum(model.block_l)), abs=1e-9)


def test_bcfw_gamma_zero_on_degenerate_block():
    # single-member scene: the oracle can only return the truth, so the block
    # direction never moves and the line search denominator is zero
    win = TimeWindow(index=0, start_t=0.0, end_t=1.0, members=frozenset({7}),
                     segments={7: Trajectory(7, np.array([0.0, 1.0]), np.zeros((2, 2)))})
    scene = WindowedScene(window=win, pairs=())
    example = TrainingExample(scene, Partition([[7]]))
    gammas = []
    bcfw_train([example], TrainConfig(max_iterations=5),
               iteration_hook=lambda s, i: gammas.append(i.gamma))
    assert gammas == [0.0] * 5


def test_bcfw_learns_separable_data():
    examples = [separable_example()]
    model = bcfw_train(examples, TrainConfig(max_iterations=300, seed=1))
    scene = examples[0].scene
    assert predict(scene, model) == examples[0].truth
    # mates' affinity positive, strangers' negative under the learned weights
    m = affinity(scene, model.w)
    assert m.value(1, 2) > 0.0 > m.value(1, 3)


def test_bcfw_objective_decreases():
    examples = [separable_example(), separable_example(near=0.3, far=0.7)]
    start = primal_objective(
        examples, Model(w=np.zeros(8), C=10.0, seed=0, loss="gmitre")
    )
    model = bcfw_train(examples, TrainConfig(max_iterations=200, seed=2))
    assert primal_objective(examples, model) < start


def test_bcfw_deterministic_per_seed():
    examples = [separable_example(), separable_example(near=0.2, far=0.8)]
    m1 = bcfw_train(examples, TrainConfig(max_iterations=80, seed=5))
    m2 = bcfw_train(examples, TrainConfig(max_iterations=80, seed=5))
    m3 = bcfw_train(examples, TrainConfig(max_iterations=80, seed=6))
    assert np.array_equal(m1.w, m2.w)
    assert not np.array_equal(m1.w, m3.w)


def test_bcfw_early_stop_halts():
    # truth is all-singletons with zero-gain affinities: hinge starts at 0,
    # objective never improves, patience trips immediately
    scene = separable_scene(mates=())
    example = TrainingExample(scene, Partition([[m] for m in scene.members]))
    model = bcfw_train(
        [example],
        TrainConfig(max_iterations=500, early_stop=True, early_stop_patience=5),
    )
    assert model.iterations < 500


def test_bcfw_requires_examples():
    with pytest.raises(ConfigError):
        bcfw_train([], TrainConfig())


def test_train_log_csv(tmp_path):
    path = tmp_path / "train_log.csv"
    examples = [separable_example()]
    bcfw_train(examples, TrainConfig(max_iterations=10, objective_every=5), log=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,block,hinge,gamma,objective"
    assert len(lines) == 11
    for k, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        assert int(fields[0]) == k
        assert fields[1] == "0"
        has_objective = fields[4] != ""
        assert has_objective == (k % 5 == 0)


# ---------------------------------------------------------------------------
# Model persistence


def test_model_snapshot_round_trip(tmp_path):
    examples = [separable_example()]
    model = bcfw_train(examples, TrainConfig(max_iterations=40))
    path = tmp_path / "model.json"
    model.save(path)
    back = Model.load(path)
    assert np.array_equal(back.w, model.w)
    assert np.array_equal(back.block_w, model.block_w)
    assert back.l == model.l
    assert back.C == model.C
    assert back.loss == model.loss
    assert back.mode == model.mode
    assert back.iterations == model.iterations


def test_model_load_rejects_garbage(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("not json")
    with pytest.raises(ConfigError):
        Model.load(path)
    path.write_text('{"format_version": 99}')
    with pytest.raises(ConfigError):
        Model.load(path)


def test_model_views_and_copy():
    model = Model(w=np.arange(8.0), C=1.0, seed=0, loss="gmitre")
    assert np.array_equal(model.alpha, [0, 1, 2, 3])
    assert np.array_equal(model.beta, [4, 5, 6, 7])
    assert model.nonnegative_weights
    other = model.copy()
    other.w[0] = -5.0
    assert model.w[0] == 0.0
    assert not other.nonnegative_weights


# ---------------------------------------------------------------------------
# Sequential and online modes


def test_sequential_single_example_matches_batch():
    example = separable_example()
    cfg = TrainConfig(seed=3, sequential_budget=60, max_iterations=60)
    snapshots = list(sequential_train([example], cfg))
    batch = bcfw_train([example], cfg)
    assert len(snapshots) == 1
    assert snapshots[0].mode == "sequential"
    assert np.array_equal(snapshots[0].w, batch.w)


def test_sequential_yields_per_arrival():
    examples = [separable_example(), separable_example(near=0.2, far=0.8)]
    snaps = list(sequential_train(examples, TrainConfig(sequential_budget=10)))
    assert len(snaps) == 2
    assert snaps[0].iterations == 10
    assert snaps[1].iterations == 20
    assert snaps[1].block_w.shape == (2, 8)


def test_online_predict_train_yields_and_updates():
    example = separable_example()
    init = bcfw_train([example], TrainConfig(max_iterations=150))
    scenes = [separable_scene(), separable_scene(near=0.15, far=0.85)]
    out = list(online_predict_train(scenes, init, TrainConfig(online_budget=5)))
    assert len(out) == 2
    for pred, model in out:
        assert isinstance(pred, Partition)
        assert model.mode == "online"
    assert out[0][0] == example.truth  # separable scene is grouped correctly
    assert out[1][1].iterations == init.iterations + 10


def test_sequential_snapshots_unchanged_by_later_arrivals():
    examples = [
        separable_example(),
        separable_example(near=0.2, far=0.8),
        separable_example(near=0.3, far=0.7),
    ]
    taken = []
    for model in sequential_train(examples, TrainConfig(sequential_budget=10)):
        taken.append((model, model.w.copy(), model.block_w.copy(), model.block_l.copy()))
    assert [m.block_w.shape[0] for m, *_ in taken] == [1, 2, 3]
    for model, w, block_w, block_l in taken:
        assert np.array_equal(model.w, w)
        assert np.array_equal(model.block_w, block_w)
        assert np.array_equal(model.block_l, block_l)


def test_online_predict_train_leaves_init_unchanged():
    init = bcfw_train([separable_example()], TrainConfig(max_iterations=3),
                      config_snapshot={"window_len": 8.0})
    before = init.to_dict()
    scenes = [separable_scene(), separable_scene(near=0.3, far=0.6), separable_scene()]
    out = list(online_predict_train(scenes, init, TrainConfig(online_budget=4)))
    assert init.to_dict() == before
    assert [model.iterations for _, model in out] == [init.iterations + 4 * k for k in (1, 2, 3)]
    for _, model in out:
        assert model.block_w.shape == (1, 8)
        assert model.block_l.shape == (1,)
        assert model.config_snapshot == init.config_snapshot
        assert np.allclose(model.w, model.block_w[0], atol=1e-12)


def test_predict_accepts_model_or_vector():
    scene = separable_scene()
    w = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    model = Model(w=w, C=1.0, seed=0, loss="gmitre")
    assert predict(scene, model) == predict(scene, w)
    assert predict(empty_scene(), w) == Partition([])


# ---------------------------------------------------------------------------
# Margin property on separable data


def test_margin_invariant_after_training():
    example = separable_example()
    model = bcfw_train([example], TrainConfig(max_iterations=400, seed=4))
    scene, truth = example.scene, example.truth
    w = model.w
    psi_truth = joint_feature_map(scene, truth)
    _, xi = loss_augmented_oracle(example, w, "gmitre")
    for blocks in iter_set_partitions(list(scene.members)):
        p = Partition(blocks)
        delta = LOSSES["gmitre"](truth, p)
        slack = float(w @ (psi_truth - joint_feature_map(scene, p)))
        assert slack >= delta - xi - 1e-9


# ---------------------------------------------------------------------------
# Example assembly from windows


def test_make_training_examples_skips_empty_windows():
    times = np.arange(0.0, 10.0)
    a = Trajectory(1, times, np.column_stack([times * 0.1, np.zeros(10)]))
    b = Trajectory(2, times + 20.0, np.column_stack([times * 0.1, np.ones(10)]))
    windows = slice_windows([a, b], 10.0, 10.0)
    labels = GroundTruthLabels([])
    examples = make_training_examples(windows, labels)
    assert len(examples) == len([w for w in windows if w.members])
    for ex in examples:
        assert ex.truth.members == set(ex.scene.members)
