"""Structured max-margin learning of the affinity weights."""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import json
import math
from pathlib import Path
from typing import get_args

import numpy as np
import pytest

from crowdgroups import (
    ConfigError,
    LOSSES,
    Model,
    Partition,
    RunConfig,
    SynthSpec,
    TrainConfig,
    TrainingExample,
    Trajectory,
    TimeWindow,
    WindowedScene,
    bcfw_train,
    affinity,
    greedy_cc,
    joint_feature_map,
    loss_augmented_oracle,
    make_training_examples,
    online_predict_train,
    predict,
    slice_windows,
    synth_generate,
)
from crowdgroups import features, learning
from crowdgroups.harness import train_model
from crowdgroups.losses import MergeLoss

from oracles import (
    affinity_value,
    iter_set_partitions,
    make_scene,
    pair_enumeration_psi,
    partition_from_labels,
    partition_score,
    primal_objective,
    random_partition,
    random_scene,
    reference_bcfw_step,
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
    return WindowedScene(window=win, feature_matrix=np.zeros((0, 4)))


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
    # max_iterations is the one update budget of every training mode
    assert [f.name for f in dataclasses.fields(TrainConfig)] == ["C", "max_iterations", "seed", "loss"]
    for removed in ("sequential_budget", "online_budget"):
        with pytest.raises(TypeError):
            TrainConfig(**{removed: 10})


def test_losses_registry():
    assert set(LOSSES) == set(get_args(learning.LossKind)) == {"gmitre", "mitre", "pairwise"}


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


def test_joint_feature_map_matches_pair_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(150):
        scene = random_scene(int(rng.integers(1, 12)), rng)
        for p in (random_partition(list(scene.members), rng), Partition([scene.members])):
            want = pair_enumeration_psi(scene, p)
            assert joint_feature_map(scene, p).tolist() == want.tolist()


def test_joint_feature_map_member_mismatch():
    scene = separable_scene()
    with pytest.raises(ValueError):
        joint_feature_map(scene, Partition([[1, 2], [3], [9]]))


def test_compatibility_equals_partition_score():
    # w @ Psi(scene, p), the compatibility of a partition, is its affinity score
    rng = np.random.default_rng(14)
    for _ in range(60):
        scene = random_scene(int(rng.integers(1, 7)), rng)
        w = rng.normal(size=8)
        p = random_partition(list(scene.members), rng)
        want = partition_score(p, affinity(scene, w))
        assert float(w @ joint_feature_map(scene, p)) == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# Incremental loss tracking


@pytest.mark.parametrize("kind", sorted(LOSSES))
def test_loss_tracker_matches_public_loss_along_merges(kind):
    # every candidate of the merge scorer, not gain + current (that sum rounds);
    # each working cluster sits at the row of its smallest member index
    rng = np.random.default_rng(15)
    loss_fn = LOSSES[kind]
    for _ in range(40):
        n = int(rng.integers(2, 8))
        members = list(range(1, n + 1))
        truth = random_partition(members, rng)
        scorer = MergeLoss(kind, truth, members)
        rows = {r: [m] for r, m in enumerate(members)}
        assert scorer.current == loss_fn(truth, Partition(rows.values()))
        while len(rows) >= 2:
            candidates = scorer.candidates()
            for i, j in itertools.combinations(sorted(rows), 2):
                rest = [c for r, c in rows.items() if r not in (i, j)]
                merged = Partition(rest + [rows[i] + rows[j]])
                assert candidates[i, j] == loss_fn(truth, merged)
            i, j = sorted(int(r) for r in rng.choice(sorted(rows), size=2, replace=False))
            scorer.merge(i, j)
            rows[i] = rows[i] + rows.pop(j)
            assert scorer.current == loss_fn(truth, Partition(rows.values()))


@pytest.mark.parametrize("kind", sorted(LOSSES))
def test_loss_tracker_matches_public_loss_on_larger_windows(kind):
    # up to 12 members, and the run meets every per-candidate change that
    # candidates() builds: truth clusters met by both rows (overlap) of 2 and
    # more, 0, 1 or 2 singleton rows, 0, 1 or 2 of them alone in the truth
    # too, and co-member pairs shared across the two rows
    rng = np.random.default_rng(23)
    loss_fn = LOSSES[kind]
    seen = {"overlap": set(), "single": set(), "both": set(), "shared": set()}
    for _ in range(16):
        n = int(rng.integers(8, 13))
        members = list(range(1, n + 1))
        truth = partition_from_labels(members, rng.integers(0, rng.integers(2, n + 1), size=n).tolist())
        label, alone = truth.labels(), set(truth.singleton_members)
        scorer = MergeLoss(kind, truth, members)
        rows = {r: [m] for r, m in enumerate(members)}
        while len(rows) >= 2:
            candidates = scorer.candidates()
            for i, j in itertools.combinations(sorted(rows), 2):
                rest = [c for r, c in rows.items() if r not in (i, j)]
                merged = Partition(rest + [rows[i] + rows[j]])
                assert candidates[i, j] == loss_fn(truth, merged)
                met_i, met_j = ([label[m] for m in rows[r]] for r in (i, j))
                pair = (rows[i], rows[j])
                seen["overlap"].add(len(set(met_i) & set(met_j)))
                seen["single"].add(sum(len(c) == 1 for c in pair))
                seen["both"].add(sum(len(c) == 1 and c[0] in alone for c in pair))
                seen["shared"].add(sum(met_i.count(g) * met_j.count(g) for g in set(met_i)))
            i, j = sorted(int(r) for r in rng.choice(sorted(rows), size=2, replace=False))
            scorer.merge(i, j)
            rows[i] = rows[i] + rows.pop(j)
            assert scorer.current == loss_fn(truth, Partition(rows.values()))
    assert max(seen["overlap"]) >= 2 and max(seen["shared"]) >= 2
    assert seen["single"] == seen["both"] == {0, 1, 2}


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
        y_star, hinge, *_ = loss_augmented_oracle(example, w, loss)
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
                {
                    tuple(pair): rng.integers(0, 2, size=4).astype(float)
                    for pair in scene.pairs.tolist()
                },
            )
            w = rng.integers(-2, 3, size=8).astype(float)
        example = TrainingExample(scene, random_partition(list(scene.members), rng))
        answer = loss_augmented_oracle(example, w, loss)
        assert answer[:2] == reference_oracle(example, w, loss)
        assert answer.loss == LOSSES[loss](example.truth, answer.partition)
        assert np.array_equal(answer.psi, joint_feature_map(scene, answer.partition))
    rng = np.random.default_rng(19)
    for n in (12, 26, 40):  # larger windows, all of them tie-heavy
        members = sorted(int(m) for m in rng.choice(100, size=n, replace=False))
        scene = make_scene(members, {
            pair: rng.integers(0, 2, size=4).astype(float)
            for pair in itertools.combinations(members, 2)
        })
        example = TrainingExample(scene, random_partition(members, rng))
        w = rng.integers(-2, 3, size=8).astype(float)
        assert loss_augmented_oracle(example, w, loss)[:2] == reference_oracle(example, w, loss)


# ---------------------------------------------------------------------------
# The oracle's memo of merge paths


def memo_states(example, kind) -> dict:
    """The states stored in the example's memo for `kind`, keyed by merge path."""
    _, states = example._merge_memos[kind]
    return states


def assert_answers_like_fresh_example(example, calls):
    """Each (w, loss) call on the example answers bit for bit as on a freshly
    built example (which has no memo yet) and as the scalar reference; returns
    the answers."""
    answers = []
    for w, loss in calls:
        got = loss_augmented_oracle(example, w, loss)
        want = loss_augmented_oracle(TrainingExample(example.scene, example.truth), w, loss)
        assert got.partition == want.partition
        assert got.hinge == want.hinge and got.loss == want.loss
        assert np.array_equal(got.psi, want.psi)
        assert got[:2] == reference_oracle(example, w, loss)
        answers.append(got)
    return answers


def tie_heavy_example(n, seed):
    rng = np.random.default_rng(seed)
    members = list(range(1, n + 1))
    scene = make_scene(members, {
        pair: rng.integers(0, 2, size=4).astype(float) for pair in itertools.combinations(members, 2)
    })
    return TrainingExample(scene, random_partition(members, rng)), rng


def mixed_weights(rng, count):
    """Float weights and tie-heavy integer weights, interleaved."""
    return [rng.normal(size=8) * 2 if k % 2 else rng.integers(-2, 3, size=8).astype(float)
            for k in range(count)]


def test_oracle_memo_replays_a_path_it_leaves_after_a_partial_hit():
    # two stored paths that share a stored state past the start and part
    # there mean a later search followed a stored path, then left it and
    # replayed that path into a copy of the start; its answers must still be
    # the fresh example's
    example, rng = tie_heavy_example(8, 24)
    calls = [(w, "gmitre") for w in mixed_weights(rng, 8)]
    assert_answers_like_fresh_example(example, calls)
    states = memo_states(example, "gmitre")
    parents = collections.Counter(path[:-1] for path in states if path)
    assert all(path[:-1] in states for path in states if path)
    assert any(count >= 2 for prefix, count in parents.items() if prefix)
    # with room left in the memo, a second pass hits all the way: nothing new
    # is stored, and each end state hands back the Partition and Psi it kept
    stored = len(states)
    assert 1 < stored and (stored + 1) * 8**2 <= learning.MAX_MEMO_ELEMENTS
    first = [loss_augmented_oracle(example, w, loss) for w, loss in calls]
    second = [loss_augmented_oracle(example, w, loss) for w, loss in calls]
    assert len(memo_states(example, "gmitre")) == stored
    assert all(a.partition is b.partition and a.psi is b.psi for a, b in zip(first, second))


@pytest.mark.parametrize("room", [0, 1, 5])
def test_oracle_memo_with_a_full_budget(monkeypatch, room):
    # once the memo's gains fill MAX_MEMO_ELEMENTS it stores no more states,
    # not even the start's when there is no room for one, and a search that
    # leaves it goes on from its own replayed MergeLoss
    monkeypatch.setattr(learning, "MAX_MEMO_ELEMENTS", room * 12**2)
    example, rng = tie_heavy_example(12, 25)
    calls = [(w, "gmitre") for w in mixed_weights(rng, 12)]
    assert_answers_like_fresh_example(example, calls)
    assert len(memo_states(example, "gmitre")) == room
    assert_answers_like_fresh_example(example, calls)
    assert len(memo_states(example, "gmitre")) == room


def test_oracle_start_state_does_not_leak_between_calls():
    # interleaved calls on one example, over all losses and float and
    # tie-heavy integer weights, answer exactly as on a freshly built example
    # and as the scalar reference; each loss kind keeps its own memo, which
    # the first pass fills (here up to its budget) and the second, the same
    # calls again, leaves as it is
    rng = np.random.default_rng(24)
    members = list(range(1, 13))
    scene = make_scene(members, {
        pair: rng.integers(0, 2, size=4).astype(float) for pair in itertools.combinations(members, 2)
    })
    truth = random_partition(members, rng)
    example = TrainingExample(scene, truth)
    weights = [rng.normal(size=8) * 2 for _ in range(12)]
    weights += [rng.integers(-2, 3, size=8).astype(float) for _ in range(12)]
    calls = [(w, loss) for w in weights for loss in sorted(LOSSES)]
    searched = dict.fromkeys(LOSSES, 0)
    stored = []
    for order in (rng.permutation(len(calls)), rng.permutation(len(calls))):
        for k in order:
            loss = calls[k][1]
            [got] = assert_answers_like_fresh_example(example, [calls[k]])
            searched[loss] += got.partition not in (truth, Partition.singletons(members))
        stored.append({loss: len(memo_states(example, loss)) for loss in LOSSES})
    assert min(stored[0].values()) > 1 and stored[1] == stored[0]
    assert min(searched.values()) >= 10


def test_oracle_hinge_never_negative():
    rng = np.random.default_rng(17)
    for _ in range(80):
        scene = random_scene(int(rng.integers(1, 7)), rng)
        truth = random_partition(list(scene.members), rng)
        hinge = loss_augmented_oracle(TrainingExample(scene, truth), rng.normal(size=8) * 3).hinge
        assert hinge >= 0.0


def test_oracle_empty_scene():
    example = TrainingExample(empty_scene(), Partition([]))
    y, hinge, loss, psi = loss_augmented_oracle(example, np.ones(8))
    assert y == Partition([]) and hinge == 0.0 and loss == 0.0
    assert np.array_equal(psi, np.zeros(8))


def test_oracle_rejects_bad_arguments():
    example = separable_example()
    with pytest.raises(ValueError):
        loss_augmented_oracle(example, np.ones(8), loss="nope")
    with pytest.raises(ValueError):
        loss_augmented_oracle(example, np.ones(3))
    # the pair table fixes the weight length: one check, one message, for
    # prediction and the oracle alike
    for size in (7, 9):
        w = np.ones(size)
        message = f"weight vector must have 8 components, got ({size},)"
        for call in (
            lambda: affinity(example.scene, w),
            lambda: predict(example.scene, w),
            lambda: loss_augmented_oracle(example, w),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message


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


def test_block_schedule_drawn_at_once_equals_one_draw_per_step():
    # bcfw_train draws its random blocks with one call; one draw per step from
    # the same generator gives the same blocks
    for n, seed in itertools.product([*range(1, 70), 255, 256, 1000, 65536, 2**31 - 1], range(4)):
        rng = np.random.default_rng(seed)
        per_step = [int(rng.integers(n)) for _ in range(200)]
        assert np.random.default_rng(seed).integers(n, size=200).tolist() == per_step, (n, seed)


@pytest.mark.parametrize("n, budget", [(1, 30), (3, 60), (4, 2), (4, 0)])
def test_bcfw_blocks_follow_one_draw_per_step(n, budget):
    # the random updates go to the blocks a per-step draw picks, then comes one
    # exact update per block, also when the budget is below n
    blocks = []
    bcfw_train([separable_example() for _ in range(n)], TrainConfig(max_iterations=budget, seed=5),
               iteration_hook=lambda _, info: blocks.append(info.block))
    rng = np.random.default_rng(5)
    assert blocks == [int(rng.integers(n)) for _ in range(budget - n)] + list(range(n))


@pytest.mark.parametrize("n, budget", [(1, 30), (3, 25), (4, 2), (4, 0), (5, 7)])
def test_sequential_blocks_follow_one_draw_per_step(n, budget):
    # arrival k's updates go to the blocks that per-step draws over the k
    # blocks seen so far pick, until budget * k // n are spent in all; some
    # arrivals bring no updates, and there is no exact pass
    blocks = []
    bcfw_train([separable_example() for _ in range(n)], TrainConfig(max_iterations=budget, seed=5),
               sequential=True, iteration_hook=lambda _, info: blocks.append(info.block))
    rng = np.random.default_rng(5)
    assert blocks == [int(rng.integers(k)) for k in range(1, n + 1)
                      for _ in range(budget * k // n - budget * (k - 1) // n)]


def test_bcfw_gamma_zero_on_degenerate_block():
    # single-member scene: the oracle can only return the truth, so the block
    # direction never moves and the line search denominator is zero
    win = TimeWindow(index=0, start_t=0.0, end_t=1.0, members=frozenset({7}),
                     segments={7: Trajectory(7, np.array([0.0, 1.0]), np.zeros((2, 2)))})
    scene = WindowedScene(window=win, feature_matrix=np.zeros((0, 4)))
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
    assert affinity_value(m, 1, 2) > 0.0 > affinity_value(m, 1, 3)


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


def test_bcfw_requires_examples():
    with pytest.raises(ConfigError):
        bcfw_train([], TrainConfig())


@pytest.mark.parametrize("mode", ["batch", "sequential"])
def test_bcfw_takes_examples_from_a_generator(mode):
    # both modes take any iterable: a generator trains as its list does,
    # and an empty one is refused
    examples, sequential = noisy_examples()[:3], mode == "sequential"
    config = TrainConfig(max_iterations=20, seed=1)
    with pytest.raises(ConfigError):
        bcfw_train(iter([]), config, sequential=sequential)
    streamed = bcfw_train((example for example in examples), config, sequential=sequential)
    listed = bcfw_train(examples, config, sequential=sequential)
    assert snapshot(streamed) == snapshot(listed)


def test_train_log_csv(tmp_path):
    # the harness writes the log from the hook; training is deterministic per
    # seed, so its rows are the infos a second run's hook sees
    path = tmp_path / "train_log.csv"
    examples = [separable_example(), separable_example(near=0.2, far=0.8)]
    infos = []
    train_model(RunConfig(max_iterations=30), examples, path)
    bcfw_train(examples, TrainConfig(max_iterations=30),
               iteration_hook=lambda m, info: infos.append(info))
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,block,hinge,gamma,gap,exact"
    assert len(lines) == 1 + 30  # the last two rows are the exact pass
    rows = [line.split(",") for line in lines[1:]]
    for k, (fields, info) in enumerate(zip(rows, infos), start=1):
        assert int(fields[0]) == k == info.iteration
        assert int(fields[1]) == info.block
        assert float(fields[3]) == pytest.approx(info.gamma, rel=1e-8, abs=1e-12)
        assert float(fields[4]) == pytest.approx(info.gap, rel=1e-8, abs=1e-12)
        assert fields[5] == str(int(info.exact))
    # every block's first step asks the oracle; the run ends with one exact
    # step per block in order, whose gaps are the reported duality gap
    first = {}
    for fields in rows:
        first.setdefault(fields[1], fields[5])
    assert first == {"0": "1", "1": "1"}
    assert "0" in [fields[5] for fields in rows]
    assert [(fields[1], fields[5]) for fields in rows[-2:]] == [("0", "1"), ("1", "1")]


@pytest.mark.parametrize("mode", ["batch", "sequential"])
def test_unwritable_train_log_fails_before_the_first_update(tmp_path, monkeypatch, mode):
    steps = []
    monkeypatch.setattr(learning, "_bcfw_step", lambda *args: steps.append(args))
    with pytest.raises(OSError):
        train_model(RunConfig(mode=mode, max_iterations=30), [separable_example()],
                    tmp_path / "missing" / "train_log.csv")
    assert steps == []


# ---------------------------------------------------------------------------
# Model persistence


def test_model_snapshot_round_trip(tmp_path):
    examples = [separable_example()]
    model = bcfw_train(examples, TrainConfig(max_iterations=40))
    path = tmp_path / "model.json"
    model.save(path)
    back = Model.load(path)
    assert np.array_equal(back.w, model.w)
    assert np.array_equal(back.w_avg, model.w_avg)
    assert np.array_equal(back.block_w, model.block_w)
    assert back.l == model.l
    assert back.C == model.C
    assert back.loss == model.loss
    assert back.mode == model.mode
    assert back.iterations == model.iterations
    # a saved model file loads and saves to the same bytes, key order included;
    # one without w_avg predicts with w
    saved = Path(__file__).resolve().parents[1] / "perfbench" / "model.json"
    loaded = Model.load(saved)
    loaded.save(path)
    assert path.read_bytes() == saved.read_bytes()
    assert loaded.w_avg is None and np.array_equal(loaded.weights, loaded.w)


def test_model_load_rejects_garbage(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("not json")
    with pytest.raises(ConfigError):
        Model.load(path)
    path.write_text('{"format_version": 99}')
    with pytest.raises(ConfigError):
        Model.load(path)


@pytest.mark.parametrize("key, value, message", [
    ("C", -1, "C must be positive and at most 1e60, got -1"),
    ("C", 0.0, "C must be positive and at most 1e60, got 0.0"),
    ("iterations", -5, "iterations must be non-negative, got -5"),
    ("loss", "accuracy", "'loss' must be one of ['gmitre', 'mitre', 'pairwise'], got 'accuracy'"),
], ids=["C--1", "C-0.0", "iterations--5", "loss-accuracy"])
def test_model_from_dict_checks_fields_as_train_config_does(key, value, message):
    # a model file is checked as TrainConfig checks the same settings
    obj = {**Model().to_dict(), key: value}
    with pytest.raises(ConfigError, match="not a valid model file") as info:
        Model.from_dict(obj)
    assert str(info.value).endswith(message)


@pytest.mark.parametrize("version, message", [
    (True, "'format_version' must be an integer, got True"),
    (1.5, "'format_version' must be an integer, got 1.5"),
    (0, "format_version must be at least 1, got 0"),
])
def test_model_from_dict_checks_format_version_by_the_rule(version, message):
    # the version is a PositiveInt: int() once read true and 1.5 as version 1
    with pytest.raises(ConfigError, match="not a valid model file") as info:
        Model.from_dict({**Model().to_dict(), "format_version": version})
    assert str(info.value).endswith(message)


def test_model_defaults_come_from_train_config():
    defaults = TrainConfig()
    for model in (Model(), Model.from_dict({"format_version": 1, "w": [0] * 8})):
        assert (model.C, model.seed, model.loss) == (defaults.C, defaults.seed, defaults.loss)


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
    model = bcfw_train([example], TrainConfig(seed=3, max_iterations=59), sequential=True)
    sampled = []  # batch w after each step; its 60th is the final exact pass
    bcfw_train([example], TrainConfig(seed=3, max_iterations=60),
               iteration_hook=lambda m, info: sampled.append(m.w.copy()))
    assert model.mode == "sequential" and model.iterations == 59
    assert np.array_equal(model.w, sampled[58])


@pytest.mark.parametrize("mode", ["batch", "sequential"])
def test_training_returns_the_averaged_iterate(mode):
    # w_avg <- k/(k+2) w_avg + 2/(k+2) w over the iterates the hook sees
    # (BCFW-wavg); the Frank-Wolfe state stays the last iterate's
    iterates = []
    model = bcfw_train(noisy_examples()[:4], TrainConfig(max_iterations=40, seed=2), sequential=mode == "sequential",
                       iteration_hook=lambda m, _: iterates.append(m.w.copy()))
    expected = np.zeros(8)
    for k, w in enumerate(iterates):
        expected = k / (k + 2) * expected + 2 / (k + 2) * w
    assert len(iterates) == model.iterations
    assert np.array_equal(model.w_avg, expected) and np.array_equal(model.weights, expected)
    assert np.array_equal(model.w, iterates[-1]) and not np.array_equal(model.w, expected)
    assert np.allclose(model.w, model.block_w.sum(axis=0), atol=1e-12)
    assert np.array_equal(model.alpha, expected[:4]) and np.array_equal(model.beta, expected[4:])


def test_sequential_spends_max_iterations_over_arrivals(tmp_path, monkeypatch):
    # after arrival k of n, max_iterations * k // n updates are spent in all,
    # each on a block that has arrived
    examples = noisy_examples()[:3]
    arrivals = []  # updates spent when each example arrives
    add_block = learning._add_block

    def counted(model, blocks, example):
        arrivals.append(model.iterations)
        add_block(model, blocks, example)

    monkeypatch.setattr(learning, "_add_block", counted)
    log = tmp_path / "train_log.csv"
    model, _ = train_model(RunConfig(mode="sequential", max_iterations=25, seed=2), examples, log)
    ends = arrivals[1:] + [model.iterations]
    assert ends == [8, 16, 25]
    assert model.block_w.shape == (3, 8)
    rows = [line.split(",") for line in log.read_text().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(1, 26))
    for row in rows:
        arrived = 1 + sum(end < int(row[0]) for end in ends)
        assert int(row[1]) < arrived
    assert {row[1] for row in rows} == {"0", "1", "2"}


def test_sequential_hook_sees_every_update_once_per_log_row(tmp_path):
    examples = noisy_examples()[:4]
    seen = []
    model = bcfw_train(examples, TrainConfig(max_iterations=37, seed=1), sequential=True,
                       iteration_hook=lambda m, info: seen.append((m.iterations, info)))
    assert [k for k, _ in seen] == [info.iteration for _, info in seen] == list(range(1, 38))
    assert model.iterations == 37
    log = tmp_path / "train_log.csv"
    train_model(RunConfig(mode="sequential", max_iterations=37, seed=1), examples, log)
    rows = [line.split(",") for line in log.read_text().splitlines()[1:]]
    assert len(rows) == len(seen) == 37
    for row, (_, info) in zip(rows, seen):
        assert row == [str(info.iteration), str(info.block), f"{info.hinge:.9g}",
                       f"{info.gamma:.9g}", f"{info.gap:.9g}", str(int(info.exact))]


def test_online_predict_train_yields_and_updates(monkeypatch):
    example = separable_example()
    init = bcfw_train([example], TrainConfig(C=2.0, max_iterations=150, loss="pairwise"))
    asked = []  # the loss of every oracle call
    oracle = learning.loss_augmented_oracle
    monkeypatch.setattr(learning, "loss_augmented_oracle",
                        lambda example, w, loss="gmitre": asked.append(loss) or oracle(example, w, loss))
    scenes = [separable_scene(), separable_scene(near=0.15, far=0.85)]
    out = list(online_predict_train(scenes, init))
    assert len(out) == 2
    for pred, model in out:
        assert isinstance(pred, Partition)
        assert (model.mode, model.C, model.loss) == ("online", 2.0, "pairwise")
    assert out[0][0] == example.truth  # separable scene is grouped correctly
    assert out[1][1].iterations == init.iterations + 2 * learning.ONLINE_STEPS
    # the updates ask the oracle under the model's own loss
    assert asked and set(asked) == {"pairwise"}


def test_online_predict_train_leaves_init_unchanged():
    init = bcfw_train([separable_example()], TrainConfig(max_iterations=3))
    init.config = {"window_len": 8.0}
    before = init.to_dict()
    scenes = [separable_scene(), separable_scene(near=0.3, far=0.6), separable_scene()]
    out = list(online_predict_train(scenes, init))
    assert init.to_dict() == before
    # online mode predicts from the iterate, not from init's averaged weights
    assert out[0][0] == predict(scenes[0], init.w)
    assert all(model.w_avg is None for _, model in out)
    steps = learning.ONLINE_STEPS
    assert [model.iterations for _, model in out] == [init.iterations + steps * k for k in (1, 2, 3)]
    for k, (_, model) in enumerate(out, start=1):
        # one pseudo-label block appended per scene; the trained block is kept
        assert model.block_w.shape == (1 + k, 8)
        assert model.block_l.shape == (1 + k,)
        assert np.array_equal(model.block_w[0], init.block_w[0])
        assert model.config == init.config
        assert np.allclose(model.w, model.block_w.sum(axis=0), atol=1e-12)


def test_predict_accepts_model_or_vector():
    scene = separable_scene()
    w = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    model = Model(w=w, C=1.0, seed=0, loss="gmitre")
    assert predict(scene, model) == predict(scene, w)
    # a model with an averaged iterate predicts with it, not with w
    assert predict(scene, Model(w=-w, w_avg=w)) == predict(scene, w) != predict(scene, -w)
    assert predict(empty_scene(), w) == Partition([])


# ---------------------------------------------------------------------------
# Multi-plane steps: cached planes, the corrected line search, online blocks


@functools.cache
def noisy_examples():
    """Ten 13-member synthetic windows whose training mixes cached and exact
    steps, useful and idle ones, at every C tried below."""
    spec = SynthSpec(n_groups=3, n_singletons=3, duration=100.0, noise_std=0.3)
    trajs, labels = synth_generate(spec, seed=1)
    return make_training_examples(slice_windows(trajs, 10.0, 10.0), labels)


def count_oracle_calls(monkeypatch) -> list:
    """Routes every oracle call through a wrapper; returns the list of
    (example, answer) pairs the calls append."""
    calls = []
    oracle = learning.loss_augmented_oracle

    def counted(example, w, loss="gmitre"):
        calls.append((example, oracle(example, w, loss)))
        return calls[-1][1]

    monkeypatch.setattr(learning, "loss_augmented_oracle", counted)
    return calls


def stepped_labelling(planes) -> Partition:
    """The labelling of the plane a block's latest step went to."""
    return planes.labellings[int(np.argmax(planes.last_used))]


def record_steps(monkeypatch) -> list:
    """Wraps the block update; returns the list of (info, dual after the
    step) pairs that every step appends."""
    steps = []
    step = learning._bcfw_step

    def recorded(model, planes, i, iteration_hook=None, exact=False):
        info = step(model, planes, i, iteration_hook, exact)
        steps.append((info, model.l - 0.5 * float(model.w @ model.w)))  # the dual
        return info

    monkeypatch.setattr(learning, "_bcfw_step", recorded)
    return steps


def snapshot(model: Model) -> str:
    """The model as JSON: every float by its repr, so equal means bitwise equal."""
    return json.dumps(model.to_dict())


@pytest.mark.parametrize("C", [1.0, 10.0, 100.0])  # n = 10 windows
@pytest.mark.parametrize("mode", ["batch", "sequential"])
def test_dual_never_decreases(mode, C, monkeypatch):
    examples = noisy_examples()
    assert len(examples) == 10
    steps = record_steps(monkeypatch)
    config = TrainConfig(C=C, max_iterations=300, seed=int(C))
    bcfw_train(examples, config, sequential=mode == "sequential")
    duals = [0.0] + [d for _, d in steps]
    assert all(b >= a - 1e-12 * max(1.0, abs(a)) for a, b in zip(duals, duals[1:]))
    assert duals[-1] > 0.0
    infos = [info for info, _ in steps]
    assert any(info.exact for info in infos) and not all(info.exact for info in infos)
    assert any(info.gamma > 0.0 for info in infos if not info.exact)
    if mode == "batch":
        # the gap shrinks: the final exact pass against each block's first call
        first = {}
        for info in infos:
            first.setdefault(info.block, info.gap)
        assert sum(info.gap for info in infos[-10:]) < 0.1 * sum(first.values())


@pytest.mark.parametrize("C", [1.0, 10.0, 100.0])
def test_line_search_matches_lacoste_julien(C):
    # exact steps from states reached by training, against Alg. 4 written in
    # its own units; C != n for two of the three values
    examples = noisy_examples()[:4]
    model = bcfw_train(examples, TrainConfig(C=C, max_iterations=40, seed=3))
    for i in (0, 2, 3, 1):
        want = model.copy()
        gamma = reference_bcfw_step(want, examples, i)
        info = learning._bcfw_step(model, learning._Planes(examples[i]), i, exact=True)
        assert info.gamma == pytest.approx(gamma, rel=1e-9, abs=1e-12)
        for name in ("w", "block_w", "block_l", "l"):
            assert np.allclose(getattr(model, name), getattr(want, name), rtol=1e-9, atol=1e-12)


def test_cached_steps_use_only_the_blocks_own_answers(monkeypatch):
    examples = noisy_examples()
    calls = count_oracle_calls(monkeypatch)
    returned = {}  # block -> labellings its oracle calls returned
    cached = []
    blocks = []
    make_planes = learning._Planes

    def planes(example):
        blocks.append(make_planes(example))
        return blocks[-1]

    def hook(model, info):
        labelling = stepped_labelling(blocks[info.block])
        if info.exact:
            example, answer = calls[-1]
            assert example is examples[info.block] and labelling == answer.partition
            returned.setdefault(info.block, set()).add(answer.partition)
        else:
            cached.append(info)
            assert labelling in returned[info.block]

    monkeypatch.setattr(learning, "_Planes", planes)

    bcfw_train(examples, TrainConfig(C=10.0, max_iterations=400, seed=4), iteration_hook=hook)
    assert len(cached) > 200 and len(calls) == 400 - len(cached)


def test_full_plane_caches_evict_the_least_recently_stepped_labelling(monkeypatch):
    # two planes per block: at the suite's budgets no block fills its 16, so this
    # is where eviction runs; the hinge of each step is recomputed from its
    # labelling, so a plane stored in the wrong row fails it
    monkeypatch.setattr(learning, "MAX_PLANES", 2)
    examples = noisy_examples()
    calls = count_oracle_calls(monkeypatch)
    blocks, held, last_step, evicted = [], {}, {}, []
    make_planes = learning._Planes

    def planes(example):
        blocks.append(make_planes(example))
        return blocks[-1]

    w_before, duals = np.zeros(8), [0.0]

    def hook(model, info):
        nonlocal w_before
        block, example = blocks[info.block], examples[info.block]
        before, after = held.get(info.block, []), list(block.labellings)
        y = stepped_labelling(block)
        if info.exact:
            assert calls[-1][0] is example and y == calls[-1][1].partition
            want = list(before)
            if y not in before and len(before) < 2:
                want.append(y)
            elif y not in before:
                oldest = min(before, key=lambda old: last_step[info.block, old])
                want[before.index(oldest)] = y
                evicted.append(oldest)
            assert after == want
        else:
            assert after == before and y in before
        psi_gap = example.truth_psi - joint_feature_map(example.scene, y)
        hinge = LOSSES["gmitre"](example.truth, y) - float(w_before @ psi_gap)
        assert info.hinge == pytest.approx(hinge, rel=1e-9, abs=1e-9)
        held[info.block], last_step[info.block, y] = after, info.iteration
        assert np.allclose(model.w, model.block_w.sum(axis=0), rtol=1e-12, atol=1e-12)
        duals.append(model.l - 0.5 * float(model.w @ model.w))
        assert duals[-1] >= duals[-2] - 1e-12 * max(1.0, abs(duals[-2]))
        w_before = model.w.copy()

    monkeypatch.setattr(learning, "_Planes", planes)
    bcfw_train(examples, TrainConfig(C=10.0, max_iterations=400, seed=4), iteration_hook=hook)
    assert len(duals) == 401 and max(len(b.labellings) for b in blocks) == 2
    assert len(evicted) >= 10, len(evicted)


def test_cached_plane_scales_with_the_current_block_count(monkeypatch):
    # block 0 caches its planes while it is the only block (C/n = C); after
    # two arrivals (C/n = C/3) a step to a cached plane must equal a step to
    # the same labelling's plane freshly asked at the new n. The setup needs a
    # cached plane that still pays after the arrivals: these windows give one
    # with every pair featurized, not with far pairs gated to (1, 1, 1, 1)
    monkeypatch.setattr(features, "NEAR_RADIUS", math.inf)
    examples = noisy_examples.__wrapped__()[:3]
    model = Model(block_w=np.zeros((1, 8)), block_l=[0.0], C=10.0)
    blocks = [learning._Planes(example) for example in examples]
    for _ in range(5):
        learning._bcfw_step(model, blocks[0], 0)
    for i in (1, 2):
        model.block_w = np.vstack([model.block_w, np.zeros(8)])
        model.block_l = np.append(model.block_l, 0.0)
        for _ in range(5):
            learning._bcfw_step(model, blocks[i], i)
    fresh = model.copy()
    blocks[0].cached_steps, blocks[0].exact_gap = 0, -np.inf
    info = learning._bcfw_step(model, blocks[0], 0)
    assert not info.exact and info.gamma > 0.0
    example, y = examples[0], stepped_labelling(blocks[0])
    answer = learning.OracleAnswer(y, 0.0, LOSSES["gmitre"](example.truth, y),
                                   joint_feature_map(example.scene, y))
    monkeypatch.setattr(learning, "loss_augmented_oracle", lambda *args, **kwargs: answer)
    fresh_planes = learning._Planes(example)
    asked = learning._bcfw_step(fresh, fresh_planes, 0)
    assert asked.exact and stepped_labelling(fresh_planes) == y
    assert asked.gamma == pytest.approx(info.gamma, rel=1e-12)
    for name in ("w", "block_w", "block_l", "l"):
        assert np.allclose(getattr(fresh, name), getattr(model, name), rtol=1e-12, atol=1e-15)


def test_training_is_byte_identical_per_seed(tmp_path):
    examples = noisy_examples()
    runs = []
    for k in range(2):
        config = RunConfig(C=1.0, max_iterations=150, seed=7)
        batch, _ = train_model(config, examples, tmp_path / f"batch{k}.csv")
        sequential, _ = train_model(dataclasses.replace(config, mode="sequential"), examples,
                                    tmp_path / f"seq{k}.csv")
        online = list(online_predict_train([ex.scene for ex in examples[:4]], batch))
        runs.append((snapshot(batch), snapshot(sequential),
                     [(p, snapshot(m)) for p, m in online]))
    assert runs[0] == runs[1]
    for name in ("batch", "seq"):
        assert (tmp_path / f"{name}0.csv").read_bytes() == (tmp_path / f"{name}1.csv").read_bytes()


def test_online_block_cap_evicts_the_oldest_pseudo_label(monkeypatch):
    monkeypatch.setattr(learning, "ONLINE_MAX_BLOCKS", 2)
    examples = noisy_examples()
    init = bcfw_train(examples[:3], TrainConfig(max_iterations=60))
    scenes = [example.scene for example in examples[3:8]]
    out = [model for _, model in online_predict_train(scenes, init)]
    assert [len(model.block_w) for model in out] == [4, 5, 5, 5, 5]
    for before, after in zip(out, out[1:]):
        # the trained blocks stay; the newest pseudo-label block of the last
        # scene is kept, the one before it leaves once two are held
        assert np.array_equal(after.block_w[:3], init.block_w)
        assert np.array_equal(after.block_w[-2], before.block_w[-1])
        assert after.block_l[-2] == before.block_l[-1]
    for model in out:
        assert np.allclose(model.w, model.block_w.sum(axis=0), atol=1e-12)
        assert model.l == pytest.approx(float(model.block_l.sum()), abs=1e-12)


# ---------------------------------------------------------------------------
# Margin property on separable data


def test_margin_invariant_after_training():
    example = separable_example()
    model = bcfw_train([example], TrainConfig(max_iterations=400, seed=4))
    scene, truth = example.scene, example.truth
    w = model.w
    psi_truth = joint_feature_map(scene, truth)
    xi = loss_augmented_oracle(example, w, "gmitre").hinge
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
    labels = Partition([])
    examples = make_training_examples(windows, labels)
    assert len(examples) == len([w for w in windows if w.members])
    for ex in examples:
        assert ex.truth.members == set(ex.scene.members)
