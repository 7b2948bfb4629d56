"""One scene placed elsewhere in the world frame.

The sample bound: every trajectory sample lies within ±SAMPLE_BOUND, and the
feature settings' ranges keep every kernel finite there, so no kernel needs a
guard of its own. A scene spread to ±1e99 m, shifted to the bound, or both,
runs through features, scene statistics, training, prediction and online
learning at both ends of every feature setting's range. So does training at
the largest C, and a model whose every number sits at ±SAMPLE_BOUND: the
ranges of C and of a model's numbers keep the learner finite without a guard.

The frame: a shift, a rotation, a mirror or an id relabelling of the whole
scene should move no feature row and no predicted group. The features known
to depend on the world's axes are named in each case's xfail reason.
"""

from __future__ import annotations

import itertools
import math
from typing import get_args, get_type_hints

import numpy as np
import pytest

from crowdgroups import (FEATURE_NAMES, FeatureConfig, Model, Partition, SynthSpec, TrainConfig, Trajectory,
                         bcfw_train, build_scene, make_training_examples, online_predict_train, predict, scene_stats,
                         slice_windows, synth_generate)
import crowdgroups.features as features_module
from crowdgroups.errors import SAMPLE_BOUND, Regularization
from crowdgroups.learning import WEIGHT_DIM

# at most 12 members, two 10 s windows, positions in [0, 30] m
SCENE = synth_generate(SynthSpec(n_groups=3, group_size_min=2, group_size_max=3, n_singletons=3, duration=20.0),
                       seed=5)


def _moved(move, relabel=lambda ped: ped) -> list[Trajectory]:
    return [Trajectory(relabel(tr.pedestrian_id), tr.times, move(tr.points)) for tr in SCENE[0]]


def _spread(points):
    return (points - 15.0) * (1e99 / 15.0)


PLACEMENTS = {
    "as-generated": lambda points: points,
    "spread-1e99": _spread,
    "shifted-1e100": lambda points: points + (SAMPLE_BOUND - 100.0),
    "spread-and-shifted": lambda points: _spread(points) + (SAMPLE_BOUND - 1e99),
}


# each feature setting's finite range ends, as FeatureConfig takes them
ENDS = {key: [end for end in hint.__metadata__[0][:2] if math.isfinite(end)]
        for key, hint in get_type_hints(FeatureConfig, include_extras=True).items()}
SETTINGS = {"defaults": FeatureConfig(), **{f"{key}={end:g}": FeatureConfig(**{key: end})
                                            for key, values in ENDS.items() for end in values}}


@pytest.fixture
def no_far_gate(monkeypatch):
    """Every pair near, so that every kernel sees the placement's distances
    (far rows skip the kernels, and a spread scene's pairs are all far)."""
    monkeypatch.setattr(features_module, "NEAR_RADIUS", math.inf)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("placement", PLACEMENTS)
def test_scenes_at_the_sample_bound_stay_finite_at_every_setting_end(no_far_gate, placement, setting):
    trajectories, labels = _moved(PLACEMENTS[placement]), SCENE[1]
    assert max(float(np.abs(tr.points).max()) for tr in trajectories) <= SAMPLE_BOUND
    windows = slice_windows(trajectories, 10.0, 10.0)
    assert len(windows) == 2
    stats = scene_stats(windows, labels)
    assert all(v is None or math.isfinite(v) for v in (stats.d_in, stats.d_out, stats.d_io))
    examples = make_training_examples(windows, labels, SETTINGS[setting])
    for example in examples:
        rows = example.scene.feature_matrix
        assert np.all(np.isfinite(rows)) and rows.min() >= 0.0 and rows.max() <= 1.0
    model = bcfw_train(examples, TrainConfig(max_iterations=20))
    assert np.all(np.isfinite(model.w))
    scenes = [example.scene for example in examples]
    for scene in scenes:
        assert predict(scene, model).members == scene.window.members
    for (prediction, online), scene in zip(online_predict_train(scenes, model), scenes, strict=True):
        assert prediction.members == scene.window.members and np.all(np.isfinite(online.w))


C_MAX = get_args(Regularization)[1][1]


def _examples(placement):
    return make_training_examples(slice_windows(_moved(PLACEMENTS[placement]), 10.0, 10.0), SCENE[1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sequential", [False, True], ids=["batch", "sequential"])
@pytest.mark.parametrize("placement", PLACEMENTS)
def test_training_at_the_largest_c_stays_inside_the_model_bound(no_far_gate, placement, sequential):
    # every block, w and w_avg stays below about 1e80 (see errors.py), so the
    # line search never overflows and the model takes its own numbers back
    model = bcfw_train(_examples(placement), TrainConfig(C=C_MAX, max_iterations=40), sequential=sequential)
    assert model.C == C_MAX and model.iterations >= 40
    for values in (model.w, model.w_avg, model.block_w, model.block_l):
        assert np.abs(values).max() < 1e80
    assert abs(model.l) < 1e80 and np.array_equal(Model.from_dict(model.to_dict()).w, model.w)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("signs", ["+", "-", "+-"])
@pytest.mark.parametrize("placement", PLACEMENTS)
def test_a_model_at_the_bound_predicts_and_learns_online(no_far_gate, placement, signs):
    # every array entry and l at ±SAMPLE_BOUND, C at its end: predict and the
    # online steps stay finite, and each step moves w and l by less than half
    # an ulp, so every model the stream yields is still within the bound
    bound = SAMPLE_BOUND * np.resize([1.0 if sign == "+" else -1.0 for sign in signs], WEIGHT_DIM)
    model = Model(w=bound, w_avg=-bound, block_w=[bound, -bound], block_l=[SAMPLE_BOUND, -SAMPLE_BOUND],
                  l=-SAMPLE_BOUND, C=C_MAX)
    scenes = [example.scene for example in _examples(placement)]
    for scene in scenes:
        assert predict(scene, model).members == scene.window.members
    for (prediction, online), scene in zip(online_predict_train(scenes, model), scenes, strict=True):
        assert prediction.members == scene.window.members
        assert np.array_equal(online.w, model.w) and online.l == model.l and online.C == C_MAX


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("placement", PLACEMENTS)
def test_feature_kernels_stay_finite_at_every_corner_of_the_setting_ranges(no_far_gate, placement):
    # ranges meet one another too: a cell edge of 1e150 m with a heat length
    # of 1e-50 m would overflow d_he's exponent on a scene spread to ±1e99 m
    windows = slice_windows(_moved(PLACEMENTS[placement]), 10.0, 10.0)
    for corner in itertools.product(*ENDS.values()):
        cfg = FeatureConfig(**dict(zip(ENDS, corner)))
        for window in windows:
            rows = build_scene(window, cfg).feature_matrix
            assert np.all(np.isfinite(rows)) and rows.min() >= 0.0 and rows.max() <= 1.0, cfg


class FrameDependent(AssertionError):
    """A feature that depends on the world frame moved with it."""


def _rotation(degrees):
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    return lambda points: points @ np.array([[c, s], [-s, c]])


# d_he's cells lie on a grid fixed to the world's axes and origin; d_ca fits
# each coordinate on that coordinate's lags only
FRAME_GRID, FRAME_AXES = "d_he's grid is fixed to the world frame", "d_ca fits each axis on its own lags"
# motion of the whole scene: (move points, relabel ids, features known to move, why)
MOTIONS = {
    "shift-0.37-0.61": (lambda points: points + (0.37, 0.61), None, {"d_he"}, FRAME_GRID),
    # a 1e6 m offset also costs the causality fits' rounding about 1e-9
    "shift-1e6": (lambda points: points + 1e6, None, {"d_ca", "d_he"}, f"{FRAME_GRID}; d_ca rounds"),
    "rotate-30": (_rotation(30.0), None, {"d_ca", "d_he"}, f"{FRAME_GRID}; {FRAME_AXES}"),
    # the grid is symmetric about x = 0, so only a sample on a cell edge would move d_he
    "mirror-x": (lambda points: points * (-1.0, 1.0), None, set(), ""),
    "relabel": (lambda points: points, lambda ped: 100 - 3 * ped, set(), ""),
}
# d_ph and d_sh see distances alone: a fixed model that weights only them
W_DISTANCES = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0])


def _motion_cases():
    for name, (_, _, moves, why) in MOTIONS.items():
        marks = [pytest.mark.xfail(raises=FrameDependent, strict=True, reason=f"{' and '.join(sorted(moves))} "
                                   f"move (ROADMAP item 30): {why}")] if moves else []
        yield pytest.param(name, marks=marks, id=name)


@pytest.mark.parametrize("motion", _motion_cases())
def test_a_moved_scene_keeps_its_feature_rows_and_groups(motion):
    move, relabel, known, _ = MOTIONS[motion]
    relabel = relabel or (lambda ped: ped)
    back = {relabel(tr.pedestrian_id): tr.pedestrian_id for tr in SCENE[0]}
    windows = slice_windows(SCENE[0], 10.0, 10.0)
    moved_windows = slice_windows(_moved(move, relabel), 10.0, 10.0)
    moved = set()
    grouped = 0
    for window, moved_window in zip(windows, moved_windows, strict=True):
        scene, moved_scene = build_scene(window), build_scene(moved_window)
        rows = {tuple(pair): row for pair, row in zip(scene.pairs.tolist(), scene.feature_matrix)}
        for (a, b), row in zip(moved_scene.pairs.tolist(), moved_scene.feature_matrix):
            change = np.abs(row - rows[tuple(sorted((back[a], back[b])))])
            moved |= {name for name, d in zip(FEATURE_NAMES, change.tolist()) if not d <= 1e-9}
        groups = predict(scene, W_DISTANCES)
        assert Partition([back[m] for m in c] for c in predict(moved_scene, W_DISTANCES)) == groups
        grouped += len(groups.groups)
    assert grouped, "the fixed model groups no one, so the partitions show nothing"
    assert moved <= known, f"{sorted(moved - known)} moved with the frame"
    if moved:
        raise FrameDependent(f"{sorted(moved)} moved with the frame")
