"""
Learning to group: feature weights from labeled windows
=======================================================

End-to-end, in memory: generate a labeled crowd, slice it into time
windows, extract the four pairwise distances per window, learn the
affinity weights with block-coordinate Frank-Wolfe on a structured
max-margin objective, and score predictions on held-out windows.
"""

import numpy as np

from crowdgroups import (
    FEATURE_NAMES,
    SynthSpec,
    TrainConfig,
    TrainingExample,
    bcfw_train,
    build_scene,
    gmitre_score,
    predict,
    slice_windows,
    synth_generate,
    window_ground_truth,
)

# ---------------------------------------------------------------------------
# a 200-second scene: four groups of two to four walking at 0.6 m spacing,
# six singletons wandering the same plaza. the generator returns global
# trajectories plus the group labels.

spec = SynthSpec()
trajectories, labels = synth_generate(spec, seed=3)
print(f"{len(trajectories)} pedestrians, {len(labels.groups)} groups:",
      [list(g) for g in labels.groups])

# ---------------------------------------------------------------------------
# slice into 10 s windows with a 10 s stride and split on time: the first
# 140 seconds train, the rest is held out. each window becomes a scene of
# pairwise feature vectors plus the ground-truth partition restricted to
# the window's members.

windows = [w for w in slice_windows(trajectories, 10.0, 10.0) if w.members]
t0 = min(t.start_t for t in trajectories)
train_windows = [w for w in windows if w.end_t <= t0 + 140.0]
test_windows = [w for w in windows if w.end_t > t0 + 140.0]
print(f"{len(train_windows)} training windows, {len(test_windows)} held out")

examples = []
for w in train_windows:
    scene = build_scene(w)
    examples.append(TrainingExample(scene, window_ground_truth(w, labels)))

# ---------------------------------------------------------------------------
# train. each iteration visits one window, finds the most violating
# partition under the current weights (loss-augmented inference), and takes
# an exact line-search step toward it. the loss is the group-aware one, so
# inventing groups around singletons hurts during training exactly as much
# as it will hurt in evaluation.

model = bcfw_train(examples, TrainConfig(loss="gmitre", max_iterations=400, seed=0))
print(f"trained {model.iterations} iterations")

print("learned weights (affinity = alpha . (1 - d) - beta . d):")
for i, name in enumerate(FEATURE_NAMES):
    print(f"  {name}: alpha {model.alpha[i]:+.3f}  beta {model.beta[i]:+.3f}")

# ---------------------------------------------------------------------------
# predict each held-out window and score it. the partition comes from
# greedy correlation clustering over the learned affinities, so the number
# of groups per window is decided by the data, never supplied.

scores = []
for w in test_windows:
    scene = build_scene(w)
    truth = window_ground_truth(w, labels)
    pred = predict(scene, model)
    s = gmitre_score(truth, pred)
    scores.append(s)
    print(f"window [{w.start_t:5.1f}, {w.end_t:5.1f}) "
          f"P {s.precision:.3f} R {s.recall:.3f} f1 {s.f1:.3f}")

print("held-out mean f1:", round(float(np.mean([s.f1 for s in scores])), 4))
