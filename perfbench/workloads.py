"""The three benchmark workloads: input generation, one timed pass, and the
correctness checks on what the pass produced.

Each workload generates its inputs from the workload seed alone and hands the
program only trajectories (plus, for `default-run`, the dataset directory the
quick start writes). A pass is the timed work; `Pass` collects its timings,
its checked operations and the input descriptors.
"""

from __future__ import annotations

import contextlib
import csv
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from crowdgroups import cli, features, harness, learning, losses, trajectories
from crowdgroups.learning import Model
from crowdgroups.partitioning import Partition
from crowdgroups.synth import SynthSpec, synth_generate, write_dataset

HERE = Path(__file__).resolve().parent
MODEL_PATH = HERE / "model.json"

# Group sizes are pinned to 3, the mean of the default 2..4 range, so every
# seed yields the same crowd size and timings compare across seeds.
DEFAULT_SPEC = SynthSpec(group_size_min=3, group_size_max=3)  # 18 pedestrians
DENSE_SPEC = SynthSpec(
    n_groups=20, n_singletons=40, extent=60.0, group_size_min=3, group_size_max=3,
    duration=10.0,
)  # 100 pedestrians, one 10 s window
RAGGED_SPEC = SynthSpec(
    n_groups=4, n_singletons=8, group_size_min=3, group_size_max=3, duration=54.0,
)  # 20 pedestrians, 18 windows of 10 s every 2.5 s
# Independent scenes per run, generated from sub-seeds of the workload seed;
# averaging over them keeps the figures of one run close to those of another.
SCENES = {"dense-detect": 3, "ragged-online": 10}

WINDOW_LEN = 10.0
RAGGED_STRIDE = 2.5
RAGGED_DROPOUT = 0.1  # share of samples a tracker loses
RAGGED_JITTER = 5  # samples by which group mates' visible spans differ
RAGGED_VISIBLE = 0.45  # share of the scene each pedestrian is visible

# Lowest acceptable mean gmitre F1 of a run: the minimum over seeds 0..9 at
# the commit that added the benchmark, minus 0.1 (minima 0.993, 1.0, 0.653).
F1_FLOOR = {"default-run": 0.89, "dense-detect": 0.9, "ragged-online": 0.55}


@dataclass
class Pass:
    """What one pass measured and checked."""

    run_s: float = 0.0
    window_s: list[float] = field(default_factory=list)
    pairs: int = 0
    f1: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    predictions: list = field(default_factory=list)
    descriptors: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    window_span: tuple[float, float] | None = None  # perf_counter, first to last window

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; a failed check counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


@dataclass
class Inputs:
    scenes: list  # (trajectories, labels) per independent scene
    model: Model | None = None
    data_dir: Path | None = None


def _visible(times: np.ndarray, start: float, end: float) -> int:
    return int(np.count_nonzero((times >= start) & (times < end)))


def _expected_members(times_by_id: dict, start: float, end: float) -> frozenset:
    """Pedestrians with at least two samples in [start, end)."""
    return frozenset(p for p, t in times_by_id.items() if _visible(t, start, end) >= 2)


def _features_ok(scene) -> bool:
    d = scene.feature_matrix
    return bool(np.all(np.isfinite(d)) and (d.size == 0 or (d.min() >= 0.0 and d.max() <= 1.0)))


def _describe(windows, scenes, crowd: int) -> dict:
    return {
        "crowd_size": crowd,
        "windows": len(windows),
        "members_mean": float(np.mean([len(w.members) for w in windows])) if windows else 0.0,
        "dropped_members": sum(len(w.dropped) for w in windows),
        "pairs": sum(len(s.pairs) for s in scenes),
        "granger_fallback_pairs": sum(s.granger_fallback_count for s in scenes),
        "no_overlap_pairs": sum(s.no_overlap_count for s in scenes),
    }


# ---------------------------------------------------------------------------
# Input generation


def _ragged(trajs, labels, seed: int) -> list:
    """Make people enter and leave mid-scene and lose samples.

    Every group and singleton is visible for RAGGED_VISIBLE of the scene,
    with start times spread evenly over the scene in a seeded order, so the
    first starts at the beginning and the last ends at the end. A group's
    first member keeps the span; its mates arrive and leave up to
    RAGGED_JITTER samples inside it. Samples between a trajectory's first and
    last are dropped with probability RAGGED_DROPOUT.
    """
    rng = np.random.default_rng([seed, 1])
    n_steps = len(trajs[0].times)
    length = int(RAGGED_VISIBLE * n_steps)
    units = [sorted(g) for g in labels.groups]
    grouped = {m for g in units for m in g}
    units += [[t.pedestrian_id] for t in trajs if t.pedestrian_id not in grouped]
    slots = rng.permutation(len(units))
    span = {}
    for unit, slot in zip(units, slots):
        first = int(round(slot * (n_steps - length) / (len(units) - 1)))
        for k, m in enumerate(unit):
            shrink = rng.integers(0, RAGGED_JITTER + 1, size=2) if k else (0, 0)
            span[m] = (first + int(shrink[0]), first + length - int(shrink[1]))
    out = []
    for tr in trajs:
        first, last = span[tr.pedestrian_id]
        inner = np.arange(first + 1, last - 1)
        keep = np.concatenate(([first], inner[rng.random(inner.size) >= RAGGED_DROPOUT], [last - 1]))
        out.append(trajectories.Trajectory(tr.pedestrian_id, tr.times[keep], tr.points[keep]))
    return out


def setup(workload: str, seed: int, work: Path) -> Inputs:
    """Generate the workload's inputs from the seed (and write the dataset
    directory for `default-run`)."""
    if workload == "default-run":
        trajs, labels = synth_generate(DEFAULT_SPEC, seed=seed)
        data_dir = work / "data"
        write_dataset(data_dir, trajs, labels, fps=DEFAULT_SPEC.fps, seed=seed)
        return Inputs([(trajs, labels)], data_dir=data_dir)
    model = Model.load(MODEL_PATH)
    scenes = []
    for i in range(SCENES[workload]):
        sub_seed = seed * 100 + i
        if workload == "dense-detect":
            scenes.append(synth_generate(DENSE_SPEC, seed=sub_seed))
        else:
            trajs, labels = synth_generate(RAGGED_SPEC, seed=sub_seed)
            scenes.append((_ragged(trajs, labels, sub_seed), labels))
    return Inputs(scenes, model=model)


# ---------------------------------------------------------------------------
# Passes


@contextlib.contextmanager
def _clocked_build_scene(clock):
    """Time each window the harness featurizes and keep its scene."""
    inner = harness.build_scene
    seen: list[tuple[float, object, float, float]] = []

    def clocked(window, configs=None):
        raw_start, start = time.perf_counter(), clock()
        scene = inner(window, configs)
        seen.append((clock() - start, scene, raw_start, time.perf_counter()))
        return scene

    harness.build_scene = clocked
    try:
        yield seen
    finally:
        harness.build_scene = inner


def _read_times(data_dir: Path, fps: float) -> dict:
    """Sample times per pedestrian, read from the dataset file (frame / fps)."""
    rows = np.loadtxt(data_dir / "trajectories.txt", ndmin=2)
    return {int(p): np.sort(rows[rows[:, 1] == p, 0]) / fps for p in np.unique(rows[:, 1])}


def _default_run(inputs: Inputs, tracer, work: Path, clock) -> Pass:
    out = work / "report"
    shutil.rmtree(out, ignore_errors=True)
    result = Pass()
    with _clocked_build_scene(clock) as seen:
        with tracer.span("bench.pass"):
            start = clock()
            code = cli.main(["run", "--data", str(inputs.data_dir), "--out", str(out)])
            result.run_s = clock() - start
    result.check(code == 0, f"crowdgroups run exited with {code}")
    scenes = [entry[1] for entry in seen]
    result.window_s = [entry[0] for entry in seen]
    if seen:
        result.window_span = (seen[0][2], seen[-1][3])
    result.pairs = sum(len(s.pairs) for s in scenes)
    for scene in scenes:
        result.check(_features_ok(scene), f"window {scene.window.index}: feature outside [0, 1]")
    times = _read_times(inputs.data_dir, DEFAULT_SPEC.fps)
    steps = useful = 0
    for rundir in sorted(out.glob("run-*")):
        entries = json.loads((rundir / "predictions.json").read_text())["windows"]
        for entry in entries:
            try:
                pred = Partition.from_json_obj(entry)
            except ValueError as exc:
                result.check(False, f"{rundir.name} window {entry.get('window')}: {exc}")
                continue
            expected = _expected_members(times, entry["start_t"], entry["end_t"])
            result.check(pred.members == expected,
                         f"{rundir.name} window {entry['window']}: prediction covers other members")
            result.predictions.append(pred)
        with open(rundir / "train_log.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                steps += 1
                useful += float(row["gamma"]) > 0.0
    with open(out / "summary.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["metric"] == "gmitre" and row["field"] == "f1":
                result.f1 = float(row["mean"])
    result.counts = {"bcfw_steps": steps, "useful_steps": useful}
    windows = [s.window for s in scenes]
    result.descriptors = _describe(windows, scenes, len(inputs.scenes[0][0]))
    return result


def _score(result: Pass, scene, pred, labels, f1s: list) -> None:
    window = scene.window
    result.check(_features_ok(scene), f"window {window.index}: feature outside [0, 1]")
    result.check(pred.members == window.members,
                 f"window {window.index}: prediction covers other members")
    f1s.append(losses.gmitre_score(trajectories.window_ground_truth(window, labels), pred).f1)
    result.predictions.append(pred)


def _slice(scene_trajs, tracer, stride: float, result: Pass, clock) -> list:
    with tracer.span("bench.slice"):
        start = clock()
        windows = trajectories.slice_windows(scene_trajs, WINDOW_LEN, stride)
        result.run_s += clock() - start
    times = {t.pedestrian_id: np.asarray(t.times) for t in scene_trajs}
    for w in windows:
        result.check(w.members == _expected_members(times, w.start_t, w.end_t),
                     f"window {w.index}: members differ from the trajectories")
    return [w for w in windows if w.members]


def _finish(result: Pass, inputs: Inputs, windows, scenes, f1s, span_start: float) -> Pass:
    result.window_span = (span_start, time.perf_counter())
    result.pairs = sum(len(s.pairs) for s in scenes)
    result.f1 = float(np.mean(f1s))
    result.descriptors = _describe(windows, scenes, len(inputs.scenes[0][0]))
    result.descriptors["scenes"] = len(inputs.scenes)
    return result


def _dense_detect(inputs: Inputs, tracer, work: Path, clock) -> Pass:
    result = Pass()
    all_windows, scenes, f1s = [], [], []
    span_start = time.perf_counter()
    for trajs, labels in inputs.scenes:
        windows = _slice(trajs, tracer, WINDOW_LEN, result, clock)
        all_windows += windows
        for window in windows:
            with tracer.span("bench.window"):
                start = clock()
                scene = features.build_scene(window)
                pred = learning.predict(scene, inputs.model)
                elapsed = clock() - start
            result.window_s.append(elapsed)
            result.run_s += elapsed
            scenes.append(scene)
            _score(result, scene, pred, labels, f1s)
    return _finish(result, inputs, all_windows, scenes, f1s, span_start)


def _ragged_online(inputs: Inputs, tracer, work: Path, clock) -> Pass:
    """Each scene streams lazily through online learning from the fixed model."""
    result = Pass()
    all_windows, scenes, f1s = [], [], []
    span_start = time.perf_counter()
    for trajs, labels in inputs.scenes:
        windows = _slice(trajs, tracer, RAGGED_STRIDE, result, clock)
        all_windows += windows

        def lazy_scenes():
            for window in windows:
                scenes.append(features.build_scene(window))
                yield scenes[-1]

        stream = learning.online_predict_train(lazy_scenes(), inputs.model)
        for _ in windows:
            with tracer.span("learning.online_predict_train"):
                start = clock()
                pred, _model = next(stream)
                elapsed = clock() - start
            result.window_s.append(elapsed)
            result.run_s += elapsed
            _score(result, scenes[-1], pred, labels, f1s)
    return _finish(result, inputs, all_windows, scenes, f1s, span_start)


PASSES = {
    "default-run": _default_run,
    "dense-detect": _dense_detect,
    "ragged-online": _ragged_online,
}
WORKLOADS = tuple(PASSES)


def run_pass(workload: str, inputs: Inputs, tracer, work: Path, clock=time.perf_counter) -> Pass:
    """One pass timed with `clock`; an exception counts as one failed operation."""
    try:
        return PASSES[workload](inputs, tracer, work, clock)
    except Exception as exc:  # the benchmark reports failures instead of dying
        result = Pass()
        result.check(False, f"{type(exc).__name__}: {exc}")
        return result


def percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values) * 1e3, q)) if values else 0.0

