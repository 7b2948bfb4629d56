"""What the benchmark's tracer and workloads read from the package.

`perfbench/run.py --trace 1` wraps the functions named in
`perfbench/tracing.py`'s TRACED table, `perfbench/workloads.py` reads four
attributes of every built scene and the `gamma` column of every training log,
and the tracer counts `bcfw_train`'s `.iterations`. A refactor that renames
any of them breaks the benchmark without failing any other test.
"""

from __future__ import annotations

import csv
import importlib
import types
from collections import Counter
from math import comb
from pathlib import Path

import numpy as np
import pytest

from crowdgroups import (
    RunConfig, TimeWindow, TrainingExample, Trajectory, affinity, build_scene, greedy_cc,
    loss_augmented_oracle,
)
from crowdgroups.harness import train_model

from oracles import random_partition, random_scene

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module() -> types.ModuleType:
    """perfbench/tracing.py, executed from its source text (no bytecode cache
    is written next to it)."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


TRACING_MODULE = _tracing_module()
TRACED = TRACING_MODULE.TRACED


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for module, attr, _, _ in TRACED],
    ids=[f"{module}.{attr}" for module, attr, _, _ in TRACED],
)
def test_traced_functions_exist(module, attr):
    assert callable(getattr(importlib.import_module(f"crowdgroups.{module}"), attr))


def test_scene_has_the_attributes_workloads_read():
    rng = np.random.default_rng(0)
    segments = {
        m: Trajectory(m, np.arange(8.0) + (4.0 if m == 3 else 0.0),
                      np.cumsum(rng.normal(size=(8, 2)), axis=0))
        for m in (1, 2, 3, 4)
    }
    window = TimeWindow(0, 0.0, 12.0, frozenset(segments), segments)
    scene = build_scene(window)
    assert len(scene.pairs) == 6
    assert scene.feature_matrix.shape == (6, 4)
    assert isinstance(scene.granger_fallback_count, int)
    assert isinstance(scene.no_overlap_count, int)
    assert scene.granger_fallback_count == 3  # member 3 shares only 4 samples
    assert scene.no_overlap_count == 0


def test_count_hooks_read_real_results():
    # the hooks index into the oracle's and greedy_cc's return values, so a new
    # return shape must keep their merge counts right
    rng = np.random.default_rng(5)
    scene = random_scene(9, rng)
    w = np.array([1.0] * 4 + [1.5] * 4)
    example = TrainingExample(scene, random_partition(list(scene.members), rng))
    counts = Counter()
    answer = loss_augmented_oracle(example, w)
    TRACING_MODULE._oracle_counts(counts, (example, w), {}, answer)
    merges = len(scene.members) - len(answer.partition)
    assert 0 < counts["oracle_merges"] == merges
    assert counts["oracle_candidates"] == sum(comb(9 - t, 2) for t in range(merges + 1))
    affinities = affinity(scene, w)
    result = greedy_cc(affinities)
    TRACING_MODULE._greedy_counts(counts, (affinities,), {}, result)
    assert 0 < counts["greedy_merges"] == len(scene.members) - len(result[0])


def test_training_log_and_result_keep_what_the_benchmark_reads(tmp_path):
    rng = np.random.default_rng(6)
    examples = []
    for _ in range(3):
        scene = random_scene(6, rng)
        examples.append(TrainingExample(scene, random_partition(list(scene.members), rng)))
    log = tmp_path / "train_log.csv"
    model, _ = train_model(RunConfig(max_iterations=30), examples, log)
    with open(log, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 30
    assert all(0.0 <= float(row["gamma"]) <= 1.0 for row in rows)
    assert any(float(row["gamma"]) > 0.0 for row in rows)
    counts = Counter()
    TRACING_MODULE._bcfw_counts(counts, (examples,), {}, model)
    assert counts["bcfw_iterations"] == model.iterations == 30
