"""Spans recorded from outside the program, around its public functions.

A `Tracer` swaps each traced function for a timing wrapper in every
`crowdgroups` module that holds a reference to it (and in the training-loss
table), so calls made inside the pipeline are caught without changing the
package. Spans are (name, start, end, parent) tuples kept in memory and
written out once the run ends. A span's layer is the part of its name before
the first dot; its self time is its duration minus that of its direct
children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict
from math import comb

LAYERS = ("trajectories", "features", "partitioning", "learning", "losses", "harness")


def _oracle_counts(counts, args, kwargs, result):
    """Merges and candidate pairs one greedy oracle call evaluated: with n
    members and t merges applied, round t scans C(n - t, 2) cluster pairs,
    and the last round finds no improving merge."""
    example = args[0] if args else kwargs["example"]
    n = len(example.scene.members)
    merges = n - len(result[0]) if n else 0
    counts["oracle_merges"] += merges
    counts["oracle_candidates"] += sum(comb(n - t, 2) for t in range(merges + 1))


def _greedy_counts(counts, args, kwargs, result):
    counts["greedy_merges"] += len(result[1].steps)


def _bcfw_counts(counts, args, kwargs, result):
    counts["bcfw_iterations"] += result.iterations


# (module, function, span name, counter hook) for every traced function.
TRACED = (
    ("trajectories", "load_dataset", "trajectories.load", None),
    ("trajectories", "slice_windows", "trajectories.slice", None),
    ("trajectories", "scene_stats", "trajectories.scene_stats", None),
    ("features", "build_scene", "features.build_scene", None),
    ("features", "proxemic_distance", "features.d_ph", None),
    ("features", "dtw_shape_distance", "features.d_sh", None),
    ("features", "granger_causality_area", "features.d_ca", None),
    ("features", "heatmap_build", "features.d_he", None),
    ("features", "heatmap_distance", "features.d_he", None),
    ("partitioning", "affinity", "partitioning.affinity", None),
    ("partitioning", "greedy_cc", "partitioning.greedy_cc", _greedy_counts),
    ("learning", "bcfw_train", "learning.bcfw_train", _bcfw_counts),
    ("learning", "loss_augmented_oracle", "learning.oracle", _oracle_counts),
    ("learning", "predict", "learning.predict", None),
    ("losses", "gmitre_score", "losses.score", None),
    ("losses", "mitre_score", "losses.score", None),
    ("losses", "positive_pairwise_metric", "losses.score", None),
    ("losses", "gmitre_loss", "losses.score", None),
    ("losses", "mitre_loss", "losses.score", None),
    ("losses", "pairwise_loss", "losses.score", None),
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Records spans while enabled; when disabled every method is a no-op.

    Wrappers only record while a span opened by `span()` is active, so the
    benchmark's own checks between timed steps stay out of the trace.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, self._stack[-1] if self._stack else -1)

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def _wrap(self, fn, name: str, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            self.counts[name] += 1
            idx = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, start)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Point every reference to a traced function at its wrapper."""
        if not self.enabled:
            return
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "crowdgroups"]
        for module_name, attr, name, hook in TRACED:
            fn = getattr(sys.modules[f"crowdgroups.{module_name}"], attr)
            wrapper = self._wrap(fn, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._undo.append((module, key, fn))
                        setattr(module, key, wrapper)
            table = sys.modules["crowdgroups.learning"].LOSSES
            for key, value in list(table.items()):
                if value is fn:
                    self._undo.append((table, key, fn))
                    table[key] = wrapper

    def uninstall(self) -> None:
        for target, key, fn in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = fn
            else:
                setattr(target, key, fn)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")

    def summary(self) -> dict:
        """Inclusive time per span name, self time per layer, and the time of
        the root spans (the timed steps of the workload)."""
        inclusive: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
            if parent >= 0:
                children[parent] += end - start
        layer_self: dict[str, float] = defaultdict(float)
        root_s = 0.0
        for idx, (name, start, end, parent) in enumerate(self.spans):
            layer_self[name.split(".")[0]] += (end - start) - children[idx]
            if parent < 0:
                root_s += end - start
        return {"inclusive": inclusive, "layer_self": layer_self, "root_s": root_s}

    def child_time(self, parent_name: str, child_name: str) -> float:
        """Total duration of `child_name` spans directly under `parent_name` spans."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == parent_name}
        return sum(end - start for name, start, end, parent in self.spans
                   if name == child_name and parent in parents)
