"""crowdgroups benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload default-run --seed 0 --seconds 10 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory. Set-up (interpreter and package import, input generation) is
repeated SETUP_REPEATS times and its median reported. Passes then repeat
until --seconds have elapsed (at least one) while a SpeedProbe samples the
machine; end-to-end timings are reported at its reference speed. With
--trace 1 the untraced passes are followed by one traced pass, and the
per-layer metrics replace the end-to-end ones. Human-readable lines go first;
the last line of standard output is the JSON result. Full results (with the
unscaled timings) and spans go to perfbench/work/. perfbench/NOTES.md
describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
PROBE_INTERVAL_S = 0.5
PROBE_REPEATS = 10
REFERENCE_PROBE_S = 0.0042  # typical mean probe time on the baseline machine

END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("window_ms_p50", "ms"), ("window_ms_p90", "ms"),
    ("pairs_per_s", "1/s"), ("peak_rss_mb", "MB"), ("gmitre_f1", "ratio"),
)


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import crowdgroups
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "crowdgroups": crowdgroups.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def _pin_to_one_cpu() -> None:
    """Run on the first allowed CPU with single-threaded BLAS. On the 2-core
    machine the baseline comes from, a pinned process repeated identical work
    within 1 %, while the scheduler moving it between CPUs cost 5-20 %."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


class SpeedProbe:
    """Samples the machine's speed during the passes.

    Every PROBE_INTERVAL_S a timer signal runs one fixed reference
    computation (a small dynamic-programming loop over numpy scalars and a
    least-squares fit, like the feature code, but no code of the package) and
    records how long it took. `clock()` is perf_counter minus the time spent
    in probes, so the workload's timings exclude them. `factor` is the mean
    probe time over REFERENCE_PROBE_S: above 1 the machine ran slower than
    the reference, and dividing a time by it gives the time at reference
    speed.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a, self._b = rng.random((24, 2)), rng.random((24, 2))
        self._x, self._y = rng.random((30, 5)), rng.random(30)
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.spent = 0.0

    def _reference(self) -> float:
        np = self._np
        total = 0.0
        for _ in range(PROBE_REPEATS):
            diff = self._a[:, None, :] - self._b[None, :, :]
            cost = np.einsum("ijk,ijk->ij", diff, diff)
            acc = cost.copy()
            for i in range(1, len(acc)):
                row, prev = acc[i], acc[i - 1]
                for j in range(1, len(row)):
                    best = prev[j]
                    if prev[j - 1] < best:
                        best = prev[j - 1]
                    if row[j - 1] < best:
                        best = row[j - 1]
                    row[j] = cost[i, j] + best
            np.linalg.lstsq(self._x, self._y, rcond=None)
            total += float(acc[-1, -1])
        return total

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self._reference()
        elapsed = time.perf_counter() - start
        self.samples.append((start, elapsed))
        self.spent += elapsed

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def factor(self, spans=()) -> float:
        """Speed factor over the samples taken inside `spans` (perf_counter
        intervals), or over all samples when none falls inside."""
        inside = [d for t, d in self.samples if any(a <= t <= b for a, b in spans)]
        durations = inside or [d for _, d in self.samples]
        return statistics.fmean(durations) / REFERENCE_PROBE_S if durations else 1.0

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def _import_seconds() -> float:
    """Wall time of a fresh interpreter importing the package."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import crowdgroups"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


def _passes(workloads, workload, inputs, tracer, work, seconds, clock):
    """Untraced passes until `seconds` have elapsed, at least one."""
    out = []
    start = time.perf_counter()
    while not out or time.perf_counter() - start < seconds:
        out.append(workloads.run_pass(workload, inputs, tracer, work, clock))
        if out[-1].failed and not out[-1].window_s:
            break
    return out


def _check_repeats(passes) -> None:
    """Every pass must reproduce the first pass's predictions."""
    first = passes[0].predictions
    for p in passes[1:]:
        p.check(p.predictions == first, "a repeated pass predicted differently")


def end_to_end(workloads, setup_s, passes) -> dict:
    """Timings are medians over the run's passes, per window for the window
    latencies; every pass repeats the same work."""
    per_window = [statistics.median(times) for times in zip(*(p.window_s for p in passes))]
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(p.run_s for p in passes),
        "window_ms_p50": workloads.percentile_ms(per_window, 50),
        "window_ms_p90": workloads.percentile_ms(per_window, 90),
        "pairs_per_s": passes[0].pairs / sum(per_window) if per_window else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gmitre_f1": passes[0].f1,
    }


def at_reference_speed(raw: dict, run_factor: float, window_factor: float) -> dict:
    """Timings scaled to the reference machine speed (see SpeedProbe); the
    window metrics use the probes taken while windows were processed."""
    out = dict(raw)
    out["setup_s"] = raw["setup_s"] / run_factor
    out["run_s"] = raw["run_s"] / run_factor
    out["window_ms_p50"] = raw["window_ms_p50"] / window_factor
    out["window_ms_p90"] = raw["window_ms_p90"] / window_factor
    out["pairs_per_s"] = raw["pairs_per_s"] * window_factor
    return out


def per_layer(tracer, traced, untraced_s) -> dict:
    """Per-layer metrics of one traced pass, with `untraced_s` the median
    untraced pass time of the same run."""
    summary = tracer.summary()
    inc, layer_self, counts = summary["inclusive"], summary["layer_self"], tracer.counts
    d = traced.descriptors
    bcfw_iterations = counts["bcfw_iterations"]
    pairs = d.get("pairs", 0)
    online = (inc["learning.online_predict_train"]
              - tracer.child_time("learning.online_predict_train", "features.build_scene")
              - tracer.child_time("learning.online_predict_train", "learning.predict"))
    steps = traced.counts.get("bcfw_steps", 0)
    layer_sum = sum(layer_self[name] for name in LAYERS)
    pass_s = summary["root_s"]
    return {
        "trajectories.load_s": inc["trajectories.load"],
        "trajectories.slice_s": inc["trajectories.slice"],
        "trajectories.scene_stats_s": inc["trajectories.scene_stats"],
        "trajectories.self_s": layer_self["trajectories"],
        "trajectories.windows": d.get("windows", 0),
        "trajectories.members_mean": d.get("members_mean", 0.0),
        "trajectories.dropped_members": d.get("dropped_members", 0),
        "features.build_scene_s": inc["features.build_scene"],
        "features.d_ph_s": inc["features.d_ph"],
        "features.d_sh_s": inc["features.d_sh"],
        "features.d_ca_s": inc["features.d_ca"],
        "features.d_he_s": inc["features.d_he"],
        "features.self_s": layer_self["features"] - (
            inc["features.d_ph"] + inc["features.d_sh"] + inc["features.d_ca"] + inc["features.d_he"]),
        "features.pairs": pairs,
        "features.us_per_pair": inc["features.build_scene"] / pairs * 1e6 if pairs else 0.0,
        "features.granger_fallback_pairs": d.get("granger_fallback_pairs", 0),
        "features.no_overlap_pairs": d.get("no_overlap_pairs", 0),
        "partitioning.affinity_s": inc["partitioning.affinity"],
        "partitioning.greedy_cc_s": inc["partitioning.greedy_cc"],
        "partitioning.self_s": layer_self["partitioning"],
        "partitioning.greedy_calls": counts["partitioning.greedy_cc"],
        "partitioning.greedy_merges": counts["greedy_merges"],
        "learning.bcfw_train_s": inc["learning.bcfw_train"],
        "learning.bcfw_iteration_ms": (
            inc["learning.bcfw_train"] / bcfw_iterations * 1e3 if bcfw_iterations else 0.0),
        "learning.oracle_s": inc["learning.oracle"],
        "learning.oracle_share": (
            inc["learning.oracle"] / inc["learning.bcfw_train"] if inc["learning.bcfw_train"] else 0.0),
        "learning.oracle_calls": counts["learning.oracle"],
        "learning.oracle_merges": counts["oracle_merges"],
        "learning.oracle_candidates": counts["oracle_candidates"],
        "learning.useful_step_ratio": traced.counts.get("useful_steps", 0) / steps if steps else 0.0,
        "learning.predict_s": inc["learning.predict"],
        "learning.online_update_s": online,
        "learning.self_s": layer_self["learning"],
        "losses.score_s": inc["losses.score"],
        "losses.score_calls": counts["losses.score"],
        "harness.run_experiment_s": inc["harness.run_experiment"],
        "harness.self_s": layer_self["harness"],
        "trace.pass_s": pass_s,
        "trace.layer_self_sum_s": layer_sum,
        "trace.coverage": layer_sum / pass_s if pass_s else 0.0,
        "trace.untraced_pass_s": untraced_s,
        "trace.overhead_s": pass_s - untraced_s,
        "trace.spans": len(tracer.spans),
    }


PER_LAYER_UNITS = {"_s": "s", "_ms": "ms", "us_per_pair": "us", "share": "ratio",
                   "ratio": "ratio", "coverage": "ratio", "members_mean": "count"}


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "crowdgroups" / "__init__.py").is_file():
        print(f"error: no crowdgroups package under {SRC}", file=sys.stderr)
        return 2
    _pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    import crowdgroups
    import workloads

    if Path(crowdgroups.__file__).resolve().parent != (SRC / "crowdgroups").resolve():
        print(f"error: imported crowdgroups from {crowdgroups.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: workload must be one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = HERE / "work"
    work = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work / "data", ignore_errors=True)
            start = time.perf_counter()
            inputs = workloads.setup(args.workload, args.seed, work)
            setups.append(_import_seconds() + time.perf_counter() - start)
        setup_s = statistics.median(setups)

        idle = Tracer(enabled=False)
        probe = SpeedProbe()
        with contextlib.redirect_stdout(io.StringIO()):
            with probe.running():
                passes = _passes(workloads, args.workload, inputs, idle, work, args.seconds,
                                 probe.clock)
            _check_repeats(passes)
            traced_pass = tracer = None
            if args.trace:
                tracer = Tracer(enabled=True)
                tracer.install()
                try:
                    traced_pass = workloads.run_pass(args.workload, inputs, tracer, work)
                finally:
                    tracer.uninstall()
                traced_pass.check(traced_pass.predictions == passes[0].predictions,
                                  "the traced pass predicted differently")
        everything = passes + ([traced_pass] if traced_pass else [])
        floor = workloads.F1_FLOOR[args.workload]
        f1 = passes[0].f1
        passes[0].check(f1 >= floor, f"gmitre F1 {f1:.4f} below the floor {floor}")
        attempted = sum(p.attempted for p in everything)
        failed = sum(p.failed for p in everything)
        errors = [e for p in everything for e in p.errors]

        if args.trace:
            metrics = per_layer(tracer, traced_pass, statistics.median(p.run_s for p in passes))
            units = {name: unit_of(name) for name in metrics}
            tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            raw = end_to_end(workloads, setup_s, passes)
            spans = [p.window_span for p in passes if p.window_span]
            metrics = at_reference_speed(raw, probe.factor(), probe.factor(spans))
            units = dict(END_TO_END)
        env = environment()
        full = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": env, "inputs": passes[0].descriptors,
            "passes": len(passes), "pass_run_s": [p.run_s for p in passes],
            "windows_timed": sum(len(p.window_s) for p in passes),
            "attempted": attempted, "failed": failed,
            "failed_ratio": failed / attempted if attempted else 1.0,
            "errors": errors, "metrics": metrics, "units": units,
            "speed_factor": probe.factor(), "probe_samples": len(probe.samples),
            "raw_metrics": None if args.trace else raw,
        }
        (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(full, indent=2) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={full['passes']} "
          f"windows_timed={full['windows_timed']}")
    print("# environment " + json.dumps(env))
    print("# inputs " + json.dumps(full["inputs"]))
    for error in errors:
        print(f"# FAILED {error}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:>16.6g} {units[name]}")
    print(f"{'failed_ratio':34s} {full['failed_ratio']:>16.6g} ratio")
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
