"""Synthetic crowd scenes with known group structure.

Each group follows one leader on a smooth wandering walk; members replay
the leader's displacements with a configurable time lag from fixed formation
offsets, so grouped trajectories carry a planted directional dependence on
top of spatial closeness and shape similarity. Singletons walk independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

import numpy as np

from .errors import ConfigError, NonNegativeFloat, NonNegativeInt, PositiveFloat, _check_fields, _check_number
from .partitioning import Partition
from .trajectories import DESCRIPTOR_FILE, GROUNDTRUTH_FILE, TRAJECTORY_FILE, Trajectory

_FORMATION_UNIT = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
MAX_SAMPLES = 10_000_000  # duration x fps x pedestrians: 40x a 10,000-pedestrian 10 s window


@dataclass(frozen=True)
class SynthSpec:
    """Shape of a generated scene. Distances in meters, durations in seconds."""

    n_groups: NonNegativeInt = 4
    group_size_min: int = 2
    group_size_max: int = 4
    n_singletons: NonNegativeInt = 6
    spacing: PositiveFloat = 0.6
    extent: PositiveFloat = 30.0
    duration: PositiveFloat = 200.0
    fps: PositiveFloat = 2.5
    lag: NonNegativeInt = 1
    noise_std: NonNegativeFloat = 0.05
    behavior: Literal["parallel", "converging"] = "parallel"
    speed: PositiveFloat = 1.2
    wander_std: NonNegativeFloat = 0.25

    def __post_init__(self):
        _check_fields(self)
        if not 2 <= self.group_size_min <= self.group_size_max <= len(_FORMATION_UNIT):
            raise ConfigError(f"group sizes must satisfy 2 <= min <= max <= {len(_FORMATION_UNIT)}")
        pedestrians = min(self.n_groups * self.group_size_max + self.n_singletons, MAX_SAMPLES + 1)
        if self.duration * self.fps * pedestrians > MAX_SAMPLES:
            raise ConfigError(f"duration x fps x pedestrians must be at most {MAX_SAMPLES:,} samples")


def _leader_walk(
    rng: np.random.Generator, spec: SynthSpec, start: np.ndarray, n_steps: int, dt: float
) -> np.ndarray:
    """Constant-speed walk from `start` whose heading takes N(0, wander_std *
    sqrt(dt)) innovations and is reflected off a 2 m margin inside the extent."""
    heading = rng.uniform(0.0, 2.0 * math.pi)
    turns = rng.normal(0.0, spec.wander_std * math.sqrt(dt), size=n_steps).tolist()
    lo, hi = 2.0, spec.extent - 2.0
    stride = spec.speed * dt
    x, y = start.tolist()
    out = []
    for turn in turns:
        out.append((x, y))
        heading += turn
        x, y = x + stride * math.cos(heading), y + stride * math.sin(heading)
        if x < lo:
            x, heading = lo + (lo - x), math.pi - heading
        if x > hi:
            x, heading = hi - (x - hi), math.pi - heading
        if y < lo:
            y, heading = lo + (lo - y), -heading
        if y > hi:
            y, heading = hi - (y - hi), -heading
    return np.array(out)


def _sample_starts(
    rng: np.random.Generator, spec: SynthSpec, count: int, min_gap: float
) -> np.ndarray:
    """Rejection-sample `count` points inside the walkable area, pairwise at
    least min_gap apart; the gap halves when the area is too crowded for it.
    A candidate is tested only against the placed starts in the 3 x 3 cells of
    edge gap around its own, where every start closer than gap lies."""
    lo, hi = 2.0, spec.extent - 2.0
    if hi <= lo:
        raise ConfigError("extent too small for the walk margin")
    gap = min_gap
    starts = np.empty((count, 2))
    while True:
        cells: dict[tuple[int, int], list[int]] = {}  # placed starts by cell, rebuilt per gap
        for k in range(count):
            for _attempt in range(2_000):
                p = rng.uniform(lo, hi, size=2)
                i, j = (int(v) for v in (p - lo) // gap)
                near = [q for di in (-1, 0, 1) for dj in (-1, 0, 1) for q in cells.get((i + di, j + dj), ())]
                d = p - starts[near]
                if not near or np.hypot(d[:, 0], d[:, 1]).min() >= gap:
                    starts[k] = p
                    cells.setdefault((i, j), []).append(k)
                    break
            else:
                break
        else:
            return starts
        gap *= 0.5
        if gap < 0.25:
            raise ConfigError(f"could not place {count} starts in extent {spec.extent}")


def _replay(leader_path: np.ndarray, lag: int) -> np.ndarray:
    """The leader's moves replayed from its first point, delayed by `lag`
    samples: position k accumulates the displacements up to k - lag."""
    moves = np.diff(leader_path, axis=0)[: len(leader_path) - 1 - lag]
    return np.cumsum(np.vstack([leader_path[:1], np.zeros((lag, 2)), moves]), axis=0)


def synth_generate(
    spec: SynthSpec | None = None, seed: int = 0
) -> tuple[list[Trajectory], Partition]:
    """Generate one scene: trajectories for every pedestrian plus the labels.

    Group members follow the leader's displacement sequence delayed by
    spec.lag samples (the leader itself at lag 0), offset on a spacing-scaled
    formation lattice, with per-sample Gaussian jitter. "converging" starts
    members dispersed around their slot and decays the extra offset toward the
    formation over the first quarter of the sequence.
    """
    spec = spec or SynthSpec()
    seed = _check_number("seed", seed, NonNegativeInt)
    rng = np.random.default_rng(seed)
    n_steps = int(round(spec.duration * spec.fps))
    if n_steps < spec.lag + 2:
        raise ConfigError("duration too short for the configured lag")
    dt = 1.0 / spec.fps
    times = np.arange(n_steps) * dt

    sizes = [
        int(rng.integers(spec.group_size_min, spec.group_size_max + 1))
        for _ in range(spec.n_groups)
    ]
    starts = _sample_starts(rng, spec, spec.n_groups + spec.n_singletons, min_gap=6.0)

    trajectories: list[Trajectory] = []
    groups: list[list[int]] = []
    next_id = 1
    for g in range(spec.n_groups):
        leader_path = _leader_walk(rng, spec, starts[g], n_steps, dt)
        member_ids = []
        for slot in range(sizes[g]):
            offset = spec.spacing * np.asarray(_FORMATION_UNIT[slot])
            path = _replay(leader_path, spec.lag if slot > 0 else 0) + offset
            if spec.behavior == "converging" and slot > 0:
                scatter = rng.uniform(2.0, 4.0, size=2) * rng.choice((-1.0, 1.0), size=2)
                decay = np.exp(-times / (spec.duration / 4.0))[:, None]
                path = path + scatter * decay
            path = path + rng.normal(0.0, spec.noise_std, size=path.shape)
            np.clip(path, 0.0, spec.extent, out=path)
            trajectories.append(Trajectory(next_id, times, path))
            member_ids.append(next_id)
            next_id += 1
        groups.append(member_ids)
    for s in range(spec.n_singletons):
        path = _leader_walk(rng, spec, starts[spec.n_groups + s], n_steps, dt)
        path = path + rng.normal(0.0, spec.noise_std, size=path.shape)
        np.clip(path, 0.0, spec.extent, out=path)
        trajectories.append(Trajectory(next_id, times, path))
        next_id += 1

    return trajectories, Partition(groups)


def _rows(traj: Trajectory, fps: float) -> list[str]:
    """The trajectory's `frame ped x y` rows, frame = round(t * fps)."""
    return [
        f"{round(t * fps)} {traj.pedestrian_id} {x:.6f} {y:.6f}"
        for t, (x, y) in zip(traj.times.tolist(), traj.points.tolist())
    ]


def write_dataset(
    directory,
    trajectories: list[Trajectory],
    labels: Partition | None,
    fps: float,
    seed: int | None = None,
) -> None:
    """Write a loadable dataset directory: trajectory rows `frame ped x y`
    (frame = round(t * fps)), one group per line, and a descriptor."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [row for traj in trajectories for row in _rows(traj, fps)]
    (directory / TRAJECTORY_FILE).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if labels is not None:
        group_lines = [" ".join(map(str, g)) for g in labels.groups]
        (directory / GROUNDTRUTH_FILE).write_text(
            "\n".join(group_lines) + ("\n" if group_lines else ""), encoding="utf-8"
        )
    descriptor = [f"fps = {float(fps)!r}", "units = meters"]
    if seed is not None:
        descriptor.append(f"seed = {seed}")
    (directory / DESCRIPTOR_FILE).write_text("\n".join(descriptor) + "\n", encoding="utf-8")
