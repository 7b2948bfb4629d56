"""Trajectory ingestion, ground-plane projection, time windowing, scene statistics.

Positions are carried in meters on the ground plane; time is carried in
seconds. Frame-indexed files are converted with the dataset frame rate.
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (SAMPLE_BOUND, ConfigError, DataError, DegenerateProjectionError, PositiveFloat,
                     TrajectoryParseError, _check_number, _frozen_array)
from .partitioning import Partition

logger = logging.getLogger(__name__)

TRAJECTORY_FILE = "trajectories.txt"
GROUNDTRUTH_FILE = "groups.txt"
DESCRIPTOR_FILE = "descriptor.txt"

# A sample is treated as occupying one frame period when tiling windows, so
# the usable span ends one median inter-sample gap after the last timestamp.
# A window whose end lands on a span boundary (the usable span, the training
# span) within this tolerance counts as inside it.
_SPAN_EPS = 1e-9
_CHUNK_ELEMENTS = 1 << 17  # floats in one pass's temporaries (1 MiB), here and in features
_HOMOGRAPHY_DET_EPS = 1e-12
_PROJECTION_W_EPS = 1e-9
_OUT_OF_BOUND = f"sample values must be finite and within ±{SAMPLE_BOUND:g} (seconds, {{unit}})"


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-stamped ground-plane path of one pedestrian, every value within ±SAMPLE_BOUND.

    times: (n,) seconds, strictly increasing. points: (n, 2) meters (read-only
    copies, or for a `segment` read-only views of its checked parent's).
    """

    pedestrian_id: int
    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pedestrian_id", _check_number("pedestrian_id", self.pedestrian_id, int))
        times = _frozen_array(self.times)
        points = _frozen_array(self.points)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)
        if times.ndim != 1 or times.size < 1:
            raise ValueError("a trajectory needs at least one (t, p) sample")
        if points.shape != (times.size, 2):
            raise ValueError(f"points shape {points.shape} does not match {times.size} timestamps")
        if not (np.all(np.abs(times) <= SAMPLE_BOUND) and np.all(np.abs(points) <= SAMPLE_BOUND)):
            raise DataError(f"pedestrian {self.pedestrian_id}: {_OUT_OF_BOUND.format(unit='meters')}")
        if np.any(np.diff(times) <= 0):
            raise DataError(f"pedestrian {self.pedestrian_id}: timestamps must be strictly increasing")

    def segment(self, i0: int, i1: int) -> Trajectory:
        """Samples i0 to i1 - 1 (i0 < i1) as read-only views of this checked
        trajectory's arrays: a slice of a valid trajectory is valid, so it is
        neither checked nor copied again."""
        seg = object.__new__(Trajectory)
        vars(seg).update(pedestrian_id=self.pedestrian_id, times=self.times[i0:i1], points=self.points[i0:i1])
        return seg

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def start_t(self) -> float:
        return float(self.times[0])

    @property
    def end_t(self) -> float:
        return float(self.times[-1])


@dataclass(frozen=True, eq=False)
class Homography:
    """3x3 invertible plane projection with entries within ±SAMPLE_BOUND, row-major (a read-only copy)."""

    h: np.ndarray

    def __post_init__(self):
        h = _frozen_array(self.h)
        object.__setattr__(self, "h", h)
        if h.shape != (3, 3):
            raise ValueError(f"homography must be 3x3, got {h.shape}")
        if not np.all(np.abs(h) <= SAMPLE_BOUND):
            raise DataError(f"homography entries must be finite and within ±{SAMPLE_BOUND:g}")
        if abs(float(np.linalg.det(h))) < _HOMOGRAPHY_DET_EPS:
            raise DataError("homography matrix is singular")

    @classmethod
    def identity(cls) -> "Homography":
        return cls(np.eye(3))


@dataclass(frozen=True, eq=False)
class TimeWindow:
    """One time slice: members with >= 2 in-window samples and their segments."""

    index: int
    start_t: float
    end_t: float
    members: frozenset[int]
    segments: Mapping[int, Trajectory]
    dropped: frozenset[int] = frozenset()
    _slice: tuple = field(default=(), init=False, repr=False)  # weak references to its slice_windows call's windows

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        object.__setattr__(self, "dropped", frozenset(self.dropped))
        object.__setattr__(self, "segments", MappingProxyType(dict(self.segments)))
        if set(self.segments) != set(self.members):
            raise ValueError("segments must cover exactly the window members")


def align_segments(segments) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, points, present): the sorted union of the segments' timestamps, a
    (segments, frames, 2) point tensor, zero where a segment has no sample, and
    the (segments, frames) mask of the samples. A segment's samples are its
    present frames in order; two share a frame when both have that timestamp."""
    times = np.unique(np.concatenate([seg.times for seg in segments] or [np.empty(0)]))
    points = np.zeros((len(segments), times.size, 2))
    present = np.zeros((len(segments), times.size), dtype=bool)
    for k, seg in enumerate(segments):
        cols = np.searchsorted(times, seg.times)
        points[k, cols] = seg.points
        present[k, cols] = True
    return times, points, present


@dataclass(frozen=True)
class SceneStats:
    """Crowd sociality statistics; a field is None when its defining set is empty."""

    d_in: float | None
    d_out: float | None
    d_io: float | None


def apply_homography(homography: Homography, point) -> np.ndarray:
    """Project one 2-D point through the homography with perspective divide."""
    return _project_points(homography, np.array([[float(point[0]), float(point[1])]]))[0]


def _project_points(homography: Homography, points: np.ndarray) -> np.ndarray:
    ones = np.ones((points.shape[0], 1))
    hom = np.hstack([points, ones]) @ homography.h.T
    w = hom[:, 2]
    if np.any(np.abs(w) < _PROJECTION_W_EPS):
        bad = points[np.abs(w) < _PROJECTION_W_EPS][0]
        raise DegenerateProjectionError(
            f"homogeneous coordinate vanished while projecting ({bad[0]}, {bad[1]})"
        )
    return hom[:, :2] / w[:, None]


def _parse_id(token: str) -> int:
    """A pedestrian id: a finite whole number, possibly written as a float
    (BIWI files write 1.0000000e+00)."""
    value = float(token)
    if not value.is_integer():
        raise ValueError(f"pedestrian id must be a whole number, got {token!r}")
    return int(value)


def _records(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of every line of the UTF-8 file that is
    neither blank nor a `#` comment; lines end as in text mode (\\n, \\r, \\r\\n)."""
    for lineno, line in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            text = line.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise TrajectoryParseError(f"{path}:{lineno}: not UTF-8 text: {exc.reason}") from None
        if text and not text.startswith("#"):
            yield lineno, text


def load_trajectories(path, homography: Homography | None = None, fps: float = 1.0) -> list[Trajectory]:
    """Parse a trajectory file: `<frame> <ped_id> <x> <y>` per line, `#` comments.

    Timestamps become frame/fps seconds (fps a PositiveFloat); positions are
    projected through the homography when one is given (pixel-unit files
    require one). Each line's t, x and y (in pixels when projected), and each
    projected position, lie within ±SAMPLE_BOUND: the error names the line, or
    for a projected position the pedestrian.
    """
    fps = _check_number("fps", fps, PositiveFloat)
    out_of_bound = _OUT_OF_BOUND.format(unit="meters" if homography is None else "pixels")
    path = Path(path)
    samples: dict[int, dict[float, tuple[float, float]]] = {}
    for lineno, text in _records(path):
        parts = text.split()
        if len(parts) != 4:
            raise TrajectoryParseError(f"{path}:{lineno}: expected 4 fields `frame id x y`, got {len(parts)}")
        try:
            t, ped, x, y = float(parts[0]) / fps, _parse_id(parts[1]), float(parts[2]), float(parts[3])
            if not (abs(t) <= SAMPLE_BOUND and abs(x) <= SAMPLE_BOUND and abs(y) <= SAMPLE_BOUND):
                raise ValueError(f"{out_of_bound}, got t = {t!r}, x = {x!r}, y = {y!r}")
        except ValueError as exc:
            raise TrajectoryParseError(f"{path}:{lineno}: {exc}") from None
        per_ped = samples.setdefault(ped, {})
        if t in per_ped:
            raise DataError(f"{path}:{lineno}: duplicate sample for pedestrian {ped} at frame {parts[0]}")
        per_ped[t] = (x, y)
    trajectories = []
    for ped in sorted(samples):
        times = np.array(sorted(samples[ped]))
        points = np.array([samples[ped][t] for t in times])
        if homography is not None:
            points = _project_points(homography, points)
        try:
            trajectories.append(Trajectory(ped, times, points))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
    return trajectories


def load_homography(path) -> Homography:
    """Read 9 whitespace-separated floats as a row-major 3x3 matrix; `#` starts a comment line."""
    path = Path(path)
    tokens = [token for _, text in _records(path) for token in text.split()]
    if len(tokens) != 9:
        raise TrajectoryParseError(f"{path}: expected 9 floats, got {len(tokens)}")
    try:
        return Homography(np.array([float(tok) for tok in tokens]).reshape(3, 3))
    except ValueError as exc:
        raise TrajectoryParseError(f"{path}: {exc}") from None
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_ground_truth(path) -> Partition:
    """Read one group per line (whitespace-separated ids) into a Partition of
    the listed pedestrians; size-1 lines are ignored."""
    path = Path(path)
    groups: list[list[int]] = []
    seen: set[int] = set()
    for lineno, text in _records(path):
        try:
            ids = [_parse_id(tok) for tok in text.split()]
        except ValueError as exc:
            raise TrajectoryParseError(f"{path}:{lineno}: {exc}") from None
        if len(set(ids)) != len(ids):
            raise DataError(f"{path}:{lineno}: repeated id within a group")
        if set(ids) & seen:
            raise DataError(f"{path}:{lineno}: id already assigned to another group")
        seen |= set(ids)
        if len(ids) < 2:
            logger.info("%s:%d: single-id group line ignored (singleton)", path, lineno)
            continue
        groups.append(ids)
    return Partition(groups)


def parse_descriptor(path) -> dict[str, str]:
    """Read `key = value` (or `key value`) lines describing a dataset."""
    path = Path(path)
    out: dict[str, str] = {}
    for lineno, text in _records(path):
        key, _, value = text.partition("=" if "=" in text else " ")
        key = key.strip()
        value = value.strip().strip('"')
        if not key or not value:
            raise TrajectoryParseError(f"{path}:{lineno}: expected `key = value`")
        if key in out:
            raise TrajectoryParseError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    trajectories: list[Trajectory]
    labels: Partition | None
    fps: float
    units: str
    descriptor: Mapping[str, str]


def load_dataset(directory) -> Dataset:
    """Load a dataset directory: trajectories.txt, optional groups.txt + descriptor.txt.

    The descriptor supplies `fps` (default 1), `units` (meters|pixels, default
    meters) and, for pixel units, the `homography` file path.
    """
    directory = Path(directory)
    traj_path = directory / TRAJECTORY_FILE
    if not traj_path.is_file():
        raise DataError(f"{directory}: missing {TRAJECTORY_FILE}")
    descriptor: dict[str, str] = {}
    desc_path = directory / DESCRIPTOR_FILE
    if desc_path.is_file():
        descriptor = parse_descriptor(desc_path)
    try:
        fps = float(descriptor.get("fps", "1"))
    except ValueError:
        raise TrajectoryParseError(f"{desc_path}: fps is not a number") from None
    units = descriptor.get("units", "meters")
    if units not in ("meters", "pixels"):
        raise ConfigError(f"{desc_path}: units must be meters or pixels, got {units!r}")
    homography = None
    if units == "pixels":
        if "homography" not in descriptor:
            raise ConfigError(f"{desc_path}: pixel units require a homography path")
        homography = load_homography(directory / descriptor["homography"])
    try:
        trajectories = load_trajectories(traj_path, homography=homography, fps=fps)
    except ConfigError as exc:  # fps is the one setting it checks
        raise ConfigError(f"{desc_path}: {exc}") from None
    labels = None
    gt_path = directory / GROUNDTRUTH_FILE
    if gt_path.is_file():
        labels = load_ground_truth(gt_path)
    return Dataset(trajectories, labels, fps, units, MappingProxyType(descriptor))


def slice_windows(trajectories: Iterable[Trajectory], window_len: float, stride: float) -> list[TimeWindow]:
    """Tile the covered time span into [start, start+window_len) windows.

    A window is emitted only when fully inside the span (each sample counts as
    occupying one median frame period). Members with fewer than 2 in-window
    samples are excluded and recorded in `dropped`. A stride that would start
    more windows than the trajectories have samples raises ConfigError. The
    segments are `Trajectory.segment` views of the already checked trajectories,
    read-only and not copied.
    """
    window_len = _check_number("window_len", window_len, PositiveFloat)
    stride = _check_number("stride", stride, PositiveFloat)
    trajectories = list(trajectories)
    if not trajectories:
        return []
    t_min = min(tr.start_t for tr in trajectories)
    t_max = max(tr.end_t for tr in trajectories)
    gaps = np.concatenate(
        [np.diff(tr.times) for tr in trajectories if len(tr) >= 2] or [np.array([0.0])]
    )
    frame_period = float(np.median(gaps)) if gaps.size else 0.0
    span_end = t_max + frame_period
    samples = sum(map(len, trajectories))
    if (span_end + _SPAN_EPS - t_min - window_len) // stride + 1 > samples:
        raise ConfigError(f"stride {stride} starts more windows than the data's {samples} samples")
    starts: list[float] = []
    while t_min + len(starts) * stride + window_len <= span_end + _SPAN_EPS:
        starts.append(t_min + len(starts) * stride)
    bounds = np.array([starts, np.add(starts, window_len)])
    # each trajectory's samples [i0, i1) in each window: one searchsorted per trajectory
    i0, i1 = np.array([np.searchsorted(tr.times, bounds) for tr in trajectories]).transpose(1, 0, 2)
    counts = i1 - i0
    windows: list[TimeWindow] = []
    for index, (start, end) in enumerate(bounds.T.tolist()):
        segments = {trajectories[k].pedestrian_id: trajectories[k].segment(i0[k, index], i1[k, index])
                    for k in np.flatnonzero(counts[:, index] >= 2)}
        dropped = {trajectories[k].pedestrian_id for k in np.flatnonzero(counts[:, index] == 1)}
        if dropped:
            logger.info(
                "window %d [%g, %g): dropped %d single-sample member(s): %s",
                index, start, end, len(dropped), sorted(dropped),
            )
        windows.append(TimeWindow(index, start, end, frozenset(segments), segments, frozenset(dropped)))
    siblings = tuple(map(weakref.ref, windows))
    for w in windows:
        object.__setattr__(w, "_slice", siblings)
    return windows


def restrict_labels(members: Iterable[int], labels: Partition) -> Partition:
    """Ground-truth partition over `members`: group intersections of size >= 2
    stay groups, everything else becomes a singleton."""
    members = set(members)
    clusters = [inter for group in labels.groups if len(inter := members.intersection(group)) >= 2]
    return Partition(clusters + [[m] for m in members.difference(*clusters)])


def window_ground_truth(window: TimeWindow, labels: Partition) -> Partition:
    """Restrict sequence-global groups to the window's member set."""
    return restrict_labels(window.members, labels)


def scene_stats(windows: Iterable[TimeWindow], labels: Partition) -> SceneStats:
    """Group compactness d_in, isolation d_out, and their ratio d_io.

    d_in averages distances between co-present group mates per frame; d_out
    averages, per member and frame, the distance to the nearest pedestrian
    from outside the member's group.
    """
    windows = list(windows)
    if not windows:
        raise ValueError("scene_stats requires at least one window")
    group_of = labels.labels()
    intra: list[np.ndarray] = [np.empty(0)]
    nearest: list[np.ndarray] = [np.empty(0)]
    for window in windows:
        _, points, present = align_segments([window.segments[m] for m in sorted(window.members)])
        groups = np.array([group_of.get(m, -1) for m in sorted(window.members)], dtype=int)
        mates = (groups[:, None] == groups[None, :]) & (groups >= 0)[:, None]
        step = max(1, _CHUNK_ELEMENTS // max(1, groups.size**2))  # frames per pass
        for f in range(0, present.shape[1], step):
            (x, y), here = points[:, f : f + step].transpose(2, 1, 0), present[:, f : f + step].T
            dist = np.hypot(x[:, :, None] - x[:, None, :], y[:, :, None] - y[:, None, :])  # (frames, i, j)
            both = here[:, :, None] & here[:, None, :]
            intra.append(dist[both & np.triu(mates, 1)])  # in (frame, i, j) order
            others = np.where(~both | mates | np.eye(groups.size, dtype=bool), np.inf, dist).min(axis=2)
            nearest.append(others[np.isfinite(others)])
    intra_all, nearest_all = np.concatenate(intra), np.concatenate(nearest)
    d_in = float(intra_all.mean()) if intra_all.size else None
    d_out = float(nearest_all.mean()) if nearest_all.size else None
    d_io = d_in / d_out if d_in is not None and d_out else None
    return SceneStats(d_in=d_in, d_out=d_out, d_io=d_io)
