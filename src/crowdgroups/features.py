"""Pairwise social features over co-windowed trajectory segments.

Each pedestrian pair gets four bounded distances: physical closeness under a
Gaussian-mixture model of interpersonal zones (d_ph), path-shape divergence by
dynamic time warping (d_sh), absence of temporal causality by a Granger F-test
(d_ca), and divergence of visited-area heat maps (d_he). All are emitted as
distances in [0, 1]; the learner sees both halves [1 - d; d].
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from io import IOBase
from pathlib import Path
from typing import Iterable

import numpy as np
from scipy.special import betainc

from .errors import ConfigError
from .trajectories import TimeWindow, Trajectory

logger = logging.getLogger(__name__)

FEATURE_NAMES = ("d_ph", "d_sh", "d_ca", "d_he")
HALL_SIGMAS = (0.5, 1.2, 3.7, 7.6)
GRANGER_FALLBACK = 0.5
NO_OVERLAP_DISTANCE = 1.0
DTW_TAU = 1.0
_DEGENERATE_RSS = 1e-12


@dataclass(frozen=True)
class ProxemicsConfig:
    """Standard deviations (meters) of the interpersonal-zone Gaussians."""

    sigmas: tuple[float, ...] = HALL_SIGMAS

    def __post_init__(self):
        object.__setattr__(self, "sigmas", tuple(float(s) for s in self.sigmas))
        if not self.sigmas or any(s <= 0 for s in self.sigmas):
            raise ConfigError("proxemic sigmas must be strictly positive")
        if any(a >= b for a, b in zip(self.sigmas, self.sigmas[1:])):
            raise ConfigError("proxemic sigmas must be strictly increasing")


@dataclass(frozen=True)
class GrangerConfig:
    """Autoregression lag order m; a pair needs K >= 2m + 2 common samples."""

    lag: int = 2

    def __post_init__(self):
        if int(self.lag) < 1:
            raise ConfigError(f"granger lag must be >= 1, got {self.lag}")
        object.__setattr__(self, "lag", int(self.lag))

    def min_samples(self) -> int:
        return 2 * self.lag + 2


@dataclass(frozen=True)
class HeatmapConfig:
    """Heat-map cell size and the spatial (k_s) / temporal (k_r) coefficients."""

    cell_edge: float = 0.30
    k_s: float = 1e-5
    k_r: float = 0.5
    accumulate: str = "binary"

    def __post_init__(self):
        if self.cell_edge <= 0:
            raise ConfigError(f"cell_edge must be positive, got {self.cell_edge}")
        if self.k_s < 0 or self.k_r < 0:
            raise ConfigError("k_s and k_r must be non-negative")
        if self.accumulate not in ("binary", "visits"):
            raise ConfigError(
                f"accumulate must be 'binary' or 'visits', got {self.accumulate!r}"
            )


@dataclass(frozen=True)
class FeatureConfigs:
    """Bundle of the per-feature configurations."""

    proxemics: ProxemicsConfig = field(default_factory=ProxemicsConfig)
    granger: GrangerConfig = field(default_factory=GrangerConfig)
    heatmap: HeatmapConfig = field(default_factory=HeatmapConfig)


@dataclass(frozen=True, eq=False)
class PairFeatures:
    """The four distances for one unordered pedestrian pair (id_a < id_b)."""

    pair: tuple[int, int]
    d: np.ndarray
    granger_fallback: bool = False
    no_overlap: bool = False

    def __post_init__(self):
        a, b = self.pair
        if not a < b:
            raise ValueError(f"pair must be ordered id_a < id_b, got {self.pair}")
        d = np.ascontiguousarray(self.d, dtype=float)
        if d.shape != (4,):
            raise ValueError(f"feature vector must have 4 components, got {d.shape}")
        if not np.all(np.isfinite(d)) or d.min() < 0.0 or d.max() > 1.0:
            raise ValueError(f"feature components must be finite and in [0, 1], got {d}")
        d.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "pair", (int(a), int(b)))

    @property
    def augmented(self) -> np.ndarray:
        """The 8-vector [1 - d; d]."""
        return np.concatenate([1.0 - self.d, self.d])

    @property
    def affinity_term(self) -> np.ndarray:
        """The 8-vector whose dot product with w = [alpha; beta] is the pair
        affinity alpha.(1 - d) - beta.d."""
        return np.concatenate([1.0 - self.d, -self.d])


@dataclass(frozen=True, eq=False)
class WindowedScene:
    """All pairwise features of one time window."""

    window: TimeWindow
    pairs: tuple[PairFeatures, ...]

    def __post_init__(self):
        expected = len(self.members) * (len(self.members) - 1) // 2
        if len(self.pairs) != expected:
            raise ValueError(
                f"{len(self.pairs)} pairs for {len(self.members)} members; expected {expected}"
            )

    @cached_property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self.window.members))

    @cached_property
    def pair_ids(self) -> tuple[tuple[int, int], ...]:
        return tuple(p.pair for p in self.pairs)

    @cached_property
    def pair_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Member-index arrays (ia, ib) aligned with the pair ordering."""
        index = {m: i for i, m in enumerate(self.members)}
        ia = np.fromiter((index[p.pair[0]] for p in self.pairs), dtype=int, count=len(self.pairs))
        ib = np.fromiter((index[p.pair[1]] for p in self.pairs), dtype=int, count=len(self.pairs))
        return ia, ib

    @cached_property
    def feature_matrix(self) -> np.ndarray:
        """(n_pairs, 4) distances, row order matching `pairs`."""
        if not self.pairs:
            return np.zeros((0, 4))
        return np.vstack([p.d for p in self.pairs])

    @cached_property
    def augmented(self) -> np.ndarray:
        """(n_pairs, 8) rows [1 - d; d]."""
        d = self.feature_matrix
        return np.hstack([1.0 - d, d])

    @cached_property
    def affinity_terms(self) -> np.ndarray:
        """(n_pairs, 8) rows whose dot with w = [alpha; beta] gives pair affinities."""
        d = self.feature_matrix
        return np.hstack([1.0 - d, -d])

    @property
    def granger_fallback_count(self) -> int:
        return sum(1 for p in self.pairs if p.granger_fallback)

    @property
    def no_overlap_count(self) -> int:
        return sum(1 for p in self.pairs if p.no_overlap)


def gmm_eval(delta, cfg: ProxemicsConfig | None = None) -> float:
    """Equal-weight mixture of zero-mean isotropic 2-D Gaussians at `delta`.

    The mixture is isotropic, so `delta` may be a 2-D displacement or a scalar
    separation distance.
    """
    cfg = cfg or ProxemicsConfig()
    sig2 = np.square(np.asarray(cfg.sigmas, dtype=float))
    arr = np.asarray(delta, dtype=float)
    d2 = float(arr) ** 2 if arr.ndim == 0 else float(arr[0]) ** 2 + float(arr[1]) ** 2
    return float(np.mean(np.exp(-d2 / (2.0 * sig2)) / (2.0 * math.pi * sig2)))


def _common_indices(seg_a: Trajectory, seg_b: Trajectory):
    common, ia, ib = np.intersect1d(seg_a.times, seg_b.times, return_indices=True)
    return common, ia, ib


def proxemic_distance(seg_a: Trajectory, seg_b: Trajectory, cfg: ProxemicsConfig | None = None) -> float:
    """1 - (mean mixture response over co-timed displacements) / (response at 0)."""
    cfg = cfg or ProxemicsConfig()
    common, ia, ib = _common_indices(seg_a, seg_b)
    if common.size == 0:
        raise ValueError("segments share no common timestamps")
    deltas = seg_a.points[ia] - seg_b.points[ib]
    sig2 = np.square(np.asarray(cfg.sigmas, dtype=float))
    d2 = np.einsum("ij,ij->i", deltas, deltas)
    responses = np.mean(
        np.exp(-d2[:, None] / (2.0 * sig2)) / (2.0 * math.pi * sig2), axis=1
    )
    peak = gmm_eval((0.0, 0.0), cfg)
    value = 1.0 - float(responses.mean()) / peak
    return min(1.0, max(0.0, value))


def _dtw_raw(pa: np.ndarray, pb: np.ndarray) -> float:
    """Cumulative squared-Euclidean warping cost, normalized by max(A, B)."""
    diff = pa[:, None, :] - pb[None, :, :]
    cost = np.einsum("ijk,ijk->ij", diff, diff)
    a, b = cost.shape
    acc = np.empty_like(cost)
    acc[0, :] = np.cumsum(cost[0, :])
    acc[:, 0] = np.cumsum(cost[:, 0])
    for i in range(1, a):
        row = acc[i]
        prev = acc[i - 1]
        for j in range(1, b):
            best = prev[j]
            if prev[j - 1] < best:
                best = prev[j - 1]
            if row[j - 1] < best:
                best = row[j - 1]
            row[j] = cost[i, j] + best
    return float(acc[-1, -1]) / max(a, b)


def dtw_shape_distance(seg_a: Trajectory, seg_b: Trajectory, tau: float = DTW_TAU) -> float:
    """Bounded warping distance raw/(raw + tau^2); tau is the softness scale in meters."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    raw = _dtw_raw(seg_a.points, seg_b.points)
    return raw / (raw + tau * tau)


def f_cdf(s: float, d1: int, d2: int) -> float:
    """CDF of the F(d1, d2) distribution via the regularized incomplete beta."""
    if d1 <= 0 or d2 <= 0:
        raise ValueError("degrees of freedom must be positive")
    s = float(s)
    if math.isnan(s):
        raise ValueError("statistic is NaN")
    if s <= 0.0:
        return 0.0
    if math.isinf(s):
        return 1.0
    x = d1 * s / (d1 * s + d2)
    return float(betainc(0.5 * d1, 0.5 * d2, x))


def _rss(design: np.ndarray, target: np.ndarray) -> float:
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    return float(resid @ resid)


def granger_causality_area(target: Trajectory, source: Trajectory, lag: int = 2) -> float | None:
    """F-CDF area for "source Granger-causes target" on common timestamps.

    Fits, per coordinate, the target from its own `lag` past samples (plus
    intercept) and again adding the source's past; residuals pool over x and y.
    Returns None when the common sample count leaves no error degrees of
    freedom or the restricted regression is already exact.
    """
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    common, it, isrc = _common_indices(target, source)
    k = int(common.size)
    m = int(lag)
    dof = k - 2 * m - 1
    if dof < 1:
        return None
    y_pts = target.points[it]
    x_pts = source.points[isrc]
    rss_restricted = 0.0
    rss_unrestricted = 0.0
    ones = np.ones((k - m, 1))
    for c in (0, 1):
        y = y_pts[m:, c]
        own = np.column_stack([y_pts[m - j : k - j, c] for j in range(1, m + 1)])
        other = np.column_stack([x_pts[m - j : k - j, c] for j in range(1, m + 1)])
        rss_restricted += _rss(np.hstack([ones, own]), y)
        rss_unrestricted += _rss(np.hstack([ones, own, other]), y)
    if rss_restricted <= _DEGENERATE_RSS:
        return None
    if rss_unrestricted <= _DEGENERATE_RSS:
        return 1.0
    stat = ((rss_restricted - rss_unrestricted) / m) / (rss_unrestricted / dof)
    if stat < 0.0:
        stat = 0.0
    return f_cdf(stat, m, dof)


def _granger_distance_flagged(seg_a: Trajectory, seg_b: Trajectory, cfg: GrangerConfig) -> tuple[float, bool]:
    areas = (
        granger_causality_area(seg_b, seg_a, cfg.lag),
        granger_causality_area(seg_a, seg_b, cfg.lag),
    )
    defined = [a for a in areas if a is not None]
    if not defined:
        return GRANGER_FALLBACK, True
    value = 1.0 - max(defined)
    return min(1.0, max(0.0, value)), False


def granger_distance(seg_a: Trajectory, seg_b: Trajectory, cfg: GrangerConfig | None = None) -> float:
    """1 - max directional causality area (the max makes the feature symmetric).

    Pairs with too few common samples (or degenerate regressions in both
    directions) fall back to the uninformative midpoint 0.5.
    """
    value, _ = _granger_distance_flagged(seg_a, seg_b, cfg or GrangerConfig())
    return value


@dataclass(frozen=True)
class HeatmapGrid:
    """Cell grid anchored at (x0, y0); rows follow y, columns follow x."""

    x0: float
    y0: float
    cell: float
    rows: int
    cols: int

    def cell_of(self, point) -> tuple[int, int]:
        row = int(math.floor((float(point[1]) - self.y0) / self.cell))
        col = int(math.floor((float(point[0]) - self.x0) / self.cell))
        return row, col

    def covers(self, row: int, col: int) -> bool:
        return 0 <= row < self.rows and 0 <= col < self.cols


def _points_grid(points: np.ndarray, cfg: HeatmapConfig) -> HeatmapGrid:
    x0 = float(points[:, 0].min())
    y0 = float(points[:, 1].min())
    cols = int(math.floor((float(points[:, 0].max()) - x0) / cfg.cell_edge)) + 1
    rows = int(math.floor((float(points[:, 1].max()) - y0) / cfg.cell_edge)) + 1
    return HeatmapGrid(x0=x0, y0=y0, cell=cfg.cell_edge, rows=rows, cols=cols)


def window_grid(window: TimeWindow, cfg: HeatmapConfig | None = None) -> HeatmapGrid:
    """Grid covering every member position of the window."""
    cfg = cfg or HeatmapConfig()
    if not window.segments:
        return HeatmapGrid(0.0, 0.0, cfg.cell_edge, 1, 1)
    points = np.vstack([seg.points for seg in window.segments.values()])
    return _points_grid(points, cfg)


def _expand_grid(grid: HeatmapGrid, points: np.ndarray) -> HeatmapGrid:
    x0 = min(grid.x0, float(points[:, 0].min()))
    y0 = min(grid.y0, float(points[:, 1].min()))
    x1 = max(grid.x0 + grid.cols * grid.cell, float(points[:, 0].max()))
    y1 = max(grid.y0 + grid.rows * grid.cell, float(points[:, 1].max()))
    cols = int(math.floor((x1 - x0) / grid.cell)) + 1
    rows = int(math.floor((y1 - y0) / grid.cell)) + 1
    return HeatmapGrid(x0=x0, y0=y0, cell=grid.cell, rows=rows, cols=cols)


def heatmap_build(
    seg: Trajectory,
    cfg: HeatmapConfig | None = None,
    window: TimeWindow | None = None,
    grid: HeatmapGrid | None = None,
) -> np.ndarray:
    """Max-normalized heat map of the segment on the window's grid.

    Visited cells deposit energy E = (visit indicator or count) * exp(-k_r *
    occupancy seconds); each map cell then receives sum over visited cells of
    E * exp(-k_s * grid-index distance). Positions outside the grid expand it
    (a mismatched grid is never an error, but sibling maps built for the same
    window share the window grid and stay comparable).
    """
    cfg = cfg or HeatmapConfig()
    if grid is None:
        grid = window_grid(window, cfg) if window is not None else _points_grid(seg.points, cfg)
    first = grid.cell_of(seg.points.min(axis=0))
    last = grid.cell_of(seg.points.max(axis=0))
    if not (grid.covers(*first) and grid.covers(*last)):
        grid = _expand_grid(grid, seg.points)
        logger.info(
            "pedestrian %d: heat-map grid expanded to %dx%d to cover the segment",
            seg.pedestrian_id, grid.rows, grid.cols,
        )
    occupancy: dict[tuple[int, int], list[float]] = {}
    times = seg.times
    for i in range(len(times)):
        cell = grid.cell_of(seg.points[i])
        dwell = float(times[i + 1] - times[i]) if i + 1 < len(times) else 0.0
        entry = occupancy.setdefault(cell, [0.0, 0.0])
        entry[0] += 1.0
        entry[1] += dwell
    heat = np.zeros((grid.rows, grid.cols))
    row_idx = np.arange(grid.rows, dtype=float)[:, None]
    col_idx = np.arange(grid.cols, dtype=float)[None, :]
    for (row, col), (visits, dwell) in occupancy.items():
        base = visits if cfg.accumulate == "visits" else 1.0
        energy = base * math.exp(-cfg.k_r * dwell)
        dist = np.hypot(row_idx - row, col_idx - col)
        heat += energy * np.exp(-cfg.k_s * dist)
    peak = heat.max()
    if peak > 0.0:
        heat /= peak
    return heat


def heatmap_distance(h_a: np.ndarray, h_b: np.ndarray) -> float:
    """1 - cosine similarity of the two maps; all-zero maps are maximally far."""
    if h_a.shape != h_b.shape:
        raise ValueError(f"heat maps differ in shape: {h_a.shape} vs {h_b.shape}")
    norm_a = float(np.sqrt((h_a * h_a).sum()))
    norm_b = float(np.sqrt((h_b * h_b).sum()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 1.0
    similarity = float((h_a * h_b).sum()) / (norm_a * norm_b)
    return min(1.0, max(0.0, 1.0 - similarity))


def build_scene(window: TimeWindow, configs: FeatureConfigs | None = None) -> WindowedScene:
    """Compute all four features for every unordered member pair of the window.

    Pairs that never co-occur get d_ph = d_ca = 1 (maximally dissimilar) while
    d_sh and d_he are still computed; pairs with too few common samples for
    the causality regression carry the 0.5 fallback, flagged on the pair.
    """
    configs = configs or FeatureConfigs()
    members = sorted(window.members)
    segments = window.segments
    grid = window_grid(window, configs.heatmap)
    maps = {m: heatmap_build(segments[m], configs.heatmap, grid=grid) for m in members}
    pairs: list[PairFeatures] = []
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            seg_a, seg_b = segments[a], segments[b]
            common, _, _ = _common_indices(seg_a, seg_b)
            no_overlap = common.size == 0
            fallback = False
            if no_overlap:
                d_ph = NO_OVERLAP_DISTANCE
                d_ca = NO_OVERLAP_DISTANCE
            else:
                d_ph = proxemic_distance(seg_a, seg_b, configs.proxemics)
                d_ca, fallback = _granger_distance_flagged(seg_a, seg_b, configs.granger)
            d_sh = dtw_shape_distance(seg_a, seg_b)
            d_he = heatmap_distance(maps[a], maps[b])
            pairs.append(
                PairFeatures(
                    pair=(a, b),
                    d=np.array([d_ph, d_sh, d_ca, d_he]),
                    granger_fallback=fallback,
                    no_overlap=no_overlap,
                )
            )
    return WindowedScene(window=window, pairs=tuple(pairs))


def write_features_csv(scenes: Iterable[WindowedScene], out) -> None:
    """One row per pair: window,a,b,d_ph,d_sh,d_ca,d_he with 9 significant digits."""
    own = not isinstance(out, IOBase) and not hasattr(out, "write")
    fh = open(Path(out), "w", encoding="utf-8", newline="") if own else out
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["window", "a", "b", *FEATURE_NAMES])
        for scene in scenes:
            for pair in scene.pairs:
                writer.writerow(
                    [
                        scene.window.index,
                        pair.pair[0],
                        pair.pair[1],
                        *(f"{v:.9g}" for v in pair.d),
                    ]
                )
    finally:
        if own:
            fh.close()
