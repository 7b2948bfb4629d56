"""Pairwise social features over co-windowed trajectory segments.

Each pedestrian pair gets four bounded distances: physical closeness under a
Gaussian-mixture model of interpersonal zones (d_ph), path-shape divergence by
dynamic time warping (d_sh), absence of temporal causality by a Granger F-test
(d_ca), and divergence of visited-area heat maps (d_he). All are emitted as
distances in [0, 1]. A window's features are one pair table, `WindowedScene`:
a (pairs, 4) matrix with one row per unordered member pair, in
np.triu_indices(n, 1) order over the sorted members, plus per-row flags for
pairs that never co-occur and pairs on the causality fallback. The learner
weighs both halves [1 - d; d] of each row.

Every feature is a kernel over the pair axis (ia, ib); its temporaries are
chunked so that one chunk of pairs holds about _CHUNK_ELEMENTS floats.

- Layout: `align_segments` puts a window's members on the sorted union of
  their timestamps, a (members, frames, 2) point tensor with a presence mask.
  Two members share a frame exactly when both have a sample with that
  timestamp, the matches np.intersect1d finds.
- d_ph and d_ca read each pair's common samples compacted in time order,
  batched by common count K: the causality lags run over compacted samples,
  and every reduction sees the shapes of a one-pair call.
- d_sh runs the DTW recursion over whole segments one anti-diagonal at a
  time, with +inf cost past each segment's end.
- d_ca takes the restricted and unrestricted RSS from one Householder QR of
  [1, own lags, source lags]. Designs whose R diagonal shows rank deficiency
  are refitted by np.linalg.lstsq, whose rank handling is the reference.
- d_he maps add slices of one exp(-k_s * hypot(dr, dc)) kernel image per
  grid; each cosine is a per-pair np.dot of the flattened maps.

The public one-pair functions call the same kernels, so `build_scene` rows
equal them exactly.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import betainc

from .errors import ConfigError
from .trajectories import TimeWindow, Trajectory, align_segments

logger = logging.getLogger(__name__)

FEATURE_NAMES = ("d_ph", "d_sh", "d_ca", "d_he")
HALL_SIGMAS = (0.5, 1.2, 3.7, 7.6)
GRANGER_FALLBACK = 0.5
NO_OVERLAP_DISTANCE = 1.0
DTW_TAU = 1.0
_DEGENERATE_RSS = 1e-12
_NO_GAIN_RTOL = 1e-9  # a source cutting the restricted RSS by at most this share adds nothing
_RANK_TOL = 1e-8  # min/max |R_kk| of a causality design below this refits by lstsq
_CHUNK_ELEMENTS = 1 << 17  # floats in one chunk's pair-axis temporaries (1 MiB)
_ONE_PAIR = (np.array([0]), np.array([1]))


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
class WindowedScene:
    """All pairwise features of one time window, as one pair table.

    Row k of `feature_matrix` (pairs x 4 distances) and of the two flag arrays
    belongs to the member pair (members[ia[k]], members[ib[k]]), where
    (ia, ib) = `pair_rows` = np.triu_indices(len(members), 1) over the sorted
    members: (m0, m1), (m0, m2), ..., (m1, m2), ... The matrix and the flags
    are read-only; flags default to all False.
    """

    window: TimeWindow
    feature_matrix: np.ndarray
    granger_fallback: np.ndarray | None = None
    no_overlap: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.pair_rows[0])
        for name, dtype, shape in (
            ("feature_matrix", float, (n, 4)),
            ("granger_fallback", bool, (n,)),
            ("no_overlap", bool, (n,)),
        ):
            given = getattr(self, name)
            value = np.array(np.zeros(shape, dtype) if given is None else given, dtype=dtype)
            if value.shape != shape:
                raise ValueError(f"{name} of shape {value.shape} for {n} pairs; expected {shape}")
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        if not np.all((self.feature_matrix >= 0.0) & (self.feature_matrix <= 1.0)):
            raise ValueError("feature distances must be finite and in [0, 1]")

    @cached_property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self.window.members))

    @cached_property
    def pair_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Member-index arrays (ia, ib) of the rows: np.triu_indices(n, 1)."""
        return np.triu_indices(len(self.members), 1)

    @cached_property
    def pairs(self) -> np.ndarray:
        """(pairs, 2) pedestrian ids (a, b) of the rows, a < b."""
        return np.array(self.members, dtype=int)[np.column_stack(self.pair_rows)]

    @cached_property
    def affinity_terms(self) -> np.ndarray:
        """(pairs, 8) rows whose dot with w = [alpha; beta] gives pair affinities."""
        d = self.feature_matrix
        return np.hstack([1.0 - d, -d])

    @property
    def granger_fallback_count(self) -> int:
        return int(self.granger_fallback.sum())

    @property
    def no_overlap_count(self) -> int:
        return int(self.no_overlap.sum())


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


def _chunks(n_pairs: int, per_pair: int):
    """Pair-axis slices whose temporaries, `per_pair` floats per pair, fit."""
    step = max(1, _CHUNK_ELEMENTS // max(1, per_pair))
    return [slice(start, start + step) for start in range(0, n_pairs, step)]


def _common_groups(aligned, ia: np.ndarray, ib: np.ndarray, per_sample: int):
    """Yield (rows, pa, pb): the pair rows with the same K >= 1 common samples
    and their (rows, K, 2) points at those samples, in time order. The caller's
    temporaries take about `per_sample` floats per frame of a pair."""
    points, present = aligned
    for chunk in _chunks(len(ia), present.shape[1] * per_sample):
        a, b = ia[chunk], ib[chunk]
        common = present[a] & present[b]
        counts = common.sum(axis=1)
        for k in np.unique(counts[counts > 0]):
            sel = np.flatnonzero(counts == k)
            frames = np.nonzero(common[sel])[1].reshape(-1, k)
            yield chunk.start + sel, points[a[sel, None], frames], points[b[sel, None], frames]


def _proxemic_rows(aligned, ia, ib, cfg: ProxemicsConfig) -> np.ndarray:
    """d_ph per pair; NaN where the pair shares no sample."""
    sig2 = np.square(np.asarray(cfg.sigmas, dtype=float))
    peak = gmm_eval((0.0, 0.0), cfg)
    out = np.full(len(ia), np.nan)
    for rows, pa, pb in _common_groups(aligned, ia, ib, 4 * (sig2.size + 2)):
        deltas = pa - pb
        d2 = np.einsum("pkj,pkj->pk", deltas, deltas)
        responses = np.mean(np.exp(-d2[..., None] / (2.0 * sig2)) / (2.0 * math.pi * sig2), axis=2)
        out[rows] = 1.0 - responses.mean(axis=1) / peak
    return np.clip(out, 0.0, 1.0)


def proxemic_distance(seg_a: Trajectory, seg_b: Trajectory, cfg: ProxemicsConfig | None = None) -> float:
    """1 - (mean mixture response over co-timed displacements) / (response at 0)."""
    value = _proxemic_rows(align_segments([seg_a, seg_b]), *_ONE_PAIR, cfg or ProxemicsConfig())[0]
    if np.isnan(value):
        raise ValueError("segments share no common timestamps")
    return float(value)


def _dtw_rows(segments, ia, ib, tau: float) -> np.ndarray:
    """Bounded DTW distance per pair, one anti-diagonal d = i + j of the
    cumulative cost at a time: column i + 1 of a diagonal holds cell (i, d - i)
    and column 0 is +inf. Samples past a segment's end (index `size` is past
    every end) sit at +inf as the first member and -inf as the second, so the
    cost of every cell off a pair's table is +inf."""
    lengths = np.array([len(seg) for seg in segments], dtype=int)
    size = int(lengths.max(initial=1))
    first = np.full((len(segments), size + 1, 2), np.inf)
    second = -first
    for k, seg in enumerate(segments):
        first[k, : len(seg)] = second[k, : len(seg)] = seg.points
    diag, col = np.ogrid[: 2 * size - 1, :size]
    other = np.where((diag >= col) & (diag - col < size), diag - col, size)
    out = np.empty(len(ia))
    for chunk in _chunks(len(ia), 12 * (size + 1)):
        a, b = ia[chunk], ib[chunk]
        la, lb = lengths[a], lengths[b]
        xa, ya = first[a, :size, 0], first[a, :size, 1]
        xb, yb = second[b, :, 0], second[b, :, 1]
        diagonals = np.full((3, len(a), size + 1), np.inf)
        raw = np.empty(len(a))
        for d in range(2 * size - 1):
            cur, prev1, prev2 = diagonals[d % 3], diagonals[(d - 1) % 3], diagonals[(d - 2) % 3]
            dx, dy = xa - xb[:, other[d]], ya - yb[:, other[d]]
            best = np.minimum(np.minimum(prev1[:, :-1], prev1[:, 1:]), prev2[:, :-1]) if d else 0.0
            np.add(dx * dx + dy * dy, best, out=cur[:, 1:])
            done = np.flatnonzero(la + lb - 2 == d)  # cell (la - 1, lb - 1)
            raw[done] = cur[done, la[done]]
        raw /= np.maximum(la, lb)
        out[chunk] = raw / (raw + tau * tau)
    return out


def dtw_shape_distance(seg_a: Trajectory, seg_b: Trajectory, tau: float = DTW_TAU) -> float:
    """Bounded warping distance raw/(raw + tau^2); tau is the softness scale in meters.

    raw is the squared-Euclidean warping cost normalized by max(A, B)."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return float(_dtw_rows([seg_a, seg_b], *_ONE_PAIR, tau)[0])


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


def _qr_rss(stack: np.ndarray, restricted: int):
    """In-place Householder QR of each (design columns + target, samples)
    matrix: the target's RSS against the first `restricted` columns and against
    all, and whether |R_kk| rules out rank deficiency (never if rows < columns)."""
    p = stack.shape[1] - 1
    r_diag = np.zeros((len(stack), p))
    for k in range(min(p, stack.shape[2])):
        x = stack[:, k, k:]
        norm = np.sqrt(np.sum(x * x, axis=1))
        v = x.copy()
        v[:, 0] += np.copysign(norm, x[:, 0])  # x - alpha e_1 with alpha = -sign(x_0) |x|
        vv = np.sum(v * v, axis=1)
        scale = np.divide(2.0, vv, out=np.zeros_like(vv), where=vv > 0.0)
        rest = stack[:, k:, k:]
        rest -= (np.sum(rest * v[:, None, :], axis=2) * scale[:, None])[:, :, None] * v[:, None, :]
        r_diag[:, k] = norm
    z = stack[:, p]
    full_rank = r_diag.min(axis=1) > _RANK_TOL * r_diag.max(axis=1)
    return np.sum(z[:, restricted:] ** 2, axis=1), np.sum(z[:, p:] ** 2, axis=1), full_rank


def _granger_areas(aligned, targets, sources, lag: int) -> np.ndarray:
    """F-CDF area of "source Granger-causes target" per (target, source) row;
    NaN where granger_causality_area gives None."""
    m = lag
    out = np.full(len(targets), np.nan)
    for rows, y_pts, x_pts in _common_groups(aligned, targets, sources, 16 * (m + 1)):
        k = y_pts.shape[1]
        dof = k - 2 * m - 1
        if dof < 1:
            continue
        # one matrix per (pair, coordinate) whose rows are the columns
        # [1, own lags 1..m, source lags 1..m, target] over the k - m fitted samples
        own = sliding_window_view(y_pts, m + 1, axis=1)
        lags = (own[..., m - 1 :: -1], sliding_window_view(x_pts, m + 1, axis=1)[..., m - 1 :: -1])
        design = np.concatenate([np.ones_like(own[..., :1]), *lags, own[..., m:]], axis=3)
        design = design.transpose(0, 2, 3, 1).reshape(-1, 2 * m + 2, k - m)
        rss_r, rss_u, full_rank = _qr_rss(design.copy(), m + 1)
        for i in np.flatnonzero(~full_rank):
            columns = np.ascontiguousarray(design[i].T)
            rss_r[i] = _rss(columns[:, : m + 1], columns[:, -1])
            rss_u[i] = _rss(columns[:, :-1], columns[:, -1])
        rss_r = rss_r[0::2] + rss_r[1::2]
        rss_u = rss_u[0::2] + rss_u[1::2]
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = rss_r - rss_u
            stat = np.where(gain > _NO_GAIN_RTOL * rss_r, (gain / m) / (rss_u / dof), 0.0)
            area = betainc(0.5 * m, 0.5 * dof, m * stat / (m * stat + dof))
        area[rss_u <= _DEGENERATE_RSS] = 1.0
        area[rss_r <= _DEGENERATE_RSS] = np.nan
        out[rows] = area
    return out


def granger_causality_area(target: Trajectory, source: Trajectory, lag: int = 2) -> float | None:
    """F-CDF area for "source Granger-causes target" on common timestamps.

    Fits, per coordinate, the target from its own `lag` past samples (plus
    intercept) and again adding the source's past; residuals pool over x and y.
    Returns None when the common sample count leaves no error degrees of
    freedom or the restricted regression is already exact.
    """
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    area = _granger_areas(align_segments([target, source]), *_ONE_PAIR, int(lag))[0]
    return None if np.isnan(area) else float(area)


def _granger_rows(aligned, ia, ib, cfg: GrangerConfig) -> tuple[np.ndarray, np.ndarray]:
    """(d_ca, fallback) per pair: 1 - the larger defined directional area."""
    areas = _granger_areas(aligned, np.concatenate([ib, ia]), np.concatenate([ia, ib]), cfg.lag)
    best = np.fmax(*np.split(areas, 2))
    fallback = np.isnan(best)
    return np.where(fallback, GRANGER_FALLBACK, np.clip(1.0 - best, 0.0, 1.0)), fallback


def granger_distance(seg_a: Trajectory, seg_b: Trajectory, cfg: GrangerConfig | None = None) -> float:
    """1 - max directional causality area (the max makes the feature symmetric).

    Pairs with too few common samples (or degenerate regressions in both
    directions) fall back to the uninformative midpoint 0.5.
    """
    value, _ = _granger_rows(align_segments([seg_a, seg_b]), *_ONE_PAIR, cfg or GrangerConfig())
    return float(value[0])


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


def _points_grid(points: np.ndarray, cell: float) -> HeatmapGrid:
    x0 = float(points[:, 0].min())
    y0 = float(points[:, 1].min())
    cols = int(math.floor((float(points[:, 0].max()) - x0) / cell)) + 1
    rows = int(math.floor((float(points[:, 1].max()) - y0) / cell)) + 1
    return HeatmapGrid(x0=x0, y0=y0, cell=cell, rows=rows, cols=cols)


def window_grid(window: TimeWindow, cfg: HeatmapConfig | None = None) -> HeatmapGrid:
    """Grid covering every member position of the window."""
    cfg = cfg or HeatmapConfig()
    if not window.segments:
        return HeatmapGrid(0.0, 0.0, cfg.cell_edge, 1, 1)
    return _points_grid(np.vstack([seg.points for seg in window.segments.values()]), cfg.cell_edge)


def _heatmaps(segments, cfg: HeatmapConfig, grid: HeatmapGrid) -> list[np.ndarray]:
    """Max-normalized heat maps on `grid`, one array each; every visited cell
    adds its energy times a slice of one exp(-k_s * hypot) kernel image."""
    rows, cols = grid.rows, grid.cols
    image = np.exp(-cfg.k_s * np.hypot(
        np.arange(1 - rows, rows, dtype=float)[:, None], np.arange(1 - cols, cols, dtype=float)[None, :]
    ))
    heat = []
    for seg in segments:
        h = np.zeros((rows, cols))
        cells = np.floor((seg.points - (grid.x0, grid.y0)) / grid.cell).astype(int)
        visited, first, which = np.unique(cells, axis=0, return_index=True, return_inverse=True)
        visits = np.bincount(which) if cfg.accumulate == "visits" else np.ones(len(visited))
        dwells = np.bincount(which, weights=np.append(np.diff(seg.times), 0.0))
        for v in np.argsort(first).tolist():  # in first-visit order
            col, row = visited[v].tolist()
            energy = visits[v] * math.exp(-cfg.k_r * dwells[v])
            h += energy * image[rows - 1 - row : 2 * rows - 1 - row, cols - 1 - col : 2 * cols - 1 - col]
        peak = h.max()
        if peak > 0.0:
            h /= peak
        heat.append(h)
    return heat


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
        grid = window_grid(window, cfg) if window is not None else _points_grid(seg.points, cfg.cell_edge)
    first = grid.cell_of(seg.points.min(axis=0))
    last = grid.cell_of(seg.points.max(axis=0))
    if not (grid.covers(*first) and grid.covers(*last)):
        corners = [(grid.x0, grid.y0), (grid.x0 + grid.cols * grid.cell, grid.y0 + grid.rows * grid.cell)]
        grid = _points_grid(np.vstack([seg.points, corners]), grid.cell)
        logger.info(
            "pedestrian %d: heat-map grid expanded to %dx%d to cover the segment",
            seg.pedestrian_id, grid.rows, grid.cols,
        )
    return _heatmaps([seg], cfg, grid)[0]


def _heat_rows(maps: list[np.ndarray], ia, ib) -> np.ndarray:
    """1 - cosine similarity of the flattened maps of each pair; pairs with an
    all-zero map are maximally far."""
    flat = [h.ravel() for h in maps]
    norms = np.sqrt([np.dot(h, h) for h in flat])
    dots = np.array([np.dot(flat[a], flat[b]) for a, b in zip(ia.tolist(), ib.tolist())])
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.clip(1.0 - dots / (norms[ia] * norms[ib]), 0.0, 1.0)
    return np.where((norms[ia] == 0.0) | (norms[ib] == 0.0), 1.0, value)


def heatmap_distance(h_a: np.ndarray, h_b: np.ndarray) -> float:
    """1 - cosine similarity of the two maps; all-zero maps are maximally far."""
    if h_a.shape != h_b.shape:
        raise ValueError(f"heat maps differ in shape: {h_a.shape} vs {h_b.shape}")
    return float(_heat_rows([h_a, h_b], *_ONE_PAIR)[0])


def build_scene(window: TimeWindow, configs: FeatureConfigs | None = None) -> WindowedScene:
    """Compute all four features for every unordered member pair of the window,
    one row per pair in the scene's triu order.

    Pairs that never co-occur get d_ph = d_ca = 1 (maximally dissimilar) while
    d_sh and d_he are still computed, flagged no_overlap; pairs with too few
    common samples for the causality regression carry the 0.5 fallback,
    flagged granger_fallback.
    """
    configs = configs or FeatureConfigs()
    members = sorted(window.members)
    segments = [window.segments[m] for m in members]
    ia, ib = np.triu_indices(len(members), 1)
    aligned = align_segments(segments)
    features = np.empty((len(ia), 4))
    features[:, 0] = _proxemic_rows(aligned, ia, ib, configs.proxemics)
    features[:, 1] = _dtw_rows(segments, ia, ib, DTW_TAU)
    features[:, 2], fallback = _granger_rows(aligned, ia, ib, configs.granger)
    maps = _heatmaps(segments, configs.heatmap, window_grid(window, configs.heatmap))
    features[:, 3] = _heat_rows(maps, ia, ib)
    no_overlap = np.isnan(features[:, 0])
    features[no_overlap, 0] = features[no_overlap, 2] = NO_OVERLAP_DISTANCE
    return WindowedScene(window, features, fallback & ~no_overlap, no_overlap)


def write_features_csv(scenes: Iterable[WindowedScene], out) -> None:
    """One row per pair to the open text file `out`:
    window,a,b,d_ph,d_sh,d_ca,d_he with 9 significant digits."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["window", "a", "b", *FEATURE_NAMES])
    for scene in scenes:
        for (a, b), d in zip(scene.pairs.tolist(), scene.feature_matrix):
            writer.writerow([scene.window.index, a, b, *(f"{v:.9g}" for v in d)])
