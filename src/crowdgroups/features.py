"""Pairwise social features over co-windowed trajectory segments.

Each pedestrian pair gets four bounded distances: physical closeness under a
Gaussian-mixture model of interpersonal zones (d_ph), path-shape divergence by
dynamic time warping (d_sh), absence of temporal causality by a Granger F-test
(d_ca), and divergence of visited-area heat maps (d_he). All are emitted as
distances in [0, 1]. A window's features are one pair table, `WindowedScene`:
a (pairs, 4) matrix with one row per unordered member pair, in
np.triu_indices(n, 1) order over the sorted members, plus per-row flags for
pairs that never co-occur, far pairs and pairs on the causality fallback. The
learner weighs both halves [1 - d; d] of each row.

A pair is far when it shares a timestamp and is more than NEAR_RADIUS = 7.6 m
(the end of Hall's public zone, the widest d_ph component) apart at every shared
one. Far rows are (1, 1, 1, 1) and skip every kernel; the kernels are row-wise,
so the other rows equal an ungated build's.

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
- d_ca factors each K batch of (samples, [1, own lags, source lags, target])
  matrices with one np.linalg.qr(mode="r"); the target column of R gives the
  restricted and unrestricted RSS, the latter exactly 0 when no more samples
  than design columns are fitted. Designs whose R diagonal shows rank
  deficiency are refitted by np.linalg.lstsq, whose rank handling is the
  reference.
- d_he maps, only for members of pairs that are not far, add slices of one
  exp(-k_s * hypot(dr, dc)) kernel image per grid, a band of rows at a time.

The public one-pair functions call the same kernels, so `build_scene` rows
equal them exactly.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np
from scipy.special import betainc

from .errors import ConfigError
from .trajectories import TimeWindow, Trajectory, align_segments

logger = logging.getLogger(__name__)

FEATURE_NAMES = ("d_ph", "d_sh", "d_ca", "d_he")
HALL_SIGMAS = (0.5, 1.2, 3.7, 7.6)
GRANGER_FALLBACK = 0.5
NO_OVERLAP_DISTANCE = 1.0
NEAR_RADIUS = 7.6  # meters; pairs never this close at a shared timestamp are far
DTW_TAU = 1.0
_DEGENERATE_RSS = 1e-12
_NO_GAIN_RTOL = 1e-9  # a source cutting the restricted RSS by at most this share adds nothing
_RANK_TOL = 1e-8  # min/max |R_kk| of a causality design below this refits by lstsq
_CHUNK_ELEMENTS = 1 << 17  # floats in one chunk's pair-axis temporaries (1 MiB)
_ONE_PAIR = (np.array([0]), np.array([1]))


def _check_numbers(config, floats=(), ints=()) -> None:
    """Raise ConfigError unless the named float fields of the frozen dataclass
    `config` (every item of a tuple field) are finite and the named int fields
    are whole numbers, which are then stored as int."""
    for name in floats:
        value = getattr(config, name)
        if not all(math.isfinite(v) for v in (value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    for name in ints:
        value = getattr(config, name)
        if not float(value).is_integer():
            raise ConfigError(f"{name} must be a whole number, got {value!r}")
        object.__setattr__(config, name, int(value))


@dataclass(frozen=True)
class FeatureConfig:
    """Feature settings: the standard deviations (meters) of the interpersonal-zone
    Gaussians, the causality lag order m (a pair needs K >= 2m + 2 common samples),
    and the heat-map cell edge, spatial (k_s) and temporal (k_r) coefficients and
    accumulation. Field names are the run-config keys."""

    proxemic_sigmas: tuple[float, ...] = HALL_SIGMAS
    granger_lag: int = 2
    heat_cell_edge: float = 0.30
    heat_k_s: float = 1e-5
    heat_k_r: float = 0.5
    heat_accumulate: str = "binary"

    def __post_init__(self):
        object.__setattr__(self, "proxemic_sigmas", tuple(float(s) for s in self.proxemic_sigmas))
        _check_numbers(
            self, floats=("proxemic_sigmas", "heat_cell_edge", "heat_k_s", "heat_k_r"), ints=("granger_lag",)
        )
        if not self.proxemic_sigmas or any(s <= 0 for s in self.proxemic_sigmas):
            raise ConfigError("proxemic sigmas must be strictly positive")
        if any(a >= b for a, b in zip(self.proxemic_sigmas, self.proxemic_sigmas[1:])):
            raise ConfigError("proxemic sigmas must be strictly increasing")
        if self.granger_lag < 1:
            raise ConfigError(f"granger lag must be >= 1, got {self.granger_lag}")
        if self.heat_cell_edge <= 0:
            raise ConfigError(f"cell_edge must be positive, got {self.heat_cell_edge}")
        if self.heat_k_s < 0 or self.heat_k_r < 0:
            raise ConfigError("k_s and k_r must be non-negative")
        if self.heat_accumulate not in ("binary", "visits"):
            raise ConfigError(
                f"accumulate must be 'binary' or 'visits', got {self.heat_accumulate!r}"
            )


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
    far: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.pair_rows[0])
        for name, dtype, shape in (
            ("feature_matrix", float, (n, 4)),
            ("granger_fallback", bool, (n,)),
            ("no_overlap", bool, (n,)),
            ("far", bool, (n,)),
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

    @property
    def far_count(self) -> int:
        return int(self.far.sum())


def gmm_eval(delta, cfg: FeatureConfig | None = None) -> float:
    """Equal-weight mixture of zero-mean isotropic 2-D Gaussians at `delta`.

    The mixture is isotropic, so `delta` may be a 2-D displacement or a scalar
    separation distance.
    """
    cfg = cfg or FeatureConfig()
    sig2 = np.square(np.asarray(cfg.proxemic_sigmas, dtype=float))
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


def _far_rows(aligned, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Per pair: shares a sample and is more than NEAR_RADIUS apart at each."""
    points, present = aligned
    far = np.zeros(len(ia), dtype=bool)
    for chunk in _chunks(len(ia), 10 * present.shape[1]):
        a, b = ia[chunk], ib[chunk]
        common = present[a] & present[b]
        delta = points[a] - points[b]
        near = delta[..., 0] ** 2 + delta[..., 1] ** 2 <= NEAR_RADIUS * NEAR_RADIUS
        far[chunk] = common.any(axis=1) & ~(common & near).any(axis=1)
    return far


def _proxemic_rows(aligned, ia, ib, cfg: FeatureConfig) -> np.ndarray:
    """d_ph per pair; NaN where the pair shares no sample."""
    sig2 = np.square(np.asarray(cfg.proxemic_sigmas, dtype=float))
    peak = gmm_eval((0.0, 0.0), cfg)
    out = np.full(len(ia), np.nan)
    for rows, pa, pb in _common_groups(aligned, ia, ib, 4 * (sig2.size + 2)):
        deltas = pa - pb
        d2 = np.einsum("pkj,pkj->pk", deltas, deltas)
        responses = np.mean(np.exp(-d2[..., None] / (2.0 * sig2)) / (2.0 * math.pi * sig2), axis=2)
        out[rows] = 1.0 - responses.mean(axis=1) / peak
    return np.clip(out, 0.0, 1.0)


def proxemic_distance(seg_a: Trajectory, seg_b: Trajectory, cfg: FeatureConfig | None = None) -> float:
    """1 - (mean mixture response over co-timed displacements) / (response at 0)."""
    value = _proxemic_rows(align_segments([seg_a, seg_b]), *_ONE_PAIR, cfg or FeatureConfig())[0]
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
        # one (k - m, 2m + 2) matrix per (pair, coordinate) with the columns
        # [1, own lags 1..m, source lags 1..m, target] over the fitted samples
        y, x = y_pts.transpose(0, 2, 1), x_pts.transpose(0, 2, 1)
        lags = [s[..., m - j : k - j] for s in (y, x) for j in range(1, m + 1)]
        stack = np.stack([np.ones_like(y[..., m:]), *lags, y[..., m:]], axis=-1).reshape(-1, k - m, 2 * m + 2)
        r = np.linalg.qr(stack, mode="r")
        z = r[:, :, -1]
        rss_r = np.sum(z[:, m + 1 :] ** 2, axis=1)
        rss_u = np.sum(z[:, 2 * m + 1 :] ** 2, axis=1)  # exactly 0 with no more rows than columns
        r_diag = np.abs(np.diagonal(r, axis1=1, axis2=2)[:, : 2 * m + 1])
        for i in np.flatnonzero(r_diag.min(axis=1) <= _RANK_TOL * r_diag.max(axis=1)):
            rss_r[i] = _rss(stack[i, :, : m + 1], stack[i, :, -1])
            rss_u[i] = _rss(stack[i, :, :-1], stack[i, :, -1])
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


def _granger_rows(aligned, ia, ib, cfg: FeatureConfig) -> tuple[np.ndarray, np.ndarray]:
    """(d_ca, fallback) per pair: 1 - the larger defined directional area."""
    areas = _granger_areas(aligned, np.concatenate([ib, ia]), np.concatenate([ia, ib]), cfg.granger_lag)
    best = np.fmax(*np.split(areas, 2))
    fallback = np.isnan(best)
    return np.where(fallback, GRANGER_FALLBACK, np.clip(1.0 - best, 0.0, 1.0)), fallback


def granger_distance(seg_a: Trajectory, seg_b: Trajectory, cfg: FeatureConfig | None = None) -> float:
    """1 - max directional causality area (the max makes the feature symmetric).

    Pairs with too few common samples (or degenerate regressions in both
    directions) fall back to the uninformative midpoint 0.5.
    """
    value, _ = _granger_rows(align_segments([seg_a, seg_b]), *_ONE_PAIR, cfg or FeatureConfig())
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


def window_grid(window: TimeWindow, cfg: FeatureConfig | None = None) -> HeatmapGrid:
    """Grid covering every member position of the window."""
    cfg = cfg or FeatureConfig()
    if not window.segments:
        return HeatmapGrid(0.0, 0.0, cfg.heat_cell_edge, 1, 1)
    return _points_grid(np.vstack([seg.points for seg in window.segments.values()]), cfg.heat_cell_edge)


def _heatmaps(segments, cfg: FeatureConfig, grid: HeatmapGrid) -> list[np.ndarray]:
    """Max-normalized heat maps on `grid`, one array each; every visited cell
    adds its energy times a slice of one exp(-k_s * hypot) kernel image."""
    rows, cols = grid.rows, grid.cols
    image = np.exp(-cfg.heat_k_s * np.hypot(
        np.arange(1 - rows, rows, dtype=float)[:, None], np.arange(1 - cols, cols, dtype=float)[None, :]
    ))
    heat = []
    band = max(1, _CHUNK_ELEMENTS // (4 * cols))  # map rows that stay in cache across all visited cells
    scratch = np.empty((band, cols))
    for seg in segments:
        h = np.zeros((rows, cols))
        keys = np.floor((seg.points - (grid.x0, grid.y0)) / grid.cell).astype(int) @ (1, cols)
        visited, first, which = np.unique(keys, return_index=True, return_inverse=True)
        visits = np.bincount(which) if cfg.heat_accumulate == "visits" else np.ones(len(visited))
        dwells = np.bincount(which, weights=np.append(np.diff(seg.times), 0.0))
        deposits = []  # (kernel image patch, energy) per visited cell, in first-visit order
        for v in np.argsort(first).tolist():
            row, col = divmod(int(visited[v]), cols)  # keys are row * cols + col
            patch = image[rows - 1 - row : 2 * rows - 1 - row, cols - 1 - col : 2 * cols - 1 - col]
            deposits.append((patch, visits[v] * math.exp(-cfg.heat_k_r * dwells[v])))
        for top in range(0, rows, band):
            part = h[top : top + band]
            for patch, energy in deposits:
                part += np.multiply(patch[top : top + band], energy, out=scratch[: len(part)])
        peak = h.max()
        if peak > 0.0:
            h /= peak
        heat.append(h)
    return heat


def heatmap_build(
    seg: Trajectory,
    cfg: FeatureConfig | None = None,
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
    cfg = cfg or FeatureConfig()
    if grid is None:
        grid = window_grid(window, cfg) if window is not None else _points_grid(seg.points, cfg.heat_cell_edge)
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
    """1 - cosine similarity of the maps of each pair, summed by NumPy (a BLAS dot
    depends on the thread count); pairs with an all-zero map are maximally far."""
    norms = np.sqrt([(h * h).sum() for h in maps])
    dots = np.array([(maps[a] * maps[b]).sum() for a, b in zip(ia.tolist(), ib.tolist())])
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.clip(1.0 - dots / (norms[ia] * norms[ib]), 0.0, 1.0)
    return np.where((norms[ia] == 0.0) | (norms[ib] == 0.0), 1.0, value)


def heatmap_distance(h_a: np.ndarray, h_b: np.ndarray) -> float:
    """1 - cosine similarity of the two maps; all-zero maps are maximally far."""
    if h_a.shape != h_b.shape:
        raise ValueError(f"heat maps differ in shape: {h_a.shape} vs {h_b.shape}")
    return float(_heat_rows([h_a, h_b], *_ONE_PAIR)[0])


def build_scene(window: TimeWindow, configs: FeatureConfig | None = None) -> WindowedScene:
    """Compute all four features for every unordered member pair of the window,
    one row per pair in the scene's triu order.

    Far pairs get (1, 1, 1, 1), flagged far, and no kernel runs on them; heat
    maps are built, on the window grid, only for members of the other pairs.
    Pairs that never co-occur get d_ph = d_ca = 1 (maximally dissimilar) while
    d_sh and d_he are still computed, flagged no_overlap; pairs with too few
    common samples for the causality regression carry the 0.5 fallback,
    flagged granger_fallback.
    """
    configs = configs or FeatureConfig()
    members = sorted(window.members)
    segments = [window.segments[m] for m in members]
    ia, ib = np.triu_indices(len(members), 1)
    aligned = align_segments(segments)
    far = _far_rows(aligned, ia, ib)
    keep = np.flatnonzero(~far)
    ka, kb = ia[keep], ib[keep]
    features = np.ones((len(ia), 4))
    fallback = np.zeros(len(ia), dtype=bool)
    features[keep, 0] = _proxemic_rows(aligned, ka, kb, configs)
    features[keep, 1] = _dtw_rows(segments, ka, kb, DTW_TAU)
    features[keep, 2], fallback[keep] = _granger_rows(aligned, ka, kb, configs)
    used, slots = np.unique(np.concatenate([ka, kb]), return_inverse=True)
    maps = _heatmaps([segments[m] for m in used], configs, window_grid(window, configs))
    features[keep, 3] = _heat_rows(maps, *np.split(slots, 2))
    no_overlap = np.isnan(features[:, 0])
    features[no_overlap, 0] = features[no_overlap, 2] = NO_OVERLAP_DISTANCE
    return WindowedScene(window, features, fallback & ~no_overlap, no_overlap, far)


def write_features_csv(scenes: Iterable[WindowedScene], out) -> None:
    """One row per pair to the open text file `out`:
    window,a,b,d_ph,d_sh,d_ca,d_he with 9 significant digits; far pairs read
    1,1,1,1."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["window", "a", "b", *FEATURE_NAMES])
    for scene in scenes:
        for (a, b), d in zip(scene.pairs.tolist(), scene.feature_matrix):
            writer.writerow([scene.window.index, a, b, *(f"{v:.9g}" for v in d)])
