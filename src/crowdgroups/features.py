"""Pairwise social features over co-windowed trajectory segments.

Each pedestrian pair gets four bounded distances: physical closeness under a
Gaussian-mixture model of interpersonal zones (d_ph), path-shape divergence by
dynamic time warping (d_sh), absence of temporal causality by a Granger F-test
(d_ca), and divergence of the visited areas (d_he). All are emitted as
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
  reference. The F CDF of each batch's statistics is one closed form.
- d_he is 1 - the cosine of two kernel mean embeddings: Gaussians of length
  heat_length on the visited cells, weighted by E = exp(-k_r * dwell). Their
  inner products need only the cells' distances, so no grid is built.

The public one-pair functions call the same kernels, so `build_scene` rows
equal them exactly. This module writes no file (harness writes the features CSV).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ConfigError, Length, NonNegativeFloat, PositiveFloat, PositiveInt, _check_fields,
                     _is_finite_real, _is_integer)
from .trajectories import TimeWindow, Trajectory, align_segments

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


@dataclass(frozen=True)
class FeatureConfig:
    """Feature settings: the standard deviations (meters) of the interpersonal-zone
    Gaussians, the causality lag order m (a pair needs K >= 2m + 2 common samples),
    and the heat cell edge and length (meters) and k_r (per second of dwell).
    Field names are the run-config keys."""

    proxemic_sigmas: tuple[Length, ...] = HALL_SIGMAS
    granger_lag: PositiveInt = 2
    heat_cell_edge: PositiveFloat = 0.30
    heat_length: Length = 3.0
    heat_k_r: NonNegativeFloat = 0.5

    def __post_init__(self):
        _check_fields(self)
        sigmas = self.proxemic_sigmas
        if not sigmas or any(a >= b for a, b in zip(sigmas, sigmas[1:])):
            raise ConfigError(f"proxemic_sigmas must be non-empty and strictly increasing, got {list(sigmas)}")


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
            ("feature_matrix", float, (n, len(FEATURE_NAMES))),
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
        """(pairs, len(w)) rows whose dot with w = [alpha; beta] gives pair affinities."""
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


def _by_key(keys: np.ndarray, n: int) -> list[np.ndarray]:
    """For each key 0..n-1, the indices of `keys` that hold it, in order."""
    return np.split(np.argsort(keys, kind="stable"), np.cumsum(np.bincount(keys, minlength=n))[:-1])


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
    and column 0 is +inf. Samples past a segment's end sit at +inf as the first
    member and -inf as the second, whose points are stored reversed between
    size - 1 such samples on each side, so diagonal d reads them as one slice."""
    lengths = np.array([len(seg) for seg in segments], dtype=int)
    size = int(lengths.max(initial=1))
    first = np.full((len(segments), size, 2), np.inf)
    second = np.full((len(segments), 3 * size - 2, 2), -np.inf)
    for k, seg in enumerate(segments):
        first[k, : len(seg)] = seg.points
        second[k, 2 * size - 1 - len(seg) : 2 * size - 1] = seg.points[::-1]
    out = np.empty(len(ia))
    for chunk in _chunks(len(ia), 16 * (size + 1)):
        a, b = ia[chunk], ib[chunk]
        la, lb = lengths[a], lengths[b]
        xa, ya = first[a, :, 0], first[a, :, 1]
        xb, yb = second[b, :, 0], second[b, :, 1]
        ends = _by_key(la + lb - 2, 2 * size - 1)  # diagonal of cell (la - 1, lb - 1)
        diagonals = np.full((3, len(a), size + 1), np.inf)
        raw = np.empty(len(a))
        for d, done in enumerate(ends):
            cur, prev1, prev2 = diagonals[d % 3], diagonals[(d - 1) % 3], diagonals[(d - 2) % 3]
            at = 2 * size - 2 - d  # column i of the slice holds sample d - i
            dx, dy = xa - xb[:, at : at + size], ya - yb[:, at : at + size]
            best = np.minimum(np.minimum(prev1[:, :-1], prev1[:, 1:]), prev2[:, :-1]) if d else 0.0
            np.add(dx * dx + dy * dy, best, out=cur[:, 1:])
            raw[done] = cur[done, la[done]]
        raw /= np.maximum(la, lb)
        out[chunk] = raw / (raw + tau * tau)
    return out


def dtw_shape_distance(seg_a: Trajectory, seg_b: Trajectory, tau: float = DTW_TAU) -> float:
    """Bounded warping distance raw/(raw + tau^2); tau is the softness scale in meters.

    raw is the squared-Euclidean warping cost normalized by max(A, B)."""
    if not (_is_finite_real(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau!r}")
    return float(_dtw_rows([seg_a, seg_b], *_ONE_PAIR, tau)[0])


def _series(n: int, p: float, q: float, first: float, t):
    """sum_{j<n} c_j t^j by Horner's rule (0.0 for n = 0); c_0 = first, c_j = c_{j-1} (p + j) / (q + j)."""
    coef = [first] * min(n, 1)
    for j in range(1, n):
        coef.append(coef[-1] * (p + j) / (q + j))
    total = coef.pop() if coef else 0.0
    while coef:
        total = total * t + coef.pop()
    return total


def _beta_halves(x: np.ndarray, m: int, dof: int) -> np.ndarray:
    """I_x(m/2, dof/2) for whole m, dof >= 1: the F(m, dof) CDF at s when
    x = m s / (m s + dof), in closed form (Abramowitz & Stegun 26.5.16 and
    26.6.4-26.6.8; DLMF 8.17). With a = m/2 - m//2 (0 or 1/2) and b = dof/2,
    raising a by one m//2 times subtracts, for j < m//2,
    x^a (1-x)^b x^j Gamma(a+b+j) / (Gamma(a+1+j) Gamma(b)) from I_x(0, b) = 1
    or from I_x(1/2, b): a sum of dof//2 powers of 1 - x, plus (2/pi) arcsin
    sqrt(x) for odd dof. Both sums, m//2 terms in x and dof//2 in 1 - x, run
    by Horner's rule."""
    y = 1.0 - x
    a, b = m % 2 / 2, dof / 2
    base = 1.0
    if a:
        h = dof % 2 / 2
        base = np.sqrt(x) * y**h * _series(dof // 2, h - 0.5, h, 2 / math.pi if h else 1.0, y)
        if h:
            base += 2 / math.pi * np.arctan2(np.sqrt(x), np.sqrt(y))  # arcsin sqrt(x), stable at x = 1
    first = math.exp(math.lgamma(a + b) - math.lgamma(a + 1) - math.lgamma(b))
    return base - (np.sqrt(x) if a else 1.0) * y**b * _series(m // 2, a + b - 1, a, first, x)


def f_cdf(s: float, d1: int, d2: int) -> float:
    """CDF of the F(d1, d2) distribution, the regularized incomplete beta
    I_x(d1/2, d2/2) at x = d1 s / (d1 s + d2), in closed form; the degrees of
    freedom must be positive integers (2.0 is refused, as by every int setting)."""
    for d in (d1, d2):
        if not (_is_integer(d) and d > 0):
            raise ValueError(f"degrees of freedom must be positive integers, got {d!r}")
    s = float(s)
    if math.isnan(s):
        raise ValueError("statistic is NaN")
    if s <= 0.0:
        return 0.0
    if math.isinf(s):
        return 1.0
    x = d1 * s / (d1 * s + d2)
    return float(_beta_halves(np.array(x), int(d1), int(d2)))


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
            area = _beta_halves(m * stat / (m * stat + dof), m, dof)
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
    if not (_is_integer(lag) and lag >= 1):
        raise ValueError(f"lag must be an integer >= 1, got {lag!r}")
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


def _heat_cells(segments, origin: np.ndarray, cfg: FeatureConfig):
    """(segments, V, 3) zero-padded rows (x, y, E) of each segment's visited
    cells in (x, y) order, and V per segment: centres relative to `origin` of
    cells of edge heat_cell_edge anchored there; E = exp(-k_r * dwell seconds)
    over the largest, a cell's dwells summed in time order. Rows are per segment."""
    lengths = [len(seg) for seg in segments]
    dwell = np.append(np.diff(np.concatenate([seg.times for seg in segments])), 0.0)
    dwell[np.cumsum(lengths) - 1] = 0.0  # a segment's last sample
    cells = np.floor((np.concatenate([seg.points for seg in segments]) - origin) / cfg.heat_cell_edge)
    keys = np.column_stack([np.repeat(np.arange(len(segments)), lengths), cells])
    order = np.lexsort(keys.T[::-1])  # stable: a cell's samples stay in time order
    first = np.append(True, np.diff(keys[order], axis=0).any(axis=1))
    dwells = np.bincount(np.cumsum(first) - 1, weights=dwell[order])
    owner, cells = keys[order[first], 0].astype(int), keys[order[first], 1:]
    counts = np.bincount(owner, minlength=len(segments))
    table = np.zeros((len(segments), counts.max(initial=0), 3))
    slot = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
    table[owner, slot] = np.column_stack([(cells + 0.5) * cfg.heat_cell_edge, np.exp(-cfg.heat_k_r * dwells)])
    peak = table[..., 2].max(axis=1, keepdims=True)
    table[..., 2] /= np.where(peak > 0.0, peak, 1.0)  # the cosine does not see scale
    return table, counts


def _heat_rows(table, counts, ia, ib, cfg: FeatureConfig) -> np.ndarray:
    """d_he per pair of table rows: 1 - <a, b> / sqrt(<a, a> <b, b>) in [0, 1], 1 if a
    self product is 0; <a, b> = sum_ij E_i E_j exp(-|c_i - c_j|^2 / (4 length^2)) by
    np.sum (a BLAS dot depends on thread count). Pairs and one self pair per row batch
    by V = max(Va, Vb), both read to V cells, so each sum has a one-pair call's shape;
    chunks split only rows (pair, i). sqrt(fl(s * s)) = s, so d_he(a, a) = 0."""
    n, rows = len(ia), np.arange(len(counts))
    ia, ib = np.concatenate([ia, rows]), np.concatenate([ib, rows])
    x, y, e = np.moveaxis(table, 2, 0)
    products = np.zeros(len(ia))  # 0 for a pair of rows without cells
    width = np.maximum(counts[ia], counts[ib])
    for v in np.unique(width[width > 0]).tolist():
        batch = np.flatnonzero(width == v)
        owner = np.repeat(ib[batch], v)  # the second member of each row (pair, i)
        ax, ay, ae = (plane[ia[batch], :v].ravel() for plane in (x, y, e))
        inner = np.empty(len(owner))
        for chunk in _chunks(len(owner), 8 * v):
            b = owner[chunk]
            dx, dy = ax[chunk, None] - x[b, :v], ay[chunk, None] - y[b, :v]
            inner[chunk] = np.sum(np.exp((dx * dx + dy * dy) * (-0.25 / cfg.heat_length**2)) * e[b, :v], axis=1)
        products[batch] = np.sum((ae * inner).reshape(-1, v), axis=1)
    dots, sa, sb = products[:n], products[n:][ia[:n]], products[n:][ib[:n]]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(sa * sb == 0.0, 1.0, np.clip(1.0 - dots / np.sqrt(sa * sb), 0.0, 1.0))


def heatmap_build(seg: Trajectory, cfg: FeatureConfig | None = None, origin=None) -> np.ndarray:
    """The segment's visited cells as (V, 3) rows (x, y, E): centres relative
    to `origin` of cells of edge heat_cell_edge anchored there (by default the
    segment's lowest point; build_scene uses the window's), and energies
    exp(-k_r * occupancy seconds) over the largest; a revisit counts once."""
    return _heat_cells([seg], seg.points.min(axis=0) if origin is None else origin, cfg or FeatureConfig())[0][0]


def heatmap_distance(h_a: np.ndarray, h_b: np.ndarray, cfg: FeatureConfig | None = None) -> float:
    """d_he of two heatmap_build results on the same cells: 1 - the cosine of
    their maps, Gaussians of length heat_length on the energy-weighted cell
    centres; 1 when a map's energies all underflowed."""
    counts = np.array([len(h_a), len(h_b)])
    table = np.zeros((2, counts.max(), 3))
    table[0, : counts[0]], table[1, : counts[1]] = h_a, h_b
    return float(_heat_rows(table, counts, *_ONE_PAIR, cfg or FeatureConfig())[0])


def build_scene(window: TimeWindow, configs: FeatureConfig | None = None) -> WindowedScene:
    """Compute all four features for every unordered member pair of the window,
    one row per pair in the scene's triu order.

    Far pairs get (1, 1, 1, 1), flagged far, and no kernel runs on them;
    visited cells are listed only for members of the other pairs.
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
    features = np.ones((len(ia), len(FEATURE_NAMES)))
    fallback = np.zeros(len(ia), dtype=bool)
    features[keep, 0] = _proxemic_rows(aligned, ka, kb, configs)
    features[keep, 1] = _dtw_rows(segments, ka, kb, DTW_TAU)
    features[keep, 2], fallback[keep] = _granger_rows(aligned, ka, kb, configs)
    used, slots = np.unique(np.concatenate([ka, kb]), return_inverse=True)
    if len(used):
        origin = np.vstack([seg.points for seg in window.segments.values()]).min(axis=0)
        table, counts = _heat_cells([segments[u] for u in used], origin, configs)
        features[keep, 3] = _heat_rows(table, counts, *slots.reshape(2, -1), configs)
    no_overlap = np.isnan(features[:, 0])
    features[no_overlap, 0] = features[no_overlap, 2] = NO_OVERLAP_DISTANCE
    return WindowedScene(window, features, fallback & ~no_overlap, no_overlap, far)

