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

d_ph's zones are Hall's (The Hidden Dimension, 1966): HALL_SIGMAS, a constant.
A pair is far when it shares a timestamp and is more than NEAR_RADIUS = 7.6 m
(the end of Hall's public zone, the widest d_ph component) apart at every shared
one. Far rows are (1, 1, 1, 1) and skip every kernel; the kernels are row-wise,
so the other rows equal an ungated build's.

Every feature is a kernel over the pair axis (ia, ib); its temporaries are
chunked so that one chunk of pairs holds about _CHUNK_ELEMENTS floats.

- Layout: every kernel reads one layout (times, points, present) of a batch, one
  `align_segments` call with a group per window: a window's members are rows on
  its own time axis, padded to the batch's frames, and its triu pairs are offset
  to those rows. A member's samples are its present frames in order; two share a
  frame when both have that timestamp (np.intersect1d).
- Batches: build_scene of a slice_windows window featurizes it with the next live
  windows of its slice not yet built under its config, up to _BATCH_PAIRS pair
  rows, so the first window carries the batch's latency; _AHEAD keeps the rows,
  weakly keyed by window, until each is asked for once (one thread at a time).
- d_ph and d_ca take the near pairs in runs of equal common sample count K,
  which the far test counts; each chunk of a run compacts its pairs' samples to
  one (pairs, K, 2) block, so d_ph's means and the causality lags see exactly a
  one-pair call's samples.
- d_sh runs the DTW recursion over each member's samples one anti-diagonal
  at a time, pairs on the last axis, with +inf cost past each member's last
  sample, on three rotating diagonal buffers made once per chunk. Diagonal d
  computes only its min(d + 1, 2 size - 1 - d) valid cells. A chunk sorts its
  pairs by the diagonal of their end cell once; each diagonal reads only the
  pairs ending on it.
- d_ca factors a chunk's (K - m, [1, own lags, source lags, target]) matrices,
  both directions of each pair, with one np.linalg.qr(mode="r"). The target
  column of R gives the restricted and unrestricted RSS, the latter exactly 0
  when no more samples than design columns are fitted. Designs whose R diagonal
  shows rank deficiency are refitted by np.linalg.lstsq, the reference for rank
  handling; the F CDF of a chunk's statistics, which share K's degrees of
  freedom, is one closed form.
- d_he is 1 - the cosine of two kernel mean embeddings: Gaussians of length
  heat_length on the visited cells, weighted by E = exp(-k_r * dwell). Their
  inner products need only the cells' distances, so no grid is built.

The public one-pair functions call the same kernels, and each row's arithmetic
has the shape of its one-pair call, so `build_scene` rows equal them exactly,
in any batch and chunk. This module writes no file (harness writes the
features CSV).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import Length, PositiveInt, Rate, _check_fields, _check_number, _frozen_array
from .trajectories import _CHUNK_ELEMENTS, TimeWindow, Trajectory, align_segments

FEATURE_NAMES = ("d_ph", "d_sh", "d_ca", "d_he")
HALL_SIGMAS = (0.5, 1.2, 3.7, 7.6)  # meters
_HALL_SIG2 = np.square(np.asarray(HALL_SIGMAS, dtype=float))
GRANGER_FALLBACK = 0.5
NO_OVERLAP_DISTANCE = 1.0
NEAR_RADIUS = 7.6  # meters; pairs never this close at a shared timestamp are far
DTW_TAU = 1.0
_DEGENERATE_RSS = 1e-12
_NO_GAIN_RTOL = 1e-9  # a source cutting the restricted RSS by at most this share adds nothing
_RANK_TOL = 1e-8  # min/max |R_kk| of a causality design below this refits by lstsq
_ONE_PAIR = (np.array([0]), np.array([1]))
_BATCH_PAIRS = 1 << 11  # pair rows build_scene featurizes at once from one slice's windows
_AHEAD = weakref.WeakKeyDictionary()  # slice window -> {config: its rows built ahead, None once handed out}


@dataclass(frozen=True)
class FeatureConfig:
    """Feature settings: the causality lag order m (a pair needs K >= 2m + 2
    common samples), and the heat cell edge and length (meters) and k_r (per
    second of dwell). d_ph has none: its zones are HALL_SIGMAS. Field names are
    the run-config keys."""

    granger_lag: PositiveInt = 2
    heat_cell_edge: Length = 0.30
    heat_length: Length = 3.0
    heat_k_r: Rate = 0.5

    def __post_init__(self):
        _check_fields(self)


@dataclass(frozen=True, eq=False)
class WindowedScene:
    """All pairwise features of one time window, as one pair table.

    Row k of `feature_matrix` (pairs x 4 distances) and of the two flag arrays
    belongs to the member pair (members[ia[k]], members[ib[k]]), where
    (ia, ib) = `pair_rows` = np.triu_indices(len(members), 1) over the sorted
    members: (m0, m1), (m0, m2), ..., (m1, m2), ... The matrix and the flags
    are read-only copies; flags default to all False.
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
            value = _frozen_array(np.zeros(shape) if given is None else given, dtype)
            if value.shape != shape:
                raise ValueError(f"{name} of shape {value.shape} for {n} pairs; expected {shape}")
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


def gmm_eval(delta) -> float:
    """Equal-weight mixture of zero-mean isotropic 2-D Gaussians, one per
    Hall zone, at `delta`.

    The mixture is isotropic, so `delta` may be a 2-D displacement or a scalar
    separation distance.
    """
    arr = np.asarray(delta, dtype=float)
    d2 = float(arr) ** 2 if arr.ndim == 0 else float(arr[0]) ** 2 + float(arr[1]) ** 2
    return float(np.mean(np.exp(-d2 / (2.0 * _HALL_SIG2)) / (2.0 * math.pi * _HALL_SIG2)))


_HALL_PEAK = gmm_eval((0.0, 0.0))  # the mixture's response at contact


def _chunks(n_pairs: int, per_pair: int):
    """Pair-axis slices whose temporaries, `per_pair` floats per pair, fit."""
    step = max(1, _CHUNK_ELEMENTS // max(1, per_pair))
    return [slice(start, start + step) for start in range(0, n_pairs, step)]


def _far_rows(aligned, ia: np.ndarray, ib: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(far, K) per pair: far when it shares a sample and is more than NEAR_RADIUS apart at each."""
    _, points, present = aligned
    far, counts = np.zeros(len(ia), dtype=bool), np.zeros(len(ia), dtype=int)
    for chunk in _chunks(len(ia), 10 * present.shape[1]):
        a, b = ia[chunk], ib[chunk]
        common = present[a] & present[b]
        delta = points[a] - points[b]
        near = delta[..., 0] ** 2 + delta[..., 1] ** 2 <= NEAR_RADIUS * NEAR_RADIUS
        counts[chunk] = common.sum(axis=1)
        far[chunk] = (counts[chunk] > 0) & ~(common & near).any(axis=1)
    return far, counts


def _one_pair(seg_a: Trajectory, seg_b: Trajectory, cfg: FeatureConfig | None = None):
    aligned = align_segments([seg_a, seg_b])  # _common_rows of the pair alone
    return _common_rows(aligned, *_ONE_PAIR, _far_rows(aligned, *_ONE_PAIR)[1], cfg or FeatureConfig())


def proxemic_distance(seg_a: Trajectory, seg_b: Trajectory) -> float:
    """1 - (mean mixture response over co-timed displacements) / (response at 0)."""
    value = _one_pair(seg_a, seg_b)[0][0]
    if np.isnan(value):
        raise ValueError("segments share no common timestamps")
    return float(value)


def _dtw_rows(aligned, ia, ib) -> np.ndarray:
    """Bounded DTW distance per pair, one anti-diagonal d = i + j of the
    cumulative cost at a time, pairs on the last axis: row i + 1 of a diagonal
    holds cell (i, d - i) and row 0 is +inf. Samples past a member's last sit
    at +inf as the first member and -inf as the second, whose samples are
    stored reversed between size - 1 such samples on each side, so diagonal d
    reads them as one slice. Diagonal d computes only its valid rows lo + 1 to
    hi: the band grows by a row a diagonal until d = size - 1, over rows never
    written (+inf), then shrinks from below, past rows no diagonal reads. A
    pair's end cell (la - 1, lb - 1) lies on diagonal la + lb - 2: each chunk
    sorts its pairs by that diagonal once, so a diagonal reads only the end
    cells of the pairs that end on it."""
    _, points, present = aligned
    lengths = present.sum(axis=1)
    size = int(lengths.max(initial=1))
    owner, frames = np.nonzero(present)
    sample = np.arange(owner.size) - (np.cumsum(lengths) - lengths)[owner]
    first = np.full((2, size, len(present)), np.inf)  # x and y planes
    second = np.full((2, 3 * size - 2, len(present)), -np.inf)
    first[:, sample, owner] = second[:, 2 * size - 2 - sample, owner] = points[owner, frames].T
    out = np.empty(len(ia))
    for chunk in _chunks(len(ia), 16 * (size + 1)):
        a, b = ia[chunk], ib[chunk]
        la, lb = lengths[a], lengths[b]
        pa, pb = first[:, :, a], second[:, :, b]
        ends = la + lb - 2  # diagonal of cell (la - 1, lb - 1), in row la
        order = np.argsort(ends, kind="stable")
        cuts, end_rows = np.searchsorted(ends[order], np.arange(2 * size)).tolist(), la[order]
        diagonals = np.full((3, size + 1, len(a)), np.inf)
        delta, best = np.empty((2, size, len(a))), np.zeros((size, len(a)))  # diagonal 0 adds best = 0
        raw = np.empty(len(a))
        for d in range(2 * size - 1):
            lo, hi = max(0, d - size + 1), min(d, size - 1) + 1
            at = 2 * size - 2 - d  # row i of the slice holds sample d - i
            cells, span, low = diagonals[d % 3], delta[:, : hi - lo], best[: hi - lo]
            np.square(np.subtract(pa[:, lo:hi], pb[:, at + lo : at + hi], out=span), out=span)
            if d:
                np.minimum(diagonals[(d - 1) % 3, lo:hi], diagonals[(d - 1) % 3, lo + 1 : hi + 1], out=low)
                np.minimum(low, diagonals[(d - 2) % 3, lo:hi], out=low)
            np.add(np.add(span[0], span[1], out=span[0]), low, out=cells[lo + 1 : hi + 1])
            s, e = cuts[d], cuts[d + 1]  # the pairs order[s:e] end on d
            if s < e:
                raw[order[s:e]] = cells[end_rows[s:e], order[s:e]]
        raw /= np.maximum(la, lb)
        out[chunk] = raw / (raw + DTW_TAU * DTW_TAU)
    return out


def dtw_shape_distance(seg_a: Trajectory, seg_b: Trajectory) -> float:
    """Bounded warping distance raw/(raw + DTW_TAU^2), DTW_TAU the softness scale
    in meters; raw is the squared-Euclidean warping cost normalized by max(A, B)."""
    return float(_dtw_rows(align_segments([seg_a, seg_b]), *_ONE_PAIR)[0])


def _series(n: int, p, q, first, t):
    """sum_{j<n} c_j t^j by Horner's rule (0.0 for n = 0); c_0 = first,
    c_j = c_{j-1} (p + j) / (q + j)."""
    coef = [first]
    for j in range(1, n):
        coef.append(coef[-1] * (p + j) / (q + j))
    total = 0.0
    for c in reversed(coef[:n]):
        total = total * t + c
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
    y = np.asarray(1.0 - x)
    a, b = m % 2 / 2, dof / 2
    base = 1.0
    if a:
        h = b % 1  # 1/2 for odd dof
        base = np.sqrt(x) * (np.sqrt(y) if h else 1.0) * _series(dof // 2, h - 0.5, h, 2 / math.pi if h else 1.0, y)
        if h:  # arcsin sqrt(x), stable at x = 1
            base = base + 2 / math.pi * np.arctan2(np.sqrt(x), np.sqrt(y))
    first = math.exp(math.lgamma(a + b) - math.lgamma(a + 1) - math.lgamma(b))
    return base - (np.sqrt(x) if a else 1.0) * y**b * _series(m // 2, a + b - 1, a, first, x)


def f_cdf(s: float, d1: int, d2: int) -> float:
    """CDF of the F(d1, d2) distribution, the regularized incomplete beta
    I_x(d1/2, d2/2) at x = d1 s / (d1 s + d2), in closed form; the degrees of
    freedom are PositiveInts."""
    d1, d2 = (_check_number("degrees of freedom", d, PositiveInt) for d in (d1, d2))
    s = float(s)
    if math.isnan(s):
        raise ValueError("statistic is NaN")
    if s <= 0.0:
        return 0.0
    if math.isinf(s):
        return 1.0
    x = d1 * s / (d1 * s + d2)
    return float(_beta_halves(np.array(x), d1, d2))


def _rss(design: np.ndarray, target: np.ndarray) -> float:
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    return float(resid @ resid)


def _causality(y_pts: np.ndarray, x_pts: np.ndarray, m: int) -> np.ndarray:
    """F-CDF area of "x Granger-causes y" at lag m per row of (rows, K, 2) common
    samples in time order; NaN where granger_causality_area gives None."""
    rows, k = y_pts.shape[:2]
    if k < 2 * m + 2:
        return np.full(rows, np.nan)
    # one (K - m, 2m + 2) matrix per (row, coordinate): [1, own lags 1..m, source lags 1..m, target]
    y, x = y_pts.transpose(0, 2, 1), x_pts.transpose(0, 2, 1)
    stack = np.empty((rows, 2, k - m, 2 * m + 2))
    stack[..., 0], stack[..., -1] = 1.0, y[..., m:]
    for j in range(1, m + 1):
        stack[..., j], stack[..., m + j] = y[..., m - j : k - j], x[..., m - j : k - j]
    stack = stack.reshape(-1, k - m, 2 * m + 2)
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
    dof = k - 2 * m - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = rss_r - rss_u
        stat = np.where(gain > _NO_GAIN_RTOL * rss_r, (gain / m) / (rss_u / dof), 0.0)
        area = _beta_halves(m * stat / (m * stat + dof), m, dof)
    area[rss_u <= _DEGENERATE_RSS] = 1.0
    area[rss_r <= _DEGENERATE_RSS] = np.nan
    return area


def granger_causality_area(target: Trajectory, source: Trajectory, lag: int = 2) -> float | None:
    """F-CDF area for "source Granger-causes target" on common timestamps.

    Fits, per coordinate, the target from its own `lag` past samples (plus
    intercept) and again adding the source's past; residuals pool over x and y.
    Returns None when the common sample count leaves no error degrees of
    freedom or the restricted regression is already exact.
    """
    lag = _check_number("lag", lag, PositiveInt)
    _, points, present = align_segments([target, source])
    common = present.all(axis=0)
    area = _causality(*points[:, None, common], lag)[0]  # (1, K, 2) target, source
    return None if np.isnan(area) else float(area)


def _common_rows(aligned, ia, ib, counts, cfg: FeatureConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d_ph, d_ca, fallback) per pair from its `counts` K common samples. The
    pairs run in order of K, and each chunk of a run compacts its pairs to
    (rows, K, 2) blocks, so every mean and causality fit has a one-pair call's
    shape: d_ph is NaN where the pair shares none, d_ca is 1 - the larger
    defined directional area, and GRANGER_FALLBACK where neither is (flagged)."""
    m = cfg.granger_lag
    _, points, present = aligned
    d_ph, best = np.full(len(ia), np.nan), np.full(len(ia), np.nan)
    order = np.argsort(counts, kind="stable")
    starts = np.flatnonzero(np.diff(counts[order], prepend=0))  # a run of each K > 0
    for run in np.split(order, starts)[1:]:
        k = int(counts[run[0]])
        for chunk in _chunks(len(run), present.shape[1] + k * max(4 * (_HALL_SIG2.size + 2), 32 * (m + 1))):
            rows = run[chunk]
            a, b = ia[rows], ib[rows]
            frames = np.nonzero(present[a] & present[b])[1].reshape(-1, k)  # in time order
            pa, pb = points[a[:, None], frames], points[b[:, None], frames]
            deltas = pa - pb
            d2 = np.einsum("pkj,pkj->pk", deltas, deltas)
            responses = np.mean(np.exp(-d2[..., None] / (2.0 * _HALL_SIG2)) / (2.0 * math.pi * _HALL_SIG2), axis=2)
            d_ph[rows] = 1.0 - responses.mean(axis=1) / _HALL_PEAK
            # both directions in one batch: b caused by a, then a caused by b
            best[rows] = np.fmax(*_causality(np.concatenate([pb, pa]), np.concatenate([pa, pb]), m).reshape(2, -1))
    fallback = np.isnan(best)
    return np.clip(d_ph, 0.0, 1.0), np.where(fallback, GRANGER_FALLBACK, np.clip(1.0 - best, 0.0, 1.0)), fallback


def granger_distance(seg_a: Trajectory, seg_b: Trajectory, cfg: FeatureConfig | None = None) -> float:
    """1 - max directional causality area (the max makes the feature symmetric).

    Pairs with too few common samples (or degenerate regressions in both
    directions) fall back to the uninformative midpoint 0.5.
    """
    return float(_one_pair(seg_a, seg_b, cfg)[1][0])


def _heat_cells(aligned, rows, cfg: FeatureConfig):
    """(rows, V, 3) zero-padded rows (x, y, E) of the visited cells of the
    layout's members `rows` in (x, y) order, and V per member: centres of the
    world grid's cells of edge heat_cell_edge, anchored at (0, 0); E = exp(-k_r *
    dwell seconds) over the largest, a cell's dwells summed in time order."""
    times, points, present = aligned
    owner, frames = np.nonzero(present[rows])
    times = times[np.asarray(rows)[owner], frames]
    # a sample dwells until its member's next one; a member's last sample does not
    dwell = np.where(np.diff(owner, append=-1) == 0, np.diff(times, append=0.0), 0.0)
    cells = np.floor(points[rows][owner, frames] / cfg.heat_cell_edge)
    keys = np.column_stack([owner, cells])
    order = np.lexsort(keys.T[::-1])  # stable: a cell's samples stay in time order
    first = np.append(True, np.diff(keys[order], axis=0).any(axis=1))
    dwells = np.bincount(np.cumsum(first) - 1, weights=dwell[order])
    owner, cells = keys[order[first], 0].astype(int), keys[order[first], 1:]
    counts = np.bincount(owner, minlength=len(rows))
    table = np.zeros((len(rows), counts.max(initial=0), 3))
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


def heatmap_build(seg: Trajectory, cfg: FeatureConfig | None = None) -> np.ndarray:
    """The segment's visited cells as (V, 3) rows (x, y, E): centres of the
    world grid's cells of edge heat_cell_edge, one grid for every segment, and
    energies exp(-k_r * occupancy seconds) over the largest; a revisit counts once."""
    return _heat_cells(align_segments([seg]), [0], cfg or FeatureConfig())[0][0]


def heatmap_distance(h_a: np.ndarray, h_b: np.ndarray, cfg: FeatureConfig | None = None) -> float:
    """d_he of two heatmap_build results on the same cells: 1 - the cosine of
    their maps, Gaussians of length heat_length on the energy-weighted cell
    centres; 1 when a map's energies all underflowed."""
    counts = np.array([len(h_a), len(h_b)])
    table = np.zeros((2, counts.max(), 3))
    table[0, : counts[0]], table[1, : counts[1]] = h_a, h_b
    return float(_heat_rows(table, counts, *_ONE_PAIR, cfg or FeatureConfig())[0])


def _window_rows(windows, cfg: FeatureConfig):
    """(features, fallback, no_overlap, far) of each window, one batch over all
    windows' pairs in one `align_segments` layout (see the module docstring)."""
    groups = [[w.segments[m] for m in sorted(w.members)] for w in windows]
    aligned, offsets = align_segments(*groups), np.cumsum([0] + [len(g) for g in groups])
    ia, ib = np.hstack([np.add(np.triu_indices(len(g), 1), row) for g, row in zip(groups, offsets)])
    far, counts = _far_rows(aligned, ia, ib)
    keep = np.flatnonzero(~far)
    ka, kb = ia[keep], ib[keep]
    features = np.ones((len(ia), len(FEATURE_NAMES)))
    fallback = np.zeros(len(ia), dtype=bool)
    features[keep, 0], features[keep, 2], fallback[keep] = _common_rows(aligned, ka, kb, counts[keep], cfg)
    features[keep, 1] = _dtw_rows(aligned, ka, kb)
    used, slots = np.unique(np.concatenate([ka, kb]), return_inverse=True)
    if len(used):
        table, counts = _heat_cells(aligned, used, cfg)
        features[keep, 3] = _heat_rows(table, counts, *slots.reshape(2, -1), cfg)
    no_overlap = np.isnan(features[:, 0])
    features[no_overlap, 0] = features[no_overlap, 2] = NO_OVERLAP_DISTANCE
    cuts = np.cumsum([len(g) * (len(g) - 1) // 2 for g in groups])[:-1]
    return zip(*(np.split(a, cuts) for a in (features, fallback & ~no_overlap, no_overlap, far)))


def build_scenes(windows: list[TimeWindow], cfg: FeatureConfig | None = None) -> list[WindowedScene]:
    """Compute all four features for every member pair of each window, one row
    per pair in its scene's triu order, each kernel once per chunk of all pairs.

    Far pairs get (1, 1, 1, 1), flagged far, and no kernel runs on them;
    visited cells are listed only for members of the other pairs.
    Pairs that never co-occur get d_ph = d_ca = 1 (maximally dissimilar) while
    d_sh and d_he are still computed, flagged no_overlap; pairs with too few
    common samples for the causality regression carry the 0.5 fallback,
    flagged granger_fallback.
    """
    rows = _window_rows(windows, cfg or FeatureConfig()) if windows else []
    return [WindowedScene(w, *r) for w, r in zip(windows, rows)]


def build_scene(window: TimeWindow, configs: FeatureConfig | None = None) -> WindowedScene:
    """build_scenes of one window, batched with the next ones of its slice (module docstring)."""
    configs = configs or FeatureConfig()
    if not window._slice:
        return build_scenes([window], configs)[0]
    if _AHEAD.get(window, {}).get(configs) is None:  # not built ahead, or handed out already
        batch, pairs = [window], len(window.members) * (len(window.members) - 1) // 2
        for w in filter(None, (ref() for ref in window._slice[window.index + 1 :])):
            pairs += len(w.members) * (len(w.members) - 1) // 2
            if configs in _AHEAD.get(w, ()) or pairs > _BATCH_PAIRS:
                break
            batch.append(w)
        for w, rows in zip(batch, _window_rows(batch, configs)):
            _AHEAD.setdefault(w, {})[configs] = rows
    rows, _AHEAD[window][configs] = _AHEAD[window][configs], None
    return WindowedScene(window, *rows)
