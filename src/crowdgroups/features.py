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

- Layout: every kernel reads one `align_segments` layout (times, points,
  present) of the window's members on the sorted union of their timestamps;
  a member's samples are its present frames in order. Two members share a
  frame exactly when both have a sample with that timestamp, as np.intersect1d.
- d_ph and d_ca read each pair's common samples, compacted once per chunk to
  the front of a (pairs, K_max, 2) block: the causality lags run over compacted
  samples, and d_ph's mean over a pair's K samples has a one-pair call's shape.
- d_sh runs the DTW recursion over each member's samples one anti-diagonal
  at a time, with +inf cost past each member's last sample, on views of three
  rotating diagonal buffers made once per chunk. A chunk sorts its pairs by the
  diagonal of their end cell once; each diagonal reads only the pairs ending on it.
- d_ca factors a chunk's (samples, [1, own lags, source lags, target]) matrices,
  both directions of each pair, with one np.linalg.qr(mode="r"); a pair's rows
  past its own K are 0, and so are R's. The target column of R gives the
  restricted and unrestricted RSS, the latter exactly 0 when no more samples than
  design columns are fitted. Designs whose R diagonal shows rank deficiency are
  refitted on their own rows by np.linalg.lstsq, the reference for rank
  handling; the F CDF of a chunk's statistics is one closed form.
- d_he is 1 - the cosine of two kernel mean embeddings: Gaussians of length
  heat_length on the visited cells, weighted by E = exp(-k_r * dwell). Their
  inner products need only the cells' distances, so no grid is built.

The public one-pair functions call the same kernels, so `build_scene` rows
equal them: d_ph, d_sh and d_he exactly; d_ca, whose QR sees other zero rows,
to 1e-12. This module writes no file (harness writes the features CSV).
"""

from __future__ import annotations

import math
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


def _far_rows(aligned, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Per pair: shares a sample and is more than NEAR_RADIUS apart at each."""
    _, points, present = aligned
    far = np.zeros(len(ia), dtype=bool)
    for chunk in _chunks(len(ia), 10 * present.shape[1]):
        a, b = ia[chunk], ib[chunk]
        common = present[a] & present[b]
        delta = points[a] - points[b]
        near = delta[..., 0] ** 2 + delta[..., 1] ** 2 <= NEAR_RADIUS * NEAR_RADIUS
        far[chunk] = common.any(axis=1) & ~(common & near).any(axis=1)
    return far


def proxemic_distance(seg_a: Trajectory, seg_b: Trajectory) -> float:
    """1 - (mean mixture response over co-timed displacements) / (response at 0)."""
    value = _common_rows(align_segments([seg_a, seg_b]), *_ONE_PAIR, FeatureConfig())[0][0]
    if np.isnan(value):
        raise ValueError("segments share no common timestamps")
    return float(value)


def _dtw_rows(aligned, ia, ib) -> np.ndarray:
    """Bounded DTW distance per pair, one anti-diagonal d = i + j of the
    cumulative cost at a time: column i + 1 of a diagonal holds cell (i, d - i)
    and column 0 is +inf. Samples past a member's last sit at +inf as the first
    member and -inf as the second, whose samples are stored reversed between
    size - 1 such samples on each side, so diagonal d reads them as one slice.
    A pair's end cell (la - 1, lb - 1) lies on diagonal la + lb - 2: each chunk
    sorts its pairs by that diagonal once, so a diagonal reads only the end
    cells of the pairs that end on it."""
    _, points, present = aligned
    lengths = present.sum(axis=1)
    size = int(lengths.max(initial=1))
    owner, frames = np.nonzero(present)
    sample = np.arange(owner.size) - (np.cumsum(lengths) - lengths)[owner]
    first = np.full((2, len(present), size), np.inf)  # x and y planes
    second = np.full((2, len(present), 3 * size - 2), -np.inf)
    first[:, owner, sample] = second[:, owner, 2 * size - 2 - sample] = points[owner, frames].T
    out = np.empty(len(ia))
    for chunk in _chunks(len(ia), 16 * (size + 1)):
        a, b = ia[chunk], ib[chunk]
        la, lb = lengths[a], lengths[b]
        pa, pb = first[:, a], second[:, b]
        ends = la + lb - 2  # diagonal of cell (la - 1, lb - 1), in column la
        order = np.argsort(ends, kind="stable")
        cuts, end_cols = np.searchsorted(ends[order], np.arange(2 * size)).tolist(), la[order]
        diagonals = np.full((3, len(a), size + 1), np.inf)
        left, cells = list(diagonals[:, :, :-1]), list(diagonals[:, :, 1:])
        delta, best = np.empty((2, len(a), size)), np.empty((len(a), size))
        dx, dy = delta
        raw = np.empty(len(a))
        for d in range(2 * size - 1):
            at = 2 * size - 2 - d  # column i of the slice holds sample d - i
            np.square(np.subtract(pa, pb[:, :, at : at + size], out=delta), out=delta)
            np.add(dx, dy, out=dx)
            if d:
                np.minimum(left[(d - 1) % 3], cells[(d - 1) % 3], out=best)
                np.minimum(best, left[(d - 2) % 3], out=best)
            np.add(dx, best if d else 0.0, out=cells[d % 3])
            lo, hi = cuts[d], cuts[d + 1]  # the pairs order[lo:hi] end on d
            if lo < hi:
                raw[order[lo:hi]] = diagonals[d % 3, order[lo:hi], end_cols[lo:hi]]
        raw /= np.maximum(la, lb)
        out[chunk] = raw / (raw + DTW_TAU * DTW_TAU)
    return out


def dtw_shape_distance(seg_a: Trajectory, seg_b: Trajectory) -> float:
    """Bounded warping distance raw/(raw + DTW_TAU^2), DTW_TAU the softness scale
    in meters; raw is the squared-Euclidean warping cost normalized by max(A, B)."""
    return float(_dtw_rows(align_segments([seg_a, seg_b]), *_ONE_PAIR)[0])


def _series(n, p, q, first, t):
    """sum_{j<n} c_j t^j by Horner's rule (0.0 for n = 0), with n, p, q and first
    shared or per element; c_0 = first, c_j = c_{j-1} (p + j) / (q + j). An
    element with fewer terms starts at 0 * t + c_{n-1} = c_{n-1} for finite t."""
    size = int(np.max(n, initial=0))
    coef = [first]
    for j in range(1, size):
        coef.append(coef[-1] * (p + j) / (q + j))
    total = 0.0
    for j in reversed(range(size)):
        total = total * t + np.where(j < n, coef[j], 0.0)
    return total


def _beta_halves(x: np.ndarray, m: int, dof) -> np.ndarray:
    """I_x(m/2, dof/2) for whole m, dof >= 1 (one dof, or one per x): the F(m, dof)
    CDF at s when x = m s / (m s + dof), in closed form (Abramowitz & Stegun
    26.5.16 and 26.6.4-26.6.8; DLMF 8.17). With a = m/2 - m//2 (0 or 1/2) and
    b = dof/2, raising a by one m//2 times subtracts, for j < m//2,
    x^a (1-x)^b x^j Gamma(a+b+j) / (Gamma(a+1+j) Gamma(b)) from I_x(0, b) = 1
    or from I_x(1/2, b): a sum of dof//2 powers of 1 - x, plus (2/pi) arcsin
    sqrt(x) for odd dof. Both sums, m//2 terms in x and dof//2 in 1 - x, run
    by Horner's rule; each x gets the bits of a call with its dof alone."""
    y = np.asarray(1.0 - x)
    a, b = m % 2 / 2, np.full(y.shape, np.divide(dof, 2))
    base = 1.0
    if a:
        h = b % 1  # 1/2 for odd dof
        series = _series(b // 1, h - 0.5, h, np.where(h, 2 / math.pi, 1.0), y)
        base = np.sqrt(x) * np.where(h, np.sqrt(y), 1.0) * series
        # arcsin sqrt(x), stable at x = 1
        base = np.where(h, base + 2 / math.pi * np.arctan2(np.sqrt(x), np.sqrt(y)), base)
    y_b, first = np.empty(y.shape), np.empty(y.shape)
    for v in set(b.ravel().tolist()):  # one scalar power each: numpy rounds an array of exponents otherwise
        at = b == v
        y_b[at], first[at] = y[at] ** v, math.exp(math.lgamma(a + v) - math.lgamma(a + 1) - math.lgamma(v))
    return base - (np.sqrt(x) if a else 1.0) * y_b * _series(m // 2, a + b - 1, a, first, x)


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


def _causality(y_pts: np.ndarray, x_pts: np.ndarray, counts: np.ndarray, m: int) -> np.ndarray:
    """F-CDF area of "x Granger-causes y" at lag m per row of (rows, K_max, 2) common
    samples, each row's K = `counts` first in time order; NaN where
    granger_causality_area gives None."""
    area = np.full(len(y_pts), np.nan)
    fit = np.flatnonzero(counts >= 2 * m + 2)
    if not fit.size:
        return area
    k, width = counts[fit], y_pts.shape[1]  # a pair with the most samples fits
    # one (width - m, 2m + 2) matrix per (row, coordinate) with the columns
    # [1, own lags 1..m, source lags 1..m, target] over the fitted samples;
    # rows past a pair's own K - m are 0, and R's rows past K - m with them
    y, x = y_pts[fit].transpose(0, 2, 1), x_pts[fit].transpose(0, 2, 1)
    stack = np.empty((len(fit), 2, width - m, 2 * m + 2))
    stack[..., 0], stack[..., -1] = 1.0, y[..., m:]
    for j in range(1, m + 1):
        stack[..., j], stack[..., m + j] = y[..., m - j : width - j], x[..., m - j : width - j]
    if k.min() < width:
        np.copyto(stack, 0.0, where=(np.arange(m, width) >= k[:, None])[:, None, :, None])
    stack = stack.reshape(-1, width - m, 2 * m + 2)
    fitted = np.repeat(k - m, 2)
    r = np.linalg.qr(stack, mode="r")
    z = r[:, :, -1]
    rss_r = np.sum(z[:, m + 1 :] ** 2, axis=1)
    rss_u = np.sum(z[:, 2 * m + 1 :] ** 2, axis=1)  # exactly 0 with no more rows than columns
    r_diag = np.abs(np.diagonal(r, axis1=1, axis2=2)[:, : 2 * m + 1])
    low = np.where(np.arange(r_diag.shape[1]) < fitted[:, None], r_diag, np.inf).min(axis=1)  # 0 past K - m
    for i in np.flatnonzero(low <= _RANK_TOL * r_diag.max(axis=1)):
        rss_r[i] = _rss(stack[i, : fitted[i], : m + 1], stack[i, : fitted[i], -1])
        rss_u[i] = _rss(stack[i, : fitted[i], :-1], stack[i, : fitted[i], -1])
    rss_r = rss_r[0::2] + rss_r[1::2]
    rss_u = rss_u[0::2] + rss_u[1::2]
    dof = k - 2 * m - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = rss_r - rss_u
        stat = np.where(gain > _NO_GAIN_RTOL * rss_r, (gain / m) / (rss_u / dof), 0.0)
        got = _beta_halves(m * stat / (m * stat + dof), m, dof)
    got[rss_u <= _DEGENERATE_RSS] = 1.0
    got[rss_r <= _DEGENERATE_RSS] = np.nan
    area[fit] = got
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
    area = _causality(*points[:, None, common], np.array([common.sum()]), lag)[0]  # (1, K, 2) target, source
    return None if np.isnan(area) else float(area)


def _common_rows(aligned, ia, ib, cfg: FeatureConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d_ph, d_ca, fallback) per pair from its common samples, compacted once
    per chunk to the front of (rows, K_max, 2) blocks whose samples past a
    pair's K no kernel reads: d_ph is NaN where the pair shares none, d_ca is
    1 - the larger defined directional area, and GRANGER_FALLBACK where neither
    is (flagged)."""
    m = cfg.granger_lag
    _, points, present = aligned
    d_ph, best = np.full(len(ia), np.nan), np.full(len(ia), np.nan)
    for chunk in _chunks(len(ia), present.shape[1] * max(4 * (_HALL_SIG2.size + 2), 32 * (m + 1))):
        common = present[ia[chunk]] & present[ib[chunk]]
        counts = common.sum(axis=1)
        rows = np.flatnonzero(counts)
        a, b, counts = ia[chunk][rows], ib[chunk][rows], counts[rows]
        frames = np.argsort(~common[rows], axis=1, kind="stable")[:, : counts.max(initial=0)]  # common ones first
        pa, pb = points[a[:, None], frames], points[b[:, None], frames]
        deltas = pa - pb
        d2 = np.einsum("pkj,pkj->pk", deltas, deltas)
        responses = np.mean(np.exp(-d2[..., None] / (2.0 * _HALL_SIG2)) / (2.0 * math.pi * _HALL_SIG2), axis=2)
        rows += chunk.start
        for k in set(counts.tolist()):  # each mean has a one-pair call's shape
            sel = np.flatnonzero(counts == k)
            d_ph[rows[sel]] = 1.0 - responses[sel, :k].mean(axis=1) / _HALL_PEAK
        # both directions in one batch: b caused by a, then a caused by b
        both = _causality(np.concatenate([pb, pa]), np.concatenate([pa, pb]), np.tile(counts, 2), m)
        best[rows] = np.fmax(*both.reshape(2, -1))
    fallback = np.isnan(best)
    return np.clip(d_ph, 0.0, 1.0), np.where(fallback, GRANGER_FALLBACK, np.clip(1.0 - best, 0.0, 1.0)), fallback


def granger_distance(seg_a: Trajectory, seg_b: Trajectory, cfg: FeatureConfig | None = None) -> float:
    """1 - max directional causality area (the max makes the feature symmetric).

    Pairs with too few common samples (or degenerate regressions in both
    directions) fall back to the uninformative midpoint 0.5.
    """
    return float(_common_rows(align_segments([seg_a, seg_b]), *_ONE_PAIR, cfg or FeatureConfig())[1][0])


def _heat_cells(aligned, rows, cfg: FeatureConfig):
    """(rows, V, 3) zero-padded rows (x, y, E) of the visited cells of the
    layout's members `rows` in (x, y) order, and V per member: centres of the
    world grid's cells of edge heat_cell_edge, anchored at (0, 0); E = exp(-k_r *
    dwell seconds) over the largest, a cell's dwells summed in time order."""
    times, points, present = aligned
    owner, frames = np.nonzero(present[rows])
    # a sample dwells until its member's next one; a member's last sample does not
    dwell = np.where(np.diff(owner, append=-1) == 0, np.diff(times[frames], append=0.0), 0.0)
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
    ia, ib = np.triu_indices(len(members), 1)
    aligned = align_segments([window.segments[m] for m in members])
    far = _far_rows(aligned, ia, ib)
    keep = np.flatnonzero(~far)
    ka, kb = ia[keep], ib[keep]
    features = np.ones((len(ia), len(FEATURE_NAMES)))
    fallback = np.zeros(len(ia), dtype=bool)
    features[keep, 0], features[keep, 2], fallback[keep] = _common_rows(aligned, ka, kb, configs)
    features[keep, 1] = _dtw_rows(aligned, ka, kb)
    used, slots = np.unique(np.concatenate([ka, kb]), return_inverse=True)
    if len(used):
        table, counts = _heat_cells(aligned, used, configs)
        features[keep, 3] = _heat_rows(table, counts, *slots.reshape(2, -1), configs)
    no_overlap = np.isnan(features[:, 0])
    features[no_overlap, 0] = features[no_overlap, 2] = NO_OVERLAP_DISTANCE
    return WindowedScene(window, features, fallback & ~no_overlap, no_overlap, far)

