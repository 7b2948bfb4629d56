"""Structured max-margin training of the affinity weights.

The weights w = [alpha; beta], one alpha and one beta per pair distance (a
scene's affinity_terms fix their number), are learned by Block-Coordinate
Frank-Wolfe over one block per training window. The loss-augmented oracle is
the greedy merge engine that predicts, with each candidate merge's gain raised
by the change in loss the merge causes; those losses come from the contingency
table against the truth, by the same closed forms that score predictions.
That loss half depends on the truth and the merges made so far, never on w, so
each example memoizes per loss kind the states merge paths reach (each merge's
change in loss, the loss, a search's answer) while their n x n gains fit in
MAX_MEMO_ELEMENTS floats (see _MergeWalk; windows of 128+ members store none).
The Frank-Wolfe state is the Model itself: each block update changes its w,
one row of block_w, one entry of block_l, l and iterations in place, by the
line search of Lacoste-Julien et al. 2013 (arXiv:1207.4747, Alg. 4, with
lambda = 1/C), so the dual l - 0.5 ||w||^2 never decreases.
Each block caches the planes (Psi(truth) - Psi(y), loss(y)) of the labellings
y its exact oracle returned, unscaled so that they stay valid as blocks come
and go, and steps to the best cached plane while that keeps enough of the
gap of the block's last exact call (multi-plane BCFW, Shah et al. 2015,
arXiv:1408.6804); otherwise it asks the oracle. bcfw_train runs batch mode
(the examples arrive at once; one exact step per block ends it, their gaps
summing to the reported duality gap) and sequential mode (they arrive one at
a time and the max_iterations budget is spent in shares as they do) in one
loop; online mode (self-supervised: each scene's prediction appends one block
and gets ONLINE_STEPS updates) shares its update, which reads C and the loss
from the model it changes. Batch and sequential training also keep the
averaged iterate w_avg (BCFW-wavg, ibid.: weight 2k/(K(K+1)) on the iterate
after update k of K), which predictions use; the Frank-Wolfe state stays the
iterate's. Training writes nothing: each update reaches the harness's log
only through iteration_hook(model, info).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Iterator, Literal, NamedTuple

import numpy as np

from .errors import (SAMPLE_BOUND, ConfigError, ModelNumber, NonNegativeInt, PositiveInt, Regularization,
                     _check_fields, _check_number, _frozen_array)
from .features import FEATURE_NAMES, WindowedScene
from .losses import MergeLoss, gmitre_loss, mitre_loss, pairwise_loss
from .partitioning import Partition, _affinity_array, _greedy_merge, affinity, greedy_cc

logger = logging.getLogger(__name__)

WEIGHT_DIM = 2 * len(FEATURE_NAMES)
MAX_PLANES = 16  # planes cached per block
MAX_MEMO_ELEMENTS = 1 << 14  # gain floats memoized per example and loss kind (128 KiB)
CACHE_GAP_RATIO = 0.3  # share of the last exact gap a cached plane must keep
MAX_CACHED_STEPS = 10  # cached steps a block takes between exact oracle calls
ONLINE_MAX_BLOCKS = 16  # pseudo-label blocks online mode keeps
ONLINE_STEPS = 10  # updates online mode spends on each scene's block
LossKind = Literal["gmitre", "mitre", "pairwise"]
LOSSES: dict[str, Callable[[Partition, Partition], float]] = {
    "gmitre": gmitre_loss,
    "mitre": mitre_loss,
    "pairwise": pairwise_loss,
}
TrainMode = Literal["batch", "sequential", "online"]


class _MergeState:
    """A search state: each merge's change in loss (read-only), the loss, and the answer of a search ending here."""

    def __init__(self, scorer: MergeLoss):
        self.gains, self.current, self.answer = scorer.candidates() - scorer.current, scorer.current, None
        self.gains.setflags(write=False)


class _MergeWalk:
    """_greedy_merge's loss protocol over the example's memo for `kind`: its start
    MergeLoss and the states stored by their path of merges (i, j) of rows. A miss
    replays the path into a copy of the start, once; a new state is stored while
    the gains fit in MAX_MEMO_ELEMENTS, so a search that missed finds no more."""

    def __init__(self, example: "TrainingExample", kind: str):
        if kind not in example._merge_memos:
            example._merge_memos[kind] = MergeLoss(kind, example.truth, example.scene.members), {}
        self.start, self.states = example._merge_memos[kind]
        self.path, self.scorer = (), None
        self.state = self.states.get(()) or self._new_state(self.start)

    def _new_state(self, scorer: MergeLoss) -> _MergeState:
        state = _MergeState(scorer)
        if (len(self.states) + 1) * state.gains.size <= MAX_MEMO_ELEMENTS:
            self.states[self.path] = state
        return state

    def gains(self) -> np.ndarray:
        return self.state.gains

    def merge(self, i: int, j: int) -> None:
        self.path += ((i, j),)
        self.state = self.states.get(self.path) if self.scorer is None else None
        if self.state is None:
            if self.scorer is None:
                self.scorer = self.start.copy()
                for step in self.path[:-1]:
                    self.scorer.merge(*step)
            self.scorer.merge(i, j)
            self.state = self._new_state(self.scorer)


@dataclass(frozen=True, eq=False)
class TrainingExample:
    """One window's features with its ground-truth grouping, and the oracle's merge-path memos."""

    scene: WindowedScene
    truth: Partition
    _merge_memos: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.truth.members != set(self.scene.members):
            raise ValueError("truth partition does not cover the scene members")

    @cached_property
    def truth_psi(self) -> np.ndarray:
        """Psi(scene, truth), read by the oracle and by every block update."""
        return joint_feature_map(self.scene, self.truth)


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the Frank-Wolfe trainer and its derived modes."""

    C: Regularization = 10.0
    max_iterations: NonNegativeInt = 1000
    seed: NonNegativeInt = 0
    loss: LossKind = "gmitre"

    def __post_init__(self):
        _check_fields(self)


@dataclass(eq=False)
class Model:
    """Learned weights plus the per-block Frank-Wolfe state and training metadata.

    The weights predictions use, w_avg when training kept that averaged
    iterate and w otherwise, decompose as [alpha; beta]: the affinity of a pair
    with distances d is alpha.(1 - d) - beta.d. w = sum of block_w is the
    Frank-Wolfe iterate. The block states allow exact training resumption
    and replay; config carries whatever windowing/feature settings
    are needed to reproduce a prediction. C, seed and loss default to
    TrainConfig's.
    """

    FORMAT_VERSION: ClassVar[int] = 1

    w: np.ndarray | None = None
    w_avg: np.ndarray | None = None
    block_w: np.ndarray | None = None
    block_l: np.ndarray | None = None
    l: ModelNumber = 0.0
    C: Regularization = TrainConfig.C
    seed: NonNegativeInt = TrainConfig.seed
    loss: LossKind = TrainConfig.loss
    mode: TrainMode = "batch"
    iterations: NonNegativeInt = 0
    config: dict | None = None

    def __post_init__(self):
        self.w = np.zeros(WEIGHT_DIM) if self.w is None else np.array(self.w, dtype=float).reshape(WEIGHT_DIM)
        self.w_avg = None if self.w_avg is None else np.array(self.w_avg, dtype=float).reshape(WEIGHT_DIM)
        self.block_w = np.array([] if self.block_w is None else self.block_w, dtype=float).reshape(-1, WEIGHT_DIM)
        self.block_l = np.array([] if self.block_l is None else self.block_l, dtype=float).reshape(-1)
        if self.block_w.shape[0] != self.block_l.shape[0]:
            raise ValueError("block_w and block_l disagree on the number of blocks")
        for name in ("w", "w_avg", "block_w", "block_l"):
            if getattr(self, name) is not None and not np.all(np.abs(getattr(self, name)) <= SAMPLE_BOUND):
                raise ValueError(f"{name} must be finite and within ±{SAMPLE_BOUND:g}")
        _check_fields(self)
        self.config = dict(self.config or {})

    @property
    def weights(self) -> np.ndarray:
        """The weights predictions use: w_avg when set, else w."""
        return self.w if self.w_avg is None else self.w_avg

    @property
    def alpha(self) -> np.ndarray:
        return self.weights[: len(FEATURE_NAMES)]

    @property
    def beta(self) -> np.ndarray:
        return self.weights[len(FEATURE_NAMES) :]

    @property
    def nonnegative_weights(self) -> bool:
        """Whether alpha, beta >= 0 (the positivity the scale theorem assumes;
        monitored, never enforced)."""
        return bool(np.all(self.weights >= 0.0))

    def copy(self) -> "Model":
        """A model of its own: __post_init__ copies the arrays and the config."""
        return replace(self)

    def to_dict(self) -> dict:
        """The model file: format_version, then the fields in declaration order
        (w_avg only when set)."""
        obj: dict = {"format_version": self.FORMAT_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            obj[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return obj

    @classmethod
    def from_dict(cls, obj: dict) -> "Model":
        try:
            version = _check_number("format_version", obj["format_version"], PositiveInt)
            if version > cls.FORMAT_VERSION:
                raise ConfigError(f"model format {version} is newer than supported")
            kwargs = {f.name: obj[f.name] for f in fields(cls) if f.name in obj}
            return cls(**{**kwargs, "w": obj["w"]})
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"not a valid model file: {exc}") from None

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Model":
        """The model file at path; every error but an OSError names the file."""
        try:
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        except ConfigError as exc:  # from_dict's refusal
            raise ConfigError(f"{path}: {exc}") from None
        except ValueError as exc:  # invalid JSON or not UTF-8
            raise ConfigError(f"{path}: not a valid model file: {exc}") from None


def joint_feature_map(scene: WindowedScene, p: Partition) -> np.ndarray:
    """Sum of pair affinity terms over intra-cluster pairs.

    Built so that w @ joint_feature_map(scene, p) equals the partition's total
    affinity score under affinity(scene, w), exactly.
    """
    if p.members != set(scene.members):
        raise ValueError("partition does not cover the scene members")
    labels = p.labels()
    cluster = np.array([labels[m] for m in scene.members], dtype=int)
    ia, ib = scene.pair_rows
    return scene.affinity_terms[cluster[ia] == cluster[ib]].sum(axis=0)


class OracleAnswer(NamedTuple):
    """The oracle's labelling, its H value (the structured hinge estimate), its
    loss against the truth and Psi(scene, partition)."""

    partition: Partition
    hinge: float
    loss: float
    psi: np.ndarray


def loss_augmented_oracle(example: TrainingExample, w, loss: str = "gmitre") -> OracleAnswer:
    """Greedy maximizer of H(y) = loss(truth, y) + w.Psi(x, y) - w.Psi(x, truth).

    Runs the prediction merge engine with every candidate merge's gain
    raised by the change in loss it causes (all candidates at once, from the
    example's memo of merge paths), from all singletons until
    no merge improves H (ties to the smallest min-id pair). A merge whose
    gain rounds to <= 0 ends the search, so one whose exact gain is 0 is
    taken or not by the rounding of the losses and affinities. Returns the
    local maximizer with its H value, the structured hinge estimate, its loss
    and its Psi. The truth itself always attains H = 0, so when the greedy end
    point scores below that the truth is returned instead; the hinge is never
    negative.
    """
    if loss not in LOSSES:
        raise ValueError(f"loss must be one of {sorted(LOSSES)}, got {loss!r}")
    w = np.asarray(w, dtype=float).reshape(-1)
    scene, walk = example.scene, _MergeWalk(example, loss)
    clusters, _ = _greedy_merge(_affinity_array(scene, w), scene.members, walk)
    end = walk.state
    if end.answer is None:
        y_star = Partition(clusters)
        end.answer = y_star, _frozen_array(joint_feature_map(scene, y_star))
    y_star, psi = end.answer
    hinge = end.current + float(w @ (psi - example.truth_psi))
    if hinge < 0.0:
        return OracleAnswer(example.truth, 0.0, 0.0, example.truth_psi)
    return OracleAnswer(y_star, hinge, end.current, psi)


class _Planes:
    """One block's example with the unscaled planes (Psi(truth) - Psi(y), loss(y))
    of the labellings y its exact oracle returned, in MAX_PLANES rows filled in
    order, then the least recently used overwritten (last_used holds the model
    iteration of each row's latest step, -1 for an empty row); plus the gap of
    its last exact call and the cached steps taken since."""

    def __init__(self, example: TrainingExample):
        self.example = example
        self.labellings: list[Partition] = []
        self.psi_gaps = np.zeros((MAX_PLANES, WEIGHT_DIM))
        self.losses = np.zeros(MAX_PLANES)
        self.last_used = np.full(MAX_PLANES, -1)
        self.exact_gap = np.inf
        self.cached_steps = 0

    def add(self, answer: OracleAnswer) -> int:
        """The row of the answer's plane, stored unless already cached."""
        if answer.partition in self.labellings:
            return self.labellings.index(answer.partition)
        j = int(np.argmin(self.last_used))  # the first empty row, else the least recently used
        self.labellings[j : j + 1] = [answer.partition]  # appends at the first empty row
        self.psi_gaps[j], self.losses[j] = self.example.truth_psi - answer.psi, answer.loss
        return j

    def hinges(self, w: np.ndarray) -> np.ndarray:
        """loss(y) - w.(Psi(truth) - Psi(y)) of each stored labelling y."""
        n = len(self.labellings)
        return self.losses[:n] - self.psi_gaps[:n] @ w


def _add_block(model: Model, blocks: list[_Planes], example: TrainingExample) -> None:
    """Append the example's block: its planes to blocks, a zero row to the
    model's block_w and a zero to its block_l."""
    blocks.append(_Planes(example))
    model.block_w = np.vstack([model.block_w, np.zeros(WEIGHT_DIM)])
    model.block_l = np.append(model.block_l, 0.0)


class _StepInfo(NamedTuple):
    iteration: int
    block: int
    hinge: float
    gamma: float
    gap: float
    exact: bool


def _bcfw_step(model: Model, planes: _Planes, i: int, iteration_hook=None, exact: bool = False) -> _StepInfo:
    """One Frank-Wolfe update of block i, in place on the model's w, block i
    and loss offsets, toward the block's best cached plane or, when that falls
    short (or `exact`), toward the oracle's answer under the model's loss;
    planes are scaled by the model's C/n for its current n blocks. Then
    w_avg <- k/(k+2) w_avg + 2/(k+2) w, k the updates before, if the model
    keeps w_avg, and iteration_hook(model, info) if given. Returns the logged info."""
    scale = model.C / len(model.block_w)
    wi, li = model.block_w[i], float(model.block_l[i])
    cached = not exact and planes.cached_steps < MAX_CACHED_STEPS and bool(planes.labellings)
    if cached:
        hinges = planes.hinges(model.w)
        j = int(np.argmax(hinges))
        gap = float(wi @ model.w) - li + scale * float(hinges[j])
        cached = gap >= CACHE_GAP_RATIO * planes.exact_gap
    if cached:
        planes.cached_steps += 1
    else:
        j = planes.add(loss_augmented_oracle(planes.example, model.w, loss=model.loss))
        hinges = planes.hinges(model.w)
        gap = float(wi @ model.w) - li + scale * float(hinges[j])
        planes.exact_gap, planes.cached_steps = gap, 0
    planes.last_used[j] = model.iterations
    diff = wi - scale * planes.psi_gaps[j]
    denom = float(diff @ diff)
    gamma = 0.0 if denom == 0.0 else min(1.0, max(0.0, gap / denom))
    new_wi = wi - gamma * diff
    new_li = (1.0 - gamma) * li + gamma * scale * float(planes.losses[j])
    model.w = model.w + (new_wi - wi)
    model.l += new_li - li
    model.block_w[i] = new_wi
    model.block_l[i] = new_li
    model.iterations += 1
    info = _StepInfo(model.iterations, i, float(hinges[j]), gamma, gap, not cached)
    if model.w_avg is not None:
        k = model.iterations - 1
        model.w_avg = k / (k + 2) * model.w_avg + 2 / (k + 2) * model.w
    if iteration_hook is not None:
        iteration_hook(model, info)
    return info


def bcfw_train(
    examples: Iterable[TrainingExample],
    config: TrainConfig | None = None,
    *,
    sequential: bool = False,
    iteration_hook=None,
) -> Model:
    """Block-Coordinate Frank-Wolfe over the examples, which arrive all at
    once, or one at a time in their order if `sequential`. After each arrival
    that brings the blocks to k, uniformly random updates over them, drawn
    from a generator seeded with config.seed, spend the budget up to
    config.max_iterations - n (batch) or config.max_iterations * k // n
    (arrival k of n, sequential). Batch training then ends with one exact
    update per block, whose gaps sum to the reported duality gap (that pass
    runs even when the budget is smaller); the oracle is greedy, so that gap
    is an estimate, not a bound: it can be negative. Returns the trained
    model, its w_avg set; iteration_hook(model, info), when given, sees the
    model after every update.
    """
    config = config or TrainConfig()
    examples = list(examples)
    if not examples:
        raise ConfigError("training requires at least one example")
    n, rng = len(examples), np.random.default_rng(config.seed)
    model = Model(w_avg=np.zeros(WEIGHT_DIM), C=config.C, seed=config.seed, loss=config.loss,
                  mode="sequential" if sequential else "batch")
    blocks: list[_Planes] = []
    arrivals = [[example] for example in examples] if sequential else [examples]
    for arrival in arrivals:
        for example in arrival:
            _add_block(model, blocks, example)
        k = len(blocks)
        budget = config.max_iterations * k // n if sequential else config.max_iterations - n
        for i in rng.integers(k, size=max(0, budget - model.iterations)).tolist():
            _bcfw_step(model, blocks[i], i, iteration_hook)
    if not sequential:
        gap = sum(_bcfw_step(model, blocks[i], i, iteration_hook, exact=True).gap for i in range(n))
        logger.info("duality gap %.6g after %d iterations", gap, model.iterations)
    return model


def predict(scene: WindowedScene, model) -> Partition:
    """Greedy correlation clustering under the model's (or raw vector's) weights."""
    w = model.weights if isinstance(model, Model) else model
    part, _ = greedy_cc(affinity(scene, w))
    return part


def online_predict_train(
    scenes: Iterable[WindowedScene], init: Model
) -> Iterator[tuple[Partition, Model]]:
    """Predict each scene, then learn from the prediction as a pseudo-label.

    Each scene appends one zero block to the current model (whose earlier
    blocks stay as they are) and spends ONLINE_STEPS BCFW iterations on that
    block only, with init's C and loss. Past ONLINE_MAX_BLOCKS pseudo-label
    blocks, the oldest leaves the model with its share of w and l. Yields
    (prediction, copy of the updated model) per scene; init is left unchanged.
    Steps and predictions use the iterate w, never init's w_avg.
    """
    model = init.copy()
    model.mode, model.w_avg = "online", None
    pseudo: list[_Planes] = []
    for scene in scenes:
        prediction = predict(scene, model)
        if len(pseudo) == ONLINE_MAX_BLOCKS:
            oldest = len(model.block_w) - len(pseudo)
            pseudo.pop(0)
            model.w = model.w - model.block_w[oldest]
            model.l -= float(model.block_l[oldest])
            model.block_w = np.delete(model.block_w, oldest, axis=0)
            model.block_l = np.delete(model.block_l, oldest)
        _add_block(model, pseudo, TrainingExample(scene, prediction))
        for _ in range(ONLINE_STEPS):
            _bcfw_step(model, pseudo[-1], len(model.block_w) - 1)
        yield prediction, model.copy()
