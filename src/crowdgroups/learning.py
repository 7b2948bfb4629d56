"""Structured max-margin training of the affinity weights.

The 8-vector w = [alpha; beta] is learned by Block-Coordinate Frank-Wolfe over
one block per training window. The loss-augmented oracle is the greedy merge
engine that predicts, with each candidate merge's gain raised by the change in
loss the merge causes; those losses come from the contingency table against
the truth, by the same closed forms that score predictions.
The Frank-Wolfe state is the Model itself: each block update changes its w,
one row of block_w, one entry of block_l, l and iterations in place, by the
line search of Lacoste-Julien et al. 2013 (arXiv:1207.4747, Alg. 4, with
lambda = 1/C), so the dual l - 0.5 ||w||^2 never decreases.
Each block caches the planes (Psi(truth) - Psi(y), loss(y)) of the labellings
y its exact oracle returned, unscaled so that they stay valid as blocks come
and go, and steps to the best cached plane while that keeps enough of the
gap of the block's last exact call (multi-plane BCFW, Shah et al. 2015,
arXiv:1408.6804); otherwise it asks the oracle. Batch training ends with one
exact step per block, whose gaps sum to the reported duality gap. Batch,
sequential (examples arrive over time, blocks grow with them), and online
(self-supervised from own predictions: each scene appends one block to the
model and trains only that block) modes share that update.
"""

from __future__ import annotations

import csv
import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError
from .features import WindowedScene, _check_numbers
from .losses import MergeLoss, gmitre_loss, mitre_loss, pairwise_loss
from .partitioning import Partition, _affinity_array, _greedy_merge, affinity, greedy_cc

logger = logging.getLogger(__name__)

WEIGHT_DIM = 8
MAX_PLANES = 16  # planes cached per block
CACHE_GAP_RATIO = 0.3  # share of the last exact gap a cached plane must keep
MAX_CACHED_STEPS = 10  # cached steps a block takes between exact oracle calls
ONLINE_MAX_BLOCKS = 16  # pseudo-label blocks online mode keeps
LOSSES: dict[str, Callable[[Partition, Partition], float]] = {
    "gmitre": gmitre_loss,
    "mitre": mitre_loss,
    "pairwise": pairwise_loss,
}


@dataclass(frozen=True, eq=False)
class TrainingExample:
    """One window's features with its ground-truth grouping."""

    scene: WindowedScene
    truth: Partition

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

    C: float = 10.0
    max_iterations: int = 1000
    seed: int = 0
    loss: str = "gmitre"
    early_stop: bool = False
    early_stop_tol: float = 1e-6
    sequential_budget: int = 100
    online_budget: int = 10

    def __post_init__(self):
        _check_numbers(
            self, floats=("C", "early_stop_tol"),
            ints=("max_iterations", "seed", "sequential_budget", "online_budget"),
        )
        if self.C <= 0:
            raise ConfigError(f"C must be positive, got {self.C}")
        if self.max_iterations < 0:
            raise ConfigError("max_iterations must be non-negative")
        if self.loss not in LOSSES:
            raise ConfigError(f"loss must be one of {sorted(LOSSES)}, got {self.loss!r}")
        if self.early_stop_tol <= 0:
            raise ConfigError("early_stop_tol must be positive")
        if self.sequential_budget < 1 or self.online_budget < 1:
            raise ConfigError("iteration budgets must be >= 1")


class Model:
    """Learned weights plus the per-block Frank-Wolfe state and training metadata.

    w decomposes as [alpha; beta]: the affinity of a pair with distances d is
    alpha.(1 - d) - beta.d. The block states allow exact training resumption
    and replay; config_snapshot carries whatever windowing/feature settings
    are needed to reproduce a prediction.
    """

    FORMAT_VERSION = 1

    def __init__(
        self,
        w=None,
        block_w=None,
        block_l=None,
        l: float = 0.0,
        C: float = 10.0,
        seed: int = 0,
        loss: str = "gmitre",
        mode: str = "batch",
        iterations: int = 0,
        config_snapshot: dict | None = None,
    ):
        self.w = np.zeros(WEIGHT_DIM) if w is None else np.array(w, dtype=float).reshape(WEIGHT_DIM)
        self.block_w = (
            np.zeros((0, WEIGHT_DIM))
            if block_w is None
            else np.array(block_w, dtype=float).reshape(-1, WEIGHT_DIM)
        )
        self.block_l = (
            np.zeros(0) if block_l is None else np.array(block_l, dtype=float).reshape(-1)
        )
        if self.block_w.shape[0] != self.block_l.shape[0]:
            raise ValueError("block_w and block_l disagree on the number of blocks")
        self.l = float(l)
        self.C = float(C)
        for name in ("w", "block_w", "block_l", "l", "C"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        self.seed = int(seed)
        self.loss = str(loss)
        self.mode = str(mode)
        self.iterations = int(iterations)
        self.config_snapshot = dict(config_snapshot or {})

    @property
    def alpha(self) -> np.ndarray:
        return self.w[:4]

    @property
    def beta(self) -> np.ndarray:
        return self.w[4:]

    @property
    def nonnegative_weights(self) -> bool:
        """Whether alpha, beta >= 0 (the positivity the scale theorem assumes;
        monitored, never enforced)."""
        return bool(np.all(self.w >= 0.0))

    def copy(self) -> "Model":
        return Model.from_dict(self.to_dict())

    def to_dict(self) -> dict:
        return {
            "format_version": self.FORMAT_VERSION,
            "w": self.w.tolist(),
            "block_w": self.block_w.tolist(),
            "block_l": self.block_l.tolist(),
            "l": self.l,
            "C": self.C,
            "seed": self.seed,
            "loss": self.loss,
            "mode": self.mode,
            "iterations": self.iterations,
            "config": self.config_snapshot,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Model":
        try:
            version = int(obj["format_version"])
            if version > cls.FORMAT_VERSION:
                raise ConfigError(f"model format {version} is newer than supported")
            return cls(
                w=obj["w"],
                block_w=obj.get("block_w") or None,
                block_l=obj.get("block_l") or None,
                l=obj.get("l", 0.0),
                C=obj.get("C", 10.0),
                seed=obj.get("seed", 0),
                loss=obj.get("loss", "gmitre"),
                mode=obj.get("mode", "batch"),
                iterations=obj.get("iterations", 0),
                config_snapshot=obj.get("config", {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"not a valid model file: {exc}") from None

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Model":
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not a valid model file: {exc}") from None
        return cls.from_dict(obj)


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
    raised by the change in loss it causes (all candidates scored at once
    from the contingency table against the truth), from all singletons until
    no merge improves H (ties to the smallest min-id pair). Returns the local
    maximizer with its H value, the structured hinge estimate, its loss and
    its Psi. The truth itself always attains H = 0, so when the greedy end
    point scores below that the truth is returned instead; the hinge is never
    negative.
    """
    if loss not in LOSSES:
        raise ValueError(f"loss must be one of {sorted(LOSSES)}, got {loss!r}")
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.shape != (WEIGHT_DIM,):
        raise ValueError(f"weight vector must have {WEIGHT_DIM} components")
    scene, truth = example.scene, example.truth
    members = scene.members
    if not members:
        return OracleAnswer(truth, 0.0, 0.0, example.truth_psi)
    scorer = MergeLoss(loss, truth, members)
    clusters, _ = _greedy_merge(_affinity_array(scene, w), scorer)
    y_star = Partition([members[k] for k in c] for c in clusters)
    psi = joint_feature_map(scene, y_star)
    hinge = scorer.current + float(w @ (psi - example.truth_psi))
    if hinge < 0.0:
        return OracleAnswer(truth, 0.0, 0.0, example.truth_psi)
    return OracleAnswer(y_star, hinge, scorer.current, psi)


class _Planes:
    """One block's example with the unscaled planes (Psi(truth) - Psi(y), loss(y))
    of the labellings y its exact oracle returned, at most MAX_PLANES, the least
    recently used dropped first; plus the gap of its last exact call and the
    cached steps taken since."""

    def __init__(self, example: TrainingExample):
        self.example = example
        self.labellings: list[Partition] = []
        self.psi_gaps = np.zeros((0, WEIGHT_DIM))
        self.losses = np.zeros(0)
        self.last_used: list[int] = []
        self.uses = 0
        self.exact_gap = np.inf
        self.cached_steps = 0

    def add(self, answer: OracleAnswer) -> int:
        """The row of the answer's plane, stored unless already cached."""
        if answer.partition in self.labellings:
            return self.labellings.index(answer.partition)
        plane = (self.example.truth_psi - answer.psi, answer.loss)
        if len(self.labellings) < MAX_PLANES:
            self.labellings.append(answer.partition)
            self.last_used.append(0)
            self.psi_gaps = np.vstack([self.psi_gaps, plane[0]])
            self.losses = np.append(self.losses, plane[1])
            return len(self.labellings) - 1
        j = int(np.argmin(self.last_used))
        self.labellings[j] = answer.partition
        self.psi_gaps[j], self.losses[j] = plane
        return j


class _StepInfo(NamedTuple):
    iteration: int
    block: int
    hinge: float
    gamma: float
    gap: float
    exact: bool


def _bcfw_step(
    model: Model, planes: _Planes, i: int, config: TrainConfig, exact: bool = False
) -> _StepInfo:
    """One Frank-Wolfe update of block i, in place on the model's w, block i
    and loss offsets, toward the block's best cached plane or, when that falls
    short (or `exact`), toward the oracle's answer; planes are scaled by C/n
    for the model's current n blocks. Returns the logged quantities."""
    scale = config.C / len(model.block_w)
    wi, li = model.block_w[i], float(model.block_l[i])
    cached = not exact and planes.cached_steps < MAX_CACHED_STEPS and bool(planes.labellings)
    if cached:
        hinges = planes.losses - planes.psi_gaps @ model.w
        j = int(np.argmax(hinges))
        gap = float(wi @ model.w) - li + scale * float(hinges[j])
        cached = gap >= CACHE_GAP_RATIO * planes.exact_gap
    if cached:
        planes.cached_steps += 1
    else:
        j = planes.add(loss_augmented_oracle(planes.example, model.w, loss=config.loss))
        hinges = planes.losses - planes.psi_gaps @ model.w
        gap = float(wi @ model.w) - li + scale * float(hinges[j])
        planes.exact_gap, planes.cached_steps = gap, 0
    planes.uses += 1
    planes.last_used[j] = planes.uses
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
    return _StepInfo(model.iterations, i, float(hinges[j]), gamma, gap, not cached)


@contextmanager
def _train_log(path):
    """Yields row(info), which appends one `iter,block,hinge,gamma,gap,exact`
    row to the CSV at path (a no-op when path is None)."""
    if path is None:
        yield lambda info: None
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iter", "block", "hinge", "gamma", "gap", "exact"])
        yield lambda info: writer.writerow([
            info.iteration, info.block, f"{info.hinge:.9g}", f"{info.gamma:.9g}",
            f"{info.gap:.9g}", int(info.exact),
        ])


def bcfw_train(
    examples: Iterable[TrainingExample],
    config: TrainConfig | None = None,
    *,
    log=None,
    iteration_hook=None,
    config_snapshot: dict | None = None,
) -> Model:
    """Batch Block-Coordinate Frank-Wolfe over the given examples.

    Of config.max_iterations updates, all but the last n go to uniformly
    random blocks drawn from a generator seeded with config.seed (with
    early_stop, only until the latest exact gaps of all blocks sum to at most
    early_stop_tol); the last n are one exact update per block, whose gaps
    sum to the reported duality gap (that pass runs even when the budget is
    smaller). Returns the trained model. `log` is a CSV path or None.
    iteration_hook(model, info), when given, sees the model after every update.
    """
    config = config or TrainConfig()
    examples = list(examples)
    if not examples:
        raise ConfigError("training requires at least one example")
    n = len(examples)
    rng = np.random.default_rng(config.seed)
    model = Model(
        block_w=np.zeros((n, WEIGHT_DIM)), block_l=np.zeros(n), C=config.C, seed=config.seed,
        loss=config.loss, mode="batch", config_snapshot=config_snapshot,
    )
    blocks = [_Planes(example) for example in examples]
    with _train_log(log) as log_row:

        def step(i: int, exact: bool = False) -> _StepInfo:
            info = _bcfw_step(model, blocks[i], i, config, exact)
            log_row(info)
            if iteration_hook is not None:
                iteration_hook(model, info)
            return info

        for _ in range(config.max_iterations - n):
            if step(int(rng.integers(n))).exact and config.early_stop:
                if sum(b.exact_gap for b in blocks) <= config.early_stop_tol:
                    logger.info("early stop after %d iterations", model.iterations)
                    break
        gap = sum(step(i, exact=True).gap for i in range(n))
    logger.info("duality gap %.6g after %d iterations", gap, model.iterations)
    return model


def sequential_train(
    stream: Iterable[TrainingExample],
    config: TrainConfig | None = None,
    *,
    log=None,
    config_snapshot: dict | None = None,
) -> Iterator[Model]:
    """Feed examples in arrival order, spending config.sequential_budget BCFW
    iterations over all blocks seen so far per arrival; yields a copy of the
    model after each example."""
    config = config or TrainConfig()
    rng = np.random.default_rng(config.seed)
    model = Model(
        C=config.C, seed=config.seed, loss=config.loss, mode="sequential",
        config_snapshot=config_snapshot,
    )
    blocks: list[_Planes] = []
    with _train_log(log) as log_row:
        for example in stream:
            blocks.append(_Planes(example))
            model.block_w = np.vstack([model.block_w, np.zeros(WEIGHT_DIM)])
            model.block_l = np.append(model.block_l, 0.0)
            for _ in range(config.sequential_budget):
                i = int(rng.integers(len(blocks)))
                log_row(_bcfw_step(model, blocks[i], i, config))
            yield model.copy()


def predict(scene: WindowedScene, model) -> Partition:
    """Greedy correlation clustering under the model's (or raw vector's) weights."""
    w = model.w if isinstance(model, Model) else np.asarray(model, dtype=float)
    part, _ = greedy_cc(affinity(scene, w))
    return part


def online_predict_train(
    scenes: Iterable[WindowedScene],
    init: Model,
    config: TrainConfig | None = None,
) -> Iterator[tuple[Partition, Model]]:
    """Predict each scene, then learn from the prediction as a pseudo-label.

    Each scene appends one zero block to the current model (whose earlier
    blocks stay as they are) and spends config.online_budget BCFW iterations
    on that block only. Past ONLINE_MAX_BLOCKS pseudo-label blocks, the oldest
    leaves the model with its share of w and l. Yields (prediction, copy of
    the updated model) per scene; init is left unchanged.
    """
    if config is None:
        config = TrainConfig(C=init.C, seed=init.seed, loss=init.loss)
    model = init.copy()
    model.C, model.seed, model.loss, model.mode = config.C, config.seed, config.loss, "online"
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
        pseudo.append(_Planes(TrainingExample(scene, prediction)))
        model.block_w = np.vstack([model.block_w, np.zeros(WEIGHT_DIM)])
        model.block_l = np.append(model.block_l, 0.0)
        for _ in range(config.online_budget):
            _bcfw_step(model, pseudo[-1], len(model.block_w) - 1, config)
        yield prediction, model.copy()
