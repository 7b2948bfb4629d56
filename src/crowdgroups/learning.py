"""Structured max-margin training of the affinity weights.

The 8-vector w = [alpha; beta] is learned by Block-Coordinate Frank-Wolfe over
one block per training window. The loss-augmented oracle is the greedy merge
engine that predicts, with each candidate merge's gain raised by the change in
loss the merge causes; those losses come from the contingency table against
the truth, by the same closed forms that score predictions.
The Frank-Wolfe state is the Model itself: each block update changes its w,
one row of block_w, one entry of block_l, l and iterations in place. Batch,
sequential (examples arrive over time, blocks grow with them), and online
(self-supervised from own predictions, one block per scene) modes share
that update. A gamma = 0 step that left the model bitwise unchanged settles
its question (everything the step reads, `_question`): until that changes,
the oracle would answer alike and gamma would again be 0, so the block's next
steps only log the remembered hinge and count the iteration.
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
from .features import WindowedScene
from .losses import MergeLoss, gmitre_loss, mitre_loss, pairwise_loss
from .partitioning import Partition, _affinity_array, _greedy_merge, affinity, greedy_cc

logger = logging.getLogger(__name__)

WEIGHT_DIM = 8
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
    early_stop_patience: int = 50
    early_stop_tol: float = 1e-6
    objective_every: int = 0
    sequential_budget: int = 100
    online_budget: int = 10

    def __post_init__(self):
        if self.C <= 0:
            raise ConfigError(f"C must be positive, got {self.C}")
        if self.max_iterations < 0:
            raise ConfigError("max_iterations must be non-negative")
        if self.loss not in LOSSES:
            raise ConfigError(f"loss must be one of {sorted(LOSSES)}, got {self.loss!r}")
        if self.early_stop_patience < 1 or self.early_stop_tol <= 0:
            raise ConfigError("early-stop parameters out of range")
        if self.objective_every < 0:
            raise ConfigError("objective_every must be non-negative")
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
        self._settled: dict[int, tuple] = {}  # block -> (question, hinge) of its last no-op step

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


def compatibility(scene: WindowedScene, p: Partition, w) -> float:
    """w @ Psi(scene, p): how well the weighted affinities support the partition."""
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.shape != (WEIGHT_DIM,):
        raise ValueError(f"weight vector must have {WEIGHT_DIM} components")
    return float(w @ joint_feature_map(scene, p))


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


def _question(model: Model, examples: list[TrainingExample], i: int, config: TrainConfig):
    """Everything a step of block i reads, floats by their bits."""
    floats = (model.w, model.block_w[i], model.block_l[i], np.float64(model.l))
    return (examples[i], config.loss, config.C, len(examples), *(f.tobytes() for f in floats))


class _StepInfo(NamedTuple):
    iteration: int
    block: int
    hinge: float
    gamma: float


def _bcfw_step(
    model: Model, examples: list[TrainingExample], i: int, config: TrainConfig
) -> _StepInfo:
    """One Frank-Wolfe update of block i, in place on the model's w, block i
    and loss offsets; returns the logged quantities."""
    example = examples[i]
    question = _question(model, examples, i, config)
    if model._settled.get(i, (None,))[0] == question:
        model.iterations += 1
        return _StepInfo(model.iterations, i, model._settled[i][1], 0.0)
    answer = loss_augmented_oracle(example, model.w, loss=config.loss)
    scale = config.C / len(examples)
    ws = scale * (example.truth_psi - answer.psi)
    ls = scale * answer.loss
    wi, li = model.block_w[i], float(model.block_l[i])
    diff = wi - ws
    denom = float(diff @ diff)
    if denom == 0.0:
        gamma = 0.0
    else:
        gamma = (float(diff @ model.w) + scale * (ls - li)) / denom
        gamma = min(1.0, max(0.0, gamma))
    new_wi = (1.0 - gamma) * wi + gamma * ws
    new_li = (1.0 - gamma) * li + gamma * ls
    model.w = model.w + (new_wi - wi)
    model.l += new_li - li
    model.block_w[i] = new_wi
    model.block_l[i] = new_li
    if gamma == 0.0 and _question(model, examples, i, config) == question:
        model._settled[i] = (question, float(answer.hinge))
    model.iterations += 1
    return _StepInfo(model.iterations, i, float(answer.hinge), float(gamma))


@contextmanager
def _train_log(path):
    """Yields row(info, objective=None), which appends one
    `iter,block,hinge,gamma,objective` row to the CSV at path (a no-op when
    path is None)."""
    if path is None:
        yield lambda info, objective=None: None
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iter", "block", "hinge", "gamma", "objective"])
        yield lambda info, objective=None: writer.writerow([
            info.iteration, info.block, f"{info.hinge:.9g}", f"{info.gamma:.9g}",
            "" if objective is None else f"{objective:.9g}",
        ])


def primal_objective(examples: Iterable[TrainingExample], model: Model) -> float:
    """0.5 ||w||^2 + (C/n) sum of oracle hinge values."""
    examples = list(examples)
    if not examples:
        raise ConfigError("primal objective needs at least one example")
    hinge_sum = sum(loss_augmented_oracle(ex, model.w, loss=model.loss).hinge for ex in examples)
    return 0.5 * float(model.w @ model.w) + (model.C / len(examples)) * hinge_sum


def bcfw_train(
    examples: Iterable[TrainingExample],
    config: TrainConfig | None = None,
    *,
    log=None,
    iteration_hook=None,
    config_snapshot: dict | None = None,
) -> Model:
    """Batch Block-Coordinate Frank-Wolfe over the given examples.

    Picks a uniformly random block per iteration from a generator seeded with
    config.seed, runs config.max_iterations updates (optionally stopping early
    when the primal objective stalls), and returns the trained model. `log` is
    a CSV path or None. iteration_hook(model, info), when given, sees the
    model after every update.
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
    best_objective = np.inf
    stall = 0
    with _train_log(log) as log_row:
        for _ in range(config.max_iterations):
            info = _bcfw_step(model, examples, int(rng.integers(n)), config)
            objective = None
            if config.early_stop or (
                config.objective_every and info.iteration % config.objective_every == 0
            ):
                objective = primal_objective(examples, model)
            log_row(info, objective)
            if iteration_hook is not None:
                iteration_hook(model, info)
            if config.early_stop:
                if objective < best_objective - config.early_stop_tol:
                    best_objective = objective
                    stall = 0
                else:
                    stall += 1
                    if stall >= config.early_stop_patience:
                        logger.info(
                            "early stop after %d iterations (objective stalled at %.6g)",
                            info.iteration, objective,
                        )
                        break
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
    examples: list[TrainingExample] = []
    with _train_log(log) as log_row:
        for example in stream:
            examples.append(example)
            model.block_w = np.vstack([model.block_w, np.zeros(WEIGHT_DIM)])
            model.block_l = np.append(model.block_l, 0.0)
            for _ in range(config.sequential_budget):
                log_row(_bcfw_step(model, examples, int(rng.integers(len(examples))), config))
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

    Each scene gets a fresh single-block model whose block starts at the
    current w (with zero loss offset) and config.online_budget BCFW
    iterations; the small budget keeps per-scene drift bounded. Yields
    (prediction, updated model) per scene; init is left unchanged.
    """
    if config is None:
        config = TrainConfig(C=init.C, seed=init.seed, loss=init.loss)
    model = init
    for scene in scenes:
        prediction = predict(scene, model)
        example = TrainingExample(scene, prediction)
        model = Model(
            w=model.w, block_w=[model.w], block_l=[0.0], C=config.C, seed=config.seed,
            loss=config.loss, mode="online", iterations=model.iterations,
            config_snapshot=init.config_snapshot,
        )
        for _ in range(config.online_budget):
            _bcfw_step(model, [example], 0, config)
        yield prediction, model

