"""Gradient-based meta-learning over few-shot episodes.

A small encoder plus linear N-way head is meta-trained with first-order
MAML, or episodically with a prototype head as a second supervised method.
Epoch-end snapshots become the evaluation models that the progressive
episode sampler consumes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from . import episodes as episodes_mod
from ._binio import ByteReader, ByteWriter
from .cfe import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    KIND_FEWSHOT_MODEL,
    _read_mlp_descriptor,
    _read_mlp_payload,
    _write_mlp_descriptor,
)
from .cluster import ClusterModel, PseudoLabeledDataset
from .errors import FormatError, NumericError, ParameterError, ShapeError, StateError
from .numcore import (
    MlpParams,
    init_mlp,
    layer_views,
    mlp_backward,
    mlp_forward,
    mlp_forward_cached,
    params_to_vector,
    softmax,
    vector_to_params,
)


@dataclass
class MamlConfig:
    """Meta-training hyperparameters, sized for small dense models on
    synthetic data."""

    inner_lr: float = 0.05
    inner_steps: int = 5
    outer_lr: float = 0.05
    meta_batch_size: int = 4
    epochs: int = 10
    steps_per_epoch: int = 50
    seed: int = 0
    encoder_hidden: tuple[int, ...] = (32,)
    encoder_dim: int = 16
    activation: str = "relu"

    def __post_init__(self):
        # inner_lr 0 is the degenerate identity inner loop, kept legal
        if self.inner_lr < 0 or self.outer_lr <= 0:
            raise ParameterError("maml.inner_lr must be >= 0 and maml.outer_lr > 0")
        if self.inner_steps < 1:
            raise ParameterError("maml.inner_steps must be >= 1")
        if self.meta_batch_size < 1 or self.epochs < 0 or self.steps_per_epoch < 1:
            raise ParameterError("maml batch/epoch sizes must be positive")


class FewShotModel:
    """Encoder plus linear N-way classification head, held in one flat
    float64 vector: the encoder's parameters, then head_w (ways,
    encoder_dim) row-major, then head_b (ways,). encoder, head_w and
    head_b are views into it."""

    def __init__(self, encoder: MlpParams, head_w: np.ndarray, head_b: np.ndarray):
        head_w = np.asarray(head_w, dtype=np.float64)
        head_b = np.asarray(head_b, dtype=np.float64)
        if head_w.ndim != 2 or head_w.shape[1] != encoder.output_dim:
            raise ShapeError("head input dim must equal encoder output dim")
        if head_b.shape != (head_w.shape[0],):
            raise ShapeError("head bias must have one entry per way")
        vector = np.concatenate([params_to_vector(encoder), head_w.ravel(), head_b])
        self._bind(vector, encoder, head_w.shape[0])

    def _bind(self, vector: np.ndarray, encoder: MlpParams, ways: int) -> None:
        n_encoder = encoder.vector.size
        self.vector = vector
        self.encoder = vector_to_params(vector[:n_encoder], encoder)
        ((self.head_w, self.head_b),) = layer_views(
            vector[n_encoder:], [(ways, encoder.output_dim)]
        )

    @property
    def ways(self) -> int:
        return self.head_w.shape[0]

    def clone(self) -> "FewShotModel":
        return model_with_vector(self, self.vector.copy())


def init_fewshot_model(
    input_dim: int, ways: int, config: MamlConfig, rng: np.random.Generator
) -> FewShotModel:
    encoder = init_mlp(
        (input_dim, *config.encoder_hidden, config.encoder_dim), config.activation, rng
    )
    head_w = rng.normal(0.0, np.sqrt(1.0 / config.encoder_dim), size=(ways, config.encoder_dim))
    head_b = np.zeros(ways)
    return FewShotModel(encoder, head_w, head_b)


def model_scores(model: FewShotModel, features: np.ndarray) -> np.ndarray:
    """N-way logits for a batch of raw feature rows."""
    hidden = mlp_forward(model.encoder, features)
    return hidden @ model.head_w.T + model.head_b


def cross_entropy(scores: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. the scores."""
    n = scores.shape[0]
    probs = softmax(scores)
    picked = probs[np.arange(n), labels]
    loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def model_with_vector(model: FewShotModel, vector: np.ndarray) -> FewShotModel:
    """Wrap a vector in FewShotModel's flat layout, without copying, as a
    model shaped like model."""
    wrapped = object.__new__(FewShotModel)
    wrapped._bind(np.asarray(vector, dtype=np.float64), model.encoder, model.ways)
    return wrapped


def model_loss_and_grad(
    model: FewShotModel, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Cross-entropy over (features, labels) and its flat gradient over all
    model parameters."""
    hidden, cache = mlp_forward_cached(model.encoder, features)
    logits = hidden @ model.head_w.T + model.head_b
    loss, d_logits = cross_entropy(logits, labels)
    if not np.isfinite(loss):
        raise NumericError("non-finite cross-entropy loss")
    g_head_w = d_logits.T @ hidden
    g_head_b = d_logits.sum(axis=0)
    d_hidden = d_logits @ model.head_w
    g_encoder = mlp_backward(model.encoder, cache, d_hidden)
    return loss, np.concatenate([g_encoder, g_head_w.ravel(), g_head_b])


def sgd_steps(loss_and_grad, theta: np.ndarray, alpha: float, steps: int) -> np.ndarray:
    """Generic inner-loop engine: `steps` gradient-descent updates of a flat
    parameter vector; loss_and_grad maps a vector to (loss, gradient).
    theta itself is not written."""
    for _ in range(steps):
        loss, grad = loss_and_grad(theta)
        if not np.isfinite(loss):
            raise NumericError("non-finite loss during adaptation")
        theta = theta - alpha * grad
    return theta


def maml_inner_adapt(
    model: FewShotModel,
    support_x: np.ndarray,
    support_y: np.ndarray,
    alpha: float,
    steps: int,
) -> FewShotModel:
    """Adapt the model to a support set with plain gradient descent on
    cross-entropy; returns a new model and leaves the input untouched."""
    if support_x.shape[0] == 0:
        raise ParameterError("support set is empty")

    def fn(vec):
        return model_loss_and_grad(model_with_vector(model, vec), support_x, support_y)

    return model_with_vector(model, sgd_steps(fn, model.vector, alpha, steps))


def maml_meta_gradient(
    model: FewShotModel,
    features: np.ndarray,
    tasks: list[episodes_mod.FewShotTask],
    config: MamlConfig,
) -> tuple[np.ndarray, float]:
    """First-order meta-gradient of the mean post-adaptation query loss over
    a task batch: each task contributes its query gradient at the adapted
    parameters."""
    total = np.zeros_like(model.vector)
    total_loss = 0.0
    for task_id, task in enumerate(tasks):
        s_idx, s_way = task.support_pairs()
        q_idx, q_way = task.query_pairs()
        try:
            adapted = maml_inner_adapt(
                model, features[s_idx], s_way, config.inner_lr, config.inner_steps
            )
            q_loss, q_grad = model_loss_and_grad(adapted, features[q_idx], q_way)
        except NumericError as exc:
            raise NumericError(f"task {task_id}: {exc}") from exc
        total += q_grad
        total_loss += q_loss
    return total / len(tasks), total_loss / len(tasks)


def maml_meta_step(
    model: FewShotModel,
    features: np.ndarray,
    tasks: list[episodes_mod.FewShotTask],
    config: MamlConfig,
) -> tuple[FewShotModel, float]:
    """Apply one outer update; an empty task batch leaves the model as is."""
    if not tasks:
        return model, float("nan")
    meta_grad, mean_loss = maml_meta_gradient(model, features, tasks, config)
    return model_with_vector(model, model.vector - config.outer_lr * meta_grad), mean_loss


def way_prototypes(embeddings: np.ndarray, way_labels: np.ndarray) -> np.ndarray:
    """Per-way mean embedding, one row per way 0..max(way_labels)."""
    way_labels = np.asarray(way_labels)
    ways = int(way_labels.max()) + 1
    prototypes = np.empty((ways, embeddings.shape[1]))
    for c in range(ways):
        rows = embeddings[way_labels == c]
        if rows.shape[0] == 0:
            raise ParameterError(f"way {c} has no support embeddings")
        prototypes[c] = rows.mean(axis=0)
    return prototypes


def prototype_scores(embeddings: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Negative squared distance of each embedding to each prototype."""
    diff = embeddings[:, None, :] - prototypes[None, :, :]
    return -np.sum(diff * diff, axis=2)


def proto_classify(
    support_embeddings: np.ndarray,
    support_labels: np.ndarray,
    query_embeddings: np.ndarray,
) -> np.ndarray:
    """Negative squared distance of each query embedding to each way's
    support prototype (per-way mean)."""
    return prototype_scores(query_embeddings, way_prototypes(support_embeddings, support_labels))


def proto_loss_and_grad(
    model: FewShotModel,
    support_x: np.ndarray,
    support_y: np.ndarray,
    query_x: np.ndarray,
    query_y: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Episodic prototype loss: cross-entropy of queries against softmaxed
    negative distances, with the flat gradient for the encoder only."""
    n_s = support_x.shape[0]
    stacked = np.vstack([support_x, query_x])
    hidden, cache = mlp_forward_cached(model.encoder, stacked)
    e_s, e_q = hidden[:n_s], hidden[n_s:]
    prototypes = way_prototypes(e_s, support_y)
    counts = np.bincount(support_y, minlength=prototypes.shape[0]).astype(np.float64)
    loss, d_scores = cross_entropy(prototype_scores(e_q, prototypes), query_y)
    diff = e_q[:, None, :] - prototypes[None, :, :]  # (nq, ways, d)
    grad_q = -2.0 * np.sum(d_scores[:, :, None] * diff, axis=1)
    grad_proto = 2.0 * np.sum(d_scores[:, :, None] * diff, axis=0)
    grad_s = grad_proto[support_y] / counts[support_y][:, None]
    return loss, mlp_backward(model.encoder, cache, np.vstack([grad_s, grad_q]))


def proto_meta_step(
    model: FewShotModel,
    features: np.ndarray,
    tasks: list[episodes_mod.FewShotTask],
    lr: float,
) -> tuple[FewShotModel, float]:
    """Average the episodic prototype gradients over the batch and take one
    encoder step; the linear head is untouched."""
    if not tasks:
        return model, float("nan")
    total = np.zeros_like(model.vector)
    n_encoder = model.encoder.vector.size
    total_loss = 0.0
    for task in tasks:
        s_idx, s_way = task.support_pairs()
        q_idx, q_way = task.query_pairs()
        loss, grad = proto_loss_and_grad(model, features[s_idx], s_way, features[q_idx], q_way)
        total[:n_encoder] += grad
        total_loss += loss
    return model_with_vector(model, model.vector - (lr / len(tasks)) * total), total_loss / len(tasks)


@dataclass
class EvalResult:
    mean_accuracy: float
    ci95: float
    task_count: int
    per_task: np.ndarray


def evaluate_fewshot(
    model: FewShotModel,
    features: np.ndarray,
    tasks: list[episodes_mod.FewShotTask],
    method: str = "maml",
    adapt: bool = True,
    config: MamlConfig | None = None,
) -> EvalResult:
    """Per-task query accuracy, with a 1.96 * std / sqrt(T) half-width.

    For maml, each task optionally adapts a copy of the model on its
    support set before classifying queries with the head. For proto,
    queries are matched to support prototypes in encoder space.
    """
    if not tasks:
        raise ParameterError("need at least one task")
    accs = np.empty(len(tasks))
    for t, task in enumerate(tasks):
        s_idx, s_way = task.support_pairs()
        q_idx, q_way = task.query_pairs()
        if method == "maml":
            used = model
            if adapt:
                cfg = config if config is not None else MamlConfig()
                used = maml_inner_adapt(
                    model, features[s_idx], s_way, cfg.inner_lr, cfg.inner_steps
                )
            preds = np.argmax(model_scores(used, features[q_idx]), axis=1)
        elif method == "proto":
            e_s = mlp_forward(model.encoder, features[s_idx])
            e_q = mlp_forward(model.encoder, features[q_idx])
            preds = np.argmax(proto_classify(e_s, s_way, e_q), axis=1)
        else:
            raise ParameterError(f"unknown method {method!r}")
        accs[t] = float(np.mean(preds == q_way))
    mean = float(accs.mean())
    ci = float(1.96 * accs.std(ddof=1) / np.sqrt(len(tasks))) if len(tasks) > 1 else 0.0
    return EvalResult(mean_accuracy=mean, ci95=ci, task_count=len(tasks), per_task=accs)


@dataclass
class SnapshotEvaluationModel:
    """Epoch-end copy of the meta-learned model, used to score candidate
    clusters.

    For maml, scores are the head's logits and finetuning runs the same
    inner adaptation the meta-learner uses. For proto, scores are negative
    squared distances to the support prototypes that finetuning computes,
    so scoring before finetuning is a StateError.
    """

    model: FewShotModel
    epoch: int
    method: str = "maml"
    inner_lr: float = 0.05
    finetune_steps: int = 5
    prototypes: np.ndarray | None = None

    def predict_scores(self, features: np.ndarray) -> np.ndarray:
        if self.method == "maml":
            return model_scores(self.model, features)
        if self.prototypes is None:
            raise StateError("prototype evaluation model must be finetuned on a support set first")
        return prototype_scores(mlp_forward(self.model.encoder, features), self.prototypes)

    def finetuned(self, support_x: np.ndarray, support_y: np.ndarray) -> "SnapshotEvaluationModel":
        if self.method == "maml":
            adapted = maml_inner_adapt(
                self.model, support_x, support_y, self.inner_lr, self.finetune_steps
            )
            return replace(self, model=adapted)
        embeddings = mlp_forward(self.model.encoder, support_x)
        return replace(self, prototypes=way_prototypes(embeddings, support_y))


def snapshot_eval_model(
    model: FewShotModel,
    epoch: int,
    method: str = "maml",
    inner_lr: float = 0.05,
    finetune_steps: int = 5,
) -> SnapshotEvaluationModel:
    """Copied epoch-end snapshot registered as the current evaluation
    model; later training never mutates it."""
    if method not in ("maml", "proto"):
        raise ParameterError(f"unknown method {method!r}")
    return SnapshotEvaluationModel(model.clone(), epoch, method, inner_lr, finetune_steps)


def meta_train(
    features: np.ndarray,
    pld: PseudoLabeledDataset,
    cluster_model: ClusterModel,
    episode_config: episodes_mod.EpisodeConfig,
    config: MamlConfig,
    method: str = "maml",
    episode_mode: str = "standard",
    rng: np.random.Generator | None = None,
) -> tuple[FewShotModel, dict]:
    """Meta-train on pseudo-labeled episodes.

    episode_mode "progressive" switches to the gated entropy-guided sampler
    once the first epoch-end snapshot exists; before that, tasks are
    standard. Returns the model and a history dict with, per epoch, the
    mean query loss and the fraction of progressive tasks.
    """
    if method not in ("maml", "proto"):
        raise ParameterError(f"unknown method {method!r}")
    if episode_mode not in ("standard", "progressive"):
        raise ParameterError(f"unknown episode mode {episode_mode!r}")
    if rng is None:
        raise ParameterError("meta_train requires an explicit generator")
    model = init_fewshot_model(features.shape[1], episode_config.ways, config, rng)
    eval_model = None
    epoch_losses: list[float] = []
    epoch_fractions: list[float] = []
    for epoch in range(config.epochs):
        losses = np.empty(config.steps_per_epoch)
        progressive_tasks = 0
        for step in range(config.steps_per_epoch):
            tasks = episodes_mod.sample_task_batch(
                pld,
                cluster_model,
                eval_model if episode_mode == "progressive" else None,
                episode_config,
                rng,
                config.meta_batch_size,
            )
            progressive_tasks += sum(task.progressive for task in tasks)
            if method == "maml":
                model, loss = maml_meta_step(model, features, tasks, config)
            else:
                model, loss = proto_meta_step(model, features, tasks, config.outer_lr)
            losses[step] = loss
        epoch_losses.append(float(losses.mean()))
        epoch_fractions.append(progressive_tasks / (config.steps_per_epoch * config.meta_batch_size))
        eval_model = snapshot_eval_model(
            model, epoch, method=method, inner_lr=config.inner_lr
        )
    history = {"epoch_query_loss": epoch_losses, "epoch_progressive_fraction": epoch_fractions}
    return model, history


def save_model(model: FewShotModel, path) -> None:
    """Few-shot model in the shared versioned checkpoint container."""
    writer = ByteWriter()
    writer.write_bytes(CHECKPOINT_MAGIC)
    writer.write_u16(CHECKPOINT_VERSION)
    writer.write_u16(KIND_FEWSHOT_MODEL)
    _write_mlp_descriptor(writer, model.encoder)
    writer.write_u32(model.head_w.shape[0])
    writer.write_u32(model.head_w.shape[1])
    writer.write_f64_array(model.vector)  # encoder payload, then head_w, then head_b
    with open(path, "wb") as fh:
        fh.write(writer.getvalue())


def load_model(path) -> FewShotModel:
    with open(path, "rb") as fh:
        data = fh.read()
    reader = ByteReader(data)
    reader.expect_magic(CHECKPOINT_MAGIC)
    at = reader.offset
    version = reader.read_u16("version")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=at)
    at = reader.offset
    kind = reader.read_u16("kind")
    if kind != KIND_FEWSHOT_MODEL:
        raise FormatError(f"checkpoint kind {kind} is not a few-shot model", offset=at)
    activation, shapes = _read_mlp_descriptor(reader)
    ways = reader.read_u32("head ways")
    head_in = reader.read_u32("head input dim")
    encoder = _read_mlp_payload(reader, activation, shapes)
    head_w = reader.read_f64_array(ways * head_in, "head weights").reshape(ways, head_in)
    head_b = reader.read_f64_array(ways, "head bias")
    reader.expect_end()
    return FewShotModel(encoder, head_w, head_b)


def write_eval_csv(result: EvalResult, ways: int, shots: int, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task_count", "shots", "ways", "mean_acc", "ci95"])
        writer.writerow(
            [result.task_count, shots, ways, f"{result.mean_accuracy:.6f}", f"{result.ci95:.6f}"]
        )
