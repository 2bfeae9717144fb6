"""Gradient-based meta-learning over few-shot episodes.

A small encoder is meta-trained with first-order MAML, followed by a
linear N-way head, or episodically as a prototype classifier, the second
supervised method, whose model is the encoder alone: it scores by
distance to the support's way means and has no output layer. Either
model is one MlpParams network ending in a linear layer, so a MAML step
is the network's own forward and backward pass, and so is a prototype
step. Both run a task batch at once: the model is broadcast to a (T, P)
stack of parameter vectors (_stacked), and each MAML inner step,
prototype loss or evaluation block is one batched pass over the T tasks.
One evaluation-model type, SnapshotEvaluationModel, finetunes a model on
a stack of support sets and scores samples with it, for held-out
evaluation and for the progressive episode sampler alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import episodes as episodes_mod
from ._binio import write_csv
from .cfe import KIND_FEWSHOT_MODEL, checkpoint_writer, read_checkpoint, read_mlp
from .cluster import ClusterModel, PseudoLabeledDataset
from .errors import NumericError, ParameterError, StateError
from .numcore import (
    ACTIVATIONS,
    MlpParams,
    cross_entropy,
    group_sums,
    init_mlp,
    mlp_backward,
    mlp_forward,
    mlp_forward_cached,
    params_to_vector,
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
        if any(width < 1 for width in self.encoder_hidden):
            raise ParameterError(f"maml.encoder_hidden entries must be >= 1, not {list(self.encoder_hidden)}")
        if self.encoder_dim < 1:
            raise ParameterError(f"maml.encoder_dim must be >= 1, not {self.encoder_dim}")
        if self.activation not in ACTIVATIONS:
            raise ParameterError(f"maml.activation must be one of {ACTIVATIONS}, not {self.activation!r}")


def init_fewshot_model(
    input_dim: int, ways: int | None, config: MamlConfig, rng: np.random.Generator
) -> MlpParams:
    """A random encoder followed by a linear head with one output per way,
    a maml model; with ways None, the encoder alone, a proto model."""
    encoder = init_mlp(
        (input_dim, *config.encoder_hidden, config.encoder_dim), config.activation, rng
    )
    if ways is None:
        return encoder
    head_w = rng.normal(0.0, np.sqrt(1.0 / config.encoder_dim), size=(ways, config.encoder_dim))
    head_b = np.zeros(ways)
    return MlpParams([*encoder.layers, (head_w, head_b)], config.activation)


def _require_finite(loss, what: str) -> None:
    """NumericError for a non-finite loss; a (T,) loss names its first
    non-finite task."""
    finite = np.isfinite(loss)
    if not finite.all():
        raise NumericError(f"non-finite {what}", task=int(np.argmin(finite)) if finite.ndim else None)


def model_loss_and_grad(
    model: MlpParams, features: np.ndarray, labels: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """Cross-entropy over (features, labels) and its flat gradient over all
    model parameters. A model stack with (T, n, d) features and (T, n)
    labels gives (T,) losses and (T, P) gradients."""
    # an overflow here leaves a non-finite loss, refused below, or a
    # non-finite gradient, whose step makes the next loss non-finite
    with np.errstate(all="ignore"):
        logits, cache = mlp_forward_cached(model, features)
        loss, d_logits = cross_entropy(logits, labels)
        _require_finite(loss, "cross-entropy loss")
        return loss, mlp_backward(model, cache, d_logits)


def maml_inner_adapt(
    model: MlpParams,
    support_x: np.ndarray,
    support_y: np.ndarray,
    alpha: float,
    steps: int,
) -> MlpParams:
    """Adapt the model to a support set with `steps` plain gradient-descent
    steps on cross-entropy; returns a new model and leaves the input
    untouched. A model stack adapts task t to support_x[t] (T, n, d) and
    support_y[t] (T, n), all tasks in the same steps."""
    if support_x.shape[-2] == 0:
        raise ParameterError("support set is empty")
    for _ in range(steps):
        _, grad = model_loss_and_grad(model, support_x, support_y)  # refuses a non-finite loss
        model = vector_to_params(model.vector - alpha * grad, model)
    return model


def _stacked(model: MlpParams, lead: tuple[int, ...]) -> MlpParams:
    """The model broadcast to a read-only stack of one copy per task, of
    leading shape lead (() leaves it unstacked); no copy is ever written."""
    return vector_to_params(np.broadcast_to(model.vector, lead + model.vector.shape[-1:]), model)


def _task_mean(losses: np.ndarray, grads: np.ndarray) -> tuple[np.ndarray, float]:
    """Mean (T, P) gradient and mean (T,) loss of a task batch. Both totals
    add the tasks in order from zero, as one-by-one accumulation does;
    numpy's pairwise 1-D sum could round differently."""
    total = grads.sum(axis=0, initial=0.0)
    total_loss = float(np.cumsum(losses)[-1])
    return total / len(losses), total_loss / len(losses)


def maml_meta_gradient(
    model: MlpParams,
    features: np.ndarray,
    tasks: list[episodes_mod.FewShotTask],
    config: MamlConfig,
) -> tuple[np.ndarray, float]:
    """First-order meta-gradient of the mean post-adaptation query loss over
    a task batch of equally shaped tasks: each task contributes its query
    gradient at its adapted parameters. The whole batch adapts as one
    model stack."""
    support, query = np.stack([t.support for t in tasks]), np.stack([t.query for t in tasks])
    (s_idx, s_way), (q_idx, q_way) = episodes_mod.way_pairs(support), episodes_mod.way_pairs(query)
    stack = _stacked(model, (len(tasks),))
    adapted = maml_inner_adapt(stack, features[s_idx], s_way, config.inner_lr, config.inner_steps)
    q_loss, q_grad = model_loss_and_grad(adapted, features[q_idx], q_way)
    return _task_mean(q_loss, q_grad)


def maml_meta_step(
    model: MlpParams,
    features: np.ndarray,
    tasks: list[episodes_mod.FewShotTask],
    config: MamlConfig,
) -> tuple[MlpParams, float]:
    """Apply one outer update; an empty task batch leaves the model as is."""
    if not tasks:
        return model, float("nan")
    meta_grad, mean_loss = maml_meta_gradient(model, features, tasks, config)
    return vector_to_params(model.vector - config.outer_lr * meta_grad, model), mean_loss


def way_prototypes(embeddings: np.ndarray, way_labels: np.ndarray) -> np.ndarray:
    """Per-way mean embedding, one row per way 0..max(way_labels); (T, n, d)
    embeddings with (T, n) labels give each task's own, (T, ways, d)."""
    way_labels = np.asarray(way_labels)
    ways = int(way_labels.max()) + 1
    rows = way_labels.reshape(-1, way_labels.shape[-1])
    # one group per (task, way)
    ids = np.arange(rows.shape[0])[:, None] * ways + rows
    counts, sums = group_sums(embeddings, ids, ids.shape[0] * ways)
    if not counts.all():
        task, way = divmod(int(np.argmin(counts)), ways)
        where = f"task {task}: " if way_labels.ndim > 1 else ""
        raise ParameterError(f"{where}way {way} has no support embeddings")
    return (sums / counts[:, None]).reshape(way_labels.shape[:-1] + (ways, embeddings.shape[-1]))


def prototype_scores(embeddings: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Negative squared distance of each embedding to each prototype;
    (T, n, d) embeddings with (T, ways, d) prototypes give (T, n, ways)."""
    diff = embeddings[..., :, None, :] - prototypes[..., None, :, :]
    diff *= diff
    return -np.sum(diff, axis=-1)


@np.errstate(all="ignore")  # as in model_loss_and_grad: an overflow leaves a non-finite loss, refused below
def proto_loss_and_grad(
    model: MlpParams,
    support_x: np.ndarray,
    support_y: np.ndarray,
    query_x: np.ndarray,
    query_y: np.ndarray,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Episodic prototype loss: cross-entropy of queries against softmaxed
    negative distances, with its flat gradient over all model parameters.
    A model stack with (T, n, d) inputs and (T, n) labels gives (T,)
    losses and (T, P) gradients."""
    n_s = support_x.shape[-2]
    hidden, cache = mlp_forward_cached(model, np.concatenate([support_x, query_x], axis=-2))
    e_s, e_q = hidden[..., :n_s, :], hidden[..., n_s:, :]
    prototypes = way_prototypes(e_s, support_y)
    loss, d_scores = cross_entropy(prototype_scores(e_q, prototypes), query_y)
    _require_finite(loss, "cross-entropy loss")
    diff = e_q[..., :, None, :] - prototypes[..., None, :, :]  # (..., nq, ways, d)
    weighted = d_scores[..., None] * diff
    grad_q = -2.0 * np.sum(weighted, axis=-2)
    grad_proto = 2.0 * np.sum(weighted, axis=-3)
    # each support row shares its prototype's gradient with its way's shots
    shots = np.sum(support_y[..., :, None] == support_y[..., None, :], axis=-1)
    grad_s = np.take_along_axis(grad_proto, support_y[..., None], axis=-2) / shots[..., None]
    return loss, mlp_backward(model, cache, np.concatenate([grad_s, grad_q], axis=-2))


def proto_meta_step(
    model: MlpParams,
    features: np.ndarray,
    tasks: list[episodes_mod.FewShotTask],
    lr: float,
) -> tuple[MlpParams, float]:
    """Average the episodic prototype gradients over the batch, stacked as
    for maml, and take one step; an empty task batch leaves the model as
    is."""
    if not tasks:
        return model, float("nan")
    support, query = np.stack([t.support for t in tasks]), np.stack([t.query for t in tasks])
    (s_idx, s_way), (q_idx, q_way) = episodes_mod.way_pairs(support), episodes_mod.way_pairs(query)
    stack = _stacked(model, (len(tasks),))
    losses, grads = proto_loss_and_grad(stack, features[s_idx], s_way, features[q_idx], q_way)
    mean_grad, mean_loss = _task_mean(losses, grads)
    return vector_to_params(model.vector - lr * mean_grad, model), mean_loss


# evaluate_fewshot runs its tasks in stacks of this many. A stack
# amortizes the Python overhead of the small matmuls over its tasks, but
# all their activations and gradients are alive at once. The benchmark's
# maml-eval pipeline peaks near 43 MiB of RSS with stacks of 32; stacks of
# 64 to 256 were no faster. Its speed also rests on glibc's allocator:
# freeing draw_episodes' 2.16 MB key array lifts glibc's mmap and trim
# thresholds, so each stack's ~296 KB arrays come from the heap. Drawing
# the keys block by block kept the thresholds low, and the stage then took
# 38k-90k minor page faults in place of 0.2k-1.9k and ran 50% slower.
EVAL_BLOCK_TASKS = 32


@dataclass
class EvalResult:
    mean_accuracy: float
    ci95: float
    task_count: int
    per_task: np.ndarray


def evaluate_fewshot(
    scorer: "SnapshotEvaluationModel",
    features: np.ndarray,
    support: np.ndarray,
    query: np.ndarray,
) -> EvalResult:
    """Per-task query accuracy of (T, ways, shots) support and (T, ways,
    queries) query index arrays, with a 1.96 * std / sqrt(T) half-width.

    The tasks run in blocks of EVAL_BLOCK_TASKS: the scorer is finetuned on
    each task's support set, as one model stack per block, and scores the
    task's queries. A maml head needs one output per way.
    """
    tasks, ways = support.shape[:2]
    if tasks == 0:
        raise ParameterError("need at least one task")
    if scorer.method == "maml" and scorer.model.output_dim != ways:
        raise ParameterError(f"the maml head has {scorer.model.output_dim} ways, the episodes {ways}")
    accs = np.empty(tasks)
    for start in range(0, tasks, EVAL_BLOCK_TASKS):
        block = slice(start, start + EVAL_BLOCK_TASKS)
        s_idx, s_way = episodes_mod.way_pairs(support[block])
        q_idx, q_way = episodes_mod.way_pairs(query[block])
        # one expression: the block's adapted model dies with it, so it is
        # freed before the next block adapts instead of adding to peak
        # memory; an overflow leaves non-finite scores, refused below
        try:
            with np.errstate(all="ignore"):
                scores = scorer.finetuned(features[s_idx], s_way).predict_scores(features[q_idx])
                _require_finite(scores.sum(axis=(-2, -1)), "query scores")
        except NumericError as exc:
            raise NumericError(exc.reason, task=start + exc.task) from exc
        accs[block] = np.mean(np.argmax(scores, axis=-1) == q_way, axis=-1)
    mean = float(accs.mean())
    ci = float(1.96 * accs.std(ddof=1) / np.sqrt(tasks)) if tasks > 1 else 0.0
    return EvalResult(mean_accuracy=mean, ci95=ci, task_count=tasks, per_task=accs)


@dataclass
class SnapshotEvaluationModel:
    """A meta-learned model as a few-shot scorer: finetune it on a support
    set, then score samples. Meta-eval and the progressive sampler both
    use it.

    For maml, finetuning runs the meta-learner's inner adaptation with
    config.inner_lr and config.inner_steps, and scores are the head's
    logits. For proto, the model is the encoder, and scores are negative
    squared distances of its embeddings to the support prototypes that
    finetuning computes, so scoring before finetuning is a StateError.
    Finetuning on a (T, n, d) stack of support sets broadcasts the model
    to T copies first (_stacked), so each task is finetuned on its own,
    and the result scores (T, n, d) rows as (T, n, ways).
    """

    model: MlpParams
    method: str
    config: MamlConfig
    prototypes: np.ndarray | None = None

    def __post_init__(self):
        if self.method not in ("maml", "proto"):
            raise ParameterError(f"unknown method {self.method!r}")

    def predict_scores(self, features: np.ndarray) -> np.ndarray:
        if self.method == "maml":
            return mlp_forward(self.model, features)
        if self.prototypes is None:
            raise StateError("prototype evaluation model must be finetuned on a support set first")
        return prototype_scores(mlp_forward(self.model, features), self.prototypes)

    def finetuned(self, support_x: np.ndarray, support_y: np.ndarray) -> "SnapshotEvaluationModel":
        model = _stacked(self.model, support_x.shape[:-2])
        if self.method == "maml":
            adapted = maml_inner_adapt(
                model, support_x, support_y, self.config.inner_lr, self.config.inner_steps
            )
            return replace(self, model=adapted)
        embeddings = mlp_forward(model, support_x)
        return replace(self, model=model, prototypes=way_prototypes(embeddings, support_y))


def snapshot_eval_model(
    model: MlpParams, method: str, config: MamlConfig
) -> SnapshotEvaluationModel:
    """Scorer around a copy of the model; later training never mutates it."""
    return SnapshotEvaluationModel(model.clone(), method, config)


def meta_train(
    pld: PseudoLabeledDataset,
    cluster_model: ClusterModel,
    episode_config: episodes_mod.EpisodeConfig,
    config: MamlConfig,
    method: str = "maml",
    episode_mode: str = "standard",
    rng: np.random.Generator | None = None,
) -> tuple[MlpParams, dict]:
    """Meta-train on pseudo-labeled episodes.

    episode_mode "progressive" switches to the gated entropy-guided sampler
    once the first epoch-end snapshot exists; before that, tasks are
    standard. Returns the model and a history dict with, per epoch, the
    mean query loss and the fraction of progressive tasks. A maml model
    ends in an episode_config.ways-way head; a proto model is the encoder.
    """
    if method not in ("maml", "proto"):
        raise ParameterError(f"unknown method {method!r}")
    if episode_mode not in ("standard", "progressive"):
        raise ParameterError(f"unknown episode mode {episode_mode!r}")
    if rng is None:
        raise ParameterError("meta_train requires an explicit generator")
    ways = episode_config.ways if method == "maml" else None
    model = init_fewshot_model(pld.features.shape[1], ways, config, rng)
    eval_model = None
    epoch_losses: list[float] = []
    epoch_fractions: list[float] = []
    for epoch in range(config.epochs):
        losses = np.empty(config.steps_per_epoch)
        progressive_tasks = 0
        for step in range(config.steps_per_epoch):
            tasks = episodes_mod.sample_task_batch(
                pld, cluster_model, eval_model, episode_config, rng, config.meta_batch_size
            )
            progressive_tasks += sum(task.progressive for task in tasks)
            if method == "maml":
                model, loss = maml_meta_step(model, pld.features, tasks, config)
            else:
                model, loss = proto_meta_step(model, pld.features, tasks, config.outer_lr)
            losses[step] = loss
        epoch_losses.append(float(losses.mean()))
        epoch_fractions.append(progressive_tasks / (config.steps_per_epoch * config.meta_batch_size))
        if episode_mode == "progressive" and epoch + 1 < config.epochs:
            eval_model = snapshot_eval_model(model, method, config)
    history = {"epoch_query_loss": epoch_losses, "epoch_progressive_fraction": epoch_fractions}
    return model, history


def save_model(model: MlpParams, path) -> None:
    """Few-shot model in the shared versioned checkpoint container: its
    architecture, every layer, a maml model's head last, then its vector."""
    writer = checkpoint_writer(KIND_FEWSHOT_MODEL, model)
    writer.write_f64_array(params_to_vector(model))
    writer.save(path)


def load_model(path) -> MlpParams:
    reader, activation, shapes = read_checkpoint(path, KIND_FEWSHOT_MODEL, "a few-shot model")
    model = read_mlp(reader, activation, shapes)
    reader.expect_end()
    return model


def write_eval_csv(result: EvalResult, ways: int, shots: int, path) -> None:
    write_csv(
        path,
        ["task_count", "shots", "ways", "mean_acc", "ci95"],
        [[result.task_count, shots, ways, f"{result.mean_accuracy:.6f}", f"{result.ci95:.6f}"]],
    )
