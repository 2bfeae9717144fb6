"""Clustering-friendly embedding training.

Simulates a labeled set by augmenting each sampled point several times,
routes one view per point through the live encoder and the rest through a
momentum-averaged history encoder, keeps a FIFO queue of history
embeddings as negatives, and minimizes the log of the inter- to intra-
class similarity ratio, a cross-entropy over center similarities, so that
same-point views contract and everything else repels. A step passes plain
arrays: the sampled views, their embeddings and the live pass's cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._binio import write_csv
from .data import AugmentConfig, augment
from .errors import NumericError, ParameterError, ShapeError, StateError
from .numcore import (
    ACTIVATIONS,
    ForwardCache,
    MlpParams,
    cross_entropy,
    init_mlp,
    l2_normalize,
    l2_normalize_backward,
    mlp_backward,
    mlp_forward,
    mlp_forward_cached,
    vector_to_params,
)


@dataclass
class CfeConfig:
    """Training hyperparameters for the embedding stage.

    batch_positives points are drawn per step, each augmented
    augments_per_point times; queue_capacity history embeddings serve as
    negatives. Desk-scale defaults; temperature and the momentum idea
    follow the usual contrastive setup.
    """

    batch_positives: int = 32
    augments_per_point: int = 2
    queue_capacity: int = 256
    temperature: float = 0.2
    momentum: float = 0.99
    epochs: int = 30
    learning_rate: float = 0.05
    hidden_dims: tuple[int, ...] = (32,)
    embed_dim: int = 16
    activation: str = "relu"

    def __post_init__(self):
        # the queue is empty on the first step, so the batch alone must
        # supply the negatives
        if self.batch_positives < 2:
            raise ParameterError("cfe.batch_positives must be >= 2")
        if self.queue_capacity < 1:
            raise ParameterError("cfe.queue_capacity must be >= 1")
        if any(width < 1 for width in self.hidden_dims):
            raise ParameterError(f"cfe.hidden_dims entries must be >= 1, not {list(self.hidden_dims)}")
        if self.embed_dim < 2:
            raise ParameterError("cfe.embed_dim must be >= 2 for the 2-D projection")
        if self.activation not in ACTIVATIONS:
            raise ParameterError(f"cfe.activation must be one of {ACTIVATIONS}, not {self.activation!r}")
        if self.augments_per_point < 1:
            raise ParameterError("cfe.augments_per_point must be >= 1")
        if not (0 <= self.momentum < 1):
            raise ParameterError("cfe.momentum must be in [0, 1)")
        if self.temperature <= 0:
            raise ParameterError("cfe.temperature must be positive")
        if self.epochs < 0:
            raise ParameterError("cfe.epochs must be >= 0")
        if self.learning_rate <= 0:
            raise ParameterError("cfe.learning_rate must be positive")


@dataclass
class EncoderPair:
    """Live encoder plus its momentum-updated history twin."""

    main: MlpParams
    history: MlpParams

    def __post_init__(self):
        if (self.main.activation, self.main.shapes) != (self.history.activation, self.history.shapes):
            raise StateError("main and history encoders must share an architecture")

    @classmethod
    def initialize(cls, input_dim: int, config: CfeConfig, rng: np.random.Generator) -> "EncoderPair":
        dims = (input_dim, *config.hidden_dims, config.embed_dim)
        main = init_mlp(dims, config.activation, rng)
        return cls(main=main, history=main.clone())


class NegativeQueue:
    """Fixed-capacity FIFO of history embeddings used as negatives, held as
    one (n <= capacity, d) array, oldest row first."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ParameterError("queue capacity must be >= 1")
        self.capacity = capacity
        self._rows = np.zeros((0, 0))

    def __len__(self) -> int:
        return self._rows.shape[0]

    def push(self, embeddings: np.ndarray) -> None:
        """Append rows in order, evicting the oldest entries past capacity."""
        embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        if len(self) and embeddings.shape[1] != self._rows.shape[1]:
            raise ShapeError("queue entries must share one embedding dimension")
        held = self._rows if len(self) else self._rows.reshape(0, embeddings.shape[1])
        self._rows = np.concatenate([held, embeddings])[-self.capacity :]

    def as_matrix(self) -> np.ndarray:
        """The queued rows, oldest first; a push never writes a returned array."""
        return self._rows


def build_positive_batch(
    features: np.ndarray, config: CfeConfig, augmentation: AugmentConfig, rng: np.random.Generator
) -> np.ndarray:
    """Draw batch_positives distinct points uniformly and augment each one
    augments_per_point times, all views in one augment call; returns the
    (batch_positives, augments_per_point, dim) views."""
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if n < config.batch_positives:
        raise ParameterError(
            f"dataset has {n} samples, fewer than batch_positives={config.batch_positives}"
        )
    chosen = rng.choice(n, size=config.batch_positives, replace=False)
    shape = (config.batch_positives, config.augments_per_point, features.shape[1])
    return augment(np.broadcast_to(features[chosen][:, None, :], shape), augmentation, rng)


def asynchronous_embed(pair: EncoderPair, views: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Encode view 0 with the live encoder and the remaining views with the
    history encoder, onto the unit sphere. Returns the (n_points, n_views, d)
    embeddings and the live pass's cache, whose last entry is view 0's raw
    output; view 0 is the only position gradients flow into."""
    n_points, n_views, dim = views.shape
    if dim != pair.main.input_dim:
        raise StateError(
            f"batch dim {dim} does not match encoder input dim {pair.main.input_dim}"
        )
    raw, cache = mlp_forward_cached(pair.main, views[:, 0, :])
    embeddings = np.empty((n_points, n_views, pair.main.output_dim))
    embeddings[:, 0, :] = l2_normalize(raw)
    if n_views > 1:
        rest = views[:, 1:, :].reshape(n_points * (n_views - 1), dim)
        hist = l2_normalize(mlp_forward(pair.history, rest))
        embeddings[:, 1:, :] = hist.reshape(n_points, n_views - 1, pair.main.output_dim)
    return embeddings, cache


def cfe_loss(
    embeddings: np.ndarray, queue: NegativeQueue, config: CfeConfig
) -> tuple[float, np.ndarray]:
    """Log similarity-ratio loss over the (n_points, n_views, d) embeddings,
    as a cross-entropy.

    Each point's views form one simulated class with center mu_i (mean of
    its view embeddings). Its term log((1 + repel_i / compact_i) / n_other)
    sets the compactness exp(mu_i . mu_i / tau) against repel_i, the summed
    exp(mu_i . o / tau) over the other centers and queued negatives o.
    That is -log softmax(mu_i . [mu; queue]^T / tau)[i] - log n_other: a
    cross-entropy whose target is the class's own center. Returns the
    scalar loss and its gradient with respect to the view-0 embeddings
    only; history views and queue entries are constants.
    """
    n_points, n_views, _ = embeddings.shape
    n_other = n_points + len(queue) - 1
    if n_other < 1:
        raise ParameterError("need batch_positives + queue length - 1 >= 1")
    tau = config.temperature

    centers = embeddings.mean(axis=1)  # (n_points, d)
    others = np.concatenate([centers, queue.as_matrix().reshape(-1, centers.shape[1])])
    # an overflow here makes the loss non-finite, which is refused below
    with np.errstate(all="ignore"):
        loss, grad_logits = cross_entropy(centers @ others.T / tau, np.arange(n_points))
        loss -= math.log(n_other)
    if not np.isfinite(loss):
        raise NumericError("non-finite CFE loss")
    # the centers are both the logits' rows and their first n_points
    # columns; each center depends on its view-0 embedding with factor 1/n_views
    grad_centers = grad_logits @ others + grad_logits[:, :n_points].T @ centers
    return float(loss), grad_centers / tau / n_views


def momentum_update(pair: EncoderPair, momentum: float) -> EncoderPair:
    """Blend the history encoder toward the live one:
    history <- momentum * history + (1 - momentum) * main."""
    if not (0 <= momentum < 1):
        raise ParameterError("momentum must be in [0, 1)")
    history = momentum * pair.history.vector + (1.0 - momentum) * pair.main.vector
    return EncoderPair(main=pair.main, history=vector_to_params(history, pair.history))


def history_queue_vectors(pair: EncoderPair, views: np.ndarray, embeddings: np.ndarray) -> np.ndarray:
    """One history embedding per point for the negative queue: view 1 of
    the embeddings (a view, which NegativeQueue.push copies) when several
    views exist, otherwise view 0 re-encoded by the history encoder."""
    if views.shape[1] >= 2:
        return embeddings[:, 1, :]
    return l2_normalize(mlp_forward(pair.history, views[:, 0, :]))


def cosine_lr(base_lr: float, epoch: int, total_epochs: int) -> float:
    """Cosine annealing from base_lr at epoch 0 toward 0."""
    if total_epochs <= 0:
        return base_lr
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * epoch / total_epochs))


def train_cfe(
    features: np.ndarray,
    config: CfeConfig,
    augmentation: AugmentConfig,
    rng: np.random.Generator,
    initial: EncoderPair | None = None,
) -> tuple[EncoderPair, list[float]]:
    """Train the encoder pair by SGD on the similarity-ratio loss.

    Per step: sample and augment a batch, encode asynchronously, take one
    gradient step on the live encoder, momentum-update the history encoder,
    and push one history embedding per point into the negative queue.
    Returns the trained pair and the per-epoch mean loss trace.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] == 0:
        raise ParameterError("dataset is empty")
    pair = initial if initial is not None else EncoderPair.initialize(features.shape[1], config, rng)
    pair = EncoderPair(main=pair.main.clone(), history=pair.history.clone())
    queue = NegativeQueue(config.queue_capacity)
    steps_per_epoch = max(1, features.shape[0] // config.batch_positives)
    trace: list[float] = []
    for epoch in range(config.epochs):
        lr = cosine_lr(config.learning_rate, epoch, config.epochs)
        epoch_losses = np.empty(steps_per_epoch)
        for step in range(steps_per_epoch):
            views = build_positive_batch(features, config, augmentation, rng)
            try:  # an overflow leaves a non-finite norm or loss, refused inside
                with np.errstate(all="ignore"):
                    embeddings, cache = asynchronous_embed(pair, views)
                    loss, grad_embed = cfe_loss(embeddings, queue, config)
                    grad_raw = l2_normalize_backward(cache.post_activations[-1], grad_embed)
                    grad = mlp_backward(pair.main, cache, grad_raw)
                    main = vector_to_params(pair.main.vector - lr * grad, pair.main)
                    pair = momentum_update(EncoderPair(main=main, history=pair.history), config.momentum)
                    queue.push(history_queue_vectors(pair, views, embeddings))
            except NumericError as exc:
                raise NumericError(f"epoch {epoch} step {step}: {exc}") from exc
            epoch_losses[step] = loss
        trace.append(float(epoch_losses.mean()))
    return pair, trace


def encode(encoder: MlpParams, features: np.ndarray) -> np.ndarray:
    """Embed a feature matrix with a (live) encoder onto the unit sphere."""
    with np.errstate(all="ignore"):  # an overflow leaves a non-finite norm, refused by l2_normalize
        return l2_normalize(mlp_forward(encoder, np.asarray(features, dtype=np.float64)))


def write_loss_trace(trace: list[float], path) -> None:
    rows = ([epoch, f"{value:.10g}"] for epoch, value in enumerate(trace))
    write_csv(path, ["epoch", "mean_loss"], rows)
