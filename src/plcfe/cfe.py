"""Clustering-friendly embedding training.

Simulates a labeled set by augmenting each sampled point several times,
routes one view per point through the live encoder and the rest through a
momentum-averaged history encoder, keeps a FIFO queue of history
embeddings as negatives, and minimizes the log of the inter- to intra-
class similarity ratio, a cross-entropy over center similarities, so that
same-point views contract and everything else repels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._binio import ByteReader, ByteWriter, read_container, write_csv
from .data import AugmentConfig, augment
from .errors import FormatError, NumericError, ParameterError, ShapeError, StateError
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

CHECKPOINT_MAGIC = b"PLCF"
CHECKPOINT_VERSION = 2
KIND_ENCODER_PAIR = 0
KIND_FEWSHOT_MODEL = 1
_ACTIVATION_CODES = {"relu": 0, "tanh": 1}
_ACTIVATION_NAMES = {v: k for k, v in _ACTIVATION_CODES.items()}


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


@dataclass
class PositiveBatch:
    """A sampled mini-batch: original point indices, their augmented views,
    and (after encoding) one embedding per view.

    View 0 of every point went through the live encoder and is the only
    position gradients flow into; the cached forward pass for those rows is
    kept for backprop.
    """

    original_indices: np.ndarray
    augmented: np.ndarray  # (n_points, n_views, dim)
    embeddings: np.ndarray | None = None
    main_raw: np.ndarray | None = None
    main_cache: ForwardCache | None = None


def build_positive_batch(
    features: np.ndarray, config: CfeConfig, augmentation: AugmentConfig, rng: np.random.Generator
) -> PositiveBatch:
    """Draw batch_positives distinct points uniformly and augment each one
    augments_per_point times, all views in one augment call."""
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if n < config.batch_positives:
        raise ParameterError(
            f"dataset has {n} samples, fewer than batch_positives={config.batch_positives}"
        )
    chosen = rng.choice(n, size=config.batch_positives, replace=False)
    shape = (config.batch_positives, config.augments_per_point, features.shape[1])
    views = augment(np.broadcast_to(features[chosen][:, None, :], shape), augmentation, rng)
    return PositiveBatch(original_indices=chosen, augmented=views)


def asynchronous_embed(pair: EncoderPair, batch: PositiveBatch) -> PositiveBatch:
    """Encode view 0 with the live encoder and the remaining views with the
    history encoder, onto the unit sphere, filling batch.embeddings in place."""
    n_points, n_views, dim = batch.augmented.shape
    if dim != pair.main.input_dim:
        raise StateError(
            f"batch dim {dim} does not match encoder input dim {pair.main.input_dim}"
        )
    main_raw, cache = mlp_forward_cached(pair.main, batch.augmented[:, 0, :])
    embeddings = np.empty((n_points, n_views, pair.main.output_dim))
    embeddings[:, 0, :] = l2_normalize(main_raw)
    if n_views > 1:
        rest = batch.augmented[:, 1:, :].reshape(n_points * (n_views - 1), dim)
        hist = l2_normalize(mlp_forward(pair.history, rest))
        embeddings[:, 1:, :] = hist.reshape(n_points, n_views - 1, pair.main.output_dim)
    batch.embeddings = embeddings
    batch.main_raw = main_raw
    batch.main_cache = cache
    return batch


def cfe_loss(
    batch: PositiveBatch, queue: NegativeQueue, config: CfeConfig
) -> tuple[float, np.ndarray]:
    """Log similarity-ratio loss over the batch, as a cross-entropy.

    Each point's views form one simulated class with center mu_i (mean of
    its view embeddings). Its term log((1 + repel_i / compact_i) / n_other)
    sets the compactness exp(mu_i . mu_i / tau) against repel_i, the summed
    exp(mu_i . o / tau) over the other centers and queued negatives o.
    That is -log softmax(mu_i . [mu; queue]^T / tau)[i] - log n_other: a
    cross-entropy whose target is the class's own center. Returns the
    scalar loss and its gradient with respect to the view-0 embeddings
    only; history views and queue entries are constants.
    """
    if batch.embeddings is None:
        raise StateError("batch must be encoded before cfe_loss")
    z = batch.embeddings
    n_points, n_views, _ = z.shape
    n_other = n_points + len(queue) - 1
    if n_other < 1:
        raise ParameterError("need batch_positives + queue length - 1 >= 1")
    tau = config.temperature

    centers = z.mean(axis=1)  # (n_points, d)
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


def history_queue_vectors(pair: EncoderPair, batch: PositiveBatch) -> np.ndarray:
    """One history embedding per point for the negative queue: view 1 when
    several views exist, otherwise view 0 re-encoded by the history
    encoder."""
    if batch.embeddings is None:
        raise StateError("batch must be encoded first")
    if batch.augmented.shape[1] >= 2:
        return batch.embeddings[:, 1, :].copy()
    return l2_normalize(mlp_forward(pair.history, batch.augmented[:, 0, :]))


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
            batch = build_positive_batch(features, config, augmentation, rng)
            try:  # an overflow leaves a non-finite norm or loss, refused inside
                with np.errstate(all="ignore"):
                    asynchronous_embed(pair, batch)
                    loss, grad_embed = cfe_loss(batch, queue, config)
                    grad_raw = l2_normalize_backward(batch.main_raw, grad_embed)
                    grad = mlp_backward(pair.main, batch.main_cache, grad_raw)
                    main = vector_to_params(pair.main.vector - lr * grad, pair.main)
                    pair = momentum_update(EncoderPair(main=main, history=pair.history), config.momentum)
                    queue.push(history_queue_vectors(pair, batch))
            except NumericError as exc:
                raise NumericError(f"epoch {epoch} step {step}: {exc}") from exc
            epoch_losses[step] = loss
        trace.append(float(epoch_losses.mean()))
    return pair, trace


def encode(params: MlpParams | EncoderPair, features: np.ndarray) -> np.ndarray:
    """Embed a feature matrix with the (live) encoder onto the unit sphere."""
    mlp = params.main if isinstance(params, EncoderPair) else params
    with np.errstate(all="ignore"):  # an overflow leaves a non-finite norm, refused by l2_normalize
        return l2_normalize(mlp_forward(mlp, np.asarray(features, dtype=np.float64)))


def checkpoint_writer(kind: int, network: MlpParams) -> ByteWriter:
    """A checkpoint container of this kind, opened with the network's
    activation and layer shapes, a maml model's head last."""
    writer = ByteWriter(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, kind)
    writer.write_u16(_ACTIVATION_CODES[network.activation])
    writer.write_u16(len(network.shapes))
    for rows, cols in network.shapes:
        writer.write_u32(rows)
        writer.write_u32(cols)
    return writer


def read_checkpoint(path, kind: int, what: str) -> tuple[ByteReader, str, list[tuple[int, int, int]]]:
    """Inverse of checkpoint_writer: the reader past the header, the
    activation, and each layer's (rows, cols, offset of the pair). Another
    kind is a FormatError saying it is not `what`; so is another version,
    such as version 1, whose networks activated their last layer."""
    reader, found = read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    if found != kind:
        raise FormatError(f"checkpoint kind {found} is not {what}", offset=reader.offset - 2)
    at = reader.offset
    code = reader.read_u16("activation code")
    if code not in _ACTIVATION_NAMES:
        raise FormatError(f"unknown activation code {code}", offset=at)
    at = reader.offset
    n_layers = reader.read_u16("layer count")
    if n_layers < 1:
        raise FormatError("checkpoint encoder has no layers", offset=at)
    shapes = []
    for i in range(n_layers):
        at = reader.offset
        shapes.append((reader.read_u32(f"layer {i} rows"), reader.read_u32(f"layer {i} cols"), at))
    return reader, _ACTIVATION_NAMES[code], shapes


def read_mlp(reader: ByteReader, activation: str, shapes: list[tuple[int, int, int]]) -> MlpParams:
    """One network's vector, as written after checkpoint_writer's header,
    for layer shapes from read_checkpoint. A layer whose inputs are not its
    predecessor's outputs is a FormatError at the offset of its shape."""
    for i in range(1, len(shapes)):
        (outputs, _, _), (_, cols, at) = shapes[i - 1], shapes[i]
        if cols != outputs:
            raise FormatError(f"layer {i} expects {cols} inputs but layer {i - 1} outputs {outputs}", offset=at)
    layers = []
    for i, (rows, cols, _) in enumerate(shapes):
        w = reader.read_f64_array(rows * cols, f"layer {i} weights").reshape(rows, cols)
        b = reader.read_f64_array(rows, f"layer {i} bias")
        layers.append((w, b))
    return MlpParams(layers, activation)


def save_checkpoint(pair: EncoderPair, path) -> None:
    """Versioned binary checkpoint of both encoders."""
    writer = checkpoint_writer(KIND_ENCODER_PAIR, pair.main)
    writer.write_f64_array(pair.main.vector)
    writer.write_f64_array(pair.history.vector)
    writer.save(path)


def load_checkpoint(path) -> EncoderPair:
    reader, activation, shapes = read_checkpoint(path, KIND_ENCODER_PAIR, "an encoder pair")
    main = read_mlp(reader, activation, shapes)
    history = read_mlp(reader, activation, shapes)
    reader.expect_end()
    return EncoderPair(main=main, history=history)


def write_loss_trace(trace: list[float], path) -> None:
    rows = ([epoch, f"{value:.10g}"] for epoch, value in enumerate(trace))
    write_csv(path, ["epoch", "mean_loss"], rows)
