"""Clustering-friendly embedding training.

Simulates a labeled set by augmenting each sampled point several times,
routes one view per point through the live encoder and the rest through a
momentum-averaged history encoder, keeps a FIFO queue of history
embeddings as negatives, and minimizes the log of the inter- to intra-
class similarity ratio so that same-point views contract and everything
else repels.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ._binio import ByteReader, ByteWriter
from .data import AugmentConfig, augment
from .errors import FormatError, NumericError, ParameterError, ShapeError, StateError
from .numcore import (
    ForwardCache,
    MlpParams,
    init_mlp,
    l2_normalize,
    l2_normalize_backward,
    mlp_backward,
    mlp_forward,
    mlp_forward_cached,
    vector_to_params,
)

CHECKPOINT_MAGIC = b"PLCF"
CHECKPOINT_VERSION = 1
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
    normalize: bool = True
    hidden_dims: tuple[int, ...] = (32,)
    embed_dim: int = 16
    activation: str = "relu"
    augment: AugmentConfig = field(default_factory=lambda: AugmentConfig(noise_std=1.25, scale_range=(0.9, 1.1)))

    def __post_init__(self):
        if self.batch_positives < 2 and self.queue_capacity < 1:
            raise ParameterError("cfe needs batch_positives >= 2 or queue_capacity >= 1")
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
    """Fixed-capacity FIFO of history embeddings used as negatives."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ParameterError("queue capacity must be >= 1")
        self.capacity = capacity
        self._entries: deque[np.ndarray] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, embeddings: np.ndarray) -> None:
        """Append rows in order, evicting the oldest entries past capacity."""
        embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        if self._entries and embeddings.shape[1] != self._entries[0].shape[0]:
            raise ShapeError("queue entries must share one embedding dimension")
        for row in embeddings:
            self._entries.append(row.copy())

    def as_matrix(self) -> np.ndarray:
        if not self._entries:
            return np.zeros((0, 0))
        return np.stack(list(self._entries))


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
    features: np.ndarray, config: CfeConfig, rng: np.random.Generator
) -> PositiveBatch:
    """Draw batch_positives distinct points uniformly and augment each one
    augments_per_point times."""
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if n < config.batch_positives:
        raise ParameterError(
            f"dataset has {n} samples, fewer than batch_positives={config.batch_positives}"
        )
    chosen = rng.choice(n, size=config.batch_positives, replace=False)
    views = np.empty((config.batch_positives, config.augments_per_point, features.shape[1]))
    for i, idx in enumerate(chosen):
        for j in range(config.augments_per_point):
            views[i, j] = augment(features[idx], config.augment, rng)
    return PositiveBatch(original_indices=chosen, augmented=views)


def asynchronous_embed(pair: EncoderPair, batch: PositiveBatch, normalize: bool = True) -> PositiveBatch:
    """Encode view 0 with the live encoder and the remaining views with the
    history encoder, filling batch.embeddings in place."""
    n_points, n_views, dim = batch.augmented.shape
    if dim != pair.main.input_dim:
        raise StateError(
            f"batch dim {dim} does not match encoder input dim {pair.main.input_dim}"
        )
    main_raw, cache = mlp_forward_cached(pair.main, batch.augmented[:, 0, :])
    embeddings = np.empty((n_points, n_views, pair.main.output_dim))
    embeddings[:, 0, :] = l2_normalize(main_raw) if normalize else main_raw
    if n_views > 1:
        rest = batch.augmented[:, 1:, :].reshape(n_points * (n_views - 1), dim)
        hist_raw = mlp_forward(pair.history, rest)
        hist = l2_normalize(hist_raw) if normalize else hist_raw
        embeddings[:, 1:, :] = hist.reshape(n_points, n_views - 1, pair.main.output_dim)
    batch.embeddings = embeddings
    batch.main_raw = main_raw
    batch.main_cache = cache
    return batch


def cfe_loss(
    batch: PositiveBatch, queue: NegativeQueue, config: CfeConfig
) -> tuple[float, np.ndarray]:
    """Log similarity-ratio loss over the batch.

    Each point's views form one simulated class with center mu_i (mean of
    its view embeddings). The per-class term compares the class's
    compactness exp(mu_i . mu_i / tau) against its similarity to the other
    class centers and to every queued negative. Returns the scalar loss and
    its gradient with respect to the view-0 embeddings only; history views
    and queue entries are constants.
    """
    if batch.embeddings is None:
        raise StateError("batch must be encoded before cfe_loss")
    z = batch.embeddings
    n_points, n_views, _ = z.shape
    n_neg = len(queue)
    n_other = n_points + n_neg - 1
    if n_other < 1:
        raise ParameterError("need batch_positives + queue length - 1 >= 1")
    tau = config.temperature

    centers = z.mean(axis=1)  # (n_points, d)
    compact = np.exp(np.sum(centers * centers, axis=1) / tau)  # intra term per class
    cen_sim = np.exp(centers @ centers.T / tau)
    np.fill_diagonal(cen_sim, 0.0)
    repel = cen_sim.sum(axis=1)
    neg_matrix = queue.as_matrix()
    if n_neg:
        neg_sim = np.exp(centers @ neg_matrix.T / tau)
        repel = repel + neg_sim.sum(axis=1)
    ratio = repel / compact
    terms = np.log((1.0 + ratio) / n_other)
    if not np.all(np.isfinite(terms)):
        bad = int(np.flatnonzero(~np.isfinite(terms))[0])
        raise NumericError(f"non-finite loss term for positive class {bad}")
    loss = float(terms.mean())

    # Backward, treating every embedding except view 0 as a constant.
    # With term_i = log((1 + repel_i/compact_i)/n_other):
    #   d term_i / d repel_i   =  1 / (compact_i + repel_i)
    #   d term_i / d compact_i = -repel_i / (compact_i * (compact_i + repel_i))
    # and each center depends on its view-0 embedding with factor 1/n_views.
    weight = 1.0 / (n_points * (compact + repel))  # (n_points,)
    grad_centers = (weight[:, None] * (cen_sim @ centers)) / tau
    grad_centers += (cen_sim.T @ (weight[:, None] * centers)) / tau
    if n_neg:
        grad_centers += (weight[:, None] * (neg_sim @ neg_matrix)) / tau
    grad_centers -= (2.0 / tau) * (weight * repel)[:, None] * centers
    grad_main = grad_centers / n_views
    return loss, grad_main


def momentum_update(pair: EncoderPair, momentum: float) -> EncoderPair:
    """Blend the history encoder toward the live one:
    history <- momentum * history + (1 - momentum) * main."""
    if not (0 <= momentum < 1):
        raise ParameterError("momentum must be in [0, 1)")
    history = momentum * pair.history.vector + (1.0 - momentum) * pair.main.vector
    return EncoderPair(main=pair.main, history=vector_to_params(history, pair.history))


def history_queue_vectors(pair: EncoderPair, batch: PositiveBatch, normalize: bool = True) -> np.ndarray:
    """One history embedding per point for the negative queue: view 1 when
    several views exist, otherwise view 0 re-encoded by the history
    encoder."""
    if batch.embeddings is None:
        raise StateError("batch must be encoded first")
    if batch.augmented.shape[1] >= 2:
        return batch.embeddings[:, 1, :].copy()
    raw = mlp_forward(pair.history, batch.augmented[:, 0, :])
    return l2_normalize(raw) if normalize else raw


def cosine_lr(base_lr: float, epoch: int, total_epochs: int) -> float:
    """Cosine annealing from base_lr at epoch 0 toward 0."""
    if total_epochs <= 0:
        return base_lr
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * epoch / total_epochs))


def train_cfe(
    features: np.ndarray,
    config: CfeConfig,
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
            batch = build_positive_batch(features, config, rng)
            asynchronous_embed(pair, batch, normalize=config.normalize)
            try:
                loss, grad_embed = cfe_loss(batch, queue, config)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch} step {step}: {exc}") from exc
            if config.normalize:
                grad_raw = l2_normalize_backward(batch.main_raw, grad_embed)
            else:
                grad_raw = grad_embed
            grad = mlp_backward(pair.main, batch.main_cache, grad_raw)
            main = vector_to_params(pair.main.vector - lr * grad, pair.main)
            pair = momentum_update(EncoderPair(main=main, history=pair.history), config.momentum)
            queue.push(history_queue_vectors(pair, batch, normalize=config.normalize))
            epoch_losses[step] = loss
        trace.append(float(epoch_losses.mean()))
    return pair, trace


def encode(params: MlpParams | EncoderPair, features: np.ndarray, normalize: bool = True) -> np.ndarray:
    """Embed a feature matrix with the (live) encoder."""
    mlp = params.main if isinstance(params, EncoderPair) else params
    raw = mlp_forward(mlp, np.asarray(features, dtype=np.float64))
    return l2_normalize(raw) if normalize else raw


def _write_mlp_descriptor(writer: ByteWriter, mlp: MlpParams) -> None:
    writer.write_u16(_ACTIVATION_CODES[mlp.activation])
    writer.write_u16(len(mlp.layers))
    for rows, cols in mlp.shapes:
        writer.write_u32(rows)
        writer.write_u32(cols)


def _read_mlp_descriptor(reader: ByteReader) -> tuple[str, list[tuple[int, int]]]:
    at = reader.offset
    code = reader.read_u16("activation code")
    if code not in _ACTIVATION_NAMES:
        raise FormatError(f"unknown activation code {code}", offset=at)
    n_layers = reader.read_u16("layer count")
    shapes = []
    for i in range(n_layers):
        rows = reader.read_u32(f"layer {i} rows")
        cols = reader.read_u32(f"layer {i} cols")
        shapes.append((rows, cols))
    return _ACTIVATION_NAMES[code], shapes


def _read_mlp_payload(reader: ByteReader, activation: str, shapes: list[tuple[int, int]]) -> MlpParams:
    layers = []
    for i, (rows, cols) in enumerate(shapes):
        w = reader.read_f64_array(rows * cols, f"layer {i} weights").reshape(rows, cols)
        b = reader.read_f64_array(rows, f"layer {i} bias")
        layers.append((w, b))
    return MlpParams(layers, activation)


def save_checkpoint(pair: EncoderPair, path) -> None:
    """Versioned binary checkpoint of both encoders."""
    writer = ByteWriter()
    writer.write_bytes(CHECKPOINT_MAGIC)
    writer.write_u16(CHECKPOINT_VERSION)
    writer.write_u16(KIND_ENCODER_PAIR)
    _write_mlp_descriptor(writer, pair.main)
    writer.write_f64_array(pair.main.vector)
    writer.write_f64_array(pair.history.vector)
    with open(path, "wb") as fh:
        fh.write(writer.getvalue())


def load_checkpoint(path) -> EncoderPair:
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
    if kind != KIND_ENCODER_PAIR:
        raise FormatError(f"checkpoint kind {kind} is not an encoder pair", offset=at)
    activation, shapes = _read_mlp_descriptor(reader)
    main = _read_mlp_payload(reader, activation, shapes)
    history = _read_mlp_payload(reader, activation, shapes)
    reader.expect_end()
    return EncoderPair(main=main, history=history)


def write_loss_trace(trace: list[float], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss"])
        for epoch, value in enumerate(trace):
            writer.writerow([epoch, f"{value:.10g}"])
