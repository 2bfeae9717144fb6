"""Dense numerical core: a small MLP encoder with exact reverse-mode
gradients, its one checkpoint file format (write_network and
read_network), row normalization, seeded RNG streams, and the one
log-softmax and cross-entropy behind every loss in the package.

Matrices are plain 2-D float64 numpy arrays (row-major). The MLP also runs
T independent networks at once: a (T, P) stack of parameter vectors with a
(T, n, d) input, each task's slice computed by the same matmul calls as a
single network, so a stacked run is bit-identical to T separate ones.
The forward pass allocates one array per layer, its matmul's result, and
adds the bias and applies any activation in place; the backward pass reads
each activation's derivative off the layer's output, so no pre-activation
is kept. Everything here is a pure function of its explicit inputs, so
results are bit-reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._binio import ByteWriter, read_container
from .errors import FormatError, NumericError, ParameterError, ShapeError, StateError

# Rows whose Euclidean norm falls below this are treated as degenerate by
# l2_normalize: passed through unchanged instead of divided by ~0.
DEGENERATE_NORM_EPS = 1e-12

ACTIVATIONS = ("relu", "tanh")  # a checkpoint's activation code is the index here

CHECKPOINT_MAGIC = b"PLCF"
CHECKPOINT_VERSION = 3
KIND_ENCODER = 0  # a CFE encoder: the live one, before or after training
KIND_FEWSHOT_MODEL = 1


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent child stream for (seed, key path), e.g. one per pipeline
    stage, so stages stay reproducible in isolation."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(key))))


def layer_views(vector: np.ndarray, shapes: Sequence[tuple[int, int]]) -> tuple:
    """(weight, bias) views into a flat vector that holds, for each weight
    shape (fan_out, fan_in), the row-major weight and then its bias.

    vector may also be a (T, P) stack of such vectors, one per task; the
    views then carry the same leading task axis.
    """
    need = sum(rows * cols + rows for rows, cols in shapes)
    if vector.ndim not in (1, 2) or vector.shape[-1] != need:
        raise ShapeError(f"vector has shape {vector.shape}, layout needs ({need},) or (T, {need})")
    lead = vector.shape[:-1]
    layers, pos = [], 0
    for rows, cols in shapes:
        end = pos + rows * cols
        layers.append((vector[..., pos:end].reshape(lead + (rows, cols)), vector[..., end : end + rows]))
        pos = end + rows
    return tuple(layers)


class MlpParams:
    """Parameters of a fully connected network, held in one flat float64
    vector.

    The vector holds every layer's weight, shape (fan_out, fan_in) and
    row-major, then its bias, shape (fan_out,); layers holds (weight, bias)
    views into it. A network wrapped around a (T, P) stack of vectors (see
    vector_to_params) is T networks with a leading task axis on every view.
    The activation follows every layer but the last, which is linear: a
    CFE encoder's output is l2-normalized as it is, and a maml model's last
    layer is its N-way head (a proto model is an encoder alone).
    """

    def __init__(self, layers: Sequence[tuple[np.ndarray, np.ndarray]], activation: str = "relu"):
        if activation not in ACTIVATIONS:
            raise ParameterError(f"unknown activation {activation!r}")
        if not layers:
            raise ParameterError("MlpParams needs at least one layer")
        layers = [(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64)) for w, b in layers]
        for i, (w, b) in enumerate(layers):
            if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[0]:
                raise ShapeError(f"layer {i}: weight {w.shape} / bias {b.shape} mismatch")
            if i > 0 and w.shape[1] != layers[i - 1][0].shape[0]:
                raise ShapeError(
                    f"layer {i} expects {w.shape[1]} inputs but layer {i - 1} "
                    f"outputs {layers[i - 1][0].shape[0]}"
                )
        vector = np.concatenate([part for w, b in layers for part in (w.ravel(), b)])
        self._bind(vector, tuple(w.shape for w, _ in layers), activation)

    def _bind(self, vector: np.ndarray, shapes: tuple, activation: str) -> None:
        self.vector = vector
        self.shapes = shapes
        self.activation = activation
        self.layers = layer_views(vector, shapes)

    @property
    def input_dim(self) -> int:
        return self.shapes[0][1]

    @property
    def output_dim(self) -> int:
        return self.shapes[-1][0]

    def clone(self) -> "MlpParams":
        return vector_to_params(self.vector.copy(), self)


def write_network(network: MlpParams, kind: int, path) -> None:
    """One network as a PLCF checkpoint of this kind: the header, then the
    activation code, the layer count and each layer's (rows, cols), a maml
    model's head last, then the network's one parameter vector."""
    writer = ByteWriter(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, kind)
    writer.write_u16(ACTIVATIONS.index(network.activation))
    writer.write_u16(len(network.shapes))
    for rows, cols in network.shapes:
        writer.write_u32(rows)
        writer.write_u32(cols)
    writer.write_f64_array(params_to_vector(network))
    writer.save(path)


def read_network(path, kind: int, what: str) -> MlpParams:
    """Inverse of write_network. Another kind is a FormatError saying it is
    not `what`, and so is another version: version 1 activated every
    network's last layer, and a version-2 encoder file also held the
    momentum encoder. A layer whose inputs are not its predecessor's
    outputs is a FormatError at the offset of its shape."""
    reader, found = read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    if found != kind:
        raise FormatError(f"checkpoint kind {found} is not {what}", offset=reader.offset - 2)
    at = reader.offset
    code = reader.read_u16("activation code")
    if code >= len(ACTIVATIONS):
        raise FormatError(f"unknown activation code {code}", offset=at)
    at = reader.offset
    n_layers = reader.read_u16("layer count")
    if n_layers < 1:
        raise FormatError("checkpoint encoder has no layers", offset=at)
    shapes = []
    for i in range(n_layers):
        at = reader.offset
        rows, cols = reader.read_u32(f"layer {i} rows"), reader.read_u32(f"layer {i} cols")
        if shapes and cols != shapes[-1][0]:
            raise FormatError(f"layer {i} expects {cols} inputs but layer {i - 1} outputs {shapes[-1][0]}", offset=at)
        shapes.append((rows, cols))
    vector = reader.read_f64_array(sum(rows * cols + rows for rows, cols in shapes), "parameters")
    reader.expect_end()
    return MlpParams(layer_views(vector, shapes), ACTIVATIONS[code])


def init_mlp(layer_dims: Sequence[int], activation: str, rng: np.random.Generator) -> MlpParams:
    """He-style random initialization for the dim chain layer_dims
    (input, hidden..., output)."""
    if len(layer_dims) < 2:
        raise ParameterError("layer_dims needs an input and an output size")
    layers = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        scale = np.sqrt(2.0 / fan_in)
        w = rng.normal(0.0, scale, size=(fan_out, fan_in))
        b = np.zeros(fan_out)
        layers.append((w, b))
    return MlpParams(layers, activation)


def _activate_grad(post: np.ndarray, activation: str) -> np.ndarray:
    """The activation's derivative, read off its output: ReLU's output is
    positive exactly where its input is, and tanh' = 1 - tanh²."""
    if activation == "relu":
        return (post > 0.0).astype(np.float64)
    return 1.0 - post * post


@dataclass
class ForwardCache:
    """What mlp_backward needs of a forward pass: its input batch and
    each layer's output (activated, or the last layer's linear output). The
    pre-activations are not kept: each hidden layer activates in place."""

    inputs: np.ndarray
    post_activations: list[np.ndarray] = field(default_factory=list)


def mlp_forward(params: MlpParams, batch: np.ndarray) -> np.ndarray:
    """Run the network on a (n, input_dim) batch; returns (n, output_dim).
    A (T, P) network stack takes a (T, n, input_dim) batch and returns
    (T, n, output_dim)."""
    return _forward(params, batch, None)


def mlp_forward_cached(params: MlpParams, batch: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass that also returns the cache mlp_backward needs."""
    cache = ForwardCache(inputs=np.asarray(batch, dtype=np.float64))
    return _forward(params, cache.inputs, cache), cache


def _forward(params: MlpParams, batch: np.ndarray, cache: ForwardCache | None) -> np.ndarray:
    """The network's output. Each layer writes its matmul's fresh result,
    adds the bias and, but for the last, activates in place, so the
    caller's batch and every earlier layer's output are never written. Each
    layer's output is kept in cache when one is given; otherwise it is
    freed once the next layer has used it."""
    batch = np.asarray(batch, dtype=np.float64)
    tasks = params.vector.shape[:-1]
    if batch.ndim != len(tasks) + 2 or batch.shape[:-2] != tasks or batch.shape[-1] != params.input_dim:
        raise ShapeError(
            f"batch shape {batch.shape} incompatible with encoder input dim "
            f"{params.input_dim} and parameter shape {params.vector.shape}"
        )
    x = batch
    last = len(params.layers) - 1
    for i, (w, b) in enumerate(params.layers):
        x = x @ w.mT
        x += b[..., None, :]
        if i != last and params.activation == "relu":
            np.maximum(x, 0.0, out=x)
        elif i != last:
            np.tanh(x, out=x)
        if cache is not None:
            cache.post_activations.append(x)
    return x


def mlp_backward(params: MlpParams, cache: ForwardCache | None, grad_output: np.ndarray) -> np.ndarray:
    """Exact gradient of a scalar loss w.r.t. every weight and bias.

    grad_output is dloss/doutput for the cached forward pass. Returns the
    flat gradient in params.vector's layout; for a (T, P) network stack,
    row t is the gradient of task t's loss.
    """
    if cache is None or not cache.post_activations:
        raise StateError("mlp_backward requires the cache from mlp_forward_cached")
    grad_output = np.asarray(grad_output, dtype=np.float64)
    if grad_output.shape != cache.post_activations[-1].shape:
        raise ShapeError(
            f"grad_output shape {grad_output.shape} does not match forward "
            f"output {cache.post_activations[-1].shape}"
        )
    grad = np.empty(params.vector.shape)
    grad_layers = layer_views(grad, params.shapes)
    g = grad_output
    last = len(params.layers) - 1
    for i in range(last, -1, -1):
        w, _ = params.layers[i]
        layer_in = cache.inputs if i == 0 else cache.post_activations[i - 1]
        g_pre = g if i == last else g * _activate_grad(cache.post_activations[i], params.activation)
        gw, gb = grad_layers[i]
        gw[...] = g_pre.mT @ layer_in
        gb[...] = g_pre.sum(axis=-2)
        if i > 0:
            g = g_pre @ w
    return grad


def l2_normalize(vectors: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm.

    Rows with norm below DEGENERATE_NORM_EPS are returned unchanged; a
    non-finite norm (an entry past about 1e154) is a NumericError.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(vectors, axis=-1, keepdims=True)
    if not np.isfinite(norms).all():
        raise NumericError("non-finite vector norm")
    return vectors / np.where(norms < DEGENERATE_NORM_EPS, 1.0, norms)


def l2_normalize_backward(vectors: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
    """Gradient of l2_normalize: for y = x/|x|, pulls grad_output back
    through the Jacobian (I - y y^T)/|x| row by row. Degenerate rows pass
    the gradient through unchanged."""
    vectors = np.asarray(vectors, dtype=np.float64)
    grad_output = np.asarray(grad_output, dtype=np.float64)
    norms = np.linalg.norm(vectors, axis=-1, keepdims=True)
    degenerate = norms < DEGENERATE_NORM_EPS
    safe = np.where(degenerate, 1.0, norms)
    y = vectors / safe
    dot = np.sum(grad_output * y, axis=-1, keepdims=True)
    grad = (grad_output - dot * y) / safe
    return np.where(degenerate, grad_output, grad)


def params_to_vector(params: MlpParams) -> np.ndarray:
    """The network's flat parameter vector itself (layer order, weight
    before bias); writes to it write the network."""
    return params.vector


def vector_to_params(vector: np.ndarray, template: MlpParams) -> MlpParams:
    """Wrap a vector in params_to_vector's layout, without copying, as a
    network shaped like template; a (T, P) stack of such vectors becomes T
    networks with a leading task axis."""
    params = object.__new__(MlpParams)
    params._bind(np.asarray(vector, dtype=np.float64), template.shapes, template.activation)
    return params


def log_softmax(scores: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis: each row minus its max, minus log1p
    of the other terms' exps. One max term per row is left out of the sum,
    so tied maxima keep exactly equal values, and where 1 - p underflows the
    top term is -sum(others), not 0, so a row's log-probabilities stay
    strictly ordered. (..., c) scores give (..., c) log-probabilities."""
    scores = np.asarray(scores, dtype=np.float64)
    flat = scores.reshape(-1, scores.shape[-1])
    rows = np.arange(flat.shape[0])
    top = flat.argmax(axis=1)
    out = flat - flat[rows, top][:, None]
    rest = np.exp(out)
    rest[rows, top] = 0.0
    out -= np.log1p(rest.sum(axis=1, keepdims=True))
    return out.reshape(scores.shape)


def cross_entropy(scores: np.ndarray, labels: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy of (n,) integer labels under softmax of (n, c)
    scores, and its gradient w.r.t. the scores. (T, n, c) scores with
    (T, n) labels give one mean per task, shape (T,)."""
    grad = log_softmax(scores)
    n, c = grad.shape[-2:]
    flat = grad.reshape(-1, c)
    at_label = (np.arange(flat.shape[0]), labels.ravel())
    loss = -flat[at_label].reshape(labels.shape).mean(axis=-1)
    np.exp(flat, out=flat)  # the log-probabilities become probabilities in place
    flat[at_label] -= 1.0
    flat /= n
    return loss, grad


def group_sums(rows: np.ndarray, ids: np.ndarray, groups: int) -> tuple[np.ndarray, np.ndarray]:
    """(groups,) row counts and (groups, d) column sums of (..., d) rows with
    one id in [0, groups) per row; one flat bincount over (id, column) bins
    adds each group's rows in row order, as np.add.at does."""
    d = rows.shape[-1]
    ids = np.asarray(ids).ravel()
    counts = np.bincount(ids, minlength=groups)
    flat = (ids[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(flat, weights=rows.ravel(), minlength=groups * d).reshape(groups, d)
    return counts, sums
