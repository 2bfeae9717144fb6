"""Dense numerical core: a small MLP encoder with exact reverse-mode
gradients, row normalization, seeded RNG streams, and a finite-difference
gradient checker.

Matrices are plain 2-D float64 numpy arrays (row-major). The MLP also runs
T independent networks at once: a (T, P) stack of parameter vectors with a
(T, n, d) input, each task's slice computed by the same matmul calls as a
single network, so a stacked run is bit-identical to T separate ones.
Everything here is a pure function of its explicit inputs, so results are
bit-reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ParameterError, ShapeError, StateError

# Rows whose Euclidean norm falls below this are treated as degenerate by
# l2_normalize: passed through unchanged instead of divided by ~0.
DEGENERATE_NORM_EPS = 1e-12

ACTIVATIONS = ("relu", "tanh")


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; same seed and call sequence give identical
    streams on every platform."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


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
    The activation is applied after every layer, including the last one.
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

    def _bind(self, vector: np.ndarray, shapes: tuple[tuple[int, int], ...], activation: str) -> None:
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


def _activate(pre: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(pre, 0.0)
    return np.tanh(pre)


def _activate_grad(pre: np.ndarray, post: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return (pre > 0.0).astype(np.float64)
    return 1.0 - post * post


@dataclass
class ForwardCache:
    """Intermediates kept by mlp_forward_cached for the backward pass."""

    inputs: np.ndarray
    pre_activations: list[np.ndarray] = field(default_factory=list)
    post_activations: list[np.ndarray] = field(default_factory=list)


def mlp_forward(params: MlpParams, batch: np.ndarray) -> np.ndarray:
    """Run the network on a (n, input_dim) batch; returns (n, output_dim).
    A (T, P) network stack takes a (T, n, input_dim) batch and returns
    (T, n, output_dim)."""
    out, _ = mlp_forward_cached(params, batch)
    return out


def mlp_forward_cached(params: MlpParams, batch: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass that also returns the cache mlp_backward needs."""
    batch = np.asarray(batch, dtype=np.float64)
    tasks = params.vector.shape[:-1]
    if batch.ndim != len(tasks) + 2 or batch.shape[:-2] != tasks or batch.shape[-1] != params.input_dim:
        raise ShapeError(
            f"batch shape {batch.shape} incompatible with encoder input dim "
            f"{params.input_dim} and parameter shape {params.vector.shape}"
        )
    cache = ForwardCache(inputs=batch)
    x = batch
    for w, b in params.layers:
        pre = x @ w.mT + b[..., None, :]
        x = _activate(pre, params.activation)
        cache.pre_activations.append(pre)
        cache.post_activations.append(x)
    return x, cache


def mlp_backward(params: MlpParams, cache: ForwardCache | None, grad_output: np.ndarray) -> np.ndarray:
    """Exact gradient of a scalar loss w.r.t. every weight and bias.

    grad_output is dloss/doutput for the cached forward pass. Returns the
    flat gradient in params.vector's layout; for a (T, P) network stack,
    row t is the gradient of task t's loss.
    """
    if cache is None or not cache.pre_activations:
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
    for i in range(len(params.layers) - 1, -1, -1):
        w, _ = params.layers[i]
        pre = cache.pre_activations[i]
        post = cache.post_activations[i]
        layer_in = cache.inputs if i == 0 else cache.post_activations[i - 1]
        g_pre = g * _activate_grad(pre, post, params.activation)
        gw, gb = grad_layers[i]
        gw[...] = g_pre.mT @ layer_in
        gb[...] = g_pre.sum(axis=-2)
        if i > 0:
            g = g_pre @ w
    return grad


def l2_normalize(vectors: np.ndarray, return_degenerate: bool = False):
    """Scale each row to unit Euclidean norm.

    Rows with norm below DEGENERATE_NORM_EPS are returned unchanged. With
    return_degenerate=True also returns the boolean mask of such rows.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(vectors, axis=-1, keepdims=True)
    degenerate = norms[..., 0] < DEGENERATE_NORM_EPS
    safe = np.where(norms < DEGENERATE_NORM_EPS, 1.0, norms)
    out = vectors / safe
    if return_degenerate:
        return out, degenerate
    return out


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


def softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by each row's max for
    stability."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def finite_diff_check(
    scalar_fn: Callable[[np.ndarray], tuple[float, np.ndarray]],
    params: np.ndarray,
    eps: float = 1e-6,
) -> float:
    """Compare the analytic gradient of scalar_fn against central finite
    differences.

    scalar_fn maps a flat parameter vector to (loss, gradient). Returns the
    max over coordinates of |g_fd - g| / max(1, |g|).
    """
    if eps <= 0:
        raise ParameterError("eps must be positive")
    params = np.asarray(params, dtype=np.float64)
    loss, grad = scalar_fn(params)
    if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
        raise NumericError("scalar_fn returned a non-finite loss or gradient")
    worst = 0.0
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + eps
        hi, _ = scalar_fn(bumped)
        bumped[i] = params[i] - eps
        lo, _ = scalar_fn(bumped)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericError(f"non-finite loss while probing coordinate {i}")
        g_fd = (hi - lo) / (2.0 * eps)
        err = abs(g_fd - grad[i]) / max(1.0, abs(grad[i]))
        worst = max(worst, err)
    return worst
