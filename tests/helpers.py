"""Test-only helpers: a seeded generator, a finite-difference gradient
checker and five oracles, the pairwise center similarity, prototype
classification, an MLP pass that keeps its pre-activations, the episode
draw as one argsort and a few-shot task's structural invariants."""

from __future__ import annotations

from typing import Callable

import numpy as np

from plcfe.cluster import PseudoLabeledDataset
from plcfe.episodes import FewShotTask
from plcfe.errors import ConstructionError, NumericError, ParameterError, ShapeError
from plcfe.metalearn import prototype_scores, way_prototypes
from plcfe.numcore import MlpParams, layer_views


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; same seed and call sequence give identical
    streams on every platform."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


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


def intra_similarity(class_embeddings: np.ndarray, tau: float) -> float:
    """Compactness of one class: exp of the mean dot product between the
    class center and its members, scaled by 1/tau."""
    if tau <= 0:
        raise ParameterError("tau must be positive")
    z = np.asarray(class_embeddings, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 1:
        raise ShapeError("class_embeddings must be a non-empty (n, d) matrix")
    center = z.mean(axis=0)
    return float(np.exp(np.sum(z @ center) / (tau * z.shape[0])))


def inter_similarity(center_i: np.ndarray, center_j: np.ndarray, tau: float) -> float:
    """Closeness of two class centers: exp(center_i . center_j / tau)."""
    if tau <= 0:
        raise ParameterError("tau must be positive")
    center_i = np.asarray(center_i, dtype=np.float64)
    center_j = np.asarray(center_j, dtype=np.float64)
    if center_i.shape != center_j.shape or center_i.ndim != 1:
        raise ShapeError("centers must be vectors of equal dimension")
    return float(np.exp(center_i @ center_j / tau))


def proto_classify(
    support_embeddings: np.ndarray,
    support_labels: np.ndarray,
    query_embeddings: np.ndarray,
) -> np.ndarray:
    """Negative squared distance of each query embedding to each way's
    support prototype (per-way mean), per task for stacked inputs."""
    return prototype_scores(query_embeddings, way_prototypes(support_embeddings, support_labels))


def oracle_forward_backward(
    params: MlpParams, batch: np.ndarray, grad_output: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """The MLP forward and backward pass with every intermediate kept in
    its own array: (pre-activations, layer outputs, flat gradient). The
    activation's derivative is read off the pre-activation, as the
    textbook writes it."""
    x = np.asarray(batch, dtype=np.float64)
    last = len(params.layers) - 1
    pres, posts = [], []
    for i, (w, b) in enumerate(params.layers):
        pre = x @ w.mT + b[..., None, :]
        if i == last:
            x = pre
        elif params.activation == "relu":
            x = np.maximum(pre, 0.0)
        else:
            x = np.tanh(pre)
        pres.append(pre)
        posts.append(x)
    grad = np.empty(params.vector.shape)
    g = np.asarray(grad_output, dtype=np.float64)
    for i in range(last, -1, -1):
        if i == last:
            g_pre = g
        elif params.activation == "relu":
            g_pre = g * (pres[i] > 0.0).astype(np.float64)
        else:
            g_pre = g * (1.0 - posts[i] * posts[i])
        gw, gb = layer_views(grad, params.shapes)[i]
        gw[...] = g_pre.mT @ (np.asarray(batch, dtype=np.float64) if i == 0 else posts[i - 1])
        gb[...] = g_pre.sum(axis=-2)
        if i > 0:
            g = g_pre @ params.layers[i][0]
    return pres, posts, grad


def one_argsort_draw(
    pld: PseudoLabeledDataset, ways: int, picks: int, rng: np.random.Generator, tasks: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """draw_episodes with every task's member keys padded and argsorted at
    once: the same draws in the same order, holding the whole mask and
    sort order."""
    sizes = pld.sizes
    eligible = np.flatnonzero(sizes >= picks)
    clusters = eligible[np.argsort(rng.random((tasks, eligible.size)), axis=1)[:, :ways]]
    keys = rng.random((tasks, ways, int(sizes[eligible].max())))
    keys[np.arange(keys.shape[-1]) >= sizes[clusters][..., None]] = np.inf
    positions = np.argsort(keys, axis=-1)[..., :picks]
    return clusters, pld.flat_members[pld.starts[clusters][..., None] + positions]


def validate_structure(task: FewShotTask, n_samples: int) -> None:
    """Raise if counts, index ranges, or support/query disjointness are
    violated."""
    if task.support.ndim != 2 or task.query.ndim != 2:
        raise ConstructionError("support and query must be 2-D")
    if task.support.shape[0] != task.query.shape[0]:
        raise ConstructionError("support and query must agree on the number of ways")
    all_idx = np.concatenate([task.support.reshape(-1), task.query.reshape(-1)])
    if all_idx.min() < 0 or all_idx.max() >= n_samples:
        raise ConstructionError("sample index out of range")
    s = set(task.support.reshape(-1).tolist())
    q = set(task.query.reshape(-1).tolist())
    if s & q:
        raise ConstructionError("support and query sets overlap")
    if len(s) != task.support.size:
        raise ConstructionError("duplicate sample within the support set")
    for way in range(task.query.shape[0]):
        if np.unique(task.query[way]).size != task.query.shape[1]:
            raise ConstructionError(f"duplicate query sample within way {way}")
    if len(task.provenance) != task.support.shape[0]:
        raise ConstructionError("provenance must cover every way")
