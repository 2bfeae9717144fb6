"""k-means clustering of embeddings and pseudo-label assignment.

Lloyd's algorithm with k-means++ seeding and multiple restarts. Empty
clusters are repaired by re-seeding at the point farthest from its
assigned center, and the restart with the lowest inertia wins (ties go to
the earlier restart), so results are deterministic for a fixed generator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParameterError, ShapeError


@dataclass
class ClusterModel:
    k: int
    centers: np.ndarray  # (k, d)
    assignment: np.ndarray  # (n,) cluster id per sample
    inertia: float

    def members(self, cluster_id: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == cluster_id)

    def member_lists(self) -> list[np.ndarray]:
        return [self.members(c) for c in range(self.k)]


@dataclass
class PseudoLabeledDataset:
    """Samples with cluster-derived pseudo-labels and a per-cluster index."""

    features: np.ndarray
    pseudo_labels: np.ndarray
    members: list[np.ndarray]

    @property
    def num_clusters(self) -> int:
        return len(self.members)


def _kmeans_pp_seed(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    dist_sq = np.sum((x - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = dist_sq.sum()
        if total <= 0:
            # all remaining points coincide with a chosen center
            centers[j] = x[rng.integers(n)]
            continue
        probs = dist_sq / total
        idx = rng.choice(n, p=probs)
        centers[j] = x[idx]
        dist_sq = np.minimum(dist_sq, np.sum((x - centers[j]) ** 2, axis=1))
    return centers


def _assign(x: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # squared Euclidean distances via expansion; (n, k)
    d2 = (
        np.sum(x * x, axis=1)[:, None]
        - 2.0 * (x @ centers.T)
        + np.sum(centers * centers, axis=1)[None, :]
    )
    labels = np.argmin(d2, axis=1)
    return labels, d2


def _lloyd(
    x: np.ndarray, centers: np.ndarray, max_iters: int
) -> tuple[np.ndarray, np.ndarray, float]:
    k = centers.shape[0]
    labels, d2 = _assign(x, centers)
    for _ in range(max_iters):
        new_centers = centers.copy()
        for j in range(k):
            mask = labels == j
            if np.any(mask):
                new_centers[j] = x[mask].mean(axis=0)
        # repair empty clusters at the point farthest from its own center
        point_d2 = d2[np.arange(x.shape[0]), labels]
        for j in range(k):
            if not np.any(labels == j):
                far = int(np.argmax(point_d2))
                new_centers[j] = x[far]
                point_d2[far] = -1.0  # don't reuse the same point twice
        new_labels, d2 = _assign(x, new_centers)
        centers = new_centers
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    inertia = float(np.sum((x - centers[labels]) ** 2))
    return centers, labels, inertia


def kmeans(
    embeddings: np.ndarray,
    k: int,
    max_iters: int = 100,
    n_restarts: int = 10,
    rng: np.random.Generator | None = None,
) -> ClusterModel:
    """Cluster rows into k groups, keeping the best of n_restarts runs."""
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError("embeddings must be a 2-D matrix")
    if k < 1 or k > x.shape[0]:
        raise ParameterError(f"k={k} must be in [1, {x.shape[0]}]")
    if rng is None:
        raise ParameterError("kmeans requires an explicit generator for reproducibility")
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for _ in range(max(1, n_restarts)):
        seeds = _kmeans_pp_seed(x, k, rng)
        centers, labels, inertia = _lloyd(x, seeds, max_iters)
        if best is None or inertia < best[0]:
            best = (inertia, centers, labels)
    inertia, centers, labels = best
    return ClusterModel(k=k, centers=centers, assignment=labels, inertia=inertia)


def assign_pseudo_labels(model: ClusterModel, features: np.ndarray) -> PseudoLabeledDataset:
    """Turn a fitted cluster model into a pseudo-labeled dataset."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] != model.assignment.shape[0]:
        raise ShapeError("cluster model does not cover this dataset")
    return PseudoLabeledDataset(
        features=features,
        pseudo_labels=model.assignment.copy(),
        members=model.member_lists(),
    )


def nearest_clusters(model: ClusterModel, base: int, count: int) -> np.ndarray:
    """The `count` clusters most similar to `base` by center dot product,
    most similar first; ties break toward the lower cluster id."""
    if not (0 <= base < model.k):
        raise ParameterError(f"base cluster {base} out of range")
    if count >= model.k:
        raise ParameterError(f"count={count} must be < k={model.k}")
    sims = model.centers @ model.centers[base]
    others = np.delete(np.arange(model.k, dtype=np.int64), base)
    # sort by descending similarity, then ascending id (lexsort's last key is primary)
    order = others[np.lexsort((others, -sims[others]))]
    return order[:count]


def write_cluster_csv(
    model: ClusterModel, assignment_path, centers_path, sample_indices=None
) -> None:
    """Assignment and centers as CSV; centers use 17 significant digits so
    they round-trip float64 exactly. sample_indices maps row positions back
    to original dataset indices when the model was fit on a subset."""
    if sample_indices is None:
        sample_indices = np.arange(model.assignment.shape[0])
    with open(assignment_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_index", "cluster_id"])
        for i, c in zip(sample_indices, model.assignment):
            writer.writerow([int(i), int(c)])
    with open(centers_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster_id"] + [f"c{j}" for j in range(model.centers.shape[1])])
        for cid, row in enumerate(model.centers):
            writer.writerow([cid] + [f"{v:.17g}" for v in row])


def read_cluster_csv(assignment_path, centers_path) -> ClusterModel:
    with open(assignment_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["sample_index", "cluster_id"]:
        raise FormatError(f"bad assignment header in {assignment_path}")
    assignment = np.array([int(r[1]) for r in rows[1:]], dtype=np.int64)
    with open(centers_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][0] != "cluster_id":
        raise FormatError(f"bad centers header in {centers_path}")
    centers = np.array([[float(v) for v in r[1:]] for r in rows[1:]], dtype=np.float64)
    return ClusterModel(
        k=centers.shape[0], centers=centers, assignment=assignment, inertia=float("nan")
    )
