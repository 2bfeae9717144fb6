"""k-means clustering of embeddings and pseudo-label assignment.

Lloyd's algorithm with k-means++ seeding and multiple restarts. Empty
clusters are repaired by re-seeding at the point farthest from its
assigned center, and the restart with the lowest inertia wins (ties go to
the earlier restart), so results are deterministic for a fixed generator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from ._binio import artifact_file
from .errors import FormatError, ParameterError, ShapeError
from .numcore import group_sums


@dataclass
class ClusterModel:
    k: int
    centers: np.ndarray  # (k, d)
    assignment: np.ndarray  # (n,) cluster id per sample
    inertia: float


@dataclass
class PseudoLabeledDataset:
    """Feature rows, one label in [0, num_clusters) per row, and the rows
    grouped by label. Meta-training passes k-means pseudo-labels; the
    evaluation paths (meta-eval's held-out split, the similarity ratio)
    pass true classes through the same type.

    The whole index is derived from the labels: flat_members lists the rows
    in a stable sort by label, so each label's rows keep increasing order;
    label c's run of it starts at starts[c] and has sizes[c] entries, and
    members[c] is that run as a view.
    """

    features: np.ndarray
    pseudo_labels: np.ndarray
    num_clusters: int
    members: list[np.ndarray] = field(init=False, repr=False)
    sizes: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)
    flat_members: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        labels = self.pseudo_labels
        if labels.shape != (self.features.shape[0],):
            raise ShapeError("need one pseudo-label per feature row")
        if np.any((labels < 0) | (labels >= self.num_clusters)):
            raise ParameterError(f"pseudo-labels must lie in [0, {self.num_clusters})")
        self.flat_members = np.argsort(labels, kind="stable")
        self.sizes = np.bincount(labels, minlength=self.num_clusters)
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.members = np.split(self.flat_members, self.starts[1:])


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


def _assign(x: np.ndarray, centers: np.ndarray, scores: np.ndarray) -> np.ndarray:
    # argmin over centers of |x - c|^2 = |x|^2 - 2 x.c + |c|^2; the |x|^2
    # term is the same for every center of a row, so it is left out
    np.matmul(x, (-2.0 * centers).T, out=scores)
    scores += np.sum(centers * centers, axis=1)
    return np.argmin(scores, axis=1)


def _lloyd(
    x: np.ndarray, centers: np.ndarray, max_iters: int
) -> tuple[np.ndarray, np.ndarray, float]:
    # every _assign of the run writes this (n, k) buffer, so a Lloyd
    # iteration allocates no large array afresh
    scores = np.empty((x.shape[0], centers.shape[0]))
    labels = _assign(x, centers, scores)
    for _ in range(max_iters):
        counts, sums = group_sums(x, labels, centers.shape[0])
        new_centers = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], centers)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            # repair empty clusters at the point farthest from its own center
            point_d2 = np.sum((x - centers[labels]) ** 2, axis=1)
            for j in empty:
                far = int(np.argmax(point_d2))
                new_centers[j] = x[far]
                point_d2[far] = -1.0  # don't reuse the same point twice
        new_labels = _assign(x, new_centers, scores)
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
    return PseudoLabeledDataset(np.asarray(features, dtype=np.float64), model.assignment.copy(), model.k)


def nearest_clusters(model: ClusterModel, bases, count: int) -> np.ndarray:
    """For each base cluster, the `count` clusters most similar to it by
    center dot product, most similar first; ties break toward the lower
    cluster id. An array of bases of any shape, such as a (T, ways) batch,
    gives one (count,) row per base, (T, ways, count); a single base gives
    a (count,) row."""
    bases = np.asarray(bases, dtype=np.int64)
    if np.any((bases < 0) | (bases >= model.k)):
        raise ParameterError(f"base cluster out of range [0, {model.k}): {bases}")
    if count >= model.k:
        raise ParameterError(f"count={count} must be < k={model.k}")
    flat = bases.reshape(-1)
    sims = (model.centers @ model.centers[flat].T).T
    # a base is never its own neighbor; a stable sort keeps equal
    # similarities in ascending id order
    sims[np.arange(flat.size), flat] = -np.inf
    return np.argsort(-sims, axis=-1, kind="stable")[:, :count].reshape(*bases.shape, count)


def write_cluster_csv(
    model: ClusterModel, assignment_path, centers_path, sample_indices=None
) -> None:
    """Assignment and centers as CSV; centers use 17 significant digits so
    they round-trip float64 exactly. sample_indices maps row positions back
    to original dataset indices when the model was fit on a subset."""
    if sample_indices is None:
        sample_indices = np.arange(model.assignment.shape[0])
    # nested, so a failure while writing either file leaves both old files
    with artifact_file(assignment_path) as assignment, artifact_file(centers_path) as centers:
        writer = csv.writer(assignment)
        writer.writerow(["sample_index", "cluster_id"])
        writer.writerows([int(i), int(c)] for i, c in zip(sample_indices, model.assignment))
        writer = csv.writer(centers)
        writer.writerow(["cluster_id"] + [f"c{j}" for j in range(model.centers.shape[1])])
        writer.writerows([cid] + [f"{v:.17g}" for v in row] for cid, row in enumerate(model.centers))


def _read_table(path, what: str, header_ok, dtype) -> np.ndarray:
    """The rows after a cluster CSV's header, typed as one (rows, columns)
    array in one read. A bad header, a row with another column count than
    the header or a cell that does not parse as dtype is a FormatError
    naming the file and line."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not header_ok(rows[0]):
        raise FormatError(f"bad {what} header in {path}")
    width, body = len(rows[0]), rows[1:]

    def refuse(line: int, reason) -> FormatError:
        return FormatError(f"malformed {what} row in {path} line {line}: {reason}")

    for line, row in enumerate(body, start=2):
        if len(row) != width:
            raise refuse(line, f"{len(row)} columns, the header has {width}")
    try:
        return np.array(body, dtype=dtype).reshape(len(body), width)
    except ValueError as exc:
        # the typed read names the cell but not its line
        for line, row in enumerate(body, start=2):
            try:
                np.array(row, dtype=dtype)
            except ValueError:
                raise refuse(line, exc) from None
        raise


def read_cluster_csv(assignment_path, centers_path, sample_indices=None) -> ClusterModel:
    """Inverse of write_cluster_csv; a sample_index column that differs
    from the given sample_indices is a ParameterError, a malformed row or a
    centers cluster_id column other than 0..k-1 a FormatError."""
    found, assignment = _read_table(
        assignment_path, "assignment", lambda h: h == ["sample_index", "cluster_id"], np.int64
    ).T.copy()
    if sample_indices is not None and not np.array_equal(found, sample_indices):
        raise ParameterError(
            f"sample_index column of {assignment_path} does not match this run's training "
            "split; was it clustered with another seed or test fraction?"
        )
    table = _read_table(centers_path, "centers", lambda h: h[:1] == ["cluster_id"], np.float64)
    wrong = np.flatnonzero(table[:, 0] != np.arange(table.shape[0]))
    if wrong.size:
        row = int(wrong[0])
        raise FormatError(
            f"malformed centers row in {centers_path} line {row + 2}: "
            f"cluster_id {table[row, 0]:g}, expected {row}"
        )
    centers = np.ascontiguousarray(table[:, 1:])
    return ClusterModel(
        k=centers.shape[0], centers=centers, assignment=assignment, inertia=float("nan")
    )
