"""Embedding-quality analysis.

Measures how clustering-friendly an embedding space is: classes whose
samples sit close to their own center (high intra-similarity) and whose
centers sit far from other centers (low inter-similarity) get a low
inter/intra ratio, and a simple clustering algorithm will recover them.
The ratio is read off one log-softmax of the class-center similarities,
so it stays finite at the small temperatures CFE trains at. Cluster ids
are scored against class ids by the best one-to-one matching, found by
rectangular assignment with shortest augmenting paths (Crouse, "On
implementing 2D rectangular assignment algorithms", IEEE TAES 2016).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._binio import write_csv
from .cluster import PseudoLabeledDataset
from .errors import DegenerateDataError, NumericError, ParameterError, ShapeError
from .numcore import group_sums, log_softmax


@dataclass
class SimilarityReport:
    """The inter- to intra-class similarity ratio of each class, and their
    mean, which is the measure the paper's clustering-friendly property
    names."""

    ratio: float
    per_class_ratio: np.ndarray
    temperature: float
    num_classes: int


def similarity_ratio(data: PseudoLabeledDataset, tau: float) -> SimilarityReport:
    """Average inter- to intra-class similarity ratio over all classes.

    data holds the embeddings as features and the true classes as labels.
    With class centers mu and S = mu mu^T / tau, class i's ratio is the sum
    of exp(S_ij) over the other centers j, divided by (C-1) times its intra
    similarity exp(S_ii), the exp of its members' mean dot product with
    mu_i over tau. That is expm1(-log_softmax(S)_ii) / (C-1), computed from
    numcore's log-softmax, so no similarity is exponentiated on its own; a
    ratio below the float64 range is 0. Lower means the embedding is
    friendlier to clustering. A ratio above the float64 range, which needs
    a tau below about 3.5e-4 on the unit sphere, is a NumericError.
    """
    c = data.num_clusters
    if c < 2:
        raise ParameterError("need at least 2 classes")
    if not data.sizes.all():
        raise ParameterError("every class id must appear at least once")
    counts, sums = group_sums(data.features, data.pseudo_labels, c)
    centers = sums / counts[:, None]
    # an overflow here makes the ratio non-finite, which is refused below;
    # log_softmax(S)_ii <= 0, so its abs is -log p_ii, +0 where p_ii is 1
    with np.errstate(all="ignore"):
        per_class = np.expm1(np.abs(np.diagonal(log_softmax(centers @ centers.T / tau)))) / (c - 1)
        ratio = float(per_class.mean())
    if not np.isfinite(ratio):
        raise NumericError(f"non-finite similarity ratio at temperature {tau:g}")
    return SimilarityReport(ratio=ratio, per_class_ratio=per_class, temperature=tau, num_classes=c)


def pca_project_2d(embeddings: np.ndarray) -> np.ndarray:
    """Project rows onto the top-2 principal directions for plotting.

    Directions are eigenvectors of the covariance matrix sorted by
    descending eigenvalue, each sign-fixed so its largest-magnitude
    component is positive.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 2:
        raise ParameterError("need at least 2 rows and 2 columns")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    if eigvals[order[0]] <= 1e-24:
        raise DegenerateDataError("data has no variance to project")
    basis = eigvecs[:, order[:2]]
    for k in range(2):
        lead = np.argmax(np.abs(basis[:, k]))
        if basis[lead, k] < 0:
            basis[:, k] = -basis[:, k]
    return centered @ basis


def _max_matching_total(table: np.ndarray) -> int:
    """Largest sum of table entries with at most one entry per row and per
    column, every row or every column (the shorter side) matched.

    Shortest augmenting paths over the shorter side (Crouse 2016): each
    row of the shorter side adds one augmenting path found by a Dijkstra
    search on reduced costs -table[i, j] - u[i] - v[j] >= 0, and the duals
    u, v keep the matching optimal after each augmentation. Costs are
    integer counts, so the float64 arithmetic is exact. The matching need
    not be unique; its total is.
    """
    cost = -np.asarray(table, dtype=np.float64)
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
    rows, cols = cost.shape
    u, v = np.zeros(rows), np.zeros(cols)
    col_of_row = np.full(rows, -1)
    row_of_col = np.full(cols, -1)
    for start in range(rows):
        dist = np.full(cols, np.inf)
        via = np.zeros(cols, dtype=np.int64)
        open_cols = np.ones(cols, dtype=bool)
        seen_rows = [start]
        i, reached = start, 0.0
        while True:
            through = reached + cost[i] - u[i] - v
            better = open_cols & (through < dist)
            dist[better], via[better] = through[better], i
            j = int(np.argmin(np.where(open_cols, dist, np.inf)))
            reached, open_cols[j] = dist[j], False
            if row_of_col[j] < 0:
                break
            i = int(row_of_col[j])
            seen_rows.append(i)
        u[start] += reached
        matched = np.array(seen_rows[1:], dtype=np.int64)
        u[matched] += reached - dist[col_of_row[matched]]
        closed = ~open_cols
        v[closed] -= reached - dist[closed]
        while True:  # flip the path back from the free column j to start
            i = via[j]
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == start:
                break
    return int(-cost[np.arange(rows), col_of_row].sum())


def clustering_accuracy(pseudo_labels, true_labels) -> float:
    """Best one-to-one matching accuracy between cluster ids and class ids,
    via optimal assignment on the (clusters x classes) contingency table;
    with unequal counts the surplus clusters or classes stay unmatched."""
    pseudo = np.asarray(pseudo_labels, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    if pseudo.size == 0:
        raise ParameterError("empty label lists")
    if pseudo.shape != true.shape:
        raise ShapeError("label lists must have equal length")
    clusters, classes = int(pseudo.max()) + 1, int(true.max()) + 1
    table = np.bincount(pseudo * classes + true, minlength=clusters * classes).reshape(clusters, classes)
    return _max_matching_total(table) / pseudo.size


def write_similarity_csv(report: SimilarityReport, path) -> None:
    """Long-format CSV of the report, 6 significant digits."""
    rows = [["ratio", f"{report.ratio:.6g}"], ["temperature", f"{report.temperature:.6g}"],
            ["num_classes", str(report.num_classes)]]
    rows += ([f"ratio_class_{i}", f"{value:.6g}"] for i, value in enumerate(report.per_class_ratio))
    write_csv(path, ["field", "value"], rows)


def write_projection_csv(points: np.ndarray, path, labels: np.ndarray) -> None:
    """2-D projection as CSV (x, y and the row's label), 6 significant digits."""
    rows = ([f"{x:.6g}", f"{y:.6g}", str(int(lab))] for (x, y), lab in zip(points, labels))
    write_csv(path, ["x", "y", "label"], rows)
