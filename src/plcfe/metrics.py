"""Embedding-quality analysis.

Measures how clustering-friendly an embedding space is: classes whose
samples sit close to their own center (high intra-similarity) and whose
centers sit far from other centers (low inter-similarity) get a low
inter/intra ratio, and a simple clustering algorithm will recover them.
Cluster ids are scored against class ids by the best one-to-one matching,
found by rectangular assignment with shortest augmenting paths (Crouse,
"On implementing 2D rectangular assignment algorithms", IEEE TAES 2016).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._binio import write_csv
from .cluster import PseudoLabeledDataset
from .errors import DegenerateDataError, NumericError, ParameterError, ShapeError
from .numcore import group_sums


@dataclass
class SimilarityReport:
    """Dataset-level similarity summary.

    inter_mean averages over ordered center pairs, i.e. inter_sum divided
    by C*(C-1); inter_mean_per_sample divides the same sum by C times the
    mean class size instead. Both are reported because either normalization
    is defensible; the ratio is what drives conclusions.
    """

    intra_mean: float
    inter_mean: float
    ratio: float
    per_class_intra: np.ndarray
    temperature: float
    num_classes: int
    intra_sum: float
    inter_sum: float
    inter_mean_per_sample: float


def similarity_ratio(data: PseudoLabeledDataset, tau: float) -> SimilarityReport:
    """Average inter- to intra-class similarity ratio over all classes.

    data holds the embeddings as features and the true classes as labels.
    For each class i with center mu_i, the inter similarities to every
    other center are summed and divided by (C-1) times its intra
    similarity exp(mu_i . mu_i / tau), the exp of its members' mean dot
    product with mu_i over tau; the ratio is the mean of those per-class
    values. Lower means the embedding is friendlier to clustering. A
    temperature so small that a similarity overflows is a NumericError.
    """
    c = data.num_clusters
    if c < 2:
        raise ParameterError("need at least 2 classes")
    if not data.sizes.all():
        raise ParameterError("every class id must appear at least once")
    counts, sums = group_sums(data.features, data.pseudo_labels, c)
    centers = sums / counts[:, None]
    # an overflow here makes the report non-finite, which is refused below
    with np.errstate(all="ignore"):
        per_class = np.exp(np.sum(centers * centers, axis=1) / tau)
        inter = np.exp(centers @ centers.T / tau)
        np.fill_diagonal(inter, 0.0)
        intra_sum, inter_sum = float(per_class.sum()), float(inter.sum())
        ratio = float(np.mean(inter.sum(axis=1) / ((c - 1) * per_class)))
    if not np.isfinite([intra_sum, inter_sum, ratio]).all():
        raise NumericError(f"non-finite similarity ratio at temperature {tau:g}")
    mean_class_size = data.features.shape[0] / c
    return SimilarityReport(
        intra_mean=float(per_class.mean()),
        inter_mean=inter_sum / (c * (c - 1)),
        ratio=ratio,
        per_class_intra=per_class,
        temperature=tau,
        num_classes=c,
        intra_sum=intra_sum,
        inter_sum=inter_sum,
        inter_mean_per_sample=inter_sum / (mean_class_size * c),
    )


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
    fields = (
        "intra_mean", "inter_mean", "inter_mean_per_sample", "ratio", "intra_sum", "inter_sum", "temperature"
    )
    rows = [[name, f"{getattr(report, name):.6g}"] for name in fields]
    rows.append(["num_classes", str(report.num_classes)])
    rows += ([f"intra_class_{i}", f"{value:.6g}"] for i, value in enumerate(report.per_class_intra))
    write_csv(path, ["field", "value"], rows)


def write_projection_csv(points: np.ndarray, path, labels: np.ndarray) -> None:
    """2-D projection as CSV (x, y and the row's label), 6 significant digits."""
    rows = ([f"{x:.6g}", f"{y:.6g}", str(int(lab))] for (x, y), lab in zip(points, labels))
    write_csv(path, ["x", "y", "label"], rows)
