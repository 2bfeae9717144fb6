import csv
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from plcfe.cluster import PseudoLabeledDataset
from plcfe.errors import DegenerateDataError, NumericError, ParameterError
from plcfe.metrics import (
    _max_matching_total,
    clustering_accuracy,
    pca_project_2d,
    similarity_ratio,
    write_projection_csv,
    write_similarity_csv,
)
from plcfe.numcore import l2_normalize

from helpers import inter_similarity, intra_similarity, make_rng

E5 = math.exp(5.0)


class TestIntraSimilarity:
    def test_identical_unit_rows(self):
        u = np.array([0.6, 0.8])
        value = intra_similarity(np.tile(u, (4, 1)), tau=0.2)
        assert value == pytest.approx(E5, rel=1e-12)

    def test_antipodal_rows_cancel(self):
        u = np.array([1.0, 0.0])
        assert intra_similarity(np.stack([u, -u]), tau=0.2) == pytest.approx(1.0)

    def test_matches_direct_sum_oracle(self):
        rng = make_rng(0)
        z = l2_normalize(rng.normal(size=(4, 6)))
        mu = z.mean(axis=0)
        oracle = math.exp(sum(float(mu @ z[j]) for j in range(4)) / (0.2 * 4))
        assert abs(intra_similarity(z, 0.2) - oracle) < 1e-12

    def test_tau_validation(self):
        with pytest.raises(ParameterError):
            intra_similarity(np.ones((2, 2)), tau=0.0)


class TestInterSimilarity:
    def test_orthogonal(self):
        assert inter_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.2) == 1.0

    def test_identical(self):
        u = np.array([1.0, 0.0])
        assert inter_similarity(u, u, 0.2) == pytest.approx(E5, rel=1e-12)

    def test_random_pair_oracle(self):
        rng = make_rng(1)
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert abs(inter_similarity(a, b, 0.3) - math.exp(float(a @ b) / 0.3)) < 1e-12


def make_labeled(embeddings, labels):
    labels = np.asarray(labels)
    return PseudoLabeledDataset(embeddings, labels, int(labels.max()) + 1)


class TestSimilarityRatio:
    def test_three_orthogonal_classes(self):
        e = np.eye(3)
        emb = np.repeat(e, 2, axis=0)
        report = similarity_ratio(make_labeled(emb, [0, 0, 1, 1, 2, 2]), 0.2)
        assert report.ratio == pytest.approx(math.exp(-5.0), rel=1e-12)

    def test_two_identical_classes(self):
        u = np.array([[1.0, 0.0]])
        emb = np.vstack([u, u])
        report = similarity_ratio(make_labeled(emb, [0, 1]), 0.2)
        assert report.ratio == pytest.approx(1.0, rel=1e-12)

    def test_nested_loop_oracle(self):
        rng = make_rng(2)
        emb = l2_normalize(rng.normal(size=(15, 8)))
        labels = np.repeat([0, 1, 2], 5)
        tau = 0.2
        report = similarity_ratio(make_labeled(emb, labels), tau)

        total = 0.0
        for i in range(3):
            rows_i = emb[labels == i]
            mu_i = rows_i.mean(axis=0)
            intra = math.exp(sum(float(mu_i @ r) for r in rows_i) / (tau * len(rows_i)))
            inter = 0.0
            for j in range(3):
                if j == i:
                    continue
                mu_j = emb[labels == j].mean(axis=0)
                inter += math.exp(float(mu_i @ mu_j) / tau)
            total += inter / (2 * intra)
        assert abs(report.ratio - total / 3) < 1e-10

    def test_per_class_intra_matches_oracle(self):
        # each class's inter similarities over (C-1) times its intra one
        rng = make_rng(6)
        emb = l2_normalize(rng.normal(size=(40, 6)))
        labels = rng.permutation(np.repeat(np.arange(5), [3, 7, 10, 12, 8]))
        report = similarity_ratio(make_labeled(emb, labels), 0.2)
        centers = [emb[labels == c].mean(axis=0) for c in range(5)]
        for c in range(5):
            inter = sum(inter_similarity(centers[c], centers[j], 0.2) for j in range(5) if j != c)
            oracle = inter / (4 * intra_similarity(emb[labels == c], 0.2))
            assert report.per_class_ratio[c] == pytest.approx(oracle, rel=1e-12)
        assert report.ratio == pytest.approx(np.mean(report.per_class_ratio), rel=1e-15)

    @pytest.mark.parametrize("tau", [0.01, 0.001])
    def test_small_temperature_matches_log_sum_exp_oracle(self, tau):
        # tight classes around directions at cosines of 0.98 to 0.997: the
        # centers are 0.999 long, so exp(mu . mu / tau) overflows at 0.001,
        # while every class's ratio stays between 1e-4 and 1
        rng = make_rng(7)
        directions = l2_normalize(1.0 + 0.3 * l2_normalize(rng.normal(size=(4, 8))))
        labels = np.repeat(np.arange(4), 5)
        emb = l2_normalize(directions[labels] + 0.02 * rng.normal(size=(20, 8)))
        report = similarity_ratio(make_labeled(emb, labels), tau)
        rows = emb.tolist()
        centers = [[sum(r[d] for r, lab in zip(rows, labels) if lab == c) / 5 for d in range(8)] for c in range(4)]
        for i in range(4):
            scores = [sum(a * b for a, b in zip(centers[i], centers[j])) / tau for j in range(4)]
            top = max(scores)
            inter = sum(math.exp(s - top) for j, s in enumerate(scores) if j != i)
            oracle = inter / (3 * math.exp(scores[i] - top))
            assert 0.0 < oracle < 1.0
            assert report.per_class_ratio[i] == pytest.approx(oracle, rel=1e-9)
        assert report.ratio == pytest.approx(np.mean(report.per_class_ratio), rel=1e-15)

    def test_rotation_invariance(self):
        rng = make_rng(3)
        emb = l2_normalize(rng.normal(size=(12, 6)))
        labels = np.repeat([0, 1, 2], 4)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        base = similarity_ratio(make_labeled(emb, labels), 0.2)
        rotated = similarity_ratio(make_labeled(emb @ q, labels), 0.2)
        assert rotated.ratio == pytest.approx(base.ratio, rel=1e-10)
        assert np.allclose(rotated.per_class_ratio, base.per_class_ratio, rtol=1e-10, atol=0.0)

    def test_within_class_permutation_invariance(self):
        rng = make_rng(4)
        emb = l2_normalize(rng.normal(size=(10, 5)))
        labels = np.repeat([0, 1], 5)
        base = similarity_ratio(make_labeled(emb, labels), 0.2)
        shuffled = emb.copy()
        shuffled[0:5] = emb[[3, 1, 4, 0, 2]]
        report = similarity_ratio(make_labeled(shuffled, labels), 0.2)
        assert report.ratio == pytest.approx(base.ratio, rel=1e-12)
        assert np.allclose(report.per_class_ratio, base.per_class_ratio)

    def test_overflow_is_numeric_error_without_warnings(self):
        # class 1's center, [0.5, 0], is half as long as class 0's and points
        # along it: its ratio is exp((0.5 - 0.25) / tau) / 1, above float64
        half = math.sqrt(0.75)
        emb = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, half], [0.5, -half]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="non-finite similarity ratio"):
                similarity_ratio(make_labeled(emb, [0, 0, 1, 1]), 1e-6)

    def test_underflow_is_zero(self, tmp_path):
        # orthogonal unit centers: each ratio is exp(-1 / tau), below float64
        emb = np.repeat(np.eye(3), 2, axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = similarity_ratio(make_labeled(emb, [0, 0, 1, 1, 2, 2]), 1e-6)
        assert report.ratio == 0.0 and not report.per_class_ratio.any()
        write_similarity_csv(report, tmp_path / "sim.csv")
        rows = dict(csv.reader(open(tmp_path / "sim.csv")))
        assert rows["ratio"] == rows["ratio_class_0"] == rows["ratio_class_2"] == "0"

    def test_empty_class_is_refused(self):
        emb = np.repeat(np.eye(3), 2, axis=0)
        with pytest.raises(ParameterError, match="every class id must appear"):
            similarity_ratio(PseudoLabeledDataset(emb, np.array([0, 0, 2, 2, 2, 2]), 3), 0.2)

    def test_needs_two_classes(self):
        with pytest.raises(ParameterError):
            similarity_ratio(make_labeled(np.ones((3, 2)), [0, 0, 0]), 0.2)


class TestPca:
    def test_collinear_data_second_axis_zero(self):
        t = np.linspace(-2, 2, 7)[:, None]
        points = pca_project_2d(t * np.array([1.0, 1.0, 0.0]))
        assert np.max(np.abs(points[:, 1])) < 1e-10

    def test_axis_aligned_2d(self):
        # exactly diagonal sample covariance with var(x) > var(y)
        x = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        points = pca_project_2d(x)
        # projection is the centered input up to per-axis sign
        for k in range(2):
            assert np.allclose(points[:, k], x[:, k], atol=1e-12) or np.allclose(
                points[:, k], -x[:, k], atol=1e-12
            )

    def test_projected_variance_matches_top_eigenvalues(self):
        rng = make_rng(6)
        x = rng.normal(size=(5, 4))
        points = pca_project_2d(x)
        centered = x - x.mean(axis=0)
        eigvals = np.linalg.eigvalsh(centered.T @ centered / 4)
        top2 = np.sort(eigvals)[::-1][:2].sum()
        projected = np.sum(points.var(axis=0, ddof=1))
        assert abs(projected - top2) < 1e-10

    def test_rank_zero_degenerate(self):
        with pytest.raises(DegenerateDataError):
            pca_project_2d(np.ones((4, 3)))

    def test_too_small(self):
        with pytest.raises(ParameterError):
            pca_project_2d(np.ones((1, 3)))


class TestClusteringAccuracy:
    def test_relabeling_is_perfect(self):
        assert clustering_accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_identity(self):
        assert clustering_accuracy([0, 1, 2, 0], [0, 1, 2, 0]) == 1.0

    def test_half_match(self):
        # both possible 2-permutations match exactly 2 of 4
        assert clustering_accuracy([0, 1, 0, 1], [0, 0, 1, 1]) == 0.5

    def test_permutation_invariance(self):
        rng = make_rng(8)
        pseudo = rng.integers(0, 4, size=40)
        true = rng.integers(0, 3, size=40)
        base = clustering_accuracy(pseudo, true)
        perm = np.array([2, 0, 3, 1])
        assert clustering_accuracy(perm[pseudo], true) == base

    def test_more_clusters_than_classes(self):
        acc = clustering_accuracy([0, 1, 2, 3], [0, 0, 1, 1])
        assert acc == 0.5

    def test_empty_is_error(self):
        with pytest.raises(ParameterError):
            clustering_accuracy([], [])

    def test_many_clusters_rectangular_table(self):
        # k = 4 x classes at 20 classes: 80 clusters, each pure but a
        # quarter of its class, so the one-to-one match covers 20 of 80
        true = np.repeat(np.arange(20), 12)
        pseudo = np.repeat(np.arange(80), 3)
        assert clustering_accuracy(pseudo, true) == 0.25
        rng = make_rng(9)
        noisy = rng.integers(0, 80, size=true.size)
        table = np.zeros((80, 20))
        for p, t in zip(noisy, true):
            table[p, t] += 1
        best = max(table[:, t].max() for t in range(20))
        acc = clustering_accuracy(noisy, true)
        assert best / true.size <= acc <= 1.0


@st.composite
def count_tables(draw):
    """Contingency-like count tables, tall and wide, with some rows and
    columns zeroed; 64 x 16 is the proto-scaled config's table."""
    shape = draw(st.one_of(
        st.tuples(st.integers(1, 10), st.integers(1, 10)),
        st.sampled_from([(1, 1), (64, 16), (16, 64)]),
    ))
    high = draw(st.sampled_from([1, 3, 40]))
    table = draw(arrays(np.int64, shape, elements=st.integers(0, high)))
    table[draw(arrays(np.bool_, shape[0])), :] = 0
    table[:, draw(arrays(np.bool_, shape[1]))] = 0
    return table


def brute_force_total(table: np.ndarray) -> int:
    """Best total over every injective matching of the shorter side."""
    if table.shape[0] > table.shape[1]:
        table = table.T
    rows = range(table.shape[0])
    return max(
        sum(int(table[i, j]) for i, j in zip(rows, cols))
        for cols in itertools.permutations(range(table.shape[1]), table.shape[0])
    )


class TestMaxMatchingTotal:
    @settings(max_examples=300, deadline=None)
    @given(count_tables())
    def test_equals_scipy_optimal_total(self, table):
        rows, cols = linear_sum_assignment(-table)
        assert _max_matching_total(table) == table[rows, cols].sum()

    def test_equals_brute_force_for_every_side_up_to_6(self):
        rng = make_rng(10)
        for shape in itertools.product(range(1, 7), repeat=2):
            for high in (1, 4, 50):
                table = rng.integers(0, high + 1, size=shape)
                assert _max_matching_total(table) == brute_force_total(table), table

    def test_two_optimal_matchings_share_one_total(self):
        # rows 0 -> {0 or 2}, row 1 -> 1: two matchings reach 4, and only the
        # total is defined by the table
        table = np.array([[2, 1, 2], [1, 2, 0]])
        assert table[[0, 1], [0, 1]].sum() == table[[0, 1], [2, 1]].sum() == 4
        rows, cols = linear_sum_assignment(-table)
        assert _max_matching_total(table) == brute_force_total(table) == table[rows, cols].sum() == 4
        pseudo = np.repeat(np.arange(2).repeat(3), table.ravel())
        true = np.repeat(np.tile(np.arange(3), 2), table.ravel())
        assert clustering_accuracy(pseudo, true) == 4 / table.sum()


class TestCsvExports:
    def test_similarity_csv(self, tmp_path):
        emb = np.repeat(np.eye(3), 2, axis=0)
        report = similarity_ratio(make_labeled(emb, [0, 0, 1, 1, 2, 2]), 0.2)
        path = tmp_path / "sim.csv"
        write_similarity_csv(report, path)
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["field", "value"]
        as_dict = {r[0]: r[1] for r in rows[1:]}
        assert float(as_dict["ratio"]) == pytest.approx(report.ratio, rel=1e-5)
        assert float(as_dict["ratio_class_2"]) == pytest.approx(report.per_class_ratio[2], rel=1e-5)
        assert set(as_dict) == {"ratio", "temperature", "num_classes", "ratio_class_0", "ratio_class_1",
                                "ratio_class_2"}

    def test_projection_csv(self, tmp_path):
        pts = np.array([[1.234567, -2.0], [0.0, 3.5]])
        path = tmp_path / "pca.csv"
        write_projection_csv(pts, path, labels=np.array([0, 1]))
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["x", "y", "label"]
        assert rows[1] == ["1.23457", "-2", "0"]
