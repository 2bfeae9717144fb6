import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcfe.cluster import (
    ClusterModel,
    PseudoLabeledDataset,
    assign_pseudo_labels,
    kmeans,
    nearest_clusters,
    read_cluster_csv,
    write_cluster_csv,
)
from plcfe.errors import FormatError, ParameterError, ShapeError

from helpers import make_rng


def inertia_of(x, centers, labels):
    return float(np.sum((x - centers[labels]) ** 2))


class TestKmeans:
    def test_k1_is_global_mean(self):
        rng = make_rng(0)
        x = rng.normal(size=(20, 3))
        model = kmeans(x, 1, rng=make_rng(1))
        assert np.allclose(model.centers[0], x.mean(axis=0))
        assert model.inertia == pytest.approx(float(np.sum((x - x.mean(axis=0)) ** 2)))

    def test_separated_groups_split_perfectly(self):
        rng = make_rng(1)
        left = rng.normal(size=(3, 2)) + np.array([-10.0, 0.0])
        right = rng.normal(size=(3, 2)) + np.array([10.0, 0.0])
        model = kmeans(np.vstack([left, right]), 2, rng=make_rng(2))
        labels = model.assignment
        assert len(set(labels[:3])) == 1 and len(set(labels[3:])) == 1
        assert labels[0] != labels[3]

    def test_local_optimality(self):
        # converged model is a Lloyd fixed point and beats every
        # single-point reassignment with recomputed centers
        rng = make_rng(2)
        x = rng.normal(size=(12, 2))
        model = kmeans(x, 3, rng=make_rng(3))

        d2 = ((x[:, None, :] - model.centers[None]) ** 2).sum(axis=2)
        assert np.array_equal(np.argmin(d2, axis=1), model.assignment)

        for i in range(12):
            for target in range(3):
                if target == model.assignment[i]:
                    continue
                labels = model.assignment.copy()
                labels[i] = target
                if not all(np.any(labels == j) for j in range(3)):
                    continue
                centers = np.stack([x[labels == j].mean(axis=0) for j in range(3)])
                assert inertia_of(x, centers, labels) >= model.inertia - 1e-9

    def test_deterministic_given_seed(self):
        x = make_rng(3).normal(size=(30, 4))
        m1 = kmeans(x, 4, rng=make_rng(4))
        m2 = kmeans(x, 4, rng=make_rng(4))
        assert np.array_equal(m1.assignment, m2.assignment)
        assert np.array_equal(m1.centers, m2.centers)
        assert m1.inertia == m2.inertia

    def test_inertia_non_increasing_in_iterations(self):
        x = make_rng(5).normal(size=(40, 3))
        inertias = [
            kmeans(x, 5, max_iters=m, n_restarts=1, rng=make_rng(6)).inertia
            for m in range(1, 12)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(inertias, inertias[1:]))

    def test_empty_cluster_repair(self):
        # coincident initial centers leave two clusters empty after the
        # first assignment; repair re-seeds them at far points
        from plcfe.cluster import _lloyd

        rng = make_rng(7)
        x = np.vstack(
            [rng.normal(size=(8, 2)) + off for off in ([0, 0], [20, 0], [0, 20])]
        )
        bad_seeds = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        centers, labels, inertia = _lloyd(x, bad_seeds, max_iters=50)
        assert all(np.any(labels == j) for j in range(3))
        assert np.isfinite(inertia)

    @pytest.mark.parametrize("seeded", [True, False])
    def test_lloyd_matches_per_cluster_mask_loop(self, seeded):
        from plcfe.cluster import _kmeans_pp_seed, _lloyd

        def assign(x, centers):
            d2 = np.sum((x[:, None, :] - centers[None]) ** 2, axis=-1)
            return np.argmin(d2, axis=1), d2

        def looped(x, centers, max_iters):
            labels, d2 = assign(x, centers)
            for _ in range(max_iters):
                new_centers = centers.copy()
                for j in range(len(centers)):
                    if np.any(labels == j):
                        new_centers[j] = x[labels == j].mean(axis=0)
                point_d2 = d2[np.arange(x.shape[0]), labels]
                for j in range(len(centers)):
                    if not np.any(labels == j):
                        far = int(np.argmax(point_d2))
                        new_centers[j] = x[far]
                        point_d2[far] = -1.0
                new_labels, d2 = assign(x, new_centers)
                centers = new_centers
                if np.array_equal(new_labels, labels):
                    break
                labels = new_labels
            return centers, new_labels, float(np.sum((x - centers[new_labels]) ** 2))

        x = make_rng(8).normal(size=(120, 5))
        # coincident seeds leave clusters empty, so the repair runs too
        seeds = _kmeans_pp_seed(x, 9, make_rng(9)) if seeded else np.zeros((9, 5))
        got, want = _lloyd(x, seeds, 30), looped(x, seeds, 30)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_k_validation(self):
        with pytest.raises(ParameterError):
            kmeans(np.zeros((3, 2)), 4, rng=make_rng(0))
        with pytest.raises(ParameterError):
            kmeans(np.zeros((3, 2)), 0, rng=make_rng(0))


class TestAssignPseudoLabels:
    def test_small_example(self):
        model = ClusterModel(
            k=2,
            centers=np.zeros((2, 2)),
            assignment=np.array([0, 0, 1]),
            inertia=0.0,
        )
        pld = assign_pseudo_labels(model, np.zeros((3, 2)))
        assert pld.pseudo_labels.tolist() == [0, 0, 1]
        assert [m.tolist() for m in pld.members] == [[0, 1], [2]]

    def test_k1_all_zero(self):
        x = make_rng(0).normal(size=(6, 2))
        pld = assign_pseudo_labels(kmeans(x, 1, rng=make_rng(1)), x)
        assert pld.pseudo_labels.tolist() == [0] * 6

    def test_member_index_counting_oracle(self):
        x = make_rng(1).normal(size=(25, 3))
        model = kmeans(x, 4, rng=make_rng(2))
        pld = assign_pseudo_labels(model, x)
        assert sum(m.size for m in pld.members) == 25
        for c, members in enumerate(pld.members):
            assert np.all(pld.pseudo_labels[members] == c)
        counts = np.bincount(pld.pseudo_labels, minlength=4)
        assert [m.size for m in pld.members] == counts.tolist()


class TestLabelIndex:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), max_size=40))
        )
    )
    def test_index_matches_per_cluster_oracle(self, case):
        # k may exceed the labels drawn, so empty clusters are covered
        k, labels = case
        labels = np.array(labels, dtype=np.int64)
        pld = PseudoLabeledDataset(np.zeros((labels.size, 2)), labels, k)
        oracle = [np.flatnonzero(labels == c) for c in range(k)]
        assert len(pld.members) == k
        for members, expected in zip(pld.members, oracle):
            assert np.array_equal(members, expected)
        assert pld.sizes.tolist() == [m.size for m in oracle]
        assert np.array_equal(pld.flat_members, np.concatenate(oracle))
        for c in range(k):
            run = pld.flat_members[pld.starts[c] : pld.starts[c] + pld.sizes[c]]
            assert np.array_equal(run, oracle[c])

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_label_is_refused(self, bad):
        with pytest.raises(ParameterError, match=r"pseudo-labels must lie in \[0, 3\)"):
            PseudoLabeledDataset(np.zeros((3, 2)), np.array([0, bad, 2]), 3)

    def test_label_count_must_match_rows(self):
        with pytest.raises(ShapeError):
            PseudoLabeledDataset(np.zeros((3, 2)), np.array([0, 1]), 2)
        model = ClusterModel(2, np.zeros((2, 2)), np.array([0, 1]), 0.0)
        with pytest.raises(ShapeError):
            assign_pseudo_labels(model, np.zeros((3, 2)))


class TestNearestClusters:
    def test_mixed_center_is_nearest(self):
        centers = np.array([[1.0, 0.0], [0.0, 1.0], [np.sqrt(0.5), np.sqrt(0.5)]])
        model = ClusterModel(3, centers, np.arange(3), 0.0)
        assert nearest_clusters(model, 0, 1).tolist() == [2]

    def test_all_others_sorted(self):
        rng = make_rng(0)
        centers = rng.normal(size=(5, 3))
        model = ClusterModel(5, centers, np.arange(5), 0.0)
        result = nearest_clusters(model, 2, 4)
        assert sorted(result.tolist()) == [0, 1, 3, 4]
        sims = centers @ centers[2]
        assert all(sims[a] >= sims[b] for a, b in zip(result, result[1:]))

    def test_matches_sort_oracle(self):
        rng = make_rng(1)
        centers = rng.normal(size=(6, 4))
        model = ClusterModel(6, centers, np.arange(6), 0.0)
        result = nearest_clusters(model, 1, 3)
        sims = centers @ centers[1]
        oracle = sorted(
            (c for c in range(6) if c != 1), key=lambda c: (-sims[c], c)
        )[:3]
        assert result.tolist() == oracle

    def test_never_returns_base_and_breaks_ties_by_id(self):
        centers = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        model = ClusterModel(4, centers, np.arange(4), 0.0)
        assert nearest_clusters(model, 0, 3).tolist() == [1, 2, 3]

    def test_table_rows_match_single_bases(self):
        rng = make_rng(2)
        for _ in range(20):
            centers = rng.normal(size=(12, 4))
            # duplicate centers make exact ties
            centers[rng.integers(12, size=3)] = centers[0]
            model = ClusterModel(12, centers, np.arange(12), 0.0)
            bases = rng.choice(12, size=5, replace=False)
            table = nearest_clusters(model, bases, 4)
            assert table.shape == (5, 4)
            for base, row in zip(bases, table):
                assert row.tolist() == nearest_clusters(model, int(base), 4).tolist()

    def test_task_batch_table_matches_per_task_tables(self):
        rng = make_rng(3)
        for _ in range(20):
            centers = rng.normal(size=(12, 4))
            centers[rng.integers(12, size=3)] = centers[0]
            model = ClusterModel(12, centers, np.arange(12), 0.0)
            bases = np.argsort(rng.random((4, 12)), axis=1)[:, :5]
            table = nearest_clusters(model, bases, 4)
            assert table.shape == (4, 5, 4)
            for task_bases, task_table in zip(bases, table):
                assert np.array_equal(task_table, nearest_clusters(model, task_bases, 4))

    def test_base_range_validation(self):
        model = ClusterModel(3, np.zeros((3, 2)), np.arange(3), 0.0)
        with pytest.raises(ParameterError, match="out of range"):
            nearest_clusters(model, np.array([0, 3]), 1)

    def test_count_validation(self):
        model = ClusterModel(3, np.zeros((3, 2)), np.arange(3), 0.0)
        with pytest.raises(ParameterError):
            nearest_clusters(model, 0, 3)


class TestClusterCsv:
    def test_round_trip_exact(self, tmp_path):
        x = make_rng(0).normal(size=(15, 3))
        model = kmeans(x, 3, rng=make_rng(1))
        a_path, c_path = tmp_path / "assign.csv", tmp_path / "centers.csv"
        write_cluster_csv(model, a_path, c_path)
        back = read_cluster_csv(a_path, c_path)
        assert np.array_equal(back.assignment, model.assignment)
        assert np.array_equal(back.centers, model.centers)  # 17g round-trips exactly

    def test_sample_index_mapping(self, tmp_path):
        model = ClusterModel(2, np.zeros((2, 2)), np.array([0, 1, 0]), 0.0)
        a_path, c_path = tmp_path / "a.csv", tmp_path / "c.csv"
        write_cluster_csv(model, a_path, c_path, sample_indices=np.array([5, 7, 9]))
        lines = a_path.read_text().splitlines()
        assert lines[1] == "5,0" and lines[2] == "7,1" and lines[3] == "9,0"

    def test_failed_write_keeps_previous_files(self, tmp_path):
        x = make_rng(0).normal(size=(15, 3))
        model = kmeans(x, 3, rng=make_rng(1))
        a_path, c_path = tmp_path / "clusters_assignment.csv", tmp_path / "clusters_centers.csv"
        write_cluster_csv(model, a_path, c_path)
        before, before_assignment = c_path.read_bytes(), a_path.read_bytes()
        centers = model.centers.astype(object)
        centers[2, 1] = "not a number"  # fails the 17g format after two rows
        # every row of the new assignment differs, so a replaced file shows
        broken = ClusterModel(3, centers, (model.assignment + 1) % 3, model.inertia)
        with pytest.raises(ValueError):
            write_cluster_csv(broken, a_path, c_path)
        assert c_path.read_bytes() == before
        assert a_path.read_bytes() == before_assignment
        assert sorted(p.name for p in tmp_path.iterdir()) == [a_path.name, c_path.name]

    def test_bad_header(self, tmp_path):
        a_path, c_path = tmp_path / "a.csv", tmp_path / "c.csv"
        a_path.write_text("wrong,header\n")
        c_path.write_text("cluster_id,c0\n")
        with pytest.raises(FormatError):
            read_cluster_csv(a_path, c_path)
