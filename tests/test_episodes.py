import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcfe.cluster import ClusterModel, PseudoLabeledDataset, nearest_clusters
from plcfe.episodes import (
    EpisodeConfig,
    FewShotTask,
    WayProvenance,
    cluster_entropy,
    draw_episodes,
    filter_noisy,
    sample_progressive_batch,
    sample_standard_task,
    sample_task_batch,
    select_final_cluster,
    write_tasks_csv,
)
from plcfe.errors import ConstructionError, ParameterError
from plcfe.numcore import log_softmax

from helpers import make_rng, one_argsort_draw, validate_structure


class RowScorer:
    """Stub evaluation model with explicit per-sample score rows, indexed by
    feature column 0. Finetuning on a (..., n, d) support adds shift times
    each way's sum of support indices to that way's scores, so a model
    finetuned on a stack of T supports scores (T, N, ways), each task
    after its own support."""

    def __init__(self, rows, shift=0.0, bias=None):
        self.rows = np.asarray(rows, dtype=float)
        self.shift = shift
        self.bias = np.zeros(self.rows.shape[1]) if bias is None else bias

    def predict_scores(self, features):
        return self.rows[features[..., 0].astype(int)] + self.bias[..., None, :]

    def finetuned(self, support_x, support_y):
        one_hot = support_y[..., None] == np.arange(self.rows.shape[1])
        sums = np.sum(support_x[..., :1] * one_hot, axis=-2)
        return RowScorer(self.rows, self.shift, self.shift * sums)


class TableScorer(RowScorer):
    """RowScorer whose rows one-hot encode a fixed predicted label per
    sample."""

    def __init__(self, labels, ways):
        super().__init__(np.eye(ways)[np.asarray(labels)])


def make_pld(cluster_sizes, dim=3):
    """Features whose column 0 is the sample index; clusters are contiguous
    blocks."""
    n = sum(cluster_sizes)
    features = np.zeros((n, dim))
    features[:, 0] = np.arange(n)
    labels = np.repeat(np.arange(len(cluster_sizes)), cluster_sizes)
    return PseudoLabeledDataset(features=features, pseudo_labels=labels, num_clusters=len(cluster_sizes))


def make_cluster_model(pld, dim=3):
    centers = np.stack([pld.features[m].mean(axis=0) for m in pld.members])
    return ClusterModel(
        k=len(pld.members), centers=centers, assignment=pld.pseudo_labels, inertia=0.0
    )


class TestConfig:
    def test_keep_rate_range(self):
        with pytest.raises(ParameterError):
            EpisodeConfig(keep_rate=1.2)

    def test_ways_minimum(self):
        with pytest.raises(ParameterError):
            EpisodeConfig(ways=1)


class TestStandardTask:
    def test_two_cluster_minimal(self):
        pld = make_pld([2, 2])
        config = EpisodeConfig(ways=2, shots=1, queries=1)
        task = sample_standard_task(pld, config, make_rng(0))
        validate_structure(task, pld.features.shape[0])
        used_clusters = {p.base_cluster for p in task.provenance}
        assert used_clusters == {0, 1}

    def test_small_cluster_never_sampled(self):
        # cluster 1 has shots+queries-1 members and is ineligible
        config = EpisodeConfig(ways=2, shots=2, queries=2)
        pld = make_pld([4, 3, 4])
        rng = make_rng(1)
        for _ in range(200):
            task = sample_standard_task(pld, config, rng)
            assert all(p.base_cluster != 1 for p in task.provenance)

    def test_too_few_eligible_clusters(self):
        pld = make_pld([4, 2])
        with pytest.raises(ConstructionError):
            sample_standard_task(pld, EpisodeConfig(ways=2, shots=2, queries=2), make_rng(0))

    def test_selection_uniform_over_clusters(self):
        pld = make_pld([10] * 8)
        config = EpisodeConfig(ways=2, shots=1, queries=1)
        rng = make_rng(0)
        counts = np.zeros(8)
        draws = 10_000
        for _ in range(draws):
            task = sample_standard_task(pld, config, rng)
            for prov in task.provenance:
                counts[prov.base_cluster] += 1
        p = 2 / 8  # inclusion probability per cluster
        sigma = math.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) < 3 * sigma)

    def test_way_labels_follow_sampled_order(self):
        pld = make_pld([3, 3, 3])
        config = EpisodeConfig(ways=3, shots=1, queries=1)
        task = sample_standard_task(pld, config, make_rng(3))
        for way, prov in enumerate(task.provenance):
            cluster = prov.base_cluster
            assert set(task.support[way]) <= set(pld.members[cluster].tolist())
            assert set(task.query[way]) <= set(pld.members[cluster].tolist())


class TestDrawEpisodes:
    def test_cluster_and_member_frequencies_are_uniform(self):
        from scipy.stats import chisquare

        sizes = np.array([5, 9, 12, 7, 10, 3, 8])
        pld = make_pld(sizes.tolist())
        eligible = np.flatnonzero(sizes >= 7)
        draws, ways, picks = 20_000, 3, 7
        clusters, samples = draw_episodes(pld, ways, picks, make_rng(0), draws)
        assert np.isin(clusters, eligible).all()
        for chosen in (clusters, clusters[:, 0]):
            counts = np.bincount(chosen.ravel(), minlength=sizes.size)[eligible]
            assert chisquare(counts).pvalue > 1e-3
        per_cluster = np.bincount(clusters.ravel(), minlength=sizes.size)
        in_eligible = np.isin(pld.pseudo_labels, eligible)
        for picked, per_way in ((samples, picks), (samples[..., 0], 1)):
            counts = np.bincount(picked.ravel(), minlength=sizes.sum())[in_eligible]
            expected = (per_cluster * per_way / sizes)[pld.pseudo_labels][in_eligible]
            # each cluster's total is fixed by its draw count
            assert chisquare(counts, expected, ddof=eligible.size - 1).pvalue > 1e-3

    def test_batched_structure(self):
        rng = make_rng(1)
        for seed in range(30):
            sizes = rng.integers(1, 15, size=int(rng.integers(4, 10))).tolist()
            pld = make_pld(sizes)
            picks = int(rng.integers(1, 6))
            eligible = [c for c, n in enumerate(sizes) if n >= picks]
            if len(eligible) < 2:
                with pytest.raises(ConstructionError):
                    draw_episodes(pld, 2, picks, make_rng(seed), 5)
                continue
            ways = int(rng.integers(2, len(eligible) + 1))
            clusters, samples = draw_episodes(pld, ways, picks, make_rng(seed), 50)
            assert clusters.shape == (50, ways)
            assert samples.shape == (50, ways, picks) and samples.dtype == np.int64
            assert np.isin(clusters, eligible).all()
            for task_clusters, task_samples in zip(clusters, samples):
                assert np.unique(task_clusters).size == ways
                assert np.unique(task_samples).size == task_samples.size
            assert np.array_equal(pld.pseudo_labels[samples], np.repeat(clusters[..., None], picks, -1))

    @pytest.mark.parametrize("tasks", [1, 255, 256, 257, 600])
    def test_blocked_draw_equals_one_argsort(self, tasks):
        pld = make_pld([6, 2, 9, 4, 7, 8, 5])
        for picks in (1, 4):
            got = draw_episodes(pld, 3, picks, make_rng(tasks), tasks)
            want = one_argsort_draw(pld, 3, picks, make_rng(tasks), tasks)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_meta_eval_draw_stays_small(self):
        # the held-out class sizes of the maml-eval workload at seed 1: a
        # 2000-task, 1-shot draw of 6 picks per way, whose keys alone take
        # 2000 * 5 * 27 * 8 bytes = 2.16 MB
        pld = make_pld([26, 27, 9, 18, 25, 15, 24, 16])
        rng = make_rng(7)
        tracemalloc.start()
        try:
            draw_episodes(pld, 5, 6, rng, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.0e6, f"peak {peak / 1e6:.2f} MB"

    def test_standard_task_is_one_kernel_task(self):
        pld = make_pld([6, 9, 4, 7, 8])
        config = EpisodeConfig(ways=3, shots=2, queries=4)
        task = sample_standard_task(pld, config, make_rng(2))
        (clusters,), (picks,) = draw_episodes(pld, 3, 6, make_rng(2))
        assert [p.base_cluster for p in task.provenance] == clusters.tolist()
        assert np.array_equal(task.support, picks[:, :2])
        assert np.array_equal(task.query, picks[:, 2:])


def entropies(scores, pld):
    """One task's (k,) cluster entropies under its (N, ways) scores."""
    return cluster_entropy(scores[None], pld)[0]


def one_way_table(candidates):
    """A (1, 1, c) candidate table: one task of one way."""
    return np.array(candidates)[None, None]


class TestClusterEntropy:
    def test_single_label_zero(self):
        scorer = TableScorer(np.zeros(4, dtype=int), 3)
        features = np.zeros((4, 2))
        features[:, 0] = np.arange(4)
        assert entropies(scorer.predict_scores(features), make_pld([4]))[0] == 0.0

    def test_even_split_ln2(self):
        scorer = TableScorer(np.array([0, 0, 1, 1]), 2)
        features = np.zeros((4, 2))
        features[:, 0] = np.arange(4)
        h = entropies(scorer.predict_scores(features), make_pld([4]))[0]
        assert h == pytest.approx(math.log(2), abs=1e-12)

    def test_three_one_split(self):
        scorer = TableScorer(np.array([0, 0, 0, 1]), 2)
        features = np.zeros((4, 2))
        features[:, 0] = np.arange(4)
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        h = entropies(scorer.predict_scores(features), make_pld([4]))[0]
        assert h == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.562335, abs=1e-6)

    def test_bounded_by_ln_ways(self):
        rng = make_rng(0)
        for _ in range(30):
            n, ways = int(rng.integers(1, 10)), int(rng.integers(2, 5))
            labels = rng.integers(0, ways, size=n)
            features = np.zeros((n, 2))
            features[:, 0] = np.arange(n)
            scores = TableScorer(labels, ways).predict_scores(features)
            h = entropies(scores, make_pld([n]))[0]
            assert 0.0 <= h <= math.log(ways) + 1e-12

    def test_maximal_iff_uniform(self):
        features = np.zeros((4, 2))
        features[:, 0] = np.arange(4)
        scores = TableScorer(np.array([0, 1, 2, 3]), 4).predict_scores(features)
        h = entropies(scores, make_pld([4]))[0]
        assert h == pytest.approx(math.log(4), abs=1e-12)

    def test_empty_cluster_is_nan_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = entropies(np.zeros((2, 2)), make_pld([0, 2]))
        assert np.isnan(h[0]) and h[1] == 0.0

    def test_stack_equals_one_call_per_task(self):
        # clusters 1 and 4 are empty; each task scores with its own labels
        pld = make_pld([5, 0, 3, 7, 0, 1])
        rng = make_rng(4)
        scores = rng.normal(size=(6, pld.features.shape[0], 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = cluster_entropy(scores, pld)
            alone = np.stack([entropies(task_scores, pld) for task_scores in scores])
        assert stacked.shape == (6, 6)
        assert np.array_equal(stacked, alone, equal_nan=True)
        assert np.isnan(stacked[:, [1, 4]]).all() and not np.isnan(stacked[:, [0, 2, 3, 5]]).any()

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda ways: st.lists(
                st.lists(st.integers(0, 50), min_size=ways, max_size=ways).filter(any),
                min_size=1,
                max_size=8,
            )
        ),
        st.integers(0, 7),
    )
    def test_rows_match_frequency_formula(self, rows, zero_row):
        # cluster i holds rows[i][w] members predicted as way w
        oracle = [
            -sum((c / sum(row)) * math.log(c / sum(row)) for c in row if c > 0) for row in rows
        ]

        def one_hot_entropies(rows):
            labels = np.concatenate([np.repeat(np.arange(len(row)), row) for row in rows])
            return entropies(np.eye(len(rows[0]))[labels], make_pld([sum(row) for row in rows]))

        assert np.allclose(one_hot_entropies(rows), oracle, rtol=0, atol=1e-12)
        emptied = zero_row % len(rows)
        h = one_hot_entropies([[0] * len(row) if i == emptied else row for i, row in enumerate(rows)])
        assert np.isnan(h[emptied])
        assert np.allclose(np.delete(h, emptied), np.delete(oracle, emptied), rtol=0, atol=1e-12)


class TestSelectFinalCluster:
    def test_single_candidate(self):
        pld = make_pld([3, 3])
        scorer = TableScorer(np.zeros(6, dtype=int), 2)
        entropy = cluster_entropy(scorer.predict_scores(pld.features)[None], pld)
        assert select_final_cluster(one_way_table([1]), entropy)[0, 0] == 1

    def test_argmax_entropy(self):
        # cluster 0: all one label (H=0); cluster 1: even split (H=ln2);
        # cluster 2: 3-1 split (H~0.56)
        pld = make_pld([4, 4, 4])
        labels = np.array([0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1])
        scorer = TableScorer(labels, 2)
        entropy = cluster_entropy(scorer.predict_scores(pld.features)[None], pld)
        assert select_final_cluster(one_way_table([0, 1, 2]), entropy)[0, 0] == 1

    def test_tie_breaks_by_candidate_order(self):
        pld = make_pld([3, 3, 3])
        scorer = TableScorer(np.zeros(9, dtype=int), 2)  # all entropies zero
        entropy = cluster_entropy(scorer.predict_scores(pld.features)[None], pld)
        assert select_final_cluster(one_way_table([2, 0, 1]), entropy)[0, 0] == 2

    def test_batch_equals_loop_over_tasks_and_ways(self):
        # entropies from {0, 1, 2} tie often; a NaN outside every
        # candidate list is never read
        tasks, ways, k, candidates = 4, 3, 8, 4
        ties = 0
        for seed in range(20):
            rng = make_rng(seed)
            entropy = rng.integers(0, 3, size=(tasks, k)).astype(float)
            table = np.argsort(rng.random((tasks, ways, k - 1)), axis=-1)[..., :candidates]
            entropy[:, k - 1] = np.nan
            got = select_final_cluster(table, entropy)
            assert got.shape == (tasks, ways)
            for t in range(tasks):
                for way in range(ways):
                    values = entropy[t, table[t, way]]
                    ties += int(np.sum(values == values.max()) > 1)
                    assert got[t, way] == table[t, way][np.argmax(values)]
        assert ties > 0

    def test_batch_refuses_nan_candidate_like_the_loop(self):
        rng = make_rng(3)
        entropy = rng.random((2, 6))
        table = np.argsort(rng.random((2, 3, 6)), axis=-1)[..., :2]
        entropy[1, table[1, 2, 1]] = np.nan
        with pytest.raises(ParameterError, match="at least one member"):
            select_final_cluster(table, entropy)

    def test_matches_bruteforce_oracle(self):
        rng = make_rng(1)
        pld = make_pld([5] * 6)
        labels = rng.integers(0, 3, size=30)
        scorer = TableScorer(labels, 3)
        for _ in range(20):
            candidates = rng.choice(6, size=4, replace=False).tolist()
            entropy = cluster_entropy(scorer.predict_scores(pld.features)[None], pld)
            chosen = select_final_cluster(one_way_table(candidates), entropy)[0, 0]
            oracle = [
                entropies(scorer.predict_scores(pld.features[pld.members[c]]), make_pld([5]))[0]
                for c in candidates
            ]
            assert chosen == candidates[int(np.argmax(oracle))]


class TestFilterNoisy:
    def test_keep_count_floor(self):
        scores = np.linspace(0, 1, 10)[:, None] * np.array([1.0, 0.0])
        kept = filter_noisy(log_softmax(scores)[:, 0], 0.75)
        assert kept.size == 7  # floor(0.75 * 10)

    def test_equal_scores_keep_lowest_original_indices(self):
        kept = filter_noisy(log_softmax(np.tile([0.5, 0.5], (8, 1)))[:, 0], 0.75)
        assert kept.tolist() == [0, 1, 2, 3, 4, 5]

    def test_hand_sorted_example(self):
        # way-0 logits whose softmax ordering is 0.9 > 0.7 > 0.5 > 0.1
        rows = np.array([[0.9, 0.0], [0.1, 0.0], [0.5, 0.0], [0.7, 0.0]])
        kept = filter_noisy(log_softmax(rows)[:, 0], 0.75)
        assert kept.tolist() == [0, 3, 2]

    def test_scores_non_increasing_and_subset(self):
        rows = make_rng(2).normal(size=(12, 3))
        kept = filter_noisy(log_softmax(rows)[:, 1], 0.5)
        assert set(kept.tolist()) <= set(range(12))
        probs = np.exp(rows[kept]) / np.exp(rows[kept]).sum(axis=1, keepdims=True)
        way1 = probs[:, 1]
        assert all(a >= b - 1e-12 for a, b in zip(way1, way1[1:]))


class TestProgressiveTask:
    def make_setup(self, sizes=(10, 10, 10, 10), ways=2, labels=None):
        pld = make_pld(list(sizes))
        model = make_cluster_model(pld)
        n = pld.features.shape[0]
        if labels is None:
            labels = make_rng(9).integers(0, ways, size=n)
        scorer = TableScorer(labels, ways)
        return pld, model, scorer

    def test_gate_one_always_standard(self):
        pld, model, scorer = self.make_setup()
        config = EpisodeConfig(ways=2, shots=1, queries=2, candidate_neighbors=2, gate_threshold=1.0)
        rng = make_rng(0)
        for _ in range(50):
            (task,) = sample_task_batch(pld, model, scorer, config, rng, 1)
            assert not task.progressive

    def test_gate_zero_always_progressive(self):
        pld, model, scorer = self.make_setup()
        config = EpisodeConfig(ways=2, shots=1, queries=2, candidate_neighbors=2, gate_threshold=0.0)
        rng = make_rng(1)
        for _ in range(20):
            (task,) = sample_task_batch(pld, model, scorer, config, rng, 1)
            assert task.progressive
            validate_structure(task, pld.features.shape[0])

    def test_single_candidate_forces_unique_neighbor(self):
        # k = ways + 1 clusters and one candidate per base: the query
        # cluster must be the base's single nearest neighbor (or the base
        # itself on fallback)
        from plcfe.cluster import nearest_clusters

        pld, model, scorer = self.make_setup(sizes=(10, 10, 10), ways=2)
        config = EpisodeConfig(
            ways=2, shots=1, queries=2, candidate_neighbors=1, gate_threshold=0.0
        )
        rng = make_rng(2)
        for _ in range(20):
            (task,) = sample_task_batch(pld, model, scorer, config, rng, 1)
            for prov in task.provenance:
                expected = int(nearest_clusters(model, prov.base_cluster, 1)[0])
                if prov.fallback:
                    assert prov.query_cluster == prov.base_cluster
                else:
                    assert prov.query_cluster == expected

    def test_seeded_replay_identical(self):
        pld, model, scorer = self.make_setup()
        config = EpisodeConfig(ways=2, shots=1, queries=2, candidate_neighbors=2, gate_threshold=0.5)
        (t1,) = sample_task_batch(pld, model, scorer, config, make_rng(3), 1)
        (t2,) = sample_task_batch(pld, model, scorer, config, make_rng(3), 1)
        assert np.array_equal(t1.support, t2.support)
        assert np.array_equal(t1.query, t2.query)
        assert t1.provenance == t2.provenance

    def test_queries_come_from_filtered_set(self):
        pld, model, scorer = self.make_setup()
        config = EpisodeConfig(
            ways=2, shots=1, queries=2, candidate_neighbors=2, gate_threshold=0.0,
            keep_rate=0.75,
        )
        rng = make_rng(4)
        for _ in range(30):
            (task,) = sample_progressive_batch(pld, model, scorer, config, rng, 1)
            for way, prov in enumerate(task.provenance):
                if prov.fallback:
                    pool = pld.members[prov.base_cluster]
                else:
                    members = pld.members[prov.query_cluster]
                    way_scores = log_softmax(scorer.predict_scores(pld.features[members]))[:, way]
                    pool = members[filter_noisy(way_scores, 0.75)]
                assert set(task.query[way].tolist()) <= set(pool.tolist())

    def test_filter_ranks_saturated_probabilities_by_log_probability(self):
        # every row scores way 0 ahead by 40 + j for j = position % 10, so
        # each way-0 softmax probability rounds to exactly 1.0; the
        # log-probabilities still rank j = 5..9 above j = 0..4
        pld = make_pld([10, 10, 10])
        model = make_cluster_model(pld)
        margin = 40.0 + np.arange(30) % 10
        scorer = RowScorer(np.stack([np.zeros(30), -margin], axis=1))
        assert (np.exp(log_softmax(scorer.rows))[:, 0] == 1.0).all()
        config = EpisodeConfig(
            ways=2, shots=1, queries=2, candidate_neighbors=1, keep_rate=0.5
        )
        checked = 0
        for seed in range(10):
            (task,) = sample_progressive_batch(pld, model, scorer, config, make_rng(seed), 1)
            if not task.provenance[0].fallback:
                assert (task.query[0] % 10 >= 5).all()
                checked += 1
        assert checked > 0

    def test_fallback_on_overfiltering(self):
        # all members of every candidate score to way 1, so way 0's pool
        # empties once the keep cut is applied and queries revert to base
        pld = make_pld([8, 8, 8])
        model = make_cluster_model(pld)
        scorer = TableScorer(np.ones(24, dtype=int), 2)
        config = EpisodeConfig(
            ways=2, shots=1, queries=6, candidate_neighbors=1, gate_threshold=0.0,
            keep_rate=0.6,
        )
        (task,) = sample_progressive_batch(pld, model, scorer, config, make_rng(5), 1)
        assert any(p.fallback for p in task.provenance)
        for way, prov in enumerate(task.provenance):
            if prov.fallback:
                assert prov.query_cluster == prov.base_cluster
        validate_structure(task, pld.features.shape[0])

    def test_needs_more_clusters_than_candidates(self):
        pld, model, scorer = self.make_setup(sizes=(10, 10))
        config = EpisodeConfig(ways=2, shots=1, queries=2, candidate_neighbors=2)
        with pytest.raises(ParameterError):
            sample_progressive_batch(pld, model, scorer, config, make_rng(0), 1)

    def test_empty_cluster_only_refused_as_candidate(self):
        # cluster 3 has no members; its center is nearest to cluster 0's
        pld = make_pld([10, 10, 10, 0])
        centers = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.9, 0.1]])
        model = ClusterModel(4, centers, pld.pseudo_labels, 0.0)
        scorer = TableScorer(make_rng(9).integers(0, 2, size=30), 2)
        config = EpisodeConfig(ways=2, shots=1, queries=2, candidate_neighbors=1)
        with pytest.raises(ParameterError, match="at least one member"):
            for seed in range(20):
                sample_progressive_batch(pld, model, scorer, config, make_rng(seed), 4)
        # an empty cluster least similar to every base is never a candidate
        centers = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -1.0, -1.0]])
        model = ClusterModel(4, centers, pld.pseudo_labels, 0.0)
        config = EpisodeConfig(ways=2, shots=1, queries=2, candidate_neighbors=2)
        for seed in range(20):
            for task in sample_progressive_batch(pld, model, scorer, config, make_rng(seed), 4):
                validate_structure(task, 30)

    def test_gate_fraction_concentrates(self):
        pld, model, scorer = self.make_setup()
        config = EpisodeConfig(
            ways=2, shots=1, queries=1, candidate_neighbors=2, gate_threshold=0.7
        )
        rng = make_rng(6)
        draws = 4000
        progressive = sum(
            sample_task_batch(pld, model, scorer, config, rng, 1)[0].progressive
            for _ in range(draws)
        )
        p = 0.3
        sigma = math.sqrt(draws * p * (1 - p))
        assert abs(progressive - draws * p) < 3 * sigma

    def test_one_gate_draw_per_batch(self):
        pld, model, scorer = self.make_setup()
        config = EpisodeConfig(ways=2, shots=1, queries=1, candidate_neighbors=2, gate_threshold=0.5)
        rng = make_rng(7)
        kinds = set()
        for _ in range(40):
            batch = sample_task_batch(pld, model, scorer, config, rng, 4)
            assert len(batch) == 4
            assert len({task.progressive for task in batch}) == 1
            kinds.add(batch[0].progressive)
        assert kinds == {False, True}

    def test_no_eval_model_draws_no_gate(self):
        pld, model, _ = self.make_setup()
        config = EpisodeConfig(ways=2, shots=1, queries=2, candidate_neighbors=2, gate_threshold=0.0)
        batch = sample_task_batch(pld, model, None, config, make_rng(8), 3)
        rng = make_rng(8)
        plain = [sample_standard_task(pld, config, rng) for _ in range(3)]
        for got, want in zip(batch, plain):
            assert not got.progressive
            assert np.array_equal(got.support, want.support)
            assert np.array_equal(got.query, want.query)


def support_first_reference(pld, cluster_model, eval_model, config, rng, count):
    """Reference sampler: draws the bases and supports of all count tasks
    first, as the stacked sampler does, then builds each task alone with
    reference_task."""
    bases, picks = draw_episodes(pld, config.ways, config.shots + config.queries, rng, count)
    return [
        reference_task(pld, cluster_model, eval_model, config, rng, task_bases, task_picks)
        for task_bases, task_picks in zip(bases, picks)
    ]


def reference_task(pld, cluster_model, eval_model, config, rng, bases, picks):
    """One task the slow way: finetunes the model on this task's support
    only, scores each candidate cluster's members with their own forward
    pass, then the chosen cluster's again for the filter, and tracks used
    samples in sets."""
    support = picks[:, : config.shots]
    support_flat = support.reshape(-1)
    adapted = eval_model.finetuned(
        pld.features[support_flat], np.repeat(np.arange(config.ways), config.shots)
    )

    def entropy(members):
        labels = np.argmax(adapted.predict_scores(pld.features[members]), axis=1)
        probs = np.bincount(labels, minlength=config.ways) / members.size
        return float(-np.sum(probs[probs > 0] * np.log(probs[probs > 0])))

    all_support = set(support_flat.tolist())
    used = set(support_flat.tolist())
    query = np.empty((config.ways, config.queries), dtype=np.int64)
    provenance = []
    for way, base in enumerate(bases):
        candidates = nearest_clusters(cluster_model, int(base), config.candidate_neighbors)
        final = int(candidates[int(np.argmax([entropy(pld.members[c]) for c in candidates]))])
        members = pld.members[final]
        way_probs = log_softmax(adapted.predict_scores(pld.features[members]))[:, way]
        kept = members[np.argsort(-way_probs, kind="stable")][
            : int(np.floor(config.keep_rate * members.size))
        ]
        pool = np.array([i for i in kept if i not in used], dtype=np.int64)
        fallback = kept.size < config.queries or pool.size < config.queries
        if fallback:
            pool = np.array([i for i in pld.members[base] if i not in used], dtype=np.int64)
            if pool.size < config.queries:
                pool = np.array(
                    [i for i in pld.members[base] if i not in all_support], dtype=np.int64
                )
        picks = rng.choice(pool, size=config.queries, replace=False)
        query[way] = picks
        used.update(picks.tolist())
        provenance.append(
            WayProvenance(int(base), int(base) if fallback else final, True, fallback)
        )
    return FewShotTask(support=support, query=query, provenance=provenance, progressive=True)


@pytest.mark.parametrize(
    "sizes, config, path",
    [
        ((10,) * 6, EpisodeConfig(ways=3, shots=1, queries=2, candidate_neighbors=3), "filtered"),
        ((8,) * 5, EpisodeConfig(ways=2, shots=1, queries=5, candidate_neighbors=2), "fallback"),
        (
            (4,) * 5,
            EpisodeConfig(ways=4, shots=1, queries=3, candidate_neighbors=2, keep_rate=0.9),
            "reuse",
        ),
    ],
)
def test_matches_per_candidate_reference(sizes, config, path):
    """A batch finetuned and scored as one stack gives the support-first
    reference's tasks, for batches of 1 and 4 tasks."""
    reached = {1: 0, 4: 0}
    for seed in range(60):
        for count in reached:
            pld = make_pld(list(sizes))
            rng = make_rng(seed)
            model = ClusterModel(
                k=len(sizes),
                centers=rng.normal(size=(len(sizes), 3)),
                assignment=pld.pseudo_labels,
                inertia=0.0,
            )
            # the support-dependent shift makes a task scored with another
            # task's finetuned model pick other clusters and members
            scorer = RowScorer(rng.normal(size=(pld.features.shape[0], config.ways)), shift=0.01)
            got = sample_progressive_batch(pld, model, scorer, config, make_rng(seed), count)
            want = support_first_reference(pld, model, scorer, config, make_rng(seed), count)
            assert len(got) == len(want) == count
            for task, expected in zip(got, want):
                assert np.array_equal(task.support, expected.support)
                assert np.array_equal(task.query, expected.query)
                assert task.provenance == expected.provenance
                fallbacks = [p.fallback for p in task.provenance]
                reached[count] += {
                    "filtered": not all(fallbacks),
                    "fallback": any(fallbacks),
                    "reuse": np.unique(task.query).size < task.query.size,
                }[path]
    assert all(reached.values()), f"not every batch size reached the {path} path: {reached}"


class TestTaskCsv:
    def test_dump_columns(self, tmp_path):
        task = FewShotTask(
            support=np.array([[0], [3]]),
            query=np.array([[1], [4]]),
            provenance=[WayProvenance(0, 2, True), WayProvenance(1, 1, True, fallback=True)],
            progressive=True,
        )
        path = tmp_path / "tasks.csv"
        write_tasks_csv([task], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "task_id,role,way,sample_index,source_cluster,progressive_flag"
        assert "0,support,0,0,0,1" in lines
        assert "0,query,0,1,2,1" in lines
        assert "0,query,1,4,1,1" in lines
