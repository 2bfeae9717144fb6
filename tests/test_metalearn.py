import warnings

import numpy as np
import pytest

from plcfe import metalearn
from plcfe.cluster import assign_pseudo_labels, kmeans
from plcfe.episodes import EpisodeConfig, FewShotTask, WayProvenance, way_pairs
from plcfe.errors import NumericError, ParameterError, StateError
from plcfe.metalearn import (
    EVAL_BLOCK_TASKS,
    MamlConfig,
    evaluate_fewshot,
    init_fewshot_model,
    maml_inner_adapt,
    maml_meta_gradient,
    maml_meta_step,
    model_loss_and_grad,
    proto_loss_and_grad,
    proto_meta_step,
    snapshot_eval_model,
    way_prototypes,
)
from plcfe.numcore import (
    KIND_FEWSHOT_MODEL,
    MlpParams,
    mlp_forward,
    params_to_vector,
    read_network,
    vector_to_params,
    write_network,
)

from helpers import finite_diff_check, make_rng, proto_classify


def make_task(support, query):
    support = np.asarray(support)
    query = np.asarray(query)
    provenance = [WayProvenance(w, w, False) for w in range(support.shape[0])]
    return FewShotTask(support=support, query=query, provenance=provenance)


def task_arrays(tasks):
    """(T, ways, shots) support and (T, ways, queries) query arrays."""
    return np.stack([t.support for t in tasks]), np.stack([t.query for t in tasks])


def toy_model(seed=0, input_dim=2, ways=2):
    """A maml model with a ways-way head; ways None gives a proto model,
    the encoder alone."""
    return init_fewshot_model(
        input_dim, ways, MamlConfig(encoder_hidden=(4,), encoder_dim=3), make_rng(seed)
    )


class TestInnerAdapt:
    def test_original_model_untouched(self):
        model = toy_model()
        before = model.vector.copy()
        x = make_rng(1).normal(size=(4, 2))
        y = np.array([0, 1, 0, 1])
        maml_inner_adapt(model, x, y, 0.1, 3)
        assert np.array_equal(model.vector, before)

    def test_single_step_equals_minus_alpha_gradient(self):
        model = toy_model(seed=2)
        x = make_rng(3).normal(size=(4, 2))
        y = np.array([0, 1, 1, 0])
        _, grad = model_loss_and_grad(model, x, y)
        adapted = maml_inner_adapt(model, x, y, 0.05, 1)
        expected = model.vector - 0.05 * grad
        assert np.allclose(adapted.vector, expected, atol=0)

    def test_second_step_uses_gradient_at_first_step(self):
        model = toy_model(seed=2)
        x = make_rng(3).normal(size=(4, 2))
        y = np.array([0, 1, 1, 0])
        expected = model.vector
        for _ in range(2):
            _, grad = model_loss_and_grad(vector_to_params(expected, model), x, y)
            expected = expected - 0.05 * grad
        adapted = maml_inner_adapt(model, x, y, 0.05, 2)
        assert np.array_equal(adapted.vector, expected)

    def test_loss_gradient_matches_finite_differences(self):
        model = init_fewshot_model(
            3, 2, MamlConfig(encoder_hidden=(4,), encoder_dim=3, activation="tanh"), make_rng(4)
        )
        x = make_rng(5).normal(size=(6, 3))
        y = np.array([0, 1, 0, 1, 0, 1])

        def fn(vec):
            return model_loss_and_grad(vector_to_params(vec, model), x, y)

        assert finite_diff_check(fn, model.vector, eps=1e-6) < 1e-6

    def test_adaptation_decreases_support_loss_on_convex_toy(self):
        # single linear layer in its linear regime: convex logistic problem
        model = MlpParams([(np.eye(2), np.array([5.0, 5.0])), (np.array([[0.1, 0.0], [0.0, 0.1]]), np.zeros(2))],
                          "relu")
        x = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.3], [0.3, 2.0]])
        y = np.array([0, 1, 0, 1])
        loss0, _ = model_loss_and_grad(model, x, y)
        adapted = maml_inner_adapt(model, x, y, 1e-3, 5)
        loss1, _ = model_loss_and_grad(adapted, x, y)
        assert loss1 < loss0

    def test_empty_support_is_error(self):
        with pytest.raises(ParameterError):
            maml_inner_adapt(toy_model(), np.zeros((0, 2)), np.zeros(0, dtype=int), 0.1, 1)


class TestMetaStep:
    def test_empty_batch_leaves_model(self):
        model = toy_model()
        out, loss = maml_meta_step(model, np.zeros((1, 2)), [], MamlConfig())
        assert out is model
        assert np.isnan(loss)

    def test_zero_inner_lr_reduces_to_query_training(self):
        model = toy_model(seed=6)
        rng = make_rng(7)
        features = rng.normal(size=(20, 2))
        tasks = [
            make_task([[0], [1]], [[2, 3], [4, 5]]),
            make_task([[6], [7]], [[8, 9], [10, 11]]),
        ]
        config = MamlConfig(inner_lr=0.0, inner_steps=3)
        meta_grad, _ = maml_meta_gradient(model, features, tasks, config)
        expected = np.zeros_like(meta_grad)
        for task in tasks:
            q_idx, q_way = way_pairs(task.query)
            _, g = model_loss_and_grad(model, features[q_idx], q_way)
            expected += g
        assert np.allclose(meta_grad, expected / 2, atol=1e-15)

    def test_first_order_meta_gradient_hand_derived_linear_model(self):
        # one-dimensional linear model kept in relu's linear regime:
        # encoder h = w*x + b (all pre-activations positive), head logits
        # z_c = u_c*h + v_c, one support point, one query point, one inner
        # step. The chain is worked out with explicit softmax formulas.
        w, b = 2.0, 1.0
        u = np.array([0.5, -0.25])
        v = np.array([0.1, 0.2])
        xs, ys = 1.5, 0
        xq, yq = 2.5, 1
        alpha = 0.01

        def hand_grads(w, b, u, v, x, y):
            h = w * x + b
            z = u * h + v
            p = np.exp(z - z.max())
            p = p / p.sum()
            d = p.copy()
            d[y] -= 1.0
            g_u = d * h
            g_v = d.copy()
            g_h = float(d @ u)
            return g_h * x, g_h, g_u, g_v

        gw, gb, gu, gv = hand_grads(w, b, u, v, xs, ys)
        w1, b1 = w - alpha * gw, b - alpha * gb
        u1, v1 = u - alpha * gu, v - alpha * gv
        hand_meta = hand_grads(w1, b1, u1, v1, xq, yq)

        model = MlpParams([(np.array([[w]]), np.array([b])), (u[:, None].copy(), v.copy())],
                          "relu")
        features = np.array([[xs], [xq]])

        _, support_grad = model_loss_and_grad(model, features[[0]], np.array([ys]))
        theta = model.vector - alpha * support_grad
        _, meta = model_loss_and_grad(
            vector_to_params(theta, model), features[[1]], np.array([yq])
        )
        expected = np.concatenate(
            [np.atleast_1d(g).ravel() for g in hand_meta]
        )  # order: w, b, u, v matches the flat layout
        assert np.allclose(meta, expected, atol=1e-8)

        # the same chain via the meta-gradient entry point, using a
        # one-way task whose query label is therefore 0
        task = FewShotTask(
            support=np.array([[0]]),
            query=np.array([[1]]),
            provenance=[WayProvenance(0, 0, False)],
        )
        config = MamlConfig(inner_lr=alpha, inner_steps=1)
        meta_grad, _ = maml_meta_gradient(model, features, [task], config)
        hand_meta0 = hand_grads(w1, b1, u1, v1, xq, 0)
        expected0 = np.concatenate([np.atleast_1d(g).ravel() for g in hand_meta0])
        assert np.allclose(meta_grad, expected0, atol=1e-8)

    def test_meta_step_applies_outer_lr(self):
        model = toy_model(seed=10)
        features = make_rng(11).normal(size=(12, 2))
        tasks = [make_task([[0], [1]], [[2, 3], [4, 5]])]
        config = MamlConfig(outer_lr=0.5)
        grad, _ = maml_meta_gradient(model, features, tasks, config)
        stepped, _ = maml_meta_step(model, features, tasks, config)
        assert np.allclose(
            stepped.vector, model.vector - 0.5 * grad, atol=0
        )


def random_tasks(n_tasks, n_samples, ways=5, shots=1, queries=3, seed=0):
    rng = make_rng(seed)
    tasks = []
    for _ in range(n_tasks):
        picks = rng.choice(n_samples, size=ways * (shots + queries), replace=False)
        picks = picks.reshape(ways, shots + queries)
        tasks.append(make_task(picks[:, :shots], picks[:, shots:]))
    return tasks


def with_nan_rows(features, task, role):
    """features plus fresh all-NaN rows that only task's support or query
    set points at, so no other task reads them."""
    rows = getattr(task, role)
    rows[...] = np.arange(features.shape[0], features.shape[0] + rows.size).reshape(rows.shape)
    return np.vstack([features, np.full((rows.size, features.shape[1]), np.nan)])


def stack_model(seed=20, input_dim=6, ways=5):
    """As toy_model: ways None gives a proto model."""
    return init_fewshot_model(
        input_dim, ways, MamlConfig(encoder_hidden=(8,), encoder_dim=4), make_rng(seed)
    )


class TestStackedTasks:
    """The task-stacked inner loop against a per-task loop written here."""

    config = MamlConfig(inner_lr=0.1, inner_steps=3)

    def looped_accuracy(self, model, features, task, method):
        s_idx, s_way = way_pairs(task.support)
        q_idx, q_way = way_pairs(task.query)
        if method == "proto":
            e_s = mlp_forward(model, features[s_idx])
            scores = proto_classify(e_s, s_way, mlp_forward(model, features[q_idx]))
            return np.mean(np.argmax(scores, axis=1) == q_way)
        adapted = maml_inner_adapt(
            model, features[s_idx], s_way, self.config.inner_lr, self.config.inner_steps
        )
        return np.mean(np.argmax(mlp_forward(adapted, features[q_idx]), axis=1) == q_way)

    def assert_evaluate_matches_loop(self, shots, n_tasks, method):
        model = stack_model(ways=5 if method == "maml" else None)
        features = make_rng(21).normal(size=(200, 6))
        tasks = random_tasks(n_tasks, 200, shots=shots, seed=22)
        result = evaluate_fewshot(snapshot_eval_model(model, method, self.config), features, *task_arrays(tasks))
        expected = [self.looped_accuracy(model, features, task, method) for task in tasks]
        assert np.array_equal(result.per_task, expected)

    @pytest.mark.parametrize("shots", [1, 5])
    @pytest.mark.parametrize("n_tasks", [1, 2 * EVAL_BLOCK_TASKS + 5])
    def test_evaluate_matches_per_task_loop(self, shots, n_tasks):
        self.assert_evaluate_matches_loop(shots, n_tasks, "maml")

    @pytest.mark.parametrize("shots", [1, 5])
    @pytest.mark.parametrize("n_tasks", [1, 2 * EVAL_BLOCK_TASKS + 5])
    def test_proto_evaluate_matches_per_task_loop(self, shots, n_tasks):
        self.assert_evaluate_matches_loop(shots, n_tasks, "proto")

    def test_meta_gradient_is_exact_mean_of_task_gradients(self):
        model = stack_model(seed=23)
        features = make_rng(24).normal(size=(200, 6))
        tasks = random_tasks(4, 200, shots=2, seed=25)
        meta_grad, mean_loss = maml_meta_gradient(model, features, tasks, self.config)
        total, total_loss = np.zeros_like(model.vector), 0.0
        for task in tasks:
            s_idx, s_way = way_pairs(task.support)
            q_idx, q_way = way_pairs(task.query)
            adapted = maml_inner_adapt(
                model, features[s_idx], s_way, self.config.inner_lr, self.config.inner_steps
            )
            loss, grad = model_loss_and_grad(adapted, features[q_idx], q_way)
            total += grad
            total_loss += loss
        assert np.array_equal(meta_grad, total / 4)
        assert mean_loss == total_loss / 4

    def test_proto_meta_step_is_exact_mean_of_task_gradients(self):
        model = stack_model(seed=31, ways=None)
        features = make_rng(32).normal(size=(200, 6))
        tasks = random_tasks(4, 200, shots=2, seed=33)
        stepped, mean_loss = proto_meta_step(model, features, tasks, lr=0.1)
        total, total_loss = np.zeros_like(model.vector), 0.0
        for task in tasks:
            s_idx, s_way = way_pairs(task.support)
            q_idx, q_way = way_pairs(task.query)
            loss, grad = proto_loss_and_grad(model, features[s_idx], s_way, features[q_idx], q_way)
            total += grad
            total_loss += loss
        assert np.array_equal(stepped.vector, model.vector - 0.1 * (total / 4))
        assert mean_loss == total_loss / 4

    def test_stacked_prototypes_match_per_task_calls(self):
        rng = make_rng(34)
        embeddings = rng.normal(size=(3, 6, 4))
        labels = np.array([[0, 1, 0, 1, 2, 2], [2, 0, 1, 1, 0, 2], [1, 2, 0, 0, 2, 1]])
        stacked = way_prototypes(embeddings, labels)
        assert stacked.shape == (3, 3, 4)
        for t in range(3):
            assert np.array_equal(stacked[t], way_prototypes(embeddings[t], labels[t]))

    def test_prototypes_equal_add_at_reference(self):
        # the flat bincount adds each way's rows in the same order as np.add.at
        rng = make_rng(35)
        embeddings = rng.normal(size=(4, 20, 8))
        labels = np.stack([rng.permutation(np.arange(20) % 5) for _ in range(4)])
        stacked = way_prototypes(embeddings, labels)
        for t in range(4):
            sums = np.zeros((5, 8))
            np.add.at(sums, labels[t], embeddings[t])
            assert np.array_equal(stacked[t], sums / np.bincount(labels[t])[:, None])

    def test_stacked_empty_way_names_task(self):
        labels = np.array([[0, 1, 0, 1], [0, 0, 0, 1], [1, 1, 1, 1]])
        with pytest.raises(ParameterError, match="^task 2: way 0 has no support"):
            way_prototypes(np.zeros((3, 4, 2)), labels)

    @pytest.mark.parametrize("role", ["support", "query"])
    def test_meta_gradient_names_non_finite_task(self, role):
        features = make_rng(26).normal(size=(200, 6))
        tasks = random_tasks(4, 200, seed=27)
        features = with_nan_rows(features, tasks[2], role)
        with pytest.raises(NumericError, match="^task 2: non-finite") as info:
            maml_meta_step(stack_model(seed=28), features, tasks, self.config)
        assert info.value.task == 2

    def test_evaluate_names_non_finite_task_beyond_first_block(self):
        features = make_rng(29).normal(size=(300, 6))
        tasks = random_tasks(EVAL_BLOCK_TASKS + 8, 300, seed=30)
        bad = EVAL_BLOCK_TASKS + 3
        features = with_nan_rows(features, tasks[bad], "support")
        with pytest.raises(NumericError, match=f"^task {bad}: non-finite") as info:
            evaluate_fewshot(snapshot_eval_model(stack_model(), "maml", self.config), features, *task_arrays(tasks))
        assert info.value.task == bad


class TestProtoClassify:
    def test_query_at_prototype_wins(self):
        support = np.array([[0.0, 0.0], [1.0, 1.0], [4.0, 4.0], [5.0, 5.0]])
        labels = np.array([0, 0, 1, 1])
        scores = proto_classify(support, labels, np.array([[0.5, 0.5]]))
        assert scores[0, 0] == 0.0
        assert scores[0, 0] > scores[0, 1]

    def test_equidistant_queries_tie(self):
        support = np.array([[0.0, 0.0], [2.0, 0.0]])
        labels = np.array([0, 1])
        scores = proto_classify(support, labels, np.array([[1.0, 5.0]]))
        assert scores[0, 0] == pytest.approx(scores[0, 1])

    def test_hand_computed_distances(self):
        support = np.array([[0.0, 0.0], [2.0, 0.0]])
        labels = np.array([0, 1])
        scores = proto_classify(support, labels, np.array([[0.5, 0.0]]))
        assert np.allclose(scores[0], [-0.25, -2.25])

    def test_translation_invariant_argmax(self):
        rng = make_rng(0)
        support = rng.normal(size=(6, 3))
        labels = np.array([0, 0, 1, 1, 2, 2])
        queries = rng.normal(size=(5, 3))
        base = np.argmax(proto_classify(support, labels, queries), axis=1)
        shift = rng.normal(size=3)
        moved = np.argmax(proto_classify(support + shift, labels, queries + shift), axis=1)
        assert np.array_equal(base, moved)

    def test_empty_way_is_error(self):
        with pytest.raises(ParameterError):
            proto_classify(np.zeros((1, 2)), np.array([1]), np.zeros((1, 2)))


class TestProtoTraining:
    def test_gradient_matches_finite_differences(self):
        model = init_fewshot_model(
            2, None, MamlConfig(encoder_hidden=(4,), encoder_dim=3, activation="tanh"), make_rng(1)
        )
        rng = make_rng(2)
        xs, xq = rng.normal(size=(4, 2)), rng.normal(size=(6, 2))
        ys, yq = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1, 0, 1])

        def fn(vec):
            return proto_loss_and_grad(vector_to_params(vec, model), xs, ys, xq, yq)

        assert finite_diff_check(fn, params_to_vector(model), eps=1e-6) < 1e-6

    def test_proto_meta_step_decreases_loss_on_fixed_batch(self):
        model = toy_model(seed=3, ways=None)
        rng = make_rng(4)
        features = np.vstack([rng.normal(size=(10, 2)) - 5, rng.normal(size=(10, 2)) + 5])
        task = make_task([[0, 1], [10, 11]], [[2, 3, 4], [12, 13, 14]])
        m, loss0 = proto_meta_step(model, features, [task], lr=0.05)
        for _ in range(20):
            m, loss = proto_meta_step(m, features, [task], lr=0.05)
        assert loss < loss0

    def test_overflowing_loss_is_numeric_error_without_warnings(self):
        # the squared distances overflow; the step used to print numpy
        # warnings and return a NaN model, which meta-train then wrote
        model = toy_model(seed=3, ways=None)
        features = 1e200 * make_rng(4).normal(size=(20, 2))
        task = make_task([[0, 1], [10, 11]], [[2, 3, 4], [12, 13, 14]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^task 0: non-finite cross-entropy loss"):
                proto_meta_step(model, features, [task], lr=0.05)

    @pytest.mark.parametrize("method, head", [("maml", [(2, 5)]), ("proto", [])])
    def test_meta_trained_proto_model_is_its_encoder(self, tmp_path, method, head):
        # a prototype classifier has no output layer, in memory or in its
        # checkpoint; a maml model's head comes last
        features = make_rng(7).normal(size=(60, 2))
        cluster_model = kmeans(features, 6, rng=make_rng(8))
        config = MamlConfig(epochs=1, steps_per_epoch=2, encoder_hidden=(4, 3), encoder_dim=5)
        model, _ = metalearn.meta_train(
            assign_pseudo_labels(cluster_model, features), cluster_model,
            EpisodeConfig(ways=2, shots=1, queries=2), config, method=method, rng=make_rng(9),
        )
        encoder = [(4, 2), (3, 4), (5, 3)]
        assert model.shapes == tuple(encoder + head)
        if method == "proto":
            assert len(model.shapes) == len(config.encoder_hidden) + 1
            assert model.output_dim == config.encoder_dim
        write_network(model, KIND_FEWSHOT_MODEL, tmp_path / "meta_model.plcf")
        back = read_network(tmp_path / "meta_model.plcf", KIND_FEWSHOT_MODEL, "a few-shot model")
        assert back.shapes == tuple(encoder + head)


class TestEvaluate:
    def constant_model(self, ways=5):
        # zero encoder output and zero head: constant equal scores
        return MlpParams([(np.zeros((3, 2)), np.zeros(3)), (np.zeros((ways, 3)), np.zeros(ways))],
                         "relu")

    def balanced_tasks(self, n_tasks, ways=5, queries=3, seed=0):
        rng = make_rng(seed)
        tasks = []
        for _ in range(n_tasks):
            support = rng.integers(0, 100, size=(ways, 1))
            query = rng.integers(0, 100, size=(ways, queries))
            tasks.append(make_task(support, query))
        return tasks

    def test_constant_model_gives_chance_accuracy(self):
        model = self.constant_model()
        features = make_rng(1).normal(size=(100, 2))
        tasks = self.balanced_tasks(200)
        result = evaluate_fewshot(snapshot_eval_model(model, "maml", MamlConfig(inner_lr=0.0)), features, *task_arrays(tasks))
        # argmax of equal scores always picks way 0: exactly 1/N per task
        assert result.mean_accuracy == pytest.approx(0.2, abs=1e-12)
        assert result.ci95 == 0.0

    def test_separable_tasks_reach_perfect_accuracy(self):
        rng = make_rng(2)
        centers = np.array([[10.0, 0.0], [0.0, 10.0]])
        features = np.vstack([centers[0] + 0.1 * rng.normal(size=(20, 2)),
                              centers[1] + 0.1 * rng.normal(size=(20, 2))])
        tasks = []
        for _ in range(10):
            s0, s1 = rng.choice(20, 3, replace=False), 20 + rng.choice(20, 3, replace=False)
            q0, q1 = rng.choice(20, 4, replace=False), 20 + rng.choice(20, 4, replace=False)
            tasks.append(make_task(np.stack([s0, s1]), np.stack([q0, q1])))
        model = init_fewshot_model(2, 2, MamlConfig(encoder_hidden=(8,), encoder_dim=4), make_rng(3))
        config = MamlConfig(inner_lr=0.5, inner_steps=50)
        result = evaluate_fewshot(snapshot_eval_model(model, "maml", config), features, *task_arrays(tasks))
        assert result.mean_accuracy == 1.0
        encoder = init_fewshot_model(2, None, MamlConfig(encoder_hidden=(8,), encoder_dim=4), make_rng(3))
        proto_result = evaluate_fewshot(snapshot_eval_model(encoder, "proto", MamlConfig()), features, *task_arrays(tasks))
        assert proto_result.mean_accuracy == 1.0

    def test_fixed_seed_replay(self):
        model = toy_model(seed=4)
        features = make_rng(5).normal(size=(100, 2))
        r1 = evaluate_fewshot(snapshot_eval_model(model, "maml", MamlConfig()), features, *task_arrays(self.balanced_tasks(50, ways=2, seed=7)))
        r2 = evaluate_fewshot(snapshot_eval_model(model, "maml", MamlConfig()), features, *task_arrays(self.balanced_tasks(50, ways=2, seed=7)))
        assert r1.mean_accuracy == r2.mean_accuracy and r1.ci95 == r2.ci95

    def test_ci_shrinks_with_task_count(self):
        # pass-through model: scores follow the input coordinates, so
        # per-task accuracy varies and the half-width is meaningful
        model = MlpParams([(np.eye(2), np.array([10.0, 10.0])), (np.eye(2), np.zeros(2))],
                          "relu")
        features = make_rng(9).normal(size=(100, 2))
        small = evaluate_fewshot(snapshot_eval_model(model, "maml", MamlConfig(inner_lr=0.0)), features, *task_arrays(self.balanced_tasks(50, ways=2, seed=10)))
        large = evaluate_fewshot(snapshot_eval_model(model, "maml", MamlConfig(inner_lr=0.0)), features, *task_arrays(self.balanced_tasks(800, ways=2, seed=10)))
        assert 0.0 <= large.mean_accuracy <= 1.0
        assert small.ci95 > 0.0
        # 16x the tasks should shrink the half-width by about 4x
        assert large.ci95 < small.ci95 / 2.5

    def test_needs_tasks(self):
        with pytest.raises(ParameterError):
            evaluate_fewshot(snapshot_eval_model(toy_model(), "maml", MamlConfig()), np.zeros((1, 2)), np.zeros((0, 2, 1), dtype=int), np.zeros((0, 2, 1), dtype=int))


class TestSnapshots:
    def test_snapshot_survives_later_training(self):
        model = toy_model(seed=11)
        snap = snapshot_eval_model(model, "maml", MamlConfig(inner_lr=0.05))
        frozen = snap.model.vector.copy()
        model.layers[-1][0][...] += 1.0  # mutate the live model
        assert np.array_equal(snap.model.vector, frozen)

    def test_maml_snapshot_scores_and_finetunes(self):
        model = toy_model(seed=12)
        snap = snapshot_eval_model(model, "maml", MamlConfig(inner_lr=0.1))
        x = make_rng(13).normal(size=(6, 2))
        assert np.array_equal(snap.predict_scores(x), mlp_forward(model, x))
        tuned = snap.finetuned(x, np.array([0, 1, 0, 1, 0, 1]))
        assert tuned is not snap
        assert tuned.predict_scores(x).shape == (6, 2)

    def test_proto_snapshot_requires_finetune(self):
        model = toy_model(seed=14, ways=None)
        snap = snapshot_eval_model(model, "proto", MamlConfig())
        x = make_rng(15).normal(size=(4, 2))
        with pytest.raises(StateError):
            snap.predict_scores(x)
        tuned = snap.finetuned(x, np.array([0, 0, 1, 1]))
        assert tuned.predict_scores(x).shape == (4, 2)

    def test_proto_snapshot_scores_match_proto_classify(self):
        model = toy_model(seed=17, ways=None)
        snap = snapshot_eval_model(model, "proto", MamlConfig())
        rng = make_rng(18)
        support, queries = rng.normal(size=(4, 2)), rng.normal(size=(5, 2))
        labels = np.array([0, 1, 0, 1])
        expected = proto_classify(mlp_forward(model, support), labels, mlp_forward(model, queries))
        tuned = snap.finetuned(support, labels)
        assert np.array_equal(tuned.predict_scores(queries), expected)
        with pytest.raises(StateError):
            snap.predict_scores(queries)  # finetuning left the snapshot unscored

    @pytest.mark.parametrize("method", ["maml", "proto"])
    def test_stacked_finetune_equals_single_task_runs(self, method):
        # T supports finetuned as one stack, then every row scored for every
        # task, against each task finetuned and scored alone
        model = stack_model(seed=22, ways=5 if method == "maml" else None)
        snap = snapshot_eval_model(model, method, MamlConfig(inner_lr=0.1))
        rng = make_rng(23)
        features = rng.normal(size=(40, 6))
        support = rng.choice(40, size=(4, 10))
        labels = np.broadcast_to(np.arange(10) % 5, support.shape)
        tuned = snap.finetuned(features[support], labels)
        scores = tuned.predict_scores(np.broadcast_to(features, (4, 40, 6)))
        assert scores.shape == (4, 40, 5)
        assert snap.model.vector.ndim == 1  # the snapshot itself stays unstacked
        for task in range(4):
            alone = snap.finetuned(features[support[task]], labels[task])
            assert np.array_equal(tuned.model.vector[task], alone.model.vector)
            assert np.array_equal(scores[task], alone.predict_scores(features))

    def test_progressive_meta_train_finetunes_once_per_batch(self, monkeypatch):
        calls = []
        finetuned = metalearn.SnapshotEvaluationModel.finetuned

        def counting_finetuned(self, support_x, support_y):
            calls.append(support_x.shape[0])
            return finetuned(self, support_x, support_y)

        monkeypatch.setattr(metalearn.SnapshotEvaluationModel, "finetuned", counting_finetuned)
        features = make_rng(24).normal(size=(60, 2))
        cluster_model = kmeans(features, 6, rng=make_rng(25))
        config = MamlConfig(
            epochs=2, steps_per_epoch=3, meta_batch_size=4, encoder_hidden=(4,), encoder_dim=3
        )
        _, history = metalearn.meta_train(
            assign_pseudo_labels(cluster_model, features), cluster_model,
            EpisodeConfig(ways=2, shots=1, queries=2, candidate_neighbors=2, gate_threshold=0.0),
            config, episode_mode="progressive", rng=make_rng(26),
        )
        # gate 0: every batch of epoch 1 is progressive, one stack of 4 each
        assert history["epoch_progressive_fraction"] == [0.0, 1.0]
        assert calls == [4] * 3

    def test_unknown_method_is_refused(self):
        with pytest.raises(ParameterError, match="unknown method 'bogus'"):
            snapshot_eval_model(toy_model(), "bogus", MamlConfig())

    def test_progressive_meta_train_snapshots_only_before_another_epoch(self, monkeypatch):
        calls = []

        def counting_snapshot(model, method, config):
            calls.append(method)
            return snapshot_eval_model(model, method, config)

        monkeypatch.setattr(metalearn, "snapshot_eval_model", counting_snapshot)
        features = make_rng(19).normal(size=(60, 2))
        cluster_model = kmeans(features, 6, rng=make_rng(20))
        config = MamlConfig(
            epochs=3, steps_per_epoch=2, meta_batch_size=2, encoder_hidden=(4,), encoder_dim=3
        )
        metalearn.meta_train(
            assign_pseudo_labels(cluster_model, features), cluster_model,
            EpisodeConfig(ways=2, shots=1, queries=2), config,
            episode_mode="progressive", rng=make_rng(21),
        )
        assert calls == ["maml", "maml"]

    def test_serialize_round_trip_bit_identical(self, tmp_path):
        model = toy_model(seed=16)
        snap = snapshot_eval_model(model, "maml", MamlConfig(inner_lr=0.05))
        p1, p2 = tmp_path / "a.plcf", tmp_path / "b.plcf"
        write_network(snap.model, KIND_FEWSHOT_MODEL, p1)
        back = read_network(p1, KIND_FEWSHOT_MODEL, "a few-shot model")
        write_network(back, KIND_FEWSHOT_MODEL, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(back.vector, snap.model.vector)
