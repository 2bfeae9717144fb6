import numpy as np
import pytest

from plcfe.episodes import FewShotTask, WayProvenance
from plcfe.errors import NumericError, ParameterError, StateError
from plcfe.metalearn import (
    EVAL_BLOCK_TASKS,
    FewShotModel,
    MamlConfig,
    evaluate_fewshot,
    init_fewshot_model,
    load_model,
    maml_inner_adapt,
    maml_meta_gradient,
    maml_meta_step,
    model_loss_and_grad,
    model_scores,
    model_with_vector,
    proto_classify,
    proto_loss_and_grad,
    proto_meta_step,
    save_model,
    sgd_steps,
    snapshot_eval_model,
)
from plcfe.numcore import (
    MlpParams,
    finite_diff_check,
    make_rng,
    mlp_forward,
    params_to_vector,
    vector_to_params,
)


def make_task(support, query):
    support = np.asarray(support)
    query = np.asarray(query)
    provenance = [WayProvenance(w, w, False) for w in range(support.shape[0])]
    return FewShotTask(support=support, query=query, provenance=provenance)


def toy_model(seed=0, input_dim=2, ways=2):
    return init_fewshot_model(
        input_dim, ways, MamlConfig(encoder_hidden=(4,), encoder_dim=3), make_rng(seed)
    )


class TestSgdSteps:
    def test_quadratic_one_step(self):
        theta = sgd_steps(lambda t: (float(t[0] ** 2), 2 * t), np.array([1.0]), 0.1, 1)
        assert theta[0] == pytest.approx(0.8, abs=1e-15)

    def test_quadratic_two_steps(self):
        theta = sgd_steps(lambda t: (float(t[0] ** 2), 2 * t), np.array([1.0]), 0.1, 2)
        assert theta[0] == pytest.approx(0.64, abs=1e-15)


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

    def test_loss_gradient_matches_finite_differences(self):
        model = init_fewshot_model(
            3, 2, MamlConfig(encoder_hidden=(4,), encoder_dim=3, activation="tanh"), make_rng(4)
        )
        x = make_rng(5).normal(size=(6, 3))
        y = np.array([0, 1, 0, 1, 0, 1])

        def fn(vec):
            return model_loss_and_grad(model_with_vector(model, vec), x, y)

        assert finite_diff_check(fn, model.vector, eps=1e-6) < 1e-6

    def test_adaptation_decreases_support_loss_on_convex_toy(self):
        # single linear layer in its linear regime: convex logistic problem
        encoder = MlpParams([(np.eye(2), np.array([5.0, 5.0]))], "relu")
        model = FewShotModel(encoder, np.array([[0.1, 0.0], [0.0, 0.1]]), np.zeros(2))
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
            q_idx, q_way = task.query_pairs()
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

        encoder = MlpParams([(np.array([[w]]), np.array([b]))], "relu")
        model = FewShotModel(encoder, u[:, None].copy(), v.copy())
        features = np.array([[xs], [xq]])

        def support_fn(vec):
            return model_loss_and_grad(
                model_with_vector(model, vec), features[[0]], np.array([ys])
            )

        theta = sgd_steps(support_fn, model.vector, alpha, 1)
        _, meta = model_loss_and_grad(
            model_with_vector(model, theta), features[[1]], np.array([yq])
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
    return init_fewshot_model(
        input_dim, ways, MamlConfig(encoder_hidden=(8,), encoder_dim=4), make_rng(seed)
    )


class TestStackedTasks:
    """The task-stacked inner loop against a per-task loop written here."""

    config = MamlConfig(inner_lr=0.1, inner_steps=3)

    def looped_accuracy(self, model, features, task):
        s_idx, s_way = task.support_pairs()
        q_idx, q_way = task.query_pairs()
        adapted = maml_inner_adapt(
            model, features[s_idx], s_way, self.config.inner_lr, self.config.inner_steps
        )
        return np.mean(np.argmax(model_scores(adapted, features[q_idx]), axis=1) == q_way)

    @pytest.mark.parametrize("shots", [1, 5])
    @pytest.mark.parametrize("n_tasks", [1, 2 * EVAL_BLOCK_TASKS + 5])
    def test_evaluate_matches_per_task_loop(self, shots, n_tasks):
        model = stack_model()
        features = make_rng(21).normal(size=(200, 6))
        tasks = random_tasks(n_tasks, 200, shots=shots, seed=22)
        result = evaluate_fewshot(model, features, tasks, method="maml", config=self.config)
        expected = [self.looped_accuracy(model, features, task) for task in tasks]
        assert np.array_equal(result.per_task, expected)

    def test_meta_gradient_is_exact_mean_of_task_gradients(self):
        model = stack_model(seed=23)
        features = make_rng(24).normal(size=(200, 6))
        tasks = random_tasks(4, 200, shots=2, seed=25)
        meta_grad, mean_loss = maml_meta_gradient(model, features, tasks, self.config)
        total, total_loss = np.zeros_like(model.vector), 0.0
        for task in tasks:
            s_idx, s_way = task.support_pairs()
            q_idx, q_way = task.query_pairs()
            adapted = maml_inner_adapt(
                model, features[s_idx], s_way, self.config.inner_lr, self.config.inner_steps
            )
            loss, grad = model_loss_and_grad(adapted, features[q_idx], q_way)
            total += grad
            total_loss += loss
        assert np.array_equal(meta_grad, total / 4)
        assert mean_loss == total_loss / 4

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
            evaluate_fewshot(stack_model(), features, tasks, method="maml", config=self.config)
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
            2, 2, MamlConfig(encoder_hidden=(4,), encoder_dim=3, activation="tanh"), make_rng(1)
        )
        rng = make_rng(2)
        xs, xq = rng.normal(size=(4, 2)), rng.normal(size=(6, 2))
        ys, yq = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1, 0, 1])

        def fn(vec):
            m = FewShotModel(vector_to_params(vec, model.encoder), model.head_w, model.head_b)
            return proto_loss_and_grad(m, xs, ys, xq, yq)

        assert finite_diff_check(fn, params_to_vector(model.encoder), eps=1e-6) < 1e-6

    def test_proto_meta_step_decreases_loss_on_fixed_batch(self):
        model = toy_model(seed=3)
        rng = make_rng(4)
        features = np.vstack([rng.normal(size=(10, 2)) - 5, rng.normal(size=(10, 2)) + 5])
        task = make_task([[0, 1], [10, 11]], [[2, 3, 4], [12, 13, 14]])
        m, loss0 = proto_meta_step(model, features, [task], lr=0.05)
        for _ in range(20):
            m, loss = proto_meta_step(m, features, [task], lr=0.05)
        assert loss < loss0

    def test_head_untouched(self):
        model = toy_model(seed=5)
        features = make_rng(6).normal(size=(12, 2))
        task = make_task([[0], [1]], [[2, 3], [4, 5]])
        stepped, _ = proto_meta_step(model, features, [task], lr=0.1)
        assert np.array_equal(stepped.head_w, model.head_w)
        assert np.array_equal(stepped.head_b, model.head_b)


class TestEvaluate:
    def constant_model(self, ways=5):
        # zero encoder output and zero head: constant equal scores
        encoder = MlpParams([(np.zeros((3, 2)), np.zeros(3))], "relu")
        return FewShotModel(encoder, np.zeros((ways, 3)), np.zeros(ways))

    def balanced_tasks(self, n_tasks, ways=5, queries=3, seed=0):
        rng = make_rng(seed)
        tasks = []
        for _ in range(n_tasks):
            support = rng.integers(0, 100, size=(ways, 1))
            query = rng.integers(0, 100, size=(ways, queries))
            tasks.append(make_task(support, query))
        return tasks

    def test_constant_model_scores_chance(self):
        model = self.constant_model()
        features = make_rng(1).normal(size=(100, 2))
        tasks = self.balanced_tasks(200)
        result = evaluate_fewshot(model, features, tasks, method="maml", adapt=False)
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
        result = evaluate_fewshot(model, features, tasks, method="maml", adapt=True, config=config)
        assert result.mean_accuracy == 1.0
        proto_result = evaluate_fewshot(model, features, tasks, method="proto")
        assert proto_result.mean_accuracy == 1.0

    def test_fixed_seed_replay(self):
        model = toy_model(seed=4)
        features = make_rng(5).normal(size=(100, 2))
        r1 = evaluate_fewshot(model, features, self.balanced_tasks(50, ways=2, seed=7), method="maml")
        r2 = evaluate_fewshot(model, features, self.balanced_tasks(50, ways=2, seed=7), method="maml")
        assert r1.mean_accuracy == r2.mean_accuracy and r1.ci95 == r2.ci95

    def test_ci_shrinks_with_task_count(self):
        # pass-through model: scores follow the input coordinates, so
        # per-task accuracy varies and the half-width is meaningful
        encoder = MlpParams([(np.eye(2), np.array([10.0, 10.0]))], "relu")
        model = FewShotModel(encoder, np.eye(2), np.zeros(2))
        features = make_rng(9).normal(size=(100, 2))
        small = evaluate_fewshot(model, features, self.balanced_tasks(50, ways=2, seed=10), method="maml", adapt=False)
        large = evaluate_fewshot(model, features, self.balanced_tasks(800, ways=2, seed=10), method="maml", adapt=False)
        assert 0.0 <= large.mean_accuracy <= 1.0
        assert small.ci95 > 0.0
        # 16x the tasks should shrink the half-width by about 4x
        assert large.ci95 < small.ci95 / 2.5

    def test_needs_tasks(self):
        with pytest.raises(ParameterError):
            evaluate_fewshot(toy_model(), np.zeros((1, 2)), [], method="maml")


class TestSnapshots:
    def test_snapshot_survives_later_training(self):
        model = toy_model(seed=11)
        snap = snapshot_eval_model(model, epoch=3, method="maml", inner_lr=0.05)
        frozen = snap.model.vector.copy()
        model.head_w += 1.0  # mutate the live model
        assert np.array_equal(snap.model.vector, frozen)
        assert snap.epoch == 3

    def test_maml_snapshot_scores_and_finetunes(self):
        model = toy_model(seed=12)
        snap = snapshot_eval_model(model, epoch=0, method="maml", inner_lr=0.1)
        x = make_rng(13).normal(size=(6, 2))
        assert np.array_equal(snap.predict_scores(x), model_scores(model, x))
        tuned = snap.finetuned(x, np.array([0, 1, 0, 1, 0, 1]))
        assert tuned is not snap
        assert tuned.predict_scores(x).shape == (6, 2)

    def test_proto_snapshot_requires_finetune(self):
        model = toy_model(seed=14)
        snap = snapshot_eval_model(model, epoch=0, method="proto")
        x = make_rng(15).normal(size=(4, 2))
        with pytest.raises(StateError):
            snap.predict_scores(x)
        tuned = snap.finetuned(x, np.array([0, 0, 1, 1]))
        assert tuned.predict_scores(x).shape == (4, 2)

    def test_proto_snapshot_scores_match_proto_classify(self):
        model = toy_model(seed=17)
        snap = snapshot_eval_model(model, epoch=0, method="proto")
        rng = make_rng(18)
        support, queries = rng.normal(size=(4, 2)), rng.normal(size=(5, 2))
        labels = np.array([0, 1, 0, 1])
        expected = proto_classify(
            mlp_forward(model.encoder, support), labels, mlp_forward(model.encoder, queries)
        )
        tuned = snap.finetuned(support, labels)
        assert np.array_equal(tuned.predict_scores(queries), expected)
        with pytest.raises(StateError):
            snap.predict_scores(queries)  # finetuning left the snapshot unscored

    def test_serialize_round_trip_bit_identical(self, tmp_path):
        model = toy_model(seed=16)
        snap = snapshot_eval_model(model, epoch=1, method="maml", inner_lr=0.05)
        p1, p2 = tmp_path / "a.plcf", tmp_path / "b.plcf"
        save_model(snap.model, p1)
        back = load_model(p1)
        save_model(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(back.vector, snap.model.vector)
