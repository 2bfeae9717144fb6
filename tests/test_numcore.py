import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from plcfe import cfe
from plcfe.data import AugmentConfig
from plcfe.errors import NumericError, ParameterError, ShapeError, StateError
from plcfe.numcore import (
    MlpParams,
    cross_entropy,
    group_sums,
    init_mlp,
    l2_normalize,
    l2_normalize_backward,
    log_softmax,
    mlp_backward,
    mlp_forward,
    mlp_forward_cached,
    params_to_vector,
    vector_to_params,
)

from helpers import finite_diff_check, make_rng, oracle_forward_backward


def single_layer(w, b, activation="relu"):
    return MlpParams([(np.asarray(w, dtype=float), np.asarray(b, dtype=float))], activation)


class TestMlpForward:
    def test_identity_relu(self):
        # the hidden layer's relu zeroes the negative coordinate, and the
        # last layer passes it on linearly
        params = MlpParams([(np.eye(2), np.zeros(2)), (np.eye(2), np.zeros(2))], "relu")
        assert np.array_equal(mlp_forward(params, np.array([[1.0, -2.0]])), [[1.0, 0.0]])
        assert np.array_equal(mlp_forward(single_layer(np.eye(2), [0.0, 0.0]), np.array([[1.0, -2.0]])),
                              [[1.0, -2.0]])

    def test_zero_weights_give_activated_bias(self):
        rng = make_rng(0)
        params = init_mlp((3, 4, 2), "tanh", rng)
        (w0, b0), (w1, b1) = params.layers
        zeroed = MlpParams([(np.zeros_like(w0), np.array([0.3, -0.7, 0.1, 0.5])), (w1, b1)], "tanh")
        # with zero first-layer weights the last layer sees activation(b)
        # regardless of input, and maps it linearly
        out = mlp_forward(zeroed, rng.normal(size=(5, 3)))
        expected = np.tanh(np.array([0.3, -0.7, 0.1, 0.5])) @ w1.T + b1
        assert np.allclose(out, np.tile(expected, (5, 1)), atol=0)

    def test_matches_elementwise_oracle(self):
        rng = make_rng(7)
        params = init_mlp((3, 5, 4), "tanh", rng)
        x = rng.normal(size=(3, 3))
        out = mlp_forward(params, x)

        def oracle_row(row):
            h = row
            for layer, (w, b) in enumerate(params.layers):
                nxt = np.empty(w.shape[0])
                for i in range(w.shape[0]):
                    acc = b[i]
                    for j in range(w.shape[1]):
                        acc += w[i, j] * h[j]
                    # the last layer is linear
                    nxt[i] = np.tanh(acc) if layer < len(params.layers) - 1 else acc
                h = nxt
            return h

        expected = np.stack([oracle_row(r) for r in x])
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_shape_error(self):
        params = single_layer(np.eye(2), [0.0, 0.0])
        with pytest.raises(ShapeError):
            mlp_forward(params, np.zeros((1, 3)))

    def test_deterministic_given_seed(self):
        a = init_mlp((4, 8, 3), "relu", make_rng(11))
        b = init_mlp((4, 8, 3), "relu", make_rng(11))
        x = make_rng(12).normal(size=(6, 4))
        assert np.array_equal(mlp_forward(a, x), mlp_forward(b, x))


class TestMlpBackward:
    def test_linear_layer_sum_loss(self):
        # positive inputs keep relu in its linear regime
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        params = single_layer([[1.0, 1.0]], [10.0])
        _, cache = mlp_forward_cached(params, x)
        grad = mlp_backward(params, cache, np.ones((3, 1)))
        # flat layout: the weight row, then the bias
        assert np.array_equal(grad, [*x.sum(axis=0), 3.0])

    def test_zero_grad_output(self):
        rng = make_rng(1)
        params = init_mlp((3, 4, 2), "relu", rng)
        x = rng.normal(size=(5, 3))
        _, cache = mlp_forward_cached(params, x)
        grad = mlp_backward(params, cache, np.zeros((5, 2)))
        assert grad.shape == params_to_vector(params).shape
        assert np.all(grad == 0)

    def test_missing_cache_is_state_error(self):
        params = single_layer(np.eye(2), [0.0, 0.0])
        with pytest.raises(StateError):
            mlp_backward(params, None, np.zeros((1, 2)))

    def test_matches_finite_differences(self):
        rng = make_rng(3)
        params = init_mlp((4, 6, 3), "tanh", rng)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))

        def fn(vec):
            p = vector_to_params(vec, params)
            out, cache = mlp_forward_cached(p, x)
            loss = 0.5 * np.sum((out - target) ** 2)
            return loss, mlp_backward(p, cache, out - target)

        assert finite_diff_check(fn, params_to_vector(params), eps=1e-6) < 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_gradcheck_small_random_nets(self, seed, activation):
        # invariant: any random net with <= 3 layers, dims <= 16; random
        # biases keep relu pre-activations away from the exact kink, where
        # no subgradient choice can match finite differences
        rng = make_rng(100 + seed)
        dims = tuple(int(d) for d in rng.integers(2, 17, size=rng.integers(2, 5)))
        params = init_mlp(dims, activation, rng)
        params = MlpParams(
            [(w, rng.normal(0.0, 0.5, size=b.shape)) for w, b in params.layers],
            activation,
        )
        x = rng.normal(size=(4, dims[0]))

        def fn(vec):
            p = vector_to_params(vec, params)
            out, cache = mlp_forward_cached(p, x)
            return float(out.sum()), mlp_backward(p, cache, np.ones_like(out))

        assert finite_diff_check(fn, params_to_vector(params), eps=1e-6) < 1e-4


class TestL2Normalize:
    def test_three_four(self):
        out = l2_normalize(np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_unit_row_unchanged(self):
        row = np.array([[1.0, 0.0, 0.0]])
        assert np.array_equal(l2_normalize(row), row)

    @pytest.mark.parametrize("entry", [1e200, np.inf, np.nan])
    def test_non_finite_norm_is_numeric_error(self, entry):
        # the square of an entry past about 1e154 overflows; the row used to
        # come back as zeros
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="non-finite vector norm"):
            l2_normalize(np.array([[3.0, 4.0], [entry, 1.0]]))

    def test_zero_row_flagged(self):
        out = l2_normalize(np.array([[0.0, 0.0], [3.0, 4.0]]))
        flags = ~np.isclose(np.linalg.norm(out, axis=1), 1.0)
        assert np.array_equal(out[0], [0.0, 0.0])
        assert flags.tolist() == [True, False]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
            min_size=1,
            max_size=8,
        )
    )
    def test_idempotent_and_unit_norm(self, rows):
        x = np.array(rows, dtype=float)
        once = l2_normalize(x)
        norms = np.linalg.norm(once, axis=1)
        nondegenerate = np.linalg.norm(x, axis=1) >= 1e-12
        assert np.allclose(norms[nondegenerate], 1.0, atol=1e-12)
        assert np.allclose(l2_normalize(once), once, atol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = make_rng(5)
        x = rng.normal(size=(3, 4))
        g_out = rng.normal(size=(3, 4))

        def fn(vec):
            v = vec.reshape(3, 4)
            y = l2_normalize(v)
            return float(np.sum(y * g_out)), l2_normalize_backward(v, g_out).reshape(-1)

        assert finite_diff_check(fn, x.reshape(-1), eps=1e-6) < 1e-7


def add_at_group_sums(rows, ids, groups):
    d = rows.shape[-1]
    counts = np.zeros(groups, dtype=np.int64)
    sums = np.zeros((groups, d))
    np.add.at(counts, ids.ravel(), 1)
    np.add.at(sums, ids.ravel(), rows.reshape(-1, d))
    return counts, sums


class TestGroupSums:
    @pytest.mark.parametrize("shape, groups", [((2560, 16), 64), ((640, 16), 32), ((37, 5), 4), ((1, 3), 1)])
    def test_equals_add_at_reference(self, shape, groups):
        rng = make_rng(7)
        for _ in range(10):
            rows = rng.normal(size=shape)
            ids = rng.integers(groups, size=shape[0])
            counts, sums = group_sums(rows, ids, groups)
            ref_counts, ref_sums = add_at_group_sums(rows, ids, groups)
            assert np.array_equal(counts, ref_counts) and np.array_equal(sums, ref_sums)

    def test_stacked_task_way_ids(self):
        # way_prototypes' layout: (T, n, d) rows, one (task, way) group per id
        rng = make_rng(8)
        tasks, n, ways = 6, 25, 5
        rows = rng.normal(size=(tasks, n, 16))
        ids = np.arange(tasks)[:, None] * ways + rng.integers(ways, size=(tasks, n))
        counts, sums = group_sums(rows, ids, tasks * ways)
        ref_counts, ref_sums = add_at_group_sums(rows, ids, tasks * ways)
        assert np.array_equal(counts, ref_counts) and np.array_equal(sums, ref_sums)

    def test_group_without_rows_is_zero(self):
        rows = np.arange(12.0).reshape(4, 3)
        counts, sums = group_sums(rows, np.array([0, 2, 0, 2]), 4)
        assert counts.tolist() == [2, 0, 2, 0]
        assert np.array_equal(sums[[1, 3]], np.zeros((2, 3)))
        assert np.array_equal(sums[0], rows[0] + rows[2])


class TestFiniteDiffCheck:
    def test_quadratic(self):
        err = finite_diff_check(lambda t: (float(t[0] ** 2), 2 * t), np.array([1.0]), eps=1e-5)
        assert err < 1e-9

    def test_constant(self):
        err = finite_diff_check(lambda t: (3.0, np.zeros_like(t)), np.array([0.5, -2.0]))
        assert err == 0.0

    def test_bad_eps(self):
        with pytest.raises(ParameterError):
            finite_diff_check(lambda t: (0.0, t), np.zeros(1), eps=0.0)

    def test_nonfinite_loss(self):
        with pytest.raises(NumericError):
            finite_diff_check(lambda t: (float("nan"), t), np.zeros(2))

    def test_cfe_loss_instance(self):
        # end-to-end through the encoder, normalization, and the ratio loss
        rng = make_rng(9)
        config = cfe.CfeConfig(batch_positives=3, augments_per_point=2, queue_capacity=8)
        pair = cfe.EncoderPair.initialize(4, config, rng)
        augmentation = AugmentConfig(noise_std=1.25, scale_range=(0.9, 1.1))
        batch = cfe.build_positive_batch(rng.normal(size=(10, 4)), config, augmentation, rng)
        queue = cfe.NegativeQueue(8)
        queue.push(l2_normalize(rng.normal(size=(4, config.embed_dim))))

        def fn(vec):
            p = vector_to_params(vec, pair.main)
            test_pair = cfe.EncoderPair(main=p, history=pair.history)
            b = cfe.PositiveBatch(batch.original_indices, batch.augmented)
            cfe.asynchronous_embed(test_pair, b)
            loss, grad_embed = cfe.cfe_loss(b, queue, config)
            grad_raw = l2_normalize_backward(b.main_raw, grad_embed)
            return loss, mlp_backward(p, b.main_cache, grad_raw)

        assert finite_diff_check(fn, params_to_vector(pair.main), eps=1e-6) < 1e-4


def test_params_vector_round_trip():
    params = init_mlp((3, 5, 2), "relu", make_rng(2))
    vec = params_to_vector(params)
    back = vector_to_params(vec, params)
    for (w1, b1), (w2, b2) in zip(params.layers, back.layers):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)
    with pytest.raises(ShapeError):
        vector_to_params(np.append(vec, 1.0), params)


def test_vector_and_layers_share_memory():
    params = init_mlp((3, 5, 2), "relu", make_rng(3))
    vec = params_to_vector(params)
    assert vec is params.vector
    wrapped = vector_to_params(vec, params)
    wrapped.layers[1][1][0] = 7.0  # bias 0 of the last layer, written through a view
    assert vec[3 * 5 + 5 + 2 * 5] == 7.0
    assert params.layers[1][1][0] == 7.0
    clone = params.clone()
    clone.vector[:] = 0.0
    assert params.layers[1][1][0] == 7.0


class TestTaskStack:
    """A (T, P) parameter stack runs T networks as one."""

    def stack(self, tasks=3, activation="tanh"):
        template = init_mlp((4, 6, 3), activation, make_rng(4))
        vectors = make_rng(5).normal(size=(tasks, template.vector.size))
        return template, vectors, make_rng(6).normal(size=(tasks, 7, 4))

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_forward_and_backward_equal_each_network(self, activation):
        template, vectors, x = self.stack(activation=activation)
        stacked = vector_to_params(vectors, template)
        out, cache = mlp_forward_cached(stacked, x)
        g_out = make_rng(7).normal(size=out.shape)
        grad = mlp_backward(stacked, cache, g_out)
        assert grad.shape == vectors.shape
        for t in range(vectors.shape[0]):
            single = vector_to_params(vectors[t], template)
            out_t, cache_t = mlp_forward_cached(single, x[t])
            assert np.array_equal(out[t], out_t)
            assert np.array_equal(grad[t], mlp_backward(single, cache_t, g_out[t]))

    def test_views_share_memory_with_the_stack(self):
        template, vectors, _ = self.stack()
        stacked = vector_to_params(vectors, template)
        w, b = stacked.layers[1]
        assert w.shape == (3, 3, 6) and b.shape == (3, 3)
        b[2, 0] = 7.0
        assert vectors[2, 4 * 6 + 6 + 3 * 6] == 7.0

    def test_batch_must_match_the_stack(self):
        template, vectors, x = self.stack()
        with pytest.raises(ShapeError):
            mlp_forward(vector_to_params(vectors, template), x[:2])
        with pytest.raises(ShapeError):
            mlp_forward(template, x)


class TestLinearOutput:
    """Every network's last layer is linear: a few-shot model's head, and
    a CFE encoder's output before the l2 normalization."""

    def network(self, activation, seed=40):
        # random biases keep relu pre-activations away from the exact kink
        rng = make_rng(seed)
        layers = init_mlp((4, 6, 5, 3), activation, rng).layers
        layers = [(w, rng.normal(0.0, 0.5, size=b.shape)) for w, b in layers]
        return MlpParams(layers, activation)

    def test_last_layer_skips_the_activation(self):
        params = self.network("relu")
        x = make_rng(41).normal(size=(8, 4))
        # the first two layers as a network of their own end linearly, so
        # the hidden activation of the second is applied here
        hidden = np.maximum(mlp_forward(MlpParams(params.layers[:-1], "relu"), x), 0.0)
        w, b = params.layers[-1]
        out = mlp_forward(params, x)
        assert np.array_equal(out, hidden @ w.T + b)
        assert (out < 0).any()
        assert np.array_equal(mlp_forward(vector_to_params(params.vector, params), x), out)
        assert np.array_equal(mlp_forward(params.clone(), x), out)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_backward_matches_finite_differences(self, activation):
        params = self.network(activation)
        x = make_rng(42).normal(size=(5, 4))
        g_out = make_rng(43).normal(size=(5, 3))

        def fn(vec):
            p = vector_to_params(vec, params)
            out, cache = mlp_forward_cached(p, x)
            return float(np.sum(out * g_out)), mlp_backward(p, cache, g_out)

        assert finite_diff_check(fn, params_to_vector(params), eps=1e-6) < 1e-6

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_stacked_backward_matches_finite_differences(self, activation):
        params = self.network(activation)
        tasks = 3
        vectors = params.vector + make_rng(44).normal(0.0, 0.1, size=(tasks, params.vector.size))
        x = make_rng(45).normal(size=(tasks, 5, 4))
        g_out = make_rng(46).normal(size=(tasks, 5, 3))

        def fn(flat):
            p = vector_to_params(flat.reshape(vectors.shape), params)
            out, cache = mlp_forward_cached(p, x)
            return float(np.sum(out * g_out)), mlp_backward(p, cache, g_out).ravel()

        assert finite_diff_check(fn, vectors.ravel(), eps=1e-6) < 1e-6


class TestInPlaceForward:
    """Each layer activates its matmul's result in place; caches, outputs
    and gradients equal a pass that keeps every pre-activation."""

    def network(self, activation, hidden, tasks):
        rng = make_rng(50)
        template = init_mlp((4, 6, 5, 3) if hidden else (4, 3), activation, rng)
        lead = () if tasks is None else (tasks,)
        params = vector_to_params(rng.normal(0.0, 0.5, size=(*lead, template.vector.size)), template)
        # half of each layer's biases are 0, so a zero input row gives
        # pre-activations of exactly 0 in the first layer
        for _, b in params.layers:
            b[..., ::2] = 0.0
        return params

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    # hidden: two activated hidden layers and the linear last one, or the
    # linear layer alone
    @pytest.mark.parametrize("hidden", [False, True])
    @pytest.mark.parametrize("tasks", [None, 3], ids=["single", "stack"])
    @pytest.mark.parametrize("read_only", [False, True], ids=["writable", "read-only"])
    def test_equals_pass_keeping_pre_activations(self, activation, hidden, tasks, read_only):
        params = self.network(activation, hidden, tasks)
        rows = make_rng(51).normal(size=(8, 4))
        rows[::3] = 0.0
        if tasks is None:
            batch = rows.copy()
            batch.flags.writeable = not read_only
        elif read_only:
            batch = np.broadcast_to(rows, (tasks, *rows.shape))
        else:
            batch = make_rng(52).normal(size=(tasks, *rows.shape))
            batch[..., ::3, :] = 0.0
        before = batch.copy()
        g_out = make_rng(53).normal(size=(*batch.shape[:-1], 3))
        pres, posts, grad = oracle_forward_backward(params, batch, g_out)
        assert (pres[0] == 0.0).any()

        out, cache = mlp_forward_cached(params, batch)
        assert np.array_equal(cache.inputs, batch)
        assert len(cache.post_activations) == len(posts)
        for got, want in zip(cache.post_activations, posts):
            assert np.array_equal(got, want)
        assert np.array_equal(out, posts[-1])
        assert np.array_equal(mlp_forward(params, batch), posts[-1])
        assert np.array_equal(mlp_backward(params, cache, g_out), grad)
        assert np.array_equal(batch, before)

    def test_forward_peaks_below_two_hidden_arrays(self):
        # a (4, P) stack, 32 -> 32 -> 16, on (4, 640, 32) rows: the hidden
        # layer's output and the last layer's half-width one are alive at
        # once, 1.5 hidden arrays; a separate pre-activation would add one
        template = init_mlp((32, 32, 16), "relu", make_rng(54))
        stack = vector_to_params(template.vector + make_rng(55).normal(0.0, 0.1, size=(4, template.vector.size)),
                                 template)
        batch = make_rng(56).normal(size=(4, 640, 32))
        hidden_bytes = 4 * 640 * 32 * 8
        tracemalloc.start()
        try:
            mlp_forward(stack, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * hidden_bytes, f"peak {peak / hidden_bytes:.2f} hidden arrays"


class TestLogSoftmax:
    @pytest.mark.parametrize("shape", [(7, 5), (3, 6, 4), (1, 1)])
    def test_matches_scipy(self, shape):
        scores = make_rng(60).normal(0.0, 3.0, size=shape)
        got = log_softmax(scores)
        assert got.shape == shape
        assert np.allclose(got, scipy.special.log_softmax(scores, axis=-1), rtol=1e-13, atol=1e-13)

    def test_input_is_not_written(self):
        scores = make_rng(61).normal(size=(4, 3))
        before = scores.copy()
        log_softmax(scores)
        assert np.array_equal(scores, before)

    def test_tied_maxima_are_exact(self):
        got = log_softmax(np.array([[2.0, 2.0], [1.0, 1.0], [-3.0, -3.0]]))
        assert np.array_equal(got, np.full((3, 2), -np.log(2.0)))
        three = log_softmax(np.array([[5.0, -1.0, 5.0, 5.0]]))[0]
        assert three[0] == three[2] == three[3]
        assert three[0] == pytest.approx(-np.log(3.0 + np.exp(-6.0)), rel=1e-15)

    def test_saturated_rows_stay_ordered(self):
        # every other term is below 2^-53 of the top one, so 1 - p rounds
        # away in the probabilities but not in the log-probabilities
        scores = np.stack([np.zeros(10), -(40.0 + np.arange(10)), -(45.0 + np.arange(10))], axis=1)
        got = log_softmax(scores)
        assert (np.exp(got[:, 0]) == 1.0).all()
        others = np.exp(scores[:, 1:]).sum(axis=1)
        assert np.allclose(got[:, 0], -others, rtol=1e-12, atol=0.0)
        assert (got[:, 0] < 0.0).all()
        assert (np.diff(got[:, 0]) > 0.0).all()


class TestCrossEntropy:
    def test_single_set_loss_and_gradient(self):
        rng = make_rng(62)
        scores, labels = rng.normal(size=(6, 4)), rng.integers(0, 4, size=6)
        loss, grad = cross_entropy(scores, labels)
        log_probs = scipy.special.log_softmax(scores, axis=-1)
        assert loss == pytest.approx(-log_probs[np.arange(6), labels].mean(), rel=1e-13)
        one_hot = np.eye(4)[labels]
        assert np.allclose(grad, (np.exp(log_probs) - one_hot) / 6, rtol=1e-12, atol=1e-15)

    def test_stack_matches_finite_differences(self):
        rng = make_rng(63)
        scores, labels = rng.normal(size=(3, 5, 4)), rng.integers(0, 4, size=(3, 5))
        losses, grad = cross_entropy(scores, labels)
        assert losses.shape == (3,) and grad.shape == scores.shape
        for t in range(3):
            assert losses[t] == cross_entropy(scores[t], labels[t])[0]

        def total(flat):
            loss, g = cross_entropy(flat.reshape(scores.shape), labels)
            return float(loss.sum()), g.ravel()

        assert finite_diff_check(total, scores.ravel().copy()) < 1e-7

    def test_broadcast_labels(self):
        scores = make_rng(64).normal(size=(2, 6, 3))
        labels = np.broadcast_to(np.repeat(np.arange(3), 2), (2, 6))
        loss, grad = cross_entropy(scores, labels)
        want_loss, want_grad = cross_entropy(scores, np.ascontiguousarray(labels))
        assert np.array_equal(loss, want_loss) and np.array_equal(grad, want_grad)
