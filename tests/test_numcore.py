import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcfe import cfe
from plcfe.errors import NumericError, ParameterError, ShapeError, StateError
from plcfe.numcore import (
    MlpParams,
    finite_diff_check,
    init_mlp,
    l2_normalize,
    l2_normalize_backward,
    make_rng,
    mlp_backward,
    mlp_forward,
    mlp_forward_cached,
    params_to_vector,
    vector_to_params,
)


def single_layer(w, b, activation="relu"):
    return MlpParams([(np.asarray(w, dtype=float), np.asarray(b, dtype=float))], activation)


class TestMlpForward:
    def test_identity_relu(self):
        params = single_layer(np.eye(2), [0.0, 0.0])
        out = mlp_forward(params, np.array([[1.0, -2.0]]))
        assert np.array_equal(out, [[1.0, 0.0]])

    def test_zero_weights_give_activated_bias(self):
        rng = make_rng(0)
        params = init_mlp((3, 4, 2), "tanh", rng)
        zeroed = MlpParams(
            [(np.zeros_like(w), b.copy()) for w, b in params.layers], "tanh"
        )
        # with zero weights the last layer sees activation(b) regardless of input
        zeroed.layers[-1][1][:] = [0.3, -0.7]
        out = mlp_forward(zeroed, rng.normal(size=(5, 3)))
        expected = np.tanh(np.array([0.3, -0.7]))
        assert np.allclose(out, np.tile(expected, (5, 1)), atol=0)

    def test_matches_elementwise_oracle(self):
        rng = make_rng(7)
        params = init_mlp((3, 5, 4), "tanh", rng)
        x = rng.normal(size=(3, 3))
        out = mlp_forward(params, x)

        def oracle_row(row):
            h = row
            for w, b in params.layers:
                nxt = np.empty(w.shape[0])
                for i in range(w.shape[0]):
                    acc = b[i]
                    for j in range(w.shape[1]):
                        acc += w[i, j] * h[j]
                    nxt[i] = np.tanh(acc)
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

    def test_zero_row_flagged(self):
        out, flags = l2_normalize(np.array([[0.0, 0.0], [3.0, 4.0]]), return_degenerate=True)
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
        batch = cfe.build_positive_batch(rng.normal(size=(10, 4)), config, rng)
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
