import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcfe import cfe
from plcfe.cfe import (
    CfeConfig,
    EncoderPair,
    NegativeQueue,
    PositiveBatch,
    asynchronous_embed,
    build_positive_batch,
    cfe_loss,
    cosine_lr,
    encode,
    history_queue_vectors,
    load_checkpoint,
    momentum_update,
    save_checkpoint,
    train_cfe,
    write_loss_trace,
)
from plcfe.cluster import PseudoLabeledDataset
from plcfe.data import AugmentConfig, augment, gen_blobs
from plcfe.errors import FormatError, NumericError, ParameterError, ShapeError, StateError
from plcfe.metrics import similarity_ratio
from plcfe.numcore import (
    MlpParams,
    l2_normalize,
    mlp_forward,
)

from helpers import finite_diff_check, make_rng


def small_config(**overrides):
    defaults = dict(
        batch_positives=4,
        augments_per_point=2,
        queue_capacity=8,
        temperature=0.2,
        momentum=0.9,
        epochs=2,
        learning_rate=0.05,
        hidden_dims=(8,),
        embed_dim=4,
    )
    defaults.update(overrides)
    return CfeConfig(**defaults)


SMALL_AUGMENT = AugmentConfig(noise_std=0.2)
DESK_AUGMENT = AugmentConfig(noise_std=1.25, scale_range=(0.9, 1.1))


def batch_from_embeddings(z):
    z = np.asarray(z, dtype=float)
    return PositiveBatch(
        original_indices=np.arange(z.shape[0]),
        augmented=np.zeros_like(z),
        embeddings=z,
    )


class TestConfig:
    def test_rejects_bad_momentum(self):
        with pytest.raises(ParameterError):
            small_config(momentum=1.0)

    def test_rejects_bad_temperature(self):
        with pytest.raises(ParameterError):
            small_config(temperature=0.0)

    def test_rejects_degenerate_batch(self):
        with pytest.raises(ParameterError):
            small_config(batch_positives=1, queue_capacity=0)


class TestBuildPositiveBatch:
    def test_counts(self):
        rng = make_rng(0)
        config = small_config(batch_positives=2, augments_per_point=2)
        batch = build_positive_batch(rng.normal(size=(10, 3)), config, SMALL_AUGMENT, rng)
        assert len(set(batch.original_indices.tolist())) == 2
        assert batch.augmented.shape == (2, 2, 3)

    def test_zero_strength_augment_returns_originals(self):
        rng = make_rng(1)
        features = rng.normal(size=(10, 3))
        config = small_config(augments_per_point=1)
        batch = build_positive_batch(features, config, AugmentConfig(), rng)
        assert np.array_equal(batch.augmented[:, 0, :], features[batch.original_indices])

    def test_fixed_seed_reproduces_selection(self):
        features = make_rng(2).normal(size=(20, 3))
        config = small_config()
        b1 = build_positive_batch(features, config, SMALL_AUGMENT, make_rng(3))
        b2 = build_positive_batch(features, config, SMALL_AUGMENT, make_rng(3))
        assert np.array_equal(b1.original_indices, b2.original_indices)
        assert np.array_equal(b1.augmented, b2.augmented)

    def test_dataset_too_small(self):
        with pytest.raises(ParameterError):
            build_positive_batch(np.zeros((3, 2)), small_config(), SMALL_AUGMENT, make_rng(0))

    def test_one_augment_call_per_batch(self, monkeypatch):
        shapes = []

        def counting_augment(sample, config, rng):
            shapes.append(np.shape(sample))
            return augment(sample, config, rng)

        monkeypatch.setattr(cfe, "augment", counting_augment)
        config = small_config(batch_positives=5, augments_per_point=3)
        build_positive_batch(make_rng(4).normal(size=(12, 6)), config, SMALL_AUGMENT, make_rng(5))
        assert shapes == [(5, 3, 6)]


class TestAsynchronousEmbed:
    def test_equal_encoders_collapse_to_single_encoder(self):
        rng = make_rng(0)
        config = small_config()
        pair = EncoderPair.initialize(3, config, rng)
        batch = build_positive_batch(rng.normal(size=(10, 3)), config, SMALL_AUGMENT, rng)
        asynchronous_embed(pair, batch)
        flat = batch.augmented.reshape(-1, 3)
        single = l2_normalize(mlp_forward(pair.main, flat)).reshape(batch.embeddings.shape)
        assert np.allclose(batch.embeddings, single, atol=1e-15)

    def test_single_view_uses_main_encoder_only(self):
        rng = make_rng(1)
        config = small_config(augments_per_point=1)
        pair = EncoderPair.initialize(3, config, rng)
        # desynchronize encoders: history becomes garbage
        pair.history.layers[0][0][...] = 99.0
        batch = build_positive_batch(rng.normal(size=(10, 3)), config, SMALL_AUGMENT, rng)
        asynchronous_embed(pair, batch)
        expected = l2_normalize(mlp_forward(pair.main, batch.augmented[:, 0, :]))
        assert np.array_equal(batch.embeddings[:, 0, :], expected)

    def test_history_views_match_separate_forward(self):
        rng = make_rng(2)
        config = small_config(augments_per_point=3)
        pair = EncoderPair.initialize(1, small_config(hidden_dims=(2,), embed_dim=2), rng)
        other = EncoderPair.initialize(1, small_config(hidden_dims=(2,), embed_dim=2), rng)
        pair = EncoderPair(main=pair.main, history=other.main)  # distinct weights
        batch = PositiveBatch(
            original_indices=np.arange(2),
            augmented=rng.normal(size=(2, 3, 1)),
        )
        asynchronous_embed(pair, batch)
        for i in range(2):
            for j in (1, 2):
                separate = l2_normalize(
                    mlp_forward(pair.history, batch.augmented[i, j][None, :])
                )[0]
                assert np.array_equal(batch.embeddings[i, j], separate)

    def test_architecture_mismatch(self):
        rng = make_rng(3)
        pair = EncoderPair.initialize(3, small_config(), rng)
        batch = PositiveBatch(np.arange(2), rng.normal(size=(2, 2, 5)))
        with pytest.raises(StateError):
            asynchronous_embed(pair, batch)


class TestCfeLoss:
    def test_orthogonal_pair_closed_form(self):
        config = small_config(batch_positives=2, augments_per_point=1)
        batch = batch_from_embeddings([[[1.0, 0.0]], [[0.0, 1.0]]])
        loss, _ = cfe_loss(batch, NegativeQueue(4), config)
        assert abs(loss - math.log(1 + math.exp(-5))) < 1e-9

    def test_identical_pair_closed_form(self):
        config = small_config(batch_positives=2, augments_per_point=1)
        batch = batch_from_embeddings([[[1.0, 0.0]], [[1.0, 0.0]]])
        loss, _ = cfe_loss(batch, NegativeQueue(4), config)
        assert abs(loss - math.log(2)) < 1e-9

    def test_matches_nested_loop_oracle(self):
        rng = make_rng(0)
        config = small_config(batch_positives=3, augments_per_point=2)
        z = l2_normalize(rng.normal(size=(3, 2, 6)))
        queue = NegativeQueue(8)
        queue.push(l2_normalize(rng.normal(size=(4, 6))))
        loss, _ = cfe_loss(batch_from_embeddings(z), queue, config)

        tau = config.temperature
        neg = queue.as_matrix()
        n_other = 3 + 4 - 1
        total = 0.0
        for i in range(3):
            mu_i = z[i].mean(axis=0)
            intra = math.exp(sum(float(mu_i @ z[i, j]) for j in range(2)) / (tau * 2))
            cen = sum(
                math.exp(float(mu_i @ z[j].mean(axis=0)) / tau) for j in range(3) if j != i
            )
            negsum = sum(math.exp(float(mu_i @ neg[k]) / tau) for k in range(4))
            total += math.log((1 + (cen + negsum) / intra) / n_other)
        assert abs(loss - total / 3) < 1e-10

    def test_gradient_against_finite_differences(self):
        rng = make_rng(1)
        config = small_config(batch_positives=3, augments_per_point=2)
        z = l2_normalize(rng.normal(size=(3, 2, 6)))
        queue = NegativeQueue(8)
        queue.push(l2_normalize(rng.normal(size=(4, 6))))

        def fn(vec):
            full = z.copy()
            full[:, 0, :] = vec.reshape(3, 6)
            loss, grad = cfe_loss(batch_from_embeddings(full), queue, config)
            return loss, grad.reshape(-1)

        assert finite_diff_check(fn, z[:, 0, :].reshape(-1).copy(), eps=1e-6) < 1e-4

    def test_gradient_covers_only_live_positions(self):
        rng = make_rng(2)
        config = small_config(batch_positives=3, augments_per_point=2)
        z = l2_normalize(rng.normal(size=(3, 2, 6)))
        _, grad = cfe_loss(batch_from_embeddings(z), NegativeQueue(4), config)
        assert grad.shape == (3, 6)

    def test_loss_lower_bound(self):
        rng = make_rng(3)
        config = small_config(batch_positives=4, augments_per_point=2)
        for _ in range(10):
            z = l2_normalize(rng.normal(size=(4, 2, 5)))
            queue = NegativeQueue(8)
            queue.push(l2_normalize(rng.normal(size=(3, 5))))
            loss, _ = cfe_loss(batch_from_embeddings(z), queue, config)
            assert loss >= math.log(1.0 / (4 + 3 - 1))
            assert np.isfinite(loss)

    def tiny_temperature_loss(self, temperature):
        rng = make_rng(5)
        config = small_config(batch_positives=3, augments_per_point=2, temperature=temperature)
        z = l2_normalize(rng.normal(size=(3, 2, 6)))
        queue = NegativeQueue(8)
        queue.push(l2_normalize(rng.normal(size=(4, 6))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return cfe_loss(batch_from_embeddings(z), queue, config)

    def test_tiny_temperature_is_finite_without_warnings(self):
        # the similarities exp(mu . o / tau) overflow at tau = 1e-6; their
        # log-softmax does not
        loss, grad = self.tiny_temperature_loss(1e-6)
        assert np.isfinite(loss) and np.isfinite(grad).all()
        assert loss >= math.log(1.0 / (3 + 4 - 1))

    def test_overflowing_logits_are_numeric_error_without_warnings(self):
        with pytest.raises(NumericError, match="non-finite"):
            self.tiny_temperature_loss(5e-324)

    def test_empty_negatives_with_single_positive_is_error(self):
        config = small_config(batch_positives=2, augments_per_point=1)
        batch = batch_from_embeddings([[[1.0, 0.0]]])
        with pytest.raises(ParameterError):
            cfe_loss(batch, NegativeQueue(4), config)

    def test_unencoded_batch_is_state_error(self):
        config = small_config()
        batch = PositiveBatch(np.arange(2), np.zeros((2, 2, 3)))
        with pytest.raises(StateError):
            cfe_loss(batch, NegativeQueue(4), config)


class TestMomentumUpdate:
    def scalar_pair(self, main_value, history_value):
        main = MlpParams([(np.array([[main_value]]), np.array([main_value]))], "relu")
        hist = MlpParams([(np.array([[history_value]]), np.array([history_value]))], "relu")
        return EncoderPair(main=main, history=hist)

    def test_zero_momentum_copies_main(self):
        pair = momentum_update(self.scalar_pair(0.5, -3.0), 0.0)
        assert pair.history.layers[0][0][0, 0] == 0.5

    def test_high_momentum_keeps_history(self):
        pair = momentum_update(self.scalar_pair(0.0, 1.0), 0.999)
        assert pair.history.layers[0][0][0, 0] == pytest.approx(0.999, abs=1e-15)

    def test_high_momentum_small_main_contribution(self):
        pair = momentum_update(self.scalar_pair(1.0, 0.0), 0.999)
        assert pair.history.layers[0][0][0, 0] == pytest.approx(0.001, abs=1e-15)

    def test_main_untouched(self):
        original = self.scalar_pair(0.7, 0.1)
        updated = momentum_update(original, 0.5)
        assert updated.main is original.main

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(0.0, 0.999),
        st.floats(-10, 10),
        st.floats(-10, 10),
    )
    def test_convex_combination_identity(self, m, main_value, history_value):
        pair = momentum_update(self.scalar_pair(main_value, history_value), m)
        expected = m * history_value + (1.0 - m) * main_value
        assert pair.history.layers[0][0][0, 0] == expected

    def test_contraction_toward_main(self):
        rng = make_rng(0)
        config = small_config()
        pair = EncoderPair.initialize(3, config, rng)
        noisy_history = MlpParams(
            [(w + rng.normal(size=w.shape), b + rng.normal(size=b.shape)) for w, b in pair.history.layers],
            pair.history.activation,
        )
        pair = EncoderPair(main=pair.main, history=noisy_history)
        m = 0.25
        updated = momentum_update(pair, m)
        for (mw, mb), (hw, hb), (uw, ub) in zip(
            pair.main.layers, pair.history.layers, updated.history.layers
        ):
            assert np.allclose(np.abs(uw - mw), m * np.abs(hw - mw), atol=1e-12)
            assert np.allclose(np.abs(ub - mb), m * np.abs(hb - mb), atol=1e-12)


class TestNegativeQueue:
    def test_fifo_eviction(self):
        queue = NegativeQueue(2)
        a, b, c = np.array([1.0]), np.array([2.0]), np.array([3.0])
        queue.push(np.stack([a, b]))
        queue.push(c[None, :])
        assert np.array_equal(queue.as_matrix(), np.stack([b, c]))

    def test_partial_fill_preserves_order(self):
        queue = NegativeQueue(8)
        queue.push(np.arange(3, dtype=float)[:, None])
        assert len(queue) == 3
        assert np.array_equal(queue.as_matrix().ravel(), [0.0, 1.0, 2.0])

    def test_replay_oracle(self):
        queue = NegativeQueue(16)
        replay = []
        for step in range(10):
            block = np.full((4, 2), float(step))
            block[:, 1] = np.arange(4)
            queue.push(block)
            replay.extend(block.tolist())
        assert np.array_equal(queue.as_matrix(), np.array(replay[-16:]))

    def test_capacity_validation(self):
        with pytest.raises(ParameterError):
            NegativeQueue(0)

    def test_push_larger_than_capacity_keeps_newest_rows(self):
        queue = NegativeQueue(3)
        queue.push(np.array([[9.0, 9.0]]))
        queue.push(np.arange(10, dtype=float).reshape(5, 2))
        assert len(queue) == 3
        assert np.array_equal(queue.as_matrix(), np.arange(4, 10, dtype=float).reshape(3, 2))

    def test_mismatched_dimension_is_shape_error(self):
        queue = NegativeQueue(4)
        queue.push(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            queue.push(np.zeros((1, 2)))
        assert queue.as_matrix().shape == (2, 3)


class TestTrainCfe:
    def test_zero_epochs_is_identity(self):
        rng = make_rng(0)
        config = small_config(epochs=0)
        ds = gen_blobs(3, 10, 4, 6.0, make_rng(1))
        initial = EncoderPair.initialize(4, config, make_rng(2))
        pair, trace = train_cfe(ds.features, config, SMALL_AUGMENT, rng, initial=initial)
        assert trace == []
        for (w1, _), (w2, _) in zip(pair.main.layers, initial.main.layers):
            assert np.array_equal(w1, w2)

    @pytest.mark.parametrize("temperature", [1e-130, 1e-181])
    def test_diverging_training_is_numeric_error_without_warnings(self, temperature):
        # a step scales the weights by about 1 / temperature, so the next
        # step's embeddings overflow: at 1e-181 in the forward pass, which
        # printed numpy warnings, and at 1e-130 in their norms, which made
        # every embedding zero and training went on
        ds = gen_blobs(3, 12, 4, 6.0, make_rng(1))
        config = small_config(temperature=temperature)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"^epoch 0 step \d+: non-finite vector norm"):
                train_cfe(ds.features, config, SMALL_AUGMENT, make_rng(5))

    def test_encoder_whose_norms_overflow_is_numeric_error_without_warnings(self):
        # weights no training step keeps, as a checkpoint can hold them
        pair = EncoderPair.initialize(4, small_config(), make_rng(2))
        huge = MlpParams([(1e100 * w, b) for w, b in pair.main.layers], pair.main.activation)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="non-finite vector norm"):
                encode(huge, gen_blobs(3, 4, 4, 6.0, make_rng(1)).features)

    def test_identical_seed_bitwise_identical(self):
        ds = gen_blobs(3, 12, 4, 6.0, make_rng(1))
        config = small_config(epochs=2)
        p1, t1 = train_cfe(ds.features, config, SMALL_AUGMENT, make_rng(5))
        p2, t2 = train_cfe(ds.features, config, SMALL_AUGMENT, make_rng(5))
        assert t1 == t2
        for (w1, b1), (w2, b2) in zip(p1.main.layers, p2.main.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
        for (w1, b1), (w2, b2) in zip(p1.history.layers, p2.history.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_loss_decreases_on_blobs(self):
        ds = gen_blobs(4, 25, 8, 6.0, make_rng(2))
        config = CfeConfig(
            batch_positives=16,
            queue_capacity=64,
            epochs=10,
            hidden_dims=(16,),
            embed_dim=8,
        )
        _, trace = train_cfe(ds.features, config, DESK_AUGMENT, make_rng(3))
        assert trace[-1] < trace[0]

    def test_similarity_ratio_improves_over_untrained(self):
        ds = gen_blobs(4, 25, 8, 6.0, make_rng(4))
        config = CfeConfig(
            batch_positives=16,
            queue_capacity=64,
            epochs=10,
            hidden_dims=(16,),
            embed_dim=8,
        )
        initial = EncoderPair.initialize(8, config, make_rng(5))
        before = similarity_ratio(
            PseudoLabeledDataset(encode(initial, ds.features), ds.eval_labels, 4), 0.2
        )
        pair, _ = train_cfe(ds.features, config, DESK_AUGMENT, make_rng(6), initial=initial)
        after = similarity_ratio(
            PseudoLabeledDataset(encode(pair, ds.features), ds.eval_labels, 4), 0.2
        )
        assert after.ratio < before.ratio

    def test_history_queue_vector_when_single_view(self):
        rng = make_rng(7)
        config = small_config(augments_per_point=1)
        pair = EncoderPair.initialize(3, config, rng)
        batch = build_positive_batch(rng.normal(size=(8, 3)), config, SMALL_AUGMENT, rng)
        asynchronous_embed(pair, batch)
        vecs = history_queue_vectors(pair, batch)
        expected = l2_normalize(mlp_forward(pair.history, batch.augmented[:, 0, :]))
        assert np.array_equal(vecs, expected)

    def test_cosine_schedule_endpoints(self):
        assert cosine_lr(0.1, 0, 10) == pytest.approx(0.1)
        assert cosine_lr(0.1, 9, 10) < 0.01
        assert cosine_lr(0.1, 0, 0) == 0.1


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        rng = make_rng(0)
        config = small_config()
        pair, _ = train_cfe(gen_blobs(3, 10, 4, 6.0, rng).features, config, SMALL_AUGMENT, make_rng(1))
        path = tmp_path / "pair.plcf"
        save_checkpoint(pair, path)
        back = load_checkpoint(path)
        for (w1, b1), (w2, b2) in zip(pair.main.layers, back.main.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
        for (w1, b1), (w2, b2) in zip(pair.history.layers, back.history.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
        assert path.read_bytes()[:4] == b"PLCF"

    def test_truncation_reports_offset(self, tmp_path):
        rng = make_rng(1)
        pair = EncoderPair.initialize(3, small_config(), rng)
        path = tmp_path / "pair.plcf"
        save_checkpoint(pair, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.offset is not None

    def test_loss_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_loss_trace([0.5, 0.25], path)
        assert path.read_text().splitlines() == ["epoch,mean_loss", "0,0.5", "1,0.25"]
