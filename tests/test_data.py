import struct

import numpy as np
import pytest

from plcfe.data import (
    AugmentConfig,
    Dataset,
    augment,
    gen_blobs,
    read_dataset,
    read_embeddings,
    write_dataset,
    write_embeddings,
)
from plcfe.errors import FormatError, ParameterError

from helpers import make_rng


class TestGenBlobs:
    def test_wide_separation_is_trivially_classifiable(self):
        ds = gen_blobs(2, 50, 8, 20.0, make_rng(0))
        centroids = np.stack(
            [ds.features[ds.eval_labels == c].mean(axis=0) for c in range(2)]
        )
        d2 = ((ds.features[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        assert np.mean(np.argmin(d2, axis=1) == ds.eval_labels) == 1.0

    def test_single_sample_per_class(self):
        ds = gen_blobs(5, 1, 4, 10.0, make_rng(1))
        assert ds.n == 5
        # each sample is its mean plus unit gaussian noise
        dists = np.linalg.norm(ds.features - ds.class_means, axis=1)
        assert np.all(dists < 6 * np.sqrt(4))

    def test_empirical_means_near_generating_means(self):
        ds = gen_blobs(8, 100, 16, 6.0, make_rng(0))
        for c in range(8):
            emp = ds.features[ds.eval_labels == c].mean(axis=0)
            assert np.linalg.norm(emp - ds.class_means[c]) < 0.5

    def test_means_on_sphere_with_min_spacing(self):
        ds = gen_blobs(6, 2, 8, 4.0, make_rng(3))
        radii = np.linalg.norm(ds.class_means, axis=1)
        assert np.allclose(radii, 4.0, atol=1e-9)
        dists = np.linalg.norm(
            ds.class_means[:, None, :] - ds.class_means[None, :, :], axis=2
        )
        np.fill_diagonal(dists, np.inf)
        assert dists.min() >= 2.0

    def test_rejection_budget_exhausted(self):
        # a 2-D circle cannot hold 50 points at half-radius spacing
        with pytest.raises(ParameterError):
            gen_blobs(50, 1, 2, 5.0, make_rng(4))

    def test_invalid_separation(self):
        with pytest.raises(ParameterError):
            gen_blobs(2, 1, 2, 0.0, make_rng(5))


class TestAugment:
    def test_zero_strength_is_identity(self):
        rng = make_rng(0)
        x = rng.normal(size=6)
        out = augment(x, AugmentConfig(), rng)
        assert np.array_equal(out, x)

    def test_full_mask_zeroes_everything(self):
        rng = make_rng(1)
        out = augment(np.ones(5), AugmentConfig(mask_prob=1.0), rng)
        assert np.array_equal(out, np.zeros(5))

    def test_noise_variance(self):
        rng = make_rng(2)
        config = AugmentConfig(noise_std=0.1)
        x = np.zeros(4)
        draws = np.stack([augment(x, config, rng) for _ in range(10_000)])
        var = draws.var(axis=0)
        assert np.all(np.abs(var - 0.01) < 0.001)

    def test_draws_are_pairwise_distinct(self):
        rng = make_rng(3)
        config = AugmentConfig(noise_std=0.5)
        draws = [tuple(augment(np.ones(3), config, rng)) for _ in range(100)]
        assert len(set(draws)) == 100

    def test_order_mask_scale_noise(self):
        # masked coordinates stay zero when noise is off, even with scaling
        rng = make_rng(4)
        config = AugmentConfig(scale_range=(0.5, 2.0), mask_prob=1.0)
        out = augment(np.full(8, 3.0), config, rng)
        assert np.array_equal(out, np.zeros(8))

    def test_invalid_configs(self):
        with pytest.raises(ParameterError):
            AugmentConfig(noise_std=-1.0)
        with pytest.raises(ParameterError):
            AugmentConfig(scale_range=(0.0, 1.0))
        with pytest.raises(ParameterError):
            AugmentConfig(scale_range=(1.5, 2.0))
        with pytest.raises(ParameterError):
            AugmentConfig(mask_prob=1.5)


class TestAugmentRows:
    """augment on a (B, V, d) array: each step is one draw over the whole
    array, with one scale per row."""

    def test_one_scale_per_row(self):
        rng = make_rng(10)
        x = rng.uniform(1.0, 2.0, size=(6, 3, 5))
        out = augment(x, AugmentConfig(scale_range=(0.5, 2.0)), rng)
        ratio = out / x
        assert np.allclose(ratio, ratio[..., :1])
        scales = ratio[..., 0]
        assert np.all((0.5 <= scales) & (scales <= 2.0))
        assert len(np.unique(scales)) == scales.size

    def test_mask_rate(self):
        rng = make_rng(11)
        p = 0.3
        out = augment(np.ones((200, 4, 16)), AugmentConfig(mask_prob=p), rng)
        n = out.size
        rate = np.mean(out == 0.0)
        assert abs(rate - p) < 4 * np.sqrt(p * (1 - p) / n)

    def test_noise_moments_per_coordinate(self):
        rng = make_rng(12)
        out = augment(np.zeros((5_000, 2, 4)), AugmentConfig(noise_std=0.1), rng)
        per_coordinate = out.reshape(-1, 4)
        assert np.all(np.abs(per_coordinate.mean(axis=0)) < 4 * 0.1 / np.sqrt(10_000))
        assert np.all(np.abs(per_coordinate.var(axis=0) - 0.01) < 0.001)

    def test_read_only_broadcast_input_is_left_unchanged(self):
        rng = make_rng(13)
        rows = rng.normal(size=(3, 4))
        view = np.broadcast_to(rows[:, None, :], (3, 2, 4))
        assert not view.flags.writeable
        config = AugmentConfig(noise_std=0.5, scale_range=(0.9, 1.1), mask_prob=0.2)
        out = augment(view, config, rng)
        assert out.shape == (3, 2, 4)
        assert np.array_equal(view, np.broadcast_to(rows[:, None, :], (3, 2, 4)))
        assert not np.array_equal(out[:, 0], out[:, 1])

    def test_one_dimensional_sample_keeps_its_shape(self):
        rng = make_rng(14)
        config = AugmentConfig(noise_std=0.5, scale_range=(0.9, 1.1), mask_prob=0.2)
        assert augment(np.ones(7), config, rng).shape == (7,)


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        ds = gen_blobs(3, 4, 5, 6.0, make_rng(0))
        path = tmp_path / "ds.plds"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.eval_labels, ds.eval_labels)
        assert back.classes == 3

    def test_write_read_write_bytes_stable(self, tmp_path):
        ds = gen_blobs(2, 3, 4, 5.0, make_rng(1))
        p1, p2 = tmp_path / "a.plds", tmp_path / "b.plds"
        write_dataset(ds, p1)
        write_dataset(read_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unlabeled_round_trip(self, tmp_path):
        ds = Dataset(np.arange(6, dtype=float).reshape(2, 3), None, 0)
        path = tmp_path / "u.plds"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert back.eval_labels is None
        assert np.array_equal(back.features, ds.features)

    def test_golden_bytes(self, tmp_path):
        # header and payload assembled by hand from the format definition
        features = np.array([[1.5, -2.0], [0.25, 8.0]])
        labels = np.array([1, 0])
        ds = Dataset(features, labels, 2)
        path = tmp_path / "golden.plds"
        write_dataset(ds, path)
        expected = b"PLDS"
        expected += struct.pack("<H", 1)  # version
        expected += struct.pack("<H", 1)  # flags: labels present
        expected += struct.pack("<I", 2)  # n
        expected += struct.pack("<I", 2)  # d
        expected += struct.pack("<I", 2)  # classes
        for v in (1.5, -2.0, 0.25, 8.0):
            expected += struct.pack("<d", v)
        expected += struct.pack("<II", 1, 0)
        assert path.read_bytes() == expected

    def test_truncated_file_reports_offset(self, tmp_path):
        ds = gen_blobs(2, 3, 4, 5.0, make_rng(2))
        path = tmp_path / "t.plds"
        write_dataset(ds, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(FormatError) as excinfo:
            read_dataset(path)
        assert excinfo.value.offset is not None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.plds"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(FormatError) as excinfo:
            read_dataset(path)
        assert excinfo.value.offset == 0

    def test_trailing_garbage_rejected(self, tmp_path):
        ds = gen_blobs(2, 2, 2, 5.0, make_rng(3))
        path = tmp_path / "g.plds"
        write_dataset(ds, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_dataset(path)

    def test_embeddings_round_trip(self, tmp_path):
        rng = make_rng(4)
        emb = rng.normal(size=(7, 3))
        path = tmp_path / "e.plem"
        write_embeddings(emb, path)
        assert np.array_equal(read_embeddings(path), emb)
        assert path.read_bytes()[:4] == b"PLEM"

    def test_embedding_magic_mismatch(self, tmp_path):
        ds = gen_blobs(2, 2, 2, 5.0, make_rng(5))
        path = tmp_path / "ds.plds"
        write_dataset(ds, path)
        with pytest.raises(FormatError):
            read_embeddings(path)


def test_unsupervised_paths_never_touch_true_labels():
    # audit: the unsupervised modules must not reference the evaluation-only
    # label fields of the data module
    import inspect

    from plcfe import cfe, cluster, episodes

    for module in (cfe, cluster, episodes):
        source = inspect.getsource(module)
        assert "eval_labels" not in source
        assert "class_means" not in source
