"""Synthetic datasets, class-preserving vector augmentations, and dataset
and embedding file I/O.

True class labels are generated alongside the features but live in
evaluation-only fields: the unsupervised stages (embedding training,
clustering, episode construction from pseudo-labels) only ever receive the
feature matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._binio import ByteWriter, read_container
from .errors import ParameterError

DATASET_MAGIC = b"PLDS"
EMBEDDING_MAGIC = b"PLEM"
FORMAT_VERSION = 1
FLAG_LABELS = 0x0001

REJECTION_BUDGET = 10_000


@dataclass
class Dataset:
    """Feature matrix plus evaluation-only ground truth.

    eval_labels and class_means must only be read by metrics and
    evaluation code; pipeline stages that are unsupervised by contract
    take ds.features alone.
    """

    features: np.ndarray
    eval_labels: np.ndarray | None
    classes: int
    class_means: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class AugmentConfig:
    """Vector augmentation strengths; the all-defaults config is the
    identity transform."""

    noise_std: float = 0.0
    scale_range: tuple[float, float] = (1.0, 1.0)
    mask_prob: float = 0.0

    def __post_init__(self):
        if len(self.scale_range) != 2:
            raise ParameterError(f"augment.scale_range must be [lo, hi], not {list(self.scale_range)}")
        lo, hi = self.scale_range
        if self.noise_std < 0:
            raise ParameterError("augment.noise_std must be >= 0")
        if not (0 < lo <= 1.0 <= hi):
            raise ParameterError("augment.scale_range must satisfy 0 < lo <= 1 <= hi")
        if not (0 <= self.mask_prob <= 1):
            raise ParameterError("augment.mask_prob must be in [0, 1]")


def blob_labels(classes: int, per_class: int) -> np.ndarray:
    """The class of each gen_blobs row: per_class rows of class 0, then of
    class 1, and so on."""
    return np.repeat(np.arange(classes), per_class)


def gen_blobs(
    classes: int,
    per_class: int,
    dim: int,
    separation: float,
    rng: np.random.Generator,
) -> Dataset:
    """Gaussian blobs with class means on a sphere of radius `separation`.

    Means are rejection-sampled until all pairwise distances are at least
    separation / 2; each sample is its class mean plus unit Gaussian noise.
    """
    if separation <= 0:
        raise ParameterError("separation must be positive")
    if classes < 2 or per_class < 1 or dim < 1:
        raise ParameterError("need classes >= 2, per_class >= 1, dim >= 1")
    means = np.zeros((classes, dim))
    tries = 0
    placed = 0
    while placed < classes:
        tries += 1
        if tries > REJECTION_BUDGET:
            raise ParameterError(
                f"could not place {classes} class means at separation {separation} "
                f"within {REJECTION_BUDGET} tries"
            )
        direction = rng.normal(size=dim)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            continue
        candidate = separation * direction / norm
        if placed and np.min(np.linalg.norm(means[:placed] - candidate, axis=1)) < separation / 2:
            continue
        means[placed] = candidate
        placed += 1
    labels = blob_labels(classes, per_class)
    noise = rng.normal(size=(classes * per_class, dim))
    features = means[labels] + noise
    return Dataset(features, labels, classes, class_means=means)


def augment(sample: np.ndarray, config: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Augment each row of a (..., d) array into a new array of that shape.

    Apply, in order: coordinate masking, one scale per row shared by its d
    coordinates, additive Gaussian noise, each one draw over the whole
    array. Zero-strength settings skip their step entirely. The input, which
    may be a read-only broadcast view, is never written."""
    out = np.array(sample, dtype=np.float64)
    if config.mask_prob > 0:
        out[rng.random(out.shape) < config.mask_prob] = 0.0
    lo, hi = config.scale_range
    if lo != hi:
        out *= rng.uniform(lo, hi, size=out.shape[:-1])[..., None]
    elif lo != 1.0:
        out *= lo
    if config.noise_std > 0:
        out += rng.normal(0.0, config.noise_std, size=out.shape)
    return out


def _write_container(magic: bytes, features: np.ndarray, labels, classes: int, path) -> None:
    writer = ByteWriter(magic, FORMAT_VERSION, FLAG_LABELS if labels is not None else 0)
    writer.write_u32(features.shape[0])
    writer.write_u32(features.shape[1])
    writer.write_u32(classes)
    writer.write_f64_array(features)
    if labels is not None:
        writer.write_u32_array(labels)
    writer.save(path)


def _read_container(path, magic: bytes):
    reader, flags = read_container(path, magic, FORMAT_VERSION)
    n = reader.read_u32("sample count")
    d = reader.read_u32("feature dim")
    classes = reader.read_u32("class count")
    features = reader.read_f64_array(n * d, "feature matrix").reshape(n, d)
    labels = None
    if flags & FLAG_LABELS:
        labels = reader.read_u32_array(n, "labels")
    reader.expect_end()
    return features, labels, classes


def write_dataset(dataset: Dataset, path) -> None:
    _write_container(DATASET_MAGIC, dataset.features, dataset.eval_labels, dataset.classes, path)


def read_dataset(path) -> Dataset:
    return Dataset(*_read_container(path, DATASET_MAGIC))


def write_embeddings(embeddings: np.ndarray, path) -> None:
    _write_container(EMBEDDING_MAGIC, np.asarray(embeddings, dtype=np.float64), None, 0, path)


def read_embeddings(path) -> np.ndarray:
    return _read_container(path, EMBEDDING_MAGIC)[0]
