"""Pseudo-labeling with clustering-friendly embeddings (PL-CFE).

Desk-scale toolkit for unsupervised meta-learning: train an encoder that
minimizes the inter- to intra-class similarity ratio, pseudo-label data
with k-means, build few-shot episodes (optionally with an entropy-guided
progressive sampler), and meta-train/evaluate MAML or a prototype classifier on
them.
"""

__version__ = "0.1.0"

from . import cfe, cli, cluster, data, episodes, errors, metalearn, metrics, numcore

__all__ = [
    "cfe",
    "cli",
    "cluster",
    "data",
    "episodes",
    "errors",
    "metalearn",
    "metrics",
    "numcore",
    "__version__",
]
