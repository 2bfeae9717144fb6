"""Few-shot episode construction from pseudo-labels.

Two samplers: a plain one that draws every way's support and query set
from a single cluster, and a progressive one that, for the small fraction
of task batches that pass a random gate, finetunes an evaluation model on
the sampled support set, picks each way's query source among the base
cluster's nearest neighbors by predicted-label entropy, and filters the
chosen cluster's noisiest members before drawing queries.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .cluster import ClusterModel, PseudoLabeledDataset, nearest_clusters
from .errors import ConstructionError, InsufficientSamplesError, ParameterError
from .numcore import softmax


@dataclass
class EpisodeConfig:
    ways: int = 5
    shots: int = 1
    queries: int = 5
    candidate_neighbors: int = 5
    keep_rate: float = 0.75
    gate_threshold: float = 0.9

    def __post_init__(self):
        if self.ways < 2:
            raise ParameterError("episodes.ways must be >= 2")
        if self.shots < 1 or self.queries < 1:
            raise ParameterError("episodes.shots and episodes.queries must be >= 1")
        if not (0 < self.keep_rate < 1):
            raise ParameterError("episodes.keep_rate must be in (0, 1)")
        if not (0 <= self.gate_threshold <= 1):
            raise ParameterError("episodes.gate_threshold must be in [0, 1]")
        if self.candidate_neighbors < 1:
            raise ParameterError("episodes.candidate_neighbors must be >= 1")


class EvaluationModel(Protocol):
    """What the progressive sampler needs from a meta-learned snapshot."""

    def predict_scores(self, features: np.ndarray) -> np.ndarray:
        """Per-sample scores over the task's ways, shape (n, ways)."""

    def finetuned(self, support_x: np.ndarray, support_y: np.ndarray) -> "EvaluationModel":
        """A copy adapted to the given support set; self is untouched."""


@dataclass
class WayProvenance:
    base_cluster: int
    query_cluster: int
    progressive: bool
    fallback: bool = False


@dataclass
class FewShotTask:
    """Index-based episode: support is (ways, shots) and query (ways,
    queries); the way label of a sample is its row."""

    support: np.ndarray
    query: np.ndarray
    provenance: list[WayProvenance] = field(default_factory=list)
    progressive: bool = False

    @property
    def ways(self) -> int:
        return self.support.shape[0]

    def support_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        ways, shots = self.support.shape
        return self.support.reshape(-1), np.repeat(np.arange(ways), shots)

    def query_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        ways, queries = self.query.shape
        return self.query.reshape(-1), np.repeat(np.arange(ways), queries)

    def validate_structure(self, n_samples: int) -> None:
        """Raise if counts, index ranges, or support/query disjointness are
        violated."""
        if self.support.ndim != 2 or self.query.ndim != 2:
            raise ConstructionError("support and query must be 2-D")
        if self.support.shape[0] != self.query.shape[0]:
            raise ConstructionError("support and query must agree on the number of ways")
        all_idx = np.concatenate([self.support.reshape(-1), self.query.reshape(-1)])
        if all_idx.min() < 0 or all_idx.max() >= n_samples:
            raise ConstructionError("sample index out of range")
        s = set(self.support.reshape(-1).tolist())
        q = set(self.query.reshape(-1).tolist())
        if s & q:
            raise ConstructionError("support and query sets overlap")
        if len(s) != self.support.size:
            raise ConstructionError("duplicate sample within the support set")
        for way in range(self.query.shape[0]):
            if np.unique(self.query[way]).size != self.query.shape[1]:
                raise ConstructionError(f"duplicate query sample within way {way}")
        if len(self.provenance) != self.support.shape[0]:
            raise ConstructionError("provenance must cover every way")


def eligible_clusters(pld: PseudoLabeledDataset, min_size: int) -> np.ndarray:
    return np.array(
        [c for c, m in enumerate(pld.members) if m.size >= min_size], dtype=np.int64
    )


def sample_standard_task(
    pld: PseudoLabeledDataset, config: EpisodeConfig, rng: np.random.Generator
) -> FewShotTask:
    """Draw ways distinct clusters (uniform among those with at least
    shots + queries members) and split shots + queries distinct members of
    each into support and query."""
    need = config.shots + config.queries
    eligible = eligible_clusters(pld, need)
    if eligible.size < config.ways:
        raise ConstructionError(
            f"only {eligible.size} clusters have {need}+ members, need {config.ways}"
        )
    chosen = rng.choice(eligible, size=config.ways, replace=False)
    support = np.empty((config.ways, config.shots), dtype=np.int64)
    query = np.empty((config.ways, config.queries), dtype=np.int64)
    provenance = []
    for way, cluster_id in enumerate(chosen):
        picks = rng.choice(pld.members[cluster_id], size=need, replace=False)
        support[way] = picks[: config.shots]
        query[way] = picks[config.shots :]
        provenance.append(
            WayProvenance(int(cluster_id), int(cluster_id), progressive=False)
        )
    return FewShotTask(support=support, query=query, provenance=provenance)


def cluster_entropy(member_features: np.ndarray, eval_model, ways: int) -> float:
    """Entropy of the evaluation model's predicted labels over a cluster.

    Each member gets the argmax label of its score vector; the entropy of
    the label frequencies (natural log, 0 log 0 = 0) says how much of the
    cluster the model has not already pinned down.
    """
    member_features = np.asarray(member_features, dtype=np.float64)
    if member_features.ndim != 2 or member_features.shape[0] == 0:
        raise ParameterError("cluster must be a non-empty (n, d) matrix")
    scores = np.asarray(eval_model.predict_scores(member_features))
    if scores.shape != (member_features.shape[0], ways):
        raise ParameterError(f"evaluation model must emit {ways} scores per sample")
    labels = np.argmax(scores, axis=1)
    counts = np.bincount(labels, minlength=ways).astype(np.float64)
    probs = counts / counts.sum()
    nonzero = probs > 0
    return float(-np.sum(probs[nonzero] * np.log(probs[nonzero])))


def select_final_cluster(
    candidate_ids, pld: PseudoLabeledDataset, eval_model, ways: int
) -> int:
    """Candidate with the highest entropy; ties go to the earlier (nearer)
    candidate."""
    candidate_ids = list(candidate_ids)
    if not candidate_ids:
        raise ParameterError("need at least one candidate cluster")
    entropies = [
        cluster_entropy(pld.features[pld.members[c]], eval_model, ways)
        for c in candidate_ids
    ]
    return int(candidate_ids[int(np.argmax(entropies))])


def filter_noisy(
    features: np.ndarray,
    member_indices: np.ndarray,
    eval_model,
    way_index: int,
    keep_rate: float,
    min_required: int | None = None,
) -> np.ndarray:
    """Keep the floor(keep_rate * n) members most confidently scored as
    way_index.

    Scores are the softmax probability of way_index; members are sorted by
    descending score with ties resolved by their position in
    member_indices. Raises InsufficientSamplesError if fewer than
    min_required members survive.
    """
    if not (0 < keep_rate < 1):
        raise ParameterError("keep_rate must be in (0, 1)")
    member_indices = np.asarray(member_indices, dtype=np.int64)
    if member_indices.size == 0:
        raise ParameterError("cluster has no members")
    scores = np.asarray(eval_model.predict_scores(features[member_indices]))
    probs = softmax(scores)[:, way_index]
    order = np.argsort(-probs, kind="stable")
    kept = member_indices[order][: int(np.floor(keep_rate * member_indices.size))]
    if min_required is not None and kept.size < min_required:
        raise InsufficientSamplesError(
            f"filtering kept {kept.size} members, need {min_required}"
        )
    return kept


def progressive_task(
    pld: PseudoLabeledDataset,
    cluster_model: ClusterModel,
    eval_model,
    config: EpisodeConfig,
    rng: np.random.Generator,
) -> FewShotTask:
    """Build one episode with the entropy-guided query source, bypassing
    the gate.

    Each way's support comes from a base cluster; a copy of the evaluation
    model is finetuned on the whole support set, and the way's queries are
    drawn from whichever candidate neighbor cluster has the highest
    predicted-label entropy, after dropping its lowest-scored members.
    Ways whose filtered pool cannot supply enough fresh queries fall back
    to their base cluster (recorded in provenance). Support samples are
    never reused as queries; query samples are unique within a task except
    in the last-resort fallback, where a way may share queries with
    another way's.
    """
    if eval_model is None:
        raise ParameterError("progressive sampling requires an evaluation model")
    if cluster_model.k <= config.candidate_neighbors:
        raise ParameterError("need more clusters than candidate_neighbors")
    need = config.shots + config.queries  # base must be able to back a fallback
    eligible = eligible_clusters(pld, need)
    if eligible.size < config.ways:
        raise ConstructionError(
            f"only {eligible.size} clusters have {need}+ members, need {config.ways}"
        )
    bases = rng.choice(eligible, size=config.ways, replace=False)
    support = np.empty((config.ways, config.shots), dtype=np.int64)
    for way, cluster_id in enumerate(bases):
        support[way] = rng.choice(pld.members[cluster_id], size=config.shots, replace=False)

    support_flat = support.reshape(-1)
    support_ways = np.repeat(np.arange(config.ways), config.shots)
    adapted = eval_model.finetuned(pld.features[support_flat], support_ways)

    all_support = set(support_flat.tolist())
    used = set(support_flat.tolist())
    query = np.empty((config.ways, config.queries), dtype=np.int64)
    provenance = []
    for way, base in enumerate(bases):
        candidates = nearest_clusters(cluster_model, int(base), config.candidate_neighbors)
        final = select_final_cluster(candidates, pld, adapted, config.ways)
        fallback = False
        try:
            kept = filter_noisy(
                pld.features,
                pld.members[final],
                adapted,
                way,
                config.keep_rate,
                min_required=config.queries,
            )
            pool = np.array([i for i in kept if i not in used], dtype=np.int64)
            if pool.size < config.queries:
                raise InsufficientSamplesError(
                    f"filtered pool for way {way} has {pool.size} fresh members"
                )
        except InsufficientSamplesError:
            fallback = True
            pool = np.array(
                [i for i in pld.members[base] if i not in used], dtype=np.int64
            )
            if pool.size < config.queries:
                # other ways drained the base cluster; permit query reuse
                # across ways rather than fail (supports stay excluded)
                pool = np.array(
                    [i for i in pld.members[base] if i not in all_support], dtype=np.int64
                )
            if pool.size < config.queries:
                raise ConstructionError(
                    f"base cluster {base} cannot supply {config.queries} queries"
                )
        picks = rng.choice(pool, size=config.queries, replace=False)
        query[way] = picks
        used.update(picks.tolist())
        provenance.append(
            WayProvenance(
                base_cluster=int(base),
                query_cluster=int(base) if fallback else int(final),
                progressive=True,
                fallback=fallback,
            )
        )
    return FewShotTask(support=support, query=query, provenance=provenance, progressive=True)


def sample_task_batch(
    pld: PseudoLabeledDataset,
    cluster_model: ClusterModel,
    eval_model,
    config: EpisodeConfig,
    rng: np.random.Generator,
    count: int,
) -> list[FewShotTask]:
    """Gated sampler for a batch of count episodes.

    Without an evaluation model no gate is drawn and every task is
    standard. Otherwise one uniform draw decides for the whole batch: at or
    below gate_threshold the tasks are standard, above it they run the
    progressive mechanism, so roughly (1 - gate_threshold) of batches are
    progressive.
    """
    if eval_model is not None and rng.uniform() > config.gate_threshold:
        return [progressive_task(pld, cluster_model, eval_model, config, rng) for _ in range(count)]
    return [sample_standard_task(pld, config, rng) for _ in range(count)]


def write_tasks_csv(tasks: list[FewShotTask], path) -> None:
    """Audit dump: one row per sample placement."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["task_id", "role", "way", "sample_index", "source_cluster", "progressive_flag"]
        )
        for task_id, task in enumerate(tasks):
            for way in range(task.ways):
                prov = task.provenance[way]
                for idx in task.support[way]:
                    writer.writerow(
                        [task_id, "support", way, int(idx), prov.base_cluster, int(prov.progressive)]
                    )
                for idx in task.query[way]:
                    writer.writerow(
                        [task_id, "query", way, int(idx), prov.query_cluster, int(prov.progressive)]
                    )
