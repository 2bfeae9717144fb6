"""Few-shot episode construction from pseudo-labels.

Every episode starts from one draw kernel, draw_episodes: for a batch of
tasks it picks each task's ways distinct clusters and each way's distinct
members as one (tasks, ways, picks) index array, sorting its random keys
a block of tasks at a time so a meta-eval draw of thousands of tasks
stays small. Two samplers build on it:
a plain one that splits each way's picks into support and query, and a
progressive one for the small fraction of task batches that pass a random
gate. The progressive sampler builds its batch support-first: it takes the
bases and supports of all T tasks from one kernel draw, finetunes the
evaluation model on the T supports as one stack, and scores every row of
the split for every task in one forward pass, (T, N, ways). The argmax
labels fill one predicted-label count table per task, from which one call
gives every cluster's entropy. One table of every (task, way)'s nearest
neighbor clusters and one argmax over their entropies pick each way's final
cluster, its query source, for the whole batch, and only the final
clusters' rows get numcore.log_softmax, the package's one softmax, which
ranks members for the noise filter.
Then, task after task and way after way, each final cluster's noisiest
members are dropped and the way's queries drawn, so the generator is called
in the same order as by one task at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._binio import write_csv
from .cluster import ClusterModel, PseudoLabeledDataset, nearest_clusters
from .errors import ConstructionError, ParameterError
from .numcore import log_softmax

# draw_episodes pads and argsorts its member keys this many tasks at a
# time: one argsort of a whole meta-eval draw (thousands of tasks) kept a
# full int64 copy of the keys and their padding mask alive beside them.
DRAW_BLOCK_TASKS = 256


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


def way_pairs(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(..., ways, n) sample indices as (..., ways * n) indices and their
    way labels: the way of a sample is its row."""
    *lead, ways, n = indices.shape
    labels = np.repeat(np.arange(ways), n)
    return indices.reshape(*lead, ways * n), np.broadcast_to(labels, (*lead, ways * n))


def draw_episodes(
    pld: PseudoLabeledDataset, ways: int, picks: int, rng: np.random.Generator, tasks: int = 1,
    groups: str = "clusters",
) -> tuple[np.ndarray, np.ndarray]:
    """(tasks, ways) cluster ids and (tasks, ways, picks) sample indices:
    each task's ways are distinct clusters drawn uniformly among those with
    at least picks members, and each way's picks are distinct members of
    its cluster drawn uniformly, both in random order. Too few such
    clusters is a ConstructionError that calls them `groups`.

    Both draws take the argsort of i.i.d. uniform keys, whose k smallest
    form a uniform random k-subset in random order (the unweighted case of
    Efraimidis & Spirakis, 2006). Member slots past a cluster's size get
    key +inf, so they sort after every real member. Every key is drawn by
    one rng.random call; the padding and the argsort then run
    DRAW_BLOCK_TASKS tasks at a time, so only one block's mask and sort
    order are alive at once, and the result does not depend on the block
    size.
    """
    sizes = pld.sizes
    eligible = np.flatnonzero(sizes >= picks)
    if eligible.size < ways:
        raise ConstructionError(f"only {eligible.size} {groups} have {picks}+ members, need {ways}")
    clusters = eligible[np.argsort(rng.random((tasks, eligible.size)), axis=1)[:, :ways]]
    keys = rng.random((tasks, ways, int(sizes[eligible].max())))
    slots, drawn_sizes = np.arange(keys.shape[-1]), sizes[clusters][..., None]
    positions = np.empty((tasks, ways, picks), dtype=np.int64)
    for start in range(0, tasks, DRAW_BLOCK_TASKS):
        block = slice(start, start + DRAW_BLOCK_TASKS)
        keys[block][slots >= drawn_sizes[block]] = np.inf
        positions[block] = np.argsort(keys[block], axis=-1)[..., :picks]
    positions += pld.starts[clusters][..., None]
    return clusters, pld.flat_members[positions]


def sample_standard_task(
    pld: PseudoLabeledDataset, config: EpisodeConfig, rng: np.random.Generator
) -> FewShotTask:
    """One draw_episodes task of shots + queries picks per way (clusters
    with fewer members are never drawn), split into support and query."""
    (clusters,), (picks,) = draw_episodes(pld, config.ways, config.shots + config.queries, rng)
    provenance = [WayProvenance(int(c), int(c), progressive=False) for c in clusters]
    return FewShotTask(picks[:, : config.shots], picks[:, config.shots :], provenance)


def predicted_label_counts(scores: np.ndarray, pld: PseudoLabeledDataset) -> np.ndarray:
    """(k, ways) table: how many members of each cluster take each way as
    the argmax label of their (n, ways) score row. (T, n, ways) scores give
    one table per task, (T, k, ways), from one bincount whose bins carry a
    task offset."""
    *lead, n, ways = scores.shape
    tasks = int(np.prod(lead))
    ids = np.arange(tasks)[:, None] * pld.num_clusters + pld.pseudo_labels
    flat = ids * ways + np.argmax(scores, axis=-1).reshape(tasks, n)
    counts = np.bincount(flat.ravel(), minlength=tasks * pld.num_clusters * ways)
    return counts.reshape(*lead, pld.num_clusters, ways)


def cluster_entropy(label_counts: np.ndarray) -> np.ndarray:
    """Entropy of each row of a (c, ways) predicted-label count table.

    The entropy of a cluster's label frequencies (natural log, 0 log 0 = 0)
    says how much of the cluster the model has not already pinned down.
    """
    counts = np.asarray(label_counts, dtype=np.float64)
    sizes = counts.sum(axis=1, keepdims=True)
    if np.any(sizes == 0):
        raise ParameterError("every cluster needs at least one member")
    probs = counts / sizes
    logs = np.log(probs, out=np.zeros_like(probs), where=probs > 0)
    return -np.sum(probs * logs, axis=1)


def select_final_cluster(candidate_ids, entropy: np.ndarray):
    """Candidate with the highest entropy, read from a per-cluster entropy
    vector; ties go to the earlier (nearer) candidate. An empty cluster's
    entropy is NaN, and choosing among it is a ParameterError.

    A (c,) candidate row gives one cluster id. A (T, ways, c) table with
    (T, k) entropies, one row per task, gives the (T, ways) choices from
    one argmax, as would a call per (task, way).
    """
    candidate_ids = np.asarray(candidate_ids, dtype=np.int64)
    if candidate_ids.size == 0:
        raise ParameterError("need at least one candidate cluster")
    rows = np.atleast_2d(entropy)
    values = np.take_along_axis(rows, candidate_ids.reshape(rows.shape[0], -1), axis=1)
    if np.isnan(values).any():
        raise ParameterError("every cluster needs at least one member")
    best = np.argmax(values.reshape(candidate_ids.shape), axis=-1)
    finals = np.take_along_axis(candidate_ids, best[..., None], axis=-1)[..., 0]
    return int(finals) if finals.ndim == 0 else finals


def filter_noisy(
    log_probs: np.ndarray,
    member_indices: np.ndarray,
    way_index: int,
    keep_rate: float,
) -> np.ndarray:
    """Keep the floor(keep_rate * n) members most confidently scored as
    way_index.

    log_probs holds log-softmax rows over the ways, indexed by
    member_indices; members are sorted by descending log-probability of
    way_index with ties resolved by their position in member_indices.
    """
    if not (0 < keep_rate < 1):
        raise ParameterError("keep_rate must be in (0, 1)")
    member_indices = np.asarray(member_indices, dtype=np.int64)
    if member_indices.size == 0:
        raise ParameterError("cluster has no members")
    order = np.argsort(-log_probs[member_indices, way_index], kind="stable")
    return member_indices[order][: int(np.floor(keep_rate * member_indices.size))]


def progressive_task(
    pld: PseudoLabeledDataset,
    config: EpisodeConfig,
    rng: np.random.Generator,
    bases: np.ndarray,
    support: np.ndarray,
    finals: np.ndarray,
    log_probs: list[np.ndarray],
) -> FewShotTask:
    """One progressive episode from its (ways,) base clusters, (ways,
    shots) support and (ways,) final clusters, the highest-entropy
    candidate neighbor of each base. log_probs[way] holds the log-softmax
    rows over the ways, (size, ways), of the members of finals[way] in
    pld.members order, as the model finetuned on that support scored them.

    Each way's queries are drawn from its final cluster, after dropping
    that cluster's lowest-scored members. Ways whose filtered pool cannot
    supply enough fresh queries fall back to their base cluster (recorded
    in provenance). Support samples are never reused as queries; query
    samples are unique within a task except in the last-resort fallback,
    where a way may share queries with another way's.
    """
    is_support = np.zeros(pld.features.shape[0], dtype=bool)
    is_support[support.ravel()] = True
    used = is_support.copy()
    query = np.empty((config.ways, config.queries), dtype=np.int64)
    provenance = []
    for way, (base, final) in enumerate(zip(bases, finals)):
        members = pld.members[final]
        kept = members[filter_noisy(log_probs[way], np.arange(members.size), way, config.keep_rate)]
        pool = kept[~used[kept]]
        fallback = pool.size < config.queries
        if fallback:
            members = pld.members[base]
            pool = members[~used[members]]
            if pool.size < config.queries:
                # other ways drained the base cluster; permit query reuse
                # across ways rather than fail (supports stay excluded)
                pool = members[~is_support[members]]
            if pool.size < config.queries:
                raise ConstructionError(
                    f"base cluster {base} cannot supply {config.queries} queries"
                )
        picks = rng.choice(pool, size=config.queries, replace=False)
        query[way] = picks
        used[picks] = True
        provenance.append(
            WayProvenance(
                base_cluster=int(base),
                query_cluster=int(base) if fallback else int(final),
                progressive=True,
                fallback=fallback,
            )
        )
    return FewShotTask(support=support, query=query, provenance=provenance, progressive=True)


def sample_progressive_batch(
    pld: PseudoLabeledDataset,
    cluster_model: ClusterModel,
    eval_model,
    config: EpisodeConfig,
    rng: np.random.Generator,
    count: int,
) -> list[FewShotTask]:
    """count progressive episodes, built support-first, bypassing the gate.

    One draw_episodes call gives every task's base clusters and picks; a
    base needs shots + queries members to back a fallback. The evaluation
    model is finetuned once on the (count, ways * shots) support stack and
    scores every row of the split for every task. The (count, N, ways)
    scores give each task's cluster entropies, from which one
    nearest_clusters table and one argmax pick every (task, way)'s final
    cluster. Only the final clusters' rows get a log-softmax, and
    progressive_task then filters and draws the tasks' queries in task
    order.

    eval_model is a SnapshotEvaluationModel or a test double with its two
    methods: finetuned(support_x, support_y) on (count, n, d) support rows
    and (count, n) way labels returns an adapted copy, whose predict_scores
    maps (count, N, d) rows to (count, N, ways) scores.
    """
    if eval_model is None:
        raise ParameterError("progressive sampling requires an evaluation model")
    if cluster_model.k <= config.candidate_neighbors:
        raise ParameterError("need more clusters than candidate_neighbors")
    bases, picks = draw_episodes(pld, config.ways, config.shots + config.queries, rng, count)
    support = picks[..., : config.shots]
    support_flat, support_ways = way_pairs(support)
    adapted = eval_model.finetuned(pld.features[support_flat], support_ways)
    every_row = np.broadcast_to(pld.features, (count, *pld.features.shape))
    scores = np.asarray(adapted.predict_scores(every_row))
    if scores.shape != (count, pld.features.shape[0], config.ways):
        raise ParameterError(f"evaluation model must emit {config.ways} scores per sample")
    counts = predicted_label_counts(scores, pld)
    # an empty cluster has no entropy; NaN marks it for select_final_cluster
    entropy = np.full((count, pld.num_clusters), np.nan)
    filled = pld.sizes > 0
    entropy[:, filled] = cluster_entropy(counts[:, filled].reshape(-1, config.ways)).reshape(count, -1)
    finals = select_final_cluster(
        nearest_clusters(cluster_model, bases, config.candidate_neighbors), entropy
    )
    # the final clusters' score rows, task after task and way after way
    sizes = pld.sizes[finals]
    rows = scores[np.repeat(np.arange(count), sizes.sum(axis=1)),
                  np.concatenate([pld.members[f] for f in finals.ravel()])]
    log_probs = np.split(log_softmax(rows), np.cumsum(sizes.ravel())[:-1])
    return [
        progressive_task(pld, config, rng, *task, log_probs[t * config.ways : (t + 1) * config.ways])
        for t, task in enumerate(zip(bases, support, finals))
    ]


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
        return sample_progressive_batch(pld, cluster_model, eval_model, config, rng, count)
    return [sample_standard_task(pld, config, rng) for _ in range(count)]


def write_tasks_csv(tasks: list[FewShotTask], path) -> None:
    """Audit dump: one row per sample placement."""

    def rows():
        for task_id, task in enumerate(tasks):
            for way in range(task.ways):
                prov = task.provenance[way]
                for idx in task.support[way]:
                    yield [task_id, "support", way, int(idx), prov.base_cluster, int(prov.progressive)]
                for idx in task.query[way]:
                    yield [task_id, "query", way, int(idx), prov.query_cluster, int(prov.progressive)]

    header = ["task_id", "role", "way", "sample_index", "source_cluster", "progressive_flag"]
    write_csv(path, header, rows())
