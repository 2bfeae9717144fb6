"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The project's pytest options include -rP, so the lines printed here appear
in the PASSES section of every run.
"""

import json
import math
import time
from itertools import product

import numpy as np
import pytest

from plcfe import cli
from plcfe.cfe import (
    CfeConfig,
    EncoderPair,
    NegativeQueue,
    cfe_loss,
    encode,
    momentum_update,
    train_cfe,
)
from plcfe.cluster import PseudoLabeledDataset, assign_pseudo_labels, kmeans
from plcfe.data import AugmentConfig, gen_blobs
from plcfe.episodes import (
    EpisodeConfig,
    filter_noisy,
    cluster_entropy,
    sample_progressive_batch,
    sample_standard_task,
    sample_task_batch,
    select_final_cluster,
)
from plcfe.metalearn import MamlConfig, evaluate_fewshot, meta_train, snapshot_eval_model
from plcfe.metrics import clustering_accuracy, similarity_ratio
from plcfe.numcore import l2_normalize, log_softmax

from helpers import finite_diff_check, make_rng, validate_structure


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


class StubScorer:
    """Deterministic evaluation model: predicted labels come from a fixed
    table keyed by feature column 0, for (n, d) rows or a (T, n, d) stack."""

    def __init__(self, labels, ways):
        self.labels = np.asarray(labels)
        self.ways = ways

    def predict_scores(self, features):
        return np.eye(self.ways)[self.labels[features[..., 0].astype(int)]]

    def finetuned(self, support_x, support_y):
        return self


def index_pld(cluster_sizes, dim=3):
    n = sum(cluster_sizes)
    features = np.zeros((n, dim))
    features[:, 0] = np.arange(n)
    labels = np.repeat(np.arange(len(cluster_sizes)), cluster_sizes)
    return PseudoLabeledDataset(features=features, pseudo_labels=labels, num_clusters=len(cluster_sizes))


def test_criterion_1_gradient_fidelity():
    start = time.monotonic()
    worst = 0.0
    cases = list(product((2, 4), (0, 8))) * 5  # 20 instances
    for instance, (n_pos, n_neg) in enumerate(cases):
        rng = make_rng(9000 + instance)
        config = CfeConfig(
            batch_positives=n_pos, augments_per_point=2, queue_capacity=max(1, n_neg),
            temperature=0.2, embed_dim=8,
        )
        z = l2_normalize(rng.normal(size=(n_pos, 2, 8)))
        queue = NegativeQueue(max(1, n_neg))
        if n_neg:
            queue.push(l2_normalize(rng.normal(size=(n_neg, 8))))

        def fn(vec):
            full = z.copy()
            full[:, 0, :] = vec.reshape(n_pos, 8)
            loss, grad = cfe_loss(full, queue, config)
            return loss, grad.reshape(-1)

        err = finite_diff_check(fn, z[:, 0, :].reshape(-1).copy(), eps=1e-6)
        worst = max(worst, err)
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 60
    report(1, ok, f"max relative gradient error {worst:.3e} over 20 instances in {elapsed:.1f}s")


def test_criterion_2_loss_closed_forms():
    config = CfeConfig(batch_positives=2, augments_per_point=1, queue_capacity=4)
    orthogonal = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    identical = np.array([[[1.0, 0.0]], [[1.0, 0.0]]])
    loss_orth, _ = cfe_loss(orthogonal, NegativeQueue(4), config)
    loss_same, _ = cfe_loss(identical, NegativeQueue(4), config)
    err_orth = abs(loss_orth - math.log(1 + math.exp(-5)))
    err_same = abs(loss_same - math.log(2))
    ok = err_orth < 1e-9 and err_same < 1e-9
    report(2, ok, f"closed-form errors {err_orth:.2e} (orthogonal), {err_same:.2e} (identical)")


@pytest.fixture(scope="module")
def blob_run():
    """Shared scaled run: dataset, initial and trained encoders."""
    ds = gen_blobs(8, 100, 16, 6.0, make_rng(42))
    config = CfeConfig()  # 30 epochs, desk defaults
    initial = EncoderPair.initialize(16, config, make_rng(1))
    augmentation = AugmentConfig(noise_std=1.25, scale_range=(0.9, 1.1))
    trained, trace = train_cfe(ds.features, config, augmentation, make_rng(2), initial=initial)
    return ds, config, initial, trained, trace


def test_criterion_3_clustering_friendliness(blob_run):
    start = time.monotonic()
    ds, config, initial, trained, _ = blob_run
    before = similarity_ratio(
        PseudoLabeledDataset(encode(initial.main, ds.features), ds.eval_labels, 8),
        config.temperature,
    )
    after = similarity_ratio(
        PseudoLabeledDataset(encode(trained.main, ds.features), ds.eval_labels, 8),
        config.temperature,
    )
    drop = 1.0 - after.ratio / before.ratio
    model = kmeans(encode(trained.main, ds.features), 8, rng=make_rng(3))
    acc = clustering_accuracy(model.assignment, ds.eval_labels)
    elapsed = time.monotonic() - start
    ok = drop >= 0.5 and acc >= 0.90 and elapsed < 300
    report(
        3,
        ok,
        f"ratio {before.ratio:.4f} -> {after.ratio:.4f} (drop {drop:.1%}), "
        f"k-means accuracy {acc:.3f}, {elapsed:.1f}s",
    )


def test_criterion_4_end_to_end_fewshot(blob_run):
    start = time.monotonic()
    ds, config, _, trained, _ = blob_run
    perm = make_rng(7).permutation(ds.n)
    test_idx, train_idx = np.sort(perm[:160]), np.sort(perm[160:])

    embeddings = encode(trained.main, ds.features[train_idx])
    model = kmeans(embeddings, 32, rng=make_rng(8))
    pld = assign_pseudo_labels(model, ds.features[train_idx])
    episode_config = EpisodeConfig(ways=5, shots=1, queries=5)

    test_labels = ds.eval_labels[test_idx]
    test_pld = PseudoLabeledDataset(ds.features[test_idx], test_labels.copy(), 8)

    accuracies = {}
    for method in ("maml", "proto"):
        maml_config = MamlConfig()
        fs_model, _ = meta_train(
            pld, model, episode_config, maml_config,
            method=method, episode_mode="standard", rng=make_rng(9),
        )
        rng_eval = make_rng(10)
        tasks = [
            sample_standard_task(test_pld, episode_config, rng_eval) for _ in range(500)
        ]
        result = evaluate_fewshot(
            snapshot_eval_model(fs_model, method, maml_config), test_pld.features,
            np.stack([t.support for t in tasks]), np.stack([t.query for t in tasks])
        )
        accuracies[method] = result.mean_accuracy
    elapsed = time.monotonic() - start
    ok = all(acc >= 0.60 for acc in accuracies.values()) and elapsed < 600
    report(
        4,
        ok,
        f"5-way-1-shot over 500 held-out tasks: maml {accuracies['maml']:.3f}, "
        f"proto {accuracies['proto']:.3f} (chance 0.20), {elapsed:.1f}s",
    )


def test_criterion_5_entropy_oracle():
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    worst = 0.0
    checked = 0
    for ways in range(1, 5):
        for size in range(1, 13):
            for counts in compositions(size, ways):
                labels = np.repeat(np.arange(ways), counts)
                features = np.zeros((size, 2))
                features[:, 0] = np.arange(size)
                scores = StubScorer(labels, ways).predict_scores(features)
                value = cluster_entropy(scores[None], index_pld([size]))[0, 0]
                oracle = -sum(
                    (c / size) * math.log(c / size) for c in counts if c > 0
                )
                worst = max(worst, abs(value - oracle))
                checked += 1
    ok = worst <= 1e-12
    report(5, ok, f"max |entropy - frequency oracle| {worst:.2e} over {checked} label multisets")


def test_criterion_6_progressive_mechanics():
    # exact keep count
    keep_exact = True
    for size in range(2, 41):
        pld = index_pld([size])
        scorer = StubScorer(np.zeros(size, dtype=int), 2)
        kept = filter_noisy(log_softmax(scorer.predict_scores(pld.features))[:, 0], 0.75)
        keep_exact = keep_exact and kept.size == math.floor(0.75 * size)

    # argmax selection vs brute force on 100 random candidate sets
    rng = make_rng(20)
    pld = index_pld([6] * 12)
    labels = rng.integers(0, 3, size=72)
    scorer = StubScorer(labels, 3)
    select_ok = True
    for _ in range(100):
        candidates = rng.choice(12, size=5, replace=False).tolist()
        entropy = cluster_entropy(scorer.predict_scores(pld.features)[None], pld)
        chosen = select_final_cluster(np.array(candidates)[None, None], entropy)[0, 0]
        entropies = [
            cluster_entropy(scorer.predict_scores(pld.features[pld.members[c]])[None], index_pld([6]))[0, 0]
            for c in candidates
        ]
        select_ok = select_ok and chosen == candidates[int(np.argmax(entropies))]

    # gate concentration: binomial(10k, 0.1) within 3 sigma
    gate_pld = index_pld([30] * 8)
    centers = np.stack([gate_pld.features[m].mean(axis=0) for m in gate_pld.members])
    from plcfe.cluster import ClusterModel

    gate_model = ClusterModel(8, centers, gate_pld.pseudo_labels, 0.0)
    gate_scorer = StubScorer(make_rng(21).integers(0, 5, size=240), 5)
    config = EpisodeConfig(ways=5, shots=1, queries=5, candidate_neighbors=5, gate_threshold=0.9)
    rng_gate = make_rng(22)
    draws = 10_000
    progressive_count = sum(
        sample_task_batch(gate_pld, gate_model, gate_scorer, config, rng_gate, 1)[0].progressive
        for _ in range(draws)
    )
    sigma = math.sqrt(draws * 0.1 * 0.9)
    gate_ok = abs(progressive_count - draws * 0.1) < 3 * sigma

    ok = keep_exact and select_ok and gate_ok
    report(
        6,
        ok,
        f"keep counts exact: {keep_exact}; selection matches brute force: {select_ok}; "
        f"progressive fraction {progressive_count / draws:.4f} (target 0.10 +/- {3 * sigma / draws:.4f})",
    )


def test_criterion_7_structural_invariants():
    # 10k tasks across both modes satisfy every structural invariant
    pld = index_pld([30] * 8)
    centers = np.stack([pld.features[m].mean(axis=0) for m in pld.members])
    from plcfe.cluster import ClusterModel

    model = ClusterModel(8, centers, pld.pseudo_labels, 0.0)
    scorer = StubScorer(make_rng(30).integers(0, 5, size=240), 5)
    config = EpisodeConfig(ways=5, shots=1, queries=5, candidate_neighbors=5)
    rng = make_rng(31)
    n = pld.features.shape[0]
    for _ in range(5000):
        validate_structure(sample_standard_task(pld, config, rng), n)
    for _ in range(5000):
        validate_structure(sample_progressive_batch(pld, model, scorer, config, rng, 1)[0], n)

    # queue FIFO and capacity under a 1k-step randomized replay
    rng_q = make_rng(32)
    queue = NegativeQueue(64)
    mirror = []
    fifo_ok = True
    for _ in range(1000):
        block = rng_q.normal(size=(int(rng_q.integers(1, 9)), 4))
        queue.push(block)
        mirror.extend(block.tolist())
        fifo_ok = fifo_ok and len(queue) <= 64
        fifo_ok = fifo_ok and np.array_equal(queue.as_matrix(), np.array(mirror[-64:]))

    # momentum convex-combination identity
    rng_m = make_rng(33)
    pair = EncoderPair.initialize(6, CfeConfig(hidden_dims=(5,), embed_dim=4), rng_m)
    noisy = EncoderPair(
        main=pair.main,
        history=type(pair.main)(
            [(w + rng_m.normal(size=w.shape), b + rng_m.normal(size=b.shape))
             for w, b in pair.main.layers],
            pair.main.activation,
        ),
    )
    m = 0.99
    updated = momentum_update(noisy, m)
    worst = 0.0
    for (mw, mb), (hw, hb), (uw, ub) in zip(
        noisy.main.layers, noisy.history.layers, updated.history.layers
    ):
        worst = max(worst, float(np.max(np.abs(uw - (m * hw + (1 - m) * mw)))))
        worst = max(worst, float(np.max(np.abs(ub - (m * hb + (1 - m) * mb)))))
    momentum_ok = worst <= 1e-15

    ok = fifo_ok and momentum_ok
    report(
        7,
        ok,
        f"10k tasks structurally valid; queue FIFO replay ok: {fifo_ok}; "
        f"momentum identity error {worst:.1e}",
    )


def test_criterion_8_reproducibility(tmp_path):
    config_raw = {
        "seed": 2024,
        "dataset": {"classes": 6, "per_class": 40, "dim": 12, "separation": 6.0},
        "cfe": {"epochs": 8, "batch_positives": 24, "queue_capacity": 64,
                "hidden_dims": [24], "embed_dim": 12},
        "cluster": {"k": 12},
        "episodes": {"ways": 4, "shots": 1, "queries": 4},
        "maml": {"epochs": 3, "steps_per_epoch": 15},
        "eval": {"tasks": 60, "shots": [1]},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_raw))
    outs = [tmp_path / "run_a", tmp_path / "run_b"]
    for out in outs:
        code = cli.main(["pipeline", "--config", str(config_path), "--out", str(out)])
        assert code == cli.EXIT_OK
    manifests = [json.loads((out / "manifest.json").read_text()) for out in outs]
    hashes_equal = manifests[0]["artifacts"] == manifests[1]["artifacts"]
    bytes_equal = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in manifests[0]["artifacts"]
    )
    csv_names = [n for n in manifests[0]["artifacts"] if n.endswith(".csv")]
    checkpoint_names = [n for n in manifests[0]["artifacts"] if n.endswith(".plcf")]
    ok = hashes_equal and bytes_equal
    report(
        8,
        ok,
        f"two identical-seed pipeline runs: {len(csv_names)} CSVs byte-identical and "
        f"{len(checkpoint_names)} checkpoint hashes equal: {ok}",
    )
