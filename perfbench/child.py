"""One benchmark repetition, run by perfbench/run.py in a fresh interpreter.

    python3 perfbench/child.py CONFIG_JSON [--setup-only] [--trace DIR]

CONFIG_JSON is the raw plcfe config (seed and out_dir included). The child
times the import of plcfe.cli plus building the config (setup_s), then one
cli.run_pipeline (pipeline_s, cpu_s, peak_rss_mb), and reads the quality
metrics back from the artifacts. With --trace the pipeline runs under the
span tracer and the spans are written to DIR. The result is one JSON object
on the last line of stdout.
"""

from __future__ import annotations

# Only the standard library at module level: setup_s must include the numpy
# and scipy imports that plcfe.cli pulls in.
import argparse
import csv
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Functions traced per layer, as (module, attribute). Every name listed here
# becomes <module>.<attribute> in the per-layer metrics.
TRACED = {
    "numcore": ["mlp_forward_cached", "mlp_backward", "params_to_vector", "vector_to_params"],
    "data": ["augment", "read_dataset", "write_dataset"],
    "cfe": [
        "train_cfe",
        "build_positive_batch",
        "asynchronous_embed",
        "cfe_loss",
        "momentum_update",
        "NegativeQueue.as_matrix",
    ],
    "cluster": ["kmeans", "assign_pseudo_labels", "nearest_clusters"],
    "episodes": ["sample_standard_task", "progressive_task", "cluster_entropy", "filter_noisy"],
    "metalearn": [
        "meta_train",
        "maml_meta_step",
        "proto_meta_step",
        "model_loss_and_grad",
        "maml_inner_adapt",
        "SnapshotEvaluationModel.finetuned",
        "snapshot_eval_model",
        "evaluate_fewshot",
    ],
    "metrics": ["similarity_ratio", "pca_project_2d", "clustering_accuracy"],
}
STAGES = ["gen-data", "train-cfe", "embed", "metrics", "cluster", "meta-train", "meta-eval"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def quality(cli, config, out: Path) -> dict:
    """eval_acc, ratio_drop and pseudo_purity, read from the artifacts."""
    correct, total = 0.0, 0
    for shots in config.eval.shots:
        header, row = read_csv_rows(out / f"eval_{config.method}_shot{shots}.csv")[:2]
        fields = dict(zip(header, row))
        count = int(fields["task_count"])
        correct += float(fields["mean_acc"]) * count
        total += count

    def ratio(tag: str) -> float:
        return float(dict(read_csv_rows(out / f"similarity_{tag}.csv")[1:])["ratio"])

    # many-to-one purity: each cluster counts its most common true class
    dataset = cli.data_mod.read_dataset(out / "dataset.plds")
    assignment = read_csv_rows(out / "clusters_assignment.csv")[1:]
    counts: dict[tuple[int, int], int] = {}
    for sample, cluster_id in assignment:
        key = (int(cluster_id), int(dataset.eval_labels[int(sample)]))
        counts[key] = counts.get(key, 0) + 1
    best: dict[int, int] = {}
    for (cluster_id, _), n in counts.items():
        best[cluster_id] = max(best.get(cluster_id, 0), n)
    return {
        "eval_acc": correct / total,
        "ratio_drop": 1.0 - ratio("trained") / ratio("initial"),
        "pseudo_purity": sum(best.values()) / len(assignment),
    }


def verified_hashes(manifest: dict, out: Path) -> dict:
    """The manifest's artifact hashes, after checking each against the file."""
    for name, digest in manifest["artifacts"].items():
        actual = sha256(out / name)
        if actual != digest:
            raise RuntimeError(f"{name}: manifest sha256 {digest[:12]} but file has {actual[:12]}")
    return manifest["artifacts"]


class EpisodeAudit:
    """Collects meta-train episodes and progressive provenance while traced."""

    def __init__(self):
        self.tasks = []

    def on_task(self, tracer, task) -> None:
        if tracer.inside("cli.stage.meta-train"):
            self.tasks.append(task)

    def rates(self, true_labels) -> dict:
        """fallback_rate: fallback ways / progressive ways (0 with no
        progressive ways). query_noise: query placements whose true class
        differs from the majority true class of their way's support."""
        import numpy as np

        progressive = [p for t in self.tasks for p in t.provenance if p.progressive]
        noisy = placements = 0
        for task in self.tasks:
            for way in range(task.ways):
                way_class = np.bincount(true_labels[task.support[way]]).argmax()
                noisy += int(np.sum(true_labels[task.query[way]] != way_class))
                placements += task.query[way].size
        return {
            "episodes.fallback_rate": (
                sum(p.fallback for p in progressive) / len(progressive) if progressive else 0.0
            ),
            "episodes.query_noise": noisy / placements,
        }


def traced_run(cli, config, workspace, out: Path) -> tuple[dict, dict, float, object]:
    """run_pipeline under the tracer; returns the manifest, the per-span
    summary with the ratio metrics, pipeline seconds and the tracer."""
    import plcfe
    from tracer import Tracer

    modules = [getattr(plcfe, name) for name in ["cli", *TRACED]]
    audit = EpisodeAudit()
    eval_tasks = []
    hooks = {
        "episodes.sample_standard_task": audit.on_task,
        "episodes.progressive_task": audit.on_task,
        "metalearn.evaluate_fewshot": lambda tracer, result: eval_tasks.append(result.task_count),
    }
    tracer = Tracer()
    with tracer.patched():
        tracer.patch(modules, cli, "run_pipeline", "cli.run_pipeline")
        for stage in STAGES:
            tracer.patch(modules, cli, "stage_" + stage.replace("-", "_"), f"cli.stage.{stage}")
        for module_name, attrs in TRACED.items():
            module = getattr(plcfe, module_name)
            for attr in attrs:
                name = f"{module_name}.{attr}"
                tracer.patch(modules, module, attr, name, hooks.get(name))
        start = time.perf_counter()
        manifest = cli.run_pipeline(config, workspace)
        pipeline_s = time.perf_counter() - start
    summary = tracer.summary()
    dataset = cli.data_mod.read_dataset(out / "dataset.plds")
    train_idx, _ = cli.train_test_split(dataset.n, config.dataset.test_fraction, config.seed)
    rates = audit.rates(dataset.eval_labels[train_idx])
    evaluated = summary["metalearn.evaluate_fewshot"]
    rates["metalearn.evaluate_fewshot.tasks_per_s"] = sum(eval_tasks) / evaluated["s"]
    return manifest, {"spans": summary, "rates": rates}, pipeline_s, tracer


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=Path, metavar="DIR")
    args = parser.parse_args(argv)

    setup_start = time.perf_counter()
    from plcfe import cli

    config = cli.build_config(json.loads(args.config))
    setup_s = time.perf_counter() - setup_start
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"plcfe was imported from {cli.__file__}, not from {ROOT / 'src'}")
    result = {"setup_s": setup_s}
    if not args.setup_only:
        out = Path(config.out_dir)
        workspace = cli._Workspace(config.out_dir)
        before = resource.getrusage(resource.RUSAGE_SELF)
        if args.trace:
            manifest, layers, pipeline_s, tracer = traced_run(cli, config, workspace, out)
        else:
            start = time.perf_counter()
            manifest = cli.run_pipeline(config, workspace)
            pipeline_s = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            pipeline_s=pipeline_s,
            cpu_s=(after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
            peak_rss_mb=after.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            artifacts=verified_hashes(manifest, out),
            **quality(cli, config, out),
        )
        if args.trace:
            args.trace.mkdir(parents=True, exist_ok=True)
            tracer.write(args.trace)
            result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
