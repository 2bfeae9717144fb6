"""Pipeline driver.

Each stage is independently runnable from the previous stage's artifacts
on disk, and `pipeline` chains them all: generate data, train the
embedding, embed, report similarity metrics, cluster, meta-train on
pseudo-labeled episodes, and evaluate on held-out true-label tasks. Every
run is reproducible from (config, seed). Every stage runs through
`run_stage`, which checks it against manifest.json and records it there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from functools import reduce
from pathlib import Path

import numpy as np

from . import cfe as cfe_mod
from . import cluster as cluster_mod
from . import data as data_mod
from . import episodes as episodes_mod
from . import metalearn as meta_mod
from . import metrics as metrics_mod
from ._binio import artifact_file, write_csv
from .errors import FormatError, ParameterError, PlcfeError
from .numcore import KIND_ENCODER, KIND_FEWSHOT_MODEL, derive_rng, read_network, write_network

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

# spawn keys for per-stage RNG streams
KEY_GEN = 0
KEY_CFE_INIT = 1
KEY_CFE_TRAIN = 2
KEY_SPLIT = 3
KEY_CLUSTER = 4
KEY_META = 5
KEY_EVAL = 6
KEY_TASKS = 7


@dataclass
class DatasetSection:
    classes: int = 8
    per_class: int = 100
    dim: int = 16
    separation: float = 6.0
    test_fraction: float = 0.2

    def __post_init__(self):
        if not (0 < self.test_fraction < 1):
            raise ParameterError("dataset.test_fraction must be in (0, 1)")


@dataclass
class ClusterSection:
    k: int | None = None  # default: 4 x true class count
    restarts: int = 10
    max_iters: int = 100

    def __post_init__(self):
        if self.k is not None and (isinstance(self.k, bool) or not isinstance(self.k, int)):
            raise ParameterError(f"cluster.k must be null or an integer, not {json.dumps(self.k)}")
        if self.k is not None and self.k < 1:
            # a k above the training row count depends on the data, and is refused by kmeans
            raise ParameterError(f"cluster.k must be null or >= 1, not {self.k}")
        if self.restarts < 1 or self.max_iters < 1:
            raise ParameterError("cluster.restarts and cluster.max_iters must be >= 1")


@dataclass
class EvalSection:
    tasks: int = 500
    shots: tuple[int, ...] = (1,)

    def __post_init__(self):
        if self.tasks < 1 or any(s < 1 for s in self.shots):
            raise ParameterError("eval.tasks and every eval.shots entry must be >= 1")
        if not self.shots or len(set(self.shots)) != len(self.shots):
            # each shot count writes its own eval_<method>_shot<K>.csv
            raise ParameterError(f"eval.shots needs one or more distinct shot counts, not {list(self.shots)}")


@dataclass
class PipelineConfig:
    seed: int = 1234
    out_dir: str = "runs/out"
    method: str = "maml"
    episode_mode: str = "standard"
    dataset: DatasetSection = field(default_factory=DatasetSection)
    augment: data_mod.AugmentConfig = field(
        default_factory=lambda: data_mod.AugmentConfig(noise_std=1.25, scale_range=(0.9, 1.1))
    )
    cfe: cfe_mod.CfeConfig = field(default_factory=cfe_mod.CfeConfig)
    cluster: ClusterSection = field(default_factory=ClusterSection)
    episodes: episodes_mod.EpisodeConfig = field(default_factory=episodes_mod.EpisodeConfig)
    maml: meta_mod.MamlConfig = field(default_factory=meta_mod.MamlConfig)
    eval: EvalSection = field(default_factory=EvalSection)

    def __post_init__(self):
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, not {self.seed}")
        if self.method not in ("maml", "proto"):
            raise ParameterError("method must be 'maml' or 'proto'")
        if self.episode_mode not in ("standard", "progressive"):
            raise ParameterError("episode_mode must be 'standard' or 'progressive'")


# JSON values a config key takes, by the type of its field's default; no
# field is a flag, so true and false are refused, and a None default takes any
_VALUE_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    tuple: ((list, tuple), "a list"),
}


def _check_value(name: str, value, default) -> None:
    if default is None:
        return
    accepted, kind = _VALUE_TYPES[type(default)]
    if not isinstance(value, accepted) or isinstance(value, bool):
        raise ParameterError(f"config key {name} must be {kind}, not {json.dumps(value)}")
    if isinstance(default, tuple):
        for i, item in enumerate(value):
            _check_value(f"{name}[{i}]", item, default[0])


def _build(default, raw, prefix: str = ""):
    """`default` with the keys of the JSON object `raw` set: a field whose
    default is a dataclass is a section, built the same way from that
    default, and every other value must have its default's type."""
    if not isinstance(raw, dict):
        where = f"config section {prefix[:-1]!r}" if prefix else "a config"
        raise ParameterError(f"{where} must be a JSON object, not {json.dumps(raw)}")
    given = {}
    for key, value in raw.items():
        if key not in default.__dataclass_fields__:
            raise ParameterError(f"unknown config key: {prefix}{key}")
        field_default = getattr(default, key)
        if is_dataclass(field_default):
            given[key] = _build(field_default, value, f"{prefix}{key}.")
        else:
            _check_value(prefix + key, value, field_default)
            given[key] = tuple(value) if isinstance(field_default, tuple) else value
    return replace(default, **given)


def build_config(raw: dict) -> PipelineConfig:
    """Nested dict (parsed JSON) to a validated PipelineConfig; unknown
    keys and values of the wrong type are rejected by name."""
    return _build(PipelineConfig(), raw)


def train_test_split(n: int, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Label-free random split, re-derivable from the seed by any stage."""
    perm = derive_rng(seed, KEY_SPLIT).permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def clustered_k(k: int | None, classes: int) -> int:
    """The k a config with these cluster.k and dataset.classes clusters
    with: cluster.k, or 4 x dataset.classes when it is null."""
    return 4 * classes if k is None else k


def _refuse_sizes(name: str, config: PipelineConfig) -> None:
    """Refuse a size that stage `name`'s split cannot supply, read from the
    config, which the dataset check holds dataset.plds to: a meta-train
    task's ways are distinct clusters, so cluster refuses a k below them
    too, a task takes shots + queries distinct rows per way, a meta-eval
    way is a held-out class with that many rows, counted from the split
    of gen_blobs' rows, and a progressive way chooses among
    candidate_neighbors other clusters."""
    n = config.dataset.classes * config.dataset.per_class
    train_idx, test_idx = train_test_split(n, config.dataset.test_fraction, config.seed)
    training = (train_idx.size, f"the {train_idx.size} training rows")
    k = clustered_k(config.cluster.k, config.dataset.classes)
    ways, queries = config.episodes.ways, config.episodes.queries
    held_out = np.bincount(data_mod.blob_labels(config.dataset.classes, config.dataset.per_class)[test_idx])
    eligible = [(s, int(np.sum(held_out >= s + queries))) for s in config.eval.shots]
    ways_in_k = ("episodes.ways", ways, k, f"cluster.k = {k}")
    limits = {  # per stage: (size name, size, limit, the limit's description)
        "train-cfe": [("cfe.batch_positives", config.cfe.batch_positives, *training)],
        "cluster": [("cluster.k", k, *training), ways_in_k],
        "meta-train": [ways_in_k, ("episodes.ways x (episodes.shots + episodes.queries)",
                                   ways * (config.episodes.shots + queries), *training)],
        "meta-eval": [("episodes.ways", ways, have, f"the {have} held-out classes with eval.shots entry {s} "
                       f"+ episodes.queries = {s + queries} or more rows") for s, have in eligible],
    }
    drawn_as = "meta-train" if name == "build-tasks" else name  # build-tasks draws meta-train's tasks
    for size_name, size, limit, what in limits.get(drawn_as, ()):
        if size > limit:
            raise ParameterError(f"{size_name} is {size}, more than {what}")
    neighbors = config.episodes.candidate_neighbors
    if drawn_as == "meta-train" and config.episode_mode == "progressive" and neighbors >= k:
        raise ParameterError(
            f"episodes.candidate_neighbors is {neighbors}; progressive episodes need it below cluster.k = {k}"
        )


class _Workspace:
    """Artifact paths within one output directory."""

    def __init__(self, out_dir: str):
        self.root = Path(out_dir)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        return self.root / name


def _split_dataset(config: PipelineConfig, ws: _Workspace):
    """This run's dataset and its train and test row indices."""
    ds = data_mod.read_dataset(ws.path("dataset.plds"))
    return (ds, *train_test_split(ds.n, config.dataset.test_fraction, config.seed))


def stage_gen_data(config: PipelineConfig, ws: _Workspace) -> list[str]:
    ds = data_mod.gen_blobs(
        config.dataset.classes,
        config.dataset.per_class,
        config.dataset.dim,
        config.dataset.separation,
        derive_rng(config.seed, KEY_GEN),
    )
    data_mod.write_dataset(ds, ws.path("dataset.plds"))
    return ["dataset.plds"]


def stage_train_cfe(config: PipelineConfig, ws: _Workspace) -> list[str]:
    ds, train_idx, _ = _split_dataset(config, ws)
    initial = cfe_mod.EncoderPair.initialize(
        ds.dim, config.cfe, derive_rng(config.seed, KEY_CFE_INIT)
    )
    write_network(initial.main, KIND_ENCODER, ws.path("cfe_initial.plcf"))
    pair, trace = cfe_mod.train_cfe(
        ds.features[train_idx],
        config.cfe,
        config.augment,
        derive_rng(config.seed, KEY_CFE_TRAIN),
        initial=initial,
    )
    write_network(pair.main, KIND_ENCODER, ws.path("cfe_trained.plcf"))
    cfe_mod.write_loss_trace(trace, ws.path("cfe_loss_trace.csv"))
    return ["cfe_initial.plcf", "cfe_trained.plcf", "cfe_loss_trace.csv"]


def stage_embed(config: PipelineConfig, ws: _Workspace) -> list[str]:
    ds = data_mod.read_dataset(ws.path("dataset.plds"))
    encoder = read_network(ws.path("cfe_trained.plcf"), KIND_ENCODER, "an encoder")
    embeddings = cfe_mod.encode(encoder, ds.features)
    data_mod.write_embeddings(embeddings, ws.path("embeddings.plem"))
    return ["embeddings.plem"]


def stage_metrics(config: PipelineConfig, ws: _Workspace) -> list[str]:
    """Similarity reports and 2-D projections for the initial and trained
    encoders, over the training split with true labels (evaluation path)."""
    ds, train_idx, _ = _split_dataset(config, ws)
    if ds.eval_labels is None:
        raise ParameterError("metrics stage needs a labeled dataset")
    features = ds.features[train_idx]
    labels = ds.eval_labels[train_idx]
    out = []
    for tag, ckpt in (("initial", "cfe_initial.plcf"), ("trained", "cfe_trained.plcf")):
        emb = cfe_mod.encode(read_network(ws.path(ckpt), KIND_ENCODER, "an encoder"), features)
        report = metrics_mod.similarity_ratio(
            cluster_mod.PseudoLabeledDataset(emb, labels, ds.classes),
            config.cfe.temperature,
        )
        metrics_mod.write_similarity_csv(report, ws.path(f"similarity_{tag}.csv"))
        points = metrics_mod.pca_project_2d(emb)
        metrics_mod.write_projection_csv(points, ws.path(f"pca_{tag}.csv"), labels)
        out += [f"similarity_{tag}.csv", f"pca_{tag}.csv"]
    return out


def stage_cluster(config: PipelineConfig, ws: _Workspace) -> list[str]:
    ds, train_idx, _ = _split_dataset(config, ws)
    embeddings = data_mod.read_embeddings(ws.path("embeddings.plem"))
    k = clustered_k(config.cluster.k, config.dataset.classes)
    model = cluster_mod.kmeans(
        embeddings[train_idx],
        k,
        max_iters=config.cluster.max_iters,
        n_restarts=config.cluster.restarts,
        rng=derive_rng(config.seed, KEY_CLUSTER),
    )
    cluster_mod.write_cluster_csv(
        model,
        ws.path("clusters_assignment.csv"),
        ws.path("clusters_centers.csv"),
        sample_indices=train_idx,
    )
    out = ["clusters_assignment.csv", "clusters_centers.csv"]
    if ds.eval_labels is not None:
        acc = metrics_mod.clustering_accuracy(model.assignment, ds.eval_labels[train_idx])
        write_csv(
            ws.path("clustering_quality.csv"),
            ["k", "inertia", "hungarian_accuracy"],
            [[k, f"{model.inertia:.17g}", f"{acc:.6f}"]],
        )
        out.append("clustering_quality.csv")
    return out


def _pseudo_labeled_train_split(config: PipelineConfig, ws: _Workspace):
    """The training split's cluster model, refused unless it covers exactly
    this split, and its pseudo-labeled dataset."""
    ds, train_idx, _ = _split_dataset(config, ws)
    model = cluster_mod.read_cluster_csv(
        ws.path("clusters_assignment.csv"), ws.path("clusters_centers.csv"), sample_indices=train_idx
    )
    return model, cluster_mod.assign_pseudo_labels(model, ds.features[train_idx])


def stage_meta_train(config: PipelineConfig, ws: _Workspace) -> list[str]:
    model, pld = _pseudo_labeled_train_split(config, ws)
    fs_model, history = meta_mod.meta_train(
        pld,
        model,
        config.episodes,
        config.maml,
        method=config.method,
        episode_mode=config.episode_mode,
        rng=derive_rng(config.seed, KEY_META),
    )
    write_network(fs_model, KIND_FEWSHOT_MODEL, ws.path("meta_model.plcf"))
    per_epoch = zip(history["epoch_query_loss"], history["epoch_progressive_fraction"])
    write_csv(
        ws.path("meta_history.csv"),
        ["epoch", "query_loss", "progressive_fraction"],
        ([epoch, f"{loss:.10g}", f"{fraction:.6f}"] for epoch, (loss, fraction) in enumerate(per_epoch)),
    )
    return ["meta_model.plcf", "meta_history.csv"]


def _eval_model(config: PipelineConfig, ws: _Workspace) -> meta_mod.SnapshotEvaluationModel:
    """meta_model.plcf as a scorer of episodes.ways-way tasks; a maml head
    of another width is refused before any task is drawn."""
    fs_model = read_network(ws.path("meta_model.plcf"), KIND_FEWSHOT_MODEL, "a few-shot model")
    if config.method == "maml" and fs_model.output_dim != config.episodes.ways:
        raise ParameterError(f"the maml head has {fs_model.output_dim} ways, the episodes {config.episodes.ways}")
    return meta_mod.snapshot_eval_model(fs_model, config.method, config.maml)


def stage_meta_eval(config: PipelineConfig, ws: _Workspace) -> list[str]:
    ds, _, test_idx = _split_dataset(config, ws)
    if ds.eval_labels is None:
        raise ParameterError("meta-eval needs a labeled dataset")
    scorer = _eval_model(config, ws)
    # evaluation-only: the held-out split grouped by its true labels
    pld = cluster_mod.PseudoLabeledDataset(ds.features[test_idx], ds.eval_labels[test_idx], ds.classes)
    out = []
    for shot_i, shots in enumerate(config.eval.shots):
        need = shots + config.episodes.queries
        rng = derive_rng(config.seed, KEY_EVAL, shot_i)
        _, picks = episodes_mod.draw_episodes(pld, config.episodes.ways, need, rng, config.eval.tasks,
                                              "held-out classes")
        result = meta_mod.evaluate_fewshot(
            scorer, pld.features, picks[..., :shots], picks[..., shots:]
        )
        name = f"eval_{config.method}_shot{shots}.csv"
        meta_mod.write_eval_csv(result, config.episodes.ways, shots, ws.path(name))
        out.append(name)
    return out


def stage_build_tasks(config: PipelineConfig, ws: _Workspace, count: int = 100) -> list[str]:
    model, pld = _pseudo_labeled_train_split(config, ws)
    rng = derive_rng(config.seed, KEY_TASKS)
    eval_model = _eval_model(config, ws) if config.episode_mode == "progressive" else None
    tasks = [
        task
        for _ in range(count)
        for task in episodes_mod.sample_task_batch(pld, model, eval_model, config.episodes, rng, 1)
    ]
    episodes_mod.write_tasks_csv(tasks, ws.path("tasks.csv"))
    return ["tasks.csv"]


# each stage's input artifacts, in pipeline order; `pipeline` runs all but build-tasks
STAGES = {
    "gen-data": (),
    "train-cfe": ("dataset.plds",),
    "embed": ("dataset.plds", "cfe_trained.plcf"),
    "metrics": ("dataset.plds", "cfe_initial.plcf", "cfe_trained.plcf"),
    "cluster": ("dataset.plds", "embeddings.plem"),
    "meta-train": ("dataset.plds", "clusters_assignment.csv", "clusters_centers.csv"),
    "meta-eval": ("dataset.plds", "meta_model.plcf"),
    "build-tasks": ("dataset.plds", "clusters_assignment.csv", "clusters_centers.csv"),
}
PIPELINE = tuple(STAGES)[:-1]
# the config keys an artifact's readers take from their own config, not
# from the file, so a reader must run with its maker's values of them
REDERIVED = {"dataset.plds": ("seed", *(f"dataset.{key}" for key in DatasetSection.__dataclass_fields__)),
             "clusters_centers.csv": ("cluster.k",), "meta_model.plcf": ("method",)}
MANIFEST_FORMAT = 3


def _rederived(key: str, echo: dict):
    """Config key `key` of a config's dict form, as a stage uses it: a null
    cluster.k is the k it clusters with."""
    if key == "cluster.k":
        return clustered_k(echo["cluster"]["k"], echo["dataset"]["classes"])
    return reduce(dict.__getitem__, key.split("."), echo)


def _write_manifest(ws: _Workspace, manifest: dict) -> None:
    with artifact_file(ws.path("manifest.json")) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_stage(name: str, config: PipelineConfig, ws: _Workspace, **options) -> dict:
    """Run stage `name` in ws, checked against manifest.json and then
    recorded in it with the config it ran with; returns the manifest.
    gen-data, from which every artifact descends, starts a new manifest."""
    inputs = STAGES[name] + ("meta_model.plcf",) * (name == "build-tasks" and config.episode_mode == "progressive")
    manifest = {"format": MANIFEST_FORMAT, "stages": {}, "artifacts": {}}
    echo = asdict(config)
    if inputs:
        try:  # every manifest field run_stage reads, and each input's REDERIVED values from its maker's record
            manifest = json.loads(ws.path("manifest.json").read_bytes())
            shaped = manifest["format"] == MANIFEST_FORMAT and type(manifest["artifacts"]) is dict and all(
                [type(r["inputs"]), type(r["outputs"]), type(r["config"])] == [list, list, dict]
                and all(type(a) is str for a in r["inputs"] + r["outputs"]) for r in manifest["stages"].values())
            made_by = {a: r["config"] for r in manifest["stages"].values() for a in r["outputs"]}
            made = [(key, _rederived(key, made_by[artifact]))
                    for artifact in inputs if artifact in manifest["artifacts"] for key in REDERIVED.get(artifact, ())]
        except (FileNotFoundError, ValueError, KeyError, TypeError, AttributeError):  # not JSON or UTF-8, or misshapen
            shaped = False
        if not shaped:
            raise FormatError(f"{ws.path('manifest.json')} is missing or not a format-{MANIFEST_FORMAT} "
                              "manifest; rerun from gen-data")
        for artifact in inputs:
            if artifact not in manifest["artifacts"] or not ws.path(artifact).exists():
                raise ParameterError(f"stage {name!r} needs {ws.path(artifact)}, which is missing or "
                                     "was made stale by a rerun upstream")
        for key, value in made:
            if value != (mine := _rederived(key, echo)):
                raise ParameterError(f"stage {name!r} runs with {key} {json.dumps(mine)}, but its inputs "
                                     f"in {ws.root} were made with {json.dumps(value)}")
    _refuse_sizes(name, config)
    stages = manifest["stages"]
    if name in stages:
        gone = set(stages.pop(name)["outputs"])
        for other in STAGES:  # pipeline order: a stage's inputs come from earlier stages
            if other in stages and gone.intersection(stages[other]["inputs"]):
                gone.update(stages.pop(other)["outputs"])
        manifest["artifacts"] = {a: h for a, h in manifest["artifacts"].items() if a not in gone}
        _write_manifest(ws, manifest)  # so a failing rerun leaves none of them listed
    # looked up when called, so a wrapper bound over stage_<name> runs too
    outputs = globals()["stage_" + name.replace("-", "_")](config, ws, **options)
    stages[name] = {"inputs": list(inputs), "outputs": outputs, "config": echo}
    manifest["artifacts"].update({a: hashlib.sha256(ws.path(a).read_bytes()).hexdigest() for a in outputs})
    _write_manifest(ws, manifest)
    return manifest


def run_pipeline(config: PipelineConfig, ws: _Workspace) -> dict:
    """Every stage's size refusals, so a bad config writes nothing, then
    every stage in order; returns the manifest."""
    for name in PIPELINE:
        _refuse_sizes(name, config)
    for name in PIPELINE:
        manifest = run_stage(name, config, ws)
    return manifest


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plcfe",
        description="Pseudo-labeling with clustering-friendly embeddings: pipeline driver.",
    )
    parser.add_argument("command", choices=[*STAGES, "pipeline"])
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override the global seed")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--method", choices=["maml", "proto"])
    parser.add_argument("--episodes", choices=["standard", "progressive"], dest="episode_mode")
    parser.add_argument("--ways", type=int, dest="episodes.ways")
    parser.add_argument("--shots", type=int, dest="episodes.shots")
    parser.add_argument("--queries", type=int, dest="episodes.queries")
    parser.add_argument("--tasks", type=int, help="task count for build-tasks")
    return parser


def _raw_config(args: argparse.Namespace):
    """The --config JSON with every given flag laid over it: a flag's dest
    is the config key it sets, `section.key` inside a section."""
    raw = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    if not isinstance(raw, dict):
        return raw  # refused by build_config
    for dest, value in vars(args).items():
        if value is None or dest in ("command", "config", "tasks"):
            continue
        section, _, key = dest.rpartition(".")
        target = raw.setdefault(section, {}) if section else raw
        if isinstance(target, dict):  # any other section value is refused by build_config
            target[key] = value
    return raw


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "meta-eval" and getattr(args, "episodes.shots") is not None:
            raise ParameterError("meta-eval takes its shot counts from eval.shots, not --shots")
        if args.tasks is not None and args.command != "build-tasks":
            raise ParameterError(f"--tasks applies to build-tasks only, not {args.command}")
        if args.tasks is not None and args.tasks < 1:
            raise ParameterError(f"--tasks must be >= 1, not {args.tasks}")
        config = build_config(_raw_config(args))
    except (ParameterError, json.JSONDecodeError, UnicodeDecodeError, OSError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        ws = _Workspace(config.out_dir)
        if args.command == "pipeline":
            manifest = run_pipeline(config, ws)
            print(f"pipeline done: {len(manifest['artifacts'])} artifacts in {ws.root}")
        else:
            count = {"count": args.tasks} if args.tasks is not None else {}
            manifest = run_stage(args.command, config, ws, **count)
            print(f"{args.command}: wrote {', '.join(manifest['stages'][args.command]['outputs'])}")
    except (ParameterError, FormatError) as exc:
        # a malformed input artifact is refused like a bad parameter
        print(f"validation error in {args.command}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PlcfeError as exc:
        print(f"stage {args.command} failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"{args.command}: file system error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
