"""plcfe pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a plcfe source checkout. Closed loop, one client: each
repetition is one full cli.run_pipeline for the workload's config and the
given seed, in a fresh child interpreter, and the next starts when it ends.
Repetitions run until the next one would end after --seconds (at least
two). --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced repetitions and reports its per-layer
metrics. Every repetition is checked for correctness. The last stdout line
is one JSON object: correct, attempted, failed, metrics. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import STAGES

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

WORKLOADS = {
    "maml-progressive": {
        "method": "maml",
        "episode_mode": "progressive",
        "episodes": {"gate_threshold": 0.5},
    },
    # 200 per class, not 400: a ~5 s repetition fits six times in a run, a ~10 s one
    # only two or three, which left the run median too noisy to compare
    "proto-scaled": {"method": "proto", "dataset": {"classes": 16, "per_class": 200, "dim": 32}},
    "maml-eval": {"method": "maml", "maml": {"epochs": 2}, "eval": {"tasks": 2000, "shots": [1, 5]}},
}
# --tiny shrinks every workload so the smoke test finishes in seconds
TINY = {
    "dataset": {"per_class": 60},
    "cfe": {"epochs": 10},
    "cluster": {"restarts": 2},
    "maml": {"epochs": 4, "steps_per_epoch": 25},
    "eval": {"tasks": 40},
}

MIN_REPS = 2  # the rerun hash check needs two repetitions
MIN_SETUP_SAMPLES = 5
HARD_LIMIT_S = 170.0  # the whole run must end within 180 s
EVAL_ACC_FLOOR = 0.60  # acceptance criterion 4
BLAS_THREADS = 1  # at most nproc; one thread gave steadier timings than two

# The workloads on which each traced span must record at least one call:
# those whose end-to-end metric the span is expected to move (README.md).
EXERCISED_ON = {
    **{f"cli.stage.{s}": tuple(WORKLOADS) for s in STAGES},
    **{f"numcore.{f}": ("maml-progressive", "maml-eval") for f in
       ("mlp_forward_cached", "mlp_backward", "params_to_vector", "vector_to_params")},
    **{f"data.{f}": ("proto-scaled",) for f in ("augment", "read_dataset", "write_dataset")},
    **{f"cfe.{f}": ("proto-scaled",) for f in
       ("build_positive_batch", "asynchronous_embed", "cfe_loss", "momentum_update",
        "NegativeQueue.as_matrix")},
    "cluster.kmeans": ("proto-scaled",),
    "cluster.assign_pseudo_labels": ("proto-scaled",),
    "cluster.nearest_clusters": ("maml-progressive",),
    **{f"episodes.{f}": ("maml-progressive",) for f in
       ("sample_standard_task", "progressive_task", "cluster_entropy", "filter_noisy")},
    **{f"metalearn.{f}": ("maml-progressive",) for f in
       ("maml_meta_step", "model_loss_and_grad", "maml_inner_adapt",
        "SnapshotEvaluationModel.finetuned", "snapshot_eval_model")},
    "metalearn.proto_meta_step": ("proto-scaled",),
    "metalearn.evaluate_fewshot": ("maml-eval",),
    **{f"metrics.{f}": ("proto-scaled",) for f in
       ("similarity_ratio", "pca_project_2d", "clustering_accuracy")},
}


def merged(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        out[key] = merged(out[key], value) if isinstance(out.get(key), dict) else value
    return out


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "loadavg_1m": os.getloadavg()[0],
    }


class Runner:
    """Starts child repetitions and keeps every sample and failure."""

    def __init__(self, raw_config: dict, run_dir: Path, deadline: float, hard_deadline: float):
        self.raw = raw_config
        self.run_dir = run_dir
        self.deadline = deadline
        self.hard_deadline = hard_deadline
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
            OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
            OMP_NUM_THREADS=str(BLAS_THREADS),
            MKL_NUM_THREADS=str(BLAS_THREADS),
        )
        self.attempted = 0
        self.failures: list[str] = []
        self.setup: list[float] = []
        self.reps: dict[bool, list[dict]] = {False: [], True: []}
        self.wall: dict[str, list[float]] = {}

    def fits(self, *kinds: str) -> bool:
        """Whether one more child of each kind should end before the deadline."""
        estimate = sum(statistics.median(self.wall[k]) for k in kinds if self.wall.get(k))
        return time.perf_counter() + estimate <= self.deadline

    def child(self, kind: str, *flags: str) -> dict | None:
        self.attempted += 1
        label = f"{kind} #{len(self.wall.get(kind, [])) + 1}"
        timeout = self.hard_deadline - time.perf_counter()
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(self.raw), *flags],
                env=self.env,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=max(timeout, 1.0),
            )
        except subprocess.TimeoutExpired:
            return self.fail(label, f"no result within {timeout:.0f} s")
        self.wall.setdefault(kind, []).append(time.perf_counter() - started)
        if proc.returncode != 0:
            return self.fail(label, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def fail(self, label: str, message: str) -> None:
        self.failures.append(f"{label}: {message}")
        print(f"FAILED {label}: {message}", flush=True)
        return None

    def setup_probe(self) -> None:
        result = self.child("setup", "--setup-only")
        if result is not None:
            self.setup.append(result["setup_s"])

    def repetition(self, traced: bool) -> None:
        kind = "traced" if traced else "pipeline"
        shutil.rmtree(self.raw["out_dir"], ignore_errors=True)
        trace_dir = self.run_dir / f"trace{len(self.reps[True]) + 1}"
        result = self.child(kind, *(["--trace", str(trace_dir)] if traced else []))
        if result is None:
            return
        label = f"{kind} #{len(self.wall[kind])}"
        self.setup.append(result["setup_s"])
        problems = []
        if not result["eval_acc"] >= EVAL_ACC_FLOOR:
            problems.append(f"eval_acc {result['eval_acc']:.4f} < {EVAL_ACC_FLOOR}")
        if not result["ratio_drop"] > 0:
            problems.append(f"ratio_drop {result['ratio_drop']:.4f} is not > 0")
        reference = next((r["artifacts"] for r in self.reps[False] + self.reps[True]), None)
        if reference is not None and result["artifacts"] != reference:
            differ = sorted(
                name for name in set(reference) | set(result["artifacts"])
                if reference.get(name) != result["artifacts"].get(name)
            )
            problems.append(f"artifacts differ from the first repetition: {', '.join(differ)}")
        if problems:
            self.fail(label, "; ".join(problems))
            return
        print(
            f"{label}: pipeline_s={result['pipeline_s']:.4f} setup_s={result['setup_s']:.4f} "
            f"cpu_s={result['cpu_s']:.4f} peak_rss_mb={result['peak_rss_mb']:.1f}",
            flush=True,
        )
        self.reps[traced].append(result)


def spread_line(name: str, values: list[float], unit: str) -> str:
    """Median plus the highest percentile with at least ten samples beyond
    it; with ten samples or fewer no percentile qualifies and the max is
    shown instead."""
    n = len(values)
    line = f"{name:<16} median {statistics.median(values):.4f} {unit}"
    if n > 10:
        pct = int(100 * (1 - 10 / n))
        cut = statistics.quantiles(values, n=100)[pct - 1]
        return line + f"  p{pct} {cut:.4f} {unit}  n={n}"
    return line + f"  max {max(values):.4f} {unit}  n={n}"


def end_to_end(runner: Runner) -> dict[str, float]:
    reps = runner.reps[False]
    values = {
        "pipeline_s": statistics.median(r["pipeline_s"] for r in reps),
        "setup_s": statistics.median(runner.setup),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "eval_acc": statistics.median(r["eval_acc"] for r in reps),
        "ratio_drop": statistics.median(r["ratio_drop"] for r in reps),
        "pseudo_purity": statistics.median(r["pseudo_purity"] for r in reps),
        "success_rate": 1.0 - len(runner.failures) / runner.attempted,
    }
    for name, samples, unit in (
        ("pipeline_s", [r["pipeline_s"] for r in reps], "s"),
        ("setup_s", runner.setup, "s"),
        ("cpu_s", [r["cpu_s"] for r in reps], "s"),
    ):
        print(spread_line(name, samples, unit))
    print(f"error_rate       {len(runner.failures)}/{runner.attempted} runs")
    return values


def per_layer(runner: Runner, workload: str, names: list[str]) -> dict[str, float]:
    """Medians over the traced repetitions; a name is <span>.<stat> with
    stat calls, s or self_s, or one of the child's ratio metrics."""
    traced = runner.reps[True]
    values = {
        "trace_overhead": statistics.median(r["pipeline_s"] for r in traced)
        / statistics.median(r["pipeline_s"] for r in runner.reps[False])
    }
    for name in names:
        if name in values:
            continue
        if name in traced[0]["layers"]["rates"]:
            values[name] = statistics.median(r["layers"]["rates"][name] for r in traced)
            continue
        span, stat = name.rsplit(".", 1)
        values[name] = statistics.median(r["layers"]["spans"][span][stat] for r in traced)
    spans = traced[0]["layers"]["spans"]
    silent = [s for s, on in EXERCISED_ON.items() if workload in on and not spans.get(s, {}).get("calls")]
    if silent:
        runner.fail("traced", f"no call recorded on {workload} for {', '.join(silent)}")
    print("per-span medians over traced repetitions (calls, s, self_s):")
    for span in spans:
        row = [statistics.median(r["layers"]["spans"][span][k] for r in traced)
               for k in ("calls", "s", "self_s")]
        print(f"  {span:<44} {row[0]:>9.0f} {row[1]:>10.4f} {row[2]:>10.4f}")
    return values


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken configs for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "plcfe" / "cli.py").is_file():
        print(f"error: no plcfe sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.perf_counter()
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    facts = machine_facts()
    print("machine " + json.dumps(facts), flush=True)
    raw = merged(WORKLOADS[args.workload], TINY) if args.tiny else dict(WORKLOADS[args.workload])
    raw.update(seed=args.seed, out_dir=str(run_dir / "work"))
    print(f"workload {args.workload} seed {args.seed} config {json.dumps(raw)}", flush=True)

    runner = Runner(raw, run_dir, started + args.seconds, started + HARD_LIMIT_S)
    # users import from compiled bytecode, so compile it before any timing
    compileall.compile_dir(ROOT / "src", quiet=1)
    if args.trace:
        while "traced" not in runner.wall or runner.fits("pipeline", "traced"):
            if time.perf_counter() >= runner.hard_deadline:
                break
            runner.repetition(traced=False)
            runner.repetition(traced=True)
        spec = bench["per_layer"]
    else:
        while len(runner.wall.get("pipeline", [])) < MIN_REPS or runner.fits("pipeline"):
            if time.perf_counter() >= runner.hard_deadline:
                break
            runner.repetition(traced=False)
        while len(runner.setup) < MIN_SETUP_SAMPLES and time.perf_counter() < runner.hard_deadline:
            runner.setup_probe()
        spec = bench["end_to_end"]

    if not runner.reps[False] or (args.trace and not runner.reps[True]):
        print(json.dumps({"correct": False, "attempted": runner.attempted,
                          "failed": len(runner.failures), "metrics": {}}))
        return 1
    if args.trace:
        values = per_layer(runner, args.workload, [m["name"] for m in spec])
    else:
        values = end_to_end(runner)
    compared = len(runner.reps[False]) + len(runner.reps[True]) >= MIN_REPS
    if not compared:
        print("FAILED run: fewer than two repetitions succeeded, so reruns were not compared")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": compared and not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    with open(run_dir / "result.json", "w") as fh:
        json.dump({**result, "machine": facts, "workload": args.workload, "seed": args.seed,
                   "failures": runner.failures, "setup_samples": runner.setup,
                   "repetitions": runner.reps[False] + runner.reps[True]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
