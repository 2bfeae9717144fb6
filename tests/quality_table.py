"""Per-seed quality metrics of the usual configs, for quality gates.

    python tests/quality_table.py SRC OUT.json
    python tests/quality_table.py --compare PARENT.json CHANGE.json

SRC is the root of a plcfe source checkout. For seeds 1 to 5, the script
runs SRC/perfbench/child.py --trace, one pipeline in a fresh interpreter
with one BLAS thread, on five configs: default, proto, and the workload
configs of SRC/perfbench/run.py. So every metric keeps the benchmark's own
definition: eval_acc, ratio_drop and pseudo_purity as the child reads them
from the artifacts, and episodes.fallback_rate and episodes.query_noise
from its meta-train episode audit. OUT.json maps each config to
{seed: {metric: value}}.

--compare reads two such files and prints, for each config and metric,
the mean of each side and the seeds on which the second file reads higher.

pytest does not collect this file; it runs 25 traced pipelines and takes
minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import mean

from manifest_hashes import workload_configs

SEEDS = (1, 2, 3, 4, 5)
BASE_CONFIGS = {"default": {}, "proto": {"method": "proto"}}
METRICS = ("eval_acc", "ratio_drop", "pseudo_purity", "episodes.fallback_rate", "episodes.query_noise")


def run_metrics(src: Path, config: dict, seed: int, work: Path) -> dict[str, float]:
    """The quality metrics of one traced child run in work."""
    raw = {**config, "seed": seed, "out_dir": str(work / "out")}
    env = {
        **os.environ,
        "PYTHONPATH": str(src / "src"),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    proc = subprocess.run(
        [sys.executable, str(src / "perfbench" / "child.py"), json.dumps(raw), "--trace", str(work / "trace")],
        env=env, cwd=src, check=True, capture_output=True, text=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {**result, **result["layers"]["rates"]}
    return {name: values[name] for name in METRICS}


def compare(before: dict, after: dict) -> int:
    """Print both means and the seeds where `after` reads higher."""
    print(f"{'config':<18} {'metric':<24} {'parent':>8} {'change':>8}  higher on seeds")
    for config in before:
        seeds = sorted(before[config].keys() & after.get(config, {}).keys(), key=int)
        for metric in METRICS:
            old = [before[config][s][metric] for s in seeds]
            new = [after[config][s][metric] for s in seeds]
            higher = [s for s, a, b in zip(seeds, old, new) if b > a]
            print(f"{config:<18} {metric:<24} {mean(old):>8.4f} {mean(new):>8.4f}  "
                  f"{len(higher)}/{len(seeds)} {','.join(higher)}")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(*(json.loads(Path(path).read_text()) for path in argv[1:]))
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out_json = Path(argv[0]).resolve(), Path(argv[1])
    table = {}
    for name, config in {**BASE_CONFIGS, **workload_configs(src)}.items():
        table[name] = {}
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as work:
                table[name][str(seed)] = run_metrics(src, config, seed, Path(work))
            print(f"{name} seed {seed}: {json.dumps(table[name][str(seed)])}", flush=True)
    out_json.write_text(json.dumps(table, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
