"""sha256 of every artifact of the usual runs, for byte-identity checks.

    python tests/manifest_hashes.py SRC OUT.json
    python tests/manifest_hashes.py --compare PARENT.json CHANGE.json

SRC is the root of a plcfe source checkout. For seeds 1 and 2, the script
runs `plcfe pipeline` and then `plcfe build-tasks` from SRC/src on seven
configs: default, proto, progressive, proto progressive, and the workload
configs of SRC/perfbench/run.py. Each run gets a fresh directory and one
BLAS thread. OUT.json maps each run name to {artifact: sha256} over every
file the run leaves, except manifest.json, whose format may change between
checkouts. Each run's manifest.json `artifacts` must match the files, as
perfbench/child.py `verified_hashes` checks; a stale entry stops the
script. Two checkouts are byte-identical on these runs when their OUT.json
files are equal; the script prints the run and artifact counts.

--compare reads two such files and prints, for each artifact name, in how
many runs its sha256 differs (an artifact or run missing on one side
differs) and the names of those runs. It exits 1 if any run differs and 0
if none does.

pytest does not collect this file; it runs 14 pipelines and takes minutes.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2)
BASE_CONFIGS = {
    "default": {},
    "proto": {"method": "proto"},
    "progressive": {"episode_mode": "progressive"},
    "proto-progressive": {"method": "proto", "episode_mode": "progressive"},
}


def workload_configs(src: Path) -> dict:
    """The WORKLOADS config dict of perfbench/run.py, read without importing it."""
    source = (src / "perfbench" / "run.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "WORKLOADS":
            return ast.literal_eval(node.value)
    raise LookupError(f"{src / 'perfbench' / 'run.py'} defines no WORKLOADS")


def run_hashes(src: Path, config: dict, seed: int, work: Path) -> dict[str, str]:
    """Artifact sha256s of one pipeline plus build-tasks run in work,
    after checking the run's manifest against them."""
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config))
    out = work / "out"
    env = {
        **os.environ,
        "PYTHONPATH": str(src / "src"),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    for command in ("pipeline", "build-tasks"):
        subprocess.run(
            [sys.executable, "-m", "plcfe", command, "--config", str(config_path),
             "--seed", str(seed), "--out", str(out)],
            env=env, check=True, capture_output=True, text=True,
        )
    hashes = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.name != "manifest.json"
    }
    recorded = json.loads((out / "manifest.json").read_text())["artifacts"]
    stale = sorted(name for name, digest in recorded.items() if hashes.get(name) != digest)
    if stale:
        raise RuntimeError(f"manifest.json sha256 differs from the file for {', '.join(stale)}")
    return hashes


def compare(before: dict, after: dict) -> int:
    """Print each artifact's count and names of differing runs; 1 if any
    differs."""
    runs = sorted(before.keys() | after.keys())
    names = sorted({name for side in (before, after) for hashes in side.values() for name in hashes})
    moved = 0
    for name in names:
        differ = [run for run in runs if before.get(run, {}).get(name) != after.get(run, {}).get(name)]
        moved += len(differ)
        print(f"{name}: {len(differ)} of {len(runs)} runs differ" + (f": {', '.join(differ)}" if differ else ""))
    return 1 if moved else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(*(json.loads(Path(path).read_text()) for path in argv[1:]))
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out_json = Path(argv[0]).resolve(), Path(argv[1])
    configs = {**BASE_CONFIGS, **workload_configs(src)}
    hashes = {}
    for name, config in configs.items():
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as work:
                hashes[f"{name}-seed{seed}"] = run_hashes(src, config, seed, Path(work))
    out_json.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    print(f"{len(hashes)} runs, {sum(map(len, hashes.values()))} artifacts -> {out_json}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
