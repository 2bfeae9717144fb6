"""Smoke test of the benchmark harness on tiny configs; it gates no timing.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {
    "pipeline_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "eval_acc": "ratio",
    "ratio_drop": "ratio",
    "pseudo_purity": "ratio",
    "success_rate": "ratio",
}
LAYERS = ["cli", "numcore", "data", "cfe", "cluster", "episodes", "metalearn", "metrics"]


def run_bench(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "maml-progressive", "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_result(proc: subprocess.CompletedProcess, spec: list[dict]) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert f"{m['name']} = " in proc.stdout
    return result


def test_end_to_end_metrics_have_names_and_units():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END
    check_result(run_bench(0), BENCH["end_to_end"])


def test_traced_run_reports_every_layer_and_writes_spans():
    names = [m["name"] for m in BENCH["per_layer"]]
    assert "trace_overhead" in names
    for layer in LAYERS:
        assert any(n.startswith(layer + ".") for n in names), layer
    check_result(run_bench(1), BENCH["per_layer"])
    trace_dir = ROOT / "perfbench" / "out" / "maml-progressive-seed1-trace1" / "trace1"
    tree = json.loads((trace_dir / "trace_tree.json").read_text())
    assert tree[0]["path"] == "cli.run_pipeline"
    assert (trace_dir / "trace_spans.npz").is_file()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
