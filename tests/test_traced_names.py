"""Every span the traced benchmark run patches must exist under its name,
and be called on the workloads that expect it.

perfbench/child.py lists the traced functions in TRACED and the pipeline
stages in STAGES, and perfbench/run.py lists in EXERCISED_ON the workloads
on which each span must record a call; a rename in src/, or a code path
that stops calling a traced function, would otherwise only surface when
the traced benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import plcfe
from plcfe import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_module(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


child = load_module(PERFBENCH / "child.py", "perfbench_child")
TRACED = [(module, attr) for module, attrs in child.TRACED.items() for attr in attrs]


@pytest.mark.parametrize("module_name, attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_resolves(module_name, attr):
    module = getattr(plcfe, module_name)
    if "." in attr:
        class_name, method = attr.split(".")
        assert method in vars(getattr(module, class_name))
        assert callable(vars(getattr(module, class_name))[method])
    else:
        assert callable(getattr(module, attr))


@pytest.mark.parametrize("stage", child.STAGES)
def test_stage_function_exists(stage):
    assert callable(getattr(cli, "stage_" + stage.replace("-", "_")))


@pytest.fixture
def bench_run(monkeypatch):
    """perfbench/run.py, with the sibling modules it and child.py import by
    bare name (child, tracer) registered for the duration of the test."""
    monkeypatch.setitem(sys.modules, "child", child)
    monkeypatch.setitem(sys.modules, "tracer", load_module(PERFBENCH / "tracer.py", "tracer"))
    return load_module(PERFBENCH / "run.py", "perfbench_run")


@pytest.mark.parametrize("workload", ["maml-eval", "maml-progressive"])
def test_exercised_spans_record_calls(bench_run, workload, tmp_path):
    raw = bench_run.merged(bench_run.WORKLOADS[workload], bench_run.TINY)
    raw.update(seed=1, out_dir=str(tmp_path / "work"))
    config = cli.build_config(raw)
    _, layers, _, _ = child.traced_run(
        cli, config, cli._Workspace(config.out_dir), Path(config.out_dir)
    )
    expected = [span for span, on in bench_run.EXERCISED_ON.items() if workload in on]
    assert expected
    silent = [span for span in expected if not layers["spans"].get(span, {}).get("calls")]
    assert not silent, f"no call recorded on {workload} for {silent}"
