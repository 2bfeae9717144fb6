"""Every span the traced benchmark run patches must exist under its name.

perfbench/child.py lists the traced functions in TRACED and the pipeline
stages in STAGES; a rename in src/ would otherwise only surface when the
traced benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

import plcfe
from plcfe import cli

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


child = load_child()
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
