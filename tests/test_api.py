"""The package namespace is the library API that the README names."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import qkdsim

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Engine internals the package root no longer re-exports, with the module each stays in.
DROPPED = {
    "DistillAccounting": "distill",
    "EveTap": "eve",
    "Ket4": "quantum",
    "Message": "channel",
    "SiftResult": "protocol",
    "Stage1Record": "protocol",
    "default_block_policy": "distill",
    "discrimination_measurement": "eve",
    "estimate_error": "protocol",
    "eve_guess": "eve",
    "flip_state": "channel",
    "measure_povm_carrier": "quantum",
    "product_factors": "quantum",
    "quad_form": "quantum",
    "run_stage1_b92": "protocol",
    "run_stage1_bb84": "protocol",
    "session_transcript": "protocol",
    "sift_b92": "protocol",
    "sift_bb84": "protocol",
    "strategy_label": "report",
}


def readme_api() -> list:
    """The names on the README tour's "Library API" line, in order."""
    (line,) = [l for l in (ROOT / "README.md").read_text().splitlines() if l.startswith("Library API:")]
    return re.findall(r"`([A-Za-z_]\w*)`", line)


def test_namespace_equals_readme_line():
    names = readme_api()
    assert len(names) == len(set(names))
    public = {k for k, v in vars(qkdsim).items() if not k.startswith("_") and not inspect.ismodule(v)}
    assert public == set(names)
    assert inspect.ismodule(qkdsim.errors)


@pytest.mark.parametrize("name, module", DROPPED.items(), ids=list(DROPPED))
def test_dropped_name_stays_in_its_module(name, module):
    assert not hasattr(qkdsim, name)
    assert name in vars(importlib.import_module(f"qkdsim.{module}"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_imports_only_the_api(demo):
    api = set(readme_api())
    for node in ast.walk(ast.parse(demo.read_text())):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.startswith("qkdsim")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qkdsim"):
            assert node.module == "qkdsim"
            assert {a.name for a in node.names} <= api
