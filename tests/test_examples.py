"""Smoke tests: the runnable examples must stay runnable.

Each example is imported from its file and its ``main()`` executed; the
slow ones (capacity planning, the full k-core sweep) are excluded to
keep the suite fast — they are exercised by their own library-level
tests instead.
"""

import importlib.util
import os

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def _load(name):
    path = os.path.join(EXAMPLES_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name",
    ["quickstart", "social_network_analysis", "web_graph_pipeline", "fault_tolerance"],
)
def test_example_runs(name, capsys):
    module = _load(name)
    module.main()
    out = capsys.readouterr().out
    assert len(out) > 100  # produced a real report


def test_examples_all_have_mains():
    for entry in sorted(os.listdir(EXAMPLES_DIR)):
        if entry.endswith(".py"):
            module = _load(entry[:-3])
            assert hasattr(module, "main"), f"{entry} lacks main()"
