"""The names the benchmark traces and times must exist in the program.

perfbench/tracer.py wraps functions by (module, function) name and
perfbench/primitives.py calls two private wavefield helpers. A rename or
deletion would otherwise surface only when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


@pytest.mark.parametrize(
    "module, function",
    list(traced_layers()) + [("wavefield", "_transfer"), ("wavefield", "_window_guard")],
)
def test_benchmark_name_exists(module, function):
    home = importlib.import_module(f"ionoptics.{module}")
    assert callable(getattr(home, function, None)), f"ionoptics.{module}.{function}"
