"""The names the benchmark traces, times and imports must exist in the program.

perfbench/tracer.py wraps functions by (module, function) name,
perfbench/primitives.py calls two private wavefield helpers, and the
benchmark scripts import names from the package. A rename or deletion
would otherwise surface only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def traced_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def imported_names():
    """Every name in `from ionoptics import ...` or `import ionoptics.<name>`
    in a perfbench script, and every `pkg.<name>` in workload.py."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "ionoptics":
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(
                    alias.name.split(".", 1)[1]
                    for alias in node.names
                    if alias.name.startswith("ionoptics.")
                )
    workload = ast.parse((PERFBENCH / "workload.py").read_text(encoding="utf-8"))
    for node in ast.walk(workload):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "pkg") or (
                isinstance(owner, ast.Attribute) and owner.attr == "pkg"
            ):
                names.add(node.attr)
    return sorted(names)


@pytest.mark.parametrize(
    "module, function",
    list(traced_layers()) + [("wavefield", "_transfer"), ("wavefield", "_window_guard")],
)
def test_benchmark_name_exists(module, function):
    home = importlib.import_module(f"ionoptics.{module}")
    assert callable(getattr(home, function, None)), f"ionoptics.{module}.{function}"


@pytest.mark.parametrize("name", imported_names())
def test_benchmark_import_exists(name):
    package = importlib.import_module("ionoptics")
    if not hasattr(package, name):
        # `from ionoptics import cli` also finds a submodule
        importlib.import_module(f"ionoptics.{name}")


def test_window_guard_primitive_is_callable_as_timed():
    # perfbench/primitives.py times _window_guard(field, spectrum, distance)
    import scipy.fft as sfft

    from ionoptics import beam_from_mfd, make_gaussian_field
    from ionoptics import wavefield
    from ionoptics.errors import PropagationWindowError

    beam = beam_from_mfd(3e-6, 3e-6, 0.729e-6)
    field = make_gaussian_field(beam, tilt=(0.0, 0.05), grid=(64, 64, 0.25e-6))
    spectrum = sfft.fft2(field.samples, workers=-1)
    wavefield._window_guard(field, spectrum, 5e-6)
    with pytest.raises(PropagationWindowError):
        wavefield._window_guard(field, spectrum, 2e-3)
