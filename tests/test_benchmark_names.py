"""The names the benchmark traces, times and imports must exist in the program,
its calls into the program must bind to their signatures, and every layer a
traced workload requires must record calls.

perfbench/tracer.py wraps functions by (module, function) name,
perfbench/primitives.py calls two private wavefield helpers, and the
benchmark scripts import names from the package and call them. A rename,
deletion, signature change or a required call folded away would otherwise
surface only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
COMPACT = PERFBENCH.parent / "scenarios" / "compact.json"


def load_script(name):
    """perfbench/<name>.py as a module, without running its main."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_layers():
    return load_script("tracer").LAYERS


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


def _resolve(name):
    """The package attribute `name`, the submodule ionoptics.<name>, or None
    (test_benchmark_import_exists reports a missing name)."""
    package = importlib.import_module("ionoptics")
    if hasattr(package, name):
        return getattr(package, name)
    try:
        return importlib.import_module(f"ionoptics.{name}")
    except ImportError:
        return None


def program_calls():
    """(call site, callee, call node) of every call in a perfbench script to
    a name from the package: a `from ionoptics import` name, or an attribute
    of `import ionoptics as <alias>` or of an imported module such as
    `wavefield`, also when reached through `self.<name>`."""
    calls = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "ionoptics":
                bound.update((a.asname or a.name, _resolve(a.name)) for a in node.names)
            elif isinstance(node, ast.Import):
                bound.update(
                    (a.asname, importlib.import_module("ionoptics"))
                    for a in node.names
                    if a.name == "ionoptics" and a.asname
                )
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and bound.get(func.id) is not None:
                callee = bound[func.id]
            elif isinstance(func, ast.Attribute):
                owner = func.value
                key = getattr(owner, "id", None) or getattr(owner, "attr", None)
                if key not in bound or not hasattr(bound[key], func.attr):
                    continue
                callee = getattr(bound[key], func.attr)
            else:
                continue
            site = f"{path.name}:{node.lineno}"
            name = getattr(func, "id", None) or func.attr
            calls.append(pytest.param(site, callee, node, id=f"{site}-{name}"))
    return calls


@pytest.mark.parametrize("site, callee, call", program_calls())
def test_benchmark_call_binds(site, callee, call):
    # every keyword must name a parameter and the positional count must
    # fit; a call with *args gives no count to check
    keywords = {k.arg: None for k in call.keywords if k.arg is not None}
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    positional = [] if starred else [None] * len(call.args)
    try:
        inspect.signature(callee).bind_partial(*positional, **keywords)
    except TypeError as exc:
        pytest.fail(f"perfbench/{site}: {callee.__qualname__}: {exc}")


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


@pytest.mark.parametrize("workload, argv", [
    ("compact-design", ["design", str(COMPACT), "--dump-field", "x.sfld"]),
    ("compact-sweep", ["sweep", str(COMPACT), "--preset", "prism-mismatch"]),
], ids=["compact-design", "compact-sweep"])
def test_benchmark_required_layers_record_calls(workload, argv, tmp_path, monkeypatch):
    # perfbench's traced run fails when a layer it requires records no
    # calls; run the same check on the CLI path here
    from ionoptics import cli

    monkeypatch.chdir(tmp_path)  # the reports, tables and dumps land here
    monkeypatch.delenv("IONOPTICS_OUTDIR", raising=False)
    tracer = load_script("tracer").Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    called = {layer for layer, *_ in tracer.spans}
    silent = [name for name in load_script("run").REQUIRED_LAYERS[workload]
              if name not in called]
    assert not silent, f"{workload}: no calls recorded in {', '.join(silent)}"


def test_field_power_read_by_the_power_budget_check():
    # perfbench/workload.py's power-budget check reads ScalarField.power
    # from a dump; the tests above see calls and imports, not attribute reads
    import numpy as np

    from ionoptics.wavefield import ScalarField

    rng = np.random.default_rng(7)
    samples = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    pitch = 0.25e-6
    field = ScalarField(samples, pitch, 0.729e-6)
    assert "field.power" in (PERFBENCH / "workload.py").read_text(encoding="utf-8")
    assert field.power == pytest.approx(float(np.sum(np.abs(samples) ** 2)) * pitch**2,
                                        rel=1e-12)
