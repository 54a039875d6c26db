"""Every imported name is read somewhere in its module, and no command
imports scipy.optimize.

No linter ships with the project, so this parses the sources instead: an
import left behind when the code that read it is deleted fails here. The
package's __init__.py is skipped, since its imports are its exports, and
so are __future__ imports, which are directives.

scipy.optimize costs every command about 0.2 s and 22 MB at start-up; the
package needs only scipy.fft.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path for path in (ROOT / "src" / "ionoptics").glob("*.py") if path.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(tree):
    """The names `tree` imports that no Name node reads; an attribute
    chain such as np.fft.fft2 reads its base through a Name node."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_is_found():
    tree = ast.parse("import os\nimport numpy.fft\nfrom math import pi, tau\nprint(numpy, tau)\n")
    assert unused_imports(tree) == ["os", "pi"]


def optimize_imports(tree):
    """Line numbers of the imports of scipy.optimize anywhere in `tree`,
    function bodies included."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "scipy.optimize" or name.startswith("scipy.optimize.") for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "ionoptics").glob("*.py")), ids=lambda path: path.name
)
def test_package_does_not_import_scipy_optimize(path):
    assert optimize_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_optimize_import_is_found():
    tree = ast.parse(
        "import scipy.fft\nfrom scipy import fft, optimize\n"
        "def f():\n    from scipy.optimize import curve_fit\n    import scipy.optimize as so\n"
    )
    assert optimize_imports(tree) == [2, 4, 5]


def test_cli_and_spot_fit_leave_scipy_optimize_unloaded():
    code = (
        "import sys\n"
        "import ionoptics.cli\n"
        "from ionoptics import beam_from_mfd, make_gaussian_field, spot_metrics\n"
        "beam = beam_from_mfd(5e-6, 5e-6, 0.729e-6)\n"
        "metrics = spot_metrics(make_gaussian_field(beam, (0.0, 0.0), (128, 128, 0.25e-6)))\n"
        "assert not metrics.fit_failed\n"
        "sys.exit('scipy.optimize' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
