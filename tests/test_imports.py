"""Every imported name is read somewhere in its module.

No linter ships with the project, so this parses the sources instead: an
import left behind when the code that read it is deleted fails here. The
package's __init__.py is skipped, since its imports are its exports, and
so are __future__ imports, which are directives.
"""

import ast
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
