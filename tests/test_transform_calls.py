"""Every FFT in the package runs through wavefield._fft2, the one place
that skips known-zero columns and that the transform-count tests patch.

Like tests/test_imports.py, this parses the sources: a scipy.fft (or
numpy.fft) transform called anywhere else fails here, whether through a
module alias or a name imported from the module.
"""

import ast
from pathlib import Path

import pytest
import scipy.fft

ROOT = Path(__file__).resolve().parents[1]
HELPER = "_fft2"
FFT_MODULES = ("scipy.fft", "numpy.fft")
# the public scipy.fft names that compute no transform
NOT_TRANSFORMS = {
    "fftfreq", "rfftfreq", "fftshift", "ifftshift", "next_fast_len", "prev_fast_len",
    "fhtoffset", "set_backend", "skip_backend", "set_global_backend",
    "register_backend", "get_workers", "set_workers",
}
TRANSFORMS = set(scipy.fft.__all__) - NOT_TRANSFORMS


def qualified(node, imported):
    """The dotted name of a Name or attribute chain, its base resolved
    through `imported` (local name -> imported dotted name); "" for any
    other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(imported.get(node.id, node.id))
    return ".".join(reversed(parts))


def stray_transforms(tree):
    """(line, dotted name) of every FFT-module transform that `tree` calls
    outside a function named HELPER."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                base = alias.name if alias.asname else alias.name.split(".")[0]
                imported[alias.asname or base] = base
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    inside = {
        id(inner) for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == HELPER
        for inner in ast.walk(node)
    }
    stray = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in inside:
            module, _, name = qualified(node.func, imported).rpartition(".")
            if module in FFT_MODULES and name in TRANSFORMS:
                stray.append((node.lineno, f"{module}.{name}"))
    return sorted(stray)


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "ionoptics").glob("*.py")), ids=lambda path: path.name
)
def test_every_transform_runs_in_the_helper(path):
    assert stray_transforms(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_stray_transform_is_found():
    tree = ast.parse(
        "import numpy as np\nimport scipy.fft\nimport scipy.fft as sfft\n"
        "from scipy import fft\nfrom scipy.fft import ifft2 as inverse\n"
        "def _fft2(x):\n    return sfft.fft2(x)\n"
        "def f(x):\n    sfft.fftfreq(8)\n"
        "    return scipy.fft.fft(x), fft.ifftn(x), inverse(x), np.fft.fft2(x)\n"
    )
    assert stray_transforms(tree) == [
        (10, "numpy.fft.fft2"), (10, "scipy.fft.fft"),
        (10, "scipy.fft.ifft2"), (10, "scipy.fft.ifftn"),
    ]
