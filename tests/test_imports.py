"""No module of the package or of the tests imports a name it never uses.

Each module's syntax tree is walked once: every name an import binds must
be read somewhere in the module, as a bare name or as the root of an
attribute chain (`np.int64` reads `np`).  Star imports and `__future__`
imports are left alone.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [*(ROOT / "src" / "fcplat").glob("*.py"), *(ROOT / "tests").glob("*.py")]
)


def unused_imports(source):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_the_gate_sees_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nnp.int64(d)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
