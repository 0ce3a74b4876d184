"""Every name a swapsim module imports is used in that module.

No linter runs on this tree, so this is its unused-import check, on the
stdlib ``ast``: each name an import binds must be read as a name somewhere
in the module. ``__init__.py`` only re-exports, and an import line marked
``# noqa: F401`` holds names that bench/tracer.py wraps, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

import swapsim

SRC = Path(swapsim.__file__).parent
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, sorted."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {
                alias.asname or alias.name.split(".")[0] for alias in node.names
                if "# noqa: F401" not in lines[alias.lineno - 1]
            }
    return sorted(imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


def test_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from typing import Mapping, Sequence\n"
        "from .qcore import _spin_step  # noqa: F401\n"
        "def f(x: Sequence) -> None:\n"
        "    return np.asarray(x)\n"
    )
    assert unused_imports(source) == ["Mapping"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_import(module):
    assert unused_imports((SRC / module).read_text()) == []
