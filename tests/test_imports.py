"""Every name a swapsim module imports is used in that module, and every
private name it defines is read somewhere; the scalar oracle's imports and
top-level names too; and ``cli`` reads no private name of another module.

No linter runs on this tree, so these are its unused-import and dead-code
checks, on the stdlib ``ast``. Each name an import binds must be read as a
name somewhere in the module. ``__init__.py`` only re-exports, so it is
exempt, and an import line marked ``# noqa: F401`` may hold only names that
bench/tracer.py names, as it wraps them there. Each ``_name`` a module
defines at its top level must be read in ``src/swapsim`` (as a name, an
attribute or an imported name) or named in bench/tracer.py, which wraps
some private code by name. The oracle (``tests/scalar_oracle.py``) takes
the same unused-import check, and each name it defines at its top level
must be read somewhere under ``tests/``.
``cli.py`` reads no ``_name`` of another swapsim module, as an attribute or
an imported name: what it needs from one is public.
"""

import ast
from pathlib import Path

import pytest

import swapsim

SRC = Path(swapsim.__file__).parent
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
TRACER = SRC.parents[1] / "bench" / "tracer.py"
TESTS = Path(__file__).parent
ORACLE = TESTS / "scalar_oracle.py"


def unused_imports(source: str, tracer: str = "") -> list[str]:
    """The names ``source`` imports and never reads, sorted; a name imported
    on a ``# noqa: F401`` line is unused unless ``tracer`` names it."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported, exempt = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                (exempt if "# noqa: F401" in lines[alias.lineno - 1] else imported).add(name)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((imported - read) | (exempt - names_read(tracer, strings=True)))


def test_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from typing import Mapping, Sequence\n"
        "from .qcore import _spin_step  # noqa: F401\n"
        "def f(x: Sequence) -> None:\n"
        "    return np.asarray(x)\n"
    )
    assert unused_imports(source, "WRAPPED = [(qcore, '_spin_step')]\n") == ["Mapping"]


def test_check_finds_a_noqa_import_the_tracer_does_not_name():
    source = (
        "from .qcore import _bsm_step, _spin_step  # noqa: F401\n"
        "from .engine import run_trials  # noqa: F401\n"
    )
    tracer = "from swapsim import engine\nWRAPPED = [(engine, '_spin_step'), (engine, 'run_trials')]\n"
    assert unused_imports(source, tracer) == ["_bsm_step"]
    assert unused_imports(source) == ["_bsm_step", "_spin_step", "run_trials"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_import(module):
    assert unused_imports((SRC / module).read_text(), TRACER.read_text()) == []


def test_oracle_has_no_unused_import():
    assert unused_imports(ORACLE.read_text()) == []


def top_level_definitions(source: str) -> set[str]:
    """The names that ``source`` binds at its top level by def, class or
    assignment (dunder names aside)."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if not name.startswith("__")}


def private_definitions(source: str) -> set[str]:
    """The ``_name``s among ``source``'s top-level definitions."""
    return {name for name in top_level_definitions(source) if name.startswith("_")}


def names_read(source: str, strings: bool = False) -> set[str]:
    """Every name ``source`` reads as a name, an attribute or an imported
    name, and with ``strings`` every string constant (bench/tracer.py looks
    some attributes up by name)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def dead_private_names(sources: dict[str, str], tracer: str) -> list[str]:
    """``module.name`` for each private top-level name of ``sources`` (module
    name to source) that no source reads and ``tracer`` does not name."""
    read = set().union(*map(names_read, sources.values())) | names_read(tracer, strings=True)
    return sorted(f"{module}.{name}" for module, source in sources.items()
                  for name in private_definitions(source) - read)


def test_check_finds_dead_private_code():
    sources = {
        "io": (
            "_USED, (_LEFT, _RIGHT) = 1, (2, 3)\n"
            "_ONLY_A_STRING: int = 4\n"
            "def _helper():\n"
            "    return _USED + _RIGHT\n"
            "class _Wrapped:\n"
            "    pass\n"
            "def public():\n"
            "    return _helper(), '_ONLY_A_STRING'\n"
        ),
        "engine": "from .io import _LEFT\n",
    }
    tracer = "from swapsim import io\nWRAPPED = [(io, '_Wrapped')]\n"
    assert dead_private_names(sources, tracer) == ["io._ONLY_A_STRING"]


def test_no_dead_private_code():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources, TRACER.read_text()) == []


def test_every_oracle_name_is_read_under_tests():
    read = set().union(*(names_read(path.read_text()) for path in TESTS.glob("*.py")))
    assert sorted(top_level_definitions(ORACLE.read_text()) - read) == []


def private_reads(source: str, modules) -> list[str]:
    """``module._name`` for each private name ``source`` reads of one of
    ``modules`` (swapsim module names), as an attribute or imported from
    it, sorted."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                reads.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.level and node.module in modules:
            reads |= {(node.module, alias.name) for alias in node.names}
    return sorted(f"{module}.{name}" for module, name in reads
                  if name.startswith("_") and not name.startswith("__"))


def test_check_finds_private_reads():
    source = (
        "from . import engine, io\n"
        "from .qcore import _walk, BellOutcome\n"
        "def f(args, config):\n"
        "    rows = engine._exact_rows(config, True)\n"
        "    args._private, engine.__name__\n"
        "    return io.write_json, _walk\n"
    )
    modules = {"engine", "io", "qcore"}
    assert private_reads(source, modules) == ["engine._exact_rows", "qcore._walk"]


def test_cli_reads_no_private_name_of_another_module():
    modules = {Path(module).stem for module in MODULES} - {"cli"}
    assert private_reads((SRC / "cli.py").read_text(), modules) == []
