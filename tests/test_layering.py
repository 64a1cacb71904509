"""The package's layering, read in fresh interpreters: the package re-exports
nothing, so a foundation module loads only what it imports, and no route or
I/O module; and the command line loads no standard module that its own code
does not use.  Read from the source: only ``groups`` reads a group's table
of products and a cocycle's table, and only ``quantum`` multiplies an
action's rows, so each law is evaluated by the structure that states it."""

import ast
import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
FOUNDATION = ("scalars", "linalg", "groups", "quantum")
ROUTES = ("spin", "pbw", "cohomology", "classify", "problems", "cli", "acceptance")


def fresh(code: str) -> list:
    """The words that code prints in a new bytecode-free interpreter that
    reads the package from src/."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout.split()


@pytest.mark.parametrize("module", FOUNDATION)
def test_foundation_module_loads_no_route(module):
    loaded = fresh(f"import sys, tqdha.{module}\n"
                   "print(*(m for m in sys.modules if m.startswith('tqdha.')))")
    assert f"tqdha.{module}" in loaded
    assert [m for m in loaded if m.removeprefix("tqdha.") in ROUTES] == []


def test_scalars_load_alone():
    assert fresh("import sys, tqdha.scalars\n"
                 "print(*sorted(m for m in sys.modules if m.startswith('tqdha')))") == [
        "tqdha", "tqdha.scalars"]


def test_package_holds_its_version_only():
    assert fresh("import tqdha\nprint(*sorted(n for n in vars(tqdha) if not n.startswith('__')))"
                 "\nprint(tqdha.__version__)") == ["0.1.0"]


def test_cli_loads_neither_dataclasses_nor_inspect():
    assert fresh("import sys, tqdha.cli\n"
                 "print(*(m for m in ('dataclasses', 'inspect') if m in sys.modules))") == []


def package_trees(but: str):
    """(module file name, parsed source) of every package module but one."""
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "tqdha", "*.py"))):
        if os.path.basename(path) != but:
            with open(path, encoding="utf-8") as f:
                yield os.path.basename(path), ast.parse(f.read())


def named(tree, name: str) -> list:
    """The lines that name ``name``: as a variable, an attribute or an
    imported name."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.alias) and name in (node.name, node.asname)]


def test_only_groups_reads_the_multiplication_table():
    """Every other module multiplies through ``FiniteGroup.mul``: no attribute
    named ``mult`` is read outside groups.py, so the table's format is that
    module's alone."""
    reads = []
    for name, tree in package_trees("groups.py"):
        reads += [(name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "mult"]
    assert reads == []


def test_only_groups_reads_a_cocycle_table_and_only_quantum_multiplies_rows():
    """A cocycle's table, its ``index`` and the ``_PairTable`` of products
    over its distinct values, is read in groups.py alone, and an action's
    rows are multiplied (``_row_times``) in quantum.py alone: every other
    module reads a cocycle through its methods and an action's composition
    law through ``GroupAction.composition_failures``.  A called ``index``,
    such as ``perms.index(p)``, is a list search, not a table read."""
    reads = []
    for name, tree in package_trees("groups.py"):
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        reads += [(name, line) for line in named(tree, "_PairTable")]
        reads += [(name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "index"
                  and id(node) not in called]
    for name, tree in package_trees("quantum.py"):
        reads += [(name, line) for line in named(tree, "_row_times")]
    assert reads == []
