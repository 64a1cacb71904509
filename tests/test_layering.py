"""The package's layering, read in fresh interpreters: the package re-exports
nothing, so a foundation module loads only what it imports, and no route or
I/O module; and the command line loads no standard module that its own code
does not use."""

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
