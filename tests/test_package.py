"""The package root imports each exported name on first access, and each
subcommand loads only the modules it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loneaxis

SRC = Path(loneaxis.__file__).resolve().parents[1]
DOCS = Path(__file__).resolve().parents[1] / "perfbench" / "docs"

ALL_MODULES = {"errors", "graphs", "isomorphism", "spectral", "traintrack",
               "nielsen", "whitehead", "axes", "cli"}
# the modules after `cli.main` returns, beyond cli's own errors and graphs
CLI = {"cli", "errors", "graphs"}
TRAINTRACK = CLI | {"spectral", "traintrack"}
WHITEHEAD = TRAINTRACK | {"nielsen", "whitehead", "isomorphism"}
LOADED_BY = {
    "spectral": CLI | {"spectral"},
    "check": TRAINTRACK,
    "gates": TRAINTRACK,
    "pnp": TRAINTRACK | {"nielsen"},
    "whitehead": WHITEHEAD,
    "index": WHITEHEAD,
    "lone-axis": ALL_MODULES,
    "fold-line": ALL_MODULES,
    "signature": ALL_MODULES,
    "conjugate-power": ALL_MODULES,
}

PRINT_MODULES = """
print(json.dumps(sorted(m.split(".", 1)[1] for m in sys.modules
                        if m.startswith("loneaxis."))))
"""


def modules_after(code, *argv):
    """The loneaxis submodules loaded once ``code`` has run in a fresh
    interpreter with ``argv``."""
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code + PRINT_MODULES,
         *argv], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


class TestExports:
    def test_each_name_is_its_home_modules_object(self):
        assert len(loneaxis.__all__) == len(set(loneaxis.__all__)) == 60
        assert list(loneaxis._HOME) == loneaxis.__all__
        for name, module in loneaxis._HOME.items():
            home = importlib.import_module(f"loneaxis.{module}")
            obj = getattr(loneaxis, name)
            assert getattr(home, name) is obj, name
            # the defining module, not one that imports the name
            assert getattr(obj, "__module__", None) in (home.__name__, None)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from loneaxis import *", namespace)
        for name in loneaxis.__all__:
            assert namespace[name] is getattr(loneaxis, name), name

    def test_dir_lists_every_name(self):
        listed = dir(loneaxis)
        assert set(loneaxis.__all__) | {"__version__"} <= set(listed)
        assert listed == sorted(listed)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            loneaxis.no_such_name
        with pytest.raises(ImportError):
            exec("from loneaxis import no_such_name", {})

    def test_bare_import_loads_no_module(self):
        assert modules_after("import loneaxis") == set()

    def test_first_access_loads_the_home_module(self):
        assert modules_after("import loneaxis\nloneaxis.gates") == {
            "errors", "graphs", "spectral", "traintrack"}
        # a submodule is an attribute of the package, as it was when the
        # package imported every module
        assert modules_after("import loneaxis\nloneaxis.spectral.pf_data") == {
            "errors", "graphs", "spectral"}


@pytest.mark.parametrize("command", sorted(LOADED_BY))
def test_modules_loaded_per_subcommand(command):
    files = [str(DOCS / "cubic.txt")]
    if command == "conjugate-power":
        files.append(str(DOCS / "cubic_relabeled.txt"))
    code = "from loneaxis import cli\ncli.main(sys.argv[1:])"
    assert modules_after(code, command, *files, "--json") == LOADED_BY[command]
