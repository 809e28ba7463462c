"""The package root: its public names, and which modules a command runs.

``fock``, ``intersection``, ``reconstruction`` and ``verify`` are loaded
lazily.  Until one of their attributes is read, ``sys.modules`` holds a lazy
module whose type is a subclass of ``types.ModuleType``; reading the type
does not load it.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import qkdv

SRC = Path(qkdv.__file__).resolve().parent.parent
LAZY = ("fock", "intersection", "reconstruction", "verify")

# Runs one CLI command and reports on stderr which lazy modules have executed.
PROBE = """
import sys, types
import qkdv.cli
rc = qkdv.cli.main(sys.argv[1:])
executed = [name for name in {lazy!r}
            if type(sys.modules.get("qkdv." + name)) is types.ModuleType]
print(*executed, file=sys.stderr)
sys.exit(rc)
"""


def executed_modules(tmp_path, *argv):
    child = subprocess.run(
        [sys.executable, "-c", PROBE.format(lazy=LAZY),
         "--cache-dir", str(tmp_path), *argv],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC)},
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout
    return set(child.stderr.split())


def test_a_density_request_runs_no_command_level_module(tmp_path):
    assert executed_modules(tmp_path, "hamiltonian", "-d", "2") == set()


def test_intersect_runs_only_the_intersection_module(tmp_path):
    executed = executed_modules(tmp_path, "intersect", "-d", "4", "-g", "1")
    assert executed == {"intersection"}


def test_every_public_name_resolves_to_its_home_object():
    assert qkdv.ENGINE_VERSION is qkdv._version.ENGINE_VERSION
    assert qkdv.check_commute is qkdv.fock.check_commute
    assert qkdv.assemble_polynomial is qkdv.intersection.assemble_polynomial
    assert qkdv.Ansatz is qkdv.reconstruction.Ansatz
    assert qkdv.run_suite is qkdv.verify.run_suite
    assert qkdv.wang_hamiltonian is qkdv.hierarchy.wang_hamiltonian
    for name in qkdv.__all__:
        obj = getattr(qkdv, name)
        home = getattr(obj, "__module__", "qkdv._version")
        assert home.startswith("qkdv."), name
        assert getattr(sys.modules[home], name) is obj, name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from qkdv import *", namespace)
    for name in qkdv.__all__:
        assert namespace[name] is getattr(qkdv, name), name
    assert set(qkdv.__all__) <= set(dir(qkdv))
    assert {"fock", "hierarchy", "verify"} <= set(dir(qkdv))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qkdv.no_such_name
    assert not hasattr(qkdv, "run_suite_")
    with pytest.raises(ImportError):
        exec("from qkdv import no_such_name", {})

