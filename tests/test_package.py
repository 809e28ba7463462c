"""The package root: its public names, which modules a command runs, and
the named-tuple records on the start-up path.

``fock``, ``intersection``, ``reconstruction`` and ``verify`` are loaded
lazily.  Until one of their attributes is read, ``sys.modules`` holds a lazy
module whose type is a subclass of ``types.ModuleType``; reading the type
does not load it.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qkdv
from qkdv import DiffMonomial, DiffPoly, HamiltonianRecord, Scalar

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
print(*sys.modules, file=sys.stderr)
sys.exit(rc)
"""


def probe(tmp_path, *argv):
    """The lazy modules one CLI command executes, and every module it loads."""
    child = subprocess.run(
        [sys.executable, "-c", PROBE.format(lazy=LAZY),
         "--cache-dir", str(tmp_path), *argv],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC)},
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout
    executed, loaded = child.stderr.split("\n")[:2]
    return set(executed.split()), set(loaded.split())


def executed_modules(tmp_path, *argv):
    return probe(tmp_path, *argv)[0]


def test_a_density_request_runs_no_command_level_module(tmp_path):
    assert executed_modules(tmp_path, "hamiltonian", "-d", "2") == set()


def test_intersect_runs_only_the_intersection_module(tmp_path):
    executed = executed_modules(tmp_path, "intersect", "-d", "4", "-g", "1")
    assert executed == {"intersection"}


@pytest.mark.parametrize(
    "argv",
    [
        ("hamiltonian", "-d", "2"),
        ("intersect", "-d", "4", "-g", "1"),
        ("commute", "--d1", "1", "--d2", "2", "--mmax", "3"),
        ("reconstruct", "-d", "1", "-G", "2", "--compare"),
        ("verify-all", "--level", "quick"),
    ],
)
def test_commands_load_neither_dataclasses_nor_inspect(tmp_path, argv):
    # dataclasses imports inspect, which imports dis, ast and tokenize
    assert probe(tmp_path, *argv)[1].isdisjoint({"dataclasses", "inspect"})


def test_records_hash_and_print_as_before_and_replace_fields():
    mono = DiffMonomial(((0, 1), (2, 1)), 1)
    assert hash(mono) == hash(tuple(mono)) == hash((((0, 1), (2, 1)), 1))
    assert repr(mono) == "DiffMonomial(uexp=((0, 1), (2, 1)), hbar=1)"
    assert mono._replace(hbar=0) == DiffMonomial.make({0: 1, 2: 1})
    c = Scalar.of(1, "-1/2")
    assert hash(c) == hash(tuple(c)) == hash((Fraction(1), Fraction(-1, 2)))
    assert repr(c) == "Scalar(re=Fraction(1, 1), im=Fraction(-1, 2))"
    assert repr(Scalar()) == "Scalar(re=Fraction(0, 1), im=Fraction(0, 1))"
    assert c._replace(im=Fraction(0)) == Scalar.of(1)
    record = qkdv.wang_hamiltonian(0)
    assert isinstance(record, HamiltonianRecord)
    assert repr(record) == (
        "HamiltonianRecord(d=0, density=DiffPoly(1/2*u0^2), "
        "functional=LocalFunctional(1/2*u0^2))"
    )
    # a DiffPoly does not hash, so neither does a record or its tuple
    for x in (record, tuple(record)):
        with pytest.raises(TypeError):
            hash(x)
    extra = record._replace(density=record.density + DiffPoly.u(1, 2))
    assert extra.d == 0 and extra.functional is record.functional
    assert extra.density == record.density + DiffPoly.u(1, 2)
    with pytest.raises(AttributeError):
        record.d = 1


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

