"""The package root: its public names, which modules a command runs, and
the named-tuple records on the start-up path.

``import qkdv`` runs only the package root, which defines ``ENGINE_VERSION``;
every other name loads its module on first access.  ``import qkdv.cli`` registers
``fock``, ``intersection``, ``linalg``, ``reconstruction``, ``render`` and
``verify`` lazily.  Until one of their attributes is read, ``sys.modules``
holds a lazy module whose type is a subclass of ``types.ModuleType``;
reading the type does not load it.  A fresh interpreter is the only place
where a name's first access can be seen: in this process an earlier import
has already loaded most modules.
"""

import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import qkdv
from qkdv import DiffMonomial, DiffPoly, HamiltonianRecord, Scalar

SRC = Path(qkdv.__file__).resolve().parent.parent
ENV = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
LAZY = ("fock", "intersection", "reconstruction", "verify")
SUBMODULES = sorted(
    p.stem for p in (SRC / "qkdv").glob("*.py") if not p.stem.startswith("_")
)

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


def probe(tmp_path, *argv, watch=LAZY):
    """The modules of ``watch`` that one CLI command executes, and every
    module it loads."""
    child = subprocess.run(
        [sys.executable, "-c", PROBE.format(lazy=watch),
         "--cache-dir", str(tmp_path), *argv],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout
    executed, loaded = child.stderr.split("\n")[:2]
    return set(executed.split()), set(loaded.split())


def executed_modules(tmp_path, *argv, watch=LAZY):
    return probe(tmp_path, *argv, watch=watch)[0]


def run_fresh(code, *flags):
    """Standard output of ``code`` in a fresh interpreter."""
    child = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def test_import_qkdv_runs_only_the_package_root():
    # -S: no site hook imports anything before qkdv does
    out = run_fresh(
        "import sys; before = set(sys.modules); import qkdv; "
        "print(*sorted(set(sys.modules) - before)); print(*sys.modules)",
        "-S",
    )
    added, loaded = (set(line.split()) for line in out.splitlines())
    assert {m for m in added if m.partition(".")[0] == "qkdv"} == {"qkdv"}
    assert loaded.isdisjoint({"fractions", "json", "argparse"})


def test_a_density_request_through_the_api_leaves_linalg_unloaded(tmp_path):
    # functionals imports linalg only where it reduces a normal form
    out = run_fresh(
        "import os, sys\n"
        f"os.environ['QKDV_CACHE'] = {str(tmp_path)!r}\n"
        "import qkdv\n"
        "record = qkdv.wang_hamiltonian(2)\n"
        "print('qkdv.functionals' in sys.modules, 'qkdv.linalg' in sys.modules)\n"
        "record.functional.normal_form()\n"
        "print('qkdv.linalg' in sys.modules)\n"
    )
    assert out == "True False\nTrue\n"


@pytest.mark.parametrize(
    "argv, executed",
    [
        (("hamiltonian", "-d", "2", "--format", "json"), set()),
        (("hamiltonian", "-d", "2", "--format", "text"), {"render"}),
        (("commute", "--d1", "1", "--d2", "2", "--mmax", "3"), {"linalg"}),
    ],
)
def test_only_the_commands_that_need_them_run_render_and_linalg(
    tmp_path, argv, executed
):
    assert executed_modules(tmp_path, *argv, watch=("linalg", "render")) == executed


def test_a_density_request_runs_no_command_level_module(tmp_path):
    assert executed_modules(tmp_path, "hamiltonian", "-d", "2") == set()


def test_intersect_runs_only_the_intersection_module(tmp_path):
    executed = executed_modules(tmp_path, "intersect", "-d", "4", "-g", "1")
    assert executed == {"intersection"}


@pytest.mark.parametrize(
    "argv", [("hamiltonian", "-d", "2"), ("intersect", "-d", "4", "-g", "1")]
)
def test_density_and_intersect_requests_load_no_fock_module(tmp_path, argv):
    # fock is the whole Fock layer: it is registered lazily and never runs,
    # and no other qkdv.fock* module is loaded beside it
    executed, loaded = probe(tmp_path, *argv, watch=("fock",))
    assert executed == set()
    assert {m for m in loaded if m.startswith("qkdv.fock")} == {"qkdv.fock"}


@pytest.mark.parametrize(
    "argv",
    [
        ("hamiltonian", "-d", "2"),
        ("intersect", "-d", "4", "-g", "1"),
        ("commute", "--d1", "1", "--d2", "2", "--mmax", "3"),
        ("reconstruct", "-d", "1", "-G", "2", "--compare"),
        ("verify-all", "--level", "quick"),
        ("s-series", "-k", "3"),
    ],
)
def test_commands_load_neither_dataclasses_nor_inspect(tmp_path, argv):
    # dataclasses imports inspect, which imports dis, ast and tokenize; a
    # documented spelling is parsed without argparse, which imports gettext
    loaded = probe(tmp_path, *argv)[1]
    assert loaded.isdisjoint({"dataclasses", "inspect", "argparse", "gettext"})


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
    assert qkdv.ENGINE_VERSION == qkdv.__version__ == "0.1.0"
    assert qkdv.check_commute is qkdv.fock.check_commute
    assert qkdv.assemble_polynomial is qkdv.intersection.assemble_polynomial
    assert qkdv.Ansatz is qkdv.reconstruction.Ansatz
    assert qkdv.run_suite is qkdv.verify.run_suite
    assert qkdv.wang_hamiltonian is qkdv.hierarchy.wang_hamiltonian
    # __all__ is derived from the imports and _LAZY; no module gets into it
    assert len(qkdv.__all__) == len(set(qkdv.__all__)) == 61
    for name in qkdv.__all__:
        obj = getattr(qkdv, name)
        assert not isinstance(obj, types.ModuleType), name
        home = getattr(obj, "__module__", "qkdv")
        assert home == "qkdv" or home.startswith("qkdv."), name
        assert getattr(sys.modules[home], name) is obj, name


def test_the_fock_types_are_homed_in_the_one_fock_module():
    for name in ("Partition", "SectorScalar", "FockVector", "partitions_of"):
        assert getattr(qkdv, name) is getattr(qkdv.fock, name), name
        assert getattr(qkdv, name).__module__ == "qkdv.fock", name
    assert len(qkdv.__all__) == 61


def test_star_import_binds_every_home_object_in_a_fresh_interpreter():
    assert SUBMODULES[0] == "cache" and SUBMODULES[-1] == "verify"
    out = run_fresh(
        "import sys, types\n"
        "import qkdv\n"
        f"assert set({SUBMODULES!r}) <= set(dir(qkdv))\n"
        "namespace = {}\n"
        "exec('from qkdv import *', namespace)\n"
        "for name in qkdv.__all__:\n"
        "    obj = namespace[name]\n"
        "    assert not isinstance(obj, types.ModuleType), name\n"
        "    home = getattr(obj, '__module__', 'qkdv')\n"
        "    assert getattr(sys.modules[home], name) is obj, name\n"
        "    module = qkdv._HOME.get(name)  # None: defined in the root\n"
        "    assert home == ('qkdv.' + module if module else 'qkdv'), name\n"
        "print(len(qkdv.__all__))\n"
    )
    assert out == "61\n"


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_submodule_resolves_as_an_attribute_in_a_fresh_interpreter(name):
    out = run_fresh(
        "import sys, qkdv\n"
        f"assert 'qkdv.{name}' not in sys.modules\n"
        f"print(qkdv.{name} is sys.modules['qkdv.{name}'])\n"
    )
    assert out == "True\n"


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

