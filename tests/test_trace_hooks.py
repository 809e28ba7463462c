"""The benchmark tracer's hooks name real qkdv functions.

``perfbench/traced_job.py`` wraps the functions in ``SPANNED`` and reads the
``lru_cache`` statistics of the Fock memos in ``MEMOS``.  A refactor that
renames or inlines one of them would break ``--trace 1`` only when the
benchmark runs; this catches it in the test suite.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import qkdv
from qkdv import fock

TRACED_JOB = Path(__file__).resolve().parent.parent / "perfbench" / "traced_job.py"


def load_traced_job():
    spec = importlib.util.spec_from_file_location("traced_job", TRACED_JOB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spanned_functions_resolve_in_qkdv():
    traced = load_traced_job()
    assert traced.SPANNED
    for mod_name, attr, _span in traced.SPANNED:
        module = importlib.import_module(f"qkdv.{mod_name}")
        assert callable(getattr(module, attr, None)), f"qkdv.{mod_name}.{attr}"


def test_importing_the_cli_loads_every_spanned_module():
    """``instrument()`` looks each spanned module up in ``sys.modules`` after
    ``import qkdv.cli``; a module that the CLI imported only on demand would
    make ``--trace 1`` fail with a KeyError."""
    traced = load_traced_job()
    probe = "import sys, qkdv.cli; print(*sorted(sys.modules))"
    child = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={"PATH": "/usr/bin:/bin",
             "PYTHONPATH": str(Path(qkdv.__file__).resolve().parent.parent)},
    )
    loaded = set(child.stdout.split())
    for mod_name, _attr, _span in traced.SPANNED:
        assert f"qkdv.{mod_name}" in loaded, f"qkdv.{mod_name}"


def test_memos_are_fock_lru_caches():
    traced = load_traced_job()
    assert traced.MEMOS
    for prefix, attr in traced.MEMOS.items():
        memo = getattr(fock, attr, None)
        assert callable(getattr(memo, "cache_info", None)), f"{prefix}: fock.{attr}"


def test_traced_job_runs_a_light_command_like_the_cli(tmp_path):
    """The tracer forces every lazily loaded module while it instruments;
    a density request must still print the CLI's bytes and record spans."""
    env = {"PATH": "/usr/bin:/bin",
           "PYTHONPATH": str(Path(qkdv.__file__).resolve().parent.parent)}
    argv = ["hamiltonian", "-d", "2"]
    plain = subprocess.run(
        [sys.executable, "-m", "qkdv.cli", "--cache-dir", str(tmp_path / "plain"),
         *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    out = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, str(TRACED_JOB), str(out),
         "--cache-dir", str(tmp_path / "traced"), *argv],
        capture_output=True, text=True, env=env,
    )
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    names = {span[0] for span in json.loads(out.read_text())["spans"]}
    assert {"hierarchy.wang_hamiltonian", "render"} <= names
