"""Command-line interface: outputs, exit codes, cache behavior."""

import errno
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import qkdv
from qkdv import DiffMonomial, DiffPoly, Scalar, hierarchy, reconstruction
from qkdv._version import ENGINE_VERSION
from qkdv.cache import density_path, load_density, store_density
from qkdv.cli import main
from qkdv.diffpoly import dx, to_json_dict, variational_derivative
from qkdv.hierarchy import clear_memory_memo, wang_hamiltonian
from qkdv.render import render_poly_text

u = DiffPoly.u


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hamiltonian_text(capsys):
    code, out, _ = run(capsys, "hamiltonian", "-d", "1")
    assert code == 0
    assert "H_1 = u^3/6 + (-i*hbar)*u2/12" in out
    code, out, _ = run(capsys, "hamiltonian", "-d", "-1")
    assert code == 0
    assert "H_-1 = u" in out


def test_hamiltonian_json(capsys):
    code, out, _ = run(capsys, "hamiltonian", "-d", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 1
    assert doc["terms"][0]["u"] == {"0": 3}
    assert doc["terms"][1] == {
        "c": {"re": "0", "im": "-1/12"},
        "hbar": 1,
        "u": {"2": 1},
    }


def test_hamiltonian_latex(capsys):
    code, out, _ = run(capsys, "hamiltonian", "-d", "3", "--format", "latex")
    assert code == 0
    assert r"\frac{u^{5}}{120}" in out
    assert r"(-i\hbar)^2" in out


def test_hamiltonian_latex_braces_two_digit_hbar_exponents(capsys):
    code, out, _ = run(capsys, "hamiltonian", "-d", "19", "--format", "latex")
    assert code == 0
    assert r"(-i\hbar)^{10}" in out
    assert r"(-i\hbar)^9 " in out
    assert r"(-i\hbar)^10" not in out


def test_hamiltonian_rejects_bad_index(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hamiltonian", "-d", "-2"])
    assert exc.value.code == 2


def test_s_series(capsys):
    code, out, _ = run(capsys, "s-series", "-k", "3")
    assert code == 0
    assert "S_(2) = u1/2 + u^2/2" in out
    assert "S_(3) = u2/6 + u*u1/2 + u^3/6" in out


def test_commute_pass(capsys):
    code, out, _ = run(capsys, "commute", "--d1", "1", "--d2", "1", "--mmax", "3")
    assert code == 0
    assert "PASS" in out
    code, out, _ = run(
        capsys, "commute", "--d1", "0", "--d2", "1", "--mmax", "3",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pairs"][0]["status"] == "pass"
    assert doc["witness"] is None


def test_reconstruct_compare(capsys):
    # with the automatic schedule, and with --mmax passed on to the comparison
    for mmax in ([], ["--mmax", "6"]):
        args = ("reconstruct", "-d", "2", "-G", "1", *mmax, "--compare")
        code, out, _ = run(capsys, *args)
        assert code == 0, mmax
        doc = json.loads(out)
        assert doc["matches_closed_form"] is True
        assert doc["unique"] is True
        assert doc["ansatz_dimensions"] == {"1": 1}


def test_reconstruct_empty_ansatz(capsys):
    reconstruction._solve.cache_clear()
    code, out, _ = run(capsys, "reconstruct", "-d", "1", "-G", "2", "--compare")
    assert code == 0
    # --compare reuses the certificate's solve
    info = reconstruction._solve.cache_info()
    assert info.misses == 1 and info.hits >= 1
    doc = json.loads(out)
    assert doc["matches_closed_form"] is True
    assert doc["ansatz_dimensions"] == {"1": 0, "2": 0}


def test_reconstruct_underdetermined_exit(capsys):
    code, out, _ = run(capsys, "reconstruct", "-d", "2", "-G", "1", "--mmax", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "UnderdeterminedError"
    assert "kernel dimension 1" in doc["message"]


def test_intersect_text(capsys):
    code, out, _ = run(capsys, "intersect", "-d", "1", "-g", "1")
    assert code == 0
    assert "(m^2-m)/12" in out
    code, out, _ = run(capsys, "intersect", "-d", "1", "-g", "0")
    assert code == 0
    assert "P(m1, m2, m3) = 1" in out


def test_intersect_json(capsys):
    code, out, _ = run(capsys, "intersect", "-d", "2", "-g", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 2 and doc["g"] == 1 and doc["n"] == 2
    assert doc["prediction"] is True
    assert doc["falling"]["(1,1)"] == "1/12"


# sha256 of `intersect -d D -g G --format json` stdout, frozen before the
# power table was folded over orbits; n = 10, 11, 8 and 10 variables
FROZEN_INTERSECT_SHA256 = {
    (12, 2): "79fed802373243b4b88dce22838cf14062cbb732cbae8c6192a2040e1325cac7",
    (13, 2): "7ff336cc0c24b3641b28b129418c4f1bb182788e93f4c3e0a99720744d3337f1",
    (14, 4): "d7105c3d5c97184e9ad7fb91061d7c44350339353b00f62bf330e4e213b37046",
    (16, 4): "7089de7d6da251aae06872fd1c4f1599c5bc142d77ccdb7c95258112bd7b8ff6",
}


def test_intersect_json_keeps_its_bytes_beyond_the_benchmark(capsys):
    for (d, g), digest in FROZEN_INTERSECT_SHA256.items():
        code, out, _ = run(capsys, "intersect", "-d", str(d), "-g", str(g),
                           "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (d, g)


# sha256 of `s-series -k 12` stdout per format, frozen while the series was
# still expanded over Q
FROZEN_S_SERIES_SHA256 = {
    "json": "137cd20fcbc698efe018a887fe98f08f1f498a10f07d738a6cc27d29455b06d2",
    "text": "d23cbe3cc18f59e1ae2ca5e93c1d578847cc699ce8ffcb36fda1e29895d6f2c9",
    "latex": "c6eeb74f30f74c7f5b04ce1586e856b7d6ab8ad6c2f90ad526acbff7f34f9f47",
}


def test_s_series_keeps_its_bytes(capsys):
    for fmt, digest in FROZEN_S_SERIES_SHA256.items():
        code, out, _ = run(capsys, "s-series", "-k", "12", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_intersect_dimension_error(capsys):
    code, out, err = run(capsys, "intersect", "-d", "0", "-g", "5")
    assert code == 2
    assert "n >= 1" in err


def test_verify_all_quick(capsys, tmp_path):
    code, out, _ = run(
        capsys, "--cache-dir", str(tmp_path), "verify-all", "--level", "quick"
    )
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("PASS ")) == 8
    assert not any(ln.startswith("FAIL") for ln in lines)
    assert lines[-1] == "ALL CHECKS PASSED (level=quick)"


def test_verify_all_rebuilds_corrupt_cache(capsys, tmp_path):
    clear_memory_memo()
    (tmp_path / "wang").mkdir()
    (tmp_path / "wang" / "H_2.json").write_text("{not json at all")
    code, out, _ = run(
        capsys, "--cache-dir", str(tmp_path), "verify-all", "--level", "quick"
    )
    assert code == 0
    # the corrupt entry was replaced by a valid one
    json.loads((tmp_path / "wang" / "H_2.json").read_text())


_ONE = {"c": {"re": "1", "im": "0"}, "hbar": 0}


def _float_hbar_terms(d):
    """The terms of H_d with each hbar coefficient's "im" a JSON number."""
    payload = to_json_dict(wang_hamiltonian(d).density)
    for term in payload["terms"]:
        if term["hbar"]:
            term["c"]["im"] = -0.1
    return payload


def _edited_after_write(d):
    """H_d as the cache writes it, then each hbar coefficient set to -i/7."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"H_{d}.json"
        store_density(path, d, wang_hamiltonian(d).density)
        payload = json.loads(path.read_text())
    for term in payload["terms"]:
        if term["hbar"]:
            term["c"] = {"re": "0", "im": "-1/7"}
    return payload


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {"d": 2, "engine": ENGINE_VERSION, "terms": [dict(_ONE, u=[1])]},
        {"d": 2, "engine": ENGINE_VERSION, "terms": []},
        {"d": 2, "engine": ENGINE_VERSION, "terms": [dict(_ONE, u={"0": 3})]},
        {"d": 2, "engine": ENGINE_VERSION, **to_json_dict(wang_hamiltonian(3).density)},
        {"d": 2, "engine": ENGINE_VERSION, **_float_hbar_terms(2)},
        _edited_after_write(2),
    ],
    ids=[
        "list",
        "u-is-a-list",
        "no-terms",
        "weight-3",
        "terms-of-H3",
        "float-im",
        "edited-after-write",
    ],
)
def test_hamiltonian_rebuilds_bad_cache_entry(capsys, tmp_path, payload):
    # valid JSON of the wrong shape, or a parsed entry that cannot be H_2
    _, expected, _ = run(capsys, "hamiltonian", "-d", "2")
    reference = wang_hamiltonian(2).density
    clear_memory_memo()
    path = tmp_path / "wang" / "H_2.json"
    path.parent.mkdir()
    path.write_text(json.dumps(payload))
    code, out, err = run(
        capsys, "--cache-dir", str(tmp_path), "hamiltonian", "-d", "2"
    )
    assert (code, out, err) == (0, expected, "")
    assert load_density(path, 2) == reference


def test_hamiltonian_survives_unwritable_cache(capsys, tmp_path, monkeypatch):
    _, expected, _ = run(capsys, "hamiltonian", "-d", "2")

    def refuse(*args, **kwargs):
        raise OSError(errno.EROFS, "Read-only file system")

    monkeypatch.setattr(Path, "write_text", refuse)
    monkeypatch.setattr(hierarchy, "_store_failed", False)
    clear_memory_memo()
    code, out, err = run(
        capsys, "--cache-dir", str(tmp_path), "hamiltonian", "-d", "2"
    )
    assert (code, out) == (0, expected)
    assert err.count("warning") == 1 and "Read-only file system" in err
    # the warning is given once per process
    clear_memory_memo()
    code, _, err = run(capsys, "--cache-dir", str(tmp_path), "hamiltonian", "-d", "3")
    assert (code, err) == (0, "")
    assert not (tmp_path / "wang" / "H_2.json").exists()


def test_cache_dir_flag_writes_there(capsys, tmp_path):
    clear_memory_memo()
    code, _, _ = run(capsys, "--cache-dir", str(tmp_path), "hamiltonian", "-d", "2")
    assert code == 0
    assert (tmp_path / "wang" / "H_2.json").exists()


def test_env_var_selects_cache(capsys, tmp_path, monkeypatch):
    clear_memory_memo()
    monkeypatch.setenv("QKDV_CACHE", str(tmp_path))
    code, _, _ = run(capsys, "hamiltonian", "-d", "0")
    assert code == 0
    assert (tmp_path / "wang" / "H_0.json").exists()


def test_cache_dir_flag_outranks_the_env_var_for_one_command(
    capsys, tmp_path, monkeypatch
):
    flag, env = tmp_path / "flag", tmp_path / "env"
    monkeypatch.setenv("QKDV_CACHE", str(env))
    clear_memory_memo()
    code, _, _ = run(capsys, "--cache-dir", str(flag), "hamiltonian", "-d", "2")
    assert code == 0
    assert (flag / "wang" / "H_2.json").exists()
    assert not env.exists()
    # main gave the choice back, so an API call reads $QKDV_CACHE again
    clear_memory_memo()
    wang_hamiltonian(2)
    assert (env / "wang" / "H_2.json").exists()


# The child imports the same qkdv as this process, installed or not.
_PACKAGE_ROOT = str(Path(qkdv.__file__).resolve().parent.parent)


def run_child(*args, **env):
    """Run the CLI in a fresh process, whose density memo starts empty."""
    return subprocess.run(
        [sys.executable, "-m", "qkdv.cli", *args],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": _PACKAGE_ROOT,
             "PYTHONDONTWRITEBYTECODE": "1", **env},
    )


def test_verify_all_json_deterministic(tmp_path):
    env_cache = tmp_path / "c"

    # No hash seed is pinned, so the two children differ in it.
    def run_proc():
        return run_child(
            "verify-all", "--level", "quick", "--format", "json",
            QKDV_CACHE=str(env_cache),
        )

    first = run_proc()
    assert first.returncode == 0, first.stderr
    # The first run filled the cache, so the second one reads it warm.
    assert list((env_cache / "wang").glob("H_*.json")), "child ignored QKDV_CACHE"
    second = run_proc()
    assert second.returncode == 0, second.stderr
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["passed"] is True and doc["level"] == "quick"
    assert len(doc["checks"]) == 8


def test_forged_entry_is_trusted_then_caught_and_repaired(capsys, tmp_cache):
    # H_2 with its hbar*u1^2 coefficient doubled, written with a valid CRC:
    # the bidegree and classical part are right, so loading trusts it
    _, expected, _ = run(capsys, "hamiltonian", "-d", "2")
    true = wang_hamiltonian(2).density
    forged = true + DiffPoly.term(Scalar.of(0, "-1/24"), ((1, 2),), hbar=1)
    store_density(density_path(2), 2, forged)
    cache = ("--cache-dir", str(tmp_cache))

    shown = run_child(*cache, "hamiltonian", "-d", "2")
    assert shown.returncode == 0 and shown.stdout != expected
    commute = run_child(
        *cache, "commute", "--d1", "1", "--d2", "2", "--mmax", "4",
        "--format", "json",
    )
    assert commute.returncode == 1
    assert json.loads(commute.stdout) == {
        "d1": 1, "d2": 2, "partition": [2], "entry": [1, 1],
        "coefficient": "1/2*i*hbar^3",
    }
    verify = run_child(*cache, "verify-all", "--level", "quick")
    assert verify.returncode == 1
    lines = verify.stdout.splitlines()
    assert [ln.split(":")[0] for ln in lines if ln.startswith("FAIL ")] == [
        "FAIL recursion-identities",
        "FAIL integrability",
        "FAIL reconstruction-uniqueness",
        "FAIL intersection-predictor",
        "FAIL infrastructure",
    ]
    assert "not the closed form at d=2, g=1" in lines[-3]
    assert lines[-1] == "FAILURES: 5 (level=quick)"
    # the infrastructure check deleted and rewrote every entry
    shown = run_child(*cache, "hamiltonian", "-d", "2")
    assert (shown.returncode, shown.stdout) == (0, expected)


def test_forged_entry_with_a_total_derivative_added_is_trusted(capsys, tmp_cache):
    # H_2 + (-i/7)*hbar*dx(u*u1), written with a valid CRC: the bidegree,
    # classical part and phase are right, and so is the variational
    # recursion, so loading would trust it even with that check added
    _, expected, _ = run(capsys, "hamiltonian", "-d", "2")
    true = wang_hamiltonian(2).density
    forged = true + DiffPoly.hbar() * dx(u(0) * u(1)) * Scalar.of(0, "-1/7")
    assert forged == (
        u(0, 4) / 24
        + DiffPoly.hbar() * (u(0) * u(2) * Scalar.of(0, "-19/84")
                             + u(1, 2) * Scalar.of(0, "-31/168"))
    )
    assert variational_derivative(forged) == wang_hamiltonian(1).density
    store_density(density_path(2), 2, forged)
    cache = ("--cache-dir", str(tmp_cache))

    shown = run_child(*cache, "hamiltonian", "-d", "2")
    printed = f"H_2 = {render_poly_text(forged)}\n"
    assert (shown.returncode, shown.stdout) == (0, printed) and printed != expected
    # a total derivative acts as zero on the Fock space
    commute = run_child(*cache, "commute", "--d1", "1", "--d2", "2", "--mmax", "6")
    assert commute.returncode == 0, commute.stdout
    verify = run_child(*cache, "verify-all", "--level", "quick")
    assert verify.returncode == 1
    lines = verify.stdout.splitlines()
    # dH_3/du is the true H_2, so the recursion check fails one index up
    assert [ln.split(":")[0] for ln in lines if ln.startswith("FAIL ")] == [
        "FAIL recursion-identities",
        "FAIL intersection-predictor",
        "FAIL infrastructure",
    ]
    assert "variational recursion fails at d=3" in lines[2]
    assert "not the closed form at d=2, g=1" in lines[-3]
    assert lines[-1] == "FAILURES: 3 (level=quick)"
    shown = run_child(*cache, "hamiltonian", "-d", "2")
    assert (shown.returncode, shown.stdout) == (0, expected)


def test_forged_entry_with_a_broken_phase_is_rebuilt(capsys, tmp_cache):
    # H_2 with its hbar*u1^2 coefficient real (1/24) instead of -i/24: the
    # bidegree and classical part are right, the phase is not, so the load
    # rebuilds the entry before any command reads it
    true = wang_hamiltonian(2).density
    mono = DiffMonomial(((1, 2),), 1)
    forged = (
        true
        - DiffPoly.term(true.coefficient(mono), ((1, 2),), hbar=1)
        + DiffPoly.term(Scalar.of("1/24"), ((1, 2),), hbar=1)
    )
    path = density_path(2)
    for command in (("hamiltonian", "-d", "2"), ("intersect", "-d", "2", "-g", "1")):
        for fmt in ("text", "json", "latex"):
            _, expected, _ = run(capsys, *command, "--format", fmt)
            store_density(path, 2, forged)
            shown = run_child(
                "--cache-dir", str(tmp_cache), *command, "--format", fmt
            )
            assert (shown.returncode, shown.stdout, shown.stderr) == (
                0, expected, ""
            ), (command, fmt)
    assert load_density(path, 2) == true


def test_failed_cache_write_leaves_no_temp_file(capsys, tmp_path, monkeypatch):
    _, expected, _ = run(capsys, "hamiltonian", "-d", "3")

    def refuse(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("qkdv.cache.os.replace", refuse)
    monkeypatch.setattr(hierarchy, "_store_failed", False)
    clear_memory_memo()
    code, out, err = run(
        capsys, "--cache-dir", str(tmp_path), "hamiltonian", "-d", "3"
    )
    assert (code, out) == (0, expected)
    assert err.count("warning") == 1 and "No space left on device" in err
    assert not list((tmp_path / "wang").glob("*.tmp*"))
