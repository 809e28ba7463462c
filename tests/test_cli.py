"""Command-line interface: outputs, exit codes, cache behavior."""

import atexit
import contextlib
import errno
import gc
import hashlib
import io
import json
import re
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qkdv
from qkdv import DiffMonomial, DiffPoly, Scalar, hierarchy, reconstruction
from qkdv._version import ENGINE_VERSION
from qkdv.cache import _checksum, density_path, load_density, store_density
from qkdv.cli import COMMANDS, Members, _emit_json, _parse_plain, build_parser, main
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
    assert "argument -d: index must be >= -1" in capsys.readouterr().err


def test_help_goes_through_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qkdv")


def argparse_namespace(argv):
    """vars() of what argparse parses from argv, or None where it exits."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return vars(build_parser().parse_args(argv))
    except SystemExit:
        return None


def assert_same_as_argparse(argv):
    """_parse_plain either declines argv or returns argparse's namespace."""
    plain, expected = _parse_plain(argv), argparse_namespace(argv)
    if expected is None:  # help or a usage error: argparse printed and exited
        assert plain is None
    elif plain is not None:
        plain = vars(plain)
        assert plain.pop("func") is expected.pop("func")
        assert plain == expected
    return plain


FLAGS = sorted(
    {flag for _, _, options in COMMANDS.values() for flags, _ in options for flag in flags}
)
NUMBERS = ["0", "1", "-1", "-2", "-0", "+3", "x", "-", "", "1.5", "-1.5", "-\u00b2", "-\u0663"]
# Every command, flag and choice, and spellings argparse reads in its own way:
# "-\u00b2" (superscript two) passes str.isdigit but argparse reads it as a
# flag, and "-\u0663" (Arabic-Indic three) is a negative number to argparse
# and to int.
VOCABULARY = [
    *COMMANDS, *FLAGS, "--cache-dir", "-h", "--help", "--", "--form", "--d1=3",
    *NUMBERS, "json", "latex", "text", "quick", "full",
]
_token = st.sampled_from(VOCABULARY)


def _option(flags, kwargs):
    """One of a command's options: a flag, then a value unless it takes none."""
    if "action" in kwargs:
        return st.sampled_from(flags).map(lambda flag: [flag])
    values = st.sampled_from(kwargs.get("choices") or ["0", "1", "2", "-1"])
    return st.tuples(st.sampled_from(flags), values | _token).map(list)


@st.composite
def _command_line(draw, noise):
    """A command with each of its options given up to twice, the required
    ones at least once, and up to noise tokens put in anywhere."""
    command = draw(st.sampled_from(list(COMMANDS)))
    cache_dirs = draw(st.lists(st.sampled_from(["x", "", "-1", "-h"]), max_size=2))
    groups = [
        draw(_option(flags, kwargs))
        for flags, kwargs in COMMANDS[command][2]
        for _ in range(draw(st.integers(bool(kwargs.get("required")), 2)))
    ]
    argv = [t for d in cache_dirs for t in ("--cache-dir", d)] + [command]
    argv += [t for group in draw(st.permutations(groups)) for t in group]
    for token in draw(st.lists(_token, max_size=noise)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(max_examples=500)
@given(st.lists(_token, max_size=8) | _command_line(0) | _command_line(2))
def test_plain_parse_agrees_with_argparse_wherever_it_accepts(argv):
    assert_same_as_argparse(argv)


def test_every_benchmark_command_is_parsed_without_argparse(tmp_path):
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    commands = json.loads(reference.read_text())
    assert commands
    for command in commands:
        argv = ["--cache-dir", str(tmp_path), *command.split()]
        assert assert_same_as_argparse(argv) is not None, command


def readme_examples():
    """(command, expected lines) of each `$ qkdv` example in the README's
    "Command line" section, with the command's arguments as the test id, so
    that adding an example renames no other test."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    blocks = re.findall(r"^```\n\$ (qkdv .*?)^```$", section, re.M | re.S)
    return [
        pytest.param(command, lines, id=command.removeprefix("qkdv "))
        for command, *lines, _ in (b.split("\n") for b in blocks)
    ]


@pytest.mark.parametrize("command, lines", readme_examples())
def test_readme_example_prints_what_it_shows(capsys, command, lines):
    code, out, _ = run(capsys, *shlex.split(command)[1:])
    assert code == 0
    # "..." stands for any run of lines
    pattern = "".join("(?:.*\n)*" if x == "..." else re.escape(x) + "\n" for x in lines)
    assert not lines or re.fullmatch(pattern, out), out


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


def test_intersect_latex_header_subscripts_its_names(capsys):
    for d, g, n in ((2, 1, 2), (12, 3, 8)):
        code, out, _ = run(capsys, "intersect", "-d", str(d), "-g", str(g),
                           "--format", "latex")
        assert code == 0
        header = out.splitlines()[1].partition(" = ")[0]
        names = ", ".join(f"m_{{{i}}}" for i in range(1, n + 1))
        assert header == f"P_{{{d},{g}}}({names})"
        assert not re.search(r"\bm\d", out)
    code, out, _ = run(capsys, "intersect", "-d", "1", "-g", "1", "--format", "latex")
    assert code == 0
    assert out.splitlines()[1].startswith("P_{1,1}(m) = ")


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


# sha256 of `intersect` stdout in the other two formats, frozen while every
# ordering was still collected into dicts and sorted before rendering; the
# LaTeX entry again once its header subscripted the names as its body does
FROZEN_INTERSECT_FORMAT_SHA256 = {
    (12, 3, "latex"): "6a3d682c9e9e8493439f45cbbd2284cd104bf2860c890d0bb0a6e5a5275d58b6",
    (13, 2, "text"): "48e0cb719d12d53fdef7b292298b88bca557a711e66bf5c36ca6e3c0bb0826ce",
}


def test_intersect_latex_and_text_keep_their_bytes(capsys):
    for (d, g, fmt), digest in FROZEN_INTERSECT_FORMAT_SHA256.items():
        code, out, _ = run(capsys, "intersect", "-d", str(d), "-g", str(g),
                           "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (d, g, fmt)


# tracemalloc peak of the benchmark's largest `intersect` job, in bytes, on
# Python 3.11: 2 050 427 while the CLI built every ordering into dicts and
# sorted them, 925 843 streaming them from the orbit tables (bound halfway);
# 766 755 while the document was still built whole, 58 681 written as it is
# made, so the orbit tables set the peak; bound halfway
INTERSECT_PEAK_BYTES = (766_755 + 58_681) // 2

# the same peak in the other two formats: 779 775 (latex) and 663 255 (text)
# while merged per-orbit streams fed a renderer that held each term as a
# (sign, text) pair next to its signed text; 454 927 and 338 342 from the
# bounded-degree walk with each signed term built once (bounds halfway);
# 453 903 and 336 742 while the polynomial's text was joined whole, 60 954
# and 75 456 written as it is made; bounds halfway
INTERSECT_FORMAT_PEAK_BYTES = {
    "latex": (453_903 + 60_954) // 2,
    "text": (336_742 + 75_456) // 2,
}


def _intersect_peak(tmp_path, fmt: str, d: int = 12, g: int = 3) -> int:
    """tracemalloc peak of `intersect -d D -g G --format fmt` in a fresh
    interpreter, with H_D cached and the lazily loaded modules run."""
    probe = (
        "import os, sys, tracemalloc\n"
        "import qkdv.cli\n"
        "from qkdv import hierarchy, intersection, render\n"
        f"hierarchy.wang_hamiltonian({d})\n"
        # run the lazily loaded modules before measuring
        "intersection.extract_coeff_table, render.render_poly_text\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        "tracemalloc.start()\n"
        f"rc = qkdv.cli.main(['intersect', '-d', '{d}', '-g', '{g}', '--format', '{fmt}'])\n"
        "sys.__stdout__.write(f'{rc} {tracemalloc.get_traced_memory()[1]}')\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": _PACKAGE_ROOT,
             "PYTHONDONTWRITEBYTECODE": "1", "QKDV_CACHE": str(tmp_path)},
    )
    assert child.returncode == 0, child.stderr
    rc, peak = map(int, child.stdout.split())
    assert rc == 0
    return peak


def test_intersect_json_peak_memory(tmp_path):
    """The orderings stream from the orbit tables: `intersect -d 12 -g 3
    --format json` holds no assembled polynomial, only its output."""
    peak = _intersect_peak(tmp_path, "json")
    assert peak < INTERSECT_PEAK_BYTES, peak


@pytest.mark.parametrize("fmt", sorted(INTERSECT_FORMAT_PEAK_BYTES))
def test_intersect_latex_and_text_peak_memory(tmp_path, fmt):
    """The LaTeX and text renderers hold each term's text once."""
    peak = _intersect_peak(tmp_path, fmt)
    assert peak < INTERSECT_FORMAT_PEAK_BYTES[fmt], peak


@pytest.fixture(scope="module")
def h14_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("h14")


@pytest.mark.parametrize("fmt", ["json", "latex", "text"])
def test_intersect_peak_memory_does_not_grow_with_the_orderings(h14_cache, fmt):
    """`intersect -d 14 -g 4` walks 12 870 tuples per basis, against 5 005
    for `-d 12 -g 3`, and writes 4 to 5 times the bytes, yet stays under the
    smaller job's bound: the output is written as it is made."""
    bound = INTERSECT_FORMAT_PEAK_BYTES.get(fmt, INTERSECT_PEAK_BYTES)
    peak = _intersect_peak(h14_cache, fmt, d=14, g=4)
    assert peak < bound, peak


def _emitted(payload) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit_json(payload)
    return out.getvalue()


def _lazy(value):
    """value with every dict given as Members and every str as an iterator
    of pieces, empty ones among them."""
    if isinstance(value, dict):
        return Members((key, _lazy(v)) for key, v in value.items())
    if isinstance(value, (list, tuple)):
        return type(value)(map(_lazy, value))
    if isinstance(value, str):
        return iter([value[:1], "", value[1:3], value[3:]])
    return value


_JSON_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f aZé€\u2028😀') | st.characters())
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([-(10**40), 10**40])
    | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_emit_json_writes_what_json_dumps_prints(payload):
    expected = json.dumps(payload, indent=2) + "\n"
    assert _emitted(payload) == expected
    assert _emitted(_lazy(payload)) == expected


@pytest.mark.parametrize(
    "payload",
    [1.5, {"a": [0.0]}, {1: "a"}, {("a",): 1}, Members([(2, "x")]),
     {"a": Fraction(1, 2)}, [b"x"], {"a": {1, 2}}],
)
def test_emit_json_refuses_other_types(payload):
    with pytest.raises(TypeError):
        _emitted(payload)


def test_emit_json_writes_in_bounded_blocks():
    """Pieces go out in blocks of about 8 KiB, not one write each nor one
    write of the whole document."""
    writes = []
    sink = SimpleNamespace(write=lambda text: writes.append(len(text)))
    payload = {"rows": [str(i) * 20 for i in range(5000)]}
    with contextlib.redirect_stdout(sink):
        _emit_json(payload)
    assert sum(writes) == len(json.dumps(payload, indent=2)) + 1
    assert 10 < len(writes) < 100 and max(writes) < 8192 + 100, writes


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


# sha256 of the stdout of the benchmark's `solve` jobs, frozen while the Fock
# kernel still keyed its rows by Partition; `perfbench/reference.json` holds
# the same digests, which only a benchmark run checks
FROZEN_SOLVE_SHA256 = {
    ("reconstruct", "-d", "1", "-G", "2", "--compare"):
        "0f9dd2903e35e3d137f5b80e50eae72e61193ceca331a3253d381e358066a113",
    ("verify-all", "--level", "quick", "--format", "json"):
        "b7ff85304964b0ab4b190ffc22d1857d60a19b7a44d589ec577ec86f0a7910c7",
}


def test_solve_jobs_keep_their_bytes(capsys):
    for argv, digest in FROZEN_SOLVE_SHA256.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


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
    "text",
    [
        json.dumps(payload)
        for payload in (
            [],
            {"d": 2, "engine": ENGINE_VERSION, "terms": [dict(_ONE, u=[1])]},
            {"d": 2, "engine": ENGINE_VERSION, "terms": []},
            {"d": 2, "engine": ENGINE_VERSION, "terms": [dict(_ONE, u={"0": 3})]},
            {"d": 2, "engine": ENGINE_VERSION,
             **to_json_dict(wang_hamiltonian(3).density)},
            {"d": 2, "engine": ENGINE_VERSION, **_float_hbar_terms(2)},
            _edited_after_write(2),
        )
    ]
    # json.loads raises RecursionError, not ValueError, on this
    + ["[" * 200_000],
    ids=[
        "list",
        "u-is-a-list",
        "no-terms",
        "weight-3",
        "terms-of-H3",
        "float-im",
        "edited-after-write",
        "nested-200000-deep",
    ],
)
def test_hamiltonian_rebuilds_bad_cache_entry(capsys, tmp_path, text):
    # valid JSON of the wrong shape, a parsed entry that cannot be H_2, or
    # JSON too deep to parse
    _, expected, _ = run(capsys, "hamiltonian", "-d", "2")
    reference = wang_hamiltonian(2).density
    clear_memory_memo()
    path = tmp_path / "wang" / "H_2.json"
    path.parent.mkdir()
    path.write_text(text)
    code, out, err = run(
        capsys, "--cache-dir", str(tmp_path), "hamiltonian", "-d", "2"
    )
    assert (code, out, err) == (0, expected, "")
    assert load_density(path, 2) == reference


def test_hamiltonian_rebuilds_a_checksummed_entry_with_an_exponent(tmp_path):
    # Fraction("1e999999999") computes 10**999999999, so a child that parses
    # the coefficient that way runs until the timeout kills it
    clean = run_child("--cache-dir", str(tmp_path / "clean"), "hamiltonian", "-d", "2")
    path = tmp_path / "wang" / "H_2.json"
    store_density(path, 2, wang_hamiltonian(2).density)
    payload = json.loads(path.read_text())
    payload["terms"][0]["c"]["re"] = "1e999999999"
    payload["crc32"] = _checksum(payload["terms"])
    path.write_text(json.dumps(payload))
    child = run_child(
        "--cache-dir", str(tmp_path), "hamiltonian", "-d", "2", timeout=60
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, clean.stdout, "")
    assert load_density(path, 2) == wang_hamiltonian(2).density


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


def test_empty_cache_dir_flag_means_no_flag(capsys, tmp_path, monkeypatch):
    # an empty --cache-dir, like an empty $QKDV_CACHE, falls through to the
    # next choice instead of naming the working directory
    env, cwd = tmp_path / "env", tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("QKDV_CACHE", str(env))
    clear_memory_memo()
    code, _, _ = run(capsys, "--cache-dir", "", "hamiltonian", "-d", "1")
    assert code == 0
    assert (env / "wang" / "H_1.json").exists()
    assert list(cwd.iterdir()) == []


# The child imports the same qkdv as this process, installed or not.
_PACKAGE_ROOT = str(Path(qkdv.__file__).resolve().parent.parent)


def run_child(*args, timeout=None, **env):
    """Run the CLI in a fresh process, whose density memo starts empty."""
    return subprocess.run(
        [sys.executable, "-m", "qkdv.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
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


@pytest.mark.parametrize("runs", [0, 2])
def test_a_cli_process_exits_with_its_heap_frozen(tmp_path, runs):
    """main registers gc.freeze with atexit, and importing qkdv.cli does not:
    a probe registered before main runs after the freeze (handlers run last
    in, first out) and finds the heap frozen once main has run, once or
    twice, and untouched when it has not."""
    probe = (
        "import atexit, gc, sys\n"
        "import qkdv.cli\n"
        "before = gc.get_freeze_count()\n"
        "atexit.register(lambda: sys.stderr.write(f'{before} {gc.get_freeze_count()}'))\n"
        f"for _ in range({runs}):\n"
        "    qkdv.cli.main(['hamiltonian', '-d', '1', '--format', 'json'])\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": _PACKAGE_ROOT,
             "PYTHONDONTWRITEBYTECODE": "1", "QKDV_CACHE": str(tmp_path)},
    )
    assert child.returncode == 0, child.stderr
    before, after = map(int, child.stderr.split())
    assert after > before if runs else after == before
    assert child.stdout.count('"engine"') == runs


def test_main_registers_one_exit_freeze_and_leaves_the_collector_alone(
    capsys, monkeypatch
):
    """However often main runs, one gc.freeze is registered to run at exit,
    and an in-process caller's collector is as it was before the call."""
    registered = []

    def unregister(fn):
        registered[:] = [f for f in registered if f != fn]

    monkeypatch.setattr(atexit, "register", registered.append)
    monkeypatch.setattr(atexit, "unregister", unregister)
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    for _ in range(2):
        assert run(capsys, "hamiltonian", "-d", "1")[0] == 0
    assert registered == [gc.freeze]
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
