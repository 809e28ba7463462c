"""Source rules of the package: standard library only, and no floats."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qkdv").glob("*.py"))


def imported_roots(node):
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []  # relative imports stay inside qkdv


def test_stdlib_only_and_no_floats():
    assert SOURCES
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            for root in imported_roots(node):
                assert root in sys.stdlib_module_names or root == "qkdv", where
            assert not (
                isinstance(node, ast.Constant) and isinstance(node.value, float)
            ), f"float literal at {where}"
            assert not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ), f"float() call at {where}"


def test_only_diffpoly_spells_the_phase():
    # diffpoly.PHASE and diffpoly.unphased are the one place (-i)^h is
    # applied or stripped; scalars defines the constant they use
    for path in SOURCES:
        if path.name in ("scalars.py", "diffpoly.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = {getattr(node, field, None) for field in ("id", "attr", "name")}
            assert "MINUS_I" not in names, f"{path.name}:{getattr(node, 'lineno', '?')}"


def imports_cache(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "qkdv.cache" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = "." * node.level + (node.module or "")
        return module in (".cache", "qkdv.cache") or (
            module in (".", "qkdv") and any(a.name == "cache" for a in node.names)
        )
    return False


def test_only_cache_chooses_the_cache_directory():
    # cache.density_path is the one place the directory is decided; the CLI
    # hands it --cache-dir, and only hierarchy and verify touch the files
    readers = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            assert not (isinstance(node, ast.arg) and node.arg == "cache_dir"), where
            if imports_cache(node):
                readers.add(path.name)
    assert readers == {"hierarchy.py", "verify.py", "cli.py"}
