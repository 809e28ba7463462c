"""Run one qkdv CLI command with spans around each layer's public functions.

Usage: python traced_job.py TRACE_OUT.json [qkdv arguments...]

The script times ``import qkdv.cli``, rebinds the functions listed in
``SPANNED`` in every ``qkdv`` module that holds them, counts the ``Scalar``
operators, runs ``qkdv.cli.main`` and exits with its return code.  Standard
output is left to the command, byte for byte.  When the command ends, the
spans (name, start, end, parent index), the counters and the hit and miss
counts of the Fock memos are written to TRACE_OUT.json.

No function listed here calls itself or another function with the same span
name, so summing span durations per name never counts time twice.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span name)
SPANNED = [
    ("hierarchy", "wang_hamiltonian", "hierarchy.wang_hamiltonian"),
    ("hierarchy", "s_series", "hierarchy.s_series"),
    ("diffpoly", "dx", "diffpoly.dx"),
    ("diffpoly", "scale_substitute", "diffpoly.scale_substitute"),
    ("diffpoly", "variational_derivative", "diffpoly.variational_derivative"),
    ("diffpoly", "from_json_dict", "diffpoly.from_json_dict"),
    ("diffpoly", "to_json_dict", "diffpoly.to_json_dict"),
    ("cache", "load_density", "cache.load"),
    ("cache", "store_density", "cache.store"),
    ("functionals", "functional_basis", "functionals.functional_basis"),
    ("fock", "check_commute", "fock.check_commute"),
    ("fock", "apply_quantized", "fock.apply_quantized"),
    ("fock", "commutator_apply", "fock.commutator_apply"),
    ("fock", "classical_consistency", "fock.classical_consistency"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "solve_affine", "linalg.solve_affine"),
    ("reconstruction", "reconstruct_with_certificate",
     "reconstruction.reconstruct_with_certificate"),
    ("reconstruction", "compare_with_wang", "reconstruction.compare_with_wang"),
    ("intersection", "assemble_polynomial", "intersection.assemble_polynomial"),
    ("intersection", "falling_convert", "intersection.falling_convert"),
    ("intersection", "extract_coeff_table", "intersection.extract_coeff_table"),
    ("render", "render_poly_text", "render"),
    ("render", "render_poly_latex", "render"),
    ("render", "render_mpoly_text", "render"),
    ("render", "render_mpoly_latex", "render"),
    ("verify", "run_suite", "verify.run_suite"),
]

# lru_cache memos whose hit ratio is reported, by metric prefix
MEMOS = {
    "fock.split_apply": "_split_apply",
    "fock.apply_to_basis": "_apply_to_basis",
    "fock.tracked_single": "_tracked_single",
}

spans: list[list] = []
stack: list[int] = []
counters: Counter = Counter()


def spanned(fn, name, after=None):
    """Wrap fn in a span; ``after(args, result)`` may add counters."""

    def traced(*args, **kwargs):
        record = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(record)
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            stack.pop()
        if after is not None:
            after(args, result)
        return result

    return traced


def counted(fn, key, after=None):
    def wrapper(*args, **kwargs):
        counters[key] += 1
        result = fn(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _rows_max(args, _result):
    counters["linalg.rref.rows_max"] = max(
        counters["linalg.rref.rows_max"], len(args[0])
    )


AFTER = {
    "cache.load": lambda a, r: counters.update({"cache.load.hits": r is not None}),
    "cache.store": lambda a, r: counters.update(
        {"cache.store.bytes": os.path.getsize(a[0])}
    ),
    "linalg.rref": _rows_max,
    "reconstruction.reconstruct_with_certificate": lambda a, r: counters.update(
        {"reconstruction.schedule_steps": len(r[1].kernel_trace)}
    ),
    "intersection.assemble_polynomial": lambda a, r: counters.update(
        {"intersection.power_terms": len(r.power)}
    ),
}


def rebind(original, replacement) -> None:
    """Point every qkdv module's reference to ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "qkdv" and not mod_name.startswith("qkdv."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument() -> None:
    from qkdv import fock, functionals, reconstruction, scalars

    for mod_name, attr, name in SPANNED:
        original = getattr(sys.modules[f"qkdv.{mod_name}"], attr)
        rebind(original, spanned(original, name, AFTER.get(name)))
    # Sectors visited: every caller walks the whole tuple it gets back.
    rebind(
        fock.partitions_of,
        counted(
            fock.partitions_of,
            "fock.partitions_of.calls",
            lambda a, r: counters.update({"fock.states": len(r)}),
        ),
    )
    reconstruction.commutator_apply = counted(
        reconstruction.commutator_apply, "reconstruction.commutator_apply.calls"
    )
    lf = functionals.LocalFunctional
    lf.__eq__ = spanned(lf.__eq__, "functionals.eq")
    s = scalars.Scalar
    for attrs, key in (
        (("__mul__", "__rmul__"), "scalars.mul.calls"),
        (("__add__", "__radd__"), "scalars.add.calls"),
        (("inverse",), "scalars.inverse.calls"),
    ):
        for attr in attrs:
            setattr(s, attr, counted(getattr(s, attr), key))


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import qkdv.cli

    import_s = perf_counter() - t0
    instrument()
    try:
        rc = qkdv.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    sys.stdout.flush()
    from qkdv import fock

    memos = {}
    for prefix, attr in MEMOS.items():
        info = getattr(fock, attr).cache_info()
        memos[prefix] = [info.hits, info.misses]
    with open(out_path, "w") as fh:
        json.dump(
            {
                "import_s": import_s,
                "spans": spans,
                "counters": counters,
                "memos": memos,
            },
            fh,
            separators=(",", ":"),
        )
    return rc


if __name__ == "__main__":
    sys.exit(main())
