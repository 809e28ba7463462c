"""Command line entry point.

Subcommands:

    hamiltonian   print one Hamiltonian density (text, JSON or LaTeX)
    s-series      print generating-series coefficients up to an order
    commute       check one pair of Hamiltonians on bounded momenta
    reconstruct   rebuild a density from commutation constraints
    intersect     print a predicted stratum polynomial
    verify-all    run the whole verification suite

Every command exits 0 exactly when its check or computation succeeds,
1 on a mathematical failure, and 2 on a usage error.  Output bytes are
deterministic for a fixed command line.
"""

from __future__ import annotations

import importlib.util
import sys


def _lazy(name: str) -> None:
    """Register qkdv.<name> to run on its first attribute access."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[fullname] = module = importlib.util.module_from_spec(spec)
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)


# A command runs only the modules it reads: JSON output never renders, and a
# density request never reduces a normal form.  functionals imports linalg
# only to reduce one, so registering linalg here only keeps it in sys.modules
# for perfbench/traced_job.py, which spans linalg.rref from the start.
# argparse comes after the core modules: imported first, it raised the peak
# memory of a density request.
for _name in ("fock", "intersection", "linalg", "reconstruction", "render", "verify"):
    _lazy(_name)
from . import (
    cache, diffpoly, fock, hierarchy, intersection, reconstruction, render, verify,
)
from ._version import ENGINE_VERSION
import argparse
import json


def _index(value: str) -> int:
    iv = int(value)
    if iv < -1:
        raise argparse.ArgumentTypeError("index must be >= -1")
    return iv


def _nonneg(value: str) -> int:
    iv = int(value)
    if iv < 0:
        raise argparse.ArgumentTypeError("value must be >= 0")
    return iv


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def cmd_hamiltonian(args) -> int:
    record = hierarchy.wang_hamiltonian(args.d)
    if args.format == "json":
        payload = {"d": args.d, "engine": ENGINE_VERSION}
        payload.update(diffpoly.to_json_dict(record.density))
        _emit_json(payload)
    elif args.format == "latex":
        print(f"H_{{{args.d}}} = {render.render_poly_latex(record.density)}")
    else:
        print(f"H_{args.d} = {render.render_poly_text(record.density)}")
    return 0


def cmd_s_series(args) -> int:
    series = hierarchy.s_series(args.kmax)
    if args.format == "json":
        coeffs = [diffpoly.to_json_dict(c) for c in series.coeffs]
        _emit_json({"kmax": args.kmax, "coefficients": coeffs})
        return 0
    for k, c in enumerate(series.coeffs):
        if args.format == "latex":
            print(f"S_{{({k})}} = {render.render_poly_latex(c)}")
        else:
            print(f"S_({k}) = {render.render_poly_text(c)}")
    return 0


def cmd_commute(args) -> int:
    try:
        report = fock.check_commute(args.d1, args.d2, args.mmax)
    except fock.CommutatorNonzero as exc:
        _emit_json(exc.witness_dict())
        return 1
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        print(
            f"PASS [H_{args.d1}, H_{args.d2}] = 0 on momenta <= {args.mmax} "
            f"({len(report.sectors_checked)} momentum sectors)"
        )
    return 0


def cmd_reconstruct(args) -> int:
    try:
        functional, cert = reconstruction.reconstruct_with_certificate(
            args.d, args.G, args.mmax
        )
    except (
        reconstruction.UnderdeterminedError,
        reconstruction.InconsistentError,
    ) as exc:
        _emit_json({"status": type(exc).__name__, "message": str(exc)})
        return 1
    payload = cert.to_json_dict()
    matches = True
    if args.compare:
        matches = reconstruction.compare_with_wang(args.d, args.G, args.mmax)
        payload["matches_closed_form"] = matches
    _emit_json(payload)
    return 0 if matches else 1


def cmd_intersect(args) -> int:
    try:
        sp = intersection.assemble_polynomial(args.d, args.g)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = sp.variable_names()
    if args.format == "json":
        payload = {
            "prediction": True,
            "d": sp.d,
            "g": sp.g,
            "n": sp.n,
            "falling": {
                "(" + ",".join(str(a) for a in exps) + ")": str(c)
                for exps, c in sp.falling
            },
            "power": render.render_mpoly_text(sp.power_dict(), names),
        }
        _emit_json(payload)
        return 0
    if args.format == "latex":
        print(f"% prediction: d={sp.d}, g={sp.g}, n={sp.n}")
        print(
            f"P_{{{sp.d},{sp.g}}}({', '.join(names)}) = "
            f"{render.render_mpoly_latex(sp.power_dict(), names)}"
        )
        return 0
    print(f"prediction for d={sp.d}, g={sp.g} (n={sp.n} marked points)")
    print(f"P({', '.join(names)}) = {render.render_mpoly_text(sp.power_dict(), names)}")
    print("falling-basis coefficients:")
    for exps, c in sp.falling:
        label = ",".join(str(a) for a in exps)
        print(f"  ({label}) -> {c}")
    return 0


def cmd_verify_all(args) -> int:
    echo = print if args.format == "text" else None
    summary = verify.run_suite(args.level, echo=echo)
    if args.format == "json":
        _emit_json(summary.to_json_dict())
    else:
        failures = sum(1 for r in summary.results if not r.passed)
        if summary.passed:
            print(f"ALL CHECKS PASSED (level={summary.level})")
        else:
            print(f"FAILURES: {failures} (level={summary.level})")
    return 0 if summary.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdv",
        description="Exact engine for a quantized dispersionless KdV hierarchy.",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="density cache directory (default: $QKDV_CACHE or ./.qkdv-cache)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hamiltonian", help="print one Hamiltonian density")
    p.add_argument("-d", type=_index, required=True, help="hierarchy index, >= -1")
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=cmd_hamiltonian)

    p = sub.add_parser("s-series", help="print generating-series coefficients")
    p.add_argument("-k", "--kmax", type=_nonneg, required=True)
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=cmd_s_series)

    p = sub.add_parser("commute", help="check one commutator on bounded momenta")
    p.add_argument("--d1", type=_index, required=True)
    p.add_argument("--d2", type=_index, required=True)
    p.add_argument("--mmax", type=_nonneg, default=6)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_commute)

    p = sub.add_parser(
        "reconstruct", help="rebuild a density from commutation constraints"
    )
    p.add_argument("-d", type=_index, required=True)
    p.add_argument("-G", type=_nonneg, required=True, help="highest hbar order")
    p.add_argument("--mmax", type=_nonneg, default=None)
    p.add_argument(
        "--compare",
        action="store_true",
        help="also compare against the closed-form density",
    )
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("intersect", help="print a predicted stratum polynomial")
    p.add_argument("-d", type=_index, required=True)
    p.add_argument("-g", type=_nonneg, required=True, help="genus, >= 0")
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("verify-all", help="run the whole verification suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # --cache-dir holds for this command only, so no later API call inherits it
    previous = cache.choose_dir(args.cache_dir)
    try:
        return args.func(args)
    finally:
        cache.choose_dir(previous)


if __name__ == "__main__":
    sys.exit(main())
