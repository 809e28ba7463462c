"""Command line entry point.

The subcommands, with their help, handlers and options, are the table
COMMANDS below.

Every command exits 0 exactly when its check or computation succeeds,
1 on a mathematical failure, and 2 on a usage error.  Output bytes are
deterministic for a fixed command line.  JSON documents and ``intersect``
are written as they are made, in blocks of about 8 KiB (:func:`_write`).

A CLI process exits without collecting its heap: :func:`main` first registers
:func:`gc.freeze` with :mod:`atexit`, once per process, so the collections of
interpreter finalization skip every object the command made, memory the OS
reclaims anyway.  Those collections were about a tenth of a light job's time
(README, "Command line").  No output waits on a finalizer: the interpreter
flushes stdout itself, and ``cache.store_density`` writes, closes and renames
its entry before it returns.  Importing this module registers nothing, and an
in-process caller's collector is untouched until its interpreter exits.
"""

from __future__ import annotations

import atexit
import gc
import importlib.util
import math
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
for _name in ("fock", "intersection", "linalg", "reconstruction", "render", "verify"):
    _lazy(_name)
from . import (
    cache, diffpoly, fock, hierarchy, intersection, reconstruction, render, verify,
)
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace


def _index(value: str) -> int:
    iv = int(value)
    if iv < -1:
        import argparse
        raise argparse.ArgumentTypeError("index must be >= -1")
    return iv


def _nonneg(value: str) -> int:
    iv = int(value)
    if iv < 0:
        import argparse
        raise argparse.ArgumentTypeError("value must be >= 0")
    return iv


def _write(pieces) -> None:
    """Write str pieces to stdout in blocks of about 8 KiB: on an unbuffered
    stdout each write is a system call, and one join holds the whole output."""
    block, size = [], 0
    for piece in pieces:
        block.append(piece)
        size += len(piece)
        if size >= 8192:
            sys.stdout.write("".join(block))
            block, size = [], 0
    sys.stdout.write("".join(block))


class Members:
    """A JSON object whose (key, value) members are drawn as it is written."""

    def __init__(self, pairs):
        self.items = lambda: pairs


def _json(value, indent: str):
    """The pieces of json.dumps(value, indent=2) at depth indent, for dicts
    with str keys and Members, lists and tuples, strs and iterators of their
    pieces, ints, bools and None; any other type raises TypeError."""
    if isinstance(value, str):
        yield encode_basestring_ascii(value)
    elif value is None or isinstance(value, int):
        yield ("null" if value is None else "true" if value is True
               else "false" if value is False else int.__repr__(value))
    elif isinstance(value, (dict, Members, list, tuple)):
        keyed = not isinstance(value, (list, tuple))
        brackets, inner, first = "{}" if keyed else "[]", indent + "  ", True
        for item in value.items() if keyed else value:
            head = (brackets[0] + "\n" if first else ",\n") + inner
            first = False
            if keyed:  # a key that is not a str raises TypeError here
                key, item = item
                head += encode_basestring_ascii(key) + ": "
            # a str member goes out with its head, as json.dumps's encoder does
            if isinstance(item, str):
                yield head + encode_basestring_ascii(item)
            else:
                yield head
                yield from _json(item, inner)
        yield brackets if first else "\n" + indent + brackets[1]
    elif hasattr(value, "__next__"):
        yield '"'
        for piece in value:  # escaped 256 pieces at a time
            yield encode_basestring_ascii(piece + "".join(islice(value, 255)))[1:-1]
        yield '"'
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_json(payload) -> None:
    """print(json.dumps(payload, indent=2)), written as it is made."""
    _write(chain(_json(payload, ""), "\n"))


def cmd_hamiltonian(args) -> int:
    record = hierarchy.wang_hamiltonian(args.d)
    if args.format == "json":
        _emit_json(cache.density_document(args.d, record.density))
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
        n, falling, power = intersection.orbit_tables(args.d, args.g)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = intersection.variable_names(n)
    den = math.lcm(*(c.denominator for c in power.values()))
    latex = args.format == "latex"
    power_text = render.mpoly_pieces(
        intersection.orderings(power, descending=True), names, den, latex
    )
    falling_pairs = (
        ("(" + ",".join(map(str, exps)) + ")", c)
        for exps, c in intersection.orderings(falling)
    )
    if args.format == "json":
        _emit_json({"prediction": True, "d": args.d, "g": args.g, "n": n,
                    "falling": Members((key, str(c)) for key, c in falling_pairs),
                    "power": power_text})
    elif latex:
        _write(chain(
            [f"% prediction: d={args.d}, g={args.g}, n={n}\n"
             f"P_{{{args.d},{args.g}}}({', '.join(render.latex_names(names))}) = "],
            power_text, "\n",
        ))
    else:
        _write(chain(
            [f"prediction for d={args.d}, g={args.g} (n={n} marked points)\n"
             f"P({', '.join(names)}) = "],
            power_text, ["\nfalling-basis coefficients:"],
            (f"\n  {key} -> {c}" for key, c in falling_pairs), "\n",
        ))
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


def _opt(*flags, **kwargs):
    return flags, kwargs


_FORMATS = ("text", "json", "latex")
_CACHE_DIR = _opt("--cache-dir", default=None, help=(
    "density cache directory (default: $QKDV_CACHE or ./.qkdv-cache)"))
# Each subcommand's help, handler and options, the options as add_argument
# takes them: build_parser builds argparse from this table, and _parse_plain
# reads the documented spellings from it without argparse.
COMMANDS = {
    "hamiltonian": ("print one Hamiltonian density", cmd_hamiltonian, (
        _opt("-d", type=_index, required=True, help="hierarchy index, >= -1"),
        _opt("--format", choices=_FORMATS, default="text"))),
    "s-series": ("print generating-series coefficients", cmd_s_series, (
        _opt("-k", "--kmax", type=_nonneg, required=True),
        _opt("--format", choices=_FORMATS, default="text"))),
    "commute": ("check one commutator on bounded momenta", cmd_commute, (
        _opt("--d1", type=_index, required=True),
        _opt("--d2", type=_index, required=True),
        _opt("--mmax", type=_nonneg, default=6),
        _opt("--format", choices=_FORMATS[:2], default="text"))),
    "reconstruct": ("rebuild a density from commutation constraints", cmd_reconstruct, (
        _opt("-d", type=_index, required=True),
        _opt("-G", type=_nonneg, required=True, help="highest hbar order"),
        _opt("--mmax", type=_nonneg, default=None),
        _opt("--compare", action="store_true",
             help="also compare against the closed-form density"))),
    "intersect": ("print a predicted stratum polynomial", cmd_intersect, (
        _opt("-d", type=_index, required=True),
        _opt("-g", type=_nonneg, required=True, help="genus, >= 0"),
        _opt("--format", choices=_FORMATS, default="text"))),
    "verify-all": ("run the whole verification suite", cmd_verify_all, (
        _opt("--level", choices=("quick", "full"), default="quick"),
        _opt("--format", choices=_FORMATS[:2], default="text"))),
}


def build_parser():
    import argparse
    parser = argparse.ArgumentParser(prog="qkdv", description=(
        "Exact engine for a quantized dispersionless KdV hierarchy."))
    parser.add_argument(*_CACHE_DIR[0], **_CACHE_DIR[1])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def _read(options, tokens: list, args: dict) -> bool:
    """Set each option's default in args, then read full flags off the front
    of tokens, each with its value in the next token.  False where argparse
    might read the tokens otherwise, or would refuse them."""
    by_flag = {}
    for flags, kwargs in options:
        dest = max(flags, key=len).lstrip("-").replace("-", "_")
        args[dest] = kwargs.get("default", False if "action" in kwargs else None)
        by_flag.update(dict.fromkeys(flags, (dest, kwargs)))
    while tokens and tokens[0] in by_flag:
        dest, kwargs = by_flag[tokens.pop(0)]
        if "action" in kwargs:  # store_true
            args[dest] = True
            continue
        value = tokens.pop(0) if tokens else "-"
        # argparse reads "-" and ASCII digits as a value: decline any other "-"
        if value[:1] == "-" and not (value[1:].isascii() and value[1:].isdigit()):
            return False
        try:
            args[dest] = value = kwargs.get("type", str)(value)
        except Exception:  # argparse reports it
            return False
        if value not in kwargs.get("choices", (value,)):
            return False
    # a required option has no default, and no type function returns None
    return all(args[d] is not None for d, kw in by_flag.values() if kw.get("required"))


def _parse_plain(argv):
    """What build_parser().parse_args(argv) returns, without argparse, for an
    optional leading --cache-dir DIR, a command and its options; None for
    anything else (help, usage errors, --opt=value, abbreviations)."""
    tokens, args = list(argv), {}
    if not _read((_CACHE_DIR,), tokens, args) or not tokens:
        return None
    args["command"] = tokens.pop(0)
    if args["command"] not in COMMANDS:
        return None
    _, args["func"], options = COMMANDS[args["command"]]
    if not _read(options, tokens, args) or tokens:
        return None
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    # once per process: atexit runs a handler as often as it was registered
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_plain(argv) or build_parser().parse_args(argv)
    # --cache-dir holds for this command only, so no later API call inherits it
    previous = cache.choose_dir(args.cache_dir)
    try:
        return args.func(args)
    finally:
        cache.choose_dir(previous)


if __name__ == "__main__":
    sys.exit(main())
