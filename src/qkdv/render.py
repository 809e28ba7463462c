"""Deterministic text and LaTeX rendering.

Densities print with ``u``, ``u1``, ``u2``, ... and ``hbar``, and (-i*hbar)^g
grouped: each coefficient is a real rational (``diffpoly.unphased``) times
that unit, which the cache load checks.  Stratum polynomials print over a
common denominator with exponent tuples sorted descending, so identical
inputs always produce identical bytes.  Each kind has one renderer; its
``latex`` flag only changes how factors, products and quotients are spelled.
"""

from __future__ import annotations

from math import lcm

from .diffpoly import DiffMonomial, DiffPoly, unphased
from .scalars import Scalar


def _power(base: str, e: int, latex: bool) -> str:
    if e == 1:
        return base
    return f"{base}^{{{e}}}" if latex else f"{base}^{e}"


def _signed_sum(pieces, spaced: bool) -> str:
    """Join (negative, body) pairs as "a - b + c" when spaced, else "a-b+c"."""
    out: list[str] = []
    for negative, body in pieces:
        sign = "-" if negative else ("+" if out else "")
        if out and spaced:
            sign = f" {sign} "
        out.append(sign + body)
    return "".join(out)


def _term_pieces(mono: DiffMonomial, c: Scalar, latex: bool):
    """Sign, numerator factors and denominator for one rendered term."""
    g = mono.hbar
    base = unphased(mono, c)
    factors: list[str] = []
    if g:
        unit = r"(-i\hbar)" if latex else "(-i*hbar)"
        # LaTeX needs braces around a multi-digit exponent only: (-i\hbar)^2
        exponent = f"{{{g}}}" if latex and g > 9 else g
        factors.append(unit if g == 1 else f"{unit}^{exponent}")
    for s, e in mono.uexp:
        name = "u" if s == 0 else (f"u_{{{s}}}" if latex else f"u{s}")
        factors.append(_power(name, e, latex))
    num = abs(base.numerator)
    if num != 1 or not factors:
        factors.insert(0, str(num))
    return base < 0, factors, base.denominator


def _render_poly(f: DiffPoly, latex: bool) -> str:
    if f.is_zero():
        return "0"
    pieces = []
    for mono, c in f.terms_sorted():
        negative, factors, den = _term_pieces(mono, c, latex)
        body = (r" \, " if latex else "*").join(factors)
        if den != 1:
            body = rf"\frac{{{body}}}{{{den}}}" if latex else f"{body}/{den}"
        pieces.append((negative, body))
    return _signed_sum(pieces, spaced=True)


def render_poly_text(f: DiffPoly) -> str:
    return _render_poly(f, latex=False)


def render_poly_latex(f: DiffPoly) -> str:
    return _render_poly(f, latex=True)


def _mpoly_term(exps: tuple[int, ...], mag: int, names: list[str], latex: bool) -> str:
    sep = " " if latex else "*"
    factors = []
    for name, e in zip(names, exps):
        if e == 0:
            continue
        if latex and len(name) > 1:
            name = f"m_{{{name[1:]}}}"
        factors.append(_power(name, e, latex))
    if not factors:
        return str(mag)
    body = sep.join(factors)
    return body if mag == 1 else f"{mag}{sep}{body}"


def _render_mpoly(poly, names: list[str], latex: bool) -> str:
    """Common-denominator rendering of a ``Fraction``-coefficient polynomial."""
    items = sorted(poly.items(), key=lambda kv: kv[0], reverse=True)
    items = [(e, c) for e, c in items if c]
    if not items:
        return "0"
    den = lcm(*(c.denominator for _, c in items))
    pieces = []
    for exps, c in items:
        coeff = c.numerator * (den // c.denominator)
        pieces.append((coeff < 0, _mpoly_term(exps, abs(coeff), names, latex)))
    numerator = _signed_sum(pieces, spaced=False)
    if den == 1:
        return numerator
    if latex:
        return rf"\frac{{{numerator}}}{{{den}}}"
    if len(items) > 1:
        numerator = f"({numerator})"
    return f"{numerator}/{den}"


def render_mpoly_text(poly, names: list[str]) -> str:
    return _render_mpoly(poly, names, latex=False)


def render_mpoly_latex(poly, names: list[str]) -> str:
    return _render_mpoly(poly, names, latex=True)
