"""Deterministic text and LaTeX rendering.

Densities print with ``u``, ``u1``, ``u2``, ... and ``hbar``, and (-i*hbar)^g
grouped: each coefficient is a real rational (``diffpoly.unphased``) times
that unit, which the cache load checks; any other raises ValueError.
Stratum polynomials print over a common denominator with exponent tuples
sorted descending: the renderers take the terms as a stream in ascending key
order (``intersection.orderings``) with that denominator, build each signed
term's text once and reverse the list, so identical inputs always produce
identical bytes.  Each kind has one renderer; its ``latex`` flag only changes
how factors, products and quotients are spelled.
"""

from __future__ import annotations

from .diffpoly import DiffMonomial, DiffPoly, unphased
from .scalars import Scalar


def _power(base: str, e: int, latex: bool) -> str:
    if e == 1:
        return base
    return f"{base}^{{{e}}}" if latex else f"{base}^{e}"


def _signed_sum(signed: list[str], plus: str) -> str:
    """Join terms that each carry a sign prefix, plus or its minus twin
    ("+"/"-" or " + "/" - "), the first one written "a" or "-a"."""
    first = signed[0]
    signed[0] = ("" if first.startswith(plus) else "-") + first[len(plus):]
    return "".join(signed)


def _term_pieces(mono: DiffMonomial, c: Scalar, latex: bool):
    """Sign, numerator factors and denominator for one rendered term."""
    g = mono.hbar
    base = unphased(mono, c)
    if base is None:
        raise ValueError(f"monomial {mono}: {c} is not real times (-i)^{g}")
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
    signed = []
    for mono, c in f.terms_sorted():
        negative, factors, den = _term_pieces(mono, c, latex)
        body = (r" \, " if latex else "*").join(factors)
        if den != 1:
            body = rf"\frac{{{body}}}{{{den}}}" if latex else f"{body}/{den}"
        signed.append((" - " if negative else " + ") + body)
    return _signed_sum(signed, " + ")


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


def _render_mpoly(terms, names: list[str], den: int, latex: bool) -> str:
    """Render nonzero (exponents, Fraction) terms, given in ascending key
    order, over the common denominator den."""
    signed = []
    for exps, c in terms:
        coeff = c.numerator * (den // c.denominator)
        sign = "-" if coeff < 0 else "+"
        signed.append(sign + _mpoly_term(exps, abs(coeff), names, latex))
    if not signed:
        return "0"
    signed.reverse()
    numerator = _signed_sum(signed, "+")
    if den == 1:
        return numerator
    if latex:
        return rf"\frac{{{numerator}}}{{{den}}}"
    if len(signed) > 1:
        numerator = f"({numerator})"
    return f"{numerator}/{den}"


def render_mpoly_text(terms, names: list[str], den: int) -> str:
    return _render_mpoly(terms, names, den, latex=False)


def render_mpoly_latex(terms, names: list[str], den: int) -> str:
    return _render_mpoly(terms, names, den, latex=True)
