"""Deterministic text and LaTeX rendering.

Densities print with ``u``, ``u1``, ``u2``, ... and ``hbar``, and (-i*hbar)^g
grouped: each coefficient is a real rational (``diffpoly.unphased``) times
that unit, which the cache load checks; any other raises ValueError.
Stratum polynomials print over a common denominator with exponent tuples
sorted descending: :func:`mpoly_pieces` takes the terms as a stream in that
order (``intersection.orderings(table, descending=True)``) and yields each
signed term's text as it reads it, so the command line writes a polynomial
without holding it, and identical inputs always produce identical bytes.
Each kind has one renderer; its ``latex`` flag only changes how factors,
products, quotients and names (``latex_names``) are spelled.
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


def latex_names(names: list[str]) -> list[str]:
    """m1, m2, ... as m_{1}, m_{2}, ...; a lone m stays m."""
    return [f"m_{{{name[1:]}}}" if len(name) > 1 else name for name in names]


def _mpoly_term(exps: tuple[int, ...], mag: int, names: list[str], latex: bool) -> str:
    sep = " " if latex else "*"
    factors = [_power(name, e, latex) for name, e in zip(names, exps) if e]
    if not factors:
        return str(mag)
    body = sep.join(factors)
    return body if mag == 1 else f"{mag}{sep}{body}"


def mpoly_pieces(terms, names: list[str], den: int, latex: bool):
    """The text of nonzero (exponents, Fraction) terms, given in descending
    key order, over the common denominator den, in pieces: one per term
    (``"-2*m1^2"``, ``"+m2"``) behind a head that opens the quotient, then
    its close.  Two terms are read ahead: a text quotient brackets its
    numerator only when it has more than one."""
    if latex:
        names = latex_names(names)
    signed = (
        ("-" if c.numerator < 0 else "+")
        + _mpoly_term(exps, abs(c.numerator) * (den // c.denominator), names, latex)
        for exps, c in terms
    )
    first, second = next(signed, None), next(signed, None)
    if first is None:
        yield "0"
        return
    head, tail = "", ""
    if den != 1:
        head, tail = (
            (r"\frac{", f"}}{{{den}}}") if latex
            else ("(", f")/{den}") if second is not None
            else ("", f"/{den}")
        )
    yield head + first.removeprefix("+")
    if second is not None:
        yield second
        yield from signed
    yield tail


def render_mpoly_text(terms, names: list[str], den: int) -> str:
    return "".join(mpoly_pieces(terms, names, den, latex=False))


def render_mpoly_latex(terms, names: list[str], den: int) -> str:
    return "".join(mpoly_pieces(terms, names, den, latex=True))
