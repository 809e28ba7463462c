"""Text and LaTeX rendering of densities and stratum polynomials."""

import math
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from qkdv import DiffMonomial, DiffPoly, Scalar, intersection
from qkdv.hierarchy import wang_hamiltonian
from qkdv.intersection import assemble_polynomial
from qkdv.render import (
    render_mpoly_latex,
    render_mpoly_text,
    render_poly_latex,
    render_poly_text,
)


@pytest.mark.parametrize("render", [render_mpoly_text, render_mpoly_latex])
def test_mpoly_rejects_non_real_coefficients(render, monkeypatch):
    # The renderers take Fraction coefficients; a non-real one is refused
    # where the coefficient table strips (-i)^g, before anything is rendered.
    # The cache rebuilds such an entry on load, so it comes in memory here.
    sp = assemble_polynomial(2, 1)
    den = math.lcm(*(c.denominator for _, c in sp.power))
    assert render(sp.power[::-1], sp.variable_names(), den) != "0"
    true = wang_hamiltonian(2).density
    mono = DiffMonomial(((1, 2),), 1)
    forged = (
        true
        - DiffPoly.term(true.coefficient(mono), ((1, 2),), hbar=1)
        + DiffPoly.term(Scalar.of("1/24"), ((1, 2),), hbar=1)
    )
    monkeypatch.setattr(
        intersection, "wang_hamiltonian", lambda *args: SimpleNamespace(density=forged)
    )
    with pytest.raises(ValueError, match=r"not real times \(-i\)\^1"):
        sp = assemble_polynomial(2, 1)
        render(sp.power[::-1], sp.variable_names(), den)


def test_density_renderers_refuse_a_coefficient_off_the_phase():
    # a coefficient at hbar^g must be a real rational times (-i)^g; any other
    # is refused, naming the monomial and the coefficient
    cases = [
        (DiffMonomial(((0, 2),), 0), Scalar.of(1, 1), "u0^2: (1+i)", 0),
        (DiffMonomial(((2, 1),), 1), Scalar.of("1/12"), "u2*hbar: 1/12", 1),
    ]
    for render in (render_poly_text, render_poly_latex):
        for mono, c, named, g in cases:
            f = DiffPoly({mono: c}) + DiffPoly.u(0, 3)
            refusal = f"monomial {named} is not real times (-i)^{g}"
            with pytest.raises(ValueError, match=re.escape(refusal)):
                render(f)


def test_mpoly_quotient_brackets_a_sum_only():
    """Terms come in descending key order; a text quotient brackets its
    numerator only when two or more terms are read, LaTeX always uses \\frac."""
    names = ["m1", "m2"]
    one = [((2, 0), Fraction(1, 12))]
    two = [*one, ((1, 1), Fraction(-1, 6))]
    assert render_mpoly_text([], names, 1) == "0"
    assert render_mpoly_text([((0, 0), Fraction(-3))], names, 1) == "-3"
    assert render_mpoly_text(one, names, 12) == "m1^2/12"
    assert render_mpoly_text(two, names, 12) == "(m1^2-2*m1*m2)/12"
    assert render_mpoly_latex(one, names, 12) == r"\frac{m_{1}^{2}}{12}"
    assert render_mpoly_latex(two, names, 12) == r"\frac{m_{1}^{2}-2 m_{1} m_{2}}{12}"
    assert render_mpoly_text([((0, 1), Fraction(-1, 2)), ((0, 0), Fraction(1))],
                             names, 2) == "(-m2+2)/2"
