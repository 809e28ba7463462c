"""Text and LaTeX rendering of stratum polynomials."""

from types import SimpleNamespace

import pytest

from qkdv import DiffMonomial, DiffPoly, Scalar, intersection
from qkdv.hierarchy import wang_hamiltonian
from qkdv.intersection import assemble_polynomial
from qkdv.render import render_mpoly_latex, render_mpoly_text


@pytest.mark.parametrize("render", [render_mpoly_text, render_mpoly_latex])
def test_mpoly_rejects_non_real_coefficients(render, monkeypatch):
    # The renderers take Fraction coefficients; a non-real one is refused
    # where the coefficient table strips (-i)^g, before anything is rendered.
    # The cache rebuilds such an entry on load, so it comes in memory here.
    sp = assemble_polynomial(2, 1)
    assert render(sp.power_dict(), sp.variable_names()) != "0"
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
        render(sp.power_dict(), sp.variable_names())
