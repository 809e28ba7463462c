"""Text and LaTeX rendering of stratum polynomials."""

import pytest

from qkdv import DiffMonomial, DiffPoly, Scalar
from qkdv.cache import store_density, wang_path
from qkdv.hierarchy import clear_memory_memo, wang_hamiltonian
from qkdv.intersection import assemble_polynomial
from qkdv.render import render_mpoly_latex, render_mpoly_text


@pytest.mark.parametrize("render", [render_mpoly_text, render_mpoly_latex])
def test_mpoly_rejects_non_real_coefficients(render, tmp_cache):
    # The renderers take Fraction coefficients; a non-real one is refused
    # where the coefficient table strips (-i)^g, before anything is rendered.
    sp = assemble_polynomial(2, 1)
    assert render(sp.power_dict(), sp.variable_names()) != "0"
    true = wang_hamiltonian(2).density
    mono = DiffMonomial(((1, 2),), 1)
    forged = (
        true
        - DiffPoly.term(true.coefficient(mono), ((1, 2),), hbar=1)
        + DiffPoly.term(Scalar.of("1/24"), ((1, 2),), hbar=1)
    )
    store_density(wang_path(tmp_cache, 2), 2, forged)
    clear_memory_memo()
    try:
        with pytest.raises(ValueError, match=r"not real times \(-i\)\^1"):
            sp = assemble_polynomial(2, 1, tmp_cache)
            render(sp.power_dict(), sp.variable_names())
    finally:
        clear_memory_memo()
