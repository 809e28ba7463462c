"""Text and LaTeX rendering of stratum polynomials."""

import pytest

from qkdv.render import render_mpoly_latex, render_mpoly_text
from qkdv.scalars import I, ONE


@pytest.mark.parametrize("render", [render_mpoly_text, render_mpoly_latex])
def test_mpoly_rejects_non_real_coefficients(render):
    with pytest.raises(ValueError, match="non-real"):
        render({(1,): I, (0,): ONE}, ["m"])
