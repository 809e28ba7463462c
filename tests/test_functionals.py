"""Local functionals: quotient equality, bases, Poisson bracket."""

import math

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdv import (
    DiffPoly,
    bidegree_of,
    component_monomials,
    dx,
    functional_basis,
    poisson_bracket,
    poisson_density,
    to_functional,
    variational_derivative,
)
from qkdv import functionals, linalg
from qkdv.diffpoly import Bidegree

from conftest import diff_polys

u = DiffPoly.u


def test_quotient_identities():
    assert to_functional(u(2)).rep is not None
    assert to_functional(u(2)) == to_functional(DiffPoly.zero())
    assert to_functional(DiffPoly.const(5)) == to_functional(DiffPoly.zero())
    # one integration by parts
    assert to_functional(u(0) * u(2)) == to_functional(-u(1, 2))


@given(diff_polys, diff_polys)
def test_functional_equality_mod_derivatives(f, g):
    assert to_functional(f + dx(g)) == to_functional(f)


@given(diff_polys)
def test_normal_form_represents_the_same_class(f):
    lf = to_functional(f)
    nf = lf.normal_form()
    assert to_functional(nf) == lf
    # and is a fixed point of the reduction
    assert to_functional(nf).normal_form() == nf


def test_component_monomial_counts():
    # weight - grade factors of u, jets summing to the grade
    assert len(component_monomials(0, 3)) == 1  # u^3
    assert len(component_monomials(2, 4)) == 2  # u*u2, u1^2
    assert len(component_monomials(1, 2)) == 1  # u1
    assert component_monomials(3, 2) == []  # would need n < 1
    assert component_monomials(-1, 3) == []


def test_functional_basis_dimensions():
    assert len(functional_basis(2, 4)) == 1
    assert len(functional_basis(0, 3)) == 1
    assert len(functional_basis(1, 2)) == 0


@pytest.mark.parametrize(
    "grade,weight",
    [(0, 3), (1, 2), (2, 4), (2, 5), (3, 5), (4, 6), (4, 7), (6, 8)],
)
def test_basis_dimension_against_independent_rank(grade, weight):
    """dim = #monomials - rank(dx), with the rank computed by sympy."""
    target = component_monomials(grade, weight)
    index = {m: k for k, m in enumerate(target)}
    cols = []
    for m in component_monomials(grade - 1, weight - 1):
        image = dx(DiffPoly.term(1, m.uexp, hbar=m.hbar))
        col = [0] * len(target)
        for mono, c in image.terms():
            assert c.is_real()
            col[index[mono]] = sympy.Rational(c.re)
        cols.append(col)
    rank = sympy.Matrix(cols).T.rank() if cols else 0
    assert len(functional_basis(grade, weight)) == len(target) - rank


def test_dx_image_is_reduced_once(monkeypatch):
    # the basis and the normal form share one memoized image per component
    rref = linalg.rref
    calls = []
    monkeypatch.setattr(linalg, "rref", lambda rows: calls.append(1) or rref(rows))
    functionals._dx_image.cache_clear()
    f = u(0) * u(2) + u(1, 2)  # dx(u0 u1), grade 2 and weight 4
    for _ in range(2):
        assert len(functional_basis(2, 4)) == 1
        # its hbar^0 and hbar^1 blocks reduce against the same image
        assert to_functional(f + f * DiffPoly.hbar(1)).normal_form().is_zero()
    assert len(calls) == 1


def test_basis_members_are_independent_in_the_quotient():
    basis = functional_basis(4, 6)
    assert basis
    for b in basis:
        assert b != to_functional(DiffPoly.zero())


def test_poisson_bracket_hand_examples():
    h1 = to_functional(u(0, 3) / 6)
    h2 = to_functional(u(0, 4) / 24)
    zero = to_functional(DiffPoly.zero())
    assert poisson_bracket(h1, h2) == zero
    # the functional u^(n+2)/(n+2)! generates the flow u^n/n! * u1
    n = 3
    hn = to_functional(u(0, n + 2) / math.factorial(n + 2))
    flow = dx(variational_derivative(hn.rep))
    assert flow == u(0, n) * u(1) / math.factorial(n)


@given(diff_polys, diff_polys)
def test_poisson_antisymmetry(f, g):
    lf, lg = to_functional(f), to_functional(g)
    assert poisson_bracket(lf, lg) == -poisson_bracket(lg, lf)


@settings(max_examples=10)
@given(
    st.sampled_from(
        [u(0, 3) / 6, u(0, 4) / 24, u(1, 2), u(0) * u(1, 2), u(0, 2) / 2]
    ),
    st.sampled_from([u(0, 3) / 6, u(1, 2), u(0, 2) / 2, u(0, 5)]),
    st.sampled_from([u(0, 2) / 2, u(0, 4), u(1, 2)]),
)
def test_poisson_jacobi_identity(a, b, c):
    fa, fb, fc = to_functional(a), to_functional(b), to_functional(c)
    total = (
        poisson_bracket(fa, poisson_bracket(fb, fc))
        + poisson_bracket(fb, poisson_bracket(fc, fa))
        + poisson_bracket(fc, poisson_bracket(fa, fb))
    )
    assert total == to_functional(DiffPoly.zero())


@given(diff_polys, diff_polys)
def test_bidegree_additive_under_product(f, g):
    bf, bg = bidegree_of(f), bidegree_of(g)
    if bf is None or bg is None:
        return
    prod = f * g
    if prod.is_zero():
        return
    assert bidegree_of(prod) == Bidegree(
        grade=bf.grade + bg.grade, weight=bf.weight + bg.weight
    )


@given(diff_polys)
def test_dx_shifts_bidegree(f):
    b = bidegree_of(f)
    if b is None or dx(f).is_zero():
        return
    assert bidegree_of(dx(f)) == Bidegree(grade=b.grade + 1, weight=b.weight + 1)


def test_poisson_density_formula():
    f, g = u(0, 3) / 6, u(0, 2) / 2
    assert poisson_density(f, g) == (u(0, 2) / 2) * u(1)
