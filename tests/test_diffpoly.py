"""Differential polynomials: arithmetic, gradings, calculus, serialization."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdv import (
    DiffPoly,
    OddPowerError,
    Scalar,
    bidegree_of,
    dx,
    from_json,
    from_json_dict,
    is_homogeneous,
    partial_u,
    scale_substitute,
    to_json,
    to_json_dict,
    variational_derivative,
)
from qkdv.diffpoly import PHASE, Bidegree, DiffMonomial

from conftest import diff_polys, small_scalar, stores_no_zero

u = DiffPoly.u


def test_basic_construction():
    f = u(0, 2) + 3 * u(1)
    # cancelling sums store nothing: the constructor drops zero coefficients
    assert (f + (-f)).monomial_count() == 0
    assert f.monomial_count() == 2
    assert f.coefficient(DiffMonomial(((0, 2),), 0)) == Scalar.of(1)
    assert f.coefficient(DiffMonomial(((1, 1),), 0)) == Scalar.of(3)
    assert f.max_jet() == 1 and f.max_hbar() == 0
    assert DiffPoly.zero().is_zero()
    assert not DiffPoly.one().is_zero()


def test_dx_on_generators():
    assert dx(u(0)) == u(1)
    assert dx(u(3)) == u(4)
    assert dx(u(0, 2)) == 2 * u(0) * u(1)
    assert dx(DiffPoly.const(7)).is_zero()
    assert dx(DiffPoly.hbar(2)).is_zero()
    # the u1*u2 terms of the two summands cancel inside one dx
    cancel = dx(u(1, 2) / 2 - u(0) * u(2))
    assert cancel == -u(0) * u(3)
    assert cancel.monomial_count() == 1


@given(diff_polys, diff_polys)
def test_dx_is_a_derivation(f, g):
    lhs = dx(f * g)
    assert lhs == dx(f) * g + f * dx(g)
    assert stores_no_zero(lhs) and stores_no_zero(f * g)
    assert (f * g - g * f).monomial_count() == 0


@given(diff_polys, diff_polys, small_scalar)
def test_dx_is_linear(f, g, c):
    h = f + g.scale(c)
    assert dx(h) == dx(f) + dx(g).scale(c)
    assert stores_no_zero(h) and stores_no_zero(dx(h))
    assert all(stores_no_zero(partial_u(h, s)) for s in range(4))


def test_partial_u_samples():
    f = u(0, 2) * u(1)
    assert partial_u(f, 0) == 2 * u(0) * u(1)
    assert partial_u(f, 1) == u(0, 2)
    assert partial_u(f, 2).is_zero()


def test_variational_derivative_samples():
    assert variational_derivative(u(0, 2) / 2) == u(0)
    assert variational_derivative(u(1, 2)) == -2 * u(2)
    assert variational_derivative(u(0, 3) / 6) == u(0, 2) / 2


def literal_euler(f):
    """sum_s (-dx)^s df/du_s, each power of -dx applied factor by factor."""
    out = DiffPoly.zero()
    for s in range(f.max_jet() + 1):
        g = partial_u(f, s)
        for _ in range(s):
            g = -dx(g)
        out = out + g
    return out


@given(diff_polys, st.integers(min_value=0, max_value=2))
def test_variational_derivative_is_the_literal_euler_sum(f, n):
    g = f * f
    for _ in range(n):
        g = g + dx(g) * f
    assert variational_derivative(g) == literal_euler(g)


@given(diff_polys)
def test_variational_derivative_kills_total_derivatives(f):
    assert variational_derivative(dx(f)).is_zero()


@given(diff_polys, diff_polys)
def test_variational_derivative_is_linear(f, g):
    assert variational_derivative(f + g) == variational_derivative(
        f
    ) + variational_derivative(g)


def test_bidegrees():
    assert bidegree_of(u(1, 2)) == Bidegree(grade=2, weight=4)
    # hbar lowers the grade by two and leaves the weight alone
    assert bidegree_of(DiffPoly.term(1, ((2, 1),), hbar=1)) == Bidegree(
        grade=0, weight=3
    )
    assert bidegree_of(u(0) + u(1)) is None  # mixed
    assert is_homogeneous(u(0, 3) + DiffPoly.term(1, ((2, 1),), hbar=1), 0, 3)
    assert not is_homogeneous(u(0, 3) + u(0, 2), 0, 3)


def test_scale_substitute_even_weights():
    # u_j -> lam^j u_j with lam^2 = -i*hbar
    assert scale_substitute(u(1, 2)) == DiffPoly.term(
        Scalar.of(0, -1), ((1, 2),), hbar=1
    )
    assert scale_substitute(u(2) * u(0)) == DiffPoly.term(
        Scalar.of(0, -1), ((0, 1), (2, 1)), hbar=1
    )
    assert scale_substitute(u(0, 4)) == u(0, 4)
    # (-i)^2 = -1 at jet weight 4
    assert scale_substitute(u(2, 2)) == DiffPoly.term(-1, ((2, 2),), hbar=2)


# u_t times squares u_s^2 and an hbar power: jet weight t mod 8 is 0, 2, 4 or 6
even_weight_monomials = st.builds(
    lambda t, squares, h: DiffMonomial.make([(t, 1)] + [(s, 2) for s in squares], h),
    st.integers(min_value=0, max_value=7).map(lambda k: 2 * k),
    st.lists(st.integers(min_value=0, max_value=4), max_size=2),
    st.integers(min_value=0, max_value=2),
)


@given(st.dictionaries(even_weight_monomials, small_scalar, min_size=1, max_size=4))
def test_scale_substitute_is_the_phase_product_term_by_term(terms):
    # the phase is applied as a swap; the Q(i) product is the reference
    got = scale_substitute(DiffPoly(terms))
    assert len(got) == len(terms)
    for mono, c in terms.items():
        assert c.re and c.im
        half = mono.jet_weight() // 2
        image = DiffMonomial(mono.uexp, mono.hbar + half)
        assert got.coefficient(image) == c * PHASE[half % 4]


def test_scale_substitute_rejects_odd_weight():
    with pytest.raises(OddPowerError):
        scale_substitute(u(1))
    with pytest.raises(OddPowerError):
        scale_substitute(u(2) * u(1))


@given(diff_polys)
def test_json_round_trip_is_exact(f):
    assert from_json(to_json(f)) == f
    assert from_json_dict(to_json_dict(f)) == f


@given(diff_polys)
def test_json_is_deterministic(f):
    s = to_json(f)
    assert s == to_json(from_json(s))
    # keys are emitted in a fixed order, so equal polys give equal strings
    assert s == to_json(f + DiffPoly.zero())
    json.loads(s)  # well-formed


def test_json_duplicate_terms_are_summed():
    def term(re):
        return {"c": {"re": re, "im": "0"}, "hbar": 1, "u": {"2": 1}}

    one = {"c": {"re": "1", "im": "0"}, "hbar": 0, "u": {"0": 2}}
    f = from_json_dict({"terms": [term("1/2"), one, term("-1/2")]})
    assert f == u(0, 2) and f.monomial_count() == 1
    half = DiffPoly.term(Scalar.of("1/2"), ((2, 1),), hbar=1)
    assert from_json_dict({"terms": [term("1/3"), term("1/6")]}) == half


def test_json_rational_fidelity():
    f = DiffPoly.term(Scalar.of("1/3", "-7/12"), ((0, 1), (4, 2)), hbar=3)
    d = to_json_dict(f)
    (term,) = d["terms"]
    assert term["c"] == {"re": "1/3", "im": "-7/12"}
    assert term["hbar"] == 3
    assert term["u"] == {"0": 1, "4": 2}
