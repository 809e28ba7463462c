"""Predicted intersection polynomials and the coefficient inversion."""

import time
from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdv import (
    assemble_polynomial,
    extract_coeff_table,
    falling_convert,
    genus0_check,
    reassemble_density,
    wang_hamiltonian,
)
from qkdv.intersection import _closed_form, _distinct_permutations


s = Fraction


def test_falling_convert_examples():
    # m^2 = m(m-1) + m
    assert falling_convert({(2,): s(1)}, "to_falling") == {
        (2,): s(1),
        (1,): s(1),
    }
    # m falling 2 = m^2 - m
    assert falling_convert({(2,): s(1)}, "to_power") == {
        (2,): s(1),
        (1,): s(-1),
    }
    assert falling_convert({(0,): s(1)}, "to_power") == {(0,): s(1)}
    assert falling_convert({(0, 0): s(7)}, "to_falling") == {(0, 0): s(7)}
    # sums that cancel leave no zero entry, in both directions
    assert falling_convert({(2,): s(1), (1,): s(1)}, "to_power") == {(2,): s(1)}
    assert falling_convert({(2,): s(1), (1,): s(-1)}, "to_falling") == {(2,): s(1)}



@settings(max_examples=40)
@given(
    st.dictionaries(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=4),
        ),
        st.integers(min_value=-5, max_value=5).map(s),
        min_size=1,
        max_size=4,
    )
)
def test_falling_round_trip(poly):
    there = falling_convert(poly, "to_power")
    back = falling_convert(there, "to_falling")
    assert all(there.values()) and all(back.values())
    assert back == {k: v for k, v in poly.items() if v}


@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=4),
)
def test_falling_convert_against_sympy(e1, e2, e3):
    # an interior zero exponent is where a key-order slip would hide
    m1, m2, m3 = sympy.symbols("m1 m2 m3")
    converted = falling_convert({(e1, e2, e3): s(1)}, "to_power")
    ours = sympy.Integer(0)
    for (a, b, k), c in converted.items():
        ours += sympy.Rational(c.numerator, c.denominator) * m1**a * m2**b * m3**k
    theirs = sympy.expand(
        sympy.ff(m1, e1) * sympy.ff(m2, e2) * sympy.ff(m3, e3)
    )
    assert sympy.expand(ours - theirs) == 0


def test_extract_coeff_table_frozen_values():
    t1 = extract_coeff_table(1)
    assert t1.entries[(1, (2,))] == s("1/12")
    assert t1.entries[(0, (0, 0, 0))] == s(1)
    t2 = extract_coeff_table(2)
    assert t2.entries[(1, (0, 2))] == s("1/12")
    # u1^2/24 carries multiplicity 2!, inverting to 1/12
    assert t2.entries[(1, (1, 1))] == s("1/12")
    assert t2.entries[(0, (0, 0, 0, 0))] == s(1)


def test_table_entry_constraints():
    for d in range(-1, 6):
        table = extract_coeff_table(d)
        for (g, jets), c in table.entries.items():
            assert c
            assert tuple(sorted(jets)) == jets
            assert sum(jets) == 2 * g
            assert len(jets) == d + 2 - 2 * g >= 1


def test_predictor_values_are_fractions():
    """The phase is stripped once, in extract_coeff_table: the table, both
    bases and the closed form hold Fractions, never Q(i) scalars."""
    for d in range(-1, 9):
        table = extract_coeff_table(d)
        assert all(type(c) is Fraction for c in table.entries.values()), d
        for g in table.genera():
            sp = assemble_polynomial(d, g)
            values = [c for _, c in sp.falling + sp.power]
            values += _closed_form(sp.n, g).values()
            assert all(type(c) is Fraction for c in values), (d, g)


def test_assemble_d1_g1():
    sp = assemble_polynomial(1, 1)
    assert sp.n == 1
    assert dict(sp.falling) == {(2,): s("1/12")}
    assert dict(sp.power) == {(2,): s("1/12"), (1,): s("-1/12")}


def test_assemble_d2_g1():
    sp = assemble_polynomial(2, 1)
    assert dict(sp.falling) == {
        (2, 0): s("1/12"),
        (1, 1): s("1/12"),
        (0, 2): s("1/12"),
    }


def test_genus_zero_is_constant_one():
    for d in range(-1, 6):
        assert genus0_check(d)
        sp = assemble_polynomial(d, 0)
        assert dict(sp.falling) == {(0,) * (d + 2): s(1)}


def test_symmetry_and_degree():
    for d in range(-1, 6):
        for g in range(0, (d + 1) // 2 + 1):
            n = d + 2 - 2 * g
            if n < 1:
                continue
            sp = assemble_polynomial(d, g)
            falling = dict(sp.falling)
            for exps, c in falling.items():
                assert sum(exps) == 2 * g  # falling-homogeneous
                for perm in permutations(exps):
                    assert falling.get(perm) == c
            assert all(sum(e) <= 2 * g for e in dict(sp.power))


def test_round_trip_reassembles_density():
    for d in range(-1, 6):
        table = extract_coeff_table(d)
        assert reassemble_density(table) == wang_hamiltonian(d).density


def test_admissible_genus_range():
    import pytest

    with pytest.raises(ValueError):
        assemble_polynomial(0, 5)  # n = d+2-2g < 1
    with pytest.raises(ValueError):
        assemble_polynomial(2, -1)


def test_distinct_permutations_match_itertools():
    for items in [(), (0,), (1, 1), (0, 2, 0), (3, 1, 1, 0, 1), (2, 2, 0, 0, 1)]:
        got = list(_distinct_permutations(items))
        assert len(got) == len(set(got))
        assert set(got) == set(permutations(items))


def test_assembly_against_full_symmetrization():
    """The falling table is the symmetrization over all n! orderings."""
    for d in range(-1, 9):
        table = extract_coeff_table(d)
        for g in table.genera():
            if d + 2 - 2 * g < 1:
                continue
            expected = {}
            for jets, K in table.for_genus(g).items():
                for perm in set(permutations(jets)):
                    expected[perm] = expected.get(perm, 0) + K
            expected = {e: c for e, c in expected.items() if c}
            assert assemble_polynomial(d, g).falling_dict() == expected


def test_twelve_variables_within_budget():
    """(d, g) = (14, 2) has n = 12; walking 12! orderings per monomial took minutes."""
    wang_hamiltonian(14)
    start = time.perf_counter()
    sp = assemble_polynomial(14, 2)
    assert time.perf_counter() - start < 10
    assert sp.n == 12
    assert len(sp.falling) == 1365  # C(15, 4) exponent tuples of degree 4
    assert sp.falling_degrees() == {4}


def test_symmetry_check_within_budget_and_rejects_asymmetry():
    """is_symmetric checks adjacent swaps instead of every ordering of every key:
    (14, 3) took 18 s when each key walked its distinct orderings."""
    sp = assemble_polynomial(14, 3)  # n = 10, 8007 power-basis entries
    start = time.perf_counter()
    assert sp.is_symmetric()
    assert time.perf_counter() - start < 2
    power = sp.power_dict()
    key = next(e for e in power if len(set(e)) > 1)
    missing = dict(power)
    del missing[key]
    altered = dict(power)
    altered[key] = altered[key] + s(1)
    for poly in (missing, altered):
        broken = replace(sp, power=tuple(sorted(poly.items())))
        assert not broken.is_symmetric()


CLOSED_FORM_CASES = [(2, 1), (4, 1), (4, 2), (6, 2), (6, 3), (8, 3), (9, 2), (10, 4)]


def test_falling_table_is_the_closed_form():
    """The printed falling table is, coefficient for coefficient, the power
    expansion of [z^(2g)] S(sum a z) prod S(a_i z): the shape of the
    Buryak-Shadrin-Spitz-Zvonkine formula for psi-integrals over double
    ramification cycles."""
    for d, g in CLOSED_FORM_CASES:
        sp = assemble_polynomial(d, g)
        assert sp.falling_dict() == _closed_form(sp.n, g), (d, g)


def test_closed_form_needs_the_sum_factor():
    """Negative control: without S((a_1+...+a_n) z) the tables differ."""
    for d, g in CLOSED_FORM_CASES:
        sp = assemble_polynomial(d, g)
        assert sp.falling_dict() != _closed_form(sp.n, g, with_sum_factor=False)
