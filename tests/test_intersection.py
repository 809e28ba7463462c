"""Predicted intersection polynomials and the coefficient inversion."""

import math
import time
from fractions import Fraction
from itertools import permutations, product

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdv import (
    assemble_polynomial,
    extract_coeff_table,
    falling_convert,
    genus0_check,
    reassemble_density,
    wang_hamiltonian,
)
from qkdv import intersection
from qkdv.intersection import _closed_form, _stab, orbit_tables, orderings


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


def _single_orbit_orderings(items):
    """The orderings the walk yields for the one-orbit table of a multiset."""
    return [p for p, _ in orderings({tuple(sorted(items)): s(1)})]


def test_distinct_permutations_match_itertools():
    for items in [(), (0,), (1, 1), (0, 2, 0), (3, 1, 1, 0, 1), (2, 2, 0, 0, 1)]:
        got = _single_orbit_orderings(items)
        assert len(got) == len(set(got))
        assert set(got) == set(permutations(items))


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=7).map(tuple))
@example(())
@example((2, 0, 1, 0))
def test_distinct_permutations_ascending(items):
    """The walk lists each distinct ordering of one orbit once, ascending,
    whatever order the multiset comes in."""
    assert _single_orbit_orderings(items) == sorted(set(permutations(items)))


@st.composite
def orbit_tables_of_mixed_degree(draw):
    """Sorted keys of one length n <= 4, entries 0..3, nonzero coefficients."""
    n = draw(st.integers(min_value=1, max_value=4))
    key = st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)
    coeff = st.integers(min_value=-5, max_value=5).filter(bool).map(s)
    return draw(st.dictionaries(key.map(sorted).map(tuple), coeff, max_size=8))


@given(orbit_tables_of_mixed_degree())
@example({})
@example({(0, 0, 3): s(1), (1, 1, 1): s(-2), (0, 1, 1): s(3, 2), (0, 0, 0): s(5)})
def test_orderings_walk_lists_each_orbit_ascending(table):
    """The bounded-degree walk yields each distinct ordering of each orbit
    once, ascending, whatever degrees the orbits have."""
    assert list(orderings(table)) == sorted(
        (p, c) for key, c in table.items() for p in set(permutations(key))
    )


def test_intersection_check_assembles_each_stratum_once(monkeypatch):
    """verify's intersection check tests genus 0 on the g = 0 polynomial its
    loop builds, not on a second one: one assembly per (d, g) with n >= 1,
    and one table extraction per d besides those the assemblies make."""
    from qkdv import verify

    for level, assembled, extracted in (("quick", 9, 14), ("full", 16, 23)):
        calls = {"assemble": 0, "extract": 0}

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        # verify and intersection each look both up in their own module
        for name, fn in (("assemble", assemble_polynomial),
                         ("extract", extract_coeff_table)):
            for module in (verify, intersection):
                monkeypatch.setattr(module, fn.__name__, counting(name, fn))
        verify._check_intersection(verify._LEVELS[level])
        monkeypatch.undo()
        assert calls == {"assemble": assembled, "extract": extracted}, level


# every (d, g) with d <= 12 and 1 <= n <= 8
FOLD_CASES = [
    (d, g) for d in range(-1, 13) for g in range(7) if 1 <= d + 2 - 2 * g <= 8
]


def test_orbit_fold_equals_the_unfolded_transform():
    """The power table, converted once per orbit and spread over orderings,
    equals the per-monomial Stirling transform of the printed falling table."""
    for d, g in FOLD_CASES:
        sp = assemble_polynomial(d, g)
        assert sp.power_dict() == falling_convert(sp.falling_dict(), "to_power"), (d, g)


def test_orderings_ascend_and_spread_each_orbit():
    """Both bases come out of the walk strictly ascending in key,
    with n!/stab(t) entries per orbit t of their table: the order a sort of
    the assembled dicts would give."""
    for d in range(-1, 13):
        for g in range(0, (d + 1) // 2 + 1):
            if d + 2 - 2 * g < 1:
                continue
            sp = assemble_polynomial(d, g)
            n, falling, power = orbit_tables(d, g)
            assert n == sp.n
            for terms, orbits, as_dict in (
                (sp.falling, falling, sp.falling_dict()),
                (sp.power, power, sp.power_dict()),
            ):
                keys = [exps for exps, _ in terms]
                assert all(a < b for a, b in zip(keys, keys[1:])), (d, g)
                assert len(terms) == sum(
                    math.factorial(n) // _stab(t) for t in orbits
                ), (d, g)
                assert terms == tuple(sorted(as_dict.items())), (d, g)


def test_orbit_fold_needs_the_stabilizer_weights(monkeypatch):
    """Negative control: with stab(t) = 1 some power table is wrong."""
    monkeypatch.setattr(intersection, "_stab", lambda t: 1)
    assert any(
        assemble_polynomial(d, g).power_dict()
        != falling_convert(assemble_polynomial(d, g).falling_dict(), "to_power")
        for d, g in FOLD_CASES
    )


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
        broken = sp._replace(power=tuple(sorted(poly.items())))
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

    def s(k):
        return Fraction(1, 4**k * math.factorial(2 * k + 1))

    for d, g in CLOSED_FORM_CASES:
        sp = assemble_polynomial(d, g)
        # [z^(2g)] prod S(a_i z): a_i^(2 k_i) with k_1 + ... + k_n = g
        without = {
            tuple(2 * k for k in ks): math.prod(map(s, ks))
            for ks in product(range(g + 1), repeat=sp.n)
            if sum(ks) == g
        }
        assert sp.falling_dict() != without
