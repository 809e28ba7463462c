"""Hamiltonian densities and their structural identities."""

import hashlib
import json
import math
from fractions import Fraction

import sympy

from qkdv import (
    DiffPoly,
    FockVector,
    Scalar,
    apply_quantized,
    classical_density,
    classical_flow_rhs,
    dx,
    is_homogeneous,
    partial_u,
    partitions_of,
    s_partial_check,
    s_series,
    scale_substitute,
    to_functional,
    variational_derivative,
    wang_hamiltonian,
)
from qkdv import hierarchy
from qkdv.cache import density_path
from qkdv.diffpoly import to_json
from qkdv.hierarchy import _dr_series, _exp_series, clear_memory_memo
from qkdv.scalars import I

u = DiffPoly.u
MI = Scalar.of(0, -1)  # -i


def hterm(c, jets, h):
    return DiffPoly.term(c, tuple(sorted(jets.items())), hbar=h)


def test_s_series_low_coefficients():
    s = s_series(4)
    assert s.coeff(0) == DiffPoly.one()
    assert s.coeff(1) == u(0)
    assert s.coeff(2) == u(0, 2) / 2 + u(1) / 2
    assert s.coeff(3) == u(0, 3) / 6 + u(0) * u(1) / 2 + u(2) / 6
    assert s.coeff(4) == (
        u(0, 4) / 24
        + u(0, 2) * u(1) / 4
        + u(0) * u(2) / 6
        + u(1, 2) / 8
        + u(3) / 24
    )


def test_s_series_against_sympy_exponential():
    """S_k is the z^k coefficient of exp(sum_j u_j z^(j+1)/(j+1)!)."""
    kmax = 8
    z = sympy.Symbol("z")
    uj = sympy.symbols(f"v0:{kmax}")
    # exp of the sum is the product of the exponentials of its terms; each
    # factor is truncated where its powers pass z^kmax, and so is the product
    series = sympy.Integer(1)
    for j in range(kmax):
        x = uj[j] * z ** (j + 1) / sympy.factorial(j + 1)
        factor = sum(x**n / sympy.factorial(n) for n in range(kmax // (j + 1) + 1))
        product = sympy.expand(series * factor)
        series = sum(product.coeff(z, k) * z**k for k in range(kmax + 1))
    ours = s_series(kmax)
    for k in range(kmax + 1):
        expected = series.coeff(z, k)
        got = sympy.Integer(0)
        for mono, c in ours.coeff(k).terms():
            assert not c.im and mono.hbar == 0
            term = sympy.Rational(c.re)
            for j, e in mono.uexp:
                term *= uj[j] ** e
            got += term
        assert sympy.expand(got - expected) == 0, f"S_{k} disagrees"


def test_s_series_weight_and_support():
    s = s_series(7)
    for k in range(1, 8):
        f = s.coeff(k)
        # weight-homogeneous of weight k (grades are mixed by design)
        assert all(mono.weight() == k for mono, _ in f.terms())
        assert f.max_jet() <= k - 1
        assert f.max_hbar() == 0


def test_wang_low_hamiltonians_exactly():
    assert wang_hamiltonian(-1).density == u(0)
    assert wang_hamiltonian(0).density == u(0, 2) / 2
    assert wang_hamiltonian(1).density == u(0, 3) / 6 + hterm(
        MI / 12, {2: 1}, 1
    )
    assert wang_hamiltonian(2).density == (
        u(0, 4) / 24 + hterm(MI / 12, {0: 1, 2: 1}, 1) + hterm(MI / 24, {1: 2}, 1)
    )
    assert wang_hamiltonian(3).density == (
        u(0, 5) / 120
        + hterm(MI / 24, {0: 2, 2: 1}, 1)
        + hterm(MI / 24, {0: 1, 1: 2}, 1)
        + hterm(Scalar.of("-1/360"), {4: 1}, 2)
    )
    assert wang_hamiltonian(4).density == (
        u(0, 6) / 720
        + hterm(MI / 72, {0: 3, 2: 1}, 1)
        + hterm(MI / 48, {0: 2, 1: 2}, 1)
        + hterm(Scalar.of("-1/360"), {0: 1, 4: 1}, 2)
        + hterm(Scalar.of("-1/180"), {1: 1, 3: 1}, 2)
        + hterm(Scalar.of("-1/240"), {2: 2}, 2)
    )


def test_classical_limit_and_homogeneity():
    for d in range(-1, 7):
        rec = wang_hamiltonian(d)
        assert rec.d == d
        assert rec.density.hbar_coefficient(0) == classical_density(d)
        assert is_homogeneous(rec.density, 0, d + 2)


def test_classical_density_and_flow():
    for d in range(-1, 6):
        assert classical_density(d) == u(0, d + 2) / math.factorial(d + 2)
    assert classical_flow_rhs(0) == u(1)
    assert classical_flow_rhs(1) == u(0) * u(1)
    assert classical_flow_rhs(3) == u(0, 3) * u(1) / 6
    for n in range(5):
        assert classical_flow_rhs(n) == dx(
            variational_derivative(classical_density(n))
        )


def test_first_functional_is_classical():
    rec = wang_hamiltonian(1)
    assert rec.functional == to_functional(u(0, 3) / 6)
    # equivalently: the hbar part of the density is a total derivative
    assert variational_derivative(
        rec.density - u(0, 3) / 6
    ).is_zero()


def failed_checks():
    from qkdv import verify

    return [(r.name, r.detail) for r in verify.run_suite("quick").results if not r.passed]


def test_verify_fails_closed_form_expansion_on_a_wrong_frozen_h1(monkeypatch, tmp_cache):
    # the frozen value without its hbar term: H_1 itself passes every other check
    monkeypatch.setattr("qkdv.verify.known_first_density", lambda: u(0, 3) / 6)
    assert failed_checks() == [
        ("closed-form-expansion", "AssertionError: H_1 differs from its frozen value")
    ]


def test_verify_fails_first_hamiltonian_on_a_wrong_h1_functional(monkeypatch, tmp_cache):
    # a record of H_1 with the right density and the functional of u^3/3
    wrong = wang_hamiltonian(1)._replace(functional=to_functional(u(0, 3) / 3))
    monkeypatch.setattr(
        "qkdv.verify.wang_hamiltonian", lambda d: wrong if d == 1 else wang_hamiltonian(d)
    )
    assert failed_checks() == [
        ("first-hamiltonian", "AssertionError: H_1 functional differs from u^3/6")
    ]


def test_translation_flow():
    h0 = wang_hamiltonian(0).density
    assert dx(variational_derivative(h0)) == u(1)


def test_vder_recursion_direct_and_checked():
    from qkdv import check_vder_recursion

    for d in range(0, 6):
        assert check_vder_recursion(d)
    # spot-check the density-level identity itself
    for d in (1, 2, 3, 4):
        assert variational_derivative(
            wang_hamiltonian(d).density
        ) == wang_hamiltonian(d - 1).density


def test_string_equation_in_u0():
    """dH_d/du_0 = H_(d-1) exactly, the string equation, for d = 0..16."""
    for d in range(17):
        assert partial_u(wang_hamiltonian(d).density, 0) == wang_hamiltonian(
            d - 1
        ).density, d


def test_string_equation_rejects_a_forgery_the_recursion_accepts():
    """H_2 + (-i/7)*hbar*dx(u*u1), the forged cache entry that
    test_cli.py::test_forged_entry_with_a_total_derivative_added_is_trusted
    shows is trusted: delta/delta u kills the total derivative, so the
    variational recursion holds, but d/du_0 of dx(u*u1) is u2."""
    true, lower = wang_hamiltonian(2).density, wang_hamiltonian(1).density
    forged = true + DiffPoly.hbar() * dx(u(0) * u(1)) * Scalar.of(0, "-1/7")
    assert variational_derivative(forged) == lower
    assert partial_u(true, 0) == lower
    assert partial_u(forged, 0) - lower == DiffPoly.hbar() * u(2) * Scalar.of(0, "-1/7")


def test_s_partial_pattern():
    s = s_series(7)
    for d in range(0, 6):
        for sidx in range(0, d + 3):
            assert s_partial_check(d, sidx)
    # closed form: dS_(d+1)/du_s = S_(d-s)/(s+1)!
    assert partial_u(s.coeff(3), 0) == s.coeff(2)
    assert partial_u(s.coeff(3), 1) == s.coeff(1) / 2
    assert partial_u(s.coeff(3), 5).is_zero()


def test_recursion_check_expands_each_series_once(monkeypatch):
    """verify's recursion check tests the series partials for every
    d <= dmax and s <= d + 1 on one expansion of the S-series through
    z^(dmax+1), not one per d or per s."""
    from qkdv import verify

    for level, dmax in (("quick", 3), ("full", 5)):
        for d in range(-1, dmax + 1):
            wang_hamiltonian(d)  # the densities come from the memo
        series, expansions = [], []

        def counted_series(kmax):
            series.append(kmax)
            return s_series(kmax)

        def counted(*args):
            expansions.append(args[0])
            return _exp_series(*args)

        monkeypatch.setattr(verify, "s_series", counted_series)
        monkeypatch.setattr(hierarchy, "_exp_series", counted)
        verify._check_recursions(verify._LEVELS[level])
        monkeypatch.undo()
        assert series == expansions == [dmax + 1], level


def test_one_series_has_the_coefficients_of_every_shorter_one():
    # _exp_series divides its lcm back out, so where it stops does not matter
    longest = s_series(6)
    for kmax in range(6):
        assert s_series(kmax).coeffs == longest.coeffs[: kmax + 1]


def test_cache_round_trip(tmp_cache):
    clear_memory_memo()
    rec = wang_hamiltonian(3)
    path = density_path(3)
    assert path == tmp_cache / "wang" / "H_3.json"
    assert path.exists()
    doc = json.loads(path.read_text())
    assert doc["d"] == 3 and "engine" in doc and "terms" in doc
    clear_memory_memo()
    again = wang_hamiltonian(3)
    assert again.density == rec.density
    # deleting the file only costs recomputation
    path.unlink()
    clear_memory_memo()
    fresh = wang_hamiltonian(3)
    assert fresh.density == rec.density


# -- Wang's densities against scale(G_(d+2)), the trivial-CohFT series --------
# scale(G_(d+2)) is not the Buryak-Rossi DR density: it fails the DR
# recursion.  These tests state what holds for it: it differs from H_d by a
# total derivative.


def wang_literal(d):
    """Wang's definition, term by term: a dx ladder over the S-series."""
    series = s_series(d + 2)
    acc = DiffPoly.zero()
    for k in range(d + 2):
        g = series.coeff(k + 1)
        for _ in range(d + 1 - k):
            g = dx(g)
        acc = acc + g * (-1) ** (d + 1 - k) / math.factorial(d - k + 2)
    return scale_substitute(acc)


def scaled_g_density(d, base=4, unit=MI):
    """scale(G_(d+2)), G(z) = exp(sum_k u_(2k) z^(2k+1) / (base^k (2k+1)!)).

    The scaling sends u_(2k) to (unit*hbar)^k u_(2k).  Base 4 and unit -i
    give the series the densities are expanded from; the result is
    scale(G_(d+2)), not the Buryak-Rossi DR density.
    """
    arg = {}
    for k in range((d + 3) // 2):
        arg[2 * k + 1] = (2 * k, Fraction(1, base**k * math.factorial(2 * k + 1)))
    lcm, f = _exp_series(d + 2, arg)
    den = math.factorial(d + 2) * lcm ** (d + 2)
    out = DiffPoly.zero()
    for uexp, c in f[d + 2].items():
        half = sum(s * e for s, e in uexp) // 2
        out = out + DiffPoly.term(Fraction(c, den) * unit**half, uexp, half)
    return out


def test_production_density_is_wangs_literal_formula():
    for d in range(-1, 13):
        assert wang_hamiltonian(d).density == wang_literal(d), f"H_{d}"


# sha256 of to_json(H_d), frozen from the Q(i) expansion this one replaced
FROZEN_DENSITY_SHA256 = {
    13: "0d3c46d9fb14dd28fa9b3ac5c9301346e5f6ef01149cd190bd9cd585019ba0f4",
    14: "91de39ec9109cb91d9757e83b6ab6fe2b9fa085914e77c7809d9f37ea59f2fc4",
    15: "135f5ab890af0b6a33e942b2654251ab3dd0d44cd190ef601065e1bd458699c1",
    16: "d2b14b99b02d13c982fef01ca8a7e2c46fa087c1d802f5627716406eafc954a4",
    17: "3eb478bd064022733826715fb995fff4a1f3d9c35714a110cc7e622deab57616",
    18: "69194f78e5b95b810fda5c9d359b34e36190e618cd60ed4f54fd1bfb7b258b15",
    19: "e0a9ff2a735b2264b720979083a51beeede9057d68a664a59abba157db1d83f0",
    20: "db4688d7a751ffb748960a2730d108291134bd0731cc8b56fc260ce4d7bde66d",
    21: "cccac7c68b1b88e389e2e9f05fef1135e679a4e76102f22335ff5757199768a0",
    22: "c8aa98d5f98f272b930a4cf75f91291e7b50cb0b42647f96c6a796ea902b699b",
}


def test_densities_beyond_the_literal_check_keep_their_bytes(tmp_cache):
    clear_memory_memo()
    for d, digest in FROZEN_DENSITY_SHA256.items():
        text = to_json(wang_hamiltonian(d).density)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, f"H_{d}"
    clear_memory_memo()


def test_expansion_is_integral_until_one_division(monkeypatch):
    for n in range(25):
        lcm, f = _dr_series(n)
        assert type(lcm) is int
        assert all(type(c) is int for g in f for c in g.values())
    expected = {d: wang_hamiltonian(d).density for d in range(-1, 19)}
    wrapped, scaled = [], []
    as_diffpoly, substitute = hierarchy._as_diffpoly, hierarchy.scale_substitute
    monkeypatch.setattr(
        hierarchy,
        "_as_diffpoly",
        lambda t, den: wrapped.append((t, den)) or as_diffpoly(t, den),
    )
    monkeypatch.setattr(
        hierarchy, "scale_substitute", lambda f: scaled.append(f) or substitute(f)
    )
    for d, density in expected.items():
        assert hierarchy._expand_density(d) == density
    assert len(wrapped) == len(scaled) == 20
    # the Horner sum reaches the one division as ints over an int
    assert all(type(den) is int for _, den in wrapped)
    assert all(type(c) is int for t, _ in wrapped for c in t.values())
    assert [sum(map(bool, t.values())) for t, _ in wrapped] == list(map(len, scaled))
    assert all(not c.im for f in scaled for _, c in f.terms())


def test_dr_density_differs_by_a_total_derivative():
    assert scaled_g_density(-1) == wang_hamiltonian(-1).density
    assert scaled_g_density(0) == wang_hamiltonian(0).density
    assert scaled_g_density(2) == u(0, 4) / 24 + hterm(MI / 24, {0: 1, 2: 1}, 1)
    for d in range(1, 13):
        density = wang_hamiltonian(d).density
        assert scaled_g_density(d) != density
        assert to_functional(scaled_g_density(d)) == to_functional(density), f"d={d}"


def test_dr_density_has_the_same_fock_operator():
    for d in (4, 6):
        dr, wang = scaled_g_density(d), wang_hamiltonian(d).density
        for m in range(7):
            for lam in partitions_of(m):
                v = FockVector.basis(lam)
                assert apply_quantized(dr, v) == apply_quantized(wang, v)


def test_dr_negative_controls_differ_in_functional():
    for d in range(2, 13):
        target = wang_hamiltonian(d).functional
        assert to_functional(scaled_g_density(d, unit=I)) != target, f"eps^2 = +i hbar, d={d}"
        assert to_functional(scaled_g_density(d, base=2)) != target, f"2^k, d={d}"
