"""Free-boson realization: oracle checks, integrability, calibration."""

import collections
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdv import (
    CommutatorNonzero,
    DiffPoly,
    FockVector,
    MismatchError,
    Partition,
    Scalar,
    SectorScalar,
    apply_quantized,
    check_commute,
    classical_consistency,
    classical_density,
    commutator_apply,
    dx,
    partitions_of,
    poisson_density,
    run_suite,
    wang_hamiltonian,
)
from qkdv import fock
from qkdv.fock import (
    _assignment_count,
    _split_apply,
    _tracked_single,
    clear_fock_caches,
    single_contraction_apply,
)
from qkdv.scalars import I, accumulate, as_scalar
from qkdv.verify import random_density

from conftest import diff_polys, hbar_free_polys, small_scalar, stores_no_zero

u = DiffPoly.u

partitions = st.builds(
    Partition.make, st.lists(st.integers(min_value=1, max_value=3), max_size=3)
)


def oracle_apply(f: DiffPoly, lam: Partition) -> FockVector:
    """Direct sum over ordered mode tuples; independent of the fast path.

    For each monomial c*hbar^a*prod u_{s_i}, sum over ordered integer tuples
    with zero total of c*hbar^a*prod (i*k)^{s_i} times the normal-ordered
    product of modes applied to |lam>.  All tuples are bounded by the state's
    momentum, so the triple loop below is finite.
    """
    out: dict[Partition, SectorScalar] = {}
    M = lam.momentum
    for mono, c in f.terms():
        jets: list[int] = []
        for j, e in mono.uexp:
            jets.extend([j] * e)
        for ks in itertools.product(range(-M, M + 1), repeat=len(jets)):
            if sum(ks):
                continue
            sym = as_scalar(c)
            for k, s in zip(ks, jets):
                sym = sym * (I * k) ** s
            if not sym:
                continue
            counts = collections.Counter(lam.parts)
            nann = nzero = 0
            created: list[int] = []
            dead = False
            for k in ks:
                if k > 0:
                    mult = counts.get(k, 0)
                    if not mult:
                        dead = True
                        break
                    sym = sym * (I * k * mult)
                    counts[k] -= 1
                    nann += 1
                elif k == 0:
                    nzero += 1
                else:
                    created.append(-k)
            if dead or not sym:
                continue
            rest = [kk for kk, n in counts.items() for _ in range(n)]
            mu = Partition.make(rest + created)
            entry = SectorScalar.monomial(sym, mono.hbar + nann, nzero)
            acc = out.get(mu)
            out[mu] = entry if acc is None else acc + entry
    return FockVector(out)


def _sector_vector(terms) -> FockVector:
    """((state, hbar, p0), Scalar) sums as a FockVector."""
    by_state: dict[Partition, dict] = {}
    for (state, h, p), c in accumulate(terms).items():
        by_state.setdefault(state, {})[h, p] = c
    return FockVector({s: SectorScalar(amps) for s, amps in by_state.items()})


def scalar_basis(f: DiffPoly, lam: Partition) -> FockVector:
    """f-hat |lam> in Q(i): one Scalar product per enumeration row, with the
    phase i^(J + a) of its jet weight J and its a annihilations."""
    return _sector_vector(
        (
            (Partition.make(kept + created), h + mono.hbar, p),
            I ** (mono.jet_weight() + h) * amp * c,
        )
        for mono, c in f.terms()
        for kept, created, (h, p), amp in _split_apply(mono.uexp, lam.parts)
    )


def scalar_apply(f: DiffPoly, v: FockVector) -> FockVector:
    """The per-state Q(i) path that the integer kernel over tau replaced.

    Each state's column is multiplied by its SectorScalar amplitude, so every
    amplitude product is a Gaussian-rational product and no common
    denominator appears anywhere.
    """
    out = FockVector()
    for lam, amp in v.terms():
        out = out + scalar_basis(f, lam).scale(amp)
    return out


def scalar_commutator(f: DiffPoly, g: DiffPoly, v: FockVector) -> FockVector:
    return scalar_apply(f, scalar_apply(g, v)) - scalar_apply(g, scalar_apply(f, v))


def scalar_single_contraction(
    f: DiffPoly, g: DiffPoly, lam: Partition
) -> FockVector:
    def cross_once(f, g):
        return _sector_vector(
            ((Partition(mu), hg + mono_g.hbar + mono_f.hbar + h, pg + p),
             I ** (mono_f.jet_weight() + h) * I ** (mono_g.jet_weight() + hg)
             * amp_f * amp_g * cg * cf)
            for mono_g, cg in g.terms()
            for kept, created, (hg, pg), amp_g in _split_apply(mono_g.uexp, lam.parts)
            if created
            for mono_f, cf in f.terms()
            for mu, (h, p), amp_f in _tracked_single(mono_f.uexp, kept, created)
        )

    return cross_once(f, g) - cross_once(g, f)


ORACLE_POLYS = [
    u(0, 3),
    u(1, 2),
    u(0) * u(2),
    u(0, 2) * u(1),
    u(4),
    u(1) * u(3),
    u(2, 2),
    u(0) * u(1) * u(2),
    DiffPoly.term(Scalar.of(0, "-1/12"), ((2, 1),), hbar=1),
    DiffPoly.term(3, ((0, 2),), hbar=2),
    wang_hamiltonian(1).density,
    wang_hamiltonian(2).density,
    # (1 + 2i) * i^3 = 2 - i: real and imaginary in tau, so both parts act
    DiffPoly.term(Scalar.of(1, 2), ((0, 1), (1, 1), (2, 1))),
]


@pytest.mark.parametrize("poly_index", range(len(ORACLE_POLYS)))
def test_apply_quantized_against_tuple_oracle(poly_index):
    f = ORACLE_POLYS[poly_index]
    for m in range(4):
        for lam in partitions_of(m):
            assert apply_quantized(f, FockVector.basis(lam)) == oracle_apply(
                f, lam
            ), f"disagrees on |{lam}>"


def test_apply_quantized_oracle_momentum_four():
    for f in (u(0, 3), u(1, 2), wang_hamiltonian(1).density):
        for lam in partitions_of(4):
            assert apply_quantized(f, FockVector.basis(lam)) == oracle_apply(
                f, lam
            )


def test_partition_type():
    lam = Partition.make([1, 3, 1])
    assert lam.parts == (3, 1, 1)
    assert lam.momentum == 5
    assert Partition.make(lam.parts + (2,)) == Partition.make([1, 1, 2, 3])
    with pytest.raises(ValueError):
        Partition.make([0, 1])
    assert [len(partitions_of(m)) for m in range(7)] == [1, 1, 2, 3, 5, 7, 11]


def test_partition_refuses_bools():
    for parts in ([True, 2], [2, False], [True]):
        with pytest.raises(ValueError):
            Partition.make(parts)


def test_sector_types_scale_by_fractions():
    half = Fraction(1, 2)
    expected = SectorScalar.monomial(Scalar.of("1/2"))
    assert SectorScalar.one() * half == expected == half * SectorScalar.one()
    lam = Partition.make([2, 1])
    assert FockVector.basis(lam).scale(half) == FockVector({lam: expected})
    assert FockVector.basis(lam).scale(half) == FockVector.basis(lam).scale(
        Scalar.of("1/2")
    )


def test_partitions_of_is_every_partition_descending():
    for m in range(9):
        every = {
            Partition.make(c)
            for n in range(m + 1)
            for c in itertools.combinations_with_replacement(range(1, m + 1), n)
            if sum(c) == m
        }
        assert partitions_of(m) == tuple(sorted(every, reverse=True))


def test_first_hamiltonian_on_small_states():
    h1 = wang_hamiltonian(1).density
    got = apply_quantized(h1, FockVector.vacuum())
    assert got.coefficient(Partition()) == SectorScalar.monomial(
        Scalar.of("1/6"), 0, 3
    )
    assert len(got) == 1
    one = Partition.make([1])
    got = apply_quantized(h1, FockVector.basis(one))
    expected = SectorScalar.monomial(Scalar.of("1/6"), 0, 3) + SectorScalar.monomial(
        Scalar.of(0, 1), 1, 1
    )
    assert got.coefficient(one) == expected
    assert len(got) == 1


def test_h0_is_diagonal_with_momentum_eigenvalue():
    h0 = wang_hamiltonian(0).density
    for m in range(6):
        for lam in partitions_of(m):
            got = apply_quantized(h0, FockVector.basis(lam))
            expected = SectorScalar.monomial(
                Scalar.of("1/2"), 0, 2
            ) + SectorScalar.monomial(Scalar.of(0, m), 1, 0)
            assert got.coefficient(lam) == expected
            assert len(got) == 1


def test_h_minus_one_is_the_zero_mode():
    hm = wang_hamiltonian(-1).density
    for lam in (Partition(), Partition.make([2, 1])):
        got = apply_quantized(hm, FockVector.basis(lam))
        assert got.coefficient(lam) == SectorScalar.monomial(1, 0, 1)
        assert len(got) == 1


def test_vacuum_leading_order_is_the_classical_symbol():
    for d in range(-1, 5):
        got = apply_quantized(wang_hamiltonian(d).density, FockVector.vacuum())
        lead = got.coefficient(Partition()).coefficient(0, d + 2)
        assert lead == classical_density(d).terms_sorted()[0][1]


@settings(max_examples=30)
@given(diff_polys, partitions)
def test_total_derivatives_quantize_to_zero(g, lam):
    assert apply_quantized(dx(g), FockVector.basis(lam)).is_zero()


@settings(max_examples=30)
@given(hbar_free_polys, partitions)
def test_momentum_conservation(f, lam):
    got = apply_quantized(f, FockVector.basis(lam))
    assert got.momenta() <= {lam.momentum}


@settings(max_examples=20)
@given(diff_polys, partitions, partitions)
def test_linearity_in_the_state(f, lam, mu):
    c = SectorScalar.monomial(Scalar.of(2, -3), 1, 0)
    v = FockVector.basis(lam).scale(c) + FockVector.basis(mu)
    assert apply_quantized(f, v) == apply_quantized(
        f, FockVector.basis(lam)
    ).scale(c) + apply_quantized(f, FockVector.basis(mu))


@settings(max_examples=15)
@given(hbar_free_polys, hbar_free_polys, partitions)
def test_commutator_antisymmetry(f, g, lam):
    v = FockVector.basis(lam)
    fg, gf = commutator_apply(f, g, v), commutator_apply(g, f, v)
    assert fg == -gf
    # sums that cancel store no zero state or amplitude
    assert stores_no_zero(fg) and len(fg + gf) == 0
    assert all((amp - amp).is_zero() for _, amp in fg.terms_sorted())


@settings(max_examples=15)
@given(diff_polys, partitions)
def test_zero_mode_is_central(g, lam):
    assert commutator_apply(u(0), g, FockVector.basis(lam)).is_zero()


def test_check_commute_pairs():
    rep = check_commute(1, 2, 4)
    d = rep.to_json_dict()
    assert d["witness"] is None
    assert d["pairs"] == [{"d1": 1, "d2": 2, "mmax": 4, "status": "pass"}]
    assert check_commute(-1, 3, 4).witness is None
    assert check_commute(0, 2, 5).witness is None


def test_negative_mmax_is_refused():
    # momenta <= -1 hold no state, so a report would check nothing
    with pytest.raises(ValueError):
        check_commute(1, 2, -1)
    with pytest.raises(ValueError):
        classical_consistency(u(0, 3), u(1, 2), -1)


def test_single_contraction_matches_poisson_bracket():
    """The one-pairing slice of the commutator is hbar times the bracket."""
    f, g = u(0, 3), u(1, 2)
    hbar = SectorScalar.monomial(1, 1, 0)
    p = poisson_density(f, g)
    for m in range(5):
        for lam in partitions_of(m):
            lhs = single_contraction_apply(f, g, lam)
            rhs = apply_quantized(p, FockVector.basis(lam)).scale(hbar)
            assert lhs == rhs
    # the check is not vacuous and it is direction-sensitive
    lam = Partition.make([2, 1])
    lhs = single_contraction_apply(f, g, lam)
    assert not lhs.is_zero()
    wrong = apply_quantized(
        poisson_density(g, f), FockVector.basis(lam)
    ).scale(hbar)
    assert lhs != wrong


def test_classical_consistency_hand_pairs():
    assert classical_consistency(u(0, 3) / 6, u(0, 4) / 24, 4).witness is None
    assert classical_consistency(u(0, 3), u(1, 2), 4).witness is None
    f = u(0) * u(1, 2)
    assert classical_consistency(f, f, 3).witness is None
    with pytest.raises(ValueError):
        classical_consistency(DiffPoly.term(1, ((0, 1),), hbar=1), u(0), 2)


def test_calibration_witness_for_a_wrong_bracket(monkeypatch):
    # a bracket off by a factor of two is caught on the first sector it reaches
    monkeypatch.setattr(
        "qkdv.fock.poisson_density", lambda f, g: poisson_density(f, g) * 2
    )
    with pytest.raises(MismatchError) as info:
        classical_consistency(u(0, 3), u(1, 2), 4)
    assert info.value.partition == Partition.make([2])
    assert list(info.value.witness_dict()) == [
        "f", "g", "partition", "commutator", "bracket",
    ]
    summary = run_suite("quick")
    assert [r.name for r in summary.results if not r.passed] == [
        "classical-calibration"
    ]


def test_classical_consistency_seeded_pairs():
    rng = random.Random(1723)
    for _ in range(4):
        f = random_density(rng)
        g = random_density(rng)
        assert classical_consistency(f, g, 3).witness is None


def test_commutator_order_hbar_matches_bracket_density():
    # order-hbar slice of [f^, g^] against the hbar-shifted bracket action
    f, g = u(0, 3), u(0) * u(1, 2)
    lam = Partition.make([2])
    p = poisson_density(f, g)
    lhs = commutator_apply(f, g, FockVector.basis(lam)).hbar_coefficient(2)
    rhs = (
        apply_quantized(p, FockVector.basis(lam))
        .scale(SectorScalar.monomial(1, 1, 0))
        .hbar_coefficient(2)
    )
    assert lhs == rhs


def test_functional_representatives_act_identically():
    # H_1's hbar-term is a total derivative, so it cannot act
    h1 = wang_hamiltonian(1).density
    for m in range(4):
        for lam in partitions_of(m):
            v = FockVector.basis(lam)
            assert apply_quantized(h1, v) == apply_quantized(u(0, 3) / 6, v)


def test_assignment_count_against_ordered_sum():
    """i^J times the integer count equals the sum over distinct orderings.

    Every jet-group shape with at most 3 groups and 4 slots, every mode
    multiset from -3..3.  The reference multiplies the symbols (i*v)^j slot
    by slot as Gaussian integers (re, im), which keeps it fast and exact.
    """

    def gauss(x: Scalar) -> tuple[int, int]:
        return int(x.re), int(x.im)

    symbol = {(v, j): gauss((I * v) ** j) for v in range(-3, 4) for j in range(4)}
    for ngroups in (1, 2, 3):
        for jets in itertools.combinations(range(4), ngroups):
            for caps in itertools.product(range(1, 5), repeat=ngroups):
                if sum(caps) > 4:
                    continue
                groups = tuple(zip(jets, caps))
                slots = [j for j, r in groups for _ in range(r)]
                phase = I ** sum(slots)
                for modes in itertools.combinations_with_replacement(
                    range(-3, 4), len(slots)
                ):
                    re = im = 0
                    for order in set(itertools.permutations(modes)):
                        a, b = 1, 0
                        for v, j in zip(order, slots):
                            c, d = symbol[v, j]
                            a, b = a * c - b * d, a * d + b * c
                        re, im = re + a, im + b
                    values = tuple(sorted(collections.Counter(modes).items()))
                    count = _assignment_count(groups, values)
                    assert phase * count == Scalar.of(re, im), (groups, values)


def test_cache_clearing_changes_nothing():
    h2 = wang_hamiltonian(2).density
    lam = Partition.make([2, 1, 1])
    before = apply_quantized(h2, FockVector.basis(lam))
    clear_fock_caches()
    assert apply_quantized(h2, FockVector.basis(lam)) == before


def test_constants_act_as_multiplication():
    """The normal form drops constant monomials, hbar powers included, so
    the kernel must act with them beside it."""
    f = DiffPoly.const(Scalar.of("2/3", 1)) + DiffPoly.hbar(2) * 5 + u(0) * u(2)
    for m in range(5):
        for lam in partitions_of(m):
            v = FockVector.basis(lam)
            assert apply_quantized(f, v) == oracle_apply(f, lam) == scalar_apply(f, v)
            assert apply_quantized(DiffPoly.const(3), v) == v.scale(3)


def test_clearing_empties_every_kernel_memo():
    """Every lru_cache among the module's globals, found by introspection,
    so a memo added later cannot be left out of the reset."""
    memos = {
        name: memo for name, memo in vars(fock).items()
        if callable(getattr(memo, "cache_info", None))
    }
    assert {"_split_apply", "_apply_to_basis", "_tracked_single"} <= set(memos)
    check_commute(1, 2, 3)
    classical_consistency(u(0, 3), u(0) * u(1, 2), 3)
    assert all(memo.cache_info().currsize for memo in memos.values())
    clear_fock_caches()
    assert {name: memo.cache_info().currsize for name, memo in memos.items()} == {
        name: 0 for name in memos
    }


# sha256 of json.dumps(check_commute(5, 6, 8).to_json_dict(), sort_keys=True),
# frozen while the kernel still enumerated every monomial of each density
COMMUTE_5_6_8_SHA256 = (
    "804309d97fa8e36bbcec0cb0152f3d0b611180a47ece07f112a067d25bc7e9c1"
)


def test_large_commute_report_keeps_its_bytes():
    text = json.dumps(check_commute(5, 6, 8).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == COMMUTE_5_6_8_SHA256


def test_kernel_matches_scalar_path_on_hamiltonians():
    """H_-1..H_6 on every state of momentum <= 6, against the Q(i) path.
    The commutator partner does not commute with them, so both sides are
    mostly nonzero, and its denominator 15 differs from theirs."""
    partner = u(0) * u(1, 2) / 5 + DiffPoly.term(
        Scalar.of(0, "1/3"), ((0, 1), (2, 1)), hbar=1
    )
    states = [lam for m in range(7) for lam in partitions_of(m)]
    nonzero = 0
    for d in range(-1, 7):
        h = wang_hamiltonian(d).density
        for lam in states:
            v = FockVector.basis(lam)
            assert apply_quantized(h, v) == scalar_apply(h, v), (d, lam)
            got = commutator_apply(h, partner, v)
            assert got == scalar_commutator(h, partner, v), (d, lam)
            assert single_contraction_apply(
                h, partner, lam
            ) == scalar_single_contraction(h, partner, lam), (d, lam)
            nonzero += not got.is_zero()
    assert nonzero > len(states)


_fractional = st.builds(lambda c: c * Scalar.of("1/3", "-1/7"), small_scalar)


@settings(max_examples=25)
@given(diff_polys, diff_polys, partitions, partitions, _fractional, _fractional)
def test_kernel_matches_scalar_path_on_mixed_denominators(f, g, lam, mu, a, b):
    """Arbitrary Q(i) densities on a two-state vector whose amplitudes carry
    hbar, p0 and a non-integer Gaussian factor, so D_v > 1."""
    v = FockVector.basis(lam).scale(SectorScalar.monomial(a, 1, 2)) + (
        FockVector.basis(mu).scale(SectorScalar.monomial(b, 0, 1))
    )
    assert apply_quantized(f, v) == scalar_apply(f, v)
    assert commutator_apply(f, g, v) == scalar_commutator(f, g, v)
    assert single_contraction_apply(f, g, lam) == scalar_single_contraction(
        f, g, lam
    )


def test_commutator_witness_with_mixed_denominators(monkeypatch):
    """A forged H_2 with a -1/7 coefficient: D_f = 12 for H_1 and D_g = 168,
    so the witness is exact only when it is divided by their product."""
    true = wang_hamiltonian

    def forged(d):
        record = true(d)
        if d != 2:
            return record
        extra = DiffPoly.term(Scalar.of(0, "-1/7"), ((1, 2),), hbar=1)
        return record._replace(density=record.density + extra)

    monkeypatch.setattr("qkdv.fock.wang_hamiltonian", forged)
    with pytest.raises(CommutatorNonzero) as info:
        check_commute(1, 2, 4)
    assert info.value.witness_dict() == {
        "d1": 1, "d2": 2, "partition": [2], "entry": [1, 1],
        "coefficient": "12/7*i*hbar^3",
    }


def test_commutator_witness_of_a_density_imaginary_in_tau(monkeypatch):
    """A forged H_2 + u0*u1*u2, whose added term is i^3 = -i times a real
    in tau = i*hbar: the commutator has parts with i-powers 1 and 3, and
    the witness needs them summed, not part 0 read alone."""
    true = wang_hamiltonian

    def forged(d):
        record = true(d)
        if d != 2:
            return record
        return record._replace(density=record.density + u(0) * u(1) * u(2))

    monkeypatch.setattr("qkdv.fock.wang_hamiltonian", forged)
    with pytest.raises(CommutatorNonzero) as info:
        check_commute(1, 2, 4)
    assert info.value.witness_dict() == {
        "d1": 1, "d2": 2, "partition": [2], "entry": [2],
        "coefficient": "12*hbar^3",
    }


def test_split_apply_has_one_row_per_key():
    """The untouched and created parts fix the annihilated multiset (hbar
    power) and the zero-mode count (p0 power), so the rows of one
    (monomial, state) pair need no grouping before they are realized."""
    for d in range(-1, 7):
        for mono, _ in wang_hamiltonian(d).density.terms():
            r = sum(e for _, e in mono.uexp)
            for m in range(6):
                for lam in partitions_of(m):
                    rows = _split_apply(mono.uexp, lam.parts)
                    keys = {(kept, created) for kept, created, _, _ in rows}
                    assert len(keys) == len(rows)
                    for kept, created, (h, p), amp in rows:
                        # plain descending parts tuples, no Partition
                        for parts in (kept, created):
                            assert type(parts) is tuple
                            assert list(parts) == sorted(parts, reverse=True)
                        # a nonzero int: the phase is applied where rows
                        # leave the kernel
                        assert type(amp) is int and amp
                        assert h == len(lam.parts) - len(kept)
                        assert p == r - h - len(created)
