"""Rebuilding Hamiltonians from commutation constraints alone."""

import hashlib
import json
from fractions import Fraction

import pytest

import qkdv.reconstruction
from qkdv import (
    DiffPoly,
    FockVector,
    InconsistentError,
    Scalar,
    UnderdeterminedError,
    build_ansatz,
    commutator_apply,
    compare_with_wang,
    partitions_of,
    reconstruct,
    reconstruct_with_certificate,
    to_functional,
    wang_hamiltonian,
)
from qkdv.cli import main

u = DiffPoly.u


def test_ansatz_shapes():
    a = build_ansatz(2, 1)
    assert a.classical == u(0, 4) / 24
    assert [len(b) for b in a.blocks] == [1]
    assert a.blocks[0][0] == u(1, 2)
    assert [len(b) for b in build_ansatz(1, 1).blocks] == [0]
    assert [len(b) for b in build_ansatz(-1, 1).blocks] == [0]
    assert [len(b) for b in build_ansatz(3, 2).blocks] == [1, 0]
    assert [len(b) for b in build_ansatz(4, 2).blocks] == [1, 1]


def test_reconstruct_d2_exact_value():
    q = reconstruct(2, 1, mmax=5)
    expected = to_functional(
        u(0, 4) / 24 + DiffPoly.term(Scalar.of(0, "1/24"), ((1, 2),), hbar=1)
    )
    assert q == expected
    assert q == wang_hamiltonian(2).functional


def test_reconstruct_degenerate_cases():
    assert reconstruct(1, 2) == to_functional(u(0, 3) / 6)
    assert reconstruct(-1, 1) == to_functional(u(0))
    assert reconstruct(0, 1) == to_functional(u(0, 2) / 2)


@pytest.mark.parametrize("d,G", [(1, 2), (2, 1), (3, 1)])
def test_compare_with_wang(d, G):
    assert compare_with_wang(d, G)


def test_certificate_contents():
    q, cert = reconstruct_with_certificate(2, 1)
    # one solve is shared by every caller, so the certificate is frozen
    assert reconstruct_with_certificate(2, 1)[1] is cert
    with pytest.raises(AttributeError):
        cert.mmax_used = 0
    assert isinstance(cert.kernel_trace, tuple)
    assert isinstance(cert.verified_momenta, tuple)
    assert cert.d == 2 and cert.G == 1
    assert cert.ansatz_dimensions == {1: 1}
    assert cert.kernel_trace[-1][1] == 0
    # re-verification pushes at least two sectors past the solve
    assert max(cert.verified_momenta) >= cert.mmax_used + 2
    d = cert.to_json_dict()
    assert d["unique"] is True
    assert d["hbar_window"] == "all"
    assert d["ansatz_dimensions"] == {"1": 1}
    assert q == wang_hamiltonian(2).functional


# sha256 of json.dumps(certificate.to_json_dict(), sort_keys=True) for (4, 2),
# frozen while the kernel still enumerated every monomial of each density
CERTIFICATE_4_2_SHA256 = (
    "95f6011e8da843258ad5faabb37b9155aaee6d34bfc024ab10afad5d3be897cd"
)


def test_certificate_4_2_keeps_its_bytes():
    _, cert = reconstruct_with_certificate(4, 2)
    text = json.dumps(cert.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_4_2_SHA256


# the same digests for the first targets with two hbar blocks, frozen while
# the solve still split, negated and sorted its rows; (6, 2) is the first
# target with a 2-dimensional hbar^2 block and a truncated window (4)
CERTIFICATE_SHA256 = {
    (5, 2): "8c1379af2924c030f908d14b72f18ed7c71091b21daa56f5eafa5dad642fbef3",
    (6, 2): "81744900424b254f4a608b6f2b1731e5f71b7cb3e782f16dfad12b76a2be4275",
}


@pytest.mark.parametrize("d,G", sorted(CERTIFICATE_SHA256))
def test_certificate_keeps_its_bytes(d, G):
    _, cert = reconstruct_with_certificate(d, G)
    text = json.dumps(cert.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_SHA256[d, G]


def test_certificate_window_for_truncated_order():
    # H_4 carries a genuine hbar^2 block, so a G=1 ansatz is a truncation
    # and the constraints must be capped rather than imposed at all orders
    q, cert = reconstruct_with_certificate(4, 1)
    assert cert.hbar_window == 3
    assert cert.kernel_trace[-1][1] == 0
    assert q == to_functional(
        u(0, 6) / 720
        + DiffPoly.term(Scalar.of(0, "1/48"), ((0, 2), (1, 2)), hbar=1)
    )


def test_complete_ansatz_gets_full_window():
    for d, G in [(1, 2), (2, 1), (3, 1), (3, 2)]:
        _, cert = reconstruct_with_certificate(d, G)
        assert cert.hbar_window is None
        assert cert.to_json_dict()["hbar_window"] == "all"


def test_ansatz_is_complete_from_half_the_index_on():
    # every block beyond hbar^G is empty exactly when G >= d // 2: the least
    # complete G for d = -1..12 is 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6
    for d in range(-1, 13):
        for G in range(9):
            assert qkdv.reconstruction._ansatz_complete(d, G) == (
                G >= max(0, d // 2)
            ), (d, G)


def test_underdetermined_at_tiny_momentum():
    with pytest.raises(UnderdeterminedError) as info:
        reconstruct(2, 1, mmax=1)
    assert info.value.kernel_dim == 1


def test_negative_mmax_is_refused():
    # momenta <= -1 hold no state, so the certificate would check nothing
    with pytest.raises(ValueError):
        reconstruct_with_certificate(1, 2, -1)


def test_schedule_takes_a_second_step(monkeypatch):
    # every target measured collapses at its first bound, so a solve that
    # first reports one free direction is what drives the schedule on
    _, plain = reconstruct_with_certificate(2, 1)
    true = qkdv.reconstruction.solve_affine
    nullities = []

    def free_at_first(rows, ncols):
        particular, nullity = true(rows, ncols)
        nullities.append(nullity)
        return particular, 1 if len(nullities) == 1 else nullity

    qkdv.reconstruction._solve.cache_clear()
    monkeypatch.setattr(qkdv.reconstruction, "solve_affine", free_at_first)
    try:
        _, cert = reconstruct_with_certificate(2, 1)
    finally:
        qkdv.reconstruction._solve.cache_clear()
    assert nullities == [0, 0]
    assert cert.kernel_trace == ((5, 1), (6, 0))
    assert cert.mmax_used == 6 and cert.verified_momenta == tuple(range(9))
    assert cert.density == plain.density


def test_cross_integrability_of_reconstruction():
    """The reconstructed functional commutes with Hamiltonians it never saw.

    The solve only imposes commutation with the first nontrivial Hamiltonian;
    commutation with the others on small sectors is an independent outcome.
    """
    q = reconstruct(2, 1)
    for dprime in range(0, 4):
        h = wang_hamiltonian(dprime).density
        for m in range(6):
            for lam in partitions_of(m):
                out = commutator_apply(q.rep, h, FockVector.basis(lam))
                assert out.is_zero(), (dprime, lam)


def test_solution_stable_under_more_sectors():
    # handing the solver more data than it needs must not disturb the answer
    q5 = reconstruct(2, 1, mmax=5)
    q7 = reconstruct(2, 1, mmax=7)
    assert q5 == q7


def test_functional_rep_is_read_only():
    # memoized results share their functional, so a write would leak to later calls
    q = reconstruct(2, 1)
    before = str(q.rep)
    with pytest.raises(AttributeError):
        q.rep = DiffPoly.zero()
    with pytest.raises(AttributeError):
        wang_hamiltonian(2).functional.rep = DiffPoly.zero()
    assert str(reconstruct(2, 1).rep) == before != "0"
    assert wang_hamiltonian(2).functional.rep == wang_hamiltonian(2).density


def test_the_solve_is_over_the_rationals(monkeypatch):
    # every column and every entry is real in tau = i*hbar, so solve_affine
    # sees Fractions only, and the density it returns is still Wang's
    true = qkdv.reconstruction.solve_affine
    seen = []

    def rational_only(rows, ncols):
        seen.extend(type(x) for row in rows for x in row)
        return true(rows, ncols)

    qkdv.reconstruction._solve.cache_clear()
    monkeypatch.setattr(qkdv.reconstruction, "solve_affine", rational_only)
    try:
        assert compare_with_wang(4, 2)
    finally:
        qkdv.reconstruction._solve.cache_clear()
    assert seen and set(seen) == {Fraction}


@pytest.fixture(params=[u(1, 2), u(0) * u(1) * u(2)], ids=["u1^2", "u0*u1*u2"])
def wrong_first_hamiltonian(monkeypatch, request):
    """The solver sees H_1 plus a wrong term as the first Hamiltonian, with no
    solve memo: u1^2 is real in tau = i*hbar, u0*u1*u2 imaginary."""
    true = qkdv.reconstruction.wang_hamiltonian

    def substituted(d):
        record = true(d)
        if d == 1:
            record = record._replace(density=record.density + request.param)
        return record

    qkdv.reconstruction._solve.cache_clear()
    monkeypatch.setattr(qkdv.reconstruction, "wang_hamiltonian", substituted)
    yield
    qkdv.reconstruction._solve.cache_clear()


def test_inconsistent_system_is_reported(wrong_first_hamiltonian):
    with pytest.raises(InconsistentError) as info:
        reconstruct(2, 1)
    assert str(info.value) == "no solution for d=2, G=1 at momenta <= 5"


def test_failed_reverification_is_reported(wrong_first_hamiltonian):
    # no unknowns at (1, 2): the classical density alone is re-verified
    with pytest.raises(InconsistentError) as info:
        reconstruct(1, 2)
    assert str(info.value) == "re-verification failed for d=1, G=2 on |2>"


def test_cli_reports_inconsistency(wrong_first_hamiltonian, capsys):
    code = main(["reconstruct", "-d", "2", "-G", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc == {
        "status": "InconsistentError",
        "message": "no solution for d=2, G=1 at momenta <= 5",
    }
