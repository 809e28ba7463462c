"""Rebuilding Hamiltonians from commutation constraints alone."""

import json

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


def test_underdetermined_at_tiny_momentum():
    with pytest.raises(UnderdeterminedError):
        reconstruct(2, 1, mmax=1)


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


@pytest.fixture
def wrong_first_hamiltonian(monkeypatch):
    """The solver sees H_1 + u1^2 as the first Hamiltonian, with no solve memo."""
    true = qkdv.reconstruction.wang_hamiltonian

    def substituted(d):
        record = true(d)
        if d == 1:
            record = record._replace(density=record.density + u(1, 2))
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
