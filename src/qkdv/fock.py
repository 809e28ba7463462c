r"""Free-boson realization of the quantum bracket, sector by sector.

The layer is three modules, each compiled on its own so that none of them
needs more memory to compile than the modules every command compiles before
it (``cli``, ``cache``, ``diffpoly``, ``hierarchy``):

- ``fockspace``: the states and coefficients, :class:`Partition`,
  :func:`partitions_of`, :class:`SectorScalar` and :class:`FockVector`;
- ``fockkernel``: the integer kernel, how a density monomial acts on a
  basis state and the memos it keeps;
- this module, the public face: the actions :func:`apply_quantized`,
  :func:`commutator_apply` and :func:`single_contraction_apply`, the checks
  :func:`check_commute` and :func:`classical_consistency` with their errors
  and reports, and :func:`clear_fock_caches`.  It re-exports the types and
  the kernel's memos ``_split_apply``, ``_apply_to_basis`` and
  ``_tracked_single``.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from . import fockkernel, fockspace
from .diffpoly import DiffPoly
# perfbench/traced_job.py reads the hit counts of _split_apply,
# _apply_to_basis and _tracked_single from this module
from .fockkernel import (
    _act,
    _apply_to_basis,
    _cross_once,
    _integral,
    _minus,
    _realize,
    _split_apply,
    _tracked_single,
    _vector_rows,
)
# Partition and SectorScalar are re-exported as part of this module's API
from .fockspace import FockVector, Partition, SectorScalar, partitions_of
from .functionals import poisson_density
from .hierarchy import wang_hamiltonian


class CommutatorNonzero(Exception):
    """Two quantized densities failed to commute on a checked sector."""

    def __init__(self, d1, d2, partition, entry, coefficient):
        self.d1 = d1
        self.d2 = d2
        self.partition = partition
        self.entry = entry
        self.coefficient = coefficient
        super().__init__(
            f"[H_{d1}, H_{d2}] nonzero on |{partition}>: "
            f"coefficient {coefficient} at |{entry}>"
        )

    def witness_dict(self) -> dict:
        return {
            "d1": self.d1,
            "d2": self.d2,
            "partition": list(self.partition.parts),
            "entry": list(self.entry.parts),
            "coefficient": str(self.coefficient),
        }


class MismatchError(Exception):
    """Order-hbar commutator disagreed with the symbolic Poisson bracket."""

    def __init__(self, f, g, partition, lhs, rhs):
        self.f = f
        self.g = g
        self.partition = partition
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"order-hbar mismatch on |{partition}> for f={f}, g={g}: "
            f"commutator gives {lhs}, bracket gives {rhs}"
        )

    def witness_dict(self) -> dict:
        return {
            "f": str(self.f),
            "g": str(self.g),
            "partition": list(self.partition.parts),
            "commutator": str(self.lhs),
            "bracket": str(self.rhs),
        }


def _partitions_upto(mmax: int):
    """Every partition of momentum <= mmax, by momentum; ValueError at once
    for a negative mmax, which would check nothing."""
    if mmax < 0:
        raise ValueError("mmax must be >= 0")
    return itertools.chain.from_iterable(map(partitions_of, range(mmax + 1)))


def apply_quantized(f: DiffPoly, v: FockVector) -> FockVector:
    """Act with the quantization of the density f on a Fock vector."""
    (d_v, vs), (d_f, fs) = _vector_rows(v), _integral(f)
    return _realize([(q + r, _act(f, q, vs[r])) for q in fs for r in vs], d_f * d_v)


def commutator_apply(f: DiffPoly, g: DiffPoly, v: FockVector) -> FockVector:
    """Apply the commutator of the quantizations of f and g."""
    (d_v, vs), (d_f, fs), (d_g, gs) = _vector_rows(v), _integral(f), _integral(g)
    sums = []
    for q, r, s in itertools.product(fs, gs, vs):
        fg = _act(f, q, _act(g, r, vs[s]).items())
        gf = _act(g, r, _act(f, q, vs[s]).items())
        sums.append((q + r + s, _minus(fg, gf)))
    return _realize(sums, d_f * d_g * d_v)


def single_contraction_apply(
    f: DiffPoly, g: DiffPoly, lam: Partition
) -> FockVector:
    """The single-pairing part of the commutator, applied to a basis state.

    Ordering the product of two quantized densities produces one mode
    pairing per power of hbar beyond the state contractions; the terms with
    no pairing cancel between the two orders.  This isolates the terms with
    exactly one, which carry the entire first-order content of the bracket.
    """
    (d_f, fs), (d_g, gs), nu = _integral(f), _integral(g), lam.parts
    cross = [
        (q + r, _minus(_cross_once(f, q, g, r, nu), _cross_once(g, r, f, q, nu)))
        for q, r in itertools.product(fs, gs)
    ]
    return _realize(cross, d_f * d_g)


PairStatus = namedtuple("PairStatus", "d1 d2 mmax status")


class CommuteReport(namedtuple(
    "CommuteReport", "pairs witness sectors_checked max_intermediate_dimension"
)):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        out = self._asdict()
        out["pairs"] = [pair._asdict() for pair in self.pairs]
        return out


def check_commute(d1: int, d2: int, mmax: int) -> CommuteReport:
    """Verify [H_d1, H_d2] = 0 on every partition of momentum <= mmax.

    Raises :class:`CommutatorNonzero` with a witness on the first failure,
    and ValueError for a negative mmax before any density is loaded.
    """
    basis = _partitions_upto(mmax)
    f = wang_hamiltonian(d1).density
    g = wang_hamiltonian(d2).density
    (d_f, fs), (d_g, gs) = _integral(f), _integral(g)
    max_dim = 0
    for lam in basis:
        fv = {q: _apply_to_basis(f, q, lam.parts) for q in fs}
        gv = {r: _apply_to_basis(g, r, lam.parts) for r in gs}
        # states, not (state, tau, p0) keys, over every part
        states = ({k[0] for rows in v.values() for k, _ in rows} for v in (fv, gv))
        max_dim = max(max_dim, *map(len, states))
        # both orders carry the scale D_f * D_g, so their rows compare as
        # ints; parts q + r and q + r + 2 may cancel, so their sum decides
        diff = [
            (q + r, _minus(_act(f, q, gv[r]), _act(g, r, fv[q])))
            for q, r in itertools.product(fs, gs)
        ]
        w = _realize(diff, d_f * d_g)
        if w:
            mu, amp = w.terms_sorted()[0]
            raise CommutatorNonzero(d1, d2, lam, mu, amp)
    return CommuteReport(
        pairs=[PairStatus(d1, d2, mmax, "pass")],
        witness=None,
        sectors_checked=list(range(mmax + 1)),
        max_intermediate_dimension=max_dim,
    )


ConsistencyReport = namedtuple("ConsistencyReport", "pairs witness")


def classical_consistency(
    f: DiffPoly, g: DiffPoly, mmax: int
) -> ConsistencyReport:
    """Check the leading commutator term against the symbolic Poisson bracket.

    For hbar-free densities f and g, the single-pairing part of [f^, g^]
    applied to each basis state of momentum <= mmax must equal hbar times
    the quantization of the Poisson density applied to the same state: the
    two mode brackets differ by exactly one factor of hbar, and ordering
    the operator product resolves one pairing at a time.  A wrong sign or
    scale anywhere in the mode conventions makes this fail loudly.
    """
    basis = _partitions_upto(mmax)
    if f.max_hbar() or g.max_hbar():
        raise ValueError("classical consistency needs hbar-free densities")
    # hbar is central, so hbar times the bracket's operator is that of hbar * p
    p = poisson_density(f, g) * DiffPoly.hbar()
    for lam in basis:
        lhs = single_contraction_apply(f, g, lam)
        rhs = apply_quantized(p, FockVector.basis(lam))
        if lhs != rhs:
            raise MismatchError(f, g, lam, lhs, rhs)
    return ConsistencyReport(
        pairs=[{"f": str(f), "g": str(g), "mmax": mmax, "status": "pass"}],
        witness=None,
    )


def clear_fock_caches() -> None:
    """Reset every memo of the layer: each lru_cache among the globals of
    ``fockspace``, ``fockkernel`` and this module."""
    for names in (vars(fockspace), vars(fockkernel), globals()):
        for memo in names.values():
            if hasattr(memo, "cache_clear"):
                memo.cache_clear()
