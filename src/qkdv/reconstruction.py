"""Independent reconstruction of the Hamiltonians from commutation alone.

The ansatz for index d through order G is

    Q = u^{d+2}/(d+2)!  +  sum_{g=1..G} hbar^g (unknown combination of the
                            (grade 2g, weight d+2) functional basis)

and the defining constraint is that Q commute with the first nontrivial
Hamiltonian in the Fock realization.  Each Fock sector contributes exact
linear equations on the unknowns; the system is solved exactly over Q, and
uniqueness is certified by nullity zero: a zero-dimensional kernel.

When the weight grading rules out any block beyond hbar^G (the basis in
grade 2g', weight d+2 is empty for every g' > G), the commutator is
required to vanish identically on every tested state.  Otherwise the
ansatz is a genuine truncation and only the hbar^1 .. hbar^{G+2}
coefficients of the applied commutator are imposed.  That window is safe:
a block hbar^g contributes to the applied commutator only at hbar powers
g+2 and above, because each mode pairing carries one power of hbar and a
single operator-operator pairing with no state action is killed by
momentum conservation (the unpaired modes of one factor would have to be
creators summing to a positive total).  Truncated blocks therefore first
show up at power G+3, while every retained block is still constrained.

Sectors are added from momentum d + 2G + 1 up until the nullity reaches zero
at mmax_used; the solution is then re-verified on every momentum from 0 to
mmax_used + 2, the certificate's verified_momenta.  One table grows with
each new sector: a row per key (state, output state, hbar power, p0 power,
part), a column per unknown and a last column for the classical part, so
each row is an augmented row of A x + c = 0.  All is real in tau = i*hbar:
unknown j is (-i*hbar)^g times its representative, and a coefficient c at
hbar^h is c * (-i)^h, whose real and imaginary parts are parts 0 and 1.
The keys need only be distinct: the reduced row echelon form, and so the
solution, does not depend on the row order.  Each commutator is applied
once, when its state's sector is added.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .diffpoly import DiffPoly, phased, to_json_dict
from .fock import FockVector, _partitions_upto, commutator_apply, partitions_of
from .functionals import LocalFunctional, functional_basis, to_functional
from .hierarchy import classical_density, wang_hamiltonian
from .linalg import solve_affine
from .scalars import ONE

_SCHEDULE_SPAN = 8


class UnderdeterminedError(Exception):
    """The constraint system still has free directions at the given momenta."""

    def __init__(self, d, G, mmax, kernel_dim):
        self.d = d
        self.G = G
        self.mmax = mmax
        self.kernel_dim = kernel_dim
        super().__init__(
            f"reconstruction of d={d} through hbar^{G} is underdetermined at "
            f"momenta <= {mmax} (kernel dimension {kernel_dim})"
        )


class InconsistentError(Exception):
    """No ansatz coefficients satisfy the commutation constraints."""


class Ansatz(namedtuple("Ansatz", "d G classical blocks")):
    """The classical part of index d and one tuple of basis densities per hbar^g."""

    __slots__ = ()

    def dimensions(self) -> dict[int, int]:
        return {g + 1: len(block) for g, block in enumerate(self.blocks)}

    def unknown_densities(self) -> list[DiffPoly]:
        """One density per unknown: hbar^g times the basis representative."""
        out = []
        for g, block in enumerate(self.blocks, start=1):
            for rep in block:
                out.append(rep * DiffPoly.hbar(g))
        return out


def build_ansatz(d: int, G: int) -> Ansatz:
    classical = classical_density(d)
    if G < 0:
        raise ValueError("G must be >= 0")
    blocks = tuple(
        tuple(rep.rep for rep in functional_basis(2 * g, d + 2))
        for g in range(1, G + 1)
    )
    return Ansatz(d, G, classical, blocks)


class ReconstructionCertificate(namedtuple(
    "ReconstructionCertificate",
    "d G ansatz_dimensions mmax_used kernel_trace verified_momenta density hbar_window",
)):
    """Immutable, because every caller of one solve shares this object."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "G": self.G,
            "ansatz_dimensions": {
                str(g): dim for g, dim in sorted(self.ansatz_dimensions.items())
            },
            "mmax_used": self.mmax_used,
            "kernel_trace": [
                {"mmax": m, "kernel_dim": k} for m, k in self.kernel_trace
            ],
            "unique": True,
            "verified_momenta": list(self.verified_momenta),
            "hbar_window": "all" if self.hbar_window is None else self.hbar_window,
            "density": to_json_dict(self.density),
        }


def _ansatz_complete(d: int, G: int) -> bool:
    """True when no functional block beyond hbar^G exists at this weight; a
    block needs d + 2 - 2g >= 1 factors, so none lies past g = d + 1."""
    return not any(functional_basis(2 * g, d + 2) for g in range(G + 1, d + 2))


def _window_terms(h1: DiffPoly, density: DiffPoly, lam, hmax: int | None):
    """The (key, rational) pairs of [density, H_1] |lam> in tau, within the
    hbar window; a key (state, output, hbar, p0, part), the states as their
    parts, names one row of the linear system and need only be distinct."""
    out = commutator_apply(density, h1, FockVector.basis(lam))
    for mu, amp in out.terms():
        for (h, p), c in amp.terms():
            if hmax is None or h <= hmax:
                for part, x in enumerate(phased(c, h)):
                    if x:
                        yield (lam.parts, mu.parts, h, p, part), x


def reconstruct_with_certificate(
    d: int, G: int, mmax: int | None = None
) -> tuple[LocalFunctional, ReconstructionCertificate]:
    """Solve for the density of index d through hbar^G, memoized per
    (d, G, mmax) so a later comparison does not solve again."""
    return _solve(d, G, mmax)


@lru_cache(maxsize=None)
def _solve(d: int, G: int, mmax: int | None):
    if mmax is not None and mmax < 0:
        raise ValueError("mmax must be >= 0")
    ansatz = build_ansatz(d, G)
    h1 = wang_hamiltonian(1).density
    unknowns = ansatz.unknown_densities()
    hmax = None if _ansatz_complete(d, G) else G + 2
    start = d + 2 * G + 1
    schedule = [mmax] if mmax is not None else list(
        range(start, start + _SCHEDULE_SPAN)
    )
    density = ansatz.classical

    if not unknowns:
        trace = [(schedule[0], 0)]
    else:
        n = len(unknowns)
        columns = (*(b * phased(ONE, b.max_hbar()) for b in unknowns), ansatz.classical)
        table = defaultdict(lambda: [Fraction(0)] * (n + 1))
        trace = []
        done = 0
        for target in schedule:
            for m in range(done, target + 1):
                for lam in partitions_of(m):
                    for col, b in enumerate(columns):
                        for key, c in _window_terms(h1, b, lam, hmax):
                            table[key][col] = c
            done = target + 1
            particular, nullity = solve_affine(list(table.values()), n)
            if particular is None:
                raise InconsistentError(
                    f"no solution for d={d}, G={G} at momenta <= {target}"
                )
            trace.append((target, nullity))
            if not nullity:
                break
        else:
            raise UnderdeterminedError(d, G, target, nullity)
        for x, b in zip(particular, columns):
            density = density + b * x

    used = trace[-1][0]
    for lam in _partitions_upto(used + 2):
        if any(c for _, c in _window_terms(h1, density, lam, hmax)):
            raise InconsistentError(
                f"re-verification failed for d={d}, G={G} on |{lam}>"
            )
    certificate = ReconstructionCertificate(
        d=d,
        G=G,
        ansatz_dimensions=MappingProxyType(ansatz.dimensions()),
        mmax_used=used,
        kernel_trace=tuple(trace),
        verified_momenta=tuple(range(used + 3)),
        density=density,
        hbar_window=hmax,
    )
    return to_functional(density), certificate


def reconstruct(d: int, G: int, mmax: int | None = None) -> LocalFunctional:
    functional, _ = reconstruct_with_certificate(d, G, mmax)
    return functional


def compare_with_wang(d: int, G: int, mmax: int | None = None) -> bool:
    """Reconstructed functional equals the closed form through hbar^G."""
    reconstructed = reconstruct(d, G, mmax)
    closed = wang_hamiltonian(d).density
    # the reconstructed side has no hbar power beyond G by construction
    return reconstructed == to_functional(closed.hbar_truncate(G))
