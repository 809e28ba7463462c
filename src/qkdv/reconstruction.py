"""Independent reconstruction of the Hamiltonians from commutation alone.

The ansatz for index d through order G is

    Q = u^{d+2}/(d+2)!  +  sum_{g=1..G} hbar^g (unknown combination of the
                            (grade 2g, weight d+2) functional basis)

and the defining constraint is that Q commute with the first nontrivial
Hamiltonian in the Fock realization.  Each Fock sector contributes exact
linear equations on the unknowns; the system is solved exactly, and
uniqueness is certified by a zero-dimensional kernel.

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

Sectors are added starting at momentum d + 2G + 1 and increased until the
kernel collapses; the solution is then re-verified on two further momenta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .diffpoly import DiffPoly, to_json_dict
from .fock import FockVector, commutator_apply, partitions_of
from .functionals import LocalFunctional, functional_basis, to_functional
from .hierarchy import classical_density, wang_hamiltonian
from .linalg import solve_affine
from .scalars import ZERO, Scalar

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


@dataclass(frozen=True)
class Ansatz:
    d: int
    G: int
    classical: DiffPoly
    blocks: tuple[tuple[DiffPoly, ...], ...]

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
    if d < -1:
        raise ValueError("d must be >= -1")
    if G < 0:
        raise ValueError("G must be >= 0")
    blocks = tuple(
        tuple(rep.rep for rep in functional_basis(2 * g, d + 2))
        for g in range(1, G + 1)
    )
    return Ansatz(d, G, classical_density(d), blocks)


@dataclass(frozen=True)
class ReconstructionCertificate:
    """Immutable, because every caller of one solve shares this object."""

    d: int
    G: int
    ansatz_dimensions: MappingProxyType
    mmax_used: int
    kernel_trace: tuple[tuple[int, int], ...]
    verified_momenta: tuple[int, ...]
    density: DiffPoly
    hbar_window: int | None

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
    """True when no functional block beyond hbar^G can exist at this weight."""
    g = G + 1
    while d + 2 - 2 * g >= 1:
        if functional_basis(2 * g, d + 2):
            return False
        g += 1
    return True


def _commutator_with(h1: DiffPoly, density: DiffPoly, lam) -> FockVector:
    return commutator_apply(density, h1, FockVector.basis(lam))


def _nonzero_through(vec: FockVector, hmax: int | None) -> bool:
    return any(
        hmax is None or h <= hmax
        for _, amp in vec.terms()
        for (h, _), _c in amp.terms()
    )


def _assemble_system(base_out, unknown_outs, hmax):
    """Rows of the exact linear system from commutator coefficients.

    Keys are (state, output partition, hbar power, p0 power); with a
    finite hmax only hbar powers up to it contribute rows.  One pass over
    the outputs fills each key's row, with the base output in the last
    column, which becomes the negated right-hand side.
    """
    n = len(unknown_outs)
    table: dict = {}
    for col, outs in enumerate((*unknown_outs, base_out)):
        for lam, vec in outs.items():
            for mu, amp in vec.terms():
                for (h, p), c in amp.terms():
                    if hmax is None or h <= hmax:
                        key = (lam, mu, h, p)
                        row = table.get(key)
                        if row is None:
                            row = table[key] = [ZERO] * (n + 1)
                        row[col] = c
    ordered = sorted(table, key=lambda k: (k[0].parts, k[1].parts, k[2], k[3]))
    rows = [table[k][:n] for k in ordered]
    rhs = [-table[k][n] for k in ordered]
    return rows, rhs


def reconstruct_with_certificate(
    d: int, G: int, mmax: int | None = None, cache_dir=None
) -> tuple[LocalFunctional, ReconstructionCertificate]:
    """Solve for the density of index d through hbar^G, memoized per
    (d, G, mmax, cache_dir) so a later comparison does not solve again."""
    return _solve(d, G, mmax, cache_dir)


@lru_cache(maxsize=None)
def _solve(d: int, G: int, mmax: int | None, cache_dir):
    ansatz = build_ansatz(d, G)
    h1 = wang_hamiltonian(1, cache_dir).density
    unknowns = ansatz.unknown_densities()
    hmax = None if _ansatz_complete(d, G) else G + 2
    start = d + 2 * G + 1
    schedule = [mmax] if mmax is not None else list(
        range(start, start + _SCHEDULE_SPAN)
    )
    trace: list[tuple[int, int]] = []
    solution: list[Scalar] | None = None
    used = schedule[0]

    if not unknowns:
        trace.append((used, 0))
        density = ansatz.classical
    else:
        base_out: dict = {}
        unknown_outs: list[dict] = [{} for _ in unknowns]
        done = -1
        solved = False
        for target in schedule:
            for m in range(done + 1, target + 1):
                for lam in partitions_of(m):
                    base_out[lam] = _commutator_with(h1, ansatz.classical, lam)
                    for i, b in enumerate(unknowns):
                        unknown_outs[i][lam] = _commutator_with(h1, b, lam)
            done = max(done, target)
            rows, rhs = _assemble_system(base_out, unknown_outs, hmax)
            particular, kernel = solve_affine(rows, rhs, len(unknowns))
            if particular is None:
                raise InconsistentError(
                    f"no solution for d={d}, G={G} at momenta <= {target}"
                )
            trace.append((target, len(kernel)))
            used = target
            if not kernel:
                solution = particular
                solved = True
                break
        if not solved:
            raise UnderdeterminedError(d, G, used, trace[-1][1])
        density = ansatz.classical
        for x, b in zip(solution, unknowns):
            density = density + b * x

    verified = tuple(range(used + 3))
    for m in verified:
        for lam in partitions_of(m):
            if _nonzero_through(_commutator_with(h1, density, lam), hmax):
                raise InconsistentError(
                    f"re-verification failed for d={d}, G={G} on |{lam}>"
                )
    certificate = ReconstructionCertificate(
        d=d,
        G=G,
        ansatz_dimensions=MappingProxyType(ansatz.dimensions()),
        mmax_used=used,
        kernel_trace=tuple(trace),
        verified_momenta=verified,
        density=density,
        hbar_window=hmax,
    )
    return to_functional(density), certificate


def reconstruct(d: int, G: int, mmax: int | None = None, cache_dir=None) -> LocalFunctional:
    functional, _ = reconstruct_with_certificate(d, G, mmax, cache_dir)
    return functional


def compare_with_wang(
    d: int, G: int, mmax: int | None = None, cache_dir=None
) -> bool:
    """Reconstructed functional equals the closed form through hbar^G."""
    reconstructed = reconstruct(d, G, mmax, cache_dir)
    closed = wang_hamiltonian(d, cache_dir).density
    lhs = to_functional(reconstructed.rep.hbar_truncate(G))
    rhs = to_functional(closed.hbar_truncate(G))
    return lhs == rhs
