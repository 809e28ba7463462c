"""States and coefficients of the free-boson Fock space.

A basis state is a :class:`Partition`: the multiset of positive modes already
created from the vacuum, with momentum the sum of its parts.  Coefficients
are :class:`SectorScalar`: exact polynomials in hbar and the central zero
mode p0 over the Gaussian rationals.  A :class:`FockVector` is a finite
combination of basis states with SectorScalar amplitudes.

``fock`` re-exports these types; ``fockkernel`` builds them only where it
turns its integer rows back into Q(i).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .functionals import bounded_partitions
from .scalars import Scalar, SparseMap, accumulate, as_scalar


class Partition(namedtuple("Partition", "parts", defaults=((),))):
    """A multiset of positive mode numbers, stored descending."""

    __slots__ = ()

    @staticmethod
    def make(parts) -> Partition:
        clean = tuple(sorted(parts, reverse=True))
        if any(type(k) is not int or k < 1 for k in clean):
            raise ValueError(f"parts must be positive integers: {parts!r}")
        return Partition(clean)

    @property
    def momentum(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return ",".join(str(k) for k in self.parts) if self.parts else "0"


@lru_cache(maxsize=None)
def partitions_of(m: int) -> tuple[Partition, ...]:
    """All partitions of momentum m, in descending lexicographic order."""
    if m < 0:
        raise ValueError("momentum must be nonnegative")
    return tuple(Partition(p) for p in bounded_partitions(m, m))


class SectorScalar(SparseMap):
    """An exact polynomial in hbar and the central mode p0."""

    __slots__ = ()

    @staticmethod
    def one() -> SectorScalar:
        return SectorScalar.monomial(1, 0, 0)

    @staticmethod
    def monomial(c, hbar: int = 0, p0: int = 0) -> SectorScalar:
        return SectorScalar({(hbar, p0): as_scalar(c)})

    def coefficient(self, hbar: int, p0: int) -> Scalar:
        return self._terms.get((hbar, p0), Scalar())

    def hbar_coefficient(self, h: int) -> SectorScalar:
        return SectorScalar(
            {(0, p): c for (hh, p), c in self._terms.items() if hh == h}
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, SectorScalar):
            return NotImplemented
        return SectorScalar(
            accumulate(
                ((h1 + h2, p1 + p2), c1 * c2)
                for (h1, p1), c1 in self._terms.items()
                for (h2, p2), c2 in other._terms.items()
            )
        )

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for (h, p), c in self.terms_sorted():
            factors = [str(c)]
            if h:
                factors.append("hbar" + (f"^{h}" if h > 1 else ""))
            if p:
                factors.append("p0" + (f"^{p}" if p > 1 else ""))
            bits.append("*".join(factors))
        return " + ".join(bits)


class FockVector(SparseMap):
    """A finite combination of partition states with SectorScalar amplitudes.

    Terms are (Partition, SectorScalar) pairs; partitions sort by their parts.
    """

    __slots__ = ()

    @staticmethod
    def vacuum() -> FockVector:
        return FockVector.basis(Partition())

    @staticmethod
    def basis(lam: Partition) -> FockVector:
        return FockVector({lam: SectorScalar.one()})

    @staticmethod
    def _as_factor(c) -> SectorScalar:
        return c if isinstance(c, SectorScalar) else SectorScalar.monomial(c)

    def coefficient(self, lam: Partition) -> SectorScalar:
        return self._terms.get(lam, SectorScalar.zero())

    def momenta(self) -> set[int]:
        return {lam.momentum for lam in self._terms}

    def hbar_coefficient(self, h: int) -> FockVector:
        return FockVector(
            {lam: amp.hbar_coefficient(h) for lam, amp in self._terms.items()}
        )

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"({amp})|{lam}>" for lam, amp in self.terms_sorted())
