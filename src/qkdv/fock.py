r"""Free-boson realization of the quantum bracket, sector by sector.

States and coefficients
-----------------------
A basis state is a :class:`Partition`: the multiset of positive modes already
created from the vacuum, with momentum the sum of its parts.  Coefficients
are :class:`SectorScalar`: exact polynomials in hbar and the central zero
mode p0 over the Gaussian rationals.

Action rule
-----------
A density monomial ``c * hbar^a * u_{j_1} ... u_{j_r}`` acts as the sum over
ordered integer tuples (k_1, ..., k_r) with sum 0 of

    c * hbar^a * prod_i (i k_i)^{j_i} * :p_{k_1} ... p_{k_r}:

with creation modes (k < 0) normal-ordered to the left.  On a basis state,
annihilation modes must match existing parts (each removal of a part k
contributes ``i*hbar*k`` times the current multiplicity), zero modes multiply
by p0, and creation modes add parts.  The mode algebra behind this is
``[p_a, p_b] = i*hbar*a`` when a + b = 0 and zero otherwise, with p_0
central.

Because annihilated parts must lie in the state and created parts must
balance them, every contributing mode is bounded by the state's momentum:
each sector computation below is exact, not a truncation.

The enumeration never walks raw ordered tuples.  One generator,
``_monomial_terms``, serves every action: per monomial and state it draws
annihilation sub-multisets, weighted by the ways to draw them, solves for
creation multisets via the zero-sum constraint, and multiplies by the weight
of distributing that mode multiset over the monomial's positions.  The plain
action and the slice with exactly one cross pairing differ only in how the
ways are counted.  Results are memoized per (monomial, state) and per
(density, state), so repeated commutator checks share almost all their work.

Every i in an amplitude comes from the grading, one per unit of the jet
weight J and one per annihilation, so the enumeration works in integers
(memoized assignment counts) and applies the phase i^(J + a) last, with a
the number of annihilations.  The API (SectorScalar, FockVector) stays Q(i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .diffpoly import DiffPoly
from .functionals import poisson_density
from .hierarchy import wang_hamiltonian
from .scalars import Scalar, SparseMap, accumulate, as_scalar


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


@dataclass(frozen=True, order=True)
class Partition:
    """A multiset of positive mode numbers, stored descending."""

    parts: tuple[int, ...] = ()

    @staticmethod
    def make(parts) -> Partition:
        clean = tuple(sorted(parts, reverse=True))
        if any(not isinstance(k, int) or k < 1 for k in clean):
            raise ValueError(f"parts must be positive integers: {parts!r}")
        return Partition(clean)

    @property
    def momentum(self) -> int:
        return sum(self.parts)

    def counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for k in self.parts:
            out[k] = out.get(k, 0) + 1
        return out

    def remove(self, multiset) -> Partition:
        c = self.counts()
        for k, a in multiset:
            c[k] -= a
            if c[k] < 0:
                raise ValueError(f"cannot remove {a} parts {k} from {self}")
        parts = []
        for k, n in c.items():
            parts.extend([k] * n)
        return Partition(tuple(sorted(parts, reverse=True)))

    def add(self, extra) -> Partition:
        return Partition(tuple(sorted(self.parts + tuple(extra), reverse=True)))

    def __str__(self) -> str:
        return ",".join(str(k) for k in self.parts) if self.parts else "0"


@lru_cache(maxsize=None)
def partitions_of(m: int) -> tuple[Partition, ...]:
    """All partitions of momentum m, in descending lexicographic order."""
    if m < 0:
        raise ValueError("momentum must be nonnegative")
    return tuple(Partition(p) for p in _bounded_partitions(m, m))


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

    def max_hbar(self) -> int:
        return max((h for h, _ in self._terms), default=0)

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
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
        return SectorScalar.monomial(c) if isinstance(c, (int, Scalar)) else c

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


def _submultisets(items: list[tuple[int, int]], max_size: int):
    """Sub-multisets of {value: multiplicity} with at most max_size elements."""
    if not items:
        yield ()
        return
    (k, mult), rest = items[0], items[1:]
    for take in range(min(mult, max_size) + 1):
        for tail in _submultisets(rest, max_size - take):
            yield (((k, take),) if take else ()) + tail


def _bounded_partitions(t: int, max_parts: int):
    """Multisets of positive integers summing to t with at most max_parts parts."""

    def rec(remaining: int, max_part: int, slots: int):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for k in range(min(remaining, max_part), 0, -1):
            for rest in rec(remaining - k, k, slots - 1):
                yield (k,) + rest

    yield from rec(t, t, max_parts)


@lru_cache(maxsize=None)
def _assignment_count(
    groups: tuple[tuple[int, int], ...], values: tuple[tuple[int, int], ...]
) -> int:
    """Sum over ordered tuples realizing a mode multiset, without the i^j.

    ``groups`` lists (jet index, free slots) for the monomial's positions;
    ``values`` lists (mode value, count) with matching totals.  The first
    value puts ``take`` copies into a group of jet j and ``cap`` slots in
    comb(cap, take) ways with symbol v^(j*take), so a zero mode contributes
    0 where j > 0; the rest is the same count on the slots left.  Every slot
    is filled, so the dropped phase is i^J for the jet weight J.
    """
    if not values:
        return 1
    (v, cnt), rest = values[0], values[1:]

    def spread(gi: int, rem: int, left: tuple) -> int:
        if gi == len(groups):
            return 0 if rem else _assignment_count(left, rest)
        j, cap = groups[gi]
        total = 0
        for take in range(min(rem, cap) + 1):
            if take and j and not v:
                break
            total += math.comb(cap, take) * v ** (j * take) * spread(
                gi + 1, rem - take, left + ((j, cap - take),)
            )
        return total

    return spread(0, cnt, ())


def _monomial_terms(jet_groups, pool: Partition, ways):
    """Every term of the bare monomial prod u_j acting on the parts in pool.

    Yields (untouched parts, created modes, amplitude).  ``ways(ann)`` counts
    the ways to draw the annihilated sub-multiset ``ann``, as (part, count)
    pairs, from the state; a count of zero skips it.  Amplitudes carry the
    hbar powers from annihilations and the p0 powers from zero modes.
    """
    r = sum(cnt for _, cnt in jet_groups)
    jet_weight = sum(j * cnt for j, cnt in jet_groups)
    for ann in _submultisets(sorted(pool.counts().items()), r):
        n = ways(ann)
        if not n:
            continue
        size_a = sum(a for _, a in ann)
        t = sum(k * a for k, a in ann)
        # the phase i^(J + a): its sign goes into n, an odd power makes it imaginary
        phase = (jet_weight + size_a) % 4
        n *= math.prod(k**a for k, a in ann) * (1 if phase < 2 else -1)
        stripped = pool.remove(ann)
        for creators in _bounded_partitions(t, r - size_a):
            z = r - size_a - len(creators)
            vals = accumulate(((-c, 1) for c in creators), dict(ann))
            if z:
                vals[0] = z
            count = _assignment_count(jet_groups, tuple(sorted(vals.items())))
            if count:
                c = Fraction(n * count)
                amp = Scalar(im=c) if phase % 2 else Scalar(c)
                yield stripped, creators, SectorScalar.monomial(amp, size_a, z)


@lru_cache(maxsize=None)
def _split_apply(
    jet_groups: tuple[tuple[int, int], ...], lam: Partition
) -> tuple[tuple[Partition, Partition, SectorScalar], ...]:
    """Apply the coefficient-free monomial prod u_j to a basis state.

    Returns (surviving parts, created parts, amplitude) triples, keeping
    the state's untouched parts separate from the freshly created ones.
    """
    counts = lam.counts()
    out = accumulate(
        ((stripped, Partition.make(creators)), amp)
        for stripped, creators, amp in _monomial_terms(
            jet_groups,
            lam,
            lambda ann: math.prod(math.perm(counts[k], a) for k, a in ann),
        )
    )
    items = [(s, c, amp) for (s, c), amp in out.items() if amp]
    items.sort(key=lambda kv: (kv[0].parts, kv[1].parts))
    return tuple(items)


@lru_cache(maxsize=None)
def _apply_to_basis(f: DiffPoly, lam: Partition) -> FockVector:
    out: dict[Partition, SectorScalar] = {}
    for mono, c in f.terms():
        factor = SectorScalar.monomial(c, mono.hbar, 0)
        accumulate(
            (
                (stripped.add(created.parts), amp * factor)
                for stripped, created, amp in _split_apply(mono.uexp, lam)
            ),
            out,
        )
    return FockVector(out)


def apply_quantized(f: DiffPoly, v: FockVector) -> FockVector:
    """Act with the quantization of the density f on a Fock vector."""
    out: dict[Partition, SectorScalar] = {}
    for lam, amp in v.terms():
        accumulate(
            ((mu, a * amp) for mu, a in _apply_to_basis(f, lam).terms()),
            out,
        )
    return FockVector(out)


def commutator_apply(f: DiffPoly, g: DiffPoly, v: FockVector) -> FockVector:
    """Apply the commutator of the quantizations of f and g."""
    return apply_quantized(f, apply_quantized(g, v)) - apply_quantized(
        g, apply_quantized(f, v)
    )


@lru_cache(maxsize=None)
def _tracked_single(
    jet_groups: tuple[tuple[int, int], ...],
    plain: Partition,
    marked: Partition,
) -> tuple[tuple[Partition, SectorScalar], ...]:
    """Apply a bare monomial, keeping terms that hit the marked pool once.

    The state consists of two pools of parts.  Annihilators may draw from
    either; this keeps exactly the terms where a single annihilation lands
    in the marked pool, which is how one isolates the part of an operator
    product with exactly one cross pairing.  Output parts are merged again.
    """
    p_counts = plain.counts()
    m_counts = marked.counts()

    def ways(ann) -> int:
        total = 0
        for kstar, astar in ann:
            if kstar not in m_counts:
                continue
            w = astar * math.perm(p_counts.get(kstar, 0), astar - 1) * m_counts[kstar]
            for k, a in ann:
                if k != kstar:
                    w *= math.perm(p_counts.get(k, 0), a)
            total += w
        return total

    out = accumulate(
        (stripped.add(creators), amp)
        for stripped, creators, amp in _monomial_terms(
            jet_groups, plain.add(marked.parts), ways
        )
    )
    items = [(mu, amp) for mu, amp in out.items() if amp]
    items.sort(key=lambda kv: kv[0].parts)
    return tuple(items)


def _cross_once(f: DiffPoly, g: DiffPoly, lam: Partition) -> FockVector:
    """Terms of f-hat (g-hat |lam>) where f pairs with g's output exactly once."""
    out: dict[Partition, SectorScalar] = {}
    for mono_g, cg in g.terms():
        g_factor = SectorScalar.monomial(cg, mono_g.hbar, 0)
        for stripped, created, amp_g in _split_apply(mono_g.uexp, lam):
            if not created.parts:
                continue
            stage = amp_g * g_factor
            for mono_f, cf in f.terms():
                factor = stage * SectorScalar.monomial(cf, mono_f.hbar, 0)
                accumulate(
                    (
                        (mu, amp_f * factor)
                        for mu, amp_f in _tracked_single(
                            mono_f.uexp, stripped, created
                        )
                    ),
                    out,
                )
    return FockVector(out)


def single_contraction_apply(
    f: DiffPoly, g: DiffPoly, lam: Partition
) -> FockVector:
    """The single-pairing part of the commutator, applied to a basis state.

    Ordering the product of two quantized densities produces one mode
    pairing per power of hbar beyond the state contractions; the terms with
    no pairing cancel between the two orders.  This isolates the terms with
    exactly one, which carry the entire first-order content of the bracket.
    """
    return _cross_once(f, g, lam) - _cross_once(g, f, lam)


@dataclass(frozen=True)
class PairStatus:
    d1: int
    d2: int
    mmax: int
    status: str


@dataclass
class CommuteReport:
    pairs: list[PairStatus]
    witness: dict | None
    sectors_checked: list[int]
    max_intermediate_dimension: int

    def to_json_dict(self) -> dict:
        return {
            "pairs": [
                {"d1": p.d1, "d2": p.d2, "mmax": p.mmax, "status": p.status}
                for p in self.pairs
            ],
            "witness": self.witness,
            "sectors_checked": self.sectors_checked,
            "max_intermediate_dimension": self.max_intermediate_dimension,
        }


def check_commute(d1: int, d2: int, mmax: int, cache_dir=None) -> CommuteReport:
    """Verify [H_d1, H_d2] = 0 on every partition of momentum <= mmax.

    Raises :class:`CommutatorNonzero` with a witness on the first failure.
    """
    f = wang_hamiltonian(d1, cache_dir).density
    g = wang_hamiltonian(d2, cache_dir).density
    max_dim = 0
    for m in range(mmax + 1):
        for lam in partitions_of(m):
            v = FockVector.basis(lam)
            fv = apply_quantized(f, v)
            gv = apply_quantized(g, v)
            max_dim = max(max_dim, len(fv), len(gv))
            w = apply_quantized(f, gv) - apply_quantized(g, fv)
            if not w.is_zero():
                mu, amp = w.terms_sorted()[0]
                raise CommutatorNonzero(d1, d2, lam, mu, amp)
    return CommuteReport(
        pairs=[PairStatus(d1, d2, mmax, "pass")],
        witness=None,
        sectors_checked=list(range(mmax + 1)),
        max_intermediate_dimension=max_dim,
    )


@dataclass
class ConsistencyReport:
    pairs: list[dict]
    witness: dict | None

    def to_json_dict(self) -> dict:
        return {"pairs": self.pairs, "witness": self.witness}


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
    if f.max_hbar() or g.max_hbar():
        raise ValueError("classical consistency needs hbar-free densities")
    p = poisson_density(f, g)
    hbar = SectorScalar.monomial(1, 1, 0)
    for m in range(mmax + 1):
        for lam in partitions_of(m):
            lhs = single_contraction_apply(f, g, lam)
            rhs = apply_quantized(p, FockVector.basis(lam)).scale(hbar)
            if lhs != rhs:
                raise MismatchError(f, g, lam, lhs, rhs)
    return ConsistencyReport(
        pairs=[{"f": str(f), "g": str(g), "mmax": mmax, "status": "pass"}],
        witness=None,
    )


def clear_fock_caches() -> None:
    """Reset the assignment-count, per-(monomial, state) and per-(density, state) memos."""
    _assignment_count.cache_clear()
    _split_apply.cache_clear()
    _tracked_single.cache_clear()
    _apply_to_basis.cache_clear()
