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
the number of annihilations.  Its rows are flat, (parts, (hbar, p0),
(re, im)), one per key of a (monomial, state) pair.  The kernel stays in
such Gaussian integers: each density carries one denominator, the lcm D_f
of its coefficients' (``_integral``), an input vector one more, D_v, and
every product is an int product.  ``_realize`` divides by the known scale
once per entry: it is the one way back to Q(i), and the only place the
kernel builds a Scalar, SectorScalar or FockVector.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
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


class Partition(namedtuple("Partition", "parts", defaults=((),))):
    """A multiset of positive mode numbers, stored descending."""

    __slots__ = ()

    @staticmethod
    def make(parts) -> Partition:
        clean = tuple(sorted(parts, reverse=True))
        if any(not isinstance(k, int) or k < 1 for k in clean):
            raise ValueError(f"parts must be positive integers: {parts!r}")
        return Partition(clean)

    @property
    def momentum(self) -> int:
        return sum(self.parts)

    def counts(self) -> Counter[int]:
        return Counter(self.parts)

    def remove(self, multiset) -> Partition:
        c = self.counts()
        for k, a in multiset:
            c[k] -= a
            if c[k] < 0:
                raise ValueError(f"cannot remove {a} parts {k} from {self}")
        return Partition(tuple(sorted(c.elements(), reverse=True)))

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


def _bounded_partitions(t: int, max_parts: int, max_part: int | None = None):
    """Descending tuples of positive integers summing to t, with at most
    max_parts parts, each at most max_part (default t)."""
    if t == 0:
        yield ()
    elif max_parts:
        for k in range(min(t, max_part or t), 0, -1):
            for rest in _bounded_partitions(t - k, max_parts - 1, k):
                yield (k,) + rest


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

    Yields (untouched parts, created parts, (hbar, p0), (re, im)) rows.
    ``ways(ann)`` counts the ways to draw the annihilated sub-multiset
    ``ann``, as (part, count) pairs, from the state; a count of zero skips
    it.  The hbar power is the number of annihilations and the p0 power the
    number of zero modes.  The untouched and created parts fix both, so no
    two rows share a key; every amplitude is a nonzero real or imaginary int.
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
                amp = (0, n * count) if phase % 2 else (n * count, 0)
                yield stripped, Partition(creators), (size_a, z), amp


def _gauss_sum(rows, out=None) -> dict:
    """Sum (key, (re, im)) rows into ``out``, dropping the sums that vanish."""
    out = {} if out is None else out
    for key, c in rows:
        acc = out.get(key)
        out[key] = c if acc is None else (acc[0] + c[0], acc[1] + c[1])
    return {key: c for key, c in out.items() if c[0] or c[1]}


def _minus(x: dict, y: dict) -> dict:
    return _gauss_sum(((k, (-a, -b)) for k, (a, b) in y.items()), dict(x))


def _scaled(pairs) -> tuple[int, tuple]:
    """The lcm D of the denominators in (key, Scalar) pairs, and the pairs
    times D as (key, (re, im)) Gaussian integers."""
    pairs = tuple(pairs)
    D = math.lcm(*(x.denominator for _, c in pairs for x in (c.re, c.im)))
    return D, tuple(
        (key, tuple(x.numerator * D // x.denominator for x in (c.re, c.im)))
        for key, c in pairs
    )


@lru_cache(maxsize=None)
def _integral(f: DiffPoly) -> tuple[int, tuple]:
    return _scaled(f.terms())


def _realize(rows: dict, scale: int) -> FockVector:
    """Summed ((state, hbar, p0), (re, im)) rows over their scale, in Q(i)."""
    by_state: dict[Partition, dict] = {}
    for (state, h, p), (re, im) in rows.items():
        amps = by_state.setdefault(state, {})
        amps[h, p] = Scalar(Fraction(re, scale), Fraction(im, scale))
    return FockVector({s: SectorScalar(amps) for s, amps in by_state.items()})


@lru_cache(maxsize=None)
def _split_apply(
    jet_groups: tuple[tuple[int, int], ...], lam: Partition
) -> tuple[tuple[Partition, Partition, tuple[int, int], tuple[int, int]], ...]:
    """Apply the coefficient-free monomial prod u_j to a basis state.

    Returns the rows of :func:`_monomial_terms`, keeping the state's
    untouched parts separate from the freshly created ones.
    """
    counts = lam.counts()

    def ways(ann) -> int:
        return math.prod(math.perm(counts[k], a) for k, a in ann)

    return tuple(_monomial_terms(jet_groups, lam, ways))


@lru_cache(maxsize=None)
def _apply_to_basis(f: DiffPoly, lam: Partition) -> tuple:
    """f-hat |lam> as summed ((state, hbar, p0), (re, im)) rows, scale D_f."""
    return tuple(
        _gauss_sum(
            ((stripped.add(created.parts), h + mono.hbar, p),
             (a * c - b * d, a * d + b * c))
            for mono, (a, b) in _integral(f)[1]
            for stripped, created, (h, p), (c, d) in _split_apply(mono.uexp, lam)
        ).items()
    )


def _act(f: DiffPoly, rows) -> dict:
    """f-hat on ((state, hbar, p0), (re, im)) rows; the result's scale is
    theirs times D_f."""
    return _gauss_sum(
        ((mu, h1 + h2, p1 + p2), (a * c - b * d, a * d + b * c))
        for (lam, h1, p1), (a, b) in rows
        for (mu, h2, p2), (c, d) in _apply_to_basis(f, lam)
    )


def _vector_rows(v: FockVector) -> tuple[int, tuple]:
    return _scaled(
        ((lam, h, p), c) for lam, amp in v.terms() for (h, p), c in amp.terms()
    )


def apply_quantized(f: DiffPoly, v: FockVector) -> FockVector:
    """Act with the quantization of the density f on a Fock vector."""
    d_v, rows = _vector_rows(v)
    return _realize(_act(f, rows), _integral(f)[0] * d_v)


def commutator_apply(f: DiffPoly, g: DiffPoly, v: FockVector) -> FockVector:
    """Apply the commutator of the quantizations of f and g."""
    d_v, rows = _vector_rows(v)
    fg = _act(f, _act(g, rows).items())
    gf = _act(g, _act(f, rows).items())
    return _realize(_minus(fg, gf), _integral(f)[0] * _integral(g)[0] * d_v)


@lru_cache(maxsize=None)
def _tracked_single(
    jet_groups: tuple[tuple[int, int], ...],
    plain: Partition,
    marked: Partition,
) -> tuple[tuple[Partition, tuple[int, int], tuple[int, int]], ...]:
    """Apply a bare monomial, keeping terms that hit the marked pool once.

    The state consists of two pools of parts.  Annihilators may draw from
    either; this keeps exactly the terms where a single annihilation lands
    in the marked pool, which is how one isolates the part of an operator
    product with exactly one cross pairing.  Output parts are merged again,
    so rows are (state, (hbar, p0), (re, im)) and several may share a key.
    """
    p_counts = plain.counts()
    m_counts = marked.counts()

    def ways(ann) -> int:
        # exactly one marked part: one of kstar's astar draws, m_counts[kstar]
        # choices; every other draw comes from the plain pool
        return sum(
            astar * m_counts[kstar] * math.perm(p_counts[kstar], astar - 1)
            * math.prod(math.perm(p_counts[k], a) for k, a in ann if k != kstar)
            for kstar, astar in ann
        )

    pool = plain.add(marked.parts)
    return tuple(
        (stripped.add(created.parts), hp, amp)
        for stripped, created, hp, amp in _monomial_terms(jet_groups, pool, ways)
    )


def _cross_once(f: DiffPoly, g: DiffPoly, lam: Partition) -> dict:
    """Terms of f-hat (g-hat |lam>) where f pairs with g's output exactly
    once, as summed rows of scale D_f * D_g."""

    def terms():
        for mono_g, (a, b) in _integral(g)[1]:
            for stripped, created, (hg, pg), (c, d) in _split_apply(mono_g.uexp, lam):
                if not created.parts:
                    continue
                sa, sb = a * c - b * d, a * d + b * c
                for mono_f, (e, k) in _integral(f)[1]:
                    fa, fb = sa * e - sb * k, sa * k + sb * e
                    h0 = hg + mono_g.hbar + mono_f.hbar
                    for mu, (h, p), (x, y) in _tracked_single(
                        mono_f.uexp, stripped, created
                    ):
                        yield (mu, h0 + h, pg + p), (x * fa - y * fb, x * fb + y * fa)

    return _gauss_sum(terms())


def single_contraction_apply(
    f: DiffPoly, g: DiffPoly, lam: Partition
) -> FockVector:
    """The single-pairing part of the commutator, applied to a basis state.

    Ordering the product of two quantized densities produces one mode
    pairing per power of hbar beyond the state contractions; the terms with
    no pairing cancel between the two orders.  This isolates the terms with
    exactly one, which carry the entire first-order content of the bracket.
    """
    scale = _integral(f)[0] * _integral(g)[0]
    return _realize(_minus(_cross_once(f, g, lam), _cross_once(g, f, lam)), scale)


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

    Raises :class:`CommutatorNonzero` with a witness on the first failure.
    """
    f = wang_hamiltonian(d1).density
    g = wang_hamiltonian(d2).density
    max_dim = 0
    for m in range(mmax + 1):
        for lam in partitions_of(m):
            fv = _apply_to_basis(f, lam)
            gv = _apply_to_basis(g, lam)
            # states, not (state, hbar, p0) keys
            max_dim = max(max_dim, *(len({k[0] for k, _ in v}) for v in (fv, gv)))
            # both orders carry the scale D_f * D_g, so their rows compare as ints
            fg, gf = _act(f, gv), _act(g, fv)
            if fg != gf:
                w = _realize(_minus(fg, gf), _integral(f)[0] * _integral(g)[0])
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
    if f.max_hbar() or g.max_hbar():
        raise ValueError("classical consistency needs hbar-free densities")
    # hbar is central, so hbar times the bracket's operator is that of hbar * p
    p = poisson_density(f, g) * DiffPoly.hbar()
    for m in range(mmax + 1):
        for lam in partitions_of(m):
            lhs = single_contraction_apply(f, g, lam)
            rhs = apply_quantized(p, FockVector.basis(lam))
            if lhs != rhs:
                raise MismatchError(f, g, lam, lhs, rhs)
    return ConsistencyReport(
        pairs=[{"f": str(f), "g": str(g), "mmax": mmax, "status": "pass"}],
        witness=None,
    )


def clear_fock_caches() -> None:
    """Reset every memo of the kernel."""
    _assignment_count.cache_clear()
    _split_apply.cache_clear()
    _tracked_single.cache_clear()
    _apply_to_basis.cache_clear()
    _integral.cache_clear()
