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

The enumeration never walks raw ordered tuples, nor a total derivative:
every mode tuple sums to 0, so one acts as zero, and ``_integral``, where
each density enters the kernel, swaps it for its normal form plus its
constants.  One enumerator, ``_monomial_terms``, serves every action: per
monomial and state it walks the annihilated sub-multisets, with the ways to
draw them, and scales the rows of ``_annihilated``: the creation multisets
that the zero-sum constraint allows, each weighted by the ways to spread
the mode multiset over the monomial's positions (the plain action and the
slice with one cross pairing differ only in the ways).  Every i comes from
the grading, one per unit of the jet weight J and one per annihilation, so
in tau = i*hbar a monomial c * hbar^h acts as the number c * i^(J - h)
times tau^(h + a) and integer counts.

Inside the kernel a state is its descending parts tuple and a number an
int.  Rows are flat, ((parts, tau, p0), n); each density carries one
denominator, the lcm D_f of its coefficients' (``_integral``), and an input
vector one more, D_v (``_vector_rows``).  Both enter through ``phased`` and
split into parts q = 0 and 1, int rows times i^q; a Hamiltonian is part 0
alone.  ``_apply_to_basis`` (memoized per density, part and state),
``_act`` and ``_cross_once`` are each one loop that adds int products
straight into sums, so a key is hashed once per product.  ``_realize`` adds
i^(q + h) * n / scale at hbar^h once per entry: it is the one way back to
Q(i), and with the witnesses the only place the kernel builds a Partition,
Scalar, SectorScalar or FockVector.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import lru_cache

from .diffpoly import DiffPoly, phased
from .functionals import bounded_partitions, integrand_normal_form, poisson_density
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


@lru_cache(maxsize=None)
def _submultisets(parts: tuple, max_size: int) -> tuple:
    """Splits of descending parts into a sub-multiset of at most max_size
    elements, as descending (value, count) pairs, the descending rest and
    the number of ordered ways to draw the sub-multiset from the parts."""
    if not parts:
        return (((), (), 1),)
    k = parts[0]
    mult = parts.count(k)
    return tuple(
        ((((k, take),) if take else ()) + tail, parts[take:mult] + left,
         math.perm(mult, take) * draws)
        for take in range(min(mult, max_size) + 1)
        for tail, left, draws in _submultisets(parts[mult:], max_size - take)
    )


@lru_cache(maxsize=None)
def _assignment_count(groups: tuple, values: tuple) -> int:
    """Sum over ordered tuples realizing a mode multiset, without the i^j.

    ``groups`` lists (jet index, free slots) for the monomial's positions;
    ``values`` lists (mode value, count) with matching totals.  One group of
    jet j takes them in multinomial many orders, each with symbol
    prod v^(j*count).  Otherwise the first value puts ``take`` copies into a
    group of jet j and ``cap`` slots in comb(cap, take) ways with symbol
    v^(j*take), the last group taking what remains; the rest is the same
    count on the slots left, where a group without any drops out.  So a zero
    mode contributes 0 where j > 0, and as every slot is filled, the dropped
    phase is i^J for the jet weight J.
    """
    if not values:
        return 1
    if len(groups) == 1:
        j, cap = groups[0]
        n = math.factorial(cap)
        for v, cnt in values:
            n = n // math.factorial(cnt) * v ** (j * cnt)
        return n
    (v, cnt), rest = values[0], values[1:]
    last = len(groups) - 1

    def spread(gi: int, rem: int, left: tuple) -> int:
        j, cap = groups[gi]
        total = 0
        for take in (rem,) if gi == last else range(min(rem, cap) + 1):
            if take > cap or take and j and not v:
                break
            kept = left + ((j, cap - take),) if cap > take else left
            total += math.comb(cap, take) * v ** (j * take) * (
                _assignment_count(kept, rest) if gi == last
                else spread(gi + 1, rem - take, kept)
            )
        return total

    return spread(0, cnt, ())


@lru_cache(maxsize=None)
def _annihilated(jet_groups: tuple, ann: tuple) -> tuple:
    """The (created parts, (tau, p0), n) rows of the bare monomial prod u_j
    that annihilates the (part, count) pairs ``ann``, per way to draw them:
    tau counts the annihilations, p0 the zero modes; n is a nonzero int."""
    size_a = sum(a for _, a in ann)
    free = sum(cnt for _, cnt in jet_groups) - size_a
    n = math.prod(k**a for k, a in ann)
    rows = []
    for creators in bounded_partitions(sum(k * a for k, a in ann), free):
        z = free - len(creators)
        # the memo key lists mode values ascending: created, zero, annihilated
        values = tuple((-c, creators.count(c)) for c in dict.fromkeys(creators))
        values += ((0, z),) + ann[::-1] if z else ann[::-1]
        amp = n * _assignment_count(jet_groups, values)
        if amp:
            rows.append((creators, (size_a, z), amp))
    return tuple(rows)


def _monomial_terms(jet_groups, pool: tuple, ways=None):
    """Every term of the bare monomial prod u_j acting on the parts in pool,
    as (untouched parts, created parts, (tau, p0), n) rows, no two with one
    key.  ``ways(ann)`` counts the ways to draw the annihilated
    (part, count) pairs ``ann`` (default: any draw from pool); 0 skips."""
    for ann, left, draws in _submultisets(pool, sum(c for _, c in jet_groups)):
        n = draws if ways is None else ways(ann)
        if n:
            for created, hp, amp in _annihilated(jet_groups, ann):
                yield left, created, hp, n * amp


def _merged(a: tuple, b: tuple) -> tuple:
    """The descending union of two descending parts tuples."""
    return tuple(sorted(a + b, reverse=True)) if a and b else a or b


def _nonzero(acc: dict) -> dict:
    """The accumulated sums without the zeros."""
    return {key: n for key, n in acc.items() if n}


def _scaled(pairs) -> tuple[int, dict]:
    """The lcm D of the denominators in (key, Scalar) pairs, and the pairs
    times D as {q: [(key, int)]}, q = 0 real and 1 imaginary, if not empty."""
    pairs = tuple(pairs)
    D = math.lcm(*(x.denominator for _, c in pairs for x in c))
    parts = {q: [(key, int(c[q] * D)) for key, c in pairs if c[q]] for q in (0, 1)}
    return D, {q: rows for q, rows in parts.items() if rows}


@lru_cache(maxsize=None)
def _integral(f: DiffPoly) -> tuple[int, dict]:
    """f's scaled parts in tau as the kernel acts with them: its normal form,
    since total derivatives act as zero, plus the constants which that drops."""
    constants = DiffPoly({m: c for m, c in f.terms() if not m.uexp})
    terms = (integrand_normal_form(f) + constants).terms()
    return _scaled((m, phased(c, m.hbar - m.jet_weight())) for m, c in terms)


def _realize(parts, scale: int) -> FockVector:
    """(q, sums) pairs in Q(i): a sum n at (parts, tau^h, p0) adds
    i^(q + h) * n / scale at hbar^h."""
    by_state = defaultdict(list)
    for q, rows in parts:
        for (state, h, p), n in rows.items():
            by_state[state].append(((h, p), phased(Scalar(Fraction(n, scale)), -q - h)))
    amps = {Partition(s): SectorScalar(accumulate(a)) for s, a in by_state.items()}
    return FockVector(amps)


@lru_cache(maxsize=None)
def _split_apply(jet_groups: tuple, lam: tuple) -> tuple:
    """Apply the coefficient-free monomial prod u_j to the basis state lam.

    Returns the rows of :func:`_monomial_terms`, keeping the state's
    untouched parts separate from the freshly created ones.
    """
    return tuple(_monomial_terms(jet_groups, lam))


@lru_cache(maxsize=None)
def _apply_to_basis(f: DiffPoly, q: int, lam: tuple) -> tuple:
    """Part q of f-hat |lam> as summed ((parts, tau, p0), n) rows, scale D_f."""
    out = defaultdict(int)
    for mono, a in _integral(f)[1][q]:
        for kept, created, (h, p), c in _split_apply(mono.uexp, lam):
            out[_merged(kept, created), h + mono.hbar, p] += a * c
    return tuple(_nonzero(out).items())


def _act(f: DiffPoly, q: int, rows) -> dict:
    """Part q of f-hat on ((parts, tau, p0), n) rows, as sums that may
    vanish; their scale is the rows' times D_f.  Each row reads its state's
    memoized column: grouping the rows by state would save lookups, but the
    grouping costs more than they do."""
    out = defaultdict(int)
    for (lam, h1, p1), a in rows:
        for (mu, h2, p2), c in _apply_to_basis(f, q, lam):
            out[mu, h1 + h2, p1 + p2] += a * c
    return out


def _minus(x: dict, y: dict) -> dict:
    """The sums x less the rows y, without zeros; x is used up."""
    for key, n in y.items():
        x[key] -= n
    return _nonzero(x)


def _vector_rows(v: FockVector) -> tuple[int, dict]:
    terms = ((lam.parts, h, p, c) for lam, a in v.terms() for (h, p), c in a.terms())
    return _scaled(((lam, h, p), phased(c, h)) for lam, h, p, c in terms)


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


@lru_cache(maxsize=None)
def _tracked_single(jet_groups: tuple, plain: tuple, marked: tuple) -> tuple:
    """Apply a bare monomial, keeping terms that hit the marked pool once.

    The state consists of two pools of parts.  Annihilators may draw from
    either; this keeps exactly the terms where a single annihilation lands
    in the marked pool, which is how one isolates the part of an operator
    product with exactly one cross pairing.  Output parts are merged again,
    so rows are (parts, (tau, p0), n) and several may share a key.
    """
    p_counts, m_counts = plain.count, marked.count

    def ways(ann) -> int:
        # exactly one marked part: one of kstar's astar draws, m_counts(kstar)
        # choices; every other draw comes from the plain pool
        return sum(
            astar * m_counts(kstar) * math.perm(p_counts(kstar), astar - 1)
            * math.prod(math.perm(p_counts(k), a) for k, a in ann if k != kstar)
            for kstar, astar in ann
        )

    rows = _monomial_terms(jet_groups, _merged(plain, marked), ways)
    return tuple((_merged(kept, created), hp, amp) for kept, created, hp, amp in rows)


def _cross_once(f: DiffPoly, q: int, g: DiffPoly, r: int, lam: tuple) -> dict:
    """Terms of part q of f-hat (part r of g-hat |lam>) where f pairs with
    g's output exactly once, as sums of scale D_f * D_g that may vanish."""
    out = defaultdict(int)
    for mono_g, a in _integral(g)[1][r]:
        for kept, created, (hg, pg), c in _split_apply(mono_g.uexp, lam):
            if not created:
                continue
            for mono_f, e in _integral(f)[1][q]:
                h0 = hg + mono_g.hbar + mono_f.hbar
                for mu, (h, p), x in _tracked_single(mono_f.uexp, kept, created):
                    out[mu, h0 + h, pg + p] += a * c * e * x
    return out


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
    and ValueError for a negative mmax, which would check nothing.
    """
    if mmax < 0:
        raise ValueError("mmax must be >= 0")
    f = wang_hamiltonian(d1).density
    g = wang_hamiltonian(d2).density
    (d_f, fs), (d_g, gs) = _integral(f), _integral(g)
    max_dim = 0
    for m in range(mmax + 1):
        for lam in partitions_of(m):
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
    if mmax < 0:
        raise ValueError("mmax must be >= 0")
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
    """Reset every memo of the kernel: each lru_cache among its globals."""
    for memo in globals().values():
        if hasattr(memo, "cache_clear"):
            memo.cache_clear()
