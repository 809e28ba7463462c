"""Predicted intersection-number polynomials from the Hamiltonian coefficients.

Each monomial of the d-th density encodes one coefficient: writing a
monomial as (-i*hbar)^g * c * prod_j u_j^{a_j} with n = sum a_j factors, the
number K = c * prod_j a_j! is the coefficient, in the falling-factorial
basis, of the degree-2g polynomial attached to the (g, n)-stratum family.
The polynomial in n variables is symmetric: :func:`orbit_tables` keeps one
entry per orbit, keyed by sorted exponents (falling: K per jet tuple; power:
the coefficient of each ordering), and :func:`orderings` walks the tuples of
bounded degree once, yielding each orbit's orderings in ascending key order
or, stepping each tuple to its predecessor, in descending key order.
Converting falling factorials to ordinary powers is a per-variable Stirling
transform, which commutes with permuting the variables: it runs on one
sorted jet tuple t per orbit, weighted K / stab(t) (stab(t) = prod of t's
multiplicities' factorials), and folds each output key into its sorted
orbit, whose sum times stab is the power coefficient.

Extraction checks, per monomial, the constraint n = d + 2 - 2g and that c is
real, so ``diffpoly.unphased`` strips the phase once and tables hold
``Fraction``s.  Keyed by exponents, the falling table is [z^(2g)] S(sum a * z)
prod S(a_i z), S(x) = sinh(x/2)/(x/2) (:func:`_closed_form`); a psi-integral
over a double ramification cycle would be [z^(2g)] prod S(a_i z) / S(z).
Reassembling the density from the table must reproduce it bit-exactly.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product

from .diffpoly import DiffMonomial, DiffPoly, phased, unphased
from .hierarchy import wang_hamiltonian
from .scalars import Scalar, accumulate

MPoly = dict[tuple[int, ...], Fraction]


class WeightMismatchError(ValueError):
    """A density monomial violated the factor-count constraint n = d+2-2g."""


@lru_cache(maxsize=None)
def _stirling_first_row(n: int) -> tuple[int, ...]:
    """Signed Stirling numbers s(n, k): x falling n = sum_k s(n,k) x^k."""
    if n == 0:
        return (1,)
    prev = _stirling_first_row(n - 1)
    row = [0] * (n + 1)
    for k in range(n):
        row[k + 1] += prev[k]
        row[k] -= (n - 1) * prev[k]
    return tuple(row)


@lru_cache(maxsize=None)
def _stirling_second_row(n: int) -> tuple[int, ...]:
    """Stirling numbers S(n, k): x^n = sum_k S(n,k) x falling k."""
    if n == 0:
        return (1,)
    prev = _stirling_second_row(n - 1)
    row = [0] * (n + 1)
    for k in range(n):
        row[k] += k * prev[k]
        row[k + 1] += prev[k]
    return tuple(row)


def falling_convert(poly: MPoly, direction: str) -> MPoly:
    """Change basis between falling factorials and ordinary powers.

    ``direction`` is "to_power" (input coefficients are falling-basis) or
    "to_falling" (input is power-basis); the transform acts variable by
    variable, so each output term of a monomial is one product of
    per-variable Stirling numbers.
    """
    if direction == "to_power":
        row_fn = _stirling_first_row
    elif direction == "to_falling":
        row_fn = _stirling_second_row
    else:
        raise ValueError(f"unknown direction {direction!r}")
    out: MPoly = {}
    for exps, c in poly.items():
        rows = [[(t, r) for t, r in enumerate(row_fn(e)) if r] for e in exps]
        accumulate(
            (
                (tuple([t for t, _ in choice]), c * math.prod([r for _, r in choice]))
                for choice in product(*rows)
            ),
            out,
        )
    # Stirling signs cancel across monomials
    return {key: c for key, c in out.items() if c}


class FallingCoeffTable(namedtuple("FallingCoeffTable", "d entries")):
    """Coefficients K keyed by (g, ascending jet tuple) for one index d."""

    __slots__ = ()

    def genera(self) -> list[int]:
        return sorted({g for g, _ in self.entries})

    def for_genus(self, g: int) -> dict[tuple[int, ...], Fraction]:
        return {s: K for (gg, s), K in self.entries.items() if gg == g}


def _stab(t: tuple[int, ...]) -> int:
    """Product of t's multiplicities' factorials, in any order: n!/orbit size."""
    return math.prod([math.factorial(t.count(a)) for a in set(t)])


def extract_coeff_table(d: int) -> FallingCoeffTable:
    """Invert the closed form: one rational K per monomial of the d-th density."""
    density = wang_hamiltonian(d).density
    entries: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    for mono, c in density.terms():
        g = mono.hbar
        jets = mono.jets()
        n = len(jets)
        if n != d + 2 - 2 * g:
            raise WeightMismatchError(
                f"monomial {mono} of H_{d} has {n} factors, expected "
                f"{d + 2 - 2 * g} at hbar^{g}"
            )
        base = unphased(mono, c)
        if base is None:
            raise ValueError(
                f"monomial {mono} of H_{d}: {c} is not real times (-i)^{g}"
            )
        entries[(g, jets)] = base * _stab(jets)
    return FallingCoeffTable(d, entries)


def reassemble_density(table: FallingCoeffTable) -> DiffPoly:
    """Rebuild the density from its coefficient table (round-trip check)."""
    pairs = []
    for (g, jets), K in table.entries.items():
        mono = DiffMonomial.make([(s, 1) for s in jets], g)
        pairs.append((mono, phased(Scalar(K / _stab(jets)), g)))
    return DiffPoly(accumulate(pairs))


def variable_names(n: int) -> list[str]:
    return ["m"] if n == 1 else [f"m{i}" for i in range(1, n + 1)]


class StrataPolynomial(namedtuple("StrataPolynomial", "d g n falling power")):
    """The predicted polynomial for one (d, g), in both bases, key-sorted."""

    __slots__ = ()

    def falling_dict(self) -> MPoly:
        return dict(self.falling)

    def power_dict(self) -> MPoly:
        return dict(self.power)

    def is_symmetric(self) -> bool:
        # adjacent swaps generate every ordering; a missing swap gets None != c
        coeffs = self.power_dict()
        return all(
            coeffs.get(exps[:i] + (exps[i + 1], exps[i]) + exps[i + 2 :]) == c
            for exps, c in coeffs.items()
            for i in range(len(exps) - 1)
        )

    def falling_degrees(self) -> set[int]:
        return {sum(exps) for exps, _ in self.falling}

    def is_constant_one(self) -> bool:
        return dict(self.falling) == {(0,) * self.n: 1}

    def variable_names(self) -> list[str]:
        return variable_names(self.n)


def orbit_tables(d: int, g: int) -> tuple[int, MPoly, MPoly]:
    """n = d + 2 - 2g and the falling and power orbit tables of (d, g), no
    zero in either; n < 1 leaves no stratum family and raises ValueError."""
    n = d + 2 - 2 * g
    if n < 1:
        raise ValueError(
            f"no stratum family for d={d}, g={g}: it would need n={n} "
            "marked variables, and n >= 1 is required"
        )
    if g < 0:
        raise ValueError("g must be >= 0")
    falling = extract_coeff_table(d).for_genus(g)
    # the transform commutes with permutations: convert the orbit
    # representatives, weighted 1/stab, and fold each output key into its orbit
    orbits = accumulate(
        (tuple(sorted(u)), c)
        for u, c in falling_convert(
            {jets: K / _stab(jets) for jets, K in falling.items()}, "to_power"
        ).items()
    )
    return n, falling, {t: c * _stab(t) for t, c in orbits.items() if c}


def _descending(n: int, top: int):
    """The n-tuples of degree at most top in descending order, as one list
    stepped in place to its predecessor: the last nonzero entry r drops by
    one and the next one takes the degree left over, top - total + 1."""
    exps, r, total = [top] + [0] * (n - 1), 0 if top else -1, top
    while True:
        yield exps
        if r < 0:
            return
        exps[r] -= 1
        if r < n - 1:
            r += 1
            exps[r], total = top - total + 1, top
        else:
            total -= 1
            while r >= 0 and not exps[r]:
                r -= 1


def orderings(orbits: MPoly, descending: bool = False):
    """(ordering, coefficient) for the n!/stab(t) orderings of each orbit t,
    in ascending key order, or descending: a walk over the C(top + n, n)
    n-tuples of degree at most top, the largest key degree, keeping those in
    some orbit, that holds nothing but the tuple in hand."""
    if not orbits:
        return
    n = len(next(iter(orbits)))
    top = max(map(sum, orbits))
    if descending:
        walk = _descending(n, top)
    else:
        # a non-decreasing c <-> its differences: lex order kept, sum = c[-1];
        # a list: tuple(map(...)) resizes tuples, stranding free-list blocks
        walk = (
            list(map(operator.sub, c, (0,) + c))
            for c in combinations_with_replacement(range(top + 1), n)
        )
    for exps in walk:
        coeff = orbits.get(tuple(sorted(exps)))
        if coeff is not None:
            yield tuple(exps), coeff


def assemble_polynomial(d: int, g: int) -> StrataPolynomial:
    """The orderings of both orbit tables of (d, g), materialized."""
    n, falling, power = orbit_tables(d, g)
    return StrataPolynomial(d, g, n, tuple(orderings(falling)), tuple(orderings(power)))


def _closed_form(n: int, g: int) -> MPoly:
    """[z^(2g)] S((a_1+...+a_n) z) S(a_1 z) ... S(a_n z) in the a_i, with
    S(x) = sinh(x/2)/(x/2) = sum_k x^(2k) / (4^k (2k+1)!): the falling table
    of (d, g) for n = d + 2 - 2g >= 1, in the shape of the Buryak-Shadrin-
    Spitz-Zvonkine formula for psi-integrals over double ramification cycles.
    A term takes k0 from the sum factor and k_i from the others, and a
    multinomial share beta of (sum a)^(2 k0).
    """

    def compositions(total: int):
        # the n-tuples of sum total in lex order, as in orderings' walk: the
        # differences of the non-decreasing (n - 1)-tuples c in [0, total],
        # framed by 0 and total
        for c in combinations_with_replacement(range(total + 1), n - 1):
            yield tuple(map(operator.sub, c + (total,), (0,) + c))

    inverse_s = [4**k * math.factorial(2 * k + 1) for k in range(g + 1)]
    return accumulate(
        (tuple(2 * k + b for k, b in zip(ks, beta)),
         Fraction(math.factorial(2 * k0), inverse_s[k0]
                  * math.prod(map(inverse_s.__getitem__, ks))
                  * math.prod(map(math.factorial, beta))))
        for k0 in range(g + 1)
        for ks in compositions(g - k0)
        for beta in compositions(2 * k0)
    )


def genus0_check(d: int) -> bool:
    """The genus-0 polynomial must be the constant 1 for every d."""
    return assemble_polynomial(d, 0).is_constant_one()
