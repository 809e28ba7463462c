"""Predicted intersection-number polynomials from the Hamiltonian coefficients.

Each monomial of the d-th density encodes one coefficient: writing a
monomial as (-i*hbar)^g * c * prod_j u_j^{a_j} with n = sum a_j factors, the
number K = c * prod_j a_j! is the coefficient, in the falling-factorial
basis, of the degree-2g polynomial attached to the (g, n)-stratum family.
Assembling all jet tuples of a fixed g, each distinct ordering once in
ascending order, yields that polynomial in n variables.  Converting falling
factorials to ordinary powers is a per-variable Stirling transform, which
commutes with permuting the variables: it runs on one sorted jet tuple t per
orbit, weighted K / stab(t) (stab(t) = prod of t's multiplicities'
factorials), folds each output key into its sorted orbit and spreads each
orbit's sum times stab over that orbit's distinct orderings.

Extraction checks, per monomial, the constraint n = d + 2 - 2g and that c is
real, so ``diffpoly.unphased`` strips the phase once and tables hold
``Fraction``s.  Keyed by exponents, the falling table is [z^(2g)] S(sum a * z)
prod S(a_i z), S(x) = sinh(x/2)/(x/2) (:func:`_closed_form`); a psi-integral
over a double ramification cycle would be [z^(2g)] prod S(a_i z) / S(z).
Reassembling the density from the table must reproduce it bit-exactly.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, product

from .diffpoly import PHASE, DiffMonomial, DiffPoly, unphased
from .hierarchy import wang_hamiltonian
from .scalars import accumulate

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
        multiplicity = math.prod([math.factorial(e) for _, e in mono.uexp])
        entries[(g, jets)] = base * multiplicity
    return FallingCoeffTable(d, entries)


def reassemble_density(table: FallingCoeffTable) -> DiffPoly:
    """Rebuild the density from its coefficient table (round-trip check)."""
    pairs = []
    for (g, jets), K in table.entries.items():
        mono = DiffMonomial.make([(s, 1) for s in jets], g)
        multiplicity = math.prod([math.factorial(e) for _, e in mono.uexp])
        pairs.append((mono, PHASE[g % 4] * (K / multiplicity)))
    return DiffPoly(accumulate(pairs))


def _distinct_permutations(items: tuple[int, ...]):
    """Each distinct ordering of a multiset once, ascending: n!/prod e_j! of them."""
    a = sorted(items)
    while True:
        yield tuple(a)
        # the rightmost ascent a[i] < a[i+1]; none left means a is descending
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = a[:i:-1]


def _stab(t: tuple[int, ...]) -> int:
    """Product of the multiplicities' factorials of a sorted tuple: n!/orbit size."""
    return math.prod([math.factorial(len(list(run))) for _, run in groupby(t)])


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
        if self.n == 1:
            return ["m"]
        return [f"m{i}" for i in range(1, self.n + 1)]


def _canonical_mpoly(p: MPoly) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    return tuple(sorted(p.items(), key=lambda kv: kv[0]))


def assemble_polynomial(d: int, g: int) -> StrataPolynomial:
    """Symmetrize the genus-g coefficients of H_d into a polynomial.

    The polynomial has n = d + 2 - 2g variables; g too large for d leaves no
    stratum family (n < 1) and raises ValueError.
    """
    n = d + 2 - 2 * g
    if n < 1:
        raise ValueError(
            f"no stratum family for d={d}, g={g}: it would need n={n} "
            "marked variables, and n >= 1 is required"
        )
    if g < 0:
        raise ValueError("g must be >= 0")
    reps = extract_coeff_table(d).for_genus(g)
    # each ordering sorts back to one jets tuple, and no table entry is zero
    falling = {p: K for jets, K in reps.items() for p in _distinct_permutations(jets)}
    # the transform commutes with permutations: convert the orbit
    # representatives, fold each output key into its orbit, spread it back
    orbits = accumulate(
        (tuple(sorted(u)), c)
        for u, c in falling_convert(
            {jets: K / _stab(jets) for jets, K in reps.items()}, "to_power"
        ).items()
    )
    power = {}
    for t, c in orbits.items():
        if c:
            c *= _stab(t)
            power.update(dict.fromkeys(_distinct_permutations(t), c))
    return StrataPolynomial(d, g, n, _canonical_mpoly(falling), _canonical_mpoly(power))


def _closed_form(n: int, g: int, with_sum_factor: bool = True) -> MPoly:
    """[z^(2g)] S((a_1+...+a_n) z) S(a_1 z) ... S(a_n z) in the a_i, with
    S(x) = sinh(x/2)/(x/2) = sum_k x^(2k) / (4^k (2k+1)!): the falling table
    of (d, g) for n = d + 2 - 2g, in the shape of the Buryak-Shadrin-Spitz-
    Zvonkine formula for psi-integrals over double ramification cycles.  A
    term takes k0 from the sum factor (none without it, a negative control)
    and k_i from the others, and a multinomial share beta of (sum a)^(2 k0).
    """

    def s(k: int) -> Fraction:
        return Fraction(1, 4**k * math.factorial(2 * k + 1))

    return accumulate(
        (tuple(2 * k + b for k, b in zip(ks, beta)),
         s(k0) * math.prod(map(s, ks)) * math.factorial(2 * k0)
         / math.prod(map(math.factorial, beta)))
        for k0 in range(g + 1 if with_sum_factor else 1)
        for ks in product(range(g - k0 + 1), repeat=n) if sum(ks) == g - k0
        for beta in product(range(2 * k0 + 1), repeat=n) if sum(beta) == 2 * k0
    )


def genus0_check(d: int) -> bool:
    """The genus-0 polynomial must be the constant 1 for every d."""
    return assemble_polynomial(d, 0).is_constant_one()
