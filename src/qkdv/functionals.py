"""Local functionals: differential polynomials modulo total derivatives.

A local functional is the class of a density f under the relation
f ~ f + dx(g) + const.  Equality is decided by the Euler operator: the
variational derivative of the difference vanishes exactly on that subspace,
and that kernel fact is itself verified component-by-component in the test
suite rather than assumed.  The image of dx in each (grade, weight) block is
reduced once, over Q, as dx has integer coefficients; it gives the basis of
functionals and the normal form, which the Fock kernel acts with.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial

from .diffpoly import (
    DiffMonomial,
    DiffPoly,
    dx,
    variational_derivative,
)
from .scalars import Scalar, ZERO


class LocalFunctional:
    """A density considered up to total derivatives and constants."""

    __slots__ = ("_rep",)
    __hash__ = None

    def __init__(self, rep: DiffPoly):
        self._rep = rep

    @property
    def rep(self) -> DiffPoly:
        """The representative density; read-only, as memoized results share it."""
        return self._rep

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocalFunctional):
            return NotImplemented
        return variational_derivative(self.rep - other.rep).is_zero()

    def __add__(self, other: LocalFunctional) -> LocalFunctional:
        return LocalFunctional(self.rep + other.rep)

    def __neg__(self) -> LocalFunctional:
        return LocalFunctional(-self.rep)

    def normal_form(self) -> DiffPoly:
        return integrand_normal_form(self.rep)

    def __repr__(self) -> str:
        return f"LocalFunctional({self.normal_form()})"


def to_functional(f) -> LocalFunctional:
    if not isinstance(f, DiffPoly):
        f = DiffPoly.const(f)
    return LocalFunctional(f)


def poisson_bracket(f: LocalFunctional, g: LocalFunctional) -> LocalFunctional:
    """First Poisson bracket: the class of (df/du) dx (dg/du)."""
    return LocalFunctional(poisson_density(f.rep, g.rep))


def poisson_density(f: DiffPoly, g: DiffPoly) -> DiffPoly:
    return variational_derivative(f) * dx(variational_derivative(g))


def component_monomials(grade: int, weight: int) -> list[DiffMonomial]:
    """All hbar-free monomials with sum s_i = grade and sum (s_i+1) = weight.

    The number of u-factors is forced to n = weight - grade; the component is
    empty unless n >= 1 and grade >= 0.
    """
    n = weight - grade
    if n < 1 or grade < 0:
        return []
    out = [
        DiffMonomial.make([(s, 1) for s in jets] + [(0, n - len(jets))])
        for jets in bounded_partitions(grade, n)
    ]
    return sorted(out, key=DiffMonomial.sort_key)


def bounded_partitions(t: int, max_parts: int, max_part: int | None = None):
    """Descending tuples of positive integers summing to t, with at most
    max_parts parts, each at most max_part (default t)."""
    if t == 0:
        yield ()
    elif max_parts:
        for k in range(min(t, max_part or t), 0, -1):
            for rest in bounded_partitions(t - k, max_parts - 1, k):
                yield (k,) + rest


@lru_cache(maxsize=None)
def _dx_image(grade: int, weight: int):
    """The (grade, weight) monomials, the pivots of the reduced image of dx
    from the (grade-1, weight-1) component, and the reduction of a
    coordinate vector against that image, as (targets, pivots, reduce).

    Tuples throughout, as every caller shares the memoized result; the rows
    hold Fractions, zeros included, so elimination never sees an int.  This
    is the one place that binds linalg, so a density request never loads it.
    """
    from . import linalg

    targets = tuple(component_monomials(grade, weight))
    index = {mono: i for i, mono in enumerate(targets)}
    rows = []
    for src in component_monomials(grade - 1, weight - 1):
        vec = [Fraction(0)] * len(targets)
        for mono, c in dx(DiffPoly({src: Scalar.of(1)})).terms():
            vec[index[mono]] = c.re
        rows.append(vec)
    reduced, pivots = linalg.rref(rows)
    pivots = tuple(pivots)
    reduced = tuple(map(tuple, reduced))
    reduce = partial(linalg.reduce_against, reduced=reduced, pivots=pivots)
    return targets, pivots, reduce


def functional_basis(grade: int, weight: int) -> list[LocalFunctional]:
    """A basis of the (grade, weight) component of functionals modulo dx.

    Enumerates the component's monomials, computes the image of dx from the
    (grade-1, weight-1) component, and returns the monomials at non-pivot
    coordinates of that image.  The empty list is a valid answer.
    """
    targets, pivots, _ = _dx_image(grade, weight)
    return [
        to_functional(DiffPoly({mono: Scalar.of(1)}))
        for i, mono in enumerate(targets)
        if i not in pivots
    ]


def integrand_normal_form(f: DiffPoly) -> DiffPoly:
    """A canonical density within the class of f; the Fock kernel acts with it.

    Within each (hbar, grade, weight) block the dx-image coordinates are
    eliminated against the reduced image basis, and constant monomials are
    dropped.  Functional equality is unchanged; only the representative is.
    """
    blocks: dict[tuple[int, int, int], dict[DiffMonomial, Scalar]] = {}
    for mono, c in f.terms():
        if not mono.uexp:
            continue
        bare = DiffMonomial(mono.uexp, 0)
        key = (mono.hbar, bare.grade(), bare.weight())
        blocks.setdefault(key, {})[bare] = c
    out = {}
    for (h, grade, weight), coeffs in sorted(blocks.items()):
        targets, _, reduce = _dx_image(grade, weight)
        # the image is over Q, so the real and imaginary parts reduce apart
        parts = zip(*(coeffs.get(mono, ZERO) for mono in targets))
        re, im = map(reduce, parts)
        out.update(
            (DiffMonomial(t.uexp, h), Scalar(a, b)) for t, a, b in zip(targets, re, im)
        )
    return DiffPoly(out)
