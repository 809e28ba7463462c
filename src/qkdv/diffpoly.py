"""Sparse differential polynomials in the jet variables u_0, u_1, ... and hbar.

Representation
--------------
A :class:`DiffPoly` maps :class:`DiffMonomial` to :class:`~qkdv.scalars.Scalar`.
A monomial stores its jet exponents as a tuple of ``(jet index, exponent)``
pairs sorted by jet index, plus a nonnegative hbar exponent.  Zero
coefficients and zero exponents are never stored, so structural equality is
semantic equality and every value hashes.

Conventions
-----------
``u_s`` is the s-th spatial derivative of the dependent field (``u_0`` is the
field itself).  Two gradings are used throughout:

* grade:  ``deg u_s = s``, ``deg hbar = -2``
* weight: ``deg' u_s = s + 1``, ``deg' hbar = 0``

``dx`` raises both by one; the variational derivative preserves grade and
lowers weight by one.

The deterministic monomial order (used for serialization and rendering) is
graded lexicographic on ``(hbar exponent, total u-degree, flattened jet
list)``.  A density's coefficient at hbar^h is a real rational times the
phase (-i)^h: :func:`phased` applies it and :func:`unphased` strips it.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction

from .scalars import I, MINUS_I, ONE, Scalar, SparseMap, accumulate, as_scalar

PHASE = (ONE, MINUS_I, -ONE, I)  # (-i)^h by h mod 4


class OddPowerError(ValueError):
    """The jet-scaling substitution met a monomial of odd total jet weight."""


Bidegree = namedtuple("Bidegree", "grade weight")


class DiffMonomial(namedtuple("DiffMonomial", "uexp hbar", defaults=((), 0))):
    """A product of jet variables and a power of hbar (coefficient-free)."""

    __slots__ = ()

    @staticmethod
    def make(uexp=(), hbar: int = 0) -> DiffMonomial:
        items = uexp.items() if isinstance(uexp, dict) else uexp
        merged: dict[int, int] = {}
        for s, e in items:
            if s < 0:
                raise ValueError(f"negative jet index {s}")
            if e:
                merged[s] = merged.get(s, 0) + e
        if hbar < 0:
            raise ValueError(f"negative hbar exponent {hbar}")
        if any(e < 0 for e in merged.values()):
            raise ValueError("negative jet exponent")
        clean = tuple(sorted((s, e) for s, e in merged.items() if e))
        return DiffMonomial(clean, hbar)

    def grade(self) -> int:
        return sum(s * e for s, e in self.uexp) - 2 * self.hbar

    def weight(self) -> int:
        return sum((s + 1) * e for s, e in self.uexp)

    def udegree(self) -> int:
        return sum(e for _, e in self.uexp)

    def jet_weight(self) -> int:
        """Total jet weight sum_s s * exponent(u_s), hbar ignored."""
        return sum(s * e for s, e in self.uexp)

    def jets(self) -> tuple[int, ...]:
        """Jet indices with multiplicity, ascending: u_0 u_2 -> (0, 2)."""
        out: list[int] = []
        for s, e in self.uexp:
            out.extend([s] * e)
        return tuple(out)

    def sort_key(self) -> tuple:
        return (self.hbar, self.udegree(), self.jets())

    def mul(self, other: DiffMonomial) -> DiffMonomial:
        return DiffMonomial.make(self.uexp + other.uexp, self.hbar + other.hbar)

    def exponent_of(self, s: int) -> int:
        for j, e in self.uexp:
            if j == s:
                return e
        return 0

    def __str__(self) -> str:
        parts = [f"u{s}" + (f"^{e}" if e > 1 else "") for s, e in self.uexp]
        if self.hbar:
            parts.append("hbar" + (f"^{self.hbar}" if self.hbar > 1 else ""))
        return "*".join(parts) if parts else "1"


_ONE_MONO = DiffMonomial()


class DiffPoly(SparseMap):
    """An exact polynomial in the jet variables and hbar.

    Unlike the other sparse types it is hashable (the hash is cached) and
    mixes with int, Fraction and Scalar constants in ``+``, ``-`` and ``==``.
    """

    __slots__ = ("_hash",)

    # -- constructors --------------------------------------------------

    @staticmethod
    def const(c) -> DiffPoly:
        return DiffPoly({_ONE_MONO: as_scalar(c)})

    @staticmethod
    def one() -> DiffPoly:
        return DiffPoly.const(1)

    @staticmethod
    def u(s: int, exp: int = 1) -> DiffPoly:
        return DiffPoly({DiffMonomial.make({s: exp}): ONE})

    @staticmethod
    def hbar(exp: int = 1) -> DiffPoly:
        return DiffPoly({DiffMonomial.make((), exp): ONE})

    @staticmethod
    def term(c, uexp=(), hbar: int = 0) -> DiffPoly:
        return DiffPoly({DiffMonomial.make(uexp, hbar): as_scalar(c)})

    @staticmethod
    def _coerce(x):
        if isinstance(x, (int, Fraction, Scalar)):
            return DiffPoly.const(x)
        return NotImplemented

    # -- views ----------------------------------------------------------

    def terms_sorted(self) -> list[tuple[DiffMonomial, Scalar]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def coefficient(self, mono: DiffMonomial) -> Scalar:
        return self._terms.get(mono, Scalar())

    def monomial_count(self) -> int:
        return len(self._terms)

    def max_jet(self) -> int:
        """Largest jet index appearing, -1 for jet-free polynomials."""
        return max((m.uexp[-1][0] for m in self._terms if m.uexp), default=-1)

    # -- arithmetic -----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return DiffPoly(
            accumulate(
                (m1.mul(m2), c1 * c2)
                for m1, c1 in self._terms.items()
                for m2, c2 in other._terms.items()
            )
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(as_scalar(other).inverse())
        return NotImplemented

    def __pow__(self, n: int) -> DiffPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("DiffPoly powers take nonnegative integers")
        out = DiffPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- hbar bookkeeping ------------------------------------------------

    def hbar_coefficient(self, g: int) -> DiffPoly:
        """The coefficient of hbar^g, with the hbar factor removed."""
        terms = self._terms.items()
        return DiffPoly({DiffMonomial(m.uexp): c for m, c in terms if m.hbar == g})

    def hbar_truncate(self, gmax: int) -> DiffPoly:
        return DiffPoly({m: c for m, c in self._terms.items() if m.hbar <= gmax})

    def max_hbar(self) -> int:
        return max((m.hbar for m in self._terms), default=0)

    # -- hashing and display -----------------------------------------------

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self._terms.items()))
            return self._hash

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{c}*{m}" for m, c in self.terms_sorted())


# -- derivations ---------------------------------------------------------


def leibniz(uexp: tuple):
    """The one Leibniz loop: yields (jet exponents, factor) per term of dx."""
    for i, (s, e) in enumerate(uexp):
        head, rest = uexp[:i] + ((s, e - 1),) * (e > 1), uexp[i + 1 :]
        bump = bool(rest) and rest[0][0] == s + 1  # u_(s+1) is already there
        yield head + ((s + 1, rest[0][1] + 1 if bump else 1),) + rest[bump:], e


def dx(f: DiffPoly) -> DiffPoly:
    """Total x-derivative: the derivation sending u_s to u_{s+1}."""
    return DiffPoly(
        accumulate(
            (DiffMonomial(uexp, mono.hbar), Scalar(c.re * e, c.im * e))
            for mono, c in f.terms()
            for uexp, e in leibniz(mono.uexp)
        )
    )


def partial_u(f: DiffPoly, s: int) -> DiffPoly:
    """Formal partial derivative with respect to u_s."""
    if s < 0:
        raise ValueError(f"negative jet index {s}")
    pairs = []
    for mono, c in f.terms():
        e = mono.exponent_of(s)
        if e:
            rest = [(j, x - 1 if j == s else x) for j, x in mono.uexp]
            pairs.append((DiffMonomial.make(rest, mono.hbar), Scalar(c.re * e, c.im * e)))
    return DiffPoly(accumulate(pairs))


def variational_derivative(f: DiffPoly) -> DiffPoly:
    """Euler operator sum_s (-dx)^s (d f / d u_s).

    Its kernel is exactly total derivatives plus constants, which is what
    makes it the membership test for functional equality.
    """
    out = DiffPoly.zero()
    # Horner in -dx: one dx per jet index
    for s in range(f.max_jet(), -1, -1):
        out = partial_u(f, s) - dx(out)
    return out


def bidegree_of(f: DiffPoly) -> Bidegree | None:
    """Common (grade, weight) of all monomials, or None if mixed or zero."""
    found: Bidegree | None = None
    for mono, _ in f.terms():
        bd = Bidegree(mono.grade(), mono.weight())
        if found is None:
            found = bd
        elif bd != found:
            return None
    return found


def is_homogeneous(f: DiffPoly, grade: int, weight: int) -> bool:
    """True when every monomial has the given bidegree (zero passes)."""
    return all(
        m.grade() == grade and m.weight() == weight for m, _ in f.terms()
    )


def scale_substitute(f: DiffPoly) -> DiffPoly:
    """Substitute u_j -> lam^j u_j with lam^2 = -i*hbar.

    Each monomial acquires lam^t where t is its total jet weight; t must be
    even, so the result picks up (-i*hbar)^(t/2) and no radical is ever
    stored.  Odd t raises :class:`OddPowerError`.
    """
    out = {}
    for mono, c in f.terms():
        t = mono.jet_weight()
        if t % 2:
            raise OddPowerError(f"odd total jet weight {t} in monomial {mono}")
        # u_j -> lam^j u_j keeps the jets, so distinct monomials stay distinct
        out[DiffMonomial(mono.uexp, mono.hbar + t // 2)] = phased(c, t // 2)
    return DiffPoly(out)


def phased(c: Scalar, h: int) -> Scalar:
    """c * (-i)^h as a swap: (re, im) -> (re, im), (im, -re), (-re, -im), (-im, re)."""
    re, im = (c.im, -c.re) if h % 2 else c
    return Scalar(-re, -im) if h % 4 > 1 else Scalar(re, im)


def unphased(mono: DiffMonomial, c: Scalar) -> Fraction | None:
    """The real x with c = x * (-i)^h, h the hbar power of mono; None if none."""
    x = phased(c, -mono.hbar)
    return None if x.im else x.re


# -- serialization ---------------------------------------------------------


def to_json_dict(f: DiffPoly) -> dict:
    terms = []
    for mono, c in f.terms_sorted():
        terms.append(
            {
                "c": {"re": str(c.re), "im": str(c.im)},
                "hbar": mono.hbar,
                "u": {str(s): e for s, e in mono.uexp},
            }
        )
    return {"terms": terms}


def from_json_dict(d: dict) -> DiffPoly:
    """Parse :func:`to_json_dict` output; numbers must be exact: str or int."""
    pairs = []
    for entry in d["terms"]:
        c, uexp, hbar = entry["c"], entry["u"], entry["hbar"]
        exact = {type(c["re"]), type(c["im"])} == {str}
        if not exact or {type(hbar), *map(type, uexp.values())} != {int}:
            raise TypeError(f"inexact or mistyped term {entry!r}")
        mono = DiffMonomial.make({int(s): e for s, e in uexp.items()}, hbar)
        pairs.append((mono, Scalar(Fraction(c["re"]), Fraction(c["im"]))))
    return DiffPoly(accumulate(pairs))


def to_json(f: DiffPoly) -> str:
    return json.dumps(to_json_dict(f), separators=(",", ":"))


def from_json(s: str) -> DiffPoly:
    return from_json_dict(json.loads(s))
