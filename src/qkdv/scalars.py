"""Exact Gaussian-rational scalars.

Density and Fock coefficients live in Q(i): numbers ``re + im*i`` with
arbitrary-precision rational components.  Components are
:class:`fractions.Fraction`, so they are always reduced with a positive
denominator; structural equality is value equality and hashing is safe.
No floating point appears anywhere, and rational text has one reader,
:func:`parse_rational`: ``p`` or ``p/q`` in integers.

:class:`SparseMap` is the one sparse coefficient type underneath densities
(``DiffPoly``), Fock amplitudes (``SectorScalar``) and states
(``FockVector``): a finite map from keys to coefficients that never stores a
zero.  Its constructor is the one place zeros are dropped, so structural
equality of the stored dicts is value equality.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    # "p" or "p/q" only: Fraction("1e999999999") would compute 10**999999999
    num, slash, den = text.partition("/")
    return Fraction(int(num), int(den) if slash else 1)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class Scalar(namedtuple("Scalar", "re im", defaults=(Fraction(0), Fraction(0)))):
    """A Gaussian rational ``re + im*i`` with exact Fraction components."""

    __slots__ = ()

    @staticmethod
    def of(re, im=0) -> Scalar:
        """Build a Scalar from ints, Fractions or ``p``/``p/q`` strings like "1/6"."""
        return Scalar(_frac(re), _frac(im))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> Scalar:
        return Scalar(-self.re, -self.im)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> Scalar:
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero Scalar")
        return Scalar(self.re / n, -self.im / n)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> Scalar:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}*i"
        return f"({self.re}{sign}{imag})"


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(_frac(x))
    return NotImplemented


def as_scalar(x) -> Scalar:
    s = _coerce(x)
    if s is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as a Scalar")
    return s


def accumulate(pairs, out=None) -> dict:
    """Sum ``(key, value)`` pairs into ``out`` (a new dict when omitted).

    Sums that cancel stay stored as zeros: the :class:`SparseMap`
    constructor drops them, so the no-stored-zero rule lives in one place.
    """
    out = {} if out is None else out
    for key, value in pairs:
        acc = out.get(key)
        out[key] = value if acc is None else acc + value
    return out


class SparseMap:
    """A finite map from keys to nonzero coefficients, with linear arithmetic.

    Subclasses fix the key and coefficient types and add their own
    constructors, products and rendering.  Arithmetic between two different
    sparse types is refused: ``==`` is False and ``+`` raises TypeError.
    """

    __slots__ = ("_terms",)
    __hash__ = None

    def __init__(self, terms: dict | None = None):
        self._terms = {k: v for k, v in terms.items() if v} if terms else {}

    @staticmethod
    def _coerce(other):
        """``other`` as this type, or NotImplemented; subclasses may widen it."""
        return NotImplemented

    # the coefficient type's coercion, used by scale
    _as_factor = staticmethod(as_scalar)

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self):
        """Iterate over (key, coefficient) pairs in storage order."""
        return iter(self._terms.items())

    def terms_sorted(self) -> list:
        """(key, coefficient) pairs in ascending key order."""
        return sorted(self._terms.items())

    def __add__(self, other):
        if type(other) is not type(self):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return type(self)(accumulate(other._terms.items(), dict(self._terms)))

    __radd__ = __add__

    def __neg__(self):
        return type(self)({k: -v for k, v in self._terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def scale(self, c):
        c = self._as_factor(c)
        if not c:
            return type(self)()
        return type(self)({k: v * c for k, v in self._terms.items()})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


ZERO = Scalar()
ONE = Scalar(Fraction(1))
I = Scalar(Fraction(0), Fraction(1))
MINUS_I = Scalar(Fraction(0), Fraction(-1))
