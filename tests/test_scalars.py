"""Exact Gaussian-rational arithmetic and the shared sparse-map contract."""

import json
from fractions import Fraction

import pytest
from hypothesis import given

from qkdv import (
    DiffPoly, FockVector, Partition, Scalar, SectorScalar, as_scalar, from_json,
)
from qkdv.diffpoly import DiffMonomial
from qkdv.scalars import I, ONE, SparseMap

from conftest import small_scalar


def test_constructors_and_predicates():
    z = Scalar.of("1/6", -2)
    assert z.re == Fraction(1, 6) and z.im == Fraction(-2)
    assert z.im and not z.is_zero()
    assert Scalar().is_zero()
    assert not Scalar.of(5).im
    assert bool(Scalar.of(0, 1)) and not bool(Scalar())


def test_i_squares_to_minus_one():
    assert I * I == Scalar.of(-1)
    assert I**4 == ONE
    assert I**-1 == -I


def test_mixed_arithmetic_with_ints_and_fractions():
    z = Scalar.of(1, 1)
    assert 2 * z == Scalar.of(2, 2)
    assert z + Fraction(1, 2) == Scalar.of("3/2", 1)
    assert 1 - z == Scalar.of(0, -1)
    assert z / 2 == Scalar.of("1/2", "1/2")
    assert 2 / Scalar.of(0, 1) == Scalar.of(0, -2)


def test_as_scalar_coercions():
    assert as_scalar(3) == Scalar.of(3)
    assert as_scalar(Fraction(2, 4)) == Scalar.of("1/2")
    s = Scalar.of(1, 2)
    assert as_scalar(s) is s
    with pytest.raises(TypeError):
        as_scalar(0.5)


@pytest.mark.parametrize(
    "text, value",
    [("-1/7", Fraction(-1, 7)), (" 1/2 ", Fraction(1, 2)), ("0.5", None),
     ("1e400", None)],
)
def test_scalar_of_and_from_json_read_the_same_spellings(text, value):
    # one reader of rational text: "p" or "p/q" in integers, nothing else
    term = {"c": {"re": text, "im": text}, "hbar": 0, "u": {"0": 1}}
    document = json.dumps({"terms": [term]})
    if value is None:
        with pytest.raises(ValueError):
            Scalar.of(text)
        with pytest.raises(ValueError):
            Scalar.of(0, text)
        with pytest.raises(ValueError):
            from_json(document)
    else:
        assert Scalar.of(text, text) == Scalar(value, value)
        assert from_json(document) == DiffPoly.term(Scalar(value, value), {0: 1})


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Scalar().inverse()


@given(small_scalar, small_scalar, small_scalar)
def test_field_identities(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@given(small_scalar)
def test_inverse_and_conjugate(a):
    assert a * a.inverse() == ONE
    norm = a * Scalar(a.re, -a.im)
    assert not norm.im and norm.re > 0


@given(small_scalar)
def test_pow_matches_repeated_product(a):
    prod = ONE
    for k in range(5):
        assert a**k == prod
        prod = prod * a
    assert a**-2 == (a * a).inverse()


# One sample of each sparse type, a key it does not store, and its zero coefficient.
SPARSE_SAMPLES = {
    "DiffPoly": lambda: (
        DiffPoly.term(3, {0: 2}) + DiffPoly.term(I, {1: 1}, hbar=1),
        DiffMonomial.make({2: 1}),
        Scalar(),
    ),
    "SectorScalar": lambda: (
        SectorScalar.monomial(2, 1, 0) + SectorScalar.monomial(I, 0, 2),
        (3, 3),
        Scalar(),
    ),
    "FockVector": lambda: (
        FockVector(
            {
                Partition.make([2, 1]): SectorScalar.monomial(1, 1, 0),
                Partition(): SectorScalar.one(),
            }
        ),
        Partition.make([3]),
        SectorScalar.zero(),
    ),
}


@pytest.mark.parametrize("kind", sorted(SPARSE_SAMPLES))
def test_sparse_map_contract(kind):
    x, fresh_key, zero = SPARSE_SAMPLES[kind]()
    cls = type(x)
    assert isinstance(x, SparseMap) and len(x) == 2
    # cancellation leaves nothing stored
    assert not (x - x) and (x - x) == cls.zero() and len(x - x) == 0
    assert x + (-x) == cls.zero() and -(-x) == x
    assert x.scale(2) == x + x and not x.scale(0)
    # the constructor drops zeros
    padded = cls({**dict(x.terms()), fresh_key: zero})
    assert padded == x and len(padded) == 2 and fresh_key not in dict(padded.terms())
    assert len(cls({fresh_key: zero})) == 0
    # different sparse types never compare equal or add
    for other_kind, sample in SPARSE_SAMPLES.items():
        if other_kind == kind:
            continue
        other = sample()[0]
        assert (x == other) is False and x != other
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)
    copy = cls(dict(x.terms()))
    assert copy == x and copy is not x
    if cls is DiffPoly:
        assert hash(copy) == hash(x) and len({x, copy, x + 0}) == 1
        assert x + 1 == x + DiffPoly.one() and 1 + x == x + 1
        assert 1 - x == -(x - 1) and x - x == 0 and DiffPoly.zero() == 0
    else:
        with pytest.raises(TypeError):
            hash(x)
