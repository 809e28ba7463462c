"""Exact affine solves: a particular solution and the nullity from one elimination
of the augmented rows [A | c] of A x + c = 0."""

import sympy
from hypothesis import given
from hypothesis import strategies as st

from qkdv.linalg import solve_affine
from qkdv.scalars import ZERO, Scalar


def row(*xs):
    return [Scalar.of(x) for x in xs]


def test_unique_solution():
    # x + y - 3 = 0, x - y - 1 = 0
    rows = [row(1, 1, -3), row(1, -1, -1)]
    assert solve_affine(rows, 2) == (row(2, 1), 0)
    assert rows == [row(1, 1, -3), row(1, -1, -1)]  # inputs are untouched


def test_solution_plus_kernel():
    # x + 2y + 3z - 6 = 0 twice over leaves y and z free; they read zero
    x, nullity = solve_affine([row(1, 2, 3, -6), row(2, 4, 6, -12)], 3)
    assert x == row(6, 0, 0)
    assert nullity == 2


def test_inconsistent_returns_none_and_kernel():
    # x + y = 1 and x + y = 2: the pivot lands in the augmented column
    assert solve_affine([row(1, 1, -1), row(1, 1, -2)], 2) == (None, 1)


def test_no_rows_gives_the_full_kernel():
    assert solve_affine([], 3) == ([ZERO] * 3, 3)


@st.composite
def augmented_systems(draw):
    """(rows, shuffled rows, ncols) of a small integer system [A | c]."""
    ncols = draw(st.integers(min_value=1, max_value=4))
    entries = st.integers(min_value=-2, max_value=2)
    rows = draw(st.lists(
        st.lists(entries, min_size=ncols + 1, max_size=ncols + 1), max_size=5
    ))
    return rows, draw(st.permutations(rows)), ncols


@given(augmented_systems())
def test_solve_agrees_with_sympy(system):
    rows, shuffled, ncols = system
    particular, nullity = solve_affine([row(*r) for r in rows], ncols)
    a = sympy.Matrix(len(rows), ncols, [x for r in rows for x in r[:ncols]])
    ac = sympy.Matrix(len(rows), ncols + 1, [x for r in rows for x in r])
    assert nullity == ncols - a.rank()
    assert (particular is None) == (ac.rank() > a.rank())
    if particular is not None:
        for r in rows:
            total = sum((Scalar.of(b) * x for b, x in zip(r, particular)), ZERO)
            assert total + Scalar.of(r[ncols]) == ZERO
    assert solve_affine([row(*r) for r in shuffled], ncols) == (particular, nullity)
