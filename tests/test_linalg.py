"""Exact affine solves: particular solution and kernel from one elimination."""

from qkdv.linalg import nullspace, solve_affine
from qkdv.scalars import ONE, ZERO, Scalar


def row(*xs):
    return [Scalar.of(x) for x in xs]


def test_unique_solution():
    # x + y = 3, x - y = 1
    x, kernel = solve_affine([row(1, 1), row(1, -1)], row(3, 1), 2)
    assert x == row(2, 1) and kernel == []


def test_solution_plus_kernel():
    # x + 2y + 3z = 6 and 2x + 4y + 6z = 12 leave y and z free
    rows = [row(1, 2, 3), row(2, 4, 6)]
    x, kernel = solve_affine(rows, row(6, 12), 3)
    assert x == row(6, 0, 0)
    assert kernel == [row(-2, 1, 0), row(-3, 0, 1)]
    assert kernel == nullspace(rows, 3)
    for vec in kernel:
        assert all(sum((a * b for a, b in zip(r, vec)), ZERO) == ZERO for r in rows)


def test_inconsistent_returns_none_and_kernel():
    # x + y = 1 and x + y = 2
    x, kernel = solve_affine([row(1, 1), row(1, 1)], row(1, 2), 2)
    assert x is None
    assert kernel == [row(-1, 1)]


def test_no_rows_gives_the_full_kernel():
    x, kernel = solve_affine([], [], 3)
    assert x == [ZERO] * 3
    assert kernel == [
        [ONE if i == j else ZERO for j in range(3)] for i in range(3)
    ]
