"""Small exact linear algebra over Q and the Gaussian rationals.

The systems that arise here (image-of-dx components, reconstruction
constraints) have at most a few hundred rows and mostly zero entries, so
Gauss-Jordan elimination that touches only the nonzero entries of each pivot
row is both exact and fast.  Rows are lists of :class:`~qkdv.scalars.Scalar`
or of :class:`~fractions.Fraction`; a pivot is inverted as ``Fraction(1) / x``,
so no float can appear.  All functions leave their inputs untouched.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ONE, ZERO, Scalar

Row = list[Scalar]


def rref(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form.

    Returns the nonzero reduced rows and the pivot column of each, in order.
    """
    work = [list(r) for r in rows if any(r)]
    reduced: list[Row] = []
    pivots: list[int] = []
    for col in range(len(work[0]) if work else 0):
        i = next((i for i, r in enumerate(work) if r[col]), None)
        if i is None:
            continue
        pivot_row = work.pop(i)
        inv = Fraction(1) / pivot_row[col]
        pivot_row = [x * inv if x else x for x in pivot_row]
        support = [(j, b) for j, b in enumerate(pivot_row) if b]
        for r in work + reduced:
            _eliminate(r, col, support)
        reduced.append(pivot_row)
        pivots.append(col)
    return reduced, pivots


def _eliminate(r: Row, col: int, support) -> None:
    """Clear r[col] in place against a pivot row that is 1 at col, given by
    its nonzero (column, entry) pairs."""
    factor = r[col]
    if factor:
        for j, b in support:
            r[j] = r[j] - factor * b


def _kernel(reduced: list[Row], pivots: list[int], ncols: int) -> list[Row]:
    """Right-kernel basis of the first ``ncols`` columns of a reduced form.

    A pivot at column ``ncols`` or beyond (an augmented column) adds nothing.
    """
    pivot_set = set(pivots)
    basis: list[Row] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for row, piv in zip(reduced, pivots):
            if piv < ncols:
                vec[piv] = -row[free]
        basis.append(vec)
    return basis


def solve_affine(
    rows: list[Row], rhs: list[Scalar], ncols: int
) -> tuple[list[Scalar] | None, list[Row]]:
    """Solve A x = rhs exactly.

    Returns ``(particular, kernel_basis)``; particular is None when the
    system is inconsistent.  The particular solution is the one with zero
    free coordinates, so it is deterministic.  ``ncols`` must be passed
    explicitly so that an empty row list still reports the full kernel.
    One elimination of the augmented matrix yields both results.
    """
    reduced, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    kernel = _kernel(reduced, pivots, ncols)
    if pivots and pivots[-1] == ncols:
        return None, kernel
    x = [ZERO] * ncols
    for row, piv in zip(reduced, pivots):
        x[piv] = row[ncols]
    return x, kernel


def reduce_against(vec: Row, reduced: list[Row], pivots: list[int]) -> Row:
    """Subtract the projection of ``vec`` onto the row space of ``reduced``."""
    out = list(vec)
    for row, piv in zip(reduced, pivots):
        if out[piv]:
            _eliminate(out, piv, [(j, b) for j, b in enumerate(row) if b])
    return out
