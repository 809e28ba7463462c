"""Small exact linear algebra over Q.

The systems that arise here (image-of-dx components, reconstruction
constraints) have at most a few thousand rows and mostly zero entries, so
Gauss-Jordan elimination that touches only the nonzero entries of each pivot
row is both exact and fast.  Rows are lists of :class:`~fractions.Fraction`;
a pivot is inverted as ``Fraction(1) / x``, so no float can appear.  All
functions leave their inputs untouched.

An affine system A x + c = 0 is passed as its augmented rows [A | c], and one
elimination gives what its callers read: one solution and the nullity of A,
never a kernel basis.
"""

from __future__ import annotations

from fractions import Fraction

Row = list[Fraction]


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


def solve_affine(rows: list[Row], ncols: int) -> tuple[Row | None, int]:
    """Solve A x + c = 0 exactly, given its augmented rows [A | c].

    Returns ``(particular, nullity)``.  particular is None when the system is
    inconsistent (a pivot lands in column ``ncols``); otherwise it is the
    solution with zero free coordinates, so it is deterministic.  nullity is
    the dimension of the kernel of A, ``ncols`` minus its pivots; ``ncols``
    is passed so that an empty row list still reports it.  The reduced form,
    and so the result, does not depend on the order of the rows.
    """
    reduced, pivots = rref(rows)
    rank = sum(1 for piv in pivots if piv < ncols)
    if rank < len(pivots):
        return None, ncols - rank
    x = [Fraction(0)] * ncols
    for row, piv in zip(reduced, pivots):
        x[piv] = -row[ncols]
    return x, ncols - rank


def reduce_against(vec: Row, reduced: list[Row], pivots: list[int]) -> Row:
    """Subtract the projection of ``vec`` onto the row space of ``reduced``."""
    out = list(vec)
    for row, piv in zip(reduced, pivots):
        if out[piv]:
            _eliminate(out, piv, [(j, b) for j, b in enumerate(row) if b])
    return out
