"""Small dense exact linear algebra over the Gaussian rationals.

The systems that arise here (image-of-dx components, reconstruction
constraints) have at most a few hundred rows and a handful of columns, so
plain Gauss-Jordan elimination over :class:`~qkdv.scalars.Scalar` is both
exact and fast.  Rows are lists of Scalars; all functions leave their inputs
untouched.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, Scalar

Row = list[Scalar]


def rref(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form.

    Returns the nonzero reduced rows and the pivot column of each, in order.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return [], []
    ncols = len(work[0])
    reduced: list[Row] = []
    pivots: list[int] = []
    for col in range(ncols):
        pivot_row = None
        for r in work:
            if r[col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work.remove(pivot_row)
        inv = pivot_row[col].inverse()
        pivot_row = [x * inv for x in pivot_row]
        for rows_list in (work, reduced):
            for i, r in enumerate(rows_list):
                if r[col]:
                    factor = r[col]
                    rows_list[i] = [
                        a - factor * b for a, b in zip(r, pivot_row)
                    ]
        work = [r for r in work if any(r)]
        reduced.append(pivot_row)
        pivots.append(col)
        if not work:
            break
    return reduced, pivots


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


def nullspace(rows: list[Row], ncols: int) -> list[Row]:
    """A basis of the right kernel, one vector per free column."""
    return _kernel(*rref(rows), ncols)


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
            factor = out[piv]
            out = [a - factor * b for a, b in zip(out, row)]
    return out
