"""Exact integer linear algebra on sparse rows, and a zero-cost dual simplex.

A matching equation holds two or three nonzeros, so a system is a list of
sparse rows: a row is its nonzero `(column, coefficient)` pairs in column
order, and elimination works on a `{column: int}` copy.  It is fraction-free
Gauss-Jordan with first-nonzero pivoting (Edmonds 1967), and it touches
only the rows with a nonzero in the pivot column: such a row becomes
`p*row - row[c]*pivot_row`, for the pivot p > 0, divided by its content
rather than by a common previous pivot as in Bareiss (1968).  Each row thus
keeps its own positive scale, so the sign of every entry and the ratio of
any two entries of a row are those of the rational row, whatever the other
rows did.  One `rref` serves both readers: the kernel basis is read off its
rows, and the simplex starts from its pivots.  No fraction is built until
a witness is read off, one `Fraction(-a - rhs, a)` per basic entry from its
row's own pivot a.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

Row = dict[int, int]
SparseRow = Sequence[tuple[int, int]]


class InvariantViolation(RuntimeError):
    """An internal consistency check failed.  Raised explicitly, so the
    check also runs under `python -O`."""


def _eliminate(rows: list[Row], r: int, c: int, holders: Sequence[int]) -> None:
    """Clear column c from rows[i] for each i in `holders`, the other rows
    holding c, by the pivot row rows[r], whose entry p at c is > 0.

    Each such row becomes (p*row - row[c]*rows[r]) / g, g > 0 the gcd of its
    entries, in place; no other row is read or written.
    """
    prow = rows[r]
    p = prow[c]
    for i in holders:
        row = rows[i]
        f = row[c]
        if p != 1:
            for j in row:
                row[j] *= p
        for j, b in prow.items():
            a = row.get(j, 0) - f * b
            if a:
                row[j] = a
            else:
                del row[j]
        g = math.gcd(*row.values())
        if g > 1:
            rows[i] = {j: a // g for j, a in row.items()}


def rref(matrix: Sequence[SparseRow]) -> tuple[list[Row], list[int]]:
    """Integer reduced row echelon form with deterministic first-nonzero pivoting.

    Returns the nonzero reduced rows as `{column: int}` dicts and the pivot
    column of each: row i holds a positive entry at pivots[i] and none at
    the other pivot columns, and divided by that entry it is row i of the
    rational RREF.  Entries must be integers.
    """
    rows = [{j: operator.index(a) for j, a in row if a} for row in matrix]
    pivots: list[int] = []
    # Elimination never fills a column no input row holds.
    for c in sorted({j for row in rows for j in row}):
        # The first row at or below row r holding c is the pivot row; every
        # other row holding c is cleared.
        r = len(pivots)
        pivot_row, holders = None, []
        for i, row in enumerate(rows):
            if c in row:
                if pivot_row is None and i >= r:
                    pivot_row = i
                else:
                    holders.append(i)
        if pivot_row is None:
            continue
        # Rows r..pivot_row-1 do not hold c, so the swap moves no holder.
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        if rows[r][c] < 0:
            rows[r] = {j: -a for j, a in rows[r].items()}
        _eliminate(rows, r, c, holders)
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows[: len(pivots)], pivots


def kernel_basis(reduced: Sequence[Row], pivots: Sequence[int], ncols: int) -> list[list[int]]:
    """Basis of the null space of the first `ncols` columns of a reduced
    system, as `rref` returns it, one vector per free column in column order.
    A column past `ncols`, such as a right-hand side, is ignored.

    Each basis vector is the primitive integer vector on its ray that is
    negative at its free column and zero at the other free columns.
    """
    pivot_set = set(pivots)
    basis: list[list[int]] = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        # x_f = -1 and x_c = row[f] / row[c] on each pivot row holding f,
        # scaled to integers by the lcm of those rows' pivots.
        holding = [(c, row) for c, row in zip(pivots, reduced) if f in row]
        scale = math.lcm(*(row[c] for c, row in holding))
        vec = [0] * ncols
        vec[f] = -scale
        for c, row in holding:
            vec[c] = row[f] * (scale // row[c])
        g = math.gcd(*vec)
        basis.append([x // g for x in vec] if g > 1 else vec)
    return basis


def negative_orthant_point(
    reduced: Sequence[Row], pivots: Sequence[int], ncols: int
) -> list[Fraction] | None:
    """Find exact x with A x = 0 and every x_i <= -1, or None if infeasible.

    Substituting x = -1 - y turns the problem into A y = -A.1 with y >= 0.
    `reduced` and `pivots` are `rref` of [A | -A.1], the right-hand side in
    column `ncols`; they are read, not changed.  The pivots are a basis of
    that system, and a dual simplex with zero costs makes it feasible: while
    some row has a negative right-hand side, the one with the smallest basic
    column leaves, and the smallest column with a negative entry in it
    enters.  With zero costs every column ties in the dual ratio test, so
    this is Bland's rule on the dual and it terminates.  A leaving row with
    no negative entry is nonnegative on y and negative on the right, so no
    y >= 0 solves it: the system is infeasible.
    """
    tableau, basis = [dict(row) for row in reduced], list(pivots)
    while True:
        leaving = min(
            (i for i, row in enumerate(tableau) if row.get(ncols, 0) < 0),
            key=basis.__getitem__, default=None,
        )
        if leaving is None:
            break
        row = tableau[leaving]
        entering = min((j for j, a in row.items() if a < 0 and j < ncols), default=None)
        if entering is None:
            return None
        tableau[leaving] = {j: -a for j, a in row.items()}
        holders = [i for i, other in enumerate(tableau) if entering in other and i != leaving]
        _eliminate(tableau, leaving, entering, holders)
        basis[leaving] = entering
    x = [Fraction(-1)] * ncols
    for row, b in zip(tableau, basis):
        # y_b = rhs / a on the row's own pivot a, and x_b = -1 - y_b.
        a = row[b]
        x[b] = Fraction(-a - row.get(ncols, 0), a)
    return x
