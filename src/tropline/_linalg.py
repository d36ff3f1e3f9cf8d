"""Exact integer linear algebra on sparse rows, and a tiny Bland-rule simplex.

A matching equation holds two or three nonzeros, so a system is a list of
sparse rows: a row is its nonzero `(column, coefficient)` pairs in column
order, and elimination works on a `{column: int}` copy.  It is fraction-free
Gauss-Jordan with first-nonzero pivoting (Edmonds 1967), and it touches
only the rows with a nonzero in the pivot column: such a row becomes
`p*row - row[c]*pivot_row`, for the pivot p > 0, divided by its content
rather than by a common previous pivot as in Bareiss (1968).  Each row thus
keeps its own positive scale, so the sign of every entry and the ratio of
any two entries of a row are those of the rational row, whatever the other
rows did.  No fraction is built until a witness is read off, one
`Fraction(-a - rhs, a)` per basic entry from its row's own pivot a.
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


def kernel_basis(matrix: Sequence[SparseRow], ncols: int) -> list[list[int]]:
    """Basis of the null space, one vector per free column, in column order.

    Each basis vector is the primitive integer vector on its ray that is
    negative at its free column and zero at the other free columns.
    """
    reduced, pivots = rref(matrix)
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


def negative_orthant_point(rows: Sequence[SparseRow], ncols: int) -> list[Fraction] | None:
    """Find exact x with A x = 0 and every x_i <= -1, or None if infeasible.

    Substituting x = -1 - y turns the problem into A y = -A.1 with y >= 0,
    a standard-form phase 1: each row is signed so its right-hand side is
    non-negative, gets one artificial column, and a Bland-rule simplex on
    the sparse integer tableau minimizes the artificial sum.
    """
    nrows = len(rows)
    width = ncols + nrows  # the right-hand side column
    tableau: list[Row] = []
    for i, row in enumerate(rows):
        total = sum(a for _, a in row)
        line = {j: -a if total > 0 else a for j, a in row}
        line[ncols + i] = 1
        if total:
            line[width] = abs(total)
        tableau.append(line)
    basis = [ncols + i for i in range(nrows)]
    # The last row holds the reduced costs of the phase-1 objective (1 on
    # artificial columns, with the artificial basis priced out), and its
    # right-hand side is minus the objective.  Like every row it keeps a
    # positive scale, so its signs are those of the rationals.
    cost: Row = {}
    for line in tableau:
        for j, a in line.items():
            if j < ncols or j == width:
                cost[j] = cost.get(j, 0) - a
    tableau.append({j: a for j, a in cost.items() if a})

    while True:
        entering = min((j for j, a in tableau[nrows].items() if a < 0 and j < width), default=None)
        if entering is None:
            break
        holders = [i for i, line in enumerate(tableau) if entering in line]
        leaving = None
        for i in holders[:-1]:  # the last holder is the cost row
            a = tableau[i][entering]
            if a > 0:
                rhs = tableau[i].get(width, 0)
                # rhs_i / a < rhs_l / a_l, ties to the smaller basis index.
                if leaving is None or (rhs * lead, basis[i]) < (lead_rhs * a, basis[leaving]):
                    leaving, lead, lead_rhs = i, a, rhs
        _eliminate(tableau, leaving, entering, [i for i in holders if i != leaving])
        basis[leaving] = entering

    if width in tableau[nrows]:
        return None
    x = [Fraction(-1)] * ncols
    for line, b in zip(tableau, basis):
        if b < ncols:
            # y_b = rhs / a on the row's own pivot a, and x_b = -1 - y_b.
            a = line[b]
            x[b] = Fraction(-a - line.get(width, 0), a)
    return x
