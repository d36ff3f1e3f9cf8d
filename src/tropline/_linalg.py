"""Exact integer linear algebra and a tiny Bland-rule simplex.

Every elimination runs on an integer tableau through one fraction-free
Gauss-Jordan step (Edmonds 1967; Bareiss 1968), so no fraction is built
until a witness is read off, one `Fraction(-d - rhs, d)` per basic entry.  Sizes here are small (a handful of variables
per matching system), so the implementations favour clarity and
determinism over asymptotics.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence


class InvariantViolation(RuntimeError):
    """An internal consistency check failed.  Raised explicitly, so the
    check also runs under `python -O`."""


def _pivot(rows: list[list[int]], r: int, c: int, d: int) -> int:
    """Fraction-free Gauss-Jordan step on the pivot p = rows[r][c] > 0.

    Every other row becomes (p*row - row[c]*rows[r]) // d, where d is the
    previous pivot; the division is exact, and every pivot column then
    holds p, which is returned as the next d.
    """
    p, prow = rows[r][c], rows[r]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
    return p


def rref(matrix: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Integer reduced row echelon form with deterministic first-nonzero pivoting.

    Returns the reduced rows (zero rows dropped), the pivot column list and
    the common pivot d > 0: each pivot column holds d in its own row and 0
    elsewhere, and the rows divided by d are the rational RREF.  Entries
    must be integers.
    """
    rows = [[operator.index(x) for x in row] for row in matrix]
    pivots: list[int] = []
    d = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        d = _pivot(rows, r, c, d)
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows[: len(pivots)], pivots, d


def rank(matrix: Sequence[Sequence[int]]) -> int:
    return len(rref(matrix)[1])


def kernel_basis(matrix: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Basis of the null space, one vector per free column, in column order.

    Each basis vector is the primitive integer vector on its ray that is
    negative at its free column and zero at the other free columns.
    """
    reduced, pivots, d = rref(matrix)
    basis: list[list[int]] = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [0] * ncols
        vec[f] = -d
        for r, c in enumerate(pivots):
            vec[c] = reduced[r][f]
        g = math.gcd(*vec)
        basis.append([x // g for x in vec])
    return basis


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, s, t) with g = s*a + t*b and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def lattice_canonical(vectors: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Canonical basis of the sublattice of Z^2 spanned by `vectors`.

    The result is independent of the generating set: empty for the zero
    lattice, a single sign-normalized vector for rank one, and a Hermite
    pair ((d1, y0), (0, g2)) with 0 <= y0 < g2 for rank two.
    """
    vecs = [(int(a), int(b)) for a, b in vectors if (a, b) != (0, 0)]
    if not vecs:
        return ()
    if all(a == 0 for a, _ in vecs):
        g2 = 0
        for _, b in vecs:
            g2 = math.gcd(g2, b)
        return ((0, g2),)
    # Combine into one vector (d1, y0) whose first entry is the gcd of all
    # first entries, collecting the induced second coordinates.
    d, y = 0, 0
    for a, b in vecs:
        g, s, t = xgcd(d, a)
        y = s * y + t * b
        d = g
    # d and g2 are gcds, so no sign needs normalizing.
    g2 = 0
    for a, b in vecs:
        g2 = math.gcd(g2, b - a // d * y)
    if g2 == 0:
        return ((d, y),)
    y %= g2
    return ((d, y), (0, g2))


def negative_orthant_point(rows: Sequence[Sequence[int]], ncols: int) -> list[Fraction] | None:
    """Find exact x with A x = 0 and every x_i <= -1, or None if infeasible.

    Substituting x = -1 - y turns the problem into A y = -A.1 with y >= 0,
    a standard-form phase 1: each row is signed so its right-hand side is
    non-negative, gets one artificial column, and a Bland-rule simplex on
    the integer tableau minimizes the artificial sum.
    """
    if ncols == 0:
        return []
    nrows = len(rows)
    width = ncols + nrows
    tableau: list[list[int]] = []
    for i, row in enumerate(rows):
        sign = -1 if sum(row) > 0 else 1
        line = [sign * a for a in row] + [0] * (nrows + 1)
        line[ncols + i] = 1
        line[width] = -sum(line[:ncols])
        tableau.append(line)
    basis = [ncols + i for i in range(nrows)]
    # The last row holds the reduced costs of the phase-1 objective (1 on
    # artificial columns, with the artificial basis priced out), scaled by
    # d > 0 like every other row, so their signs are those of the rationals.
    cost = [0] * ncols + [1] * nrows + [0]
    for line in tableau:
        cost = [c - x for c, x in zip(cost, line)]
    tableau.append(cost)
    d = 1

    while True:
        entering = next((j for j in range(width) if tableau[nrows][j] < 0), None)
        if entering is None:
            break
        leaving = None
        for i in range(nrows):
            a = tableau[i][entering]
            if a > 0 and (
                leaving is None
                # rhs_i / a < rhs_l / a_l, ties to the smaller basis index.
                or (tableau[i][width] * tableau[leaving][entering], basis[i])
                < (tableau[leaving][width] * a, basis[leaving])
            ):
                leaving = i
        d = _pivot(tableau, leaving, entering, d)
        basis[leaving] = entering

    if tableau[nrows][width] != 0:
        return None
    x = [Fraction(-1)] * ncols
    for i, b in enumerate(basis):
        if b < ncols:
            x[b] = Fraction(-d - tableau[i][width], d)
    return x
