"""Exact rational linear algebra and a tiny Bland-rule simplex.

Sizes here are small (a handful of variables per matching system), so the
implementations favour clarity and determinism over asymptotics.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Row = list[Fraction]


class InvariantViolation(RuntimeError):
    """An internal consistency check failed.  Raised explicitly, so the
    check also runs under `python -O`."""


def _as_rows(matrix: Sequence[Sequence]) -> list[Row]:
    return [[Fraction(x) for x in row] for row in matrix]


def rref(matrix: Sequence[Sequence]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form with deterministic first-nonzero pivoting.

    Returns the reduced rows (zero rows dropped) and the pivot column list.
    """
    rows = _as_rows(matrix)
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[: len(pivots)], pivots


def rank(matrix: Sequence[Sequence]) -> int:
    return len(rref(matrix)[1])


def in_row_span(matrix: Sequence[Sequence], row: Sequence) -> bool:
    base = [list(r) for r in matrix]
    return rank(base) == rank(base + [list(row)])


def kernel_basis(matrix: Sequence[Sequence], ncols: int) -> list[Row]:
    """Basis of the null space, one vector per free column, in column order.

    Each basis vector carries 1 at its free column; pivot entries are filled
    by back substitution from the reduced form.
    """
    reduced, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Row] = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][f]
        basis.append(vec)
    return basis


def integerize(vector: Sequence[Fraction]) -> list[int]:
    """Scale a rational vector to the primitive integer vector on its ray."""
    vec = [Fraction(x) for x in vector]
    den = 1
    for x in vec:
        den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return ints


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
    residues = 0
    for a, b in vecs:
        k = a // d
        residues = math.gcd(residues, b - k * y)
    g2 = residues
    if g2 == 0:
        if d < 0:
            d, y = -d, -y
        return ((d, y),)
    g2 = abs(g2)
    y %= g2
    return ((d, y), (0, g2))


def negative_orthant_point(rows: Sequence[Sequence[int]], ncols: int) -> list[Fraction] | None:
    """Find exact x with A x = 0 and every x_i <= -1, or None if infeasible.

    Substituting x = -1 - y turns the problem into A y = -A.1 with y >= 0,
    a standard-form phase 1: each row is signed so its right-hand side is
    non-negative, gets one artificial column, and a Bland-rule simplex over
    the rationals minimizes the artificial sum.
    """
    if ncols == 0:
        return []
    nrows = len(rows)
    width = ncols + nrows
    tableau: list[Row] = []
    for i, row in enumerate(rows):
        sign = -1 if sum(row) > 0 else 1
        line = [Fraction(sign * a) for a in row] + [Fraction(0)] * (nrows + 1)
        line[ncols + i] = Fraction(1)
        line[width] = -sum(line[:ncols])
        tableau.append(line)
    basis = [ncols + i for i in range(nrows)]
    # Reduced costs of the phase-1 objective: raw costs (1 on artificial
    # columns) with the artificial basis priced out.
    cost = [Fraction(0)] * ncols + [Fraction(1)] * nrows + [Fraction(0)]
    for line in tableau:
        cost = [c - x for c, x in zip(cost, line)]

    while True:
        entering = next((j for j in range(width) if cost[j] < 0), None)
        if entering is None:
            break
        best_ratio = None
        leaving_row = None
        for i, line in enumerate(tableau):
            if line[entering] > 0:
                ratio = line[width] / line[entering]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving_row])
                ):
                    best_ratio = ratio
                    leaving_row = i
        pivot = tableau[leaving_row][entering]
        tableau[leaving_row] = [x / pivot for x in tableau[leaving_row]]
        for i in range(nrows):
            if i != leaving_row and tableau[i][entering] != 0:
                f = tableau[i][entering]
                tableau[i] = [
                    a - f * b for a, b in zip(tableau[i], tableau[leaving_row])
                ]
        f = cost[entering]
        cost = [a - f * b for a, b in zip(cost, tableau[leaving_row])]
        basis[leaving_row] = entering

    if cost[width] != 0:
        return None
    x = [Fraction(-1)] * ncols
    for i, b in enumerate(basis):
        if b < ncols:
            x[b] -= tableau[i][width]
    return x
