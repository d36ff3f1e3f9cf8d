import math
import random
from fractions import Fraction as F

import pytest

from tropline import _linalg
from tropline.building import build_building
from tropline.matching import build_system
from tropline.tropical import LineFamily, tropicalize_line


def fourier_motzkin_feasible(rows, rhs) -> bool:
    """Exact feasibility of {t : rows . t <= rhs} by variable elimination."""
    ineqs = [([F(c) for c in r], F(b)) for r, b in zip(rows, rhs)]
    nvars = len(rows[0]) if rows else 0
    for var in range(nvars):
        pos, neg, rest = [], [], []
        for coeffs, b in ineqs:
            c = coeffs[var]
            (pos if c > 0 else neg if c < 0 else rest).append((coeffs, b))
        combined = list(rest)
        for pc, pb in pos:
            for nc, nb in neg:
                lam, mu = -nc[var], pc[var]
                coeffs = [lam * a + mu * c for a, c in zip(pc, nc)]
                combined.append((coeffs, lam * pb + mu * nb))
        ineqs = combined
    return all(b >= 0 for _, b in ineqs)


def fraction_rref(matrix):
    """Reference: rational Gauss-Jordan elimination, first-nonzero pivoting."""
    rows = [[F(x) for x in row] for row in matrix]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for k in range(len(rows)):
            if k != r:
                rows[k] = [a - rows[k][c] * b for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def test_rref_identifies_pivots():
    rows, pivots, d = _linalg.rref([[0, 2, 4], [1, 1, 1]])
    assert pivots == [0, 1] and d > 0
    assert [[F(x, d) for x in r] for r in rows] == [[F(1), F(0), F(-1)], [F(0), F(1), F(2)]]
    # A negative pivot is negated, so the common pivot stays positive.
    rows, pivots, d = _linalg.rref([[-2, 1], [4, 3]])
    assert pivots == [0, 1] and d > 0 and rows == [[d, 0], [0, d]]
    # Non-integer entries raise instead of being truncated.
    with pytest.raises(TypeError):
        _linalg.rref([[F(1, 2), 1]])


def test_kernel_basis_simple():
    # x + y - z = 0 has kernel spanned by (-1, 1, 0) and (1, 0, 1).
    basis = _linalg.kernel_basis([[1, 1, -1]], 3)
    assert len(basis) == 2
    for vec in basis:
        assert vec[0] + vec[1] - vec[2] == 0


def test_kernel_of_empty_system_is_everything():
    assert len(_linalg.kernel_basis([], 4)) == 4


def test_kernel_basis_primitive_and_negative():
    # One primitive integer vector per free column, negative there.
    assert _linalg.kernel_basis([[2, -3]], 2) == [[-3, -2]]
    assert _linalg.kernel_basis([[2, -1]], 2) == [[-1, -2]]
    assert _linalg.kernel_basis([[1, 1]], 2) == [[1, -1]]
    assert _linalg.kernel_basis([[2, 4]], 2) == [[2, -1]]
    assert _linalg.kernel_basis([[0, 2, 4], [1, 1, 1]], 3) == [[-1, 2, -1]]
    assert _linalg.kernel_basis([], 2) == [[-1, 0], [0, -1]]


def building_systems():
    """36-variable matching systems of buildings refined by extra levels."""
    for p, q, levels in (
        (9, 4, [F(k, 4) for k in range(1, 40, 3)]),
        (5, 7, [F(k, 3) for k in range(1, 30, 2)]),
        (3, 10, [F(k, 4) for k in range(1, 44, 3)]),
    ):
        curve = tropicalize_line(LineFamily.of(p, q))
        system = build_system(build_building(curve, extra_levels=levels).graph)
        assert len(system.variables) == 36
        yield system.coefficient_rows(), 36


def random_matrices(count):
    rng = random.Random(29)
    for _ in range(count):
        ncols = rng.randint(1, 10)
        nrows = rng.randint(0, 8)
        k = rng.choice((1, 2, 5))
        yield [
            [rng.randint(-k, k) if rng.random() < 0.6 else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ], ncols


def test_integer_elimination_against_fractions():
    for matrix, ncols in list(random_matrices(300)) + list(building_systems()):
        expected, pivots = fraction_rref(matrix)
        rows, got_pivots, d = _linalg.rref(matrix)
        assert got_pivots == pivots and d > 0, matrix
        assert [[F(x, d) for x in r] for r in rows] == expected, matrix
        assert _linalg.rank(matrix) == len(pivots)
        basis = _linalg.kernel_basis(matrix, ncols)
        free = [f for f in range(ncols) if f not in pivots]
        assert len(basis) == ncols - len(pivots)
        for f, vec in zip(free, basis):
            assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in matrix)
            assert math.gcd(*vec) == 1 and vec[f] < 0
            # A negative multiple of the reference kernel vector of f, so the
            # basis spans the kernel.
            ref = [F(0)] * ncols
            ref[f] = F(1)
            for r, c in enumerate(pivots):
                ref[c] = -expected[r][f]
            assert vec == [vec[f] * x for x in ref], matrix


def test_rank_and_row_span():
    rows = [[1, 1, 0, 0, 0, -1, 0], [0, 0, 1, 0, 0, 0, -1]]
    assert _linalg.rank(rows) == 2
    assert _linalg.in_row_span(rows, [1, 1, 1, 0, 0, -1, -1])
    assert not _linalg.in_row_span(rows, [1, 0, 0, 0, 0, 0, 0])


def solves_strictly(rows, x) -> bool:
    """x solves every equation of rows and has every entry <= -1."""
    return all(sum(F(a) * v for a, v in zip(row, x)) == 0 for row in rows) and all(
        v <= -1 for v in x
    )


def test_negative_orthant_feasible_line():
    # x1 - x2 = 0: the kernel line (1, 1) reaches below -1.
    rows = [[1, -1]]
    x = _linalg.negative_orthant_point(rows, 2)
    assert x is not None and solves_strictly(rows, x)


def test_negative_orthant_infeasible_opposites():
    # x1 + x2 = 0: the two variables cannot both be negative.
    assert _linalg.negative_orthant_point([[1, 1]], 2) is None


def test_negative_orthant_two_parameters():
    # x1 + x2 - x3 = 0 and 2 x4 - x3 = 0: a two-dimensional kernel.
    rows = [[1, 1, -1, 0], [0, 0, -1, 2]]
    assert len(_linalg.kernel_basis(rows, 4)) == 2
    x = _linalg.negative_orthant_point(rows, 4)
    assert x is not None and solves_strictly(rows, x)


def test_negative_orthant_empty():
    assert _linalg.negative_orthant_point([], 0) == []
    # No equations: every variable is free to sit at -1.
    assert _linalg.negative_orthant_point([], 3) == [F(-1)] * 3


def test_negative_orthant_ratio_ties_to_smaller_basis_index():
    # A system whose ratio tests tie: the rule that gives a tie to the
    # smaller basis index ends at this witness; the reversed rule ends at
    # (-1, -4/3, -4/3, -5/3, -1).
    rows = [[0, -2, -2, 2, 2], [1, -1, 0, -1, 2], [2, 0, -2, 1, -1]]
    assert _linalg.negative_orthant_point(rows, 5) == [F(-2), F(-1), F(-3), F(-3), F(-1)]


def test_negative_orthant_against_fourier_motzkin():
    rng = random.Random(71)
    for _ in range(300):
        ncols = rng.randint(1, 4)
        nrows = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        x = _linalg.negative_orthant_point(rows, ncols)
        # A x <= 0, -A x <= 0 and x <= -1.
        identity = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
        expected = fourier_motzkin_feasible(
            rows + [[-a for a in row] for row in rows] + identity,
            [0] * (2 * nrows) + [-1] * ncols,
        )
        assert (x is not None) == expected, rows
        if x is not None:
            assert solves_strictly(rows, x), rows


def test_lattice_canonical_invariance():
    base = [(1, 2), (1, 1)]
    transformed = [(2, 3), (1, 1)]  # column operations preserve the lattice
    assert _linalg.lattice_canonical(base) == _linalg.lattice_canonical(transformed)
    assert _linalg.lattice_canonical([(0, 0)]) == ()
    assert _linalg.lattice_canonical([(0, 4), (0, 6)]) == ((0, 2),)
    assert _linalg.lattice_canonical([(2, 0)]) == ((2, 0),)


def test_lattice_canonical_rank_two():
    canon = _linalg.lattice_canonical([(1, 0), (0, 1)])
    assert canon == ((1, 0), (0, 1))
    sub = _linalg.lattice_canonical([(2, 0), (0, 2)])
    assert sub == ((2, 0), (0, 2))


def test_xgcd():
    g, s, t = _linalg.xgcd(12, 18)
    assert g == 6 and s * 12 + t * 18 == 6
