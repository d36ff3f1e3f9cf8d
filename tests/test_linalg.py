import hashlib
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from tropline import _linalg
from tropline.building import build_building
from tropline.matching import build_system, solve, torus_weights
from tropline.tropical import LineFamily, tropicalize_line

from oracles import lattice_canonical, rank, xgcd

GOLDENS = Path(__file__).parent / "goldens"


def sparse(matrix):
    """The sparse rows of a dense integer matrix: per row, its nonzero
    (column, entry) pairs in column order."""
    return [[(j, a) for j, a in enumerate(row) if a] for row in matrix]


def augmented(rows, ncols):
    """`rref` of [A | -A.1] for sparse rows A, the right-hand side in column
    `ncols`, as `solve` reduces a matching system."""
    return _linalg.rref([(*row, (ncols, -sum(a for _, a in row))) for row in rows])


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


def rational_rows(rows, pivots, ncols):
    """Sparse reduced rows as the rational RREF: each divided by its pivot."""
    return [[F(row.get(j, 0), row[c]) for j in range(ncols)] for row, c in zip(rows, pivots)]


def test_rref_identifies_pivots():
    rows, pivots = _linalg.rref(sparse([[0, 2, 4], [1, 1, 1]]))
    assert pivots == [0, 1] and all(row[c] > 0 for row, c in zip(rows, pivots))
    assert rational_rows(rows, pivots, 3) == [[F(1), F(0), F(-1)], [F(0), F(1), F(2)]]
    # A negative pivot is negated, so each row's pivot stays positive; rows
    # are divided by their content and hold only their nonzero entries.
    rows, pivots = _linalg.rref(sparse([[-2, 1], [4, 3]]))
    assert pivots == [0, 1] and rows == [{0: 1}, {1: 1}]
    # Non-integer entries raise instead of being truncated.
    with pytest.raises(TypeError):
        _linalg.rref(sparse([[F(1, 2), 1]]))


def test_elimination_keeps_each_row_scale():
    rows = [{0: 2, 1: -1}, {0: 4, 1: 3}, {1: 5}]
    untouched = rows[2]
    _linalg._eliminate(rows, 0, 0, [1])
    # 2 * (4, 3) - 4 * (2, -1) = (0, 10), divided by its content 10; the
    # pivot row keeps its scale 2, and a row not holding column 0 is not read.
    assert rows == [{0: 2, 1: -1}, {1: 1}, {1: 5}] and rows[2] is untouched


def test_kernel_basis_simple():
    # x + y - z = 0 has kernel spanned by (-1, 1, 0) and (1, 0, 1).
    basis = _linalg.kernel_basis(*augmented(sparse([[1, 1, -1]]), 3), 3)
    assert len(basis) == 2
    for vec in basis:
        assert vec[0] + vec[1] - vec[2] == 0


def test_kernel_of_empty_system_is_everything():
    assert len(_linalg.kernel_basis([], [], 4)) == 4


def test_kernel_basis_primitive_and_negative():
    # One primitive integer vector per free column, negative there.
    assert _linalg.kernel_basis(*augmented(sparse([[2, -3]]), 2), 2) == [[-3, -2]]
    assert _linalg.kernel_basis(*augmented(sparse([[2, -1]]), 2), 2) == [[-1, -2]]
    assert _linalg.kernel_basis(*augmented(sparse([[1, 1]]), 2), 2) == [[1, -1]]
    assert _linalg.kernel_basis(*augmented(sparse([[2, 4]]), 2), 2) == [[2, -1]]
    assert _linalg.kernel_basis(*augmented(sparse([[0, 2, 4], [1, 1, 1]]), 3), 3) == [[-1, 2, -1]]
    assert _linalg.kernel_basis([], [], 2) == [[-1, 0], [0, -1]]


def building_systems():
    """36-variable matching systems of buildings refined by extra levels."""
    for p, q, levels in (
        (9, 4, [F(k, 4) for k in range(1, 40, 3)]),
        (5, 7, [F(k, 3) for k in range(1, 30, 2)]),
        (3, 10, [F(k, 4) for k in range(1, 44, 3)]),
    ):
        curve = tropicalize_line(LineFamily(p, q))
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
        rows, got_pivots = _linalg.rref(sparse(matrix))
        assert got_pivots == pivots and all(r[c] > 0 for r, c in zip(rows, pivots)), matrix
        assert rational_rows(rows, pivots, len(matrix[0]) if matrix else 0) == expected, matrix
        assert rank(sparse(matrix)) == len(pivots)
        basis = _linalg.kernel_basis(*augmented(sparse(matrix), ncols), ncols)
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


# The seven rays of the fine moduli fan, in angular order from the p axis.
FAN_RAYS = ((1, 0), (2, 1), (3, 2), (1, 1), (2, 3), (1, 2), (0, 1))


def sweep_families(seed: int, rounds: int = 10):
    """The families of the benchmark's `sweep` workload for `seed`: per round
    the origin, a point on each fine-fan ray and one inside each cone
    between neighbouring rays, one of each of the 14 limit types."""
    rng = random.Random(seed)

    def scale(top: int) -> F:
        return F(rng.randint(1, top), rng.choice((1, 2, 3, 4)))

    for _ in range(rounds):
        yield F(0), F(0)
        for a, b in FAN_RAYS:
            t = scale(12)
            yield a * t, b * t
        for (a1, b1), (a2, b2) in zip(FAN_RAYS, FAN_RAYS[1:]):
            s, t = scale(6), scale(6)
            yield a1 * s + a2 * t, b1 * s + b2 * t


def linalg_grid_systems():
    """500 seeded random systems (0-6 rows, 1-8 columns, entries +-1..3 at
    densities 0.3, 0.6 and 1), then the 140 matching systems of `sweep`
    seed 1."""
    rng = random.Random(113)
    for _ in range(500):
        ncols, nrows = rng.randint(1, 8), rng.randint(0, 6)
        density = rng.choice((0.3, 0.6, 1.0))
        yield [
            [rng.choice((-1, 1)) * rng.randint(1, 3) if rng.random() < density else 0
             for _ in range(ncols)]
            for _ in range(nrows)
        ], ncols
    for p, q in sweep_families(1):
        system = build_system(build_building(tropicalize_line(LineFamily(p, q))).graph)
        yield system.coefficient_rows(), len(system.variables)


def linalg_grid_lines() -> list[str]:
    """One JSON line per system of `linalg_grid_systems`: its rows, kernel
    basis, rank and witness (null when infeasible)."""
    lines = []
    for rows, ncols in linalg_grid_systems():
        reduced, pivots = augmented(sparse(rows), ncols)
        witness = _linalg.negative_orthant_point(reduced, pivots, ncols)
        lines.append(json.dumps({
            "rows": rows,
            "ncols": ncols,
            "basis": _linalg.kernel_basis(reduced, pivots, ncols),
            "rank": rank(sparse(rows)),
            "witness": None if witness is None else [str(x) for x in witness],
        }))
    return lines


def test_grid_pinned():
    """`goldens/linalg-grid.txt` pins the basis, rank and witness of every
    system of `linalg_grid_systems`."""
    golden = (GOLDENS / "linalg-grid.txt").read_text().splitlines()
    assert linalg_grid_lines() == golden


def test_rank_and_row_span():
    rows = [[1, 1, 0, 0, 0, -1, 0], [0, 0, 1, 0, 0, 0, -1]]
    assert rank(sparse(rows)) == 2
    # A row lies in the span exactly when appending it keeps the rank.
    assert rank(sparse(rows + [[1, 1, 1, 0, 0, -1, -1]])) == 2
    assert rank(sparse(rows + [[1, 0, 0, 0, 0, 0, 0]])) == 3


def solves_strictly(rows, x) -> bool:
    """x solves every equation of rows and has every entry <= -1."""
    return all(sum(F(a) * v for a, v in zip(row, x)) == 0 for row in rows) and all(
        v <= -1 for v in x
    )


def test_negative_orthant_feasible_line():
    # x1 - x2 = 0: the kernel line (1, 1) reaches below -1.
    rows = [[1, -1]]
    x = _linalg.negative_orthant_point(*augmented(sparse(rows), 2), 2)
    assert x is not None and solves_strictly(rows, x)


def test_negative_orthant_infeasible_opposites():
    # x1 + x2 = 0: the two variables cannot both be negative.
    assert _linalg.negative_orthant_point(*augmented(sparse([[1, 1]]), 2), 2) is None


def test_negative_orthant_two_parameters():
    # x1 + x2 - x3 = 0 and 2 x4 - x3 = 0: a two-dimensional kernel.
    rows = [[1, 1, -1, 0], [0, 0, -1, 2]]
    assert len(_linalg.kernel_basis(*augmented(sparse(rows), 4), 4)) == 2
    x = _linalg.negative_orthant_point(*augmented(sparse(rows), 4), 4)
    assert x is not None and solves_strictly(rows, x)


def test_negative_orthant_empty():
    assert _linalg.negative_orthant_point([], [], 0) == []
    # No equations: every variable is free to sit at -1.
    assert _linalg.negative_orthant_point([], [], 3) == [F(-1)] * 3


def test_negative_orthant_dual_pivots_follow_bland_rule():
    # A system that takes more than one dual pivot from the RREF basis.
    # Bland's rule, the leaving row of smallest basic column and the
    # entering column of smallest index, ends at this witness.  Entering at
    # the largest index ends at (-1, -5, -1, -12, -1, -15), and leaving at
    # the first row with a negative right-hand side at (-2, -1, -1, -2, -1, -4).
    rows = [[-2, 2, 2, -1, 2, 0], [2, 1, 0, 2, -1, -2], [1, -2, 0, 2, 0, -1]]
    x = _linalg.negative_orthant_point(*augmented(sparse(rows), 6), 6)
    assert x == [F(-9, 2), F(-1), F(-1), F(-1), F(-3), F(-9, 2)]


def test_negative_orthant_against_fourier_motzkin():
    rng = random.Random(71)
    for _ in range(300):
        ncols = rng.randint(1, 4)
        nrows = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        x = _linalg.negative_orthant_point(*augmented(sparse(rows), ncols), ncols)
        # A x <= 0, -A x <= 0 and x <= -1.
        identity = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
        expected = fourier_motzkin_feasible(
            rows + [[-a for a in row] for row in rows] + identity,
            [0] * (2 * nrows) + [-1] * ncols,
        )
        assert (x is not None) == expected, rows
        if x is not None:
            assert solves_strictly(rows, x), rows


def refined_graph(cuts: int):
    """The graph of `(40, 27)` cut at `cuts` extra half-integer levels."""
    curve = tropicalize_line(LineFamily(40, 27))
    return build_building(curve, extra_levels=[F(2 * k + 1, 2) for k in range(cuts)]).graph


def test_large_refined_system():
    """`(40, 27)` cut at 100 half-integer levels: 267 variables and 192
    equations, 386 nonzeros.  The basis and witness are pinned by digest."""
    system = build_system(refined_graph(100))
    rows, ncols = system.coefficient_rows(), len(system.variables)
    assert (ncols, len(rows)) == (267, 192)
    sparse_rows = [eq.row for eq in system.equations]
    assert sparse_rows == [tuple(row) for row in sparse(rows)]
    assert rank(sparse_rows) == 192
    reduced, pivots = augmented(sparse_rows, ncols)
    basis = _linalg.kernel_basis(reduced, pivots, ncols)
    assert len(basis) == 75
    for vec in basis:
        assert math.gcd(*vec) == 1
        assert all(sum(a * v for a, v in zip(row, vec) if a) == 0 for row in rows)
    witness = _linalg.negative_orthant_point(reduced, pivots, ncols)
    assert witness is not None and solves_strictly(rows, witness)
    digest = hashlib.sha256(json.dumps([basis, [str(x) for x in witness]]).encode())
    assert digest.hexdigest() == "a4798a46accd472704620c67174a4e36cd7e883ca011769ab5789912d0dbca3a"


def test_large_refined_weight_table():
    """The torus weights of the same building, 75 columns for each of its
    pieces, pinned by digest."""
    graph = refined_graph(100)
    weights = torus_weights(graph, solve(build_system(graph)))
    assert weights.dimension == 75 and list(weights.entries) == [p.id for p in graph.pieces]
    digest = hashlib.sha256(json.dumps(weights.entries, sort_keys=True).encode())
    assert digest.hexdigest() == "55fc0b661b4fd3a3ec4d7565457e2c424c5a4207d75b3d6b81a43893eb7984a0"


def test_lattice_canonical_invariance():
    base = [(1, 2), (1, 1)]
    transformed = [(2, 3), (1, 1)]  # column operations preserve the lattice
    assert lattice_canonical(base) == lattice_canonical(transformed)
    assert lattice_canonical([(0, 0)]) == ()
    assert lattice_canonical([(0, 4), (0, 6)]) == ((0, 2),)
    assert lattice_canonical([(2, 0)]) == ((2, 0),)


def test_lattice_canonical_rank_two():
    canon = lattice_canonical([(1, 0), (0, 1)])
    assert canon == ((1, 0), (0, 1))
    sub = lattice_canonical([(2, 0), (0, 2)])
    assert sub == ((2, 0), (0, 2))


def test_xgcd():
    g, s, t = xgcd(12, 18)
    assert g == 6 and s * 12 + t * 18 == 6
