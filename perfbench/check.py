"""Independent result checks for the benchmark.

Each check recomputes what it verifies from the inputs with its own small
piece of exact arithmetic, and raises `CheckFailed` on any mismatch.  None of
them calls the function whose output it checks.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own reference."""


def expected_kind(p: Fraction, q: Fraction) -> str:
    """Limit kind of (p, q) from the ray conditions of the fine moduli fan."""
    if p == 0 and q == 0:
        return "INTERIOR"
    if 0 in (p, q) or p == q or p == 2 * q or q == 2 * p or 2 * p == 3 * q or 2 * q == 3 * p:
        return "RAY"
    return "CONE"


def expected_shape(p: Fraction, q: Fraction):
    """Closed form of the tropicalized line, in the normal form of `shape`.

    The corner locus of min(q + X, p + Y, p + q) has its top vertex at
    (p, q) with rays (1, 0) and (0, 1); a (1, 1) segment of length min(p, q)
    joins it to the boundary of the quadrant when min(p, q) > 0.
    """
    top = (p, q)
    low = min(p, q)
    verts = [top]
    segs = []
    if low > 0:
        bottom = (p - low, q - low)
        verts.append(bottom)
        segs.append((bottom, top, (1, 1), low))
    rays = [(top, (0, 1)), (top, (1, 0))]
    return sorted(verts), sorted(segs), sorted(rays)


def shape(curve):
    """Geometry of a curve, independent of vertex names and edge orientation."""
    pos = {v.id: (v.position.x, v.position.y) for v in curve.vertices}
    segs = []
    for s in curve.segments:
        a, b = pos[s.tail], pos[s.head]
        c = (s.contact.x, s.contact.y)
        if (b[0] - a[0], b[1] - a[1]) != (s.length * c[0], s.length * c[1]):
            raise CheckFailed(f"segment {s.tail}->{s.head} breaks head - tail = length * contact")
        if b < a:
            a, b, c = b, a, (-c[0], -c[1])
        segs.append((a, b, c, s.length))
    rays = [(pos[r.base], (r.contact.x, r.contact.y)) for r in curve.rays]
    return sorted(pos.values()), sorted(segs), sorted(rays)


def check_curve(curve, p: Fraction, q: Fraction, what: str) -> None:
    if shape(curve) != expected_shape(p, q):
        raise CheckFailed(f"{what} of ({p}, {q}) is not the tropical line")


def check_witness(rows, witness) -> None:
    """`witness` solves A w = 0 with every entry <= -1."""
    if witness is None:
        raise CheckFailed("feasible system reported without a witness")
    if rows and len(witness) != len(rows[0]):
        raise CheckFailed("witness length differs from the number of variables")
    if any(w > -1 for w in witness):
        raise CheckFailed("witness has an entry above -1")
    for row in rows:
        if sum(c * w for c, w in zip(row, witness)) != 0:
            raise CheckFailed("witness violates an equation")


_PRIME = (1 << 61) - 1


def rank_mod_prime(rows) -> int:
    """Rank of an integer matrix over GF(2^61 - 1): the rational rank unless
    the prime divides every maximal nonzero minor."""
    m = [[c % _PRIME for c in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, _PRIME)
        m[rank] = [c * inv % _PRIME for c in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % _PRIME for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def check_kernel(rows, nvars: int, basis) -> None:
    """`basis` lies in the kernel and has nullity-many vectors."""
    for vec in basis:
        for row in rows:
            if sum(c * v for c, v in zip(row, vec)) != 0:
                raise CheckFailed("kernel basis vector violates an equation")
    if len(basis) != nvars - rank_mod_prime(rows):
        raise CheckFailed(f"kernel dimension {len(basis)} is not the nullity")


def base_levels(p: Fraction, q: Fraction) -> set:
    verts, _, _ = expected_shape(p, q)
    return {c for v in verts for c in v if c != 0}


def check_union_stability(stable: bool, p, q, extras) -> None:
    expected = set(extras) <= base_levels(p, q)
    if stable != expected:
        raise CheckFailed(f"union stability {stable}, expected {expected}")


def check_ladder(entries, bases, dropped) -> None:
    """The amoeba acceptance rule: strictly decreasing distances within 10%,
    an R^2 >= 0.9 fit against 1 / log n, and no sample point dropped."""
    if [n for n, _ in entries] != [float(n) for n in bases]:
        raise CheckFailed("ladder bases differ from the request")
    ds = [d for _, d in entries]
    if not all(math.isfinite(d) and d > 0 for d in ds):
        raise CheckFailed("non-finite or non-positive distance")
    problems = []
    if not (all(b < a * 1.1 for a, b in zip(ds, ds[1:])) and ds[-1] < ds[0]):
        problems.append("distances " + ", ".join(f"{d:.3g}" for d in ds) + " do not decrease")
    xs = [1.0 / math.log(n) for n, _ in entries]
    mx, my = sum(xs) / len(xs), sum(ds) / len(ds)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (d - my) for x, d in zip(xs, ds))
    syy = sum((d - my) ** 2 for d in ds)
    r2 = 1.0 if syy == 0 else sxy * sxy / (sxx * syy)
    if r2 < 0.9:
        problems.append(f"R^2 {r2:.3f} below 0.9")
    if dropped:
        problems.append(f"{dropped} sample points dropped")
    if problems:
        raise CheckFailed("; ".join(problems))


def check_match_doc(doc: dict, expected_dim: int) -> None:
    """`trop match` output: a valid witness and the expected kernel dimension."""
    variables = doc["variables"]
    rows = [[eq["coefficients"].get(v, 0) for v in variables] for eq in doc["equations"]]
    if not doc["feasible"]:
        raise CheckFailed("match reports an infeasible system")
    witness = [Fraction(doc["witness"][v]) for v in variables]
    check_witness(rows, witness)
    if doc["dimension"] != expected_dim or len(doc["kernel_basis"]) != expected_dim:
        raise CheckFailed(f"match dimension {doc['dimension']}, expected {expected_dim}")


def check_cli_output(kind: str, stdout: str, p=None, q=None, expected=None) -> None:
    """Semantic check of one `trop` command's stdout."""
    if kind == "match":
        check_match_doc(json.loads(stdout), expected)
    elif kind == "classify":
        label = stdout.splitlines()[0].removeprefix("type: ")
        if label.split("(")[0] != expected_kind(p, q):
            raise CheckFailed(f"classify says {label} for ({p}, {q})")
    elif kind == "building":
        doc = json.loads(stdout)
        if doc["num_levels"] != len(base_levels(p, q)):
            raise CheckFailed("building has the wrong number of levels")
        nontrivial = [x for x in doc["pieces"] if not x["trivial"]]
        if len(nontrivial) != len(expected_shape(p, q)[0]):
            raise CheckFailed("building has the wrong number of non-trivial pieces")
    elif kind == "tropicalize":
        doc = json.loads(stdout)
        got = sorted((Fraction(v["x"]), Fraction(v["y"])) for v in doc["vertices"])
        if got != expected_shape(p, q)[0]:
            raise CheckFailed(f"tropicalize vertices {got} for ({p}, {q})")
    elif kind == "types":
        lines = stdout.splitlines()
        kinds = sorted(line.split()[1] for line in lines)
        if kinds != ["CONE"] * 6 + ["INTERIOR"] + ["RAY"] * 7:
            raise CheckFailed("type table does not list 1 + 7 + 6 types")
        for line in lines:
            words = line.split()
            k = int(words[words.index("kernel") + 1])
            d = int(words[words.index("quotient") + 1])
            if k + d != 2:
                raise CheckFailed(f"kernel + quotient != 2 in {line!r}")
    elif kind == "fan":
        rays = {tuple(map(int, line.split()[1:]))
                for line in stdout.splitlines() if line.startswith("ray")}
        if rays != {(1, 0), (2, 1), (3, 2), (1, 1), (2, 3), (1, 2), (0, 1)}:
            raise CheckFailed(f"fine fan rays {sorted(rays)}")
    elif kind == "blowups":
        inserted = [line.rsplit("insert ray ", 1)[1] for line in stdout.splitlines()]
        if sorted(inserted) != ["(1,2)", "(2,1)", "(2,3)", "(3,2)"]:
            raise CheckFailed(f"blowups insert {inserted}")
    elif kind == "amoeba":
        doc = json.loads(stdout)
        check_ladder([(e["n"], e["hausdorff"]) for e in doc["entries"]], expected, 0)
    else:
        raise CheckFailed(f"no check for command {kind!r}")
