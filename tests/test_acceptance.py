"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import dataclasses
import json
import random
import time
from fractions import Fraction as F

from tropline.building import (
    build_building,
    extract_levels,
    graph_from_json,
    graph_to_json,
)
from tropline.cli import main as cli_main
from tropline.matching import (
    build_system,
    building_solution,
    check_stability,
    realize,
    solve,
    torus_weights,
)
from tropline.moduli import blowup_sequence, classify, exploded_fan, ionel_fan, type_table
from tropline.amoeba import convergence_report
from tropline.tropical import LineFamily, tropicalize_line

from oracles import (
    corner_locus_oracle,
    curves_equal,
    min_squared_distance,
    piece_lattice,
    piece_rank,
    rank,
    validate_fan,
)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed{suffix}"


def line_building(p, q, extra=()):
    return build_building(tropicalize_line(LineFamily(p, q)), extra_levels=extra)


def test_c01_example_matching_system(example1_graph):
    start = time.monotonic()
    system = build_system(example1_graph)
    cone = solve(system)
    idx = {name: i for i, name in enumerate(system.variables)}

    def row(terms):
        return sorted((idx[name], c) for name, c in terms.items())

    listed = {
        1: [
            {"alpha(n1)": 1, "alpha(n2)": 1, "alpha_2": -1},
            {"alpha(n1)": 1, "alpha(n2)": 1, "alpha(n3)": 1, "alpha_2": -1, "alpha_3": -1},
            {"alpha(n3)": 1, "alpha_3": -1},
        ],
        2: [
            {"alpha(n1)": 1, "alpha_1": -1},
            {"alpha(n1)": 1, "alpha(n2)": 1, "alpha(n3)": 1, "alpha_1": -1, "alpha_2": -1},
            {"alpha(n2)": 1, "alpha(n3)": 1, "alpha_2": -1},
            {"alpha(n4)": 1, "alpha_3": -1},
        ],
    }
    ok = cone.dimension == 2
    for direction, equations in listed.items():
        generated = [eq.row for eq in system.equations if eq.direction == direction]
        for terms in equations:
            ok = ok and rank(generated + [row(terms)]) == rank(generated)
    # Relations alpha(1) = alpha(3) = alpha(4) = alpha_1 = alpha_3 and
    # alpha_2 = alpha(1) + alpha(2) hold on the whole kernel.
    for vec in cone.basis:
        first = vec[idx["alpha(n1)"]]
        for name in ("alpha(n3)", "alpha(n4)", "alpha_1", "alpha_3"):
            ok = ok and vec[idx[name]] == first
        ok = ok and vec[idx["alpha_2"]] == first + vec[idx["alpha(n2)"]]
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    report(1, "example matching system", ok, f"dim={cone.dimension}, {elapsed:.3f}s")


def test_c02_level_map():
    levels = extract_levels(tropicalize_line(LineFamily(4, 3)))
    ok = levels.values == (F(1), F(3), F(4))
    ok = ok and [levels.phi(a) for a in range(4)] == [0, 1, 3, 4]
    report(2, "level map", ok, f"levels={[str(v) for v in levels.values]}")


def test_c03_building_fidelity():
    graph = line_building(4, 3).graph
    described = {
        (str(p.levels[0]), str(p.levels[1])): p.trivial for p in graph.pieces
    }
    ok = described == {
        ("1", "0"): False,
        ("3", "2"): False,
        ("3", "3"): True,
        ("1..2", "1"): True,
        ("2", "1..2"): True,
    }
    ok = ok and sum(1 for p in graph.pieces if not p.trivial) == 2
    ok = ok and sum(1 for p in graph.pieces if p.trivial) == 3
    report(3, "building fidelity", ok, f"pieces={sorted(described)}")


def test_c04_stability(example1_graph):
    stable = check_stability(example1_graph)
    refined = line_building(4, 3, extra=[F(2)])
    unstable = check_stability(refined.graph)
    ok = stable.stable and stable.covered == {1, 2, 3}
    ok = ok and not unstable.stable and 2 not in unstable.covered
    report(4, "stability verdicts", ok, f"covered={sorted(stable.covered)}")


def test_c05_torus_weights(example1_graph):
    b = line_building(3, 2)
    cone = solve(build_system(b.graph))
    weights = torus_weights(b.graph, cone)
    by_level = {
        (str(p.levels[0]), str(p.levels[1])): weights.entries[p.id]
        for p in b.graph.pieces
    }
    ok = by_level == {
        ("3", "2"): ((3,), (2,)),
        ("1", "0"): ((1,), (0,)),
        ("3", "3"): ((3,), (3,)),
        ("2", "1"): ((2,), (1,)),
    }
    cone1 = solve(build_system(example1_graph))
    w1 = torus_weights(example1_graph, cone1)
    piece_of = {
        (str(p.levels[0]), str(p.levels[1])): p.id for p in example1_graph.pieces
    }
    ok = ok and piece_rank(w1, piece_of[("3", "2")]) == 2
    ok = ok and piece_rank(w1, piece_of[("1", "0")]) == 1
    ok = ok and piece_rank(w1, piece_of[("3", "3")]) == 1
    for u in ([[1, 1], [0, 1]], [[1, 0], [1, 1]], [[0, -1], [1, 0]]):
        changed = [
            [u[0][0] * a + u[0][1] * b for a, b in zip(cone1.basis[0], cone1.basis[1])],
            [u[1][0] * a + u[1][1] * b for a, b in zip(cone1.basis[0], cone1.basis[1])],
        ]
        other = torus_weights(example1_graph, dataclasses.replace(cone1, basis=changed))
        for p in example1_graph.pieces:
            ok = ok and piece_rank(w1, p.id) == piece_rank(other, p.id)
            ok = ok and piece_lattice(w1, p.id) == piece_lattice(other, p.id)
    report(5, "torus weights", ok)


def test_c06_classification_grid():
    start = time.monotonic()
    label_to_cone: dict[str, set] = {}
    labels = {}
    for i in range(200):
        for j in range(200):
            p, q = F(i, 4), F(j, 4)
            lt = classify(p, q)
            labels[(i, j)] = lt.label
            label_to_cone.setdefault(lt.label, set()).add(lt.cone.generators)
    ok = len(label_to_cone) == 14
    ok = ok and all(len(cones) == 1 for cones in label_to_cone.values())
    mirror_of = {r.label: r.mirror for r in type_table()}
    for (i, j), label in labels.items():
        ok = ok and mirror_of[label] == labels[(j, i)]
        if not ok:
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    report(6, "classification grid", ok, f"types={len(label_to_cone)}, {elapsed:.2f}s")


def test_c07_kernel_dimension_law():
    rng = random.Random(2024)
    rows = {r.label: r for r in type_table()}
    fan = ionel_fan()
    checked = 0
    ok = True

    def check(p, q):
        nonlocal ok, checked
        label = classify(p, q).label
        row = rows[label]
        cone = solve(build_system(line_building(p, q).graph))
        ok = ok and cone.dimension == row.kernel_dim
        ok = ok and row.kernel_dim + row.quotient_dim == 2
        checked += 1

    check(F(0), F(0))
    for ray in fan.rays:
        for _ in range(50):
            t = F(rng.randint(1, 60), rng.randint(1, 6))
            check(t * ray.x, t * ray.y)
    for cone2 in fan.cones2d:
        u, v = cone2.generators
        for _ in range(50):
            a = F(rng.randint(1, 60), rng.randint(1, 6))
            b = F(rng.randint(1, 60), rng.randint(1, 6))
            check(a * u.x + b * v.x, a * u.y + b * v.y)
    report(7, "kernel dimension law", ok, f"{checked} samples")


def test_c08_blowup_factorization():
    steps = blowup_sequence(exploded_fan(), ionel_fan())
    inserted = [tuple(ray) for _, ray in steps]
    ok = inserted == [(2, 1), (1, 2), (3, 2), (2, 3)]
    fan = exploded_fan()
    from tropline.geometry import stellar_subdivide

    for _, ray in steps:
        fan = stellar_subdivide(fan, ray)
    ok = ok and fan == ionel_fan()
    ok = ok and validate_fan(fan).smooth
    report(8, "blowup factorization", ok, f"inserted={inserted}")


def test_c09_realize_round_trip():
    grid = [F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(7, 3), F(3), F(4)]
    ok = True
    count = 0
    for p in grid:
        for q in grid:
            curve = tropicalize_line(LineFamily(p, q))
            b = build_building(curve)
            realized = realize(b.graph, building_solution(b))
            ok = ok and curves_equal(realized, curve)
            count += 1
    report(9, "realize round trip", ok, f"{count} curves")


def test_c10_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(4096)
    step = F(1, 8)
    ok = True
    for _ in range(100):
        p = F(rng.randint(0, 9), rng.randint(1, 3))
        q = F(rng.randint(0, 9), rng.randint(1, 3))
        window = 2 * (p + q) + 2
        family = LineFamily(p, q)
        curve = tropicalize_line(family)
        hits = corner_locus_oracle(family, window=window, step=step, tol=step)
        ok = ok and _oracle_two_sided(curve, hits, window, step)
        if not ok:
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    report(10, "oracle equivalence", ok, f"{elapsed:.1f}s")


def _oracle_two_sided(curve, hits, window, step) -> bool:
    for point in hits:
        if min_squared_distance(curve, point) > (2 * step) ** 2:
            return False
    hit_set = set(hits)

    def near_hit(x, y) -> bool:
        gx = F(round(x / step)) * step
        gy = F(round(y / step)) * step
        for dx in (-step, F(0), step):
            for dy in (-step, F(0), step):
                if (gx + dx, gy + dy) in hit_set:
                    return True
        return False

    pos = {v.id: v.position for v in curve.vertices}
    samples = [(v.position.x, v.position.y) for v in curve.vertices]
    for s in curve.segments:
        base = pos[s.tail]
        pieces = int(s.length / (step / 2)) + 1
        for k in range(pieces + 1):
            t = s.length * k / pieces
            samples.append((base.x + t * s.contact.x, base.y + t * s.contact.y))
    for r in curve.rays:
        base = pos[r.base]
        t = F(0)
        while True:
            x, y = base.x + t * r.contact.x, base.y + t * r.contact.y
            if x > window or y > window:
                break
            samples.append((x, y))
            t += step / 2
    return all(near_hit(x, y) for x, y in samples if x <= window and y <= window)


def test_c11_amoeba_convergence():
    start = time.monotonic()
    family = LineFamily(4, 3)
    rep = convergence_report(family, [1e3, 1e4, 1e6, 1e8], 2000, 8.0)
    distances = [d for _, d in rep.entries]
    ok = all(b < a * 1.1 for a, b in zip(distances, distances[1:]))
    ok = ok and distances[-1] < distances[0]
    ok = ok and rep.decay_constant > 0
    ok = ok and rep.r_squared >= 0.9
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 10.0
    detail = ", ".join(f"{d:.3f}" for d in distances)
    report(11, "amoeba convergence", ok, f"d=[{detail}], R2={rep.r_squared:.3f}")


def test_c12_cli_determinism(capsys, tmp_path, example1_path):
    commands = [
        ["classify", "--p", "4", "--q", "3"],
        ["tropicalize", "--p", "4", "--q", "3", "--json"],
        ["building", "--p", "4", "--q", "3", "--json"],
        ["match", "--graph", str(example1_path)],
        ["fan", "--which", "ionel"],
        ["blowups"],
        ["types", "--json"],
        ["amoeba", "--p", "1", "--q", "1", "--n", "1e3,1e4", "--samples", "200"],
    ]
    outputs = []
    for round_no in (0, 1):
        chunks = []
        for argv in commands:
            code = cli_main(list(argv))
            out = capsys.readouterr().out
            chunks.append((argv[0], code, out))
        svg = tmp_path / f"fan-{round_no}.svg"
        code = cli_main(["fan", "--which", "ionel", "--svg", str(svg)])
        capsys.readouterr()
        chunks.append(("fan-svg", code, svg.read_bytes()))
        outputs.append(chunks)
    ok = outputs[0] == outputs[1]
    ok = ok and all(code == 0 for _, code, _ in outputs[0])
    report(12, "CLI determinism", ok, f"{len(commands) + 1} commands")
