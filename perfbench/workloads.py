"""The four workloads: seeded inputs, one op each, and the check of its output.

Every workload draws its inputs in rounds of a fixed make-up, so every run
holds the same mix of op kinds whatever the seed.  A run takes `pass_rounds`
rounds and runs passes over them until its time is up.  Ops call the library
through module attributes, which is where `tracing.Tracer` wraps them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
EXAMPLE1 = ROOT / "tests" / "fixtures" / "example1.json"

BASES = (1e3, 1e4, 1e6, 1e8)
BASES_ARG = "1e3,1e4,1e6,1e8"


def small_rational(rng, top: int = 12, dens=(1, 2, 3, 4)) -> F:
    return F(rng.randint(0, top), rng.choice(dens))


# The seven rays of the fine moduli fan, in angular order from the p axis.
FAN_RAYS = ((1, 0), (2, 1), (3, 2), (1, 1), (2, 3), (1, 2), (0, 1))
RAY_POINTS = FAN_RAYS + ((0, 0),)


def sweep_round(rng) -> list[tuple[F, F]]:
    """One family of each of the 14 limit types: the origin, a point on each
    of the 7 fan rays and a point inside each of the 6 cones between them."""

    def scale(top: int) -> F:
        return F(rng.randint(1, top), rng.choice((1, 2, 3, 4)))

    families = [(F(0), F(0))]
    for a, b in FAN_RAYS:
        t = scale(12)
        families.append((a * t, b * t))
    for (a1, b1), (a2, b2) in zip(FAN_RAYS, FAN_RAYS[1:]):
        s, t = scale(6), scale(6)
        families.append((a1 * s + a2 * t, b1 * s + b2 * t))
    return families


def sweep_family(rng) -> tuple[F, F]:
    """Half generic points, half points on a ray (or the origin)."""
    if rng.random() < 0.5:
        return small_rational(rng), small_rational(rng)
    a, b = rng.choice(RAY_POINTS)
    t = F(rng.randint(1, 12), rng.choice((1, 2, 3, 4)))
    return a * t, b * t


class Workload:
    """Inputs in rounds (`rounds`), one op (`op`) and its check (`check`).

    `imports` are the modules the ops call; `setup_s` times importing them.
    A run's inputs are its first `pass_rounds` rounds, run over and over.
    """

    imports: tuple[str, ...] = ()
    pass_rounds = 1
    # Whether ops are `trop` commands, so the traced run also times imports
    # and whole `trop` processes.
    via_cli = False

    def __init__(self, tiny: bool = False):
        import importlib

        self.m = {name: importlib.import_module(name) for name in self.imports}

    def audit(self) -> list[str]:
        """Known-defect inputs that fail, one line each; run outside the timed ops."""
        return []

    def close(self) -> None:
        pass


class Sweep(Workload):
    """Small exact systems (2-7 variables): per-call overhead dominates."""

    imports = ("tropline.tropical", "tropline.building", "tropline.matching",
               "tropline.moduli", "tropline.render", "tropline._linalg")
    round_size = 14
    pass_rounds = 10

    def __init__(self, tiny: bool = False):
        super().__init__()
        self.kernel_dims = {r.label: (r.kind, r.kernel_dim)
                            for r in self.m["tropline.moduli"].type_table()}

    def rounds(self, rng):
        while True:
            yield sweep_round(rng)

    def op(self, pq):
        tropical, building = self.m["tropline.tropical"], self.m["tropline.building"]
        matching, moduli, render = (self.m["tropline.matching"], self.m["tropline.moduli"],
                                    self.m["tropline.render"])
        p, q = pq
        curve = tropical.tropicalize_line(tropical.LineFamily(p, q))
        b = building.build_building(curve)
        system = matching.build_system(b.graph)
        cone = matching.solve(system)
        union = matching.check_stability(b.graph)
        matching.check_stability(b.graph, rule="per-direction")
        weights = matching.torus_weights(b.graph, cone)
        realized = matching.realize(b.graph, cone.witness) if cone.witness else None
        kind = moduli.classify(p, q)
        svg = render.render_tropical(curve, b.levels, render.RenderSpec(window=p + q + 2))
        return curve, b, system, cone, union, weights, realized, kind, svg

    def check(self, pq, out):
        curve, b, system, cone, union, weights, realized, kind, svg = out
        p, q = pq
        matching = self.m["tropline.matching"]
        check.check_curve(curve, p, q, "tropicalize_line")
        check.check_witness(system.coefficient_rows(), cone.witness)
        table_kind, table_dim = self.kernel_dims[kind.label]
        if kind.kind != check.expected_kind(p, q) or table_kind != kind.kind:
            raise check.CheckFailed(f"classify({p}, {q}) = {kind.label}")
        if cone.dimension != table_dim:
            raise check.CheckFailed(f"kernel dimension {cone.dimension}, table says {table_dim}")
        check.check_curve(matching.realize(b.graph, matching.building_solution(b)), p, q,
                          "realize(building_solution)")
        if realized is not None and len(realized.vertices) != len(curve.vertices):
            raise check.CheckFailed("realized witness has another combinatorial type")
        check.check_union_stability(union.stable, p, q, ())
        if set(weights.entries) != {x.id for x in b.graph.pieces}:
            raise check.CheckFailed("torus weights miss a piece")
        if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
            raise check.CheckFailed("render_tropical did not return an SVG document")


class Refine(Workload):
    """Buildings refined by extra cut levels: ~33 variables, solve-bound."""

    imports = ("tropline.tropical", "tropline.building", "tropline.matching", "tropline._linalg")
    # One size for every op: solve time varies by a third between buildings
    # of one size, so a mix of sizes would leave too few of the largest in a
    # run for its figures to repeat across seeds.
    extra_levels = 10
    round_size = 4
    pass_rounds = 3
    # Mostly small denominators, some large primes.
    dens = (1, 2, 3, 4, 5, 6, 97, 101, 103)

    def __init__(self, tiny: bool = False):
        super().__init__()
        if tiny:
            self.extra_levels = 2

    def _draw_in(self, rng, lo: F, hi: F) -> F:
        while True:
            d = rng.choice(self.dens)
            a, b = int(lo * d) + 1, -int(-hi * d) - 1
            if a <= b:
                return F(rng.randint(a, b), d)

    def family(self, rng, k: int):
        """A cone-type family and k extra levels spread round-robin over the
        gaps between 0, |p - q|, min(p, q), max(p, q) and max(p, q) + 2, so
        each level crosses the same edges whatever its exact value."""
        q = F(rng.randint(2, 12), rng.randint(1, 3))
        p = q * F(rng.randint(11, 19), 10)
        if rng.random() < 0.5:
            p, q = q, p
        cuts = sorted({F(0), abs(p - q), min(p, q), max(p, q), max(p, q) + 2})
        gaps = list(zip(cuts, cuts[1:]))
        extras: set[F] = set()
        j = 0
        while len(extras) < k:
            extras.add(self._draw_in(rng, *gaps[j % len(gaps)]))
            j += 1
        return p, q, tuple(sorted(extras))

    def rounds(self, rng):
        while True:
            yield [self.family(rng, self.extra_levels) for _ in range(self.round_size)]

    def op(self, inp):
        tropical, building, matching = (self.m["tropline.tropical"], self.m["tropline.building"],
                                        self.m["tropline.matching"])
        p, q, extras = inp
        curve = tropical.tropicalize_line(tropical.LineFamily(p, q))
        b = building.build_building(curve, extra_levels=extras)
        system = matching.build_system(b.graph)
        cone = matching.solve(system)
        union = matching.check_stability(b.graph)
        weights = matching.torus_weights(b.graph, cone)
        realized = matching.realize(b.graph, cone.witness)
        return b, system, cone, union, weights, realized

    def check(self, inp, out):
        b, system, cone, union, weights, realized = out
        p, q, extras = inp
        matching = self.m["tropline.matching"]
        rows = system.coefficient_rows()
        check.check_witness(rows, cone.witness)
        check.check_kernel(rows, len(system.variables), cone.basis)
        check.check_union_stability(union.stable, p, q, extras)
        check.check_curve(matching.realize(b.graph, matching.building_solution(b)), p, q,
                          "realize(building_solution)")
        if set(weights.entries) != {x.id for x in b.graph.pieces}:
            raise check.CheckFailed("torus weights miss a piece")
        if len(realized.vertices) != len(check.expected_shape(p, q)[0]):
            raise check.CheckFailed("realized witness has another combinatorial type")


class Amoeba(Workload):
    """`trop amoeba` convergence ladders, run in-process through `cli.main`;
    sample counts set the cdist matrix size."""

    imports = ("tropline.cli", "tropline.amoeba", "tropline.tropical")
    via_cli = True
    pass_rounds = 2
    # Sample counts, one ladder of each per round: the median op and the
    # tail both sit among the 20000 ladders.
    counts = (2000, 20000, 20000, 20000, 20000)
    tiny_counts = (2000,)
    # Inputs the acceptance rule is known to reject: underflow drops points
    # at (40, 27) and overflows at (200, 150); from about p + q = 8 the
    # discretized curve's distance floor breaks monotonicity or the fit,
    # as at (13/3, 9/2).
    # Run once per amoeba run and reported by input, outside the timed ops.
    known_defects = ((F(40), F(27), 2000), (F(200), F(150), 2000),
                     (F(6), F(5), 2000), (F(10), F(3), 2000), (F(13, 3), F(9, 2), 2000))

    def __init__(self, tiny: bool = False):
        super().__init__()
        self.counts = self.tiny_counts if tiny else self.counts
        self.round_size = len(self.counts)

    def rounds(self, rng):
        while True:
            yield [(self.exponent(rng), self.exponent(rng), c) for c in self.counts]

    @staticmethod
    def exponent(rng) -> F:
        # Up to 3 with denominators up to 3, inside the range where every
        # ladder meets the acceptance rule (see known_defects).
        d = rng.choice((1, 2, 3))
        return F(rng.randint(0, 3 * d), d)

    @staticmethod
    def argv(inp) -> list[str]:
        p, q, count = inp
        return ["amoeba", "--p", str(p), "--q", str(q), "--n", BASES_ARG, "--samples", str(count)]

    def op(self, inp):
        return cli_in_process(self.m["tropline.cli"], self.argv(inp))

    def check(self, inp, out):
        p, q, count = inp
        code, stdout = out
        if code != 0:
            raise check.CheckFailed(f"trop amoeba exited {code}")
        amoeba, tropical = self.m["tropline.amoeba"], self.m["tropline.tropical"]
        # Points are dropped when n^(-p) w or n^(-q) (w + 1) underflows to
        # zero; both shrink as n grows, so the largest base drops the most.
        sample = amoeba.sample_amoeba(tropical.LineFamily(p, q), BASES[-1], count)
        entries = [(e["n"], e["hausdorff"]) for e in json.loads(stdout)["entries"]]
        check.check_ladder(entries, BASES, count - len(sample.points))

    def audit(self) -> list[str]:
        """Run the known-defect inputs; one line per input that fails."""
        failures = []
        for p, q, count in self.known_defects:
            try:
                self.check((p, q, count), self.op((p, q, count)))
            except Exception as exc:  # a defect is any exception, reported by type
                failures.append(f"({p}, {q}) samples {count}: {type(exc).__name__}: {exc}")
        return failures


def cli_in_process(cli, argv) -> tuple[int, str]:
    """`cli.main(argv)` in this interpreter: exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def run_trop(argv) -> tuple[int, str]:
    """One `trop` command in a fresh interpreter: exit code and stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", cli_prelude() + "sys.exit(main())", *argv],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    return proc.returncode, proc.stdout


def cli_prelude() -> str:
    """What the `trop` console script runs, with the checkout's sources first."""
    return f"import sys; sys.path.insert(0, {str(SRC)!r}); from tropline.cli import main; "


class Cli(Workload):
    """`trop` commands, each a fresh interpreter, run one at a time."""

    imports = ("tropline.cli", "tropline.tropical", "tropline.building")
    via_cli = True
    round_size = 9

    def __init__(self, tiny: bool = False):
        super().__init__()
        self.workdir = OUT / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.graph_count = 0
        self.in_process = False

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _graph_file(self, p, q) -> str:
        tropical, building = self.m["tropline.tropical"], self.m["tropline.building"]
        b = building.build_building(tropical.tropicalize_line(tropical.LineFamily(p, q)))
        self.graph_count += 1
        path = self.workdir / f"graph{self.graph_count}.json"
        path.write_text(json.dumps(building.graph_to_json(b.graph)), encoding="utf-8")
        return str(path)

    def rounds(self, rng):
        kernel_dim = {"INTERIOR": 0, "RAY": 1, "CONE": 2}
        while True:
            p, q = sweep_family(rng)
            gp, gq = sweep_family(rng)
            ap, aq = Amoeba.exponent(rng), Amoeba.exponent(rng)
            pq = ["--p", str(p), "--q", str(q)]
            yield [
                ("match", ["match", "--graph", self._graph_file(gp, gq)], gp, gq,
                 kernel_dim[check.expected_kind(gp, gq)]),
                ("match", ["match", "--graph", str(EXAMPLE1)], None, None, 2),
                ("classify", ["classify", *pq], p, q, None),
                ("building", ["building", *pq, "--json"], p, q, None),
                ("tropicalize", ["tropicalize", *pq, "--json"], p, q, None),
                ("types", ["types"], None, None, None),
                ("fan", ["fan", "--which", "ionel"], None, None, None),
                ("blowups", ["blowups"], None, None, None),
                ("amoeba", ["amoeba", "--p", str(ap), "--q", str(aq), "--n", BASES_ARG,
                            "--samples", "2000"], ap, aq, BASES),
            ]

    @staticmethod
    def argv(inp) -> list[str]:
        return inp[1]

    def op(self, inp):
        if self.in_process:
            return cli_in_process(self.m["tropline.cli"], inp[1])
        return run_trop(inp[1])

    def check(self, inp, out):
        kind, _argv, p, q, expected = inp
        code, stdout = out
        if code != 0:
            raise check.CheckFailed(f"trop {kind} exited {code}")
        check.check_cli_output(kind, stdout, p, q, expected)


WORKLOADS = {"sweep": Sweep, "refine": Refine, "amoeba": Amoeba, "cli": Cli}
