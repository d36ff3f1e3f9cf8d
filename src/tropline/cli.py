"""Command line surface: `trop <subcommand>`.

Exit codes: 0 success, 2 invalid input, 3 internal invariant violation.
Mathematical verdicts (infeasible systems, unstable buildings) are data in
the output and never nonzero exit codes.

Each subcommand imports the layers it uses in its handler, so `trop
classify` loads `moduli` and not `building` or `matching`.  This module
still imports `amoeba` when it loads: `perfbench/run.py` reads the
`tropline.amoeba` line of `-X importtime` on `import tropline.cli`, and
the import is cheap because `amoeba` imports numpy only at its first
computation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys
from fractions import Fraction

from . import amoeba as amoeba_mod
from . import tropical as tropical_mod
from .geometry import complete_fan, fan_to_text, parse_rational, rational_str


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _path_arg(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return text


_RATIONAL_FLAGS = ("--p", "--q", "--add-level")


def _join_negative_rationals(argv: list[str]) -> list[str]:
    """Each `--p -1/2` as `--p=-1/2`, so a negative rational reaches the
    range checks: before Python 3.13, argparse takes only -N and -N.N for
    negative numbers and reads a word like -1/2 as a flag."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in _RATIONAL_FLAGS and re.match(r"-\d", arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


# Built once per process, on first use: parse_args leaves the parser as it
# was, and the `append` default is copied before it is extended.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trop",
        description="Exact tropical limits of lines relative to the two coordinate divisors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pq(p: argparse.ArgumentParser) -> None:
        p.add_argument("--p", type=_rational_arg, required=True, help="valuation of x_n (N or N/D)")
        p.add_argument("--q", type=_rational_arg, required=True, help="valuation of y_n (N or N/D)")

    p_classify = sub.add_parser("classify", help="limit type of the family (p, q)")
    add_pq(p_classify)
    p_classify.add_argument("--json", action="store_true")

    p_trop = sub.add_parser("tropicalize", help="tropical limit curve of the family")
    add_pq(p_trop)
    p_trop.add_argument("--json", action="store_true")
    p_trop.add_argument("--svg", type=_path_arg, metavar="PATH")

    p_building = sub.add_parser("building", help="leveled dual graph of the limit")
    p_building.add_argument("--p", type=_rational_arg)
    p_building.add_argument("--q", type=_rational_arg)
    p_building.add_argument("--curve", metavar="PATH", help="tropical curve JSON instead of --p/--q")
    p_building.add_argument("--add-level", type=_rational_arg, action="append", default=[])
    p_building.add_argument("--json", action="store_true")

    p_match = sub.add_parser("match", help="matching system of a graph: solve, stability, weights")
    p_match.add_argument("--graph", metavar="PATH", required=True)
    p_match.add_argument("--rule", choices=["union", "per-direction"], default="union")

    p_fan = sub.add_parser("fan", help="emit a moduli fan")
    p_fan.add_argument("--which", choices=["exploded", "ionel", "complete"], required=True)
    p_fan.add_argument("--svg", type=_path_arg, metavar="PATH")

    sub.add_parser("blowups", help="blowup factorization from the coarse to the fine fan")

    p_types = sub.add_parser("types", help="the table of limit types")
    p_types.add_argument("--json", action="store_true")

    p_amoeba = sub.add_parser("amoeba", help="rescaled log-image convergence check")
    add_pq(p_amoeba)
    p_amoeba.add_argument("--n", required=True, help="comma separated rescaling bases")
    p_amoeba.add_argument("--samples", type=int, default=2000)
    p_amoeba.add_argument("--csv", type=_path_arg, metavar="PATH")
    p_amoeba.add_argument(
        "--points-csv", type=_path_arg, metavar="PATH",
        help="per-point cloud of the last base",
    )
    p_amoeba.add_argument("--window", type=float, default=None)

    p_render = sub.add_parser("render", help="render the realized curve of a graph")
    p_render.add_argument("--graph", metavar="PATH", required=True)
    p_render.add_argument("--svg", type=_path_arg, metavar="PATH", required=True)

    return parser


def _family(args) -> tropical_mod.LineFamily:
    return tropical_mod.LineFamily(args.p, args.q)


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:  # a RuntimeError, which `main` reports as internal
            raise ValueError("malformed JSON document: nested too deeply") from None


def _cmd_classify(args) -> int:
    from . import moduli

    lt = moduli.classify(args.p, args.q)
    if args.json:
        print(json.dumps({"kind": lt.kind, "label": lt.label, "mirror": lt.mirror}))
    else:
        print(f"type: {lt.label}")
        print(f"mirror: {lt.mirror}")
    return 0


def _cmd_tropicalize(args) -> int:
    curve = tropical_mod.tropicalize_line(_family(args))
    if args.svg:
        from . import building as building_mod
        from . import render

        levels = building_mod.extract_levels(curve)
        window = args.p + args.q + 2
        doc = render.render_tropical(curve, levels, render.RenderSpec(window=window))
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(doc)
    if args.json:
        print(json.dumps(tropical_mod.curve_to_json(curve)))
    else:
        for v in curve.vertices:
            print(f"vertex {v.id} at ({v.position.x}, {v.position.y})")
        for s in curve.segments:
            print(
                f"segment {s.tail} -> {s.head} contact ({s.contact.x}, {s.contact.y}) "
                f"length {s.length}"
            )
        for r in curve.rays:
            print(f"ray from {r.base} contact ({r.contact.x}, {r.contact.y})")
    return 0


def _cmd_building(args) -> int:
    from . import building as building_mod

    if args.curve is not None:
        if args.p is not None or args.q is not None:
            raise ValueError("building takes --curve or --p/--q, not both")
        curve = tropical_mod.curve_from_json(_read_json(args.curve))
    elif args.p is not None and args.q is not None:
        curve = tropical_mod.tropicalize_line(_family(args))
    else:
        raise ValueError("building needs --curve or both --p and --q")
    b = building_mod.build_building(curve, extra_levels=args.add_level)
    if args.json:
        print(json.dumps(building_mod.graph_to_json(b.graph)))
    else:
        print(building_mod.describe_building(b), end="")
    return 0


def _cmd_match(args) -> int:
    from . import building as building_mod
    from . import matching

    graph = building_mod.graph_from_json(_read_json(args.graph))
    system = matching.build_system(graph)
    cone = matching.solve(system)
    verdict = matching.check_stability(graph, rule=args.rule)
    out = {
        "variables": list(system.variables),
        "equations": [
            {
                "coefficients": {system.variables[j]: c for j, c in eq.row},
                "provenance": {
                    "direction": eq.direction,
                    "nodes": list(eq.chain),
                    "levels": list(eq.levels),
                },
            }
            for eq in system.equations
        ],
        "dimension": cone.dimension,
        "kernel_basis": [list(vec) for vec in cone.basis],
        "feasible": cone.feasible,
        "witness": None,
        "stable": verdict.stable,
        "covered": sorted(verdict.covered),
        "rule": verdict.rule,
    }
    if cone.feasible:
        out["witness"] = {
            name: rational_str(value)
            for name, value in zip(system.variables, cone.witness)
        }
        weights = matching.torus_weights(graph, cone)
        out["weights"] = {
            pid: [list(row) for row in rows] for pid, rows in weights.entries.items()
        }
        realized = matching.realize(graph, cone.witness)
        out["realized"] = tropical_mod.curve_to_json(realized)
    print(json.dumps(out))
    return 0


def _cmd_fan(args) -> int:
    from . import moduli

    if args.which == "exploded":
        fan = moduli.exploded_fan()
    elif args.which == "ionel":
        fan = moduli.ionel_fan()
    else:
        fan = complete_fan(moduli.ionel_fan())
    if args.svg:
        from . import render

        doc = render.render_fan(fan, render.RenderSpec(window=Fraction(3)))
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(doc)
    print(fan_to_text(fan), end="")
    return 0


def _cmd_blowups(args) -> int:
    from . import moduli

    steps = moduli.blowup_sequence(moduli.exploded_fan(), moduli.ionel_fan())
    for i, (cone, ray) in enumerate(steps, start=1):
        u, v = cone.generators
        print(
            f"blowup {i}: cone ({u.x},{u.y}),({v.x},{v.y}) insert ray ({ray.x},{ray.y})"
        )
    return 0


def _cmd_types(args) -> int:
    from . import moduli

    rows = moduli.type_table()
    if args.json:
        print(json.dumps([dataclasses.asdict(r) for r in rows]))
    else:
        width = max(len(r.label) for r in rows)
        cwidth = max(len(r.conditions) for r in rows)
        for r in rows:
            print(
                f"{r.label:<{width}}  {r.kind:<8}  {r.conditions:<{cwidth}}  "
                f"kernel {r.kernel_dim}  quotient {r.quotient_dim}  mirror {r.mirror}"
            )
    return 0


def _cmd_amoeba(args) -> int:
    try:
        bases = [float(part) for part in args.n.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"bad base list {args.n!r}") from exc
    family = tropical_mod.LineFamily(args.p, args.q)
    report = amoeba_mod.convergence_report(family, bases, args.samples, args.window)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write("n,hausdorff\n")
            for n, d in report.entries:
                handle.write(f"{n:g},{d:.9g}\n")
    if args.points_csv:
        # The full cloud of the last base, with its domain points.
        n = report.entries[-1][0]
        points = amoeba_mod.sample_amoeba(family, n, args.samples).points
        domain = amoeba_mod.sample_domain(family, n, args.samples)
        with open(args.points_csv, "w", encoding="utf-8") as handle:
            handle.write("re_w,im_w,X,Y\n")
            for w, (x, y) in zip(domain, points):
                handle.write(f"{w.real:.9g},{w.imag:.9g},{x:.9g},{y:.9g}\n")
    print(
        json.dumps(
            {
                "entries": [{"n": n, "hausdorff": d} for n, d in report.entries],
                "decay_constant": report.decay_constant,
                "r_squared": report.r_squared,
                "monotone": report.monotone,
            }
        )
    )
    return 0


def _cmd_render(args) -> int:
    from . import building as building_mod
    from . import matching, render

    graph = building_mod.graph_from_json(_read_json(args.graph))
    if not graph.pieces:
        raise ValueError("graph has no pieces to render")
    cone = matching.solve(matching.build_system(graph))
    if not cone.feasible:
        raise ValueError("graph has no strictly negative solution to realize")
    curve = matching.realize(graph, cone.witness)
    levels = building_mod.extract_levels(curve)
    window = max(c for v in curve.vertices for c in v.position) + 2
    doc = render.render_tropical(curve, levels, render.RenderSpec(window=window))
    with open(args.svg, "w", encoding="utf-8") as handle:
        handle.write(doc)
    print(f"wrote {args.svg}")
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "tropicalize": _cmd_tropicalize,
    "building": _cmd_building,
    "match": _cmd_match,
    "fan": _cmd_fan,
    "blowups": _cmd_blowups,
    "types": _cmd_types,
    "amoeba": _cmd_amoeba,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_rationals(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; normalize other codes.
        return 2 if exc.code not in (0,) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except ImportError as exc:
        # numpy, which only `trop amoeba` loads, is an optional extra.
        print(
            f"error: cannot import {exc.name}: {exc}"
            " (trop amoeba needs the 'amoeba' extra: pip install 'tropline[amoeba]')",
            file=sys.stderr,
        )
        return 2
    except (AssertionError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
