import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tropline import amoeba
from tropline.amoeba import sample_amoeba
from tropline.building import graph_from_json
from tropline.cli import main
from tropline.tropical import (
    LineFamily,
    curve_from_json,
    curve_to_json,
    curves_equal,
    reflect,
    tropicalize_line,
)

GOLDENS = Path(__file__).parent / "goldens"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "classify", "--p", "4", "--q", "3")
        assert code == 0
        assert out.splitlines() == ["type: CONE((1,1),(3,2))", "mirror: CONE((1,1),(2,3))"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--p", "2", "--q", "1", "--json")
        assert code == 0
        assert json.loads(out) == {
            "kind": "RAY",
            "label": "RAY(2,1)",
            "mirror": "RAY(1,2)",
        }

    def test_negative_exponent_exit_2(self, capsys):
        code, _, err = run(capsys, "classify", "--p", "-1", "--q", "0")
        assert code == 2
        assert err.strip()

    @pytest.mark.parametrize("p, q", [("-1/2", "1"), ("1", "-1/2")])
    def test_negative_fraction_reaches_the_exponent_check(self, capsys, p, q):
        code, out, err = run(capsys, "classify", "--p", p, "--q", q)
        assert (code, out) == (2, "")
        assert err == f"error: valuations must be non-negative, got ({p}, {q})\n"

    def test_decimal_rejected(self, capsys):
        code, _, _ = run(capsys, "classify", "--p", "1.5", "--q", "0")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "classify", "--p", "1", "--q", "0", "--bogus")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("classify", "--p", "1/0", "--q", "1"), "--p"),
            (("classify", "--p", "1", "--q", "1/0"), "--q"),
            (("building", "--p", "4", "--q", "3", "--add-level", "1/0"), "--add-level"),
        ],
    )
    def test_zero_denominator_exits_2(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {flag}: zero denominator in rational literal: '1/0'\n")
        assert "Traceback" not in err


class TestPipeline:
    def test_tropicalize_building_match(self, capsys, tmp_path):
        code, out, _ = run(capsys, "tropicalize", "--p", "4", "--q", "3", "--json")
        assert code == 0
        curve_doc = tmp_path / "curve.json"
        curve_doc.write_text(out)
        curve = curve_from_json(json.loads(out))
        assert curves_equal(curve, tropicalize_line(LineFamily.of(4, 3)))

        code, out, _ = run(capsys, "building", "--curve", str(curve_doc), "--json")
        assert code == 0
        graph_doc = tmp_path / "graph.json"
        graph_doc.write_text(out)

        code, out, _ = run(capsys, "match", "--graph", str(graph_doc))
        assert code == 0
        result = json.loads(out)
        assert result["dimension"] == 2
        assert result["stable"] is True
        assert result["feasible"] is True
        assert all(F(v) <= -1 for v in result["witness"].values())
        assert len(result["equations"]) == 5
        realized = curve_from_json(result["realized"])
        realized.validate()

    def test_pipeline_grid_feasible(self, capsys, tmp_path):
        for p, q in [("0", "0"), ("1", "2"), ("5/2", "1"), ("3", "3"), ("7/3", "0")]:
            code, out, _ = run(capsys, "building", "--p", p, "--q", q, "--json")
            assert code == 0
            doc = tmp_path / f"g{p.replace('/', '_')}-{q.replace('/', '_')}.json"
            doc.write_text(out)
            code, out, _ = run(capsys, "match", "--graph", str(doc))
            assert code == 0
            assert json.loads(out)["feasible"] is True

    def test_match_fixture(self, capsys, example1_path):
        code, out, _ = run(capsys, "match", "--graph", str(example1_path))
        assert code == 0
        result = json.loads(out)
        assert result["dimension"] == 2 and result["stable"] is True

    def test_match_golden_bytes(self, capsys, example1_path):
        code, out, _ = run(capsys, "match", "--graph", str(example1_path))
        assert code == 0
        assert out == (GOLDENS / "match-example1.json").read_text()

    def test_match_rule_flag(self, capsys, example1_path):
        code, out, _ = run(
            capsys, "match", "--graph", str(example1_path), "--rule", "per-direction"
        )
        assert code == 0
        assert json.loads(out)["stable"] is False

    def test_building_describe_text(self, capsys):
        code, out, _ = run(capsys, "building", "--p", "4", "--q", "3")
        assert code == 0
        assert out.splitlines()[0] == "levels: 1 3 4"

    def test_building_extra_level_turns_unstable(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "building", "--p", "4", "--q", "3", "--add-level", "2", "--json"
        )
        assert code == 0
        doc = tmp_path / "refined.json"
        doc.write_text(out)
        code, out, _ = run(capsys, "match", "--graph", str(doc))
        assert code == 0
        assert json.loads(out)["stable"] is False

    @pytest.mark.parametrize("level", ["0", "-1", "-1/2"])
    def test_building_non_positive_extra_level_exits_2(self, capsys, level):
        code, out, err = run(capsys, "building", "--p", "4", "--q", "3", "--add-level", level)
        assert (code, out) == (2, "")
        assert err == f"error: levels must be strictly increasing and positive: {level}, 1, 3, 4\n"

    def test_building_curve_with_zero_denominator_exits_2(self, capsys, tmp_path):
        doc = curve_to_json(tropicalize_line(LineFamily(4, 3)))
        doc["vertices"][0]["x"] = "1/0"
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "building", "--curve", str(path))
        assert (code, out) == (2, "")
        assert err == "error: zero denominator in rational literal: '1/0'\n"

    def test_building_needs_input(self, capsys):
        code, _, err = run(capsys, "building", "--json")
        assert code == 2 and err


class TestFanCommands:
    def test_fan_text(self, capsys):
        code, out, _ = run(capsys, "fan", "--which", "ionel")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ray 1 0"
        assert sum(1 for line in lines if line.startswith("ray")) == 7
        assert sum(1 for line in lines if line.startswith("cone")) == 6

    def test_fan_complete(self, capsys):
        code, out, _ = run(capsys, "fan", "--which", "complete")
        assert code == 0
        assert "ray -1 0" in out and "ray 0 -1" in out

    def test_blowups(self, capsys):
        code, out, _ = run(capsys, "blowups")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0] == "blowup 1: cone (1,0),(1,1) insert ray (2,1)"
        assert lines[3] == "blowup 4: cone (1,1),(1,2) insert ray (2,3)"

    def test_types_json(self, capsys):
        code, out, _ = run(capsys, "types", "--json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 14
        assert all(r["kernel_dim"] + r["quotient_dim"] == 2 for r in rows)

    def test_types_table(self, capsys):
        code, out, _ = run(capsys, "types")
        assert code == 0
        assert len(out.splitlines()) == 14

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("types.txt", ("types",)),
            ("types.json", ("types", "--json")),
            ("fan-exploded.txt", ("fan", "--which", "exploded")),
            ("fan-ionel.txt", ("fan", "--which", "ionel")),
            ("fan-complete.txt", ("fan", "--which", "complete")),
            ("blowups.txt", ("blowups",)),
            ("tropicalize-4-3.txt", ("tropicalize", "--p", "4", "--q", "3")),
            ("tropicalize-2-0.txt", ("tropicalize", "--p", "2", "--q", "0")),
        ],
    )
    def test_golden_bytes(self, capsys, name, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == (GOLDENS / name).read_text()

    @pytest.mark.parametrize("which", ["exploded", "ionel", "complete"])
    def test_fan_svg_golden_bytes(self, capsys, tmp_path, which):
        path = tmp_path / "f.svg"
        code, out, _ = run(capsys, "fan", "--which", which, "--svg", str(path))
        assert code == 0 and out == (GOLDENS / f"fan-{which}.txt").read_text()
        assert path.read_text() == (GOLDENS / f"fan-{which}.svg").read_text()


class TestSvgAndCsv:
    def test_tropicalize_svg(self, capsys, tmp_path):
        path = tmp_path / "c.svg"
        code, _, _ = run(
            capsys, "tropicalize", "--p", "4", "--q", "3", "--svg", str(path), "--json"
        )
        assert code == 0
        assert path.read_text().startswith("<svg")

    def test_fan_svg(self, capsys, tmp_path):
        path = tmp_path / "f.svg"
        code, _, _ = run(capsys, "fan", "--which", "exploded", "--svg", str(path))
        assert code == 0
        assert 'class="ray"' in path.read_text()

    def test_amoeba_csv(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "a.csv"
        points = tmp_path / "pts.csv"
        sampled = []

        def counting(family, n, count, depth=None):
            sampled.append(n)
            return sample_amoeba(family, n, count, depth)

        monkeypatch.setattr(amoeba, "sample_amoeba", counting)
        code, out, _ = run(
            capsys,
            "amoeba",
            "--p", "4", "--q", "3",
            "--n", "1e3,1e8",
            "--samples", "400",
            "--csv", str(path),
            "--points-csv", str(points),
        )
        assert code == 0
        # The points CSV reuses the ladder's last cloud.
        assert sampled == [1e3, 1e8]
        lines = path.read_text().splitlines()
        assert lines[0] == "n,hausdorff"
        assert len(lines) == 3
        point_lines = points.read_text().splitlines()
        assert point_lines[0] == "re_w,im_w,X,Y"
        fresh = sample_amoeba(LineFamily(4, 3), 1e8, 400)
        assert point_lines[1:] == [
            f"{w.real:.9g},{w.imag:.9g},{x:.9g},{y:.9g}"
            for w, (x, y) in zip(fresh.domain, fresh.points)
        ]
        report = json.loads(out)
        assert len(report["entries"]) == 2

    def test_amoeba_extreme_exponents(self, capsys):
        code, out, err = run(
            capsys, "amoeba", "--p", "200", "--q", "150", "--n", "1e3,1e4,1e6,1e8"
        )
        assert code == 0 and err == ""
        distances = [e["hausdorff"] for e in json.loads(out)["entries"]]
        assert len(distances) == 4 and all(math.isfinite(d) for d in distances)

    def test_arithmetic_error_exits_2(self, capsys):
        huge = "1" + "0" * 400
        code, out, err = run(capsys, "amoeba", "--p", huge, "--q", "1", "--n", "1e3,1e4")
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "message, line",
        [
            ("Unable to allocate 2.98 GiB", "error: Unable to allocate 2.98 GiB"),
            ("", "error: out of memory"),
        ],
    )
    def test_memory_error_exits_2(self, capsys, monkeypatch, message, line):
        def exhausted(family, n, count, depth=None):
            raise MemoryError(message)

        monkeypatch.setattr(amoeba, "sample_amoeba", exhausted)
        code, out, err = run(capsys, "amoeba", "--p", "1", "--q", "2", "--n", "1e3,1e4")
        assert code == 2 and out == ""
        assert err == line + "\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ("--n", "1e3"),
            ("--n", "1e3,1e3"),
            *(("--n", "1e3,1e4", "--window", w) for w in ("inf", "nan", "0", "-1", "1e300")),
        ],
    )
    def test_amoeba_bad_ladder_exits_2(self, capsys, flags):
        code, out, err = run(capsys, "amoeba", "--p", "1", "--q", "2", "--samples", "200", *flags)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_amoeba_window_beyond_sampled_depth_exits_2(self, capsys):
        code, out, err = run(
            capsys, "amoeba", "--p", "1", "--q", "2", "--n", "1e3,1e4,1e6,1e8", "--window", "10"
        )
        assert code == 2 and out == ""
        assert err == "error: window 10 reaches past the sampled depth p + q + 2 = 5\n"

    @pytest.mark.parametrize(
        "name, flags",
        [
            ("amoeba-1-2.json", ("--p", "1", "--q", "2", "--samples", "2000")),
            ("amoeba-3_2-3.json", ("--p", "3/2", "--q", "3", "--samples", "20000")),
            ("amoeba-200-150.json", ("--p", "200", "--q", "150")),
        ],
    )
    def test_amoeba_golden_bytes(self, capsys, name, flags):
        code, out, _ = run(capsys, "amoeba", *flags, "--n", "1e3,1e4,1e6,1e8")
        assert code == 0
        assert out == (GOLDENS / name).read_text()

    def test_render_graph(self, capsys, tmp_path, example1_path):
        path = tmp_path / "g.svg"
        code, _, _ = run(capsys, "render", "--graph", str(example1_path), "--svg", str(path))
        assert code == 0
        assert path.read_text().startswith("<svg")

    def test_unreadable_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "match", "--graph", str(tmp_path / "missing.json"))
        assert code == 2 and err


class TestJsonTypes:
    @pytest.mark.parametrize(
        "command, keys, value",
        [
            ("match", ("ends", 0, "contact"), [1.5, 0]),
            ("match", ("nodes", 0, "contact"), [True, 1]),
            ("match", ("pieces", 1, "trivial"), "false"),
            ("match", ("pieces", 0, "trivial"), 0),
            ("match", ("num_levels",), "3"),
            ("match", ("pieces", 0, "levels", 0, "at"), 1.0),
            ("match", ("pieces", 1, "levels", 0, "between"), ["1", 2]),
            ("building", ("vertices", 0, "x"), 1),
            ("building", ("segments", 0, "length"), 3),
            ("building", ("segments", 0, "contact"), [1.0, 1]),
            ("building", ("rays", 0, "contact"), [True, False]),
            ("match", ("nodes", 0, "contact"), [1, 1, 7]),
            ("match", ("pieces", 1, "levels", 0, "between"), [1, 2, 3]),
            ("building", ("rays", 0, "contact"), [1, 0, 5]),
        ],
        ids=[
            "end-contact-float",
            "node-contact-bool",
            "trivial-string",
            "trivial-int",
            "num-levels-string",
            "at-float",
            "between-string",
            "vertex-x-int",
            "length-int",
            "segment-contact-float",
            "ray-contact-bool",
            "node-contact-triple",
            "between-triple",
            "ray-contact-triple",
        ],
    )
    def test_wrong_json_type_exits_2(self, capsys, tmp_path, example1_path, command, keys, value):
        """Contacts, levels and `num_levels` must be JSON integers, `trivial` a
        JSON boolean and curve coordinates rational strings; contacts and
        `between` have exactly two entries.  Nothing is coerced."""
        if command == "match":
            doc = json.loads(example1_path.read_text())
            flag, what = "--graph", "graph"
        else:
            doc = curve_to_json(tropicalize_line(LineFamily(4, 3)))
            flag, what = "--curve", "tropical curve"
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, flag, str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: malformed {what} document: ")

    def test_piece_with_three_levels_exits_2(self, capsys, tmp_path, example1_path):
        """A piece has exactly two level coordinates; the graph's constructor
        rejects any other count."""
        doc = json.loads(example1_path.read_text())
        doc["pieces"][0]["levels"].append({"at": 0})
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "match", "--graph", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: piece {doc['pieces'][0]['id']} needs exactly 2 level coordinates\n"


class TestDeterminism:
    def test_repeat_runs_identical(self, capsys, example1_path):
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "match", "--graph", str(example1_path))
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_parser_reuse_keeps_no_state(self, capsys):
        """A second in-process call prints what a fresh `trop` prints, after
        a first call extended the `--add-level` list."""
        code, _, _ = run(capsys, "building", "--p", "4", "--q", "3", "--add-level", "2")
        assert code == 0
        code, out, _ = run(capsys, "building", "--p", "4", "--q", "3")
        assert code == 0
        paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
        fresh = subprocess.run(
            [sys.executable, "-m", "tropline.cli", "building", "--p", "4", "--q", "3"],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths))),
            capture_output=True, text=True, timeout=120,
        )
        assert fresh.returncode == 0 and out == fresh.stdout

    def test_svg_bytes_identical(self, capsys, tmp_path):
        texts = []
        for name in ("a.svg", "b.svg"):
            path = tmp_path / name
            code, _, _ = run(capsys, "fan", "--which", "ionel", "--svg", str(path))
            assert code == 0
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]


class TestInvariantChecks:
    def test_checks_run_under_optimize(self, example1_path):
        """Both exact invariant checks raise under `python -O`, and a
        violation exits 3.  Curves, graphs, cones and fans still check
        themselves when they are built, a curve's `validate()` still checks
        the segment identity, `build_building` rejects a non-positive extra
        level, a chain walk rejects a cycle and `realize` a solution that
        misses a variable."""
        script = textwrap.dedent(
            f"""
            import sys
            from fractions import Fraction
            from tropline import _linalg
            from tropline.building import (
                EndEdge, GraphInvalid, LevelCoordinate as L, LeveledDualGraph, NodeEdge, Piece,
                build_building,
            )
            from tropline.cli import main
            from tropline.matching import (
                AmbiguousChain, SolutionNotInCone, build_system, realize,
            )
            from tropline.geometry import (
                Cone, Fan, LatticeVector as V, QuadrantPoint, StructuralInvalid,
            )
            from tropline.tropical import (
                CurveInvalid, LineFamily, Ray, Segment, TropicalCurve, Vertex, tropicalize_line,
            )

            if __debug__:
                sys.exit("not running under -O")

            a, b = Piece("a", (L.at(0), L.at(0)), False), Piece("b", (L.at(0), L.at(0)), False)
            V0 = (Vertex("a", QuadrantPoint(0, 0)), Vertex("b", QuadrantPoint(1, 1)))
            x, y = V(1, 0), V(0, 1)
            # n1 runs right from `a`, at levels (1, 1), to `c`, between levels
            # 1 and 2 in direction 1, and n2 runs up from `c` back to `a`: a
            # valid graph whose direction-1 chain from `a` returns to `a`.
            loop = LeveledDualGraph(
                2,
                (Piece("a", (L.at(1), L.at(1)), False), Piece("c", (L.between(1), L.at(1)), False)),
                (NodeEdge("n1", "a", "c", x), NodeEdge("n2", "c", "a", y)),
                (),
            )

            builds = [
                (CurveInvalid, lambda: TropicalCurve(
                    (Vertex("a", QuadrantPoint(1, 1)),), (), (Ray("a", V(-1, 0)),)
                )),
                (CurveInvalid, lambda: TropicalCurve(
                    (Vertex("a", QuadrantPoint(0, 0)), Vertex("b", QuadrantPoint(1, 2))),
                    (Segment("a", "b", V(1, 1), Fraction(1)),),
                    (),
                ).validate()),
                (GraphInvalid, lambda: LeveledDualGraph(
                    0, (), (NodeEdge("n1", "c1", "c2", V(1, 0)),), ()
                )),
                (GraphInvalid, lambda: LeveledDualGraph(0, (a, a), (), ())),
                (GraphInvalid, lambda: LeveledDualGraph(
                    0, (a, b), (NodeEdge("n1", "a", "b", V(0, 0)),) * 2, ()
                )),
                (GraphInvalid, lambda: LeveledDualGraph(0, (a,), (), (EndEdge("z", x),))),
                (GraphInvalid, lambda: LeveledDualGraph(0, (a, b), (), ())),
                (CurveInvalid, lambda: TropicalCurve((V0[0], V0[0]), (), ())),
                (CurveInvalid, lambda: TropicalCurve(V0, (Segment("a", "b", V(0, 0), 1),), ())),
                (CurveInvalid, lambda: TropicalCurve(V0, (Segment("a", "b", V(1, 1), 0),), ())),
                (CurveInvalid, lambda: TropicalCurve(V0, (), ())),
                (StructuralInvalid, lambda: Fan(rays=(x, x), cones=())),
                (StructuralInvalid, lambda: Fan(rays=(V(2, 0),), cones=())),
                (StructuralInvalid, lambda: Fan(rays=(x, y), cones=(Cone((x, y)),) * 2)),
                (StructuralInvalid, lambda: Cone((x, V(1, 1), y))),
                (StructuralInvalid, lambda: Cone((y, x))),
                (AmbiguousChain, lambda: build_system(loop)),
                (SolutionNotInCone, lambda: realize(
                    build_building(tropicalize_line(LineFamily(4, 3))).graph, {{}}
                )),
                (StructuralInvalid, lambda: Fan(
                    rays=(V(1, 0), V(1, 1), V(1, 2)),
                    cones=(Cone((V(1, 0), V(1, 2))), Cone((V(1, 0), V(1, 1)))),
                )),
                (GraphInvalid, lambda: build_building(tropicalize_line(LineFamily(4, 3)), [0])),
            ]
            for exc, build in builds:
                try:
                    build()
                except exc:
                    continue
                sys.exit(f"an invalid object did not raise {{exc.__name__}}")

            # A simplex point off the matching equations.
            simplex = _linalg.negative_orthant_point
            _linalg.negative_orthant_point = lambda rows, ncols: [Fraction(-1)] * ncols
            if main(["match", "--graph", {str(example1_path)!r}]) != 3:
                sys.exit("witness check did not run")
            _linalg.negative_orthant_point = simplex

            # A kernel basis vector off the matching equations.
            _linalg.kernel_basis = lambda rows, nvars: [[Fraction(1)] * nvars]
            sys.exit(0 if main(["match", "--graph", {str(example1_path)!r}]) == 3 else 1)
            """
        )
        paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "internal error: witness is not a solution" in proc.stderr
        assert "internal error: kernel vector violates" in proc.stderr


def mutate(doc, pick):
    """Apply one structural edit to a graph document in place; `pick(a, b)`
    draws an integer in [a, b]."""
    pieces, nodes, ends = doc["pieces"], doc["nodes"], doc["ends"]

    def any_of(items):
        return items[pick(0, len(items) - 1)]

    op = pick(0, 10)
    if op == 0 and nodes:
        any_of(nodes)["contact"][pick(0, 1)] = pick(-2, 2)
    elif op == 1 and ends:
        any_of(ends)["contact"][pick(0, 1)] = pick(-2, 2)
    elif op == 2 and pieces:
        v = pick(0, 4)
        any_of(pieces)["levels"][pick(0, 1)] = {"at": v} if pick(0, 1) else {"between": [v, v + 1]}
    elif op == 3 and pieces:
        piece = any_of(pieces)
        piece["trivial"] = not piece["trivial"]
    elif op == 4 and nodes:
        node = any_of(nodes)
        node["tail"], node["head"] = node["head"], node["tail"]
    elif op == 5 and nodes and pieces:
        any_of(nodes)[("tail", "head")[pick(0, 1)]] = any_of(pieces)["id"]
    elif op == 6 and ends and pieces:
        any_of(ends)["piece"] = any_of(pieces)["id"]
    elif op == 7:
        items = (pieces, nodes, ends)[pick(0, 2)]
        if items:
            del items[pick(0, len(items) - 1)]
    elif op == 8:
        doc["num_levels"] = pick(0, 5)
    elif op == 9 and pieces:
        nodes.append({
            "id": f"m{len(nodes)}",
            "tail": any_of(pieces)["id"],
            "head": any_of(pieces)["id"],
            "contact": [pick(-1, 2), pick(-1, 2)],
        })
    elif op == 10 and pieces:
        ends.append({"piece": any_of(pieces)["id"], "contact": [pick(-1, 2), pick(-1, 2)]})


class TestMutatedGraphs:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_match_exits_2_unless_graph_validates(self, data):
        """`trop match` on a mutated example either rejects the document with
        exit 2 or was given a document that builds a valid graph."""
        with open(Path(__file__).parent / "fixtures" / "example1.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        for _ in range(data.draw(st.integers(1, 3))):
            mutate(doc, lambda a, b: data.draw(st.integers(a, b)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "graph.json"
            path.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                code = main(["match", "--graph", str(path)])
        assert code in (0, 2), doc
        if code == 0:
            graph_from_json(doc)


def match_mutation_lines():
    """`trop match` on 400 seeded mutations of `example1.json`, one line
    each: the exit code, then stderr as a JSON string."""
    rng = random.Random(1089)
    text = (Path(__file__).parent / "fixtures" / "example1.json").read_text()
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        for _ in range(400):
            doc = json.loads(text)
            for _ in range(rng.randint(1, 3)):
                mutate(doc, rng.randint)
            path.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["match", "--graph", str(path)])
            lines.append(f"{code} {json.dumps(err.getvalue())}")
    return lines


class TestMatchMutationGolden:
    def test_exit_codes_and_messages_pinned(self):
        """Which mutated documents `trop match` rejects, and with which
        message, is pinned line by line in `goldens/match-mutations.txt`."""
        golden = (GOLDENS / "match-mutations.txt").read_text().splitlines()
        assert match_mutation_lines() == golden


def building_curve_documents():
    """Small `--curve` inputs for `trop building`, by file name."""
    flipped = curve_to_json(tropicalize_line(LineFamily(4, 3)))
    flipped["segments"] = [{"tail": "v1", "head": "v0", "contact": [-1, -1], "length": "3"}]
    return {
        "reflected-4-3.json": curve_to_json(reflect(tropicalize_line(LineFamily(4, 3)))),
        "flipped-4-3.json": flipped,
        "two-segments.json": {
            "vertices": [
                {"id": "a", "x": "0", "y": "1/2"},
                {"id": "b", "x": "3/2", "y": "2"},
                {"id": "c", "x": "3/2", "y": "7/2"},
            ],
            "segments": [
                {"tail": "b", "head": "a", "contact": [-1, -1], "length": "3/2"},
                {"tail": "c", "head": "b", "contact": [0, -1], "length": "3/2"},
            ],
            "rays": [{"base": "b", "contact": [1, 0]}, {"base": "c", "contact": [0, 1]}],
        },
        "ray-past-top.json": {
            "vertices": [{"id": "a", "x": "3/2", "y": "7/2"}],
            "segments": [],
            "rays": [{"base": "a", "contact": [1, 1]}],
        },
        "downward.json": {
            "vertices": [{"id": "a", "x": "0", "y": "2"}, {"id": "b", "x": "1", "y": "1"}],
            "segments": [{"tail": "a", "head": "b", "contact": [1, -1], "length": "1"}],
            "rays": [{"base": "b", "contact": [1, 0]}, {"base": "b", "contact": [0, 1]}],
        },
    }


def building_grid_argvs():
    """The `trop building` runs pinned in `goldens/building-grid.txt`."""
    values = ["0", "1/2", "1", "3/2", "2", "3", "4", "7/3"]
    extra = ["--add-level", "1/2", "--add-level", "5"]
    argvs = []
    for p in values:
        for q in values:
            argvs.append(["building", "--p", p, "--q", q])
            argvs.append(["building", "--p", p, "--q", q, *extra])
    for p, q in [("4", "3"), ("7/3", "3/2"), ("0", "1/2"), ("2", "2")]:
        argvs.append(["building", "--p", p, "--q", q, "--json"])
        argvs.append(["building", "--p", p, "--q", q, "--json", *extra])
    for name in building_curve_documents():
        argvs.append(["building", "--curve", name])
        argvs.append(["building", "--curve", name, *extra])
        argvs.append(["building", "--curve", name, "--json"])
    return argvs


def building_grid_lines():
    """`trop building` on every run of `building_grid_argvs`, one JSON line
    each: argv (curve documents by file name), exit code, stdout, stderr."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in building_curve_documents().items():
            (Path(tmp) / name).write_text(json.dumps(doc))
        for argv in building_grid_argvs():
            run_argv = [str(Path(tmp) / a) if a.endswith(".json") else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(run_argv)
            lines.append(json.dumps({
                "argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            }))
    return lines


class TestBuildingGolden:
    def test_building_runs_pinned(self):
        """Pieces, names, nodes, ends and errors of `trop building` on a grid
        of families and small curve documents are pinned in
        `goldens/building-grid.txt`."""
        golden = (GOLDENS / "building-grid.txt").read_text().splitlines()
        assert building_grid_lines() == golden
