import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tropline.building import graph_from_json
from tropline.cli import main
from tropline.tropical import curve_from_json, curves_equal, tropicalize_line, LineFamily

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

    def test_decimal_rejected(self, capsys):
        code, _, _ = run(capsys, "classify", "--p", "1.5", "--q", "0")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "classify", "--p", "1", "--q", "0", "--bogus")
        assert code == 2


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

    def test_amoeba_csv(self, capsys, tmp_path):
        path = tmp_path / "a.csv"
        points = tmp_path / "pts.csv"
        code, out, _ = run(
            capsys,
            "amoeba",
            "--p", "4", "--q", "3",
            "--n", "1e3,1e4",
            "--samples", "400",
            "--csv", str(path),
            "--points-csv", str(points),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "n,hausdorff"
        assert len(lines) == 3
        point_lines = points.read_text().splitlines()
        assert point_lines[0] == "re_w,im_w,X,Y"
        assert len(point_lines) == 401
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
        violation exits 3."""
        script = textwrap.dedent(
            f"""
            import sys
            from fractions import Fraction
            from tropline import _linalg
            from tropline.cli import main

            if __debug__:
                sys.exit("not running under -O")

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
        exit 2 or was given a graph that passes `validate()`."""
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
            graph_from_json(doc).validate()
