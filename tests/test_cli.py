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
from hypothesis import HealthCheck, given, settings, strategies as st

from tropline import amoeba
from tropline.amoeba import sample_amoeba, sample_domain
from tropline.building import GraphInvalid, graph_from_json
from tropline.cli import main
from tropline.matching import build_system, realize, solve, torus_weights
from tropline.tropical import LineFamily, curve_from_json, curve_to_json, tropicalize_line

from oracles import curves_equal, reflect

FIXTURES = Path(__file__).parent / "fixtures"
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
        assert curves_equal(curve, tropicalize_line(LineFamily(4, 3)))

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

    def test_match_infeasible_golden_bytes(self, capsys):
        # The worked example with c4 raised to levels (3, 3): alpha(n4) = 0.
        graph = FIXTURES / "example1-infeasible.json"
        code, out, _ = run(capsys, "match", "--graph", str(graph))
        assert code == 0
        assert out == (GOLDENS / "match-infeasible.json").read_text()
        assert json.loads(out)["feasible"] is False

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

    @pytest.mark.parametrize("given", [["--p", "1", "--q", "2"], ["--p", "1"], ["--q", "2"]])
    def test_building_curve_with_p_or_q_exits_2(self, capsys, tmp_path, given):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(curve_to_json(tropicalize_line(LineFamily(4, 3)))))
        code, out, err = run(capsys, "building", "--curve", str(path), *given)
        assert (code, out) == (2, "")
        assert err == "error: building takes --curve or --p/--q, not both\n"

    @pytest.mark.parametrize("ids, shown", [((0, None), "0"), ((True, 1), "True")])
    def test_building_curve_with_non_string_ids_exits_2(self, capsys, tmp_path, ids, shown):
        """Vertex ids, segment ends and ray bases are JSON strings: nothing
        else is read as an id, so ids 0 and null are not accepted, and ids
        true and 1 are not called duplicates."""
        a, b = ids
        doc = {
            "vertices": [{"id": a, "x": "1", "y": "0"}, {"id": b, "x": "2", "y": "1"}],
            "segments": [{"tail": a, "head": b, "contact": [1, 1], "length": "1"}],
            "rays": [{"base": b, "contact": [1, 0]}, {"base": b, "contact": [0, 1]}],
        }
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "building", "--curve", str(path))
        assert (code, out) == (2, "")
        assert err == (
            f"error: malformed tropical curve document: expected a JSON str for 'id', got {shown}\n"
        )


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

    def test_tropicalize_svg_past_float_range_exits_2(self, capsys, tmp_path):
        # At 400 digits the window p + q + 2, drawn at 60 px a unit, is past
        # the float range and refused by name; at 306 digits it still draws.
        path = tmp_path / "c.svg"
        code, out, err = run(capsys, "tropicalize", "--p", "9" * 400, "--q", "1", "--svg", str(path))
        assert (code, out) == (2, "") and not path.exists()
        assert err == (
            "error: window is too large to draw: its side, window * 60 px, "
            "is past the float range\n"
        )
        code, _, _ = run(capsys, "tropicalize", "--p", "9" * 306, "--q", "1", "--svg", str(path))
        assert code == 0 and path.read_text().startswith("<svg")

    @pytest.mark.parametrize(
        "argv",
        [
            ["fan", "--which", "ionel", "--svg", ""],
            ["tropicalize", "--p", "1", "--q", "2", "--svg", ""],
            ["amoeba", "--p", "1", "--q", "2", "--n", "1e3,1e4", "--csv", ""],
            ["amoeba", "--p", "1", "--q", "2", "--n", "1e3,1e4", "--points-csv", ""],
            ["render", "--graph", str(FIXTURES / "example1.json"), "--svg", ""],
        ],
        ids=["fan-svg", "tropicalize-svg", "amoeba-csv", "amoeba-points-csv", "render-svg"],
    )
    def test_empty_output_path_exits_2(self, capsys, argv):
        # An empty path names no file; it is refused, not read as no path.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"trop {argv[0]}: error: argument {argv[-2]}: an empty path names no file"
        )

    def test_fan_svg(self, capsys, tmp_path):
        path = tmp_path / "f.svg"
        code, _, _ = run(capsys, "fan", "--which", "exploded", "--svg", str(path))
        assert code == 0
        assert 'class="ray"' in path.read_text()

    def test_amoeba_csv(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "a.csv"
        points = tmp_path / "pts.csv"
        sampled = []

        def counting(family, n, count, window=None):
            sampled.append((n, window))
            return sample_amoeba(family, n, count, window)

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
        # Each base samples only the window [0, p + q + 1]^2; the points CSV
        # asks for one full cloud, of the last base.
        assert sampled == [(1e3, 8.0), (1e8, 8.0), (1e8, None)]
        lines = path.read_text().splitlines()
        assert lines[0] == "n,hausdorff"
        assert len(lines) == 3
        point_lines = points.read_text().splitlines()
        assert point_lines[0] == "re_w,im_w,X,Y"
        fresh = sample_amoeba(LineFamily(4, 3), 1e8, 400)
        assert point_lines[1:] == [
            f"{w.real:.9g},{w.imag:.9g},{x:.9g},{y:.9g}"
            for w, (x, y) in zip(sample_domain(LineFamily(4, 3), 1e8, 400), fresh.points)
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

    def test_arithmetic_error_exits_2(self, capsys, monkeypatch):
        def overflowing(family, n, count, window=None):
            raise OverflowError("integer division result too large for a float")

        monkeypatch.setattr(amoeba, "sample_amoeba", overflowing)
        code, out, err = run(capsys, "amoeba", "--p", "1", "--q", "2", "--n", "1e3,1e4")
        assert code == 2 and out == ""
        assert err == "error: integer division result too large for a float\n"

    @pytest.mark.parametrize("window", [(), ("--window", "4")], ids=["default-window", "window-4"])
    @pytest.mark.parametrize(
        "p, q, name",
        [("9" * 400, "1", "p"), ("1", "1" + "0" * 400 + "/3", "q"), ("9" * 308, "9" * 308, "p")],
        ids=["p", "q", "sum"],
    )
    def test_amoeba_exponent_past_float_range_exits_2(self, capsys, window, p, q, name):
        """The default window p + q + 1 and the sampler's floats of p and q
        pass through one check, which names the exponent."""
        code, out, err = run(capsys, "amoeba", "--p", p, "--q", q, "--n", "1e3,1e4", *window)
        assert code == 2 and out == ""
        assert err == f"error: exponent {name} is past the float range\n"

    @pytest.mark.parametrize(
        "message, line",
        [
            ("Unable to allocate 2.98 GiB", "error: Unable to allocate 2.98 GiB"),
            ("", "error: out of memory"),
        ],
    )
    def test_memory_error_exits_2(self, capsys, monkeypatch, message, line):
        def exhausted(family, n, count, window=None):
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

    def test_amoeba_bases_with_one_log_exits_2(self, capsys):
        # Distinct bases one ulp apart give one value of 1 / log n to fit on.
        code, out, err = run(
            capsys, "amoeba", "--p", "1", "--q", "2", "--samples", "200",
            "--n", "1000.0,1000.0000000000001",
        )
        assert code == 2 and out == ""
        assert err == (
            "error: a convergence ladder needs bases with two distinct values of 1 / log n\n"
        )

    @pytest.mark.parametrize(
        "window, line",
        [
            ("1e-7", "error: no sample points inside the window"),
            ("1e-310", "error: no sample points inside the window"),
            ("5e-324", "error: window 5e-324 is too small: its polyline step rounds to 0"),
        ],
        ids=["1e-7", "1e-310", "5e-324"],
    )
    def test_amoeba_tiny_window_exits_2(self, capsys, window, line):
        code, out, err = run(
            capsys, "amoeba", "--p", "1", "--q", "2", "--n", "1e3,1e4", "--window", window
        )
        assert code == 2 and out == "" and err == line + "\n"

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
        assert path.read_bytes() == (GOLDENS / "render-example1.svg").read_bytes()

    def test_render_graph_with_no_variables(self, capsys, tmp_path):
        # The one-piece building of (0, 0) has no node and no level, so its
        # feasible witness is empty; it still realizes and renders.
        graph, svg = tmp_path / "g.json", tmp_path / "g.svg"
        code, out, _ = run(capsys, "building", "--p", "0", "--q", "0", "--json")
        assert code == 0
        graph.write_text(out)
        code, out, err = run(capsys, "render", "--graph", str(graph), "--svg", str(svg))
        assert (code, out, err) == (0, f"wrote {svg}\n", "")
        assert svg.read_bytes() == (GOLDENS / "render-0-0.svg").read_bytes()

    @pytest.mark.parametrize("num_levels", [0, 2])
    def test_render_graph_with_no_pieces_exits_2(self, capsys, tmp_path, num_levels):
        """`trop match` accepts a graph without pieces; `trop render` has no
        curve to draw and says so."""
        graph, svg = tmp_path / "g.json", tmp_path / "g.svg"
        graph.write_text(json.dumps({"num_levels": num_levels, "pieces": [], "nodes": [], "ends": []}))
        assert run(capsys, "match", "--graph", str(graph))[0] == 0
        code, out, err = run(capsys, "render", "--graph", str(graph), "--svg", str(svg))
        assert (code, out, err) == (2, "", "error: graph has no pieces to render\n")
        assert not svg.exists()

    def test_unreadable_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "match", "--graph", str(tmp_path / "missing.json"))
        assert code == 2 and err


# Windows from the smallest subnormal to far past the accepted 1e150, and
# the non-finite and non-positive values a user can type.
WINDOWS = st.one_of(
    st.floats(min_value=5e-324, max_value=1e300),
    st.sampled_from([5e-324, 1e-310, 1e-300, 1e-7, 1.5, 1e150, 1e300]),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e-5]),
)
# Ladders of accepted bases, and lists that may hold any base.
BASES = st.one_of(
    st.lists(st.floats(min_value=1.5, max_value=1e8), min_size=2, max_size=4, unique=True),
    st.lists(
        st.floats(min_value=1.0, max_value=1e9)
        | st.sampled_from([1e3, 1e8, 1.0, 0.5, -1e3, 0.0, math.nan, math.inf]),
        max_size=4,
    ),
)


class TestAmoebaArguments:
    @given(
        pq=st.sampled_from([("1", "2"), ("0", "0"), ("3/2", "3"), ("4", "3")]),
        window=st.none() | st.floats(min_value=1e-3, max_value=12.0) | WINDOWS,
        samples=st.integers(-3, 3000),
        bases=BASES,
    )
    @settings(max_examples=100, deadline=None)
    def test_every_ladder_exits_0_or_2(self, pq, window, samples, bases):
        """`trop amoeba` on any window, sample count and base list exits 0
        with JSON on stdout, or 2 with one `error:` line on stderr."""
        argv = ["amoeba", "--p", pq[0], "--q", pq[1], f"--samples={samples}"]
        argv.append("--n=" + ",".join(map(repr, bases)))
        if window is not None:
            argv.append(f"--window={window!r}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            json.loads(out.getvalue())
            assert err.getvalue() == ""
        else:
            assert code == 2, (argv, err.getvalue())
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)


# Numerals of one digit to past Python's 4300-digit limit on int parsing,
# zeros and decimals among them.
NUMERALS = st.one_of(
    st.integers(1, 10**6).map(str),
    st.sampled_from(["0", "00", "0003", "1.5", ".5", "2.", "1e3"]),
    st.sampled_from([400, 5000]).flatmap(lambda k: st.sampled_from(["1" + "0" * (k - 1), "9" * k])),
)
# `N` and `N/D` with signs, `-0`, zero denominators, decimals and
# surrounding whitespace.
RATIONAL_TEXT = st.builds(
    lambda pad, sign, num, den: f"{pad[0]}{sign}{num}{den}{pad[1]}",
    st.sampled_from([("", ""), (" ", ""), ("", " "), ("\t", "  ")]),
    st.sampled_from(["", "", "+", "-"]),
    NUMERALS,
    st.just("") | NUMERALS.map("/{}".format),
)


class TestRationalArguments:
    @given(
        command=st.sampled_from(["classify", "tropicalize", "building"]),
        p=RATIONAL_TEXT,
        q=RATIONAL_TEXT,
        levels=st.lists(RATIONAL_TEXT, max_size=3),
        joined=st.booleans(),
    )
    @settings(
        max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_every_rational_exits_0_or_2(self, tmp_path, command, p, q, levels, joined):
        """`trop classify`, `tropicalize` (with `--json` and `--svg`) and
        `building` (with each `--add-level`) on any rational text exit 0
        with JSON on stdout, or 2 with one `error:` line on stderr."""
        svg = tmp_path / "curve.svg"
        svg.unlink(missing_ok=True)
        pairs = [("--p", p), ("--q", q)]
        if command == "building":
            pairs += [("--add-level", level) for level in levels]
        argv = [command, "--json"]
        for flag, value in pairs:
            argv += [f"{flag}={value}"] if joined else [flag, value]
        if command == "tropicalize":
            argv += ["--svg", str(svg)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            json.loads(out.getvalue())
            assert err.getvalue() == ""
            assert command != "tropicalize" or svg.read_text().startswith("<svg")
        else:
            assert code == 2, (argv, err.getvalue())
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            errors = [line for line in lines if "error:" in line]
            assert len(errors) == 1 and errors[0] == lines[-1], (argv, lines)


class TestCommandArguments:
    @given(
        command=st.sampled_from(["match", "render", "fan", "blowups", "types"]),
        data=st.data(),
    )
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_every_argument_list_exits_0_or_2(self, tmp_path, command, data):
        """`trop match`, `render`, `fan`, `blowups` and `types` with each of
        their flags left out, given no value, a bad value or a good one, in
        any order and with stray words, exit 0 with their output on stdout,
        or 2 with one `error:` line on stderr."""
        (tmp_path / "text.json").write_text("not json")
        # Per flag, the values it takes and values it refuses: unknown
        # choices, non-JSON, missing and unwritable paths, directories, "".
        values = {
            "--graph": (
                [str(FIXTURES / "example1.json"), str(FIXTURES / "example1-infeasible.json")],
                [str(tmp_path / "text.json"), str(tmp_path / "missing.json"), str(tmp_path), ""],
            ),
            "--svg": (
                [str(tmp_path / "out.svg")],
                [str(tmp_path / "missing" / "out.svg"), str(tmp_path), ""],
            ),
            "--rule": (["union", "per-direction"], ["strict", ""]),
            "--which": (["exploded", "ionel", "complete"], ["fine", ""]),
        }
        own = {
            "match": ["--graph", "--rule"],
            "render": ["--graph", "--svg"],
            "fan": ["--which", "--svg"],
            "blowups": [],
            "types": ["--json"],
        }[command]
        items, last = [], {}
        for flag in own:
            kind = data.draw(st.integers(0, 9))
            if kind == 0:
                continue  # left out
            if flag not in values or kind == 1:
                items.append([flag])  # a switch, or a flag missing its value
                continue
            value = data.draw(st.sampled_from(values[flag][kind < 4]))  # bad at kind 2, 3
            items.append([f"{flag}={value}"] if data.draw(st.booleans()) else [flag, value])
            last[flag] = value
        items += data.draw(st.sampled_from([[]] * 3 + [["--bogus"], ["stray"], ["--json"], ["--p", "1"]]))
        argv = [command] + [word for item in data.draw(st.permutations(items)) for word in item]
        (tmp_path / "out.svg").unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out = out.getvalue()
        if code == 0:
            assert err.getvalue() == "", argv
            if command == "match" or "--json" in argv:
                json.loads(out)
            elif command == "render":
                assert out == f"wrote {last['--svg']}\n", argv
            elif command == "fan":
                assert out == (GOLDENS / f"fan-{last['--which']}.txt").read_text(), argv
            else:
                assert out == (GOLDENS / f"{command}.txt").read_text(), argv
            if "--svg" in last:
                assert Path(last["--svg"]).read_text().startswith("<svg"), argv
        else:
            assert code == 2, (argv, err.getvalue())
            assert out == ""
            lines = err.getvalue().splitlines()
            errors = [line for line in lines if "error:" in line]
            assert len(errors) == 1 and errors[0] == lines[-1], (argv, lines)


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
            ("match", ("nodes", 0, "id"), 1),
            ("match", ("nodes", 0, "tail"), None),
            ("building", ("segments", 0, "head"), None),
            ("building", ("rays", 0, "base"), 1),
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
            "node-id-int",
            "node-tail-null",
            "segment-head-null",
            "ray-base-int",
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

    @pytest.mark.parametrize("wrapped", [False, True], ids=["bare", "in-nodes"])
    @pytest.mark.parametrize(
        "argv",
        [["match", "--graph"], ["building", "--curve"], ["render", "--svg", "out.svg", "--graph"]],
        ids=["match", "building", "render"],
    )
    def test_deeply_nested_document_exits_2(self, capsys, tmp_path, monkeypatch, argv, wrapped):
        """A document nested beyond the JSON decoder's recursion limit is
        malformed input, not an internal error."""
        nested = "[" * 100000 + "]" * 100000
        path = tmp_path / "deep.json"
        path.write_text('{"nodes": ' + nested + "}" if wrapped else nested)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err == "error: malformed JSON document: nested too deeply\n"
        assert not (tmp_path / "out.svg").exists()

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

    @pytest.mark.parametrize(
        "num_levels, pieces",
        [(-5, []), (-1, [{"id": "a", "levels": [{"at": 0}, {"at": 0}], "trivial": False}])],
        ids=["no-pieces", "one-piece"],
    )
    def test_negative_num_levels_exits_2(self, capsys, tmp_path, num_levels, pieces):
        """`num_levels` is refused when negative, before any piece's levels
        are compared with it."""
        path = tmp_path / "doc.json"
        doc = {"num_levels": num_levels, "pieces": pieces, "nodes": [], "ends": []}
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "match", "--graph", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: num_levels {num_levels} is negative\n"

    @pytest.mark.parametrize(
        "names",
        [(None, None, None), (5, "5", "5"), ("5", 5, "5"), ("5", "5", 5)],
        ids=["null", "int-id", "int-head", "int-end-piece"],
    )
    def test_ids_must_be_strings_exits_2(self, capsys, tmp_path, example1_path, names):
        """A piece named `null` is not the piece "None", nor `5` the piece "5":
        piece ids and the pieces that nodes and ends name are JSON strings,
        and the message names the field that is not."""
        doc = json.loads(example1_path.read_text())
        piece, node, end = doc["pieces"][4], doc["nodes"][3], doc["ends"][1]
        assert piece["id"] == node["head"] == end["piece"] == "c5"
        piece["id"], node["head"], end["piece"] = names
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "match", "--graph", str(path))
        fields = zip(("id", "head", "piece"), names)
        key, bad = next((k, n) for k, n in fields if not isinstance(n, str))
        assert (code, out) == (2, "")
        assert err == (
            f"error: malformed graph document: expected a JSON str for {key!r}, got {bad!r}\n"
        )

    @pytest.mark.parametrize(
        "level", [{"at": 1, "between": [1, 2]}, {"level": 1}], ids=["both", "neither"]
    )
    def test_level_coordinate_needs_one_key_exits_2(self, capsys, tmp_path, example1_path, level):
        """A level coordinate document holds exactly one of `at` and
        `between`; with both, neither wins."""
        doc = json.loads(example1_path.read_text())
        doc["pieces"][0]["levels"][0] = level
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "match", "--graph", str(path))
        assert (code, out) == (2, "")
        assert err == (
            f"error: bad level coordinate document {level!r}: it needs exactly one of"
            " 'at' and 'between'\n"
        )


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
        level, a graph rejects a node whose zero contact joins two level
        coordinates and `realize` a solution that misses a variable."""
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
            from tropline.matching import SolutionNotInCone, realize
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
                (StructuralInvalid, lambda: Fan((x, x))),
                (StructuralInvalid, lambda: Fan((V(2, 0),))),
                (StructuralInvalid, lambda: Cone((x, V(1, 1), y))),
                (StructuralInvalid, lambda: Cone((y, x))),
                # n1 runs right from `a`, at levels (1, 1), to `c`, between
                # levels 1 and 2 in direction 1, and n2 runs up from `c` back
                # to `a` with zero contact in direction 1.
                (GraphInvalid, lambda: LeveledDualGraph(
                    2,
                    (
                        Piece("a", (L.at(1), L.at(1)), False),
                        Piece("c", (L.between(1), L.at(1)), False),
                    ),
                    (NodeEdge("n1", "a", "c", x), NodeEdge("n2", "c", "a", y)),
                    (),
                )),
                (SolutionNotInCone, lambda: realize(
                    build_building(tropicalize_line(LineFamily(4, 3))).graph, {{}}
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
            _linalg.negative_orthant_point = lambda reduced, pivots, ncols: [Fraction(-1)] * ncols
            if main(["match", "--graph", {str(example1_path)!r}]) != 3:
                sys.exit("witness check did not run")
            # A point on the equations whose entries are not all <= -1.
            _linalg.negative_orthant_point = lambda reduced, pivots, ncols: [
                x / 2 for x in simplex(reduced, pivots, ncols)
            ]
            if main(["match", "--graph", {str(example1_path)!r}]) != 3:
                sys.exit("witness bound was not checked")
            _linalg.negative_orthant_point = simplex

            # A kernel basis vector off the matching equations.
            _linalg.kernel_basis = lambda reduced, pivots, nvars: [[Fraction(1)] * nvars]
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


def mutated_documents(seed, count):
    """`count` documents, each `example1.json` after 1 to 3 edits of
    `mutate`, drawn from `random.Random(seed)`."""
    rng = random.Random(seed)
    text = (Path(__file__).parent / "fixtures" / "example1.json").read_text()
    for _ in range(count):
        doc = json.loads(text)
        for _ in range(rng.randint(1, 3)):
            mutate(doc, rng.randint)
        yield doc


class TestMutatedGraphs:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_match_exits_2_unless_graph_validates(self, data):
        """`trop match` on a mutated example exits 0 exactly when the document
        builds a valid graph, and 2 otherwise."""
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
        try:
            graph_from_json(doc)
        except GraphInvalid:
            assert code == 2, doc
        else:
            assert code == 0, doc

    def test_every_graph_that_builds_solves_and_realizes(self):
        """On 3000 seeded mutations of `example1.json`, every document that
        builds a graph gets a matching system, and every feasible one gets
        torus weights and a realized curve: nothing after the graph's
        constructor raises."""
        built = feasible = 0
        for doc in mutated_documents(7, 3000):
            try:
                graph = graph_from_json(doc)
            except GraphInvalid:
                continue
            built += 1
            cone = solve(build_system(graph))
            if cone.feasible:
                feasible += 1
                torus_weights(graph, cone)
                realize(graph, cone.witness).validate()
        assert (built, feasible) == (288, 270)


def run_match(argv):
    """`trop match` with `argv`: the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["match", *argv])
    return code, out.getvalue(), err.getvalue()


def match_mutation_runs():
    """`trop match` on 400 seeded mutations of `example1.json`: per run, the
    exit code, stdout and stderr."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        for doc in mutated_documents(1089, 400):
            path.write_text(json.dumps(doc))
            runs.append(run_match(["--graph", str(path)]))
    return runs


def match_mutation_lines():
    """One line per mutation run: the exit code, then stderr as a JSON string."""
    return [f"{code} {json.dumps(err)}" for code, _, err in match_mutation_runs()]


class TestMatchMutationGolden:
    def test_exit_codes_and_messages_pinned(self):
        """Which mutated documents `trop match` rejects, and with which
        message, is pinned line by line in `goldens/match-mutations.txt`."""
        golden = (GOLDENS / "match-mutations.txt").read_text().splitlines()
        assert match_mutation_lines() == golden


def match_grid_lines():
    """`trop match` on the building of every (p, q) of a grid, without and
    with the extra level 1/3, then on each mutation of `match_mutation_runs`
    that it accepts; one line each: the exit code, then stdout as a JSON
    string."""
    values = ["0", "1/2", "1", "3/2", "2", "5/2", "3", "4"]
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        for p in values:
            for q in values:
                for extra in ((), ("--add-level", "1/3")):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        assert main(["building", "--p", p, "--q", q, "--json", *extra]) == 0
                    path.write_text(out.getvalue())
                    code, out, _ = run_match(["--graph", str(path)])
                    lines.append(f"{code} {json.dumps(out)}")
    lines += [f"{code} {json.dumps(out)}" for code, out, _ in match_mutation_runs() if code == 0]
    return lines


class TestMatchGridGolden:
    def test_match_stdout_pinned(self):
        """Equations, basis, witness, stability, weights and the realized
        curve of `trop match` on a grid of all 14 limit types, with and
        without an extra level, and on the accepted mutations of
        `example1.json`, are pinned in `goldens/match-grid.txt`."""
        golden = (GOLDENS / "match-grid.txt").read_text().splitlines()
        assert match_grid_lines() == golden


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
