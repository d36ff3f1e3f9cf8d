"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

A tiny-size run of each workload (the ones BENCHMARK.json lists, `refine`
and `cli`), untraced and traced, must print every metric that BENCHMARK.json
names, with its unit, and report no failed op.
The checker must reject a corrupted witness and a corrupted curve.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def tiny_run(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)],
                 tiny=True)
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_metrics_match_benchmark_json() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {e["name"] for e in spec["workloads"]} <= set(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = tiny_run(name, trace)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {metric: m["unit"] for metric, m in result["metrics"].items()}
            assert got == expected, (name, trace, set(got) ^ set(expected))
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
                (name, trace, result["failed"])
            print(f"ok  {name:<7} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops")


def _rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except check.CheckFailed:
        return True
    return False


def test_checker_rejects_corruption() -> None:
    sweep = workloads.Sweep()
    p, q = Fraction(4), Fraction(3)
    curve, _b, system, cone, *_ = sweep.op((p, q))
    rows = system.coefficient_rows()
    check.check_witness(rows, cone.witness)
    check.check_curve(curve, p, q, "tropicalize_line")

    bad = list(cone.witness)
    bad[0] -= 1
    assert _rejects(check.check_witness, rows, bad), "corrupted witness accepted"
    assert _rejects(check.check_witness, rows, [w / 2 for w in cone.witness]), \
        "witness above -1 accepted"

    v0 = curve.vertices[0]
    moved = dataclasses.replace(
        v0, position=dataclasses.replace(v0.position, x=v0.position.x + Fraction(1, 7)))
    bad_curve = dataclasses.replace(curve, vertices=(moved,) + curve.vertices[1:])
    assert _rejects(check.check_curve, bad_curve, p, q, "corrupted"), "corrupted curve accepted"
    print("ok  checker rejects a corrupted witness and a corrupted curve")


if __name__ == "__main__":
    test_checker_rejects_corruption()
    test_metrics_match_benchmark_json()
