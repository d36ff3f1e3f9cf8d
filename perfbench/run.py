"""Benchmark of tropline, run from the root of a checkout.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 56 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 56

One client runs ops back to back (closed loop) in this process; the `cli`
workload starts one `trop` interpreter per op.  A run draws a fixed set of
seeded inputs and runs passes over them until `--seconds` of wall time have
passed; every op's output goes through the checks in `check.py`, and the
end-to-end timings are over each input's best latency.  Informational lines
come first; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones.  With `--trace 1` each op runs untraced and checked, then
again under the span tracer, and the metrics are the per-layer ones (see
README.md)."""

from __future__ import annotations

import argparse
import itertools
import json
import random
import re
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_LAUNCHES = 3
IMPORTTIME_LAUNCHES = 3


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _launch(code: str, *flags: str) -> tuple[float, str]:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return perf_counter() - t0, proc.stderr


def setup_seconds(imports, launches: int) -> float:
    """Median wall time of fresh interpreters importing the workload's modules,
    after one launch that writes the bytecode caches."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import {', '.join(imports)}"
    _launch(code)
    return statistics.median(_launch(code)[0] for _ in range(launches))


def import_seconds(launches: int) -> dict[str, float]:
    """Cumulative import time of `tropline` and `tropline.amoeba` from
    `-X importtime`, median over fresh interpreters."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import tropline.cli"
    samples: dict[str, list[float]] = {"tropline": [], "tropline.amoeba": []}
    for _ in range(launches):
        for line in _launch(code, "-X", "importtime")[1].splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) * 1e-6)
    return {name: statistics.median(v) for name, v in samples.items()}


def measure(w, inputs, seconds: float, after=None):
    """Run passes over `inputs` until `seconds` have passed, and at least one
    whole pass.  Returns the ops as (input index, input, latency or None for
    a failed op), the time spent in ops, and the failures by exception type.
    `after(inp)` runs after each checked op, outside its timing."""
    ops, failures, spent = [], Counter(), 0.0
    start = perf_counter()
    for i, inp in itertools.cycle(enumerate(inputs)):
        if len(ops) >= len(inputs) and perf_counter() - start >= seconds:
            break
        t0, dt = perf_counter(), None
        try:
            out = w.op(inp)
            dt = perf_counter() - t0
            w.check(inp, out)
        except Exception as exc:  # every failure counts; its type is recorded
            spent += perf_counter() - t0 if dt is None else dt
            failures[type(exc).__name__] += 1
            if sum(failures.values()) <= 5:
                print(f"failed op {inp!r}: {type(exc).__name__}: {exc}")
            ops.append((i, inp, None))
            continue
        spent += dt
        ops.append((i, inp, dt))
        if after is not None:
            after(inp)
    return ops, spent, failures


def run_inputs(w, rng, tiny: bool) -> list:
    """The run's inputs: the workload's first `pass_rounds` rounds (one when tiny)."""
    rounds = w.rounds(rng)
    return [inp for _ in range(1 if tiny else w.pass_rounds) for inp in next(rounds)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    s = sorted(latencies)
    if len(s) < 11:
        return 100.0, s[-1]
    return 100.0 * (len(s) - 10) / len(s), s[len(s) - 11]


def end_to_end(args, w, rng, tiny: bool) -> tuple[dict, list, Counter]:
    setup = setup_seconds(w.imports, 1 if tiny else SETUP_LAUNCHES)
    inputs = run_inputs(w, rng, tiny)
    ops, spent, failures = measure(w, inputs, args.seconds)
    # Each input's best latency over its passes: the host's speed changes by
    # up to 1.7x for seconds at a time (README.md), and the best of many
    # passes reads the program's cost at the host's fast speed.
    best: dict[int, float] = {}
    for i, _inp, dt in ops:
        if dt is not None:
            best[i] = min(dt, best.get(i, dt))
    lat = list(best.values())
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    pct, tail_s = tail(lat) if lat else (100.0, 0.0)
    completed = sum(1 for *_, dt in ops if dt is not None)
    print(f"samples: {completed} completed of {len(ops)} attempted, "
          f"{len(ops) / len(inputs):.1f} passes over {len(inputs)} inputs; timings are over "
          f"the {len(lat)} inputs' best latencies (ops_per_s = inputs / sum of their best); "
          f"op_tail_ms is p{pct:.1f}; setup_s is the median of "
          f"{1 if tiny else SETUP_LAUNCHES} launches; {spent:.1f} s in ops")
    metrics = {
        "ops_per_s": (len(lat) / sum(lat) if lat else 0.0, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3 if lat else 0.0, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, ops, failures


def per_layer(args, w, rng, tiny: bool) -> tuple[dict, list, Counter]:
    import tracing
    import workloads

    if args.workload == "cli":
        w.in_process = True  # the traced cli run calls cli.main(argv) in-process
    inputs = run_inputs(w, rng, tiny)
    for inp in inputs[: w.round_size]:  # warm-up: lazy set-up and caches, not measured
        w.op(inp)
    tracer = tracing.Tracer()
    modules = {k: v for k, v in sys.modules.items() if k.startswith("tropline")}
    traced_times = []

    def run_traced(inp):
        # The same input again, right after its untraced run, under the tracer.
        tracer.install(modules)
        try:
            traced_times.append(tracer.run_op(len(traced_times), w.op, inp))
        finally:
            tracer.uninstall()

    ops, _spent, failures = measure(w, inputs, args.seconds, run_traced)
    done = [(inp, dt) for _i, inp, dt in ops if dt is not None]
    traced = sum(traced_times)
    untraced = sum(dt for _, dt in done) or 1.0
    n = max(len(done), 1)
    by_op = tracer.self_times()
    selfs = Counter()
    for times in by_op.values():
        selfs.update(times)
    rel = [sum(v for k, v in by_op[i].items() if k != "op") / dt - 1.0
           for i, (_inp, dt) in enumerate(done)]
    if len(rel) >= 2:
        q1, q2, q3 = statistics.quantiles(rel, n=4)
        print(f"per op, layer self times sum to the untraced op time {q2:+.2%} "
              f"(quartiles {q1:+.2%}, {q3:+.2%}); tracing overhead {traced / untraced - 1:+.2%}")
    c = tracer.counts

    def per(name: str, key: str) -> float:
        return c[name] / c[key] if c[key] else 0.0

    metrics = {}
    for _mod, _fn, span, _hook in tracing.TARGETS:
        scale, unit = (1e6, "us") if span in tracing.MICRO else (1e3, "ms")
        metrics[f"{span}.{unit}"] = (selfs.get(span, 0.0) / n * scale, unit)
    metrics.update({
        "matching.build_system.calls_per_op": (c["matching.build_system.calls"] / n, "count"),
        "matching.vars": (per("matching.vars", "matching.build_system.calls"), "count"),
        "matching.equations": (per("matching.equations", "matching.build_system.calls"), "count"),
        "matching.kernel_dim": (per("matching.kernel_dim", "matching.solve.calls"), "count"),
        "matching.witness_bits": (per("matching.witness_bits", "matching.solve.calls"), "bits"),
        "building.pieces": (per("building.pieces", "building.build_building.calls"), "count"),
        "building.nodes": (per("building.nodes", "building.build_building.calls"), "count"),
        "render.svg_bytes": (per("render.svg_bytes", "render.render_tropical.calls"), "B"),
        "amoeba.points_kept_ratio": (per("amoeba.points_kept", "amoeba.points_requested"), "ratio"),
        "amoeba.cdist_bytes": (per("amoeba.cdist_bytes", "amoeba.hausdorff.calls"), "B"),
        "amoeba.audit_failed_ladders": (float(len(w.audit_failures)), "count"),
        "trace.overhead_ratio": (traced / untraced - 1.0, "ratio"),
        "trace.layer_sum_ratio": (
            sum(v for k, v in selfs.items() if k != "op") / untraced, "ratio"),
    })
    imports = {"tropline": 0.0, "tropline.amoeba": 0.0}
    overhead = 0.0
    if w.via_cli:
        imports = import_seconds(1 if tiny else IMPORTTIME_LAUNCHES)
        # Whole `trop` process minus the same command's in-process cli.main.
        walls = []
        for inp, dt in done[: w.round_size]:
            t0 = perf_counter()
            workloads.run_trop(w.argv(inp))
            walls.append(perf_counter() - t0 - dt)
        overhead = statistics.median(walls)
    metrics["cli.import.tropline_s"] = (imports["tropline"], "s")
    metrics["cli.import.amoeba_s"] = (imports["tropline.amoeba"], "s")
    metrics["cli.process_overhead_s"] = (overhead, "s")
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    path = workloads.OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path)
    print(f"traced {len(done)} ops; spans written to {path.relative_to(ROOT)}; "
          f"layer metrics are mean self time per op, 0 where the workload never calls the layer")
    return metrics, ops, failures


def run_all(args) -> int:
    """Run every workload in its own process and print one summary table."""
    results = {}
    for name in ("sweep", "refine", "amoeba", "cli"):
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            _fail(f"workload {name} exited {proc.returncode}")
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        results[name] = json.loads(lines[-1])
        r = results[name]
        print(f"[{name}] correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for metric, v in r["metrics"].items():
            print(f"[{name}]   {metric:<40} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "refine", "amoeba", "cli", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tropline" / "__init__.py").is_file():
        _fail(f"no tropline sources at {SRC}")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "cli" and not workloads.EXAMPLE1.is_file():
        _fail(f"missing fixture {workloads.EXAMPLE1}")
    w = workloads.WORKLOADS[args.workload](tiny=tiny)
    w.audit_failures = w.audit()
    for line in w.audit_failures:
        print(f"known defect, not counted as an op: {line}")
    rng = random.Random(args.seed)
    runner = per_layer if args.trace else end_to_end
    try:
        metrics, ops, failures = runner(args, w, rng, tiny)
    finally:
        w.close()
    failed = sum(1 for *_, dt in ops if dt is None)
    if failures:
        print("failures by type: " + ", ".join(f"{k}={v}" for k, v in failures.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
