"""In-memory span tracer that wraps the public pipeline functions of tropline.

Each wrapped call records a span `[name, start, end, parent, op]`; the op id
ties the spans of one benchmark op together and the root span of each op is
named "op".  Spans stay in memory until `write` dumps them as JSON.  Per-call
hooks add the size counters of each layer to `counts`.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter


def _witness_bits(witness) -> int:
    return max(
        (max(w.numerator.bit_length(), w.denominator.bit_length()) for w in witness or ()),
        default=0,
    )


def _count_build_system(counts, args, kwargs, system):
    counts["matching.build_system.calls"] += 1
    counts["matching.vars"] += len(system.variables)
    counts["matching.equations"] += len(system.equations)


def _count_solve(counts, args, kwargs, cone):
    counts["matching.solve.calls"] += 1
    counts["matching.kernel_dim"] += cone.dimension
    counts["matching.witness_bits"] += _witness_bits(cone.witness)


def _count_building(counts, args, kwargs, building):
    counts["building.build_building.calls"] += 1
    counts["building.pieces"] += len(building.graph.pieces)
    counts["building.nodes"] += len(building.graph.nodes)


def _count_render(counts, args, kwargs, svg):
    counts["render.render_tropical.calls"] += 1
    counts["render.svg_bytes"] += len(svg.encode())


def _count_sample(counts, args, kwargs, sample):
    counts["amoeba.points_requested"] += args[2] if len(args) > 2 else kwargs["count"]
    counts["amoeba.points_kept"] += len(sample.points)


def _count_discretize(counts, args, kwargs, poly):
    counts["amoeba.last_poly_points"] = len(poly)


def _count_hausdorff(counts, args, kwargs, distance):
    # hausdorff builds a (cloud inside window) x (polyline) float64 matrix.
    sample, _curve, window = args[:3]
    pts = sample.points
    cloud = int(((pts[:, 0] <= window) & (pts[:, 1] <= window)).sum())
    counts["amoeba.hausdorff.calls"] += 1
    counts["amoeba.cdist_bytes"] += 8 * cloud * counts["amoeba.last_poly_points"]


# (module, function, span name, counter hook).  Functions are looked up as
# module attributes at call time, so replacing them here also catches the
# calls each layer makes into the others.
TARGETS = [
    ("tropline.tropical", "tropicalize_line", "tropical.tropicalize_line", None),
    ("tropline.building", "build_building", "building.build_building", _count_building),
    ("tropline.matching", "build_system", "matching.build_system", _count_build_system),
    ("tropline.matching", "solve", "matching.solve", _count_solve),
    ("tropline.matching", "check_stability", "matching.check_stability", None),
    ("tropline.matching", "torus_weights", "matching.torus_weights", None),
    ("tropline.matching", "realize", "matching.realize", None),
    ("tropline._linalg", "kernel_basis", "linalg.kernel_basis", None),
    ("tropline._linalg", "negative_orthant_point", "linalg.negative_orthant_point", None),
    ("tropline.moduli", "classify", "moduli.classify", None),
    ("tropline.render", "render_tropical", "render.render_tropical", _count_render),
    ("tropline.amoeba", "convergence_report", "amoeba.convergence_report", None),
    ("tropline.amoeba", "sample_amoeba", "amoeba.sample_amoeba", _count_sample),
    ("tropline.amoeba", "discretize_curve", "amoeba.discretize_curve", _count_discretize),
    ("tropline.amoeba", "hausdorff", "amoeba.hausdorff", _count_hausdorff),
    ("tropline.cli", "main", "cli.main", None),
]


# Spans reported in microseconds; the rest in milliseconds.
MICRO = {"tropical.tropicalize_line", "moduli.classify", "render.render_tropical"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = None
        self._restore: list = []

    def install(self, modules: dict) -> None:
        """Wrap every target whose module is in `modules` (name -> module)."""
        for module_name, attr, span_name, hook in TARGETS:
            module = modules.get(module_name)
            if module is None:
                continue
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, span_name, hook))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if hook is not None and self._op is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def run_op(self, op_id: int, fn, arg) -> float:
        """Run one op under a root span; returns its duration in seconds."""
        self._op = op_id
        span = self._open("op")
        span[1] = perf_counter()
        try:
            fn(arg)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
            self._op = None
        return span[2] - span[1]

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op, the self time of each span name: span time minus the time
        covered by its direct children.  Spans outside ops are left out."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        by_op: defaultdict[int, defaultdict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            if op is not None:
                by_op[op][name] += end - start - child[i]
        return by_op

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans},
                handle,
            )
