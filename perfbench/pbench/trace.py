"""In-memory span tracing of diskcover's layers, recorded from outside.

`instrument` rebinds the public names each layer is reached through, in
the modules that call them, to wrappers that open and close a span; it
restores the originals on exit, so no file of the program changes.  A
span is (name, start_ns, end_ns, parent index); the layer is the part of
the name before the dot.  A span's self time is its duration minus the
durations of its direct children, so the self times of all spans under
one root sum to the root's duration.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
import types
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

_now = time.perf_counter_ns

# (module that calls the name, name, span); every way the workloads reach
# each layer, found by reading the callers in src/diskcover
HOOKS = (
    ("diskcover.coverage", "covering_radius", "coverage.covering_radius"),
    ("diskcover.optimize", "covering_radius", "coverage.covering_radius"),
    ("diskcover.cli", "covering_radius", "coverage.covering_radius"),
    ("diskcover.optimize", "verify_k_coverage", "coverage.verify"),
    ("diskcover.cli", "verify_k_coverage", "coverage.verify"),
    ("diskcover.optimize", "PeriodicConfig", "lattice.config_build"),
    ("diskcover.patterns", "PeriodicConfig", "lattice.config_build"),
    ("diskcover.lattice", "reduce_basis", "lattice.reduce_basis"),
    ("diskcover.coverage", "reduce_basis", "lattice.reduce_basis"),
    ("diskcover.voronoi", "reduce_basis", "lattice.reduce_basis"),
    ("diskcover.optimize", "minimize", "optimize.refine"),
    ("diskcover.optimize", "all_cells_congruent", "voronoi.congruence"),
    ("diskcover.cli", "all_cells_congruent", "voronoi.congruence"),
    ("diskcover.voronoi", "voronoi_cell", "voronoi.cell"),
    ("diskcover.cli", "voronoi_cell", "voronoi.cell"),
    ("diskcover.render", "voronoi_cell", "voronoi.cell"),
    ("diskcover.optimize", "pattern_b", "patterns.build"),
    ("diskcover.patterns", "pattern_b", "patterns.build"),
    ("diskcover.patterns", "triangle_pattern", "patterns.build"),
    ("diskcover.patterns", "tangent_pattern_c", "patterns.build"),
    ("diskcover.cli", "render_svg", "render.svg"),
)


class Tracer:
    """Spans kept in memory plus counts taken at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._seen: set = set()

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = _now()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn, observe=None):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def seen_before(self, key) -> bool:
        if key in self._seen:
            return True
        self._seen.add(key)
        return False

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start},{end},{parent}\n")


def _observe_radius(signature: inspect.Signature):
    def observe(tracer: Tracer, args, kwargs, result) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        config = bound.arguments["config"]
        key = (
            config.basis,
            config.offsets,
            bound.arguments["k"],
            bound.arguments["tol"],
            bound.arguments["max_boxes"],
        )
        tracer.counts["coverage.boxes"] += result.boxes
        tracer.counts["coverage.unconverged"] += not result.converged
        tracer.counts["coverage.repeat_calls"] += tracer.seen_before(key)

    return observe


def _observe_congruence(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["voronoi.congruence_passed"] += bool(result[0])


@contextmanager
def instrument(tracer: Tracer):
    """Route every hooked call through `tracer` for the duration."""
    originals = []
    for module_name, attr, span in HOOKS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        observe = None
        if span == "coverage.covering_radius":
            observe = _observe_radius(inspect.signature(fn))
        elif span == "voronoi.congruence":
            observe = _observe_congruence
        originals.append((module, attr, fn))
        setattr(module, attr, tracer.wrap(span, fn, observe))
    # the CLI reaches the lattice layer through PeriodicConfig.from_json
    cli = importlib.import_module("diskcover.cli")
    config_cls = cli.PeriodicConfig
    originals.append((cli, "PeriodicConfig", config_cls))
    cli.PeriodicConfig = types.SimpleNamespace(
        from_json=tracer.wrap("lattice.config_build", config_cls.from_json)
    )
    try:
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics as name -> (value, unit, sample count)."""
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    self_by_layer: Counter = Counter()
    for (name, start, end, _), self_ns in zip(spans, own):
        by_name.setdefault(name, []).append(end - start)
        self_by_layer[name.split(".")[0]] += self_ns

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def total_s(name: str) -> float:
        return sum(by_name.get(name, ())) / 1e9

    def median(name: str, scale: float) -> float:
        values = by_name.get(name)
        return statistics.median(values) / scale if values else 0.0

    counts = tracer.counts
    radius_calls = calls("coverage.covering_radius")
    boxes = counts["coverage.boxes"]
    coverage_self = self_by_layer["coverage"] / 1e9
    builds = calls("lattice.config_build")
    reductions = calls("lattice.reduce_basis")
    congruence = calls("voronoi.congruence")
    passed = counts["voronoi.congruence_passed"]
    cells = calls("voronoi.cell")
    patterns = calls("patterns.build")
    return {
        "coverage.calls": (radius_calls, "count", radius_calls),
        "coverage.boxes": (boxes, "count", radius_calls),
        "coverage.self_s": (coverage_self, "s", radius_calls),
        "coverage.ns_per_box": (coverage_self * 1e9 / boxes if boxes else 0.0, "ns", boxes),
        "coverage.call_p50_us": (median("coverage.covering_radius", 1e3), "us", radius_calls),
        "coverage.repeat_calls": (counts["coverage.repeat_calls"], "count", radius_calls),
        "coverage.unconverged": (counts["coverage.unconverged"], "count", radius_calls),
        "lattice.config_builds": (builds, "count", builds),
        "lattice.config_build_us": (median("lattice.config_build", 1e3), "us", builds),
        "lattice.reduce_basis_calls": (reductions, "count", reductions),
        "lattice.reduce_basis_s": (total_s("lattice.reduce_basis"), "s", reductions),
        "optimize.self_s": (self_by_layer["optimize"] / 1e9, "s", calls("optimize.run")),
        "optimize.refine_s": (total_s("optimize.refine"), "s", calls("optimize.refine")),
        "voronoi.congruence_calls": (congruence, "count", congruence),
        "voronoi.congruence_s": (total_s("voronoi.congruence"), "s", congruence),
        "voronoi.congruence_pass_ratio": (
            passed / congruence if congruence else 0.0, "ratio", congruence
        ),
        "voronoi.cell_calls": (cells, "count", cells),
        "voronoi.cell_us": (median("voronoi.cell", 1e3), "us", cells),
        "patterns.build_calls": (patterns, "count", patterns),
        "patterns.build_us": (median("patterns.build", 1e3), "us", patterns),
        "render.svg_ms": (median("render.svg", 1e6), "ms", calls("render.svg")),
        "cli.main_ms": (median("cli.main", 1e6), "ms", calls("cli.main")),
    }
