"""Span tracing from outside the program, and the per-layer metrics.

`Tracer.install` replaces every public function of limcon's graphs, linalg,
wellconfig, simulate and cli modules (and numpy's dense eigen-solvers) with a
wrapper that records a span: name, start, end, parent span, round.  Spans
stay in memory until `write`.  Nothing inside limcon changes; `uninstall`
puts the original functions back.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("graphs", "linalg", "wellconfig", "simulate", "cli")
EIGEN_SOLVERS = ("eigvals", "eigvalsh")
ENGINES = tuple(
    f"simulate.{name}"
    for name in ("run_gradient", "run_fixed_step", "run_metropolis_tv", "run_cycle_projection", "run_general_projection")
)
DECOMPOSITIONS = ("graphs.ear_decomposition", "graphs.symmetric_ear_decomposition")
SYNTHESIS = ("wellconfig.synthesize_weights", "wellconfig.synthesize_symmetric_weights")
EIGEN_SPANS = ("linalg.eigenvalues",) + tuple(f"numpy.linalg.{name}" for name in EIGEN_SOLVERS)
MB = 2.0**20

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "graphs.is_2_connected_s": "s",
    "graphs.symmetric_ear_decomposition_s": "s",
    "graphs.ear_decomposition_s": "s",
    "graphs.ears": "count",
    "graphs.max_ear_length": "count",
    "wellconfig.synthesize_s": "s",
    "wellconfig.agreement_map_s": "s",
    "wellconfig.agreement_map_mb": "MB",
    "wellconfig.is_well_configured_s": "s",
    "wellconfig.is_well_configured_via_overlap_s": "s",
    "linalg.kernel_basis_s": "s",
    "linalg.eigenvalues_s": "s",
    "linalg.fixed_space_s": "s",
    "linalg.mixed_norm_2_inf_s": "s",
    "simulate.engine_s": "s",
    "simulate.round_ms": "ms",
    "simulate.steps_run": "count",
    "simulate.engine_peak_mb": "MB",
    "simulate.build_update_matrix_s": "s",
    "simulate.update_matrix_mb": "MB",
    "simulate.spectral_report_s": "s",
    "cli.load_scenario_s": "s",
    "cli.trajectory_csv_mb": "MB",
    "cli.run_self_s": "s",
    "cli.verify_self_s": "s",
    "cli.analyze_self_s": "s",
}


def _note(name: str, result) -> dict | None:
    """Counts read off a traced call's result."""
    if name in DECOMPOSITIONS:
        return {"ears": len(result), "max_ear_length": result.max_length}
    if name in ENGINES:
        return {"steps_run": result.steps_run}
    if name in ("wellconfig.agreement_map", "simulate.build_update_matrix"):
        return {"mb": result.nbytes / MB}
    return None


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, round, note]
        self.spans: list[list] = []
        self.round = 0
        self.memory = False  # run tracemalloc around the engines (slows them)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.round, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        span[1] = time.perf_counter()
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        engine = name in ENGINES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            memory = engine and tracer.memory
            if memory:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            span[5] = _note(name, result)
            if memory:
                span[5]["peak_mb"] = peak / MB
            return result

        return traced

    def install(self, package) -> None:
        modules = [getattr(package, layer) for layer in LAYERS]
        targets = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        # Patch every namespace that holds a target, so calls made through a
        # `from .x import f` binding are traced as well.
        for ns in modules + [package]:
            for attr, fn in list(vars(ns).items()):
                if id(fn) in targets:
                    self._patches.append((ns, attr, fn))
                    setattr(ns, attr, targets[id(fn)])
        for attr in EIGEN_SOLVERS:
            fn = getattr(np.linalg, attr)
            self._patches.append((np.linalg, attr, fn))
            setattr(np.linalg, attr, self._wrap(f"numpy.linalg.{attr}", fn))

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patches):
            setattr(ns, attr, fn)
        self._patches.clear()

    def write(self, path: Path, extra: dict) -> None:
        keys = ("name", "start", "end", "parent", "round", "note")
        payload = dict(extra, spans=[dict(zip(keys, s)) for s in self.spans])
        path.write_text(json.dumps(payload) + "\n")


class _RoundView:
    """The spans of one round, with parent/child lookups."""

    def __init__(self, spans: list[list], indices: list[int]):
        self.spans = spans
        self.indices = indices
        self.children: dict[int, list[int]] = {}
        for idx in indices:
            self.children.setdefault(spans[idx][3], []).append(idx)

    def dur(self, idx: int) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

    def top(self, match, root: int = -1) -> list[int]:
        """Outermost spans under root (all spans for -1) satisfying match."""
        found, stack = [], list(self.children.get(root, []))
        while stack:
            idx = stack.pop()
            if match(self.spans[idx]):
                found.append(idx)
            else:
                stack.extend(self.children.get(idx, []))
        return found

    def total(self, names, root: int = -1) -> float:
        return sum(self.dur(i) for i in self.top(lambda s: s[0] in names, root))

    def self_time(self, names, excluded) -> float:
        """Duration of the named spans minus their outermost `excluded` descendants."""
        return sum(self.dur(i) - self.total(excluded, i) for i in self.top(lambda s: s[0] in names))

    def notes(self, names) -> list[dict]:
        return [self.spans[i][5] for i in self.indices if self.spans[i][0] in names]


def round_layer_metrics(view: _RoundView, trajectory_bytes: int) -> dict[str, float]:
    library = lambda s: not s[0].startswith("cli.") and not s[0].startswith("op.")  # noqa: E731
    synth_ops = view.top(lambda s: s[0] == "op.synth")
    decs = [view.spans[i][5] for op in synth_ops for i in view.top(lambda s: s[0] in DECOMPOSITIONS, op)]
    engines = view.notes(ENGINES)
    engine_s = view.total(ENGINES)
    steps = sum(n["steps_run"] for n in engines)

    def within(name: str, parent: str) -> float:
        # time in `name` called directly or indirectly by `parent`
        return sum(view.total({name}, p) for p in view.top(lambda s: s[0] == parent))

    def cmd_self(cmd: str) -> float:
        return sum(view.dur(i) - sum(view.dur(j) for j in view.top(library, i)) for i in view.top(lambda s: s[0] == cmd))

    return {
        "graphs.is_2_connected_s": view.total({"graphs.is_2_connected"}),
        "graphs.symmetric_ear_decomposition_s": view.self_time(
            {"graphs.symmetric_ear_decomposition"}, {"graphs.is_2_connected"}
        ),
        "graphs.ear_decomposition_s": view.total({"graphs.ear_decomposition"}),
        "graphs.ears": float(decs[0]["ears"]),
        "graphs.max_ear_length": float(decs[0]["max_ear_length"]),
        "wellconfig.synthesize_s": view.self_time(set(SYNTHESIS), set(DECOMPOSITIONS)),
        "wellconfig.agreement_map_s": view.total({"wellconfig.agreement_map"}),
        "wellconfig.agreement_map_mb": max(n["mb"] for n in view.notes({"wellconfig.agreement_map"})),
        "wellconfig.is_well_configured_s": view.total({"wellconfig.is_well_configured"}),
        "wellconfig.is_well_configured_via_overlap_s": view.total({"wellconfig.is_well_configured_via_overlap"}),
        "linalg.kernel_basis_s": within("linalg.kernel_basis", "wellconfig.agreement_kernel"),
        "linalg.eigenvalues_s": view.total(set(EIGEN_SPANS)),
        "linalg.fixed_space_s": within("linalg.kernel_basis", "simulate.spectral_report"),
        "linalg.mixed_norm_2_inf_s": view.total({"linalg.mixed_norm_2_inf"}),
        "simulate.engine_s": engine_s,
        "simulate.round_ms": 1000.0 * engine_s / steps,
        "simulate.steps_run": float(steps),
        "simulate.engine_peak_mb": max(n.get("peak_mb", 0.0) for n in engines),
        "simulate.build_update_matrix_s": view.total({"simulate.build_update_matrix"}),
        "simulate.update_matrix_mb": max(n["mb"] for n in view.notes({"simulate.build_update_matrix"})),
        "simulate.spectral_report_s": view.total({"simulate.spectral_report"}),
        "cli.load_scenario_s": view.total({"cli.load_scenario"}),
        "cli.trajectory_csv_mb": trajectory_bytes / MB,
        "cli.run_self_s": cmd_self("cli.cmd_run"),
        "cli.verify_self_s": cmd_self("cli.cmd_verify"),
        "cli.analyze_self_s": cmd_self("cli.cmd_analyze"),
    }


def layer_metrics(tracer: Tracer, rounds: list[int], trajectory_bytes: int) -> dict[str, float]:
    """Per-layer metrics: medians over the traced rounds after the first, and
    engine memory from the first, the only one that runs tracemalloc."""
    by_round: dict[int, list[int]] = {r: [] for r in rounds}
    for idx, span in enumerate(tracer.spans):
        if span[4] in by_round:
            by_round[span[4]].append(idx)
    memory, *timed = [round_layer_metrics(_RoundView(tracer.spans, idx), trajectory_bytes) for idx in by_round.values()]
    out = {name: statistics.median(r[name] for r in timed) for name in PER_LAYER}
    out["simulate.engine_peak_mb"] = memory["simulate.engine_peak_mb"]
    return out
