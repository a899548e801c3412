"""Benchmark of limcon's user pipeline on three seeded graph families.

Usage (from the repository root):

    python3 perfbench/run.py --workload ring|digraph|complete --seed N --seconds S --trace 0|1

One process per workload, BLAS pinned to one thread.  Set-up generates the
workload's scenario files from the seed.  Then whole rounds of the same
operations run until S seconds have passed (at least MIN_ROUNDS): `limcon
synth`, `limcon verify` on every verify scenario, `is_well_configured_via_overlap`
on the same weights, `limcon run` and `limcon analyze`, each called in-process
through `limcon.cli.main`.  The outputs are checked by checks.py.  The last
stdout line is one JSON object: correct, attempted, failed and the medians
over rounds of the end-to-end metrics (--trace 0) or of the per-layer metrics
(--trace 1, spans written to .perfbench/trace-<workload>-<seed>.json).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import families  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIN_ROUNDS = 3
SETUP_REPEATS = 7
IMPORT_PROBE = "import time; t = time.perf_counter(); import limcon; print(time.perf_counter() - t)"

END_TO_END = {
    "setup_s": "s",
    "synth_s": "s",
    "verify_s": "s",
    "verify_overlap_s": "s",
    "run_s": "s",
    "analyze_s": "s",
    "peak_rss_mb": "MB",
}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def setup(family: str, seed: int, inputs: Path) -> tuple[families.Workload, float]:
    """Median over SETUP_REPEATS of: `import limcon` in a fresh interpreter
    plus generating and writing the scenario files."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        start = time.perf_counter()
        workload = families.generate(family, seed, inputs)
        samples.append(float(probe.stdout) + time.perf_counter() - start)
    return workload, statistics.median(samples)


class Pipeline:
    """One workload's operations, run round after round."""

    def __init__(self, limcon, workload: families.Workload, out: Path):
        self.lc = limcon
        self.wl = workload
        self.out = out
        self.attempted = 0
        self.failed = 0
        # explicit-weight scenarios are checked by the overlap verifier too
        self.overlap_inputs = {
            path.stem: limcon.WeightedNeighborGraph(limcon.DirectedGraph(workload.m, tuple(table)), workload.n, table)
            for path, table in workload.explicit.items()
        }

    def _cli(self, argv: list[str], expected_rc: int) -> str:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = self.lc.cli.main([str(a) for a in argv])
        if rc != expected_rc:
            raise RuntimeError(f"limcon {argv[0]} exited {rc}, expected {expected_rc}: {stderr.getvalue().strip()}")
        return stdout.getvalue()

    def _overlap(self, w) -> bool:
        if w is None:
            raise RuntimeError("synth failed, so there are no weights for the overlap verifier")
        return self.lc.is_well_configured_via_overlap(w)

    def _op(self, name: str, timings: dict, tracer, fn):
        """Run one operation, timing it; a failure is counted, not raised."""
        self.attempted += 1
        span = tracer.span(f"op.{name}") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                result = fn()
        except Exception:  # noqa: BLE001 - counted as a failed operation and reported
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            timings[name] = timings.get(name, 0.0) + time.perf_counter() - start
        return result

    def round(self, tracer=None) -> tuple[dict, dict]:
        """One pass over every operation: (seconds per metric, outputs)."""
        wl, out = self.wl, self.out
        timings: dict[str, float] = {}
        outputs: dict[str, object] = {}
        synth_dir, run_dir = out / "synth", out / "run"
        outputs["synth"] = self._op(
            "synth", timings, tracer,
            lambda: (
                self._cli(["synth", "--scenario", wl.synth, "--out", synth_dir], 0),
                (synth_dir / "weights.json").read_text(),
            ),
        )
        for path, ok in wl.verify:
            outputs[f"verify:{path.stem}"] = self._op(
                "verify", timings, tracer, lambda: self._cli(["verify", "--scenario", path], 0 if ok else 2)
            )
        # the explicit twins, or else this round's synthesized weights (loaded untimed)
        inputs = self.overlap_inputs or {
            "synth": outputs["synth"] and self.lc.weights_from_json(json.loads(outputs["synth"][1]))
        }
        for label, w in inputs.items():
            outputs[f"overlap:{label}"] = self._op("overlap", timings, tracer, lambda: self._overlap(w))
        outputs["run"] = self._op(
            "run", timings, tracer,
            lambda: (
                self._cli(["run", "--scenario", wl.run, "--out", run_dir], 0),
                (run_dir / "trajectory.csv").read_text(),
                (run_dir / "summary.json").read_text(),
            ),
        )
        outputs["analyze"] = self._op("analyze", timings, tracer, lambda: self._cli(["analyze", "--scenario", wl.run], 0))
        metrics = {
            "synth_s": timings["synth"],
            "verify_s": timings["verify"],
            "verify_overlap_s": timings["overlap"],
            "run_s": timings["run"],
            "analyze_s": timings["analyze"],
        }
        return metrics, outputs


def digest(outputs: dict) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True, default=str).encode()).hexdigest()


def check(wl: families.Workload, outputs: dict, seed: int) -> list[str]:
    """Independent checks of one round's outputs (skipping failed operations)."""
    m, n = wl.m, wl.n
    fails: list[str] = []
    synth_weights = None
    if outputs["synth"] is not None:
        stdout, weights_text = outputs["synth"]
        synth_weights = checks.weights_table(json.loads(weights_text))
        if not json.loads(stdout)["well_configured"]:
            fails.append("synth did not report well-configured weights")
        if checks.nullity(m, n, synth_weights) != n:
            fails.append("synthesized weights are not well-configured by the row check")
    for path, ok in wl.verify:
        result = outputs[f"verify:{path.stem}"]
        if result is None:
            continue
        report = json.loads(result)
        table = wl.explicit.get(path, synth_weights if path == wl.synth else None)
        if report["well_configured"] != ok:
            fails.append(f"verify {path.stem}: verdict {report['well_configured']}, expected {ok}")
        if table is not None and report["kernel_dim"] != checks.nullity(m, n, table):
            fails.append(f"verify {path.stem}: kernel_dim {report['kernel_dim']} disagrees with the row check")
        if ok and report["kernel_dim"] != n:
            fails.append(f"verify {path.stem}: kernel_dim {report['kernel_dim']} on well-configured weights")
        if not ok:
            fails += [f"verify {path.stem}: {f}" for f in checks.witness(m, n, table, np.asarray(report["witness"]))]
            planted = np.zeros((m, n))
            planted[np.asarray(wl.planted_cut) - 1] = wl.planted_direction
            fails += [f"planted state: {f}" for f in checks.witness(m, n, table, planted)]
    for key, verdict in outputs.items():
        if key.startswith("overlap:") and verdict is not None:
            label = key.split(":", 1)[1]
            expected = label == "synth" or next(ok for p, ok in wl.verify if p.stem == label)
            if verdict != expected:
                fails.append(f"overlap verifier on {label}: {verdict}, expected {expected}")
    run_weights = wl.explicit.get(wl.run, synth_weights)
    if outputs["run"] is not None and run_weights is not None:
        fails += check_run(wl, outputs["run"], run_weights, seed)
    if outputs["analyze"] is not None and run_weights is not None:
        payload = json.loads(outputs["analyze"])
        if wl.algorithm == "metropolis_tv":
            for rep in payload["per_subgraph"]:
                sub = {arc: run_weights[arc] for arc in wl.subgraphs[rep["subgraph"]]}
                fails += [f"analyze subgraph {rep['subgraph']}: {f}" for f in checks.spectral(rep, m * n, checks.nullity(m, n, sub))]
        else:
            rep = payload["report"]
            ones = n if rep["symmetric"] else None
            fails += [f"analyze: {f}" for f in checks.spectral(rep, m * n, ones)]
    return fails


def check_run(wl: families.Workload, result, weights: dict, seed: int) -> list[str]:
    m, n = wl.m, wl.n
    stdout, csv_text, summary_text = result
    summary = json.loads(summary_text)
    if json.loads(stdout) != summary:
        return ["run printed a different summary than it wrote"]
    states = checks.read_trajectory(csv_text, m, n)
    fails = []
    if summary["steps_run"] != states.shape[0] - 1:
        fails.append(f"summary says {summary['steps_run']} rounds, trajectory has {states.shape[0] - 1}")
    if not np.array_equal(states[0], np.random.default_rng(wl.init_seed).standard_normal((m, n))):
        fails.append("round 0 is not the seeded initial state")
    final_err = checks.consensus_error(states[-1])
    if abs(final_err - summary["final_consensus_error"]) > 1e-12 * max(1.0, final_err):
        fails.append(f"final consensus error {summary['final_consensus_error']} vs {final_err} from the trajectory")
    step, graph_arg = {
        "fixed_step": (checks.fixed_step_round, wl.arcs),
        "metropolis_tv": (checks.metropolis_round, wl.subgraphs),
        "general_projection": (checks.projection_round, wl.arcs),
    }[wl.algorithm]
    fails += checks.replay(states, step, graph_arg, weights, np.random.default_rng([seed, 9]))
    if wl.family in ("ring", "complete"):
        drift = float(np.max(np.abs(states.mean(axis=1) - states[0].mean(axis=0))))
        if drift > 1e-10:
            fails.append(f"the agents' average drifted by {drift:.3g}")
        if summary["spectral"]["ones"] != n:
            fails.append(f"round map has {summary['spectral']['ones']} eigenvalues at 1, expected {n}")
    if wl.family == "complete":
        if not summary["converged"] or summary["steps_run"] >= wl.steps:
            fails.append("metropolis run did not reach consensus within its step budget")
        off = float(np.max(np.abs(states[-1] - states[0].mean(axis=0))))
        if off > 1e-8:
            fails.append(f"final consensus value is {off:.3g} away from the initial mean")
    return fails


def measure(pipeline: Pipeline, seconds: float, tracer, limcon) -> dict:
    """Whole rounds until `seconds` have passed and at least MIN_ROUNDS ran.

    With a tracer, rounds alternate untraced and traced (starting untraced),
    so the untraced ones give the tracing overhead.  The first traced round
    also measures engine memory; the later ones give the per-layer times.
    """
    runs = {"untraced": [], "traced": [], "traced_walls": [], "digests": [], "first": None}
    min_rounds = MIN_ROUNDS if tracer is None else 2 * MIN_ROUNDS
    start = time.perf_counter()
    r = 0
    while r < min_rounds or time.perf_counter() - start < seconds:
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.round = r
            tracer.memory = r == 1
            tracer.install(limcon)
        wall = time.perf_counter()
        try:
            metrics, outputs = pipeline.round(tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        metrics["wall_s"] = time.perf_counter() - wall
        if traced:
            runs["traced"].append(r)
            runs["traced_walls"].append(metrics["wall_s"])
        else:
            runs["untraced"].append(metrics)
        print(f"round {r}{' traced' if traced else ''}", " ".join(f"{k}={v:.4f}" for k, v in metrics.items()), file=sys.stderr)
        runs["digests"].append(digest(outputs))
        runs["first"] = runs["first"] or outputs
        r += 1
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=families.FAMILIES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "limcon" / "__init__.py").is_file():
        print(f"error: limcon sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        workload, setup_s = setup(args.workload, args.seed, work / "inputs")
        import limcon
        import limcon.cli  # noqa: F401 - main() is called through the package

        pipeline = Pipeline(limcon, workload, work / "outputs")
        tracer = tracing.Tracer() if args.trace else None
        runs = measure(pipeline, args.seconds, tracer, limcon)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        fails = check(workload, runs["first"], args.seed)
        if len(set(runs["digests"])) != 1:
            fails.append("outputs differ between rounds of the same inputs")
        for f in fails:
            print(f"check failed: {f}", file=sys.stderr)
        untraced = runs["untraced"]
        if tracer is not None:
            csv_bytes = (work / "outputs" / "run" / "trajectory.csv").stat().st_size
            metrics = tracing.layer_metrics(tracer, runs["traced"], csv_bytes)
            units = tracing.PER_LAYER
            untraced_wall = statistics.median(r["wall_s"] for r in untraced)
            overhead = statistics.median(runs["traced_walls"][1:]) / untraced_wall - 1.0
            trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
            tracer.write(trace_file, {
                "workload": args.workload, "seed": args.seed, "blas_threads": blas_threads(),
                "untraced_round_s": untraced_wall, "tracing_overhead": overhead,
                "traced_rounds": runs["traced"], "metrics": metrics,
            })
            print(f"tracing overhead {100 * overhead:+.1f}% (median traced vs untraced round); spans in {trace_file}", file=sys.stderr)
        else:
            metrics = {name: statistics.median(r[name] for r in untraced) for name in END_TO_END if name in untraced[0]}
            metrics.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
            units = END_TO_END
        print(f"{args.workload} seed {args.seed}: {len(runs['digests'])} rounds, blas threads {blas_threads()}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not fails,
        "attempted": pipeline.attempted,
        "failed": pipeline.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
