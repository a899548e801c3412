"""Command-line front end: verify, synthesize, simulate, and analyze
matrix-weighted consensus scenarios described by JSON files.

Exit codes: 0 success (and well-configured, for verify), 2 verification
refused the configuration, 1 any error.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .graphs import DirectedGraph, EarDecomposition
from .linalg import RANK_RTOL
from .simulate import (
    ALGORITHMS,
    Schedule,
    StepsizeSchedule,
    build_update_matrix,
    run_cycle_projection,
    run_fixed_step,
    run_general_projection,
    run_gradient,
    run_metropolis_tv,
    spectral_report,
    stacked_laplacian,
)
from .wellconfig import (
    WeightedNeighborGraph,
    is_well_configured,
    synthesize_symmetric_weights,
    synthesize_weights,
    weights_to_json,
)

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    pass


class UsageError(ValueError):
    """A command line argparse rejects."""


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1 like any other error; argparse's own status 2 would
    # read as "not well-configured".
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


_JSON_KINDS = {
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "an array",
    dict: "an object",
    type(None): "null",
}


def _expect(value, where: str, *kinds: type):
    """value itself if its JSON kind is one of kinds (a boolean is no number)."""
    if type(value) not in kinds:
        wanted = " or ".join(_JSON_KINDS[k] for k in kinds)
        raise ScenarioError(f"{where} must be {wanted}, got {_JSON_KINDS.get(type(value), type(value).__name__)}")
    return value


def _number(value, where: str) -> float:
    return float(_expect(value, where, int, float))


def _arcs(value, where: str) -> tuple[tuple[int, int], ...]:
    pairs = _expect(value, where, list)
    if not all(type(pair) is list and len(pair) == 2 for pair in pairs):
        raise ScenarioError(f"{where} must be an array of [j, i] pairs")
    return tuple((_expect(j, where, int), _expect(i, where, int)) for j, i in pairs)


def _array(value, where: str) -> np.ndarray:
    try:
        return np.asarray(_expect(value, where, list), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where} must be a numeric array") from exc


def _check_keys(obj: dict, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be a JSON object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ScenarioError(f"{where}: missing keys {sorted(missing)}")


def load_scenario(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    _check_keys(
        data,
        f"{path}",
        required=("schema_version", "graph", "n", "weights"),
        optional=("algorithm", "initial_state", "output"),
    )
    if data["schema_version"] != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema_version {data['schema_version']!r}; expected {SCHEMA_VERSION}")
    if "output" in data:
        # checked here, not where it is read: --out would skip that
        _check_keys(data["output"], "output", required=("dir",))
        _expect(data["output"]["dir"], "output.dir", str)
    return data


def _build_graph(section: dict, base_dir: Path) -> DirectedGraph:
    if isinstance(section, dict) and "path" in section:
        _check_keys(section, "graph", required=("path",))
        text = (base_dir / _expect(section["path"], "graph.path", str)).read_text()
        return DirectedGraph.from_text(text)
    _check_keys(section, "graph", required=("m", "arcs"))
    return DirectedGraph(_expect(section["m"], "graph.m", int), _arcs(section["arcs"], "graph.arcs"))


def _build_weights(section: dict, g: DirectedGraph, n: int, base_dir: Path) -> WeightedNeighborGraph:
    _check_keys(section, "weights", required=(), optional=("explicit", "synthesize"))
    if ("explicit" in section) == ("synthesize" in section):
        raise ScenarioError("weights: exactly one of 'explicit' or 'synthesize' is required")
    if "explicit" in section:
        table = {}
        for entry in _expect(section["explicit"], "weights.explicit", list):
            _check_keys(entry, "weights.explicit[]", required=("j", "i", "C"))
            arc = (_expect(entry["j"], "weights.explicit[].j", int), _expect(entry["i"], "weights.explicit[].i", int))
            if arc in table:
                raise ScenarioError(f"weights.explicit: arc {arc} is listed twice")
            table[arc] = _array(entry["C"], "weights.explicit[].C")
        return WeightedNeighborGraph(g, n, table)
    cfg = section["synthesize"]
    _check_keys(cfg, "weights.synthesize", required=(), optional=("mode", "symmetric", "decomposition"))
    mode = cfg.get("mode", "free")
    symmetric = _expect(cfg.get("symmetric", False), "weights.synthesize.symmetric", bool)
    dec_cfg = cfg.get("decomposition", "auto")
    decomposition = None
    if dec_cfg != "auto":
        _check_keys(dec_cfg, "weights.synthesize.decomposition", required=("path",))
        dec_path = base_dir / _expect(dec_cfg["path"], "weights.synthesize.decomposition.path", str)
        raw = _expect(json.loads(dec_path.read_text()), f"{dec_path}", list)
        for ear in raw:
            _check_keys(ear, f"{dec_path}: ear", required=("kind", "arcs"))
            _arcs(ear["arcs"], f"{dec_path}: ear arcs")
        decomposition = EarDecomposition.from_json(raw)
    if symmetric:
        return synthesize_symmetric_weights(g, n, decomposition, mode)
    return synthesize_weights(g, n, decomposition, mode)


def _build_initial_state(section: dict, m: int, n: int, seed_override: int | None) -> np.ndarray:
    _check_keys(section, "initial_state", required=(), optional=("explicit", "random", "consensus"))
    sources = [k for k in ("explicit", "random", "consensus") if k in section]
    if len(sources) != 1:
        raise ScenarioError("initial_state: exactly one of 'explicit', 'random', 'consensus' is required")
    kind = sources[0]
    if kind == "explicit":
        if seed_override is not None:
            raise ScenarioError("--seed given but the initial state is explicit")
        state = _array(section["explicit"], "initial_state.explicit")
        if state.shape != (m, n):
            raise ScenarioError(f"initial_state.explicit must be {m} rows of {n} values")
        return state
    if kind == "consensus":
        if seed_override is not None:
            raise ScenarioError("--seed given but the initial state is a consensus state")
        cfg = section["consensus"]
        _check_keys(cfg, "initial_state.consensus", required=(), optional=("value",))
        value = _array(cfg["value"], "initial_state.consensus.value") if "value" in cfg else np.zeros(n)
        if value.shape != (n,):
            raise ScenarioError(f"initial_state.consensus.value must have {n} entries")
        return np.tile(value, (m, 1))
    cfg = section["random"]
    _check_keys(cfg, "initial_state.random", required=(), optional=("seed",))
    seed = seed_override if seed_override is not None else cfg.get("seed")
    if seed is None:
        raise ScenarioError("random initial state needs a seed (scenario key or --seed)")
    rng = np.random.default_rng(_expect(seed, "initial_state.random.seed", int))
    return rng.standard_normal((m, n))


def _build_stepsize(section: dict | None) -> StepsizeSchedule:
    if section is None:
        return StepsizeSchedule.harmonic()
    _check_keys(section, "algorithm.stepsize", required=("kind",), optional=("a", "b", "value", "values"))
    kind = section["kind"]
    if kind == "harmonic":
        return StepsizeSchedule.harmonic(
            _number(section.get("a", 1.0), "algorithm.stepsize.a"), _number(section.get("b", 2.0), "algorithm.stepsize.b")
        )
    if kind == "constant":
        return StepsizeSchedule.constant(_number(section["value"], "algorithm.stepsize.value"))
    if kind == "scripted":
        values = _expect(section["values"], "algorithm.stepsize.values", list)
        return StepsizeSchedule.scripted([_number(v, "algorithm.stepsize.values[]") for v in values])
    raise ScenarioError(f"algorithm.stepsize.kind must be harmonic|constant|scripted, got {kind!r}")


def _build_schedule(section: dict, m: int) -> Schedule:
    _check_keys(section, "algorithm.schedule", required=("mode", "subgraphs"), optional=("script",))
    subgraphs = tuple(
        DirectedGraph(m, _arcs(arcs, "algorithm.schedule.subgraphs[]"))
        for arcs in _expect(section["subgraphs"], "algorithm.schedule.subgraphs", list)
    )
    mode = section["mode"]
    if mode == "fixed":
        if len(subgraphs) != 1:
            raise ScenarioError("fixed schedule needs exactly one subgraph")
        return Schedule.fixed(subgraphs[0])
    if mode == "periodic":
        return Schedule.periodic(subgraphs)
    if mode == "scripted":
        if "script" not in section:
            raise ScenarioError("scripted schedule needs a script")
        script = _expect(section["script"], "algorithm.schedule.script", list)
        return Schedule.scripted(subgraphs, [_expect(s, "algorithm.schedule.script[]", int) for s in script])
    raise ScenarioError(f"algorithm.schedule.mode must be fixed|periodic|scripted, got {mode!r}")


def _algorithm_section(data: dict) -> dict:
    if "algorithm" not in data:
        raise ScenarioError("scenario has no 'algorithm' section")
    section = data["algorithm"]
    _check_keys(
        section,
        "algorithm",
        required=("name", "steps"),
        optional=("stepsize", "schedule", "project_init"),
    )
    if section["name"] not in ALGORITHMS:
        raise ScenarioError(f"algorithm.name must be one of {ALGORITHMS}, got {section['name']!r}")
    return section


def _resolve(data: dict, base_dir: Path) -> tuple[DirectedGraph, int, WeightedNeighborGraph]:
    n = _expect(data["n"], "n", int)
    g = _build_graph(data["graph"], base_dir)
    w = _build_weights(data["weights"], g, n, base_dir)
    return g, n, w


def _out_dir(args, data: dict) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    return Path(data["output"]["dir"] if "output" in data else "out")


def _write_trajectory_csv(path: Path, traj) -> None:
    rounds, m, n = traj.states.shape
    row = "%d,%d," + ",".join(["%.17g"] * n) + "\n"
    with path.open("w") as out:
        out.write("t,agent," + ",".join(f"comp_{c + 1}" for c in range(n)) + "\n")
        for t in range(rounds):
            out.write("".join(row % (t, a, *x) for a, x in enumerate(traj.states[t].tolist(), 1)))


def _round_matrix_for_summary(name: str, w: WeightedNeighborGraph) -> np.ndarray:
    if name == "gradient":
        # No fixed round map; report on the descended quadratic's matrix.
        return stacked_laplacian(w)
    return build_update_matrix(name, w)


def cmd_verify(args) -> int:
    data = load_scenario(Path(args.scenario))
    _, _, w = _resolve(data, Path(args.scenario).parent)
    report = is_well_configured(w, rtol=args.tol)
    print(json.dumps(report.to_json(), indent=2))
    gap = report.rank_gap
    if gap.narrow():
        print(
            f"warning: rank gap (last kept {gap.last_kept}, first dropped {gap.first_dropped}) "
            f"is within {gap.MARGIN:g}x of the cut-off {gap.cutoff:.3g}; the verdict may change with --tol",
            file=sys.stderr,
        )
    return 0 if report.well_configured else 2


def cmd_synth(args) -> int:
    data = load_scenario(Path(args.scenario))
    if "synthesize" not in data["weights"]:
        raise ScenarioError("synth needs a weights.synthesize section")
    _, _, w = _resolve(data, Path(args.scenario).parent)
    report = is_well_configured(w, rtol=args.tol)
    if not report.well_configured:
        raise ScenarioError("refusing to emit weights that fail verification")
    out = _out_dir(args, data)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "weights.json"
    target.write_text(json.dumps(weights_to_json(w), indent=2) + "\n")
    print(json.dumps({"weights": str(target), "well_configured": True, "kernel_dim": report.kernel_dim}))
    return 0


def _run_scenario(data: dict, base_dir: Path, args) -> tuple[dict, object]:
    g, n, w = _resolve(data, base_dir)
    section = _algorithm_section(data)
    name = section["name"]
    steps = args.steps if args.steps is not None else _expect(section["steps"], "algorithm.steps", int)
    if "initial_state" not in data:
        raise ScenarioError("scenario has no 'initial_state' section")
    x0 = _build_initial_state(data["initial_state"], g.m, n, args.seed)
    project_init = _expect(section.get("project_init", False), "algorithm.project_init", bool)
    if name == "gradient":
        traj = run_gradient(w, x0, steps, _build_stepsize(section.get("stepsize")))
    elif name == "fixed_step":
        traj = run_fixed_step(w, x0, steps)
    elif name == "metropolis_tv":
        if "schedule" not in section:
            raise ScenarioError("metropolis_tv needs an algorithm.schedule section")
        traj = run_metropolis_tv(w, x0, _build_schedule(section["schedule"], g.m), steps)
    elif name == "cycle_projection":
        traj = run_cycle_projection(w, x0, steps, project_init)
    else:
        traj = run_general_projection(w, x0, steps)
    spectral = spectral_report(_round_matrix_for_summary(name, w), n)
    summary = {
        "algorithm": name,
        "steps_run": traj.steps_run,
        "final_consensus_error": traj.final_consensus_error,
        "final_residual": traj.final_residual,
        "converged": traj.converged,
        "spectral": spectral.summary_dict(),
    }
    return summary, traj


def cmd_run(args) -> int:
    data = load_scenario(Path(args.scenario))
    summary, traj = _run_scenario(data, Path(args.scenario).parent, args)
    out = _out_dir(args, data)
    out.mkdir(parents=True, exist_ok=True)
    _write_trajectory_csv(out / "trajectory.csv", traj)
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary, indent=2))
    return 0


def cmd_analyze(args) -> int:
    data = load_scenario(Path(args.scenario))
    g, n, w = _resolve(data, Path(args.scenario).parent)
    section = _algorithm_section(data)
    name = section["name"]
    if name == "metropolis_tv" and "schedule" in section:
        schedule = _build_schedule(section["schedule"], g.m)
        schedule.validate_for(g)
        reports = []
        for k, sub in enumerate(schedule.subgraphs):
            rep = spectral_report(build_update_matrix("metropolis_tv", w, sub), n)
            reports.append({"subgraph": k, **rep.to_json()})
        payload = {"algorithm": name, "per_subgraph": reports}
    else:
        rep = spectral_report(_round_matrix_for_summary(name, w), n)
        payload = {"algorithm": name, "report": rep.to_json()}
    text = json.dumps(payload, indent=2)
    if getattr(args, "out", None):
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "analysis.json").write_text(text + "\n")
    print(text)
    return 0


def bundled_scenario_path(name: str) -> Path:
    return Path(str(resources.files("limcon").joinpath(f"scenarios/{name}.json")))


def cmd_counterexample(args) -> int:
    args.scenario = str(bundled_scenario_path("counterexample"))
    return cmd_run(args)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="limcon", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True, tol=False):
        if scenario:
            p.add_argument("--scenario", required=True, help="scenario JSON file")
        if tol:
            p.add_argument("--tol", type=float, default=RANK_RTOL, help="relative rank tolerance")

    p_verify = sub.add_parser("verify", help="check well-configuration; exit 0/2/1")
    common(p_verify, tol=True)
    p_verify.set_defaults(func=cmd_verify)

    p_synth = sub.add_parser("synth", help="synthesize weights from an ear decomposition")
    common(p_synth, tol=True)
    p_synth.add_argument("--out", help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", help="simulate and write trajectory.csv + summary.json")
    common(p_run)
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--seed", type=int, help="override the random-init seed")
    p_run.add_argument("--steps", type=int, help="override the round count")
    p_run.set_defaults(func=cmd_run)

    p_analyze = sub.add_parser("analyze", help="spectral report of the round update matrix")
    common(p_analyze)
    p_analyze.add_argument("--out", help="optional output directory")
    p_analyze.set_defaults(func=cmd_analyze)

    p_ce = sub.add_parser("counterexample", help="run the bundled stalling projection scenario")
    common(p_ce, scenario=False)
    p_ce.add_argument("--out", help="output directory")
    p_ce.add_argument("--seed", type=int, help="override the random-init seed")
    p_ce.add_argument("--steps", type=int, help="override the round count")
    p_ce.set_defaults(func=cmd_counterexample)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
