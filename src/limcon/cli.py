"""Command-line front end: verify, synthesize, simulate, and analyze
matrix-weighted consensus scenarios described by JSON files.

Exit codes: 0 success (and well-configured, for verify), 2 verification
refused the configuration, 1 any error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import simulate
from .graphs import DirectedGraph, EarDecomposition, _check_keys
from .linalg import RANK_RTOL
from .simulate import (
    ALGORITHMS,
    Schedule,
    StepsizeSchedule,
    build_update_matrix,
    spectral_report,
    stacked_laplacian,
)
from .wellconfig import (
    WeightedNeighborGraph,
    _checked_decomposition,
    _proves_by_ears,
    _synthesize,
    is_well_configured,
)

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1 like any other error; argparse's own status 2 would
    # read as "not well-configured".
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


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
        raise ValueError(f"{where} must be {wanted}, got {_JSON_KINDS.get(type(value), type(value).__name__)}")
    return value


def _number(value, where: str) -> float:
    return float(_expect(value, where, int, float))


def _arcs(value, where: str) -> tuple[tuple[int, int], ...]:
    pairs = _expect(value, where, list)
    if not all(type(pair) is list and len(pair) == 2 for pair in pairs):
        raise ValueError(f"{where} must be an array of [j, i] pairs")
    return tuple((_expect(j, where, int), _expect(i, where, int)) for j, i in pairs)


def _array(value, where: str) -> np.ndarray:
    try:
        return np.asarray(_expect(value, where, list), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where} must be a numeric array") from exc


def _read_json(path: Path, what: str):
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _finite(values: np.ndarray, where: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise ValueError(f"{where} must be finite")
    return values


def load_scenario(path: Path) -> dict:
    data = _read_json(path, "scenario")
    _check_keys(
        data,
        f"{path}",
        required=("schema_version", "graph", "n", "weights"),
        optional=("algorithm", "initial_state", "output"),
    )
    if _expect(data["schema_version"], "schema_version", int) != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {data['schema_version']!r}; expected {SCHEMA_VERSION}")
    if "output" in data:
        # checked here, not where it is read: --out would skip that
        _check_keys(data["output"], "output", required=("dir",))
        _expect(data["output"]["dir"], "output.dir", str)
    return data


def _build_graph(section: dict, base_dir: Path) -> DirectedGraph:
    if isinstance(section, dict) and "path" in section:
        _check_keys(section, "graph", required=("path",))
        path = base_dir / _expect(section["path"], "graph.path", str)
        try:
            return DirectedGraph.from_text(path.read_text())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    _check_keys(section, "graph", required=("m", "arcs"))
    return DirectedGraph(_expect(section["m"], "graph.m", int), _arcs(section["arcs"], "graph.arcs"))


def _build_weights(
    section: dict, g: DirectedGraph, n: int, base_dir: Path
) -> tuple[WeightedNeighborGraph, EarDecomposition | None]:
    _check_keys(section, "weights", required=(), optional=("explicit", "synthesize"))
    if ("explicit" in section) == ("synthesize" in section):
        raise ValueError("weights: exactly one of 'explicit' or 'synthesize' is required")
    if "explicit" in section:
        table = {}
        for entry in _expect(section["explicit"], "weights.explicit", list):
            _check_keys(entry, "weights.explicit[]", required=("j", "i", "C"))
            arc = (_expect(entry["j"], "weights.explicit[].j", int), _expect(entry["i"], "weights.explicit[].i", int))
            if arc in table:
                raise ValueError(f"weights.explicit: arc {arc} is listed twice")
            table[arc] = _array(entry["C"], "weights.explicit[].C")
        return WeightedNeighborGraph(g, n, table), None
    cfg = section["synthesize"]
    _check_keys(cfg, "weights.synthesize", required=(), optional=("mode", "symmetric", "decomposition"))
    mode = cfg.get("mode", "free")
    symmetric = _expect(cfg.get("symmetric", False), "weights.synthesize.symmetric", bool)
    dec_cfg = cfg.get("decomposition", "auto")
    decomposition = None
    if dec_cfg != "auto":
        _check_keys(dec_cfg, "weights.synthesize.decomposition", required=("path",))
        dec_path = base_dir / _expect(dec_cfg["path"], "weights.synthesize.decomposition.path", str)
        raw = _read_json(dec_path, "decomposition")
        try:
            decomposition = EarDecomposition.from_json(raw)
        except ValueError as exc:
            raise ValueError(f"{dec_path}: {exc}") from None
    decomposition = _checked_decomposition(g, decomposition, symmetric)
    return _synthesize(g, n, decomposition, mode), decomposition


def _build_initial_state(section: dict, m: int, n: int, seed_override: int | None) -> np.ndarray | None:
    """The (m, n) initial state, or None for a random one whose seed only
    run --seed can still supply."""
    _check_keys(section, "initial_state", required=(), optional=("explicit", "random", "consensus"))
    sources = [k for k in ("explicit", "random", "consensus") if k in section]
    if len(sources) != 1:
        raise ValueError("initial_state: exactly one of 'explicit', 'random', 'consensus' is required")
    kind = sources[0]
    if kind == "explicit":
        if seed_override is not None:
            raise ValueError("--seed given but the initial state is explicit")
        state = _array(section["explicit"], "initial_state.explicit")
        if state.shape != (m, n):
            raise ValueError(f"initial_state.explicit must be {m} rows of {n} values")
        return _finite(state, "initial_state.explicit")
    if kind == "consensus":
        if seed_override is not None:
            raise ValueError("--seed given but the initial state is a consensus state")
        cfg = section["consensus"]
        _check_keys(cfg, "initial_state.consensus", required=(), optional=("value",))
        value = _array(cfg["value"], "initial_state.consensus.value") if "value" in cfg else np.zeros(n)
        if value.shape != (n,):
            raise ValueError(f"initial_state.consensus.value must have {n} entries")
        return np.tile(_finite(value, "initial_state.consensus.value"), (m, 1))
    cfg = section["random"]
    _check_keys(cfg, "initial_state.random", required=(), optional=("seed",))
    seed = None
    for where, value in (("initial_state.random.seed", cfg.get("seed")), ("--seed", seed_override)):
        if value is not None:  # both are checked; --seed, the later, wins
            if _expect(value, where, int) < 0:
                raise ValueError(f"{where} must be a non-negative integer, got {value}")
            seed = value
    return None if seed is None else np.random.default_rng(seed).standard_normal((m, n))


def _stepsize(make, *args, **kwargs) -> StepsizeSchedule:
    """make(*args, **kwargs), with the constructor's error, which names the
    parameter and the value, put under algorithm.stepsize."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"algorithm.stepsize.{exc}") from None


def _build_stepsize(section: dict) -> StepsizeSchedule:
    _check_keys(section, "algorithm.stepsize", required=("kind",), optional=("a", "b", "value", "values"))
    kind = section["kind"]
    where = f"algorithm.stepsize ({kind})"
    if kind == "harmonic":
        _check_keys(section, where, required=("kind",), optional=("a", "b"))
        given = {k: _number(section[k], f"algorithm.stepsize.{k}") for k in ("a", "b") if k in section}
        return _stepsize(StepsizeSchedule.harmonic, **given)
    if kind == "constant":
        _check_keys(section, where, required=("kind", "value"))
        return _stepsize(StepsizeSchedule.constant, _number(section["value"], "algorithm.stepsize.value"))
    if kind == "scripted":
        _check_keys(section, where, required=("kind", "values"))
        values = _expect(section["values"], "algorithm.stepsize.values", list)
        return _stepsize(StepsizeSchedule.scripted, [_number(v, f"algorithm.stepsize.values[{k}]") for k, v in enumerate(values)])
    raise ValueError(f"algorithm.stepsize.kind must be harmonic|constant|scripted, got {kind!r}")


def _build_schedule(section: dict, m: int) -> Schedule:
    _check_keys(section, "algorithm.schedule", required=("mode", "subgraphs"), optional=("script",))
    mode = section["mode"]
    if mode not in ("fixed", "periodic", "scripted"):
        raise ValueError(f"algorithm.schedule.mode must be fixed|periodic|scripted, got {mode!r}")
    # only a scripted schedule reads a script
    script_key = ("script",) if mode == "scripted" else ()
    _check_keys(section, f"algorithm.schedule ({mode})", required=("mode", "subgraphs", *script_key))
    subgraphs = tuple(
        DirectedGraph(m, _arcs(arcs, "algorithm.schedule.subgraphs[]"))
        for arcs in _expect(section["subgraphs"], "algorithm.schedule.subgraphs", list)
    )
    if mode == "fixed":
        if len(subgraphs) != 1:
            raise ValueError("fixed schedule needs exactly one subgraph")
        return Schedule.fixed(subgraphs[0])
    if mode == "periodic":
        return Schedule.periodic(subgraphs)
    script = _expect(section["script"], "algorithm.schedule.script", list)
    return Schedule.scripted(subgraphs, [_expect(s, "algorithm.schedule.script[]", int) for s in script])


# The (required, optional) settings each algorithm reads besides name and
# steps; any other is rejected.
_SETTINGS = {
    "gradient": ((), ("stepsize",)),
    "metropolis_tv": (("schedule",), ()),
    "cycle_projection": ((), ("project_init",)),
}


def _build_algorithm(section: dict, g: DirectedGraph) -> tuple[str, int, dict]:
    """The algorithm's name, its step count and its parsed settings, which
    are the keyword arguments of its engine simulate.run_<name>."""
    name = _expect(section, "algorithm", dict).get("name")
    if name not in ALGORITHMS:
        raise ValueError(f"algorithm.name must be one of {ALGORITHMS}, got {name!r}")
    required, optional = _SETTINGS.get(name, ((), ()))
    _check_keys(section, f"algorithm ({name})", required=("name", "steps", *required), optional=optional)
    steps = _expect(section["steps"], "algorithm.steps", int)
    if steps < 0:
        raise ValueError(f"algorithm.steps must be >= 0, got {steps}")
    settings = {}
    if "stepsize" in section:
        settings["stepsize"] = _build_stepsize(section["stepsize"])
    if "schedule" in section:
        settings["schedule"] = _build_schedule(section["schedule"], g.m)
        settings["schedule"].arc_weights(g)  # raises unless every subgraph fits g
    if "project_init" in section:
        settings["project_init"] = _expect(section["project_init"], "algorithm.project_init", bool)
    return name, steps, settings


def _resolve(
    data: dict, base_dir: Path, seed: int | None = None
) -> tuple[WeightedNeighborGraph, EarDecomposition | None, tuple[str, int, dict] | None, np.ndarray | None]:
    """The weights, the ear decomposition they were synthesized from, the algorithm
    section and the initial state, each None when absent.  Every command comes
    through here, so every command rejects a malformed section, also one it does not use."""
    n = _expect(data["n"], "n", int)
    g = _build_graph(data["graph"], base_dir)
    w, decomposition = _build_weights(data["weights"], g, n, base_dir)
    algorithm = _build_algorithm(data["algorithm"], g) if "algorithm" in data else None
    x0 = _build_initial_state(data["initial_state"], g.m, n, seed) if "initial_state" in data else None
    return w, decomposition, algorithm, x0


def _require(data: dict, *sections: str) -> None:
    for key in sections:
        if key not in data:
            raise ValueError(f"scenario has no '{key}' section")


def _out_dir(args, data: dict) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    return Path(data["output"]["dir"] if "output" in data else "out")


def _write_trajectory_csv(path: Path, traj) -> None:
    rounds, m, n = traj.states.shape
    # one round's rows with the agent indices in place; t replaces the "T"s
    rows = "".join(f"T,{a}," + ",".join(["%.17g"] * n) + "\n" for a in range(1, m + 1))
    with path.open("w") as out:
        out.write("t,agent," + ",".join(f"comp_{c + 1}" for c in range(n)) + "\n")
        for t in range(rounds):
            out.write(rows.replace("T", str(t)) % tuple(traj.states[t].ravel().tolist()))


def _write_weights_json(path: Path, w: WeightedNeighborGraph) -> None:
    """The bytes of json.dumps(weights_to_json(w), indent=2) plus a newline,
    one %-format call per arc.  %r of a float is float.__repr__, which json
    writes for every finite number, and the weights are finite."""
    row = "        [\n" + ",\n".join(["          %r"] * w.n) + "\n        ]"
    templates = {}  # per row count
    values = w.rows.ravel().tolist()
    arcs, start = [], 0
    for (j, i), r in zip(w.graph.arcs, w.row_counts.tolist()):
        if r not in templates:
            rows = "[\n" + ",\n".join([row] * r) + "\n      ]" if r else "[]"
            templates[r] = '    {\n      "j": %d,\n      "i": %d,\n      "C": ' + rows + "\n    }"
        stop = start + r * w.n
        arcs.append(templates[r] % (j, i, *values[start:stop]))
        start = stop
    body = "[\n" + ",\n".join(arcs) + "\n  ]" if arcs else "[]"
    path.write_text(f'{{\n  "m": {w.m},\n  "n": {w.n},\n  "arcs": {body}\n}}\n')


def _round_matrix_for_summary(name: str, w: WeightedNeighborGraph) -> np.ndarray:
    if name == "gradient":
        # No fixed round map; report on the descended quadratic's matrix.
        return stacked_laplacian(w)
    return build_update_matrix(name, w)


def cmd_verify(args) -> int:
    data = load_scenario(Path(args.scenario))
    w = _resolve(data, Path(args.scenario).parent)[0]
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
    w, decomposition, _, _ = _resolve(data, Path(args.scenario).parent)
    if decomposition is None:
        raise ValueError("synth needs a weights.synthesize section")
    if not _proves_by_ears(w, decomposition):
        raise ValueError("refusing to emit weights that fail verification")
    out = _out_dir(args, data)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "weights.json"
    _write_weights_json(target, w)
    print(json.dumps({"weights": str(target), "well_configured": True, "kernel_dim": w.n}))
    return 0


def cmd_run(args) -> int:
    data = load_scenario(Path(args.scenario))
    w, _, algorithm, x0 = _resolve(data, Path(args.scenario).parent, args.seed)
    _require(data, "algorithm", "initial_state")
    if x0 is None:
        raise ValueError("random initial state needs a seed (scenario key or --seed)")
    name, steps, settings = algorithm
    if args.steps is not None:
        if args.steps < 0:
            raise ValueError(f"--steps must be >= 0, got {args.steps}")
        steps = args.steps
    # looked up at call time, so a replaced engine is the one called
    traj = getattr(simulate, f"run_{name}")(w, x0, steps=steps, **settings)
    spectral = spectral_report(_round_matrix_for_summary(name, w), w.n)
    summary = {
        "algorithm": name,
        "steps_run": traj.steps_run,
        "final_consensus_error": traj.final_consensus_error,
        "final_residual": traj.final_residual,
        "converged": traj.converged,
        "spectral": spectral.summary_dict(),
    }
    out = _out_dir(args, data)
    out.mkdir(parents=True, exist_ok=True)
    _write_trajectory_csv(out / "trajectory.csv", traj)
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary, indent=2))
    return 0


def cmd_analyze(args) -> int:
    data = load_scenario(Path(args.scenario))
    w, _, algorithm, _ = _resolve(data, Path(args.scenario).parent)
    _require(data, "algorithm")
    name, _, settings = algorithm
    if name == "metropolis_tv":
        reports = []
        for k, sub in enumerate(settings["schedule"].subgraphs):
            rep = spectral_report(build_update_matrix("metropolis_tv", w, sub), w.n)
            reports.append({"subgraph": k, **rep.to_json()})
        payload = {"algorithm": name, "per_subgraph": reports}
    else:
        rep = spectral_report(_round_matrix_for_summary(name, w), w.n)
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


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 < value < 1.0:  # false for NaN too
        raise argparse.ArgumentTypeError(f"must be a number with 0 < tol < 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; args.command names the cmd_* function to call."""
    parser = _Parser(prog="limcon", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON file")

    p_verify = sub.add_parser("verify", help="check well-configuration; exit 0/2/1")
    common(p_verify)
    p_verify.add_argument("--tol", type=_tolerance, default=RANK_RTOL, help="relative rank tolerance, 0 < tol < 1")

    p_synth = sub.add_parser("synth", help="synthesize weights from an ear decomposition")
    common(p_synth)
    p_synth.add_argument("--out", help="output directory")

    p_run = sub.add_parser("run", help="simulate and write trajectory.csv + summary.json")
    common(p_run)
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--seed", type=int, help="override the random-init seed")
    p_run.add_argument("--steps", type=int, help="override the round count")

    p_analyze = sub.add_parser("analyze", help="spectral report of the round update matrix")
    common(p_analyze)
    p_analyze.add_argument("--out", help="optional output directory")

    p_ce = sub.add_parser("counterexample", help="run the bundled stalling projection scenario")
    p_ce.add_argument("--out", help="output directory")
    p_ce.add_argument("--seed", type=int, help="override the random-init seed")
    p_ce.add_argument("--steps", type=int, help="override the round count")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # looked up at call time, so a replaced cmd_* function is the one called
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
