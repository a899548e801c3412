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
from .graphs import DirectedGraph, EarDecomposition, _arcs, _array, _check_keys, _expect, _number
from .linalg import RANK_RTOL
from .simulate import (
    ALGORITHMS,
    Schedule,
    StepsizeSchedule,
    reported_matrix,
    spectral_counts,
    spectral_report,
)
from .wellconfig import (
    WeightedNeighborGraph,
    _checked_decomposition,
    _proves_by_ears,
    _synthesize,
    _weight_table,
    is_well_configured,
)

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1 like any other error; argparse's own status 2 would
    # read as "not well-configured".
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _under(prefix: str, make, *args):
    """make(*args), with its error, which names the offending value, put under prefix."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from None


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
        return _under(f"{path}: ", lambda: DirectedGraph.from_text(path.read_text()))
    _check_keys(section, "graph", required=("m", "arcs"))
    return DirectedGraph(_expect(section["m"], "graph.m", int), _arcs(section["arcs"], "graph.arcs"))


def _build_weights(
    section: dict, g: DirectedGraph, n: int, base_dir: Path
) -> tuple[WeightedNeighborGraph, EarDecomposition | None]:
    _check_keys(section, "weights", required=(), optional=("explicit", "synthesize"))
    if ("explicit" in section) == ("synthesize" in section):
        raise ValueError("weights: exactly one of 'explicit' or 'synthesize' is required")
    if "explicit" in section:
        return WeightedNeighborGraph(g, n, _weight_table(section["explicit"], "weights.explicit")), None
    cfg = section["synthesize"]
    _check_keys(cfg, "weights.synthesize", required=(), optional=("mode", "symmetric", "decomposition"))
    mode = cfg.get("mode", "free")
    symmetric = _expect(cfg.get("symmetric", False), "weights.synthesize.symmetric", bool)
    dec_cfg = cfg.get("decomposition", "auto")
    decomposition = None
    if dec_cfg != "auto":
        _check_keys(dec_cfg, "weights.synthesize.decomposition", required=("path",))
        dec_path = base_dir / _expect(dec_cfg["path"], "weights.synthesize.decomposition.path", str)
        decomposition = _under(f"{dec_path}: ", EarDecomposition.from_json, _read_json(dec_path, "decomposition"))
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


def _build_stepsize(section: dict) -> StepsizeSchedule:
    _check_keys(section, "algorithm.stepsize", required=("kind",), optional=("a", "b", "value", "values"))
    kind = section["kind"]
    where = f"algorithm.stepsize ({kind})"
    if kind == "harmonic":
        _check_keys(section, where, required=("kind",), optional=("a", "b"))
        given = {k: _number(section[k], f"algorithm.stepsize.{k}") for k in ("a", "b") if k in section}
        return _under("algorithm.stepsize.", functools.partial(StepsizeSchedule.harmonic, **given))
    if kind == "constant":
        _check_keys(section, where, required=("kind", "value"))
        return _under("algorithm.stepsize.", StepsizeSchedule.constant, _number(section["value"], "algorithm.stepsize.value"))
    if kind == "scripted":
        _check_keys(section, where, required=("kind", "values"))
        values = _expect(section["values"], "algorithm.stepsize.values", list)
        values = [_number(v, f"algorithm.stepsize.values[{k}]") for k, v in enumerate(values)]
        return _under("algorithm.stepsize.", StepsizeSchedule.scripted, values)
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


# '%.17g' prints 1e-4 <= |x| < 1e17 in fixed notation: the digits of S =
# x * 10^(16 - E) rounded half to even, E = floor(log10 |x|), less trailing zeros,
# with the point after digit E.  Dekker's product with the exact double
# 10^(16 - E) is p + lo exactly; p >= 1e16 > 2^53 is an even integer, so S =
# p + rint(lo).  No double in range is within 5e-18 below a power of ten, so S < 10^17.
_POW10 = np.array([float(10**k) for k in range(21)])
_GROUP = np.arange(10000, dtype=np.int16)
_DIGITS4 = (_GROUP[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + 48).astype(np.uint8).view(np.uint32).ravel()
_TRAILING_ZEROS = np.array([_GROUP % 10**k == 0 for k in range(1, 5)]).sum(0, dtype=np.int8)
# A value's 26-byte slot: its head (comma, sign, and "0." and zeros for E < 0) right-
# aligned in bytes 0-7, then its digits with the point after digit E.  _VALUE_MASKS
# keeps the printed bytes per (sign, E, digit count).
_SLOT = 26
_HEADS = np.array([(b"," + b"-" * s + b"0.000"[: 1 - e] * (e < 0)).rjust(8, b"\0") for s in (0, 1) for e in range(-4, 1)])
_E, _COUNT, _COLUMN = np.arange(-4, 17)[:, None], np.arange(1, 18), np.arange(_SLOT)[:, None, None, None]
_BEFORE_POINT = ((_COUNT <= _E + 1) | (_E < 0)).view("V17").ravel()
_HEAD = np.where(_E < 0, 1 - _E, 0) + [[[1]], [[2]]]
_BODY = np.where(_E < 0, _COUNT, np.where(_COUNT > _E + 1, _COUNT + 1, _E + 1))
_VALUE_MASKS = ((_COLUMN >= 8 - _HEAD) & (_COLUMN < 8 + _BODY)).transpose(1, 2, 3, 0).copy().view(f"V{_SLOT}").ravel()


def _split(a):
    """Veltkamp's split of doubles into two halves of at most 26 bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _fixed_digits(x: np.ndarray):
    """Per value: whether the writer prints it (else '%.17g' does), E, S's 17 ASCII digits, how many print."""
    mag = np.abs(x)
    fixed = (mag >= 1e-4) & (mag < 1e17)
    mag[~fixed] = 1.0
    k = 16 - np.clip(np.floor(np.log10(mag)).astype(np.intp), -4, 16)
    p = mag * _POW10.take(k)
    (mh, ml), ph, pl = _split(mag), _POW10_HI.take(k), _POW10_LO.take(k)
    lo = ((mh * ph - p) + mh * pl + ml * ph) + ml * pl
    # p + lo in [1e16, 1e17), tested exactly: a value whose log10 rounds across a power of ten goes to '%.17g'
    fixed &= ((p > 1e16) | (p == 1e16) & (lo >= 0)) & ((p < 1e17) | (p == 1e17) & (lo < 0))
    sig = p.astype(np.int64) + np.rint(lo).astype(np.int64)
    top = sig // 10**8
    bottom = sig - top * 10**8
    groups = np.stack([top // 10**8, top // 10**4 % 10**4, top % 10**4, bottom // 10**4, bottom % 10**4], -1)
    zeros = _TRAILING_ZEROS.take(groups[..., 4])
    for g in (3, 2, 1):
        zeros += (zeros == 16 - 4 * g) * _TRAILING_ZEROS.take(groups[..., g])
    return fixed, 16 - k, _DIGITS4.take(groups).view(np.uint8)[..., 3:], 17 - zeros


def _write_trajectory_csv(path: Path, traj) -> None:
    """The header, then a row per round and agent.  Blocks of whole rounds,
    at most 4096 values or else one round, are laid out in fixed slots, and one
    boolean compress per block keeps the bytes of the rows."""
    rounds, m, n = traj.states.shape
    # a row's first slot: the previous row's newline, t and ",agent", each
    # left-aligned in its own zero-padded field
    wt, wa = len(str(rounds - 1)), len(str(m))
    width, row = wt + wa + 2, wt + wa + 2 + n * _SLOT
    prefix = np.full((m, width), ord(","), np.uint8)
    prefix[:, 0] = ord("\n")
    prefix[:, wt + 2 :] = np.arange(1, m + 1).astype(f"S{wa}")[:, None].view(np.uint8)
    per_block = max(1, 4096 // (m * n))
    with path.open("wb") as out:
        out.write(("t,agent," + ",".join(f"comp_{c + 1}" for c in range(n))).encode())
        for start in range(0, rounds, per_block):
            x = traj.states[start : start + per_block]
            fixed, e, digits, count = _fixed_digits(x)
            wide = np.empty((len(x), m, row), np.uint8)
            keep = np.empty(wide.shape, bool)
            wide[..., :width] = prefix
            wide[..., 1 : wt + 1] = np.arange(start, start + len(x)).astype(f"S{wt}")[:, None, None].view(np.uint8)
            keep[..., :width] = wide[..., :width] != 0
            slots = wide[..., width:].reshape(x.shape + (_SLOT,))
            # digit j after the point at byte 9 + j, the point at 9 + E, digits up to E at 8 + j
            slots[..., 9:] = digits
            np.put_along_axis(slots, 9 + e[..., None], ord("."), -1)
            np.copyto(slots[..., 8:25], digits, where=_BEFORE_POINT.take(e + 4).view(bool).reshape(digits.shape))
            negative = x < 0
            slots[..., :8] = _HEADS.take(negative * 5 + np.minimum(e, 0) + 4)[..., None].view(np.uint8)
            keep[..., width:] = _VALUE_MASKS.take((negative * 21 + e + 4) * 17 + count - 1).view(bool)
            for r, a, j in zip(*np.nonzero(~fixed)):
                text = b",%.17g" % x[r, a, j]
                slots[r, a, j, : len(text)] = np.frombuffer(text, np.uint8)
                keep[r, a, width + j * _SLOT : width + (j + 1) * _SLOT] = np.arange(_SLOT) < len(text)
            out.write(wide[keep])
        out.write(b"\n")


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


def _json_number(value: float) -> float | None:
    """value, or None (null) for the inf and nan JSON has no number for."""
    return value if np.isfinite(value) else None


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
    summary = {
        "algorithm": name,
        "steps_run": traj.steps_run,
        "final_consensus_error": _json_number(traj.final_consensus_error),
        "final_residual": _json_number(traj.final_residual),
        "converged": traj.converged,
        "spectral": spectral_counts(name, w),
    }
    text = json.dumps(summary, indent=2)
    out = _out_dir(args, data)
    out.mkdir(parents=True, exist_ok=True)
    _write_trajectory_csv(out / "trajectory.csv", traj)
    (out / "summary.json").write_text(text + "\n")
    print(text)
    return 0


def cmd_analyze(args) -> int:
    data = load_scenario(Path(args.scenario))
    w, _, algorithm, _ = _resolve(data, Path(args.scenario).parent)
    _require(data, "algorithm")
    name, _, settings = algorithm
    if name == "metropolis_tv":
        reports = []
        for k, sub in enumerate(settings["schedule"].subgraphs):
            rep = spectral_report(reported_matrix(name, w, sub), w.n)
            reports.append({"subgraph": k, **rep.to_json()})
        payload = {"algorithm": name, "per_subgraph": reports}
    else:
        rep = spectral_report(reported_matrix(name, w), w.n)
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
