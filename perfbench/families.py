"""Seeded scenario generators for the three graph families.

Each generator writes plain limcon scenario files into a directory and
returns a `Workload`: the file paths the CLI is pointed at, plus what the
independent checks need to know (graph, weights, initial state, schedule,
and for the planted twin the cut and kernel direction).  Nothing here calls
limcon; the program only ever sees the written files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

Arc = tuple[int, int]

# Exact sizes; README.md records them with the reasons.
RING_M, RING_N, RING_STEPS = 100, 3, 120
DIGRAPH_M, DIGRAPH_N, DIGRAPH_EXTRA, DIGRAPH_STEPS = 60, 4, 120, 200
COMPLETE_M, COMPLETE_N, COMPLETE_SUBGRAPHS, COMPLETE_STEPS = 16, 3, 3, 6000
SCHEDULE_SEED = 0

FAMILIES = ("ring", "digraph", "complete")
SYMMETRIC_SYNTHESIS = {"synthesize": {"mode": "free", "symmetric": True}}
DIRECTED_SYNTHESIS = {"synthesize": {"mode": "free", "symmetric": False}}


@dataclass
class Workload:
    """Generated inputs of one family and what the checks need about them."""

    family: str
    m: int
    n: int
    arcs: list[Arc]
    synth: Path  # scenario for `limcon synth` (weights.synthesize)
    verify: list[tuple[Path, bool]]  # scenario, expected verdict
    run: Path  # scenario for `limcon run` and `limcon analyze`
    algorithm: str
    steps: int
    init_seed: int
    # explicit weights per scenario path, for the scenarios that carry them
    explicit: dict[Path, dict[Arc, np.ndarray]] = field(default_factory=dict)
    subgraphs: list[list[Arc]] = field(default_factory=list)  # metropolis_tv schedule
    planted_cut: list[int] = field(default_factory=list)  # vertices on one side
    planted_direction: np.ndarray | None = None


def _symmetric(pairs) -> list[Arc]:
    return [arc for a, b in pairs for arc in ((a, b), (b, a))]


def _scenario(m: int, n: int, arcs, weights: dict, algorithm: dict | None, init_seed: int | None) -> dict:
    out = {"schema_version": 1, "graph": {"m": m, "arcs": [list(a) for a in arcs]}, "n": n, "weights": weights}
    if algorithm is not None:
        out["algorithm"] = algorithm
    if init_seed is not None:
        out["initial_state"] = {"random": {"seed": init_seed}}
    return out


def _explicit(table: dict[Arc, np.ndarray]) -> dict:
    return {"explicit": [{"j": j, "i": i, "C": c.tolist()} for (j, i), c in table.items()]}


def _write(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data) + "\n")
    return path


def ring(seed: int, out: Path) -> Workload:
    """Symmetric cycle: girth m, one symmetric ear, fixed-step rounds."""
    rng = np.random.default_rng([seed, 1])
    m, n = RING_M, RING_N
    arcs = _symmetric((v, v % m + 1) for v in range(1, m + 1))
    init_seed = int(rng.integers(2**31))
    algorithm = {"name": "fixed_step", "steps": RING_STEPS}
    path = _write(out / "ring.json", _scenario(m, n, arcs, SYMMETRIC_SYNTHESIS, algorithm, init_seed))
    directed = _write(out / "ring_directed.json", _scenario(m, n, arcs, DIRECTED_SYNTHESIS, None, None))
    return Workload(
        "ring", m, n, arcs, path, [(path, True), (directed, True)], path, "fixed_step", RING_STEPS, init_seed
    )


def _generic_weight(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n - 1, n))


def digraph(seed: int, out: Path) -> Workload:
    """Random strongly connected digraph with two explicit-weight twins.

    The yes twin gives every arc a generic rank-(n-1) weight.  The no twin
    equals it except on the arcs crossing the cut (S, rest): there the weight
    annihilates one shared direction v, so the state "v on S, 0 elsewhere"
    agrees locally without being consensus.
    """
    rng = np.random.default_rng([seed, 2])
    m, n = DIGRAPH_M, DIGRAPH_N
    perm = [int(v) for v in rng.permutation(np.arange(1, m + 1))]
    arcs = {(perm[k], perm[(k + 1) % m]) for k in range(m)}
    while len(arcs) < m + DIGRAPH_EXTRA:
        j, i = (int(v) for v in rng.integers(1, m + 1, size=2))
        if j != i:
            arcs.add((j, i))
    arcs = sorted(arcs, key=lambda a: (a[1], a[0]))
    yes = {arc: _generic_weight(rng, n) for arc in arcs}
    side = {int(v) for v in rng.choice(np.arange(1, m + 1), size=m // 2, replace=False)}
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    annihilate = np.eye(n) - np.outer(v, v)
    no = {arc: (c @ annihilate if (arc[0] in side) != (arc[1] in side) else c) for arc, c in yes.items()}
    init_seed = int(rng.integers(2**31))
    run_algo = {"name": "general_projection", "steps": DIGRAPH_STEPS}
    synth = _write(out / "digraph_synth.json", _scenario(m, n, arcs, DIRECTED_SYNTHESIS, None, None))
    closure = sorted(set(arcs) | {(i, j) for j, i in arcs}, key=lambda a: (a[1], a[0]))
    closure_path = _write(out / "digraph_closure.json", _scenario(m, n, closure, SYMMETRIC_SYNTHESIS, None, None))
    yes_path = _write(out / "digraph_yes.json", _scenario(m, n, arcs, _explicit(yes), run_algo, init_seed))
    no_path = _write(out / "digraph_no.json", _scenario(m, n, arcs, _explicit(no), None, None))
    return Workload(
        "digraph", m, n, arcs, synth, [(yes_path, True), (no_path, False), (closure_path, True)], yes_path,
        "general_projection", DIGRAPH_STEPS, init_seed,
        explicit={yes_path: yes, no_path: no},
        planted_cut=sorted(side),
        planted_direction=v,
    )


def complete(seed: int, out: Path) -> Workload:
    """Complete symmetric graph run by time-varying Metropolis rounds.

    Each scheduled subgraph is the ring 1-2-..-m-1 plus a random share of the
    remaining pairs; every pair lands in exactly one subgraph, so together
    they cover the whole graph.  The shares come from SCHEDULE_SEED, not from
    `seed`: the partition sets the rounds to consensus (and so run_s) with a
    spread of 0.18 over seeds, against 0.04 from the initial state alone.
    """
    rng = np.random.default_rng([seed, 3])
    shares_rng = np.random.default_rng([SCHEDULE_SEED, 3])
    m, n = COMPLETE_M, COMPLETE_N
    pairs = [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)]
    ring_pairs = {(min(v, v % m + 1), max(v, v % m + 1)) for v in range(1, m + 1)}
    shares = [sorted(ring_pairs) for _ in range(COMPLETE_SUBGRAPHS)]
    for pair in pairs:
        if pair not in ring_pairs:
            shares[int(shares_rng.integers(COMPLETE_SUBGRAPHS))].append(pair)
    subgraphs = [_symmetric(sorted(s)) for s in shares]
    arcs = _symmetric(pairs)
    init_seed = int(rng.integers(2**31))
    algorithm = {
        "name": "metropolis_tv",
        "steps": COMPLETE_STEPS,
        "schedule": {"mode": "periodic", "subgraphs": [[list(a) for a in sub] for sub in subgraphs]},
    }
    path = _write(out / "complete.json", _scenario(m, n, arcs, SYMMETRIC_SYNTHESIS, algorithm, init_seed))
    directed = _write(out / "complete_directed.json", _scenario(m, n, arcs, DIRECTED_SYNTHESIS, None, None))
    return Workload(
        "complete", m, n, arcs, path, [(path, True), (directed, True)], path, "metropolis_tv", COMPLETE_STEPS, init_seed,
        subgraphs=subgraphs,
    )


def generate(family: str, seed: int, out: Path) -> Workload:
    out.mkdir(parents=True, exist_ok=True)
    return {"ring": ring, "digraph": digraph, "complete": complete}[family](seed, out)
