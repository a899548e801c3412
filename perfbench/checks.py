"""Correctness checks that do not trust limcon.

Everything here is the benchmark's own arithmetic on plain numpy arrays:
agreement rows assembled per arc, per-agent copies of each round formula,
and reads of the files and JSON the CLI wrote.  Each check returns a list of
failure messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import io

import numpy as np

REPLAY_TOL = 1e-12
REPLAYED_ROUNDS = 6


def agreement_rows(m: int, n: int, weights: dict) -> np.ndarray:
    """Rows C_k (x_i - x_j) for every arc k = (j, i), over the stacked state."""
    blocks = []
    for (j, i), c in weights.items():
        block = np.zeros((c.shape[0], m * n))
        block[:, (i - 1) * n : i * n] = c
        block[:, (j - 1) * n : j * n] -= c
        blocks.append(block)
    return np.vstack(blocks)


def nullity(m: int, n: int, weights: dict) -> int:
    return m * n - int(np.linalg.matrix_rank(agreement_rows(m, n, weights)))


def weights_table(doc: dict) -> dict:
    """{arc: C} from a weights.json document."""
    return {(int(e["j"]), int(e["i"])): np.atleast_2d(np.asarray(e["C"], dtype=float)) for e in doc["arcs"]}


def read_trajectory(text: str, m: int, n: int) -> np.ndarray:
    lines = text.splitlines()
    expected = "t,agent," + ",".join(f"comp_{c + 1}" for c in range(n))
    if lines[0] != expected:
        raise ValueError(f"trajectory header {lines[0]!r}, expected {expected!r}")
    table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    rounds = table.shape[0] // m
    t = np.repeat(np.arange(rounds), m)
    agent = np.tile(np.arange(1, m + 1), rounds)
    if table.shape != (rounds * m, n + 2) or not (np.array_equal(table[:, 0], t) and np.array_equal(table[:, 1], agent)):
        raise ValueError("trajectory rows are not ordered by round, then agent")
    return table[:, 2:].reshape(rounds, m, n)


def _projector(c: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(c) @ c


def _in_degree(arcs) -> dict[int, int]:
    deg: dict[int, int] = {}
    for _, i in arcs:
        deg[i] = deg.get(i, 0) + 1
    return deg


def _two_sided(x: np.ndarray, v: int, arcs, proj, scale) -> np.ndarray:
    # sum over arcs touching v of scale(arc) * P_arc (x_v - x_other)
    acc = np.zeros(x.shape[1])
    for j, i in arcs:
        if i == v:
            acc += scale[(j, i)] * (proj[(j, i)] @ (x[v - 1] - x[j - 1]))
        elif j == v:
            acc += scale[(j, i)] * (proj[(j, i)] @ (x[v - 1] - x[i - 1]))
    return acc


def fixed_step_round(x, arcs, proj, t):
    """x_v - 1/(2(d_v+1)) * sum over arcs at v of P (x_v - x_other)."""
    deg = _in_degree(arcs)
    ones = {arc: 1.0 for arc in arcs}
    return np.array([x[v - 1] - _two_sided(x, v, arcs, proj, ones) / (2.0 * (deg[v] + 1)) for v in range(1, len(x) + 1)])


def metropolis_round(x, subgraphs, proj, t):
    """x_v - 1/2 * sum over arcs of S(t) at v of w P (x_v - x_other),
    w = 1 / (1 + max(d_i, d_j)) by degrees within S(t)."""
    sub = subgraphs[t % len(subgraphs)]
    deg = _in_degree(sub)
    weight = {(j, i): 1.0 / (1.0 + max(deg[i], deg[j])) for j, i in sub}
    return np.array([x[v - 1] - 0.5 * _two_sided(x, v, sub, proj, weight) for v in range(1, len(x) + 1)])


def projection_round(x, arcs, proj, t):
    """x_v - 1/(d_v+1) * sum over in-arcs (j, v) of P (x_v - x_j)."""
    deg = _in_degree(arcs)
    out = x.copy()
    for j, i in arcs:
        out[i - 1] -= proj[(j, i)] @ (x[i - 1] - x[j - 1]) / (deg[i] + 1)
    return out


def replay(states: np.ndarray, step, graph_arg, weights: dict, rng) -> list[str]:
    """Recompute sampled rounds agent by agent and compare with the file."""
    proj = {arc: _projector(c) for arc, c in weights.items()}
    last = states.shape[0] - 1
    if last < 1:
        return ["trajectory has no rounds to replay"]
    sample = sorted({0, last - 1, *(int(t) for t in rng.integers(0, last, size=REPLAYED_ROUNDS - 2))})
    failures = []
    for t in sample:
        mine = step(states[t], graph_arg, proj, t)
        err = float(np.max(np.abs(mine - states[t + 1])))
        if err > REPLAY_TOL * max(1.0, float(np.max(np.abs(states[t])))):
            failures.append(f"round {t}->{t + 1} differs from the replay by {err:.3g}")
    return failures


def consensus_error(x: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(x - x.mean(axis=0), axis=1)))


def witness(m: int, n: int, weights: dict, x: np.ndarray) -> list[str]:
    """x must agree locally on every arc without being consensus."""
    failures = []
    if x.shape != (m, n):
        return [f"witness has shape {x.shape}, expected {(m, n)}"]
    worst = max(float(np.linalg.norm(c @ (x[i - 1] - x[j - 1]))) / max(1.0, float(np.linalg.norm(c))) for (j, i), c in weights.items())
    if worst > 1e-8:
        failures.append(f"witness violates local agreement by {worst:.3g}")
    if not consensus_error(x) > 1e-3 * float(np.linalg.norm(x)):
        failures.append("witness is a consensus state")
    return failures


def spectral(report: dict, size: int, ones: int | None) -> list[str]:
    """Eigenvalue bookkeeping of one analyze report."""
    eig = np.asarray(report["eigenvalues_real"]) + 1j * np.asarray(report["eigenvalues_imag"])
    failures = []
    if eig.size != size:
        failures.append(f"report lists {eig.size} eigenvalues, expected {size}")
    radius = float(np.max(np.abs(eig)))
    if report["mixed_norm"] < radius * (1.0 - 1e-9):
        failures.append(f"mixed norm {report['mixed_norm']} below spectral radius {radius}")
    if report["ones"] + report["zeros"] + report["inside_unit"] + report["outside"] != size:
        failures.append("eigenvalue counts do not add up to the matrix size")
    if ones is not None and report["ones"] != ones:
        failures.append(f"{report['ones']} eigenvalues at 1, expected {ones}")
    return failures
