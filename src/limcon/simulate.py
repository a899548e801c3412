"""Synchronous-round engines for the consensus iterations, Metropolis
weights, time-varying schedules, and spectral diagnostics.

Every engine advances the whole network one round at a time: the t+1 state
of each agent depends only on round-t states.  Each round map is one
`RoundOperator`, applied matrix-free per arc (differences first), so
exact-consensus states are exact fixed points; `build_update_matrix` asks the
same operator for the equivalent dense round map for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import DirectedGraph, _integer, is_directed_cycle, is_symmetric
from .linalg import matrix_rank, mixed_norm_2_inf, numerical_rank
from .wellconfig import WeightedNeighborGraph

# A run counts as converged after this many consecutive rounds below tolerance.
CONSENSUS_TOL = 1e-9
CONSENSUS_STREAK = 10

ALGORITHMS = ("gradient", "fixed_step", "metropolis_tv", "cycle_projection", "general_projection")
# spectral_report counts an eigenvalue within this of 1 (or 0) as at 1 (or 0).
EIG_COUNT_TOL = 1e-8


def _finite_above(value: float, name: str, least: float | None = None) -> float:
    """value itself if it is finite and positive (or, given least, at least
    least); otherwise a ValueError naming the parameter and the value."""
    if not ((value > 0 if least is None else value >= least) and value < np.inf):  # false for NaN too
        raise ValueError(f"{name} must be {'positive' if least is None else f'>= {least:g}'} and finite, got {value}")
    return value


@dataclass(frozen=True)
class StepsizeSchedule:
    """Stepsize sequence for the gradient iteration."""

    kind: str  # "harmonic" | "constant" | "scripted"
    a: float = 0.0
    b: float = 0.0
    value: float = 0.0
    values: tuple[float, ...] = ()

    @classmethod
    def harmonic(cls, a: float = 1.0, b: float = 2.0) -> "StepsizeSchedule":
        # a/(t+b) with a>0, b>=1 sums to infinity while its squares converge
        return cls("harmonic", a=_finite_above(a, "a"), b=_finite_above(b, "b", least=1.0))

    @classmethod
    def constant(cls, value: float) -> "StepsizeSchedule":
        return cls("constant", value=_finite_above(value, "value"))

    @classmethod
    def scripted(cls, values) -> "StepsizeSchedule":
        values = tuple(_finite_above(float(v), f"values[{k}]") for k, v in enumerate(values))
        if not values:
            raise ValueError("values must not be empty")
        return cls("scripted", values=values)

    def alpha(self, t: int) -> float:
        if self.kind == "harmonic":
            return self.a / (t + self.b)
        if self.kind == "constant":
            return self.value
        if t >= len(self.values):
            raise ValueError(f"stepsize script of length {len(self.values)} exhausted at round {t}")
        return self.values[t]


@dataclass(frozen=True)
class Schedule:
    """Which symmetric spanning subgraph is active each round: subgraphs[script[t]]
    if there is a script, else the subgraphs in turn.  A fixed schedule is a
    periodic one with a single subgraph."""

    subgraphs: tuple[DirectedGraph, ...]
    script: tuple[int, ...] | None = None

    @classmethod
    def fixed(cls, sub: DirectedGraph) -> "Schedule":
        return cls((sub,))

    @classmethod
    def periodic(cls, subgraphs) -> "Schedule":
        subgraphs = tuple(subgraphs)
        if not subgraphs:
            raise ValueError("periodic schedule needs at least one subgraph")
        return cls(subgraphs)

    @classmethod
    def scripted(cls, subgraphs, script) -> "Schedule":
        subgraphs = tuple(subgraphs)
        script = tuple(_integer(s, "schedule script entry") for s in script)
        if any(s < 0 or s >= len(subgraphs) for s in script):
            raise ValueError("script indices out of range")
        return cls(subgraphs, script)

    def index_at(self, t: int) -> int:
        if self.script is None:
            return t % len(self.subgraphs)
        if t >= len(self.script):
            raise ValueError(f"schedule script of length {len(self.script)} exhausted at round {t}")
        return self.script[t]

    def arc_weights(self, base: DirectedGraph) -> np.ndarray:
        """The (len(subgraphs), d) table of Metropolis weights: row k holds
        1 / (1 + max(d_i, d_j)), degrees counted in scheduled graph k, on each
        of base's arcs (canonical order) that graph has, and 0 on the others.

        Symmetric in the arc direction, and every agent's weights in a row sum
        to strictly less than one.  Raises unless every scheduled graph is a
        symmetric spanning subgraph of base.
        """
        table = np.zeros((len(self.subgraphs), base.d))
        for k, sub in enumerate(self.subgraphs):
            # base's lookup needs ends in its range, so the vertex counts go first
            at = base.arc_indices(sub.arc_ends) if sub.m == base.m else None
            if at is None or (at < 0).any():
                raise ValueError(f"scheduled graph {k} is not a spanning subgraph of the base graph")
            if not is_symmetric(sub):
                raise ValueError(f"scheduled graph {k} is not symmetric")
            tails, heads = sub.arc_ends.T
            degree = np.bincount(heads, minlength=base.m)
            table[k, at] = 1.0 / (1.0 + np.maximum(degree[heads], degree[tails]))
        return table


@dataclass
class Trajectory:
    """Recorded run: stacked states and per-round consensus errors, with the
    residuals under its weights computed on first read.  It does not name
    the engine that made it; the caller knows which one it ran."""

    states: np.ndarray  # (rounds+1, m, n)
    consensus_errors: np.ndarray
    converged: bool
    steps_run: int
    weights: WeightedNeighborGraph = field(repr=False)

    @cached_property
    def residuals(self) -> np.ndarray:
        tails, heads = self.weights.graph.arc_ends.T
        c = self.weights.padded_weights()
        return np.array([_agreement_residual(c, heads, tails, x) for x in self.states])

    @property
    def final_consensus_error(self) -> float:
        return float(self.consensus_errors[-1])

    @property
    def final_residual(self) -> float:
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan after a diverging run
            return local_agreement_residual(self.weights, self.states[-1])


def consensus_error(x) -> float:
    """max_i ||x_i - mean||_2 over the agents, for x the (m, n) state; a
    finite x whose squares overflow is measured at scale 2^-600."""
    return _unsquared(_spread, np.asarray(x, dtype=float))


def _spread(x: np.ndarray) -> float:
    # the reductions of x.mean and np.linalg.norm, without their call overhead
    d = x - np.add.reduce(x, axis=0) / x.shape[0]
    return math.sqrt(np.add.reduce(d * d, axis=1).max())


def _unsquared(norm, x: np.ndarray) -> float:
    """norm(x), a norm that squares the differences of x.  A finite x whose
    squares overflow, past about 1e154, is measured at scale 2^-600."""
    with np.errstate(over="ignore"):
        value = norm(x)
    if not math.isfinite(value) and np.isfinite(x).all():
        return norm(x * 2.0**-600) * 2.0**600
    return value


def _agreement_residual(c: np.ndarray, heads: np.ndarray, tails: np.ndarray, x: np.ndarray) -> float:
    # norm of the stacked C_k (x_i - x_j); the Gram form sqrt(diff' P_k diff) loses half the digits near zero
    return _unsquared(lambda y: float(np.linalg.norm(np.matmul(c, (y[heads] - y[tails])[:, :, None]))), x)


def local_agreement_residual(w: WeightedNeighborGraph, x) -> float:
    """||C Jbar' x||_2: zero iff every transmitted view of the state agrees."""
    tails, heads = w.graph.arc_ends.T
    state = np.asarray(x, dtype=float).reshape(w.m, w.n)
    return _agreement_residual(w.padded_weights(), heads, tails, state)


def _coerce_state(x0, m: int, n: int) -> np.ndarray:
    x = np.asarray(x0, dtype=float)
    if x.shape == (m * n,):
        x = x.reshape(m, n)
    if x.shape != (m, n):
        raise ValueError(f"initial state must have shape ({m}, {n}) or ({m * n},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("initial state must be finite")
    return x.copy()


def _require_symmetric(g: DirectedGraph, what: str) -> None:
    if not is_symmetric(g):
        raise ValueError(f"{what} is defined for symmetric graphs")


def _damping(g: DirectedGraph, half: bool) -> np.ndarray:
    return 1.0 / ((2.0 if half else 1.0) * (np.bincount(g.arc_ends[:, 1], minlength=g.m) + 1))


class RoundOperator:
    """One round x -> x - Delta x of the (m, n) state, held per arc in
    canonical order: arc k from tail j to head i pulls u_k = P_k (x_i - x_j)
    with its (n, n) block, then the head moves by -head_scale[k] u_k and the
    tail by -tail_scale[k] u_k (not at all if tail_scale is None).  `delta`
    is one gather of both arc ends, one einsum pull and one bincount scatter,
    O(d n^2 + m n) per round; `dense` assembles the same map as an mn x mn
    matrix.
    """

    def __init__(self, m: int, heads, tails, blocks, head_scale, tail_scale=None):
        self.m = m
        self.n = blocks.shape[-1]
        self.heads, self.tails, self.blocks = heads, tails, blocks
        self._ends = np.concatenate([heads, tails])  # one gather takes both ends
        if tail_scale is None:
            self._movers, scales = heads[None], head_scale[None]
        else:
            self._movers, scales = np.stack([heads, tails]), np.stack([head_scale, tail_scale])
        # (sides, d, n): each arc's scale repeated over its n entries, so a
        # round's scaling is one flat multiply instead of a broadcast
        self._scales = np.repeat(scales[:, :, None], self.n, axis=2)
        self._slots = (self._movers[:, :, None] * self.n + np.arange(self.n)).ravel()

    @classmethod
    def from_weights(cls, w: WeightedNeighborGraph, agent_scale, two_sided=True, arc_weights=None):
        """Blocks arc_weights[k] C_k'C_k on w's arcs, leaving out the arcs of
        weight 0 if arc_weights is given.

        The move of agent v is scaled by agent_scale[v] (a scalar applies to
        every agent); a two-sided round moves the tail by the opposite sign.
        """
        tails, heads = w.graph.arc_ends.T
        c = w.padded_weights()
        blocks = np.matmul(c.transpose(0, 2, 1), c)
        if arc_weights is not None:
            blocks *= arc_weights[:, None, None]
            keep = arc_weights != 0
            heads, tails, blocks = heads[keep], tails[keep], blocks[keep]
        scale = np.broadcast_to(np.asarray(agent_scale, dtype=float), (w.m,))
        return cls(w.m, heads, tails, blocks, scale[heads], -scale[tails] if two_sided else None)

    def delta(self, x: np.ndarray) -> np.ndarray:
        ends = x.take(self._ends, 0)
        diff = ends[: len(self.heads)]
        diff -= ends[len(self.heads) :]
        # one C loop over the arcs; a batched matmul dispatches to BLAS per arc
        pulled = np.einsum("kij,kj->ki", self.blocks, diff)
        moves = (self._scales * pulled).ravel()
        return np.bincount(self._slots, weights=moves, minlength=self.m * self.n).reshape(self.m, self.n)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x - self.delta(x)

    def delta_matrix(self) -> np.ndarray:
        """Delta as a dense mn x mn matrix, O((mn)^2 + d n^2)."""
        m, n = self.m, self.n
        out = np.zeros((m, m, n, n))
        moved = self._scales[:, :, :1, None] * self.blocks  # (sides, d, n, n)
        np.add.at(out, (self._movers, self.heads), moved)
        np.add.at(out, (self._movers, self.tails), -moved)
        return out.transpose(0, 2, 1, 3).reshape(m * n, m * n)

    def dense(self) -> np.ndarray:
        """The round map I - Delta as a dense mn x mn matrix."""
        return np.eye(self.m * self.n) - self.delta_matrix()


def _round_operator(algorithm: str, wn: WeightedNeighborGraph, subgraph: DirectedGraph | None = None) -> RoundOperator:
    """The fixed round map of an algorithm, on normalized weights; raises for a
    name without one, such as the gradient's."""
    g = wn.graph
    if algorithm == "fixed_step":
        _require_symmetric(g, "the fixed-step iteration")
        return RoundOperator.from_weights(wn, _damping(g, half=True))
    if algorithm == "metropolis_tv":
        _require_symmetric(g, "the Metropolis iteration")
        weights = Schedule.fixed(g if subgraph is None else subgraph).arc_weights(g)[0]
        return RoundOperator.from_weights(wn, 0.5, arc_weights=weights)
    if algorithm == "cycle_projection" and not is_directed_cycle(g):
        raise ValueError("cycle projection requires a directed cycle")
    if algorithm in ("cycle_projection", "general_projection"):
        return RoundOperator.from_weights(wn, _damping(g, half=False), two_sided=False)
    raise ValueError(f"no fixed round matrix for algorithm {algorithm!r}")


def _consensus_errors(states: np.ndarray) -> list[float]:
    """consensus_error(x) of each state x in the (k, m, n) stack, bit for
    bit, from one stacked reduction."""
    d = states - (np.add.reduce(states, axis=1) / states.shape[1])[:, None]
    errors = np.sqrt(np.add.reduce(d * d, axis=2).max(axis=1))
    out = errors.tolist()
    for k in np.flatnonzero(~np.isfinite(errors)):
        out[k] = consensus_error(states[k])
    return out


def _run(w: WeightedNeighborGraph, x0, steps: int, step) -> Trajectory:
    """Rounds x <- step(t, x) from x0 until `steps` or a consensus streak.

    The streak grows by at most one a round, so with it at s the run needs at
    least CONSENSUS_STREAK - s more rounds to stop: those rounds run as one
    block, whose consensus errors come from one stacked reduction.  No round
    is taken past the one a test after every round would stop at.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    x = _coerce_state(x0, w.m, w.n)
    states = [x]
    errors = [consensus_error(x)]
    streak = 1 if errors[0] < CONSENSUS_TOL else 0
    # a diverging run overflows to inf and nan, which its trajectory records
    with np.errstate(over="ignore", invalid="ignore"):
        while streak < CONSENSUS_STREAK and len(states) <= steps:
            start = len(states) - 1
            for t in range(start, min(start + CONSENSUS_STREAK - streak, steps)):
                x = step(t, x)
                states.append(x)
            for err in _consensus_errors(np.stack(states[start + 1 :])):
                errors.append(err)
                streak = streak + 1 if err < CONSENSUS_TOL else 0
    return Trajectory(
        states=np.stack(states),
        consensus_errors=np.array(errors),
        converged=streak >= CONSENSUS_STREAK,
        steps_run=len(states) - 1,
        weights=w,
    )


def run_gradient(
    w: WeightedNeighborGraph,
    x0,
    steps: int,
    stepsize: StepsizeSchedule | None = None,
) -> Trajectory:
    """Diminishing-step descent of ||C Jbar' x||^2 on a symmetric graph:
    x(t+1) = x(t) - alpha(t) Jbar C'C Jbar' x(t), on the raw weights."""
    _require_symmetric(w.graph, "the gradient iteration")
    stepsize = stepsize or StepsizeSchedule.harmonic()
    op = RoundOperator.from_weights(w, 1.0)
    return _run(w, x0, steps, lambda t, x: x - stepsize.alpha(t) * op.delta(x))


def run_fixed_step(w: WeightedNeighborGraph, x0, steps: int) -> Trajectory:
    """Fully distributed fixed-step iteration on a symmetric graph:
    x(t+1) = (I - Dbar Jbar C'C Jbar') x(t) with per-agent damping
    1/(2(d_i+1)) and row-orthonormalized weights."""
    op = _round_operator("fixed_step", w.normalized())
    return _run(w, x0, steps, lambda t, x: op.apply(x))


def run_metropolis_tv(w: WeightedNeighborGraph, x0, schedule: Schedule, steps: int) -> Trajectory:
    """Time-varying Metropolis iteration over scheduled symmetric spanning
    subgraphs: x(t+1) = (I - 1/2 Jbar(t) C' Wbar(t) C Jbar'(t)) x(t)."""
    _require_symmetric(w.graph, "the Metropolis iteration")
    table = schedule.arc_weights(w.graph)
    if schedule.script is not None and steps > len(schedule.script):
        raise ValueError(f"schedule script covers {len(schedule.script)} rounds, requested {steps}")
    wn = w.normalized()
    ops = [RoundOperator.from_weights(wn, 0.5, arc_weights=weights) for weights in table]
    return _run(w, x0, steps, lambda t, x: ops[schedule.index_at(t)].apply(x))


def run_cycle_projection(w: WeightedNeighborGraph, x0, steps: int, project_init: bool = False) -> Trajectory:
    """Directed-cycle iteration x_i(t+1) = x_i(t) - 1/2 P_i (x_i(t) - x_pred(t)),
    with P_i the projection for the arc into i.

    With project_init, each x_i(0) is first replaced by P_i x_i(0); the run
    then reaches consensus whether or not the cycle is well-configured.
    """
    wn = w.normalized()
    op = _round_operator("cycle_projection", wn)
    state = _coerce_state(x0, w.m, w.n)
    if project_init:
        for j, i in w.graph.arcs:
            c = wn.weight((j, i))
            state[i - 1] = c.T @ (c @ state[i - 1])
    return _run(w, state, steps, lambda t, x: op.apply(x))


def run_general_projection(w: WeightedNeighborGraph, x0, steps: int) -> Trajectory:
    """Projection iteration on any directed graph:
    x_i(t+1) = x_i(t) - 1/(d_i+1) sum_j P_ji (x_i(t) - x_j(t)).

    No convergence guarantee: the round map can have non-consensus fixed
    points even on well-configured graphs.
    """
    op = _round_operator("general_projection", w.normalized())
    return _run(w, x0, steps, lambda t, x: op.apply(x))


def build_update_matrix(
    algorithm: str,
    w: WeightedNeighborGraph,
    subgraph: DirectedGraph | None = None,
) -> np.ndarray:
    """The dense mn x mn linear map applied each round.

    Assembled from the same round operator the run uses.  The gradient
    iteration has no fixed round map (its stepsize varies), so it raises, as
    any other name without one does.
    """
    return _round_operator(algorithm, w.normalized(), subgraph).dense()


def stacked_laplacian(w: WeightedNeighborGraph) -> np.ndarray:
    """Jbar C'C Jbar', the positive-semidefinite map whose quadratic form is
    ||C Jbar' x||^2; its kernel is the local-agreement set."""
    return RoundOperator.from_weights(w, 1.0).delta_matrix()


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalue bookkeeping for a round map or quadratic-form matrix.

    ones/zeros/inside_unit/outside partition the spectrum by modulus at the
    counting tolerance; paracontracting is only decided for symmetric input.
    The mixed norm and the fixed-space dimension are computed on first
    access, so a caller that reads only the counts pays for neither; the
    report keeps the matrix, which must not change meanwhile.
    """

    eigenvalues: np.ndarray
    ones: int
    zeros: int
    inside_unit: int
    outside: int
    symmetric: bool
    paracontracting: bool | None
    degenerate: bool
    matrix: np.ndarray = field(repr=False)
    block: int

    @cached_property
    def mixed_norm(self) -> float:
        return mixed_norm_2_inf(self.matrix, self.block)

    @cached_property
    def one_eigenspace_dim(self) -> int:
        """Dimension of the fixed space, the nullity of A - I at RANK_RTOL,
        never cut below A's own roundoff, size * eps * ||A||.

        A symmetric A - I has the singular values |lambda - 1| of A's own
        eigenvalues, so their count above the cut-off is its rank and no
        second factorization is needed; any other A takes the rank of A - I.
        """
        size = self.matrix.shape[0]
        unit = size * np.finfo(float).eps
        if self.symmetric:
            floor = unit * np.abs(self.eigenvalues).max(initial=0.0)
            return size - numerical_rank(np.sort(np.abs(self.eigenvalues - 1.0))[::-1], floor)
        return size - matrix_rank(self.matrix - np.eye(size), unit * np.linalg.norm(self.matrix))

    def summary_dict(self) -> dict:
        return {
            "ones": self.ones,
            "zeros": self.zeros,
            "inside_unit": self.inside_unit,
            "outside": self.outside,
        }

    def to_json(self) -> dict:
        out = self.summary_dict()
        out.update(
            symmetric=self.symmetric,
            paracontracting=self.paracontracting,
            mixed_norm=self.mixed_norm,
            one_eigenspace_dim=self.one_eigenspace_dim,
            degenerate=self.degenerate,
            eigenvalues_real=np.real(self.eigenvalues).tolist(),
            eigenvalues_imag=np.imag(self.eigenvalues).tolist(),
        )
        return out


def spectral_report(mat: np.ndarray, n: int) -> SpectralReport:
    """Count eigenvalues at 1, at 0, strictly inside the unit circle, and
    everything else, plus the paracontraction verdict; the mixed norm over
    n-blocks and the fixed-space dimension follow on demand."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("spectral report needs a square matrix")
    # one pass; a non-finite entry makes a NaN or inf difference, so such a
    # matrix is never symmetric and eigvals refuses it
    with np.errstate(invalid="ignore"):
        symmetric = bool(np.abs(mat - mat.T).max(initial=0.0) <= 1e-12)
    eig = np.linalg.eigvalsh(mat) if symmetric else np.linalg.eigvals(mat)
    modulus = np.abs(eig)
    at_one = np.abs(eig - 1.0) <= EIG_COUNT_TOL
    at_zero = modulus <= EIG_COUNT_TOL
    inside = (modulus < 1.0 - EIG_COUNT_TOL) & ~at_one & ~at_zero
    ones = int(np.sum(at_one))
    zeros = int(np.sum(at_zero))
    inside_unit = int(np.sum(inside))
    outside = int(eig.size - ones - zeros - inside_unit)
    paracontracting: bool | None = None
    if symmetric:
        paracontracting = bool(np.all(eig > -1.0 + EIG_COUNT_TOL) and np.all(eig <= 1.0 + EIG_COUNT_TOL))
    return SpectralReport(
        eigenvalues=eig,
        ones=ones,
        zeros=zeros,
        inside_unit=inside_unit,
        outside=outside,
        symmetric=symmetric,
        paracontracting=paracontracting,
        degenerate=ones == eig.size,
        matrix=mat,
        block=n,
    )
