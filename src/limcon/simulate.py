"""Synchronous-round engines for the consensus iterations, Metropolis
weights, time-varying schedules, and spectral diagnostics.

Every engine advances the whole network one round at a time: the t+1 state
of each agent depends only on round-t states.  Each round map is one
`RoundOperator`, applied matrix-free per arc (differences first), so
exact-consensus states are exact fixed points; `build_update_matrix` asks the
same operator for the equivalent dense round map for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import DirectedGraph, is_directed_cycle, is_symmetric
from .linalg import matrix_rank, mixed_norm_2_inf
from .wellconfig import WeightedNeighborGraph

# A run counts as converged after this many consecutive rounds below tolerance.
CONSENSUS_TOL = 1e-9
CONSENSUS_STREAK = 10

ALGORITHMS = ("gradient", "fixed_step", "metropolis_tv", "cycle_projection", "general_projection")
EIG_COUNT_TOL = 1e-8


def metropolis_weights(g: DirectedGraph) -> dict[tuple[int, int], float]:
    """Per-arc weights 1 / (1 + max(d_i, d_j)) on a symmetric graph.

    Symmetric in the arc direction, and every agent's weights sum to
    strictly less than one.
    """
    if not is_symmetric(g):
        raise ValueError("Metropolis weights are defined for symmetric graphs")
    return {(j, i): 1.0 / (1.0 + max(g.degree(i), g.degree(j))) for j, i in g.arcs}


def spanning_weight_matrix(g: DirectedGraph, sub: DirectedGraph) -> np.ndarray:
    """d x d diagonal of sub's Metropolis weights, indexed by g's arc order;
    arcs of g absent from sub get zero."""
    if not sub.is_spanning_subgraph_of(g):
        raise ValueError("sub must be a spanning subgraph of g")
    if not is_symmetric(sub):
        raise ValueError("spanning weight matrix needs a symmetric subgraph")
    weights = metropolis_weights(sub)
    diag = np.array([weights.get(arc, 0.0) for arc in g.arcs])
    return np.diag(diag)


@dataclass(frozen=True)
class StepsizeSchedule:
    """Stepsize sequence for the gradient iteration."""

    kind: str  # "harmonic" | "constant" | "scripted"
    a: float = 1.0
    b: float = 2.0
    value: float = 0.0
    values: tuple[float, ...] = ()

    @classmethod
    def harmonic(cls, a: float = 1.0, b: float = 2.0) -> "StepsizeSchedule":
        # a/(t+b) with a>0, b>=1 sums to infinity while its squares converge.
        if a <= 0 or b < 1:
            raise ValueError("harmonic stepsize needs a > 0 and b >= 1")
        return cls("harmonic", a=a, b=b)

    @classmethod
    def constant(cls, value: float) -> "StepsizeSchedule":
        if value <= 0:
            raise ValueError("constant stepsize must be positive")
        return cls("constant", value=value)

    @classmethod
    def scripted(cls, values) -> "StepsizeSchedule":
        values = tuple(float(v) for v in values)
        if not values or any(v <= 0 for v in values):
            raise ValueError("scripted stepsizes must be positive")
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
    """Which symmetric spanning subgraph is active each round."""

    mode: str  # "fixed" | "periodic" | "scripted"
    subgraphs: tuple[DirectedGraph, ...]
    script: tuple[int, ...] | None = None

    @classmethod
    def fixed(cls, sub: DirectedGraph) -> "Schedule":
        return cls("fixed", (sub,))

    @classmethod
    def periodic(cls, subgraphs) -> "Schedule":
        subgraphs = tuple(subgraphs)
        if not subgraphs:
            raise ValueError("periodic schedule needs at least one subgraph")
        return cls("periodic", subgraphs)

    @classmethod
    def scripted(cls, subgraphs, script) -> "Schedule":
        subgraphs = tuple(subgraphs)
        script = tuple(int(s) for s in script)
        if any(s < 0 or s >= len(subgraphs) for s in script):
            raise ValueError("script indices out of range")
        return cls("scripted", subgraphs, script)

    def index_at(self, t: int) -> int:
        if self.mode == "fixed":
            return 0
        if self.mode == "periodic":
            return t % len(self.subgraphs)
        assert self.script is not None
        if t >= len(self.script):
            raise ValueError(f"schedule script of length {len(self.script)} exhausted at round {t}")
        return self.script[t]

    def graph_at(self, t: int) -> DirectedGraph:
        return self.subgraphs[self.index_at(t)]

    def validate_for(self, base: DirectedGraph) -> None:
        for k, sub in enumerate(self.subgraphs):
            if not sub.is_spanning_subgraph_of(base):
                raise ValueError(f"scheduled graph {k} is not a spanning subgraph of the base graph")
            if not is_symmetric(sub):
                raise ValueError(f"scheduled graph {k} is not symmetric")


@dataclass
class Trajectory:
    """Recorded run: stacked states per round plus per-round metrics."""

    algorithm: str
    states: np.ndarray  # (rounds+1, m, n)
    consensus_errors: np.ndarray
    residuals: np.ndarray
    converged: bool
    steps_run: int

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_consensus_error(self) -> float:
        return float(self.consensus_errors[-1])

    @property
    def final_residual(self) -> float:
        return float(self.residuals[-1])


def consensus_error(x, n: int | None = None) -> float:
    """max_i ||x_i - mean||_2 over the agents."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if n is None:
            raise ValueError("flat states need the per-agent dimension n")
        x = x.reshape(-1, n)
    return float(np.max(np.linalg.norm(x - x.mean(axis=0), axis=1)))


def _arc_ends(g: DirectedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Zero-based head and tail agents of the arcs, in canonical order."""
    ends = np.array(g.arcs, dtype=np.intp).reshape(g.d, 2) - 1
    return ends[:, 1], ends[:, 0]


def _agreement_residual(c: np.ndarray, heads: np.ndarray, tails: np.ndarray, x: np.ndarray) -> float:
    # norm of the stacked C_k (x_i - x_j); the Gram form sqrt(diff' P_k diff) loses half the digits near zero
    return float(np.linalg.norm(np.matmul(c, (x[heads] - x[tails])[:, :, None])))


def local_agreement_residual(w: WeightedNeighborGraph, x) -> float:
    """||C Jbar' x||_2: zero iff every transmitted view of the state agrees."""
    heads, tails = _arc_ends(w.graph)
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
    return np.array([1.0 / ((2.0 if half else 1.0) * (g.degree(i) + 1)) for i in range(1, g.m + 1)])


class RoundOperator:
    """One round x -> x - Delta x of the (m, n) state, held per arc in
    canonical order: arc k from tail j to head i pulls u_k = P_k (x_i - x_j)
    with its (n, n) block, then the head moves by -head_scale[k] u_k and the
    tail by -tail_scale[k] u_k (not at all if tail_scale is None).  `delta`
    is one gather, one batched matmul and one bincount scatter, O(d n^2 + m n)
    per round; `dense` assembles the same map as an mn x mn matrix.
    """

    def __init__(self, m: int, heads, tails, blocks, head_scale, tail_scale=None):
        self.m = m
        self.n = blocks.shape[-1]
        self.heads, self.tails, self.blocks = heads, tails, blocks
        self.head_scale, self.tail_scale = head_scale, tail_scale
        if tail_scale is None:
            self._movers, scales = heads[None], head_scale[None]
        else:
            self._movers, scales = np.stack([heads, tails]), np.stack([head_scale, tail_scale])
        self._scales = scales[:, :, None]  # (sides, d, 1)
        self._slots = (self._movers[:, :, None] * self.n + np.arange(self.n)).ravel()

    @classmethod
    def from_weights(cls, w: WeightedNeighborGraph, agent_scale, two_sided=True, sub=None, arc_weights=None):
        """Blocks arc_weights[k] C_k'C_k on w's arcs, only those of sub if given.

        The move of agent v is scaled by agent_scale[v] (a scalar applies to
        every agent); a two-sided round moves the tail by the opposite sign.
        """
        if sub is not None and not sub.is_spanning_subgraph_of(w.graph):
            raise ValueError("sub must be a spanning subgraph of g")
        heads, tails = _arc_ends(w.graph)
        c = w.padded_weights()
        blocks = np.matmul(c.transpose(0, 2, 1), c)
        if arc_weights is not None:
            blocks *= arc_weights[:, None, None]
        if sub is not None:
            keep = np.array([sub.has_arc(arc) for arc in w.graph.arcs], dtype=bool)
            heads, tails, blocks = heads[keep], tails[keep], blocks[keep]
        scale = np.broadcast_to(np.asarray(agent_scale, dtype=float), (w.m,))
        return cls(w.m, heads, tails, blocks, scale[heads], -scale[tails] if two_sided else None)

    def delta(self, x: np.ndarray) -> np.ndarray:
        pulled = np.matmul(self.blocks, (x[self.heads] - x[self.tails])[:, :, None])[:, :, 0]
        moves = (self._scales * pulled).ravel()
        return np.bincount(self._slots, weights=moves, minlength=self.m * self.n).reshape(self.m, self.n)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x - self.delta(x)

    def delta_matrix(self) -> np.ndarray:
        """Delta as a dense mn x mn matrix, O((mn)^2 + d n^2)."""
        m, n = self.m, self.n
        out = np.zeros((m, m, n, n))
        moved = self._scales[..., None] * self.blocks  # (sides, d, n, n)
        np.add.at(out, (self._movers, self.heads), moved)
        np.add.at(out, (self._movers, self.tails), -moved)
        return out.transpose(0, 2, 1, 3).reshape(m * n, m * n)

    def dense(self) -> np.ndarray:
        """The round map I - Delta as a dense mn x mn matrix."""
        return np.eye(self.m * self.n) - self.delta_matrix()


def _round_operator(algorithm: str, wn: WeightedNeighborGraph, subgraph: DirectedGraph | None = None) -> RoundOperator:
    """The fixed round map of an algorithm, on normalized weights."""
    g = wn.graph
    if algorithm == "fixed_step":
        _require_symmetric(g, "the fixed-step iteration")
        return RoundOperator.from_weights(wn, _damping(g, half=True))
    if algorithm == "metropolis_tv":
        _require_symmetric(g, "the Metropolis iteration")
        sub = g if subgraph is None else subgraph
        weights = metropolis_weights(sub)
        arc_weights = np.array([weights.get(arc, 0.0) for arc in g.arcs])
        return RoundOperator.from_weights(wn, 0.5, sub=sub, arc_weights=arc_weights)
    if algorithm == "cycle_projection" and not is_directed_cycle(g):
        raise ValueError("cycle projection requires a directed cycle")
    return RoundOperator.from_weights(wn, _damping(g, half=False), two_sided=False)


def _run(w: WeightedNeighborGraph, x0, steps: int, step, algorithm: str) -> Trajectory:
    """Rounds x <- step(t, x) from x0 until `steps` or a consensus streak."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    x = _coerce_state(x0, w.m, w.n)
    heads, tails = _arc_ends(w.graph)
    c = w.padded_weights()
    states = [x]
    errors = [consensus_error(x)]
    residuals = [_agreement_residual(c, heads, tails, x)]
    streak = 1 if errors[0] < CONSENSUS_TOL else 0
    converged = streak >= CONSENSUS_STREAK
    for t in range(steps):
        if converged:
            break
        x = step(t, x)
        states.append(x)
        err = consensus_error(x)
        errors.append(err)
        residuals.append(_agreement_residual(c, heads, tails, x))
        streak = streak + 1 if err < CONSENSUS_TOL else 0
        converged = streak >= CONSENSUS_STREAK
    return Trajectory(
        algorithm=algorithm,
        states=np.stack(states),
        consensus_errors=np.array(errors),
        residuals=np.array(residuals),
        converged=converged,
        steps_run=len(states) - 1,
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
    return _run(w, x0, steps, lambda t, x: x - stepsize.alpha(t) * op.delta(x), "gradient")


def run_fixed_step(w: WeightedNeighborGraph, x0, steps: int) -> Trajectory:
    """Fully distributed fixed-step iteration on a symmetric graph:
    x(t+1) = (I - Dbar Jbar C'C Jbar') x(t) with per-agent damping
    1/(2(d_i+1)) and row-orthonormalized weights."""
    op = _round_operator("fixed_step", w.normalized())
    return _run(w, x0, steps, lambda t, x: op.apply(x), "fixed_step")


def run_metropolis_tv(w: WeightedNeighborGraph, x0, schedule: Schedule, steps: int) -> Trajectory:
    """Time-varying Metropolis iteration over scheduled symmetric spanning
    subgraphs: x(t+1) = (I - 1/2 Jbar(t) C' Wbar(t) C Jbar'(t)) x(t)."""
    _require_symmetric(w.graph, "the Metropolis iteration")
    schedule.validate_for(w.graph)
    if schedule.mode == "scripted" and schedule.script is not None and steps > len(schedule.script):
        raise ValueError(f"schedule script covers {len(schedule.script)} rounds, requested {steps}")
    wn = w.normalized()
    ops: dict[int, RoundOperator] = {}

    def step(t, x):
        idx = schedule.index_at(t)
        if idx not in ops:
            ops[idx] = _round_operator("metropolis_tv", wn, schedule.subgraphs[idx])
        return ops[idx].apply(x)

    return _run(w, x0, steps, step, "metropolis_tv")


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
    return _run(w, state, steps, lambda t, x: op.apply(x), "cycle_projection")


def run_general_projection(w: WeightedNeighborGraph, x0, steps: int) -> Trajectory:
    """Projection iteration on any directed graph:
    x_i(t+1) = x_i(t) - 1/(d_i+1) sum_j P_ji (x_i(t) - x_j(t)).

    No convergence guarantee: the round map can have non-consensus fixed
    points even on well-configured graphs.
    """
    op = _round_operator("general_projection", w.normalized())
    return _run(w, x0, steps, lambda t, x: op.apply(x), "general_projection")


def build_update_matrix(
    algorithm: str,
    w: WeightedNeighborGraph,
    subgraph: DirectedGraph | None = None,
) -> np.ndarray:
    """The dense mn x mn linear map applied each round.

    Assembled from the same round operator the run uses.  The gradient
    iteration has no fixed round map (its stepsize varies), so it is not
    listed here.
    """
    if algorithm not in ("fixed_step", "metropolis_tv", "cycle_projection", "general_projection"):
        raise ValueError(f"no fixed round matrix for algorithm {algorithm!r}")
    return _round_operator(algorithm, w.normalized(), subgraph).dense()


def stacked_laplacian(
    w: WeightedNeighborGraph,
    subgraph: DirectedGraph | None = None,
    arc_weights: np.ndarray | None = None,
    normalized: bool = False,
) -> np.ndarray:
    """Jbar C' W C Jbar' for the given (sub)graph and per-arc scalars.

    With no options this is the positive-semidefinite map whose quadratic
    form is ||C Jbar' x||^2; its kernel is the local-agreement set.
    """
    if arc_weights is not None:
        arc_weights = np.asarray(arc_weights, dtype=float)
        if arc_weights.shape != (w.graph.d,):
            raise ValueError(f"arc_weights must have shape ({w.graph.d},)")
    wn = w.normalized() if normalized else w
    return RoundOperator.from_weights(wn, 1.0, sub=subgraph, arc_weights=arc_weights).delta_matrix()


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalue bookkeeping for a round map or quadratic-form matrix.

    ones/zeros/inside_unit/outside partition the spectrum by modulus at the
    counting tolerance; paracontracting is only decided for symmetric input.
    """

    eigenvalues: np.ndarray
    ones: int
    zeros: int
    inside_unit: int
    outside: int
    symmetric: bool
    paracontracting: bool | None
    mixed_norm: float
    one_eigenspace_dim: int
    degenerate: bool

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
            eigenvalues_real=[float(v) for v in np.real(self.eigenvalues)],
            eigenvalues_imag=[float(v) for v in np.imag(self.eigenvalues)],
        )
        return out


def spectral_report(mat: np.ndarray, n: int, tol: float = EIG_COUNT_TOL) -> SpectralReport:
    """Count eigenvalues at 1, at 0, strictly inside the unit circle, and
    everything else, plus the paracontraction verdict and mixed norm."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("spectral report needs a square matrix")
    symmetric = bool(np.allclose(mat, mat.T, atol=1e-12, rtol=0.0))
    eig = np.linalg.eigvalsh(mat) if symmetric else np.linalg.eigvals(mat)
    modulus = np.abs(eig)
    at_one = np.abs(eig - 1.0) <= tol
    at_zero = modulus <= tol
    inside = (modulus < 1.0 - tol) & ~at_one & ~at_zero
    ones = int(np.sum(at_one))
    zeros = int(np.sum(at_zero))
    inside_unit = int(np.sum(inside))
    outside = int(eig.size - ones - zeros - inside_unit)
    paracontracting: bool | None = None
    if symmetric:
        paracontracting = bool(np.min(eig) > -1.0 + tol and np.max(eig) <= 1.0 + tol)
    return SpectralReport(
        eigenvalues=eig,
        ones=ones,
        zeros=zeros,
        inside_unit=inside_unit,
        outside=outside,
        symmetric=symmetric,
        paracontracting=paracontracting,
        mixed_norm=mixed_norm_2_inf(mat, n),
        one_eigenspace_dim=mat.shape[0] - matrix_rank(mat - np.eye(mat.shape[0])),
        degenerate=ones == eig.size,
    )
