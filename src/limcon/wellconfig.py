"""Well-configuration: when does local agreement force consensus?

Every arc (j, i) carries a matrix C_ji, and agent i only ever sees C_ji x_j.
The weighted graph is well-configured when the only states with
C_ji x_i = C_ji x_j along every arc are full-consensus states, i.e. when the
kernel of the stacked map C Jbar' is exactly the consensus span.  This module
assembles those stacked matrices, verifies the property two independent ways,
checks the specialized cycle/path criteria, and synthesizes weight matrices
from ear decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .graphs import (
    Arc,
    DirectedGraph,
    EarDecomposition,
    ear_decomposition,
    incidence_matrix,
    is_weakly_connected,
    symmetric_ear_decomposition,
    validate_ear_decomposition,
)
from .linalg import (
    RANK_RTOL,
    block_diag,
    column_space_basis,
    kernel_basis,
    kernel_with_values,
    matrix_rank,
    numerical_rank,
    singular_values,
    subspace_family_independent,
    subspace_intersection,
)

SYNTHESIS_MODES = ("free", "nonzero-kernels")


class InfeasibleSynthesisError(ValueError):
    """Requested nonzero kernels but some ear is longer than the state dim."""


@dataclass(frozen=True, eq=False)
class WeightedNeighborGraph:
    """A directed graph plus one transmit matrix per arc.

    Matrices have n columns; row counts are unconstrained (fewer rows than
    columns means the neighbor's state is not recoverable from the signal).
    """

    graph: DirectedGraph
    n: int
    weights: Mapping[Arc, np.ndarray]
    _normalized: dict = field(default_factory=dict, init=False, repr=False)  # rtol -> normalized()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("state dimension must be >= 1")
        clean: dict[Arc, np.ndarray] = {}
        for raw_arc, mat in self.weights.items():
            arc = (int(raw_arc[0]), int(raw_arc[1]))
            mat = np.atleast_2d(np.asarray(mat, dtype=float)).copy()
            if mat.size == 0:
                mat = np.zeros((0, self.n))  # nothing transmitted on this arc
            if mat.shape[1] != self.n:
                raise ValueError(f"weight for arc {arc} must have {self.n} columns, has {mat.shape[1]}")
            if not np.isfinite(mat).all():
                raise ValueError(f"weight for arc {arc} has non-finite entries")
            mat.flags.writeable = False
            clean[arc] = mat
        missing = set(self.graph.arcs) - clean.keys()
        extra = clean.keys() - set(self.graph.arcs)
        if missing or extra:
            raise ValueError(f"weights must cover the arc set exactly (missing {sorted(missing)}, extra {sorted(extra)})")
        object.__setattr__(self, "weights", clean)

    @property
    def m(self) -> int:
        return self.graph.m

    def weight(self, arc: Arc) -> np.ndarray:
        return self.weights[arc]

    def kernel(self, arc: Arc, rtol: float = RANK_RTOL) -> np.ndarray:
        return kernel_basis(self.weights[arc], rtol)

    def normalized(self, rtol: float = RANK_RTOL) -> "WeightedNeighborGraph":
        """Replace every weight by an orthonormal basis of its row space.

        Kernels are preserved, so the well-configuration verdict is too; the
        algorithms that use projections assume this form.  Weights of one
        shape share one stacked SVD, bit for bit what row_space_basis gives
        on each of them.  The result is kept per rtol, so the engines, the
        dense round maps and the scheduled subgraphs all share one copy (its
        weights are read-only).
        """
        if rtol in self._normalized:
            return self._normalized[rtol]
        by_shape: dict[tuple[int, int], list[Arc]] = {}
        for arc, c in self.weights.items():
            by_shape.setdefault(c.shape, []).append(arc)
        rows: dict[Arc, np.ndarray] = {}
        for (r, _), arcs in by_shape.items():
            if r == 0:
                rows.update((arc, np.zeros((0, self.n))) for arc in arcs)
                continue
            _, s, vh = np.linalg.svd(np.stack([self.weights[arc] for arc in arcs]))
            # an all-zero weight has s[0] = 0 and so rank 0, as in row_space_basis
            ranks = np.sum(s > rtol * s[:, :1], axis=1)
            rows.update((arc, vh[k, : ranks[k]]) for k, arc in enumerate(arcs))
        out = WeightedNeighborGraph(self.graph, self.n, {arc: rows[arc] for arc in self.weights})
        self._normalized[rtol] = out
        return out

    def padded_weights(self) -> np.ndarray:
        """(d, r, n) stack of the weights in canonical arc order, each padded
        with zero rows to the largest row count r."""
        mats = [self.weights[arc] for arc in self.graph.arcs]
        out = np.zeros((len(mats), max((c.shape[0] for c in mats), default=0), self.n))
        for k, c in enumerate(mats):
            out[k, : c.shape[0]] = c
        return out


def identity_weights(g: DirectedGraph, n: int) -> WeightedNeighborGraph:
    """Full-information weights: every arc transmits the whole state."""
    return WeightedNeighborGraph(g, n, {arc: np.eye(n) for arc in g.arcs})


def consensus_span(m: int, n: int) -> np.ndarray:
    """Orthonormal basis of the consensus subspace of R^(mn)."""
    return np.kron(np.ones((m, 1)), np.eye(n)) / np.sqrt(m)


def _resolve_order(w: WeightedNeighborGraph, arc_order) -> tuple[Arc, ...]:
    if arc_order is None:
        return w.graph.arcs
    order = tuple((int(j), int(i)) for j, i in arc_order)
    if sorted(order) != sorted(w.graph.arcs):
        raise ValueError("arc_order must be a permutation of the graph's arcs")
    return order


def stacked_weights(w: WeightedNeighborGraph, arc_order=None) -> np.ndarray:
    """Block-diagonal stack of the per-arc matrices, one block per arc.

    Defaults to canonical arc order; the well-configuration verdict is
    invariant under any consistent reordering.
    """
    order = _resolve_order(w, arc_order)
    return block_diag([w.weights[arc] for arc in order])


def lifted_incidence(g: DirectedGraph, n: int) -> np.ndarray:
    """Incidence matrix lifted blockwise to the n-dimensional state."""
    return np.kron(incidence_matrix(g), np.eye(n))


def lifted_incidence_image(g: DirectedGraph, n: int, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of the image of the lifted incidence transpose.

    That matrix is kron(incidence', I_n), so the Kronecker product of an
    orthonormal basis of image(incidence') with I_n spans its image and is
    orthonormal too.  The SVD behind it has n^2 times fewer entries.
    """
    return np.kron(column_space_basis(incidence_matrix(g).T, rtol), np.eye(n))


def agreement_map(w: WeightedNeighborGraph, arc_order=None) -> np.ndarray:
    """The stacked map whose kernel is the set of local-agreement states.

    Row block k evaluates C_k (x_i - x_j) for the k-th arc (j, i): it holds
    +C_k in agent i's columns and -C_k in agent j's, scattered straight into
    place.  This is C Jbar' entry for entry, without forming either factor.
    """
    order = _resolve_order(w, arc_order)
    n = w.n
    mats = [w.weights[arc] for arc in order]
    counts = [c.shape[0] for c in mats]
    out = np.zeros((sum(counts), w.m * n))
    if len(out):
        rows = np.arange(len(out))[:, None]
        comps = np.arange(n)
        heads = np.repeat([i for _, i in order], counts)[:, None]
        tails = np.repeat([j for j, _ in order], counts)[:, None]
        c = np.concatenate(mats)
        out[rows, (heads - 1) * n + comps] = c
        out[rows, (tails - 1) * n + comps] = -c
    return out


def agreement_kernel(w: WeightedNeighborGraph, rtol: float = RANK_RTOL, arc_order=None) -> np.ndarray:
    """Orthonormal basis of all local-agreement states in R^(mn)."""
    return kernel_basis(agreement_map(w, arc_order), rtol)


@dataclass(frozen=True)
class RankGap:
    """The singular values either side of a rank cut-off, rtol * sigma_max.

    None stands for a value that does not exist: nothing kept (an all-zero
    matrix) or nothing dropped (full rank among the computed values).
    """

    last_kept: float | None
    first_dropped: float | None
    cutoff: float

    MARGIN = 100.0  # a value this close to the cut-off makes the gap narrow

    @classmethod
    def of(cls, s: np.ndarray, rtol: float) -> "RankGap":
        rank = numerical_rank(s, rtol)
        return cls(
            float(s[rank - 1]) if rank else None,
            float(s[rank]) if rank < len(s) else None,
            rtol * float(s[0]) if len(s) else 0.0,
        )

    def narrow(self) -> bool:
        """True when a value on either side lies within a factor MARGIN of the
        cut-off, so a modest change of rtol would change the rank."""
        kept = self.last_kept is not None and self.last_kept < self.MARGIN * self.cutoff
        dropped = self.first_dropped is not None and self.MARGIN * self.first_dropped > self.cutoff
        return kept or dropped

    def to_json(self) -> dict:
        return {"last_kept": self.last_kept, "first_dropped": self.first_dropped, "cutoff": self.cutoff}


@dataclass(frozen=True)
class WellConfigReport:
    well_configured: bool
    kernel_dim: int
    m: int
    n: int
    witness: np.ndarray | None  # (m, n); local agreement without consensus
    rank_gap: RankGap  # around the cut-off of the agreement map's rank

    def __bool__(self) -> bool:
        return self.well_configured

    def to_json(self) -> dict:
        out = {
            "well_configured": self.well_configured,
            "kernel_dim": self.kernel_dim,
            "rank_gap": self.rank_gap.to_json(),
        }
        if self.witness is not None:
            out["witness"] = self.witness.tolist()
        return out


def is_well_configured(w: WeightedNeighborGraph, rtol: float = RANK_RTOL, arc_order=None) -> WellConfigReport:
    """Verdict on whether local agreement forces consensus.

    Compares the local-agreement kernel with the consensus span by dimension
    (consensus states always agree locally, so the kernel contains them).  The
    verdict reads only the singular values of the agreement map.  On failure
    one more SVD, with vectors, gives the kernel, and from the same
    decomposition the kernel dimension and a witness: a unit-norm
    local-agreement state orthogonal to consensus.

    Refuses graphs that are not weakly connected: consensus is impossible
    across components and the overlap formulation would not be equivalent.
    """
    if not is_weakly_connected(w.graph):
        raise ValueError(
            "well-configuration requires a weakly connected graph; "
            "disconnected agents can never be forced to agree"
        )
    amap = agreement_map(w, arc_order)
    s = singular_values(amap)
    dim = amap.shape[1] - numerical_rank(s, rtol)
    if dim != w.n:
        kernel, s = kernel_with_values(amap, rtol)
        dim = kernel.shape[1]
    ok = dim == w.n
    witness = None
    if not ok:
        base = consensus_span(w.m, w.n)
        resid = kernel - base @ (base.T @ kernel)
        norms = np.linalg.norm(resid, axis=0)
        pick = int(np.argmax(norms))
        witness = (resid[:, pick] / norms[pick]).reshape(w.m, w.n)
    return WellConfigReport(ok, dim, w.m, w.n, witness, RankGap.of(s, rtol))


def _stacked_kernel(w: WeightedNeighborGraph, rtol: float) -> np.ndarray:
    """Kernel basis of the block-diagonal stacked weights, built from the
    per-arc kernels.

    The stacked singular values are the union of the per-arc ones, so each
    arc is cut at rtol times the largest singular value over all arcs: the
    same rank decision as one SVD of the whole stacked matrix.
    """
    c = w.padded_weights()
    d, r, n = c.shape
    if r == 0 or not c.any():
        return np.eye(d * n)
    _, s, vh = np.linalg.svd(c)
    ranks = np.sum(s > rtol * s.max(), axis=1)
    return block_diag([vh[k, ranks[k] :].T for k in range(d)])


def disagreement_overlap_dim(w: WeightedNeighborGraph, rtol: float = RANK_RTOL) -> int:
    """Dimension of (image of the lifted incidence transpose) meet (kernel of
    the stacked weights), in per-arc signal space.

    Zero overlap is the second, equivalent formulation of well-configuration
    for weakly connected graphs.
    """
    image = lifted_incidence_image(w.graph, w.n, rtol)
    ker = _stacked_kernel(w, rtol)
    if image.shape[1] == 0 or ker.shape[1] == 0:
        return 0
    total = matrix_rank(np.hstack([image, ker]), rtol)
    return image.shape[1] + ker.shape[1] - total


def is_well_configured_via_overlap(w: WeightedNeighborGraph, rtol: float = RANK_RTOL) -> bool:
    if not is_weakly_connected(w.graph):
        raise ValueError(
            "well-configuration requires a weakly connected graph; "
            "disconnected agents can never be forced to agree"
        )
    return disagreement_overlap_dim(w, rtol) == 0


def cycle_criterion(kernels, rtol: float = RANK_RTOL) -> bool:
    """Directed cycle verdict: well-configured iff the arc kernels form an
    independent family."""
    return subspace_family_independent(kernels, rtol)


def reduced_cycle_criterion(kernels, pinned: set[int], rtol: float = RANK_RTOL) -> bool:
    """Cycle verdict when the arcs at the pinned positions already force
    equality: only the remaining kernels must be independent.

    `pinned` holds indices into `kernels` for arcs whose endpoints are known
    equal; how such a set would be known a priori is up to the caller.
    """
    keep = [k for idx, k in enumerate(kernels) if idx not in pinned]
    return subspace_family_independent(keep, rtol)


def broadcast_pair_criterion(k12, k21, k31, k32, rtol: float = RANK_RTOL) -> bool:
    """Verdict for the two-agents-plus-broadcaster graph with arcs
    (1,2), (2,1), (3,1), (3,2): independence of the intersection of the pair
    kernels together with the two broadcast kernels."""
    return subspace_family_independent([subspace_intersection(k12, k21, rtol), k31, k32], rtol)


def backlinked_cycle_criterion(k1, k2, k3, k4, rtol: float = RANK_RTOL) -> bool:
    """Verdict for the triangle-with-back-arc graph, arcs
    (1,2), (2,3), (3,1), (2,1) carrying kernels k1..k4 in that order."""
    return subspace_family_independent([subspace_intersection(k1, k4, rtol), k2, k3], rtol)


def axis_complement(n: int, axis: int) -> np.ndarray:
    """(n-1) x n orthonormal rows whose kernel is the given coordinate axis."""
    return np.delete(np.eye(n), axis, axis=0)


def synthesize_weights(
    g: DirectedGraph,
    n: int,
    decomposition: EarDecomposition | None = None,
    mode: str = "free",
) -> WeightedNeighborGraph:
    """Construct weights that make a strongly connected graph well-configured.

    Walks an ear decomposition and gives the t-th arc of each ear a
    one-dimensional kernel along coordinate axis t, so the kernels within
    every ear are trivially an independent family.  In "nonzero-kernels" mode
    an ear longer than n is refused; in "free" mode the overflow arcs fall
    back to full-information identity weights.
    """
    return _synthesize(g, n, decomposition, mode, symmetric=False)


def synthesize_symmetric_weights(
    g: DirectedGraph,
    n: int,
    decomposition: EarDecomposition | None = None,
    mode: str = "free",
) -> WeightedNeighborGraph:
    """Like synthesize_weights but with equal matrices in both directions.

    Requires a 2-connected symmetric graph.  Each two-length cycle of a
    symmetric ear gets one kernel axis, shared by both of its arcs; the s-th
    pair of an ear with more than n pairs is refused in "nonzero-kernels"
    mode and padded with identities in "free" mode.
    """
    return _synthesize(g, n, decomposition, mode, symmetric=True)


def _synthesize(
    g: DirectedGraph, n: int, decomposition: EarDecomposition | None, mode: str, symmetric: bool
) -> WeightedNeighborGraph:
    # One kernel axis per slot of an ear: an arc, or in a symmetric ear a
    # two-length cycle, whose arcs sit side by side in the ear.
    if mode not in SYNTHESIS_MODES:
        raise ValueError(f"mode must be one of {SYNTHESIS_MODES}, got {mode!r}")
    if decomposition is None:
        decomposition = symmetric_ear_decomposition(g) if symmetric else ear_decomposition(g)
    elif decomposition.symmetric != symmetric:
        raise ValueError(
            "synthesize_symmetric_weights needs a symmetric decomposition"
            if symmetric
            else "got a symmetric decomposition; use synthesize_symmetric_weights"
        )
    else:
        validate_ear_decomposition(g, decomposition)
    width = 2 if symmetric else 1
    axes = [axis_complement(n, s) for s in range(n)]  # the weights copy them
    weights: dict[Arc, np.ndarray] = {}
    for ear in decomposition.ears:
        slots = ear.length // width
        if mode == "nonzero-kernels" and slots > n:
            what = f"symmetric ear with {slots} two-length cycles" if symmetric else f"ear of length {slots}"
            raise InfeasibleSynthesisError(
                f"{what} exceeds state dimension {n}; nonzero kernels require max ear length <= n"
            )
        for t, arc in enumerate(ear.arcs):
            weights[arc] = axes[t // width] if t < n * width else np.eye(n)
    return WeightedNeighborGraph(g, n, weights)


def weights_to_json(w: WeightedNeighborGraph) -> dict:
    """Serialize as {m, n, arcs: [{j, i, C}]} in canonical arc order."""
    return {
        "m": w.m,
        "n": w.n,
        "arcs": [
            {"j": j, "i": i, "C": [list(row) for row in w.weights[(j, i)]]}
            for j, i in w.graph.arcs
        ],
    }


def _check_keys(obj: dict, keys: set[str], what: str) -> None:
    for problem, found in (("unknown", set(obj) - keys), ("missing", keys - set(obj))):
        if found:
            raise ValueError(f"{problem} {what} keys: {sorted(found)}")


def weights_from_json(data: dict) -> WeightedNeighborGraph:
    _check_keys(data, {"m", "n", "arcs"}, "weight-file")
    arcs = []
    weights = {}
    for entry in data["arcs"]:
        _check_keys(entry, {"j", "i", "C"}, "arc")
        arc = (int(entry["j"]), int(entry["i"]))
        arcs.append(arc)
        weights[arc] = np.asarray(entry["C"], dtype=float)
    graph = DirectedGraph(int(data["m"]), tuple(arcs))
    return WeightedNeighborGraph(graph, int(data["n"]), weights)
