"""Well-configuration: when does local agreement force consensus?

Every arc (j, i) carries a matrix C_ji, and agent i only ever sees C_ji x_j.
The weighted graph is well-configured when the only states with
C_ji x_i = C_ji x_j along every arc are full-consensus states, i.e. when the
kernel of the stacked map C Jbar' is exactly the consensus span.  This module
builds that agreement map, verifies the property two independent ways (its
rank, and the overlap of the incidence image with the kernel of the stacked
weights), decides the paper's cycle and three-agent criteria by the ear
rule, synthesizes weight matrices from ear decompositions, and reads and
writes weight files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .graphs import (
    MAX_VERTICES,
    Arc,
    DirectedGraph,
    EarDecomposition,
    _array,
    _check_keys,
    _component_labels,
    _expect,
    _incidence,
    _vertex,
    backlinked_cycle_graph,
    broadcast_pair_graph,
    directed_cycle,
    ear_decomposition,
    is_weakly_connected,
    symmetric_closure,
    symmetric_ear_decomposition,
    validate_ear_decomposition,
)
from .linalg import (
    RANK_RTOL,
    kernel_basis,
    singular_values,
)

SYNTHESIS_MODES = ("free", "nonzero-kernels")


class InfeasibleSynthesisError(ValueError):
    """Requested nonzero kernels but some ear is longer than the state dim."""


@dataclass(frozen=True, eq=False)
class WeightedNeighborGraph:
    """A directed graph plus one transmit matrix per arc.

    Matrices have n columns; row counts are unconstrained (fewer rows than
    columns means the neighbor's state is not recoverable from the signal).
    An arc that transmits nothing takes a (0, n) array or the empty list
    that weights_to_json writes for it; any other empty weight is refused.
    The weights are stored once: `rows` stacks every arc's rows in canonical
    arc order and `row_counts` holds each arc's row count, both read-only,
    and `weights` is a read-only mapping of per-arc views into `rows`.  The
    constructor validates every weight in one pass.
    """

    graph: DirectedGraph
    n: int
    weights: Mapping[Arc, np.ndarray]
    rows: np.ndarray = field(init=False, repr=False)  # (total rows, n)
    row_counts: np.ndarray = field(init=False, repr=False)  # (d,)
    _row_starts: np.ndarray = field(init=False, repr=False)  # (d,) each arc's first row in rows
    _normalized: WeightedNeighborGraph | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("state dimension must be >= 1")
        arcs, given = self.graph.arcs, self.weights
        if len(given) != len(arcs) or not all(arc in given for arc in arcs):
            keys = {(int(arc[0]), int(arc[1])) for arc in given}
            missing, extra = sorted(set(arcs) - keys), sorted(keys - set(arcs))
            raise ValueError(f"weights must cover the arc set exactly (missing {missing}, extra {extra})")
        mats = []
        for arc in arcs:
            mat = np.asarray(given[arc], dtype=float)
            mat = np.zeros((0, self.n)) if mat.shape == (0,) else np.atleast_2d(mat)  # [] transmits nothing
            if mat.ndim != 2:
                raise ValueError(f"weight for arc {arc} must be a matrix, has shape {mat.shape}")
            if mat.shape[1] != self.n:
                raise ValueError(f"weight for arc {arc} must have {self.n} columns, has {mat.shape[1]}")
            mats.append(mat)
        counts = np.fromiter((len(mat) for mat in mats), dtype=np.intp, count=len(mats))
        stops = np.cumsum(counts)
        rows = np.concatenate([np.zeros((0, self.n)), *mats])
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            bad = arcs[np.searchsorted(stops, np.argmin(finite), side="right")]
            raise ValueError(f"weight for arc {bad} has non-finite entries")
        starts = stops - counts
        rows.flags.writeable = counts.flags.writeable = starts.flags.writeable = False
        views = {arc: rows[start:stop] for arc, start, stop in zip(arcs, starts.tolist(), stops.tolist())}
        object.__setattr__(self, "weights", MappingProxyType(views))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "row_counts", counts)
        object.__setattr__(self, "_row_starts", starts)

    @property
    def m(self) -> int:
        return self.graph.m

    def weight(self, arc: Arc) -> np.ndarray:
        return self.weights[arc]

    def kernel(self, arc: Arc) -> np.ndarray:
        return kernel_basis(self.weights[arc])

    def normalized(self) -> "WeightedNeighborGraph":
        """Replace every weight by an orthonormal basis of its row space.

        Kernels are preserved, so the well-configuration verdict is too; the
        algorithms that use projections assume this form.  The arcs with one
        row count share one stacked SVD per distinct weight, gathered from
        `rows`, bit for bit what a separate SVD of each gives: the right
        singular vectors above RANK_RTOL times its own largest singular
        value.  Arcs without rows keep their empty weight.  The result is
        kept, so the engines, the dense round maps and the scheduled
        subgraphs all share one copy.
        """
        if self._normalized is None:
            counts = self.row_counts
            bases = dict(self.weights)
            for r in set(counts.tolist()) - {0}:
                group = np.flatnonzero(counts == r)
                _, s, vh = _svd_of_distinct(self.rows[self._row_starts[group, None] + np.arange(r)])
                # an all-zero weight has s[0] = 0 and so rank 0
                ranks = np.sum(s > RANK_RTOL * s[:, :1], axis=1)
                bases.update((self.graph.arcs[k], vh[t, : ranks[t]]) for t, k in enumerate(group.tolist()))
            object.__setattr__(self, "_normalized", WeightedNeighborGraph(self.graph, self.n, bases))
        return self._normalized

    def padded_weights(self) -> np.ndarray:
        """(d, r, n) stack of the weights in canonical arc order, each padded
        with zero rows to the largest row count r."""
        d = self.graph.d
        return _stack_rows(self, np.arange(d), np.zeros(d, dtype=np.intp), d)


def _stack_rows(w: WeightedNeighborGraph, slot: np.ndarray, start: np.ndarray, slots: int) -> np.ndarray:
    """(slots, r, n) zeros with the k-th arc's weight (canonical order) in
    slot[k] from row start[k] on; r is the deepest row reached."""
    counts = w.row_counts
    out = np.zeros((slots, int((start + counts).max(initial=0)), w.n))
    arc = np.repeat(np.arange(len(counts)), counts)
    out[slot[arc], start[arc] + np.arange(len(arc)) - w._row_starts[arc]] = w.rows
    return out


def identity_weights(g: DirectedGraph, n: int) -> WeightedNeighborGraph:
    """Full-information weights: every arc transmits the whole state."""
    return WeightedNeighborGraph(g, n, {arc: np.eye(n) for arc in g.arcs})


def _resolve_order(w: WeightedNeighborGraph, arc_order) -> np.ndarray:
    """Canonical indices of the arcs in arc_order, by default all in order."""
    if arc_order is None:
        return np.arange(w.graph.d)
    order = tuple((int(j), int(i)) for j, i in arc_order)
    if sorted(order) != sorted(w.graph.arcs):
        raise ValueError("arc_order must be a permutation of the graph's arcs")
    return w.graph.arc_indices(np.subtract(order, 1).reshape(-1, 2))


def agreement_map(w: WeightedNeighborGraph, arc_order=None, labels=None) -> np.ndarray:
    """The stacked map whose kernel is the set of local-agreement states.

    Row block k evaluates C_k (x_i - x_j) for the k-th arc (j, i): it holds
    +C_k in agent i's columns and -C_k in agent j's, scattered straight into
    place.  This is C Jbar' entry for entry, without forming either factor.

    With labels, one component index per agent counted from 0 (by default
    each agent its own), it is the quotient map on states that are equal
    within each component: an agent's columns are its component's, and an
    arc inside one component, whose row block would be zero, is left out.
    """
    arcs = _resolve_order(w, arc_order)
    n = w.n
    labels = np.arange(w.m) if labels is None else np.asarray(labels)
    ends = labels[w.graph.arc_ends[arcs]]  # (tail, head)
    cross = ends[:, 0] != ends[:, 1]
    arcs, ends = arcs[cross], ends[cross]
    width = int(labels.max()) + 1
    counts = w.row_counts[arcs]
    # row t of the k-th arc in arcs is row t of its block in w.rows
    shift = w._row_starts[arcs] - (np.cumsum(counts) - counts)
    c = w.rows[np.repeat(shift, counts) + np.arange(counts.sum())]
    out = np.zeros((len(c), width * n))
    rows = np.arange(len(out))[:, None]
    comps = np.arange(n)
    tails, heads = (np.repeat(end, counts)[:, None] for end in ends.T)
    out[rows, heads * n + comps] = c
    out[rows, tails * n + comps] = -c
    return out


@dataclass(frozen=True)
class RankGap:
    """The values either side of a rank cut-off.

    None stands for a value that does not exist: nothing kept (an all-zero
    matrix) or nothing dropped (full rank among the computed values).
    """

    last_kept: float | None
    first_dropped: float | None
    cutoff: float

    MARGIN = 100.0  # a value this close to the cut-off makes the gap narrow

    @classmethod
    def at(cls, values: np.ndarray, cutoff: float) -> "RankGap":
        """The smallest of values above cutoff and the largest at or below."""
        kept = values[values > cutoff]
        dropped = values[values <= cutoff]
        return cls(
            float(kept.min()) if kept.size else None,
            float(dropped.max()) if dropped.size else None,
            float(cutoff),
        )

    def margin(self) -> float:
        """The factor between the cut-off and the nearer value on either side
        (inf when neither side has a nonzero value near a nonzero cut-off)."""
        kept = self.last_kept / self.cutoff if self.last_kept is not None and self.cutoff > 0 else np.inf
        dropped = self.cutoff / self.first_dropped if self.first_dropped else np.inf
        return min(kept, dropped)

    def narrow(self) -> bool:
        """True when a value on either side lies within a factor MARGIN of the
        cut-off, so a modest change of rtol would change the rank."""
        return self.margin() < self.MARGIN

    def to_json(self) -> dict:
        return {"last_kept": self.last_kept, "first_dropped": self.first_dropped, "cutoff": self.cutoff}


@dataclass(frozen=True)
class WellConfigReport:
    well_configured: bool
    kernel_dim: int
    witness: np.ndarray | None  # (m, n); local agreement without consensus
    # around the cut-off rtol * sigma*: of the quotient map's rank, or of the
    # pair contraction when that cut is narrower
    rank_gap: RankGap

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


def _require_weakly_connected(g: DirectedGraph) -> None:
    if not is_weakly_connected(g):
        raise ValueError(
            "well-configuration requires a weakly connected graph; "
            "disconnected agents can never be forced to agree"
        )


def _svd_of_distinct(stacks: np.ndarray, compute_uv: bool = True):
    """np.linalg.svd of the (slots, r, n) stacks, bit for bit, taken once per
    distinct slot: slots holding the same bytes share one decomposition, and
    synthesized weights repeat a few blocks over many arcs."""
    slots, r, n = stacks.shape
    # each slot's bytes as one key, after a zero column so that an empty slot has bytes too
    keys = np.zeros((slots, 1 + r * n))
    keys[:, 1:] = stacks.reshape(slots, r * n)
    rows = keys.view(np.dtype((np.void, keys.strides[0])))
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    out = np.linalg.svd(stacks[first], compute_uv=compute_uv)
    if not compute_uv:
        return out[inverse.ravel()]
    return tuple(part[inverse.ravel()] for part in out)


def _pair_stacks(w: WeightedNeighborGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per adjacent pair, by lead arc: its canonical index, each arc's pair, and the
    zero-padded (pairs, r, n) stacks [C_ab; C_ba] (one arc's rows if the other is absent)."""
    lead = w.graph.pair_lead
    is_lead = lead == np.arange(len(lead))
    first = np.flatnonzero(is_lead)
    slot = np.searchsorted(first, lead)
    start = np.where(is_lead, 0, w.row_counts[lead])  # a back arc's rows go below its lead's
    return first, slot, _stack_rows(w, slot, start, len(first))


def _pair_values(w: WeightedNeighborGraph) -> tuple[np.ndarray, np.ndarray, float]:
    """Zero-based ends of each unordered adjacent pair {a, b}, and per pair
    sqrt(2) times the n-th singular value of its stack [C_ab; C_ba] (0 with
    fewer than n rows), plus sqrt(2) times the largest singular value over
    all pairs.

    Up to row signs, the pair's rows of the agreement map hold the stack in
    b's columns and its negative in a's, so their singular values are
    sqrt(2) times the stack's.  The distinct stacks share one SVD without
    vectors.
    """
    first, slot, stack = _pair_stacks(w)
    rows = np.bincount(slot, weights=w.row_counts, minlength=len(first))
    s = np.sqrt(2.0) * _svd_of_distinct(stack, compute_uv=False)
    smallest = s[:, w.n - 1] if s.shape[1] >= w.n else np.zeros(len(first))
    return w.graph.arc_ends[first], np.where(rows >= w.n, smallest, 0.0), float(s.max(initial=0.0))


def is_well_configured(w: WeightedNeighborGraph, rtol: float = RANK_RTOL, arc_order=None) -> WellConfigReport:
    """Verdict on whether local agreement forces consensus.

    Compares the local-agreement kernel with the consensus span by dimension
    (consensus states always agree locally, so the kernel contains them).
    First the pairs that alone force their ends equal are contracted: those
    whose stack [C_ab; C_ba] has full column rank, judged at the cut-off
    tau = rtol * sigma*, for sigma* the largest singular value any pair
    contributes to the agreement map.  The verdict then reads the singular
    values of the quotient agreement map, over one state per component,
    cut at the same tau.  On failure one more SVD with vectors, of the
    quotient map or of its square R factor when the map is tall, gives its
    kernel, and from the same decomposition the kernel dimension and a
    witness: a unit-norm local-agreement state orthogonal to consensus.
    arc_order orders the quotient map's rows.

    Refuses graphs that are not weakly connected: consensus is impossible
    across components and the overlap formulation would not be equivalent.
    """
    _require_weakly_connected(w.graph)
    n = w.n
    pairs, smallest, sigma = _pair_values(w)
    tau = rtol * sigma
    labels = _component_labels(w.m, pairs[smallest > tau])
    amap = agreement_map(w, arc_order, labels)
    s = singular_values(amap)
    dim = amap.shape[1] - int(np.sum(s > tau))
    witness = None
    if dim != n:
        # a tall map has the singular values and vectors of its square R factor
        r = np.linalg.qr(amap, mode="r") if len(amap) > amap.shape[1] else amap
        _, s, vh = np.linalg.svd(r, full_matrices=len(r) < r.shape[1])
        kernel = vh[int(np.sum(s > tau)) :].T
        dim = kernel.shape[1]
        if dim != n:
            # per agent its component's state, less the consensus part
            states = kernel.reshape(-1, n, dim)[labels]
            resid = states - states.mean(axis=0)
            norms = np.linalg.norm(resid, axis=(0, 1))
            pick = int(np.argmax(norms))
            witness = resid[:, :, pick] / norms[pick]
    # the quotient map's gap, unless the contraction cut is strictly narrower
    gap = min(RankGap.at(s, tau), RankGap.at(smallest, tau), key=RankGap.margin)
    return WellConfigReport(dim == n, dim, witness, gap)


def _kernels(stacks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each slot's kernel from one SVD of the (slots, r, n) stacks per distinct
    slot, cut at RANK_RTOL times the largest singular value over all slots: vh,
    and the (slots, n) mask of the rows of vh[k] past slot k's rank, which span
    it.  The other rows of vh[k] span slot k's row space."""
    _, s, vh = _svd_of_distinct(stacks)
    return vh, np.arange(stacks.shape[2]) >= np.sum(s > RANK_RTOL * s.max(initial=0.0), axis=1)[:, None]


def disagreement_overlap_dim(w: WeightedNeighborGraph) -> int:
    """Dimension of (image of the lifted incidence transpose) meet (kernel of
    the stacked weights), in per-arc signal space.

    Zero overlap is the second, equivalent formulation of well-configuration
    for weakly connected graphs.  Each arc's kernel comes from one batched
    SVD of the stacked per-arc weights (one per distinct weight), cut at
    RANK_RTOL times the largest singular value over all arcs: the stacked
    singular values are the union of the per-arc ones, so this is the rank
    decision of one SVD of the whole stacked matrix.  _proves_by_ears shares
    these kernels.

    An arc whose kernel is empty forces its signal x_i - x_j to zero, so its
    ends are contracted: agents joined by such arcs form one component, and
    the overlap of w is the overlap of the quotient multigraph, whose arcs
    are those between two components, each kept as its own block with its
    own kernel.  Parallel and antiparallel arcs stay separate, so the
    contraction reads only the kernels above and makes no rank decision of
    its own.  (The primary verdict contracts by a different rule: the pairs
    whose stack [C_ab; C_ba] has full column rank.)  Where no arc contracts,
    the quotient is the graph itself.

    The image has the orthonormal basis Q (x) I_n, for Q the QR basis of the
    quotient's incidence transpose less the first component of each weak
    component: its columns sum to zero, so the rest span the image
    independently, and Q is exactly r = c' - c wide for c' components and c
    weak components, without a rank decision.  The kernel is block diagonal,
    one orthonormal block K_k per kept arc, kappa columns in all.  The
    overlap is the count of principal angles at zero between them: the
    singular values of (I - bb')a, for a the narrower basis and b the other,
    are the sines, and the width of a less the count of sines above
    RANK_RTOL is the overlap.  The cut is absolute, since the orthonormal
    bases fix the scale.

    (I - bb')a is never formed.  It is an orthonormal basis times a smaller
    matrix with the same sines, assembled from the factors of the d' kept
    arcs, never from the d'n-row bases:
    - kernel narrower: I - QQ' = NN', for N the last d' - r columns of the
      complete QR, an orthonormal basis of the cycle space.  The ranked
      matrix is (N' (x) I_n)K, (d' - r)n x kappa, whose column (k, t) is
      N[k, :] (x) v_kt.
    - image narrower: I - K_k K_k' = W_k'W_k, for W_k the rows of the same
      vh that lie outside arc k's kernel, an orthonormal basis of its row
      space.  The ranked matrix is W(Q (x) I_n), (d'n - kappa) x rn, whose
      row (k, s) is Q[k, :] (x) w_ks.
    On the benchmark's random strongly connected digraph (m = 60, d = 180,
    n = 4, one kernel direction per arc) that is 484 rows, and its SVD takes
    about 3.7 ms (one BLAS thread on an Intel Xeon).  On a ring of 2000
    agents with symmetric synthesis the quotient is a triangle, and a call
    takes milliseconds and about 1 MB.  The dense oracles and the exact
    tests stay the independent checks of both this count and the primary
    verdict.
    """
    return _overlap_dim(w, np.unique(_component_labels(w.m, w.graph.arc_ends), return_index=True)[1])


def _overlap_dim(w: WeightedNeighborGraph, firsts: np.ndarray) -> int:
    """disagreement_overlap_dim(w), given the first agent of each of w's weak
    components: a contraction stays inside one weak component, so each one's
    first component in the quotient is its first agent's."""
    g, n = w.graph, w.n
    vh, in_kernel = _kernels(w.padded_weights())
    labels = _component_labels(g.m, g.arc_ends[~in_kernel.any(axis=1)])  # each agent its own where nothing contracts
    ends = labels[g.arc_ends]
    kept = ends[:, 0] != ends[:, 1]
    ends, vh, in_kernel = ends[kept], vh[kept], in_kernel[kept]
    incidence = np.delete(_incidence(int(labels.max()) + 1, ends).T, labels[firsts], axis=1)
    r = incidence.shape[1]
    kappa = int(in_kernel.sum())
    if kappa < r * n:
        # row (i, s) of column (k, t) is N[k, i] v_kt[s]
        cycles = np.linalg.qr(incidence, mode="complete")[0][:, r:]
        owner = np.nonzero(in_kernel)[0]
        ranked = np.einsum("ci,cs->isc", cycles[owner], vh[in_kernel]).reshape(cycles.shape[1] * n, kappa)
    else:
        # column (j, s) of row (k, t) is Q[k, j] w_kt[s]
        q = np.linalg.qr(incidence)[0]
        owner = np.nonzero(~in_kernel)[0]
        ranked = np.einsum("cj,cs->cjs", q[owner], vh[~in_kernel]).reshape(len(owner), r * n)
    return min(kappa, r * n) - int(np.sum(np.linalg.svd(ranked, compute_uv=False) > RANK_RTOL))


def is_well_configured_via_overlap(w: WeightedNeighborGraph) -> bool:
    _require_weakly_connected(w.graph)
    return _overlap_dim(w, np.zeros(1, dtype=np.intp)) == 0  # one weak component, whose first agent is agent 1


def _proves_by_ears(w: WeightedNeighborGraph, decomposition: EarDecomposition) -> bool:
    """True when the paper's cycle criterion proves w well-configured ear by
    ear, for decomposition a valid one of w's graph: by induction the agents
    covered by earlier ears are forced equal and act as one node, and an
    ear's new agents are forced equal to them when the kernels of its slots
    (arcs, or a symmetric ear's pairs [C_ab; C_ba]) are independent.  The
    rule is sufficient, not necessary.  It trusts decomposition: on one that
    misses a vertex or an arc it can say yes wrongly."""
    symmetric, ears, n = decomposition.symmetric, decomposition.ears, w.n
    _, slot, stacks = _pair_stacks(w) if symmetric else (None, np.arange(w.graph.d), w.padded_weights())
    # each ear's slots in order; a pair's forward arc stands for it
    slots = slot[w.graph.arc_indices(np.subtract([arc for ear in ears for arc in ear.arcs[:: 1 + symmetric]], 1))]
    vh, in_kernel = _kernels(stacks)
    picked = in_kernel[slots]
    sizes = [len(ear.arcs) >> symmetric for ear in ears]
    owner = np.repeat(np.repeat(np.arange(len(ears)), sizes), picked.sum(axis=1))  # the ear of each kernel vector
    count = np.bincount(owner, minlength=len(ears))
    if (count > n).any():  # more kernel vectors than dimensions
        return False
    families = np.zeros((len(ears), n, n))  # columns: the ear's kernel vectors
    families[owner, :, np.arange(len(owner)) - (np.cumsum(count) - count)[owner]] = vh[slots][picked]
    s = np.linalg.svd(families[count > 1], compute_uv=False)  # one or none is independent
    return bool((np.sum(s > RANK_RTOL * s[:, :1], axis=1) == count[count > 1]).all())


def _ear_rule_with_kernels(g: DirectedGraph, kernels: Mapping[Arc, np.ndarray], symmetric: bool) -> bool:
    """_proves_by_ears on g, each listed arc weighted by the orthonormal
    complement of its kernel basis (full column rank), every other arc by
    no rows."""
    bases = [np.asarray(k, dtype=float) for k in kernels.values()]
    n = bases[0].shape[0]
    if any(b.shape[0] != n for b in bases):
        raise ValueError("kernels must share the ambient dimension")
    weights = {arc: np.zeros((0, n)) for arc in g.arcs}
    weights.update((arc, kernel_basis(b.T).T) for arc, b in zip(kernels, bases))
    return _proves_by_ears(WeightedNeighborGraph(g, n, weights), _checked_decomposition(g, None, symmetric))


def cycle_criterion(kernels) -> bool:
    """Directed cycle verdict, that the arc kernels are an independent family:
    the directed ear rule on directed_cycle(m), one ear."""
    kernels = list(kernels)
    if len(kernels) < 2:
        raise ValueError(f"a cycle needs two agents, got {len(kernels)} kernels")
    g = directed_cycle(len(kernels))
    return _ear_rule_with_kernels(g, dict(zip(g.arcs, kernels)), symmetric=False)


def broadcast_pair_criterion(k12, k21, k31, k32) -> bool:
    """Verdict for arcs (1,2), (2,1), (3,1), (3,2), that k12 meet k21, k31 and
    k32 are independent: the symmetric ear rule on the triangle
    symmetric_closure(broadcast_pair_graph()), one ear."""
    kernels = {(1, 2): k12, (2, 1): k21, (3, 1): k31, (3, 2): k32}
    return _ear_rule_with_kernels(symmetric_closure(broadcast_pair_graph()), kernels, symmetric=True)


def backlinked_cycle_criterion(k1, k2, k3, k4) -> bool:
    """Verdict for arcs (1,2), (2,3), (3,1), (2,1) with kernels k1..k4, that
    k1 meet k4, k2 and k3 are independent: the symmetric ear rule on the
    triangle symmetric_closure(backlinked_cycle_graph()), one ear."""
    kernels = {(1, 2): k1, (2, 3): k2, (3, 1): k3, (2, 1): k4}
    return _ear_rule_with_kernels(symmetric_closure(backlinked_cycle_graph()), kernels, symmetric=True)


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
    return _synthesize(g, n, _checked_decomposition(g, decomposition, False), mode)


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
    return _synthesize(g, n, _checked_decomposition(g, decomposition, True), mode)


def _checked_decomposition(g: DirectedGraph, decomposition: EarDecomposition | None, symmetric: bool) -> EarDecomposition:
    """decomposition checked to be a valid one of g, or when None one grown on g."""
    if decomposition is None:
        return symmetric_ear_decomposition(g) if symmetric else ear_decomposition(g)
    if decomposition.symmetric != symmetric:
        raise ValueError(
            "synthesize_symmetric_weights needs a symmetric decomposition"
            if symmetric
            else "got a symmetric decomposition; use synthesize_symmetric_weights"
        )
    validate_ear_decomposition(g, decomposition)
    return decomposition


def _synthesize(g: DirectedGraph, n: int, decomposition: EarDecomposition, mode: str) -> WeightedNeighborGraph:
    """The synthesized weights for decomposition, a valid one of g."""
    # One kernel axis per slot of an ear: an arc, or in a symmetric ear a
    # two-length cycle, whose arcs sit side by side in the ear.
    if mode not in SYNTHESIS_MODES:
        raise ValueError(f"mode must be one of {SYNTHESIS_MODES}, got {mode!r}")
    symmetric = decomposition.symmetric
    width = 2 if symmetric else 1
    # per kernel axis s the identity less row s, then past an ear's n-th slot the identity
    axes = [*(np.delete(np.eye(n), s, axis=0) for s in range(n)), np.eye(n)]
    weights: dict[Arc, np.ndarray] = {}
    for ear in decomposition.ears:
        slots = ear.length // width
        if mode == "nonzero-kernels" and slots > n:
            what = f"symmetric ear with {slots} two-length cycles" if symmetric else f"ear of length {slots}"
            raise InfeasibleSynthesisError(
                f"{what} exceeds state dimension {n}; nonzero kernels require max ear length <= n"
            )
        for t, arc in enumerate(ear.arcs):
            weights[arc] = axes[min(t // width, n)]
    return WeightedNeighborGraph(g, n, weights)


def weights_to_json(w: WeightedNeighborGraph) -> dict:
    """Serialize as {m, n, arcs: [{j, i, C}]} in canonical arc order."""
    return {
        "m": w.m,
        "n": w.n,
        "arcs": [{"j": j, "i": i, "C": w.weights[(j, i)].tolist()} for j, i in w.graph.arcs],
    }


def _is_entry(entry) -> bool:
    """True when the {j, i, C} entry passes _weight_table's checks of its
    keys, its two vertex numbers and the kind of C."""
    if type(entry) is not dict or entry.keys() != {"j", "i", "C"}:
        return False
    j, i = entry["j"], entry["i"]
    vertices = type(j) is int and type(i) is int and 0 < j <= MAX_VERTICES and 0 < i <= MAX_VERTICES
    return vertices and type(entry["C"]) is list


def _weight_table(entries, where: str) -> dict[Arc, np.ndarray]:
    """The JSON array of {j, i, C} entries as {(j, i): C}, each arc listed once.

    Well-formed entries convert together, in one _array call per row count.
    Otherwise the entries are read again one by one, so that the error
    names the first malformed entry."""
    entry_at, j_at, i_at, c_at = (f"{where}[]{key}" for key in ("", ".j", ".i", ".C"))
    listed = _expect(entries, where, list)
    if all(map(_is_entry, listed)):
        table = {(entry["j"], entry["i"]): entry["C"] for entry in listed}
        if len(table) == len(listed):
            groups: dict[int, list[Arc]] = {}
            for arc, c in table.items():
                groups.setdefault(len(c), []).append(arc)
            try:
                for arcs in groups.values():
                    table.update(zip(arcs, _array([table[arc] for arc in arcs], c_at)))
                return table
            except ValueError:  # a malformed C, named below
                pass
    table = {}
    for entry in listed:
        _check_keys(entry, entry_at, required=("j", "i", "C"))
        arc = (_vertex(entry["j"], j_at), _vertex(entry["i"], i_at))
        if arc in table:
            raise ValueError(f"{where}: arc {arc} is listed twice")
        table[arc] = _array(entry["C"], c_at)
    return table


def weights_from_json(data: dict) -> WeightedNeighborGraph:
    """The weights of a weight file, as json.loads reads it."""
    _check_keys(data, "weight-file", required=("m", "n", "arcs"))
    table = _weight_table(data["arcs"], "weight-file arcs")
    graph = DirectedGraph(_expect(data["m"], "weight-file m", int), tuple(table))
    return WeightedNeighborGraph(graph, _expect(data["n"], "weight-file n", int), table)
