"""Directed graphs with a canonical arc ordering, connectivity predicates,
incidence matrices, and (symmetric) ear decompositions."""

from __future__ import annotations

import heapq
import operator
from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

Arc = tuple[int, int]

# Hard cap for exhaustive ear-decomposition enumeration (desk scale only).
CHI_MAX_VERTICES = 8
CHI_MAX_ARCS = 16

# The largest vertex count whose arc keys head * m + tail fit in an int64.
MAX_VERTICES = 3_037_000_499


@dataclass(frozen=True)
class DirectedGraph:
    """An m-vertex directed graph on vertices 1..m without self-arcs.

    Arcs are (tail j, head i) pairs: j sends to i.  The stored tuple is in
    canonical order: grouped by head ascending, then by tail ascending.  All
    matrix constructions index arcs in this order, so results are
    bit-reproducible.  This class owns that order: `arc_ends`, the arcs'
    zero-based (tail, head) agents, and `arc_keys`, their ascending keys
    head * m + tail, index it.  The constructor takes integers only and names
    the first arc, in the given order, that is out of range, a self-arc or
    a repeat.
    """

    m: int
    arcs: tuple[Arc, ...]
    arc_ends: np.ndarray = field(init=False, repr=False, compare=False)  # (d, 2), read-only
    arc_keys: np.ndarray = field(init=False, repr=False, compare=False)  # (d,), read-only

    def __post_init__(self):
        m = _integer(self.m, "vertex count")
        if not 1 <= m <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {m}")
        given = tuple(self.arcs)
        ends = np.array(given) if given else np.zeros((0, 2), dtype=np.intp)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise ValueError("arcs must be (tail, head) pairs")
        # numpy reads True and False as 1 and 0, but a boolean is no integer
        if ends.dtype.kind not in "iu" or not {bool, np.bool_}.isdisjoint({type(v) for arc in given for v in arc}):
            # the first non-integer raises; an end too wide for intp is out of range
            ends = np.array([[min(max(_integer(v, f"end of arc {tuple(arc)}"), 0), m + 1) for v in arc] for arc in given])
        ends = ends.astype(np.intp) - 1
        tails, heads = ends.T
        keys = heads * m + tails
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        repeat = np.zeros(len(keys), dtype=bool)
        repeat[order[1:]] = keys[1:] == keys[:-1]  # the later of two equal arcs
        outside = ((ends < 0) | (ends >= m)).any(axis=1)
        offending = outside | (tails == heads) | repeat
        if offending.any():
            k = int(np.argmax(offending))
            j, i = given[k]
            if outside[k]:
                raise ValueError(f"arc ({j}, {i}) out of range for m={m}")
            if tails[k] == heads[k]:
                raise ValueError(f"self-arc ({j}, {i}) not allowed")
            raise ValueError(f"duplicate arc ({j}, {i})")
        ends = ends[order]
        ends.flags.writeable = keys.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "arcs", tuple(map(tuple, (ends + 1).tolist())))
        object.__setattr__(self, "arc_ends", ends)
        object.__setattr__(self, "arc_keys", keys)

    @property
    def d(self) -> int:
        return len(self.arcs)

    @cached_property
    def arc_index(self) -> dict[Arc, int]:
        return {arc: k for k, arc in enumerate(self.arcs)}

    def arc_indices(self, ends) -> np.ndarray:
        """Canonical index of the arc of each zero-based (tail, head) row of
        ends, or -1 where the graph has no such arc; ends lie in 0..m-1."""
        ends = np.asarray(ends)
        keys = ends[:, 1] * self.m + ends[:, 0]
        at = np.searchsorted(self.arc_keys, keys)
        # a key past the last arc's finds the appended -1, which is no key
        return np.where(np.append(self.arc_keys, -1)[at] == keys, at, -1)

    @cached_property
    def reverse(self) -> np.ndarray:
        """(d,) read-only: per arc (j, i), the canonical index of (i, j), or -1."""
        back = self.arc_indices(self.arc_ends[:, ::-1])
        back.flags.writeable = False
        return back

    @cached_property
    def pair_lead(self) -> np.ndarray:
        """(d,) read-only: per arc, the canonical index of the arc that leads
        its unordered pair {a, b}: the arc a -> b with a < b, or the pair's
        only arc."""
        tails, heads = self.arc_ends.T
        lead = np.where((tails < heads) | (self.reverse < 0), np.arange(self.d), self.reverse)
        lead.flags.writeable = False
        return lead

    @cached_property
    def _in_neighbors(self) -> dict[int, tuple[int, ...]]:
        return _neighbor_table((i, j) for j, i in self.arcs)

    @cached_property
    def _out_neighbors(self) -> dict[int, tuple[int, ...]]:
        return _neighbor_table(self.arcs)

    def in_neighbors(self, i: int) -> tuple[int, ...]:
        """Agents i receives from (the neighbor set of i)."""
        return self._in_neighbors[i]

    def out_neighbors(self, j: int) -> tuple[int, ...]:
        return self._out_neighbors[j]

    def degree(self, i: int) -> int:
        """Number of neighbors of agent i (in-degree)."""
        return len(self._in_neighbors[i])

    def has_arc(self, arc: Arc) -> bool:
        return arc in self.arc_index

    @cached_property
    def undirected_pairs(self) -> tuple[tuple[int, int], ...]:
        """Unordered endpoint pairs (a, b), a < b, of the underlying graph."""
        leads = self.arc_ends[self.pair_lead == np.arange(self.d)]
        return tuple(sorted(map(tuple, (np.sort(leads, axis=1) + 1).tolist())))

    @classmethod
    def from_text(cls, text: str) -> "DirectedGraph":
        """Parse the graph text format: first line "m d", then one "j i" per line."""
        rows = [(lineno, line.split()) for lineno, line in enumerate(text.splitlines(), start=1) if line.strip()]
        if not rows or len(rows[0][1]) != 2:
            raise ValueError("graph text must start with a header line 'm d'")
        pairs = []
        for lineno, row in rows:
            if len(row) != 2:
                raise ValueError(f"line {lineno}: expected 'j i', got {' '.join(row)!r}")
            try:
                pairs.append((int(row[0]), int(row[1])))
            except ValueError:
                raise ValueError(f"line {lineno}: expected two integers, got {' '.join(row)!r}") from None
        (m, d), arcs = pairs[0], pairs[1:]
        if len(arcs) != d:
            raise ValueError(f"header promises {d} arcs, found {len(arcs)}")
        return cls(m, tuple(arcs))


class _Neighbors(dict):
    # per vertex its neighbours, ascending; a vertex without arcs has none
    def __missing__(self, v):
        return ()


def _neighbor_table(pairs) -> _Neighbors:
    # from the arcs only; their canonical order leaves each tuple ascending
    nbrs: defaultdict[int, list[int]] = defaultdict(list)
    for v, w in pairs:
        nbrs[v].append(w)
    return _Neighbors((v, tuple(ws)) for v, ws in nbrs.items())


def _reachable(adj: dict[int, tuple[int, ...]], start: int) -> set[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _component_labels(m: int, edges: np.ndarray) -> np.ndarray:
    """Per agent, the index of its connected component under the (k, 2)
    zero-based edges, the components numbered in order of their first agent.

    Each pass hooks every root that has an edge to a smaller root onto the
    smallest such root, then jumps pointers until every agent points at its
    root; a root is always the smallest agent of its tree.
    """
    root = np.arange(m)
    while True:
        a, b = root[edges[:, 0]], root[edges[:, 1]]
        split = a != b
        if not split.any():
            return np.unique(root, return_inverse=True)[1]
        np.minimum.at(root, np.maximum(a, b)[split], np.minimum(a, b)[split])
        while not np.array_equal(root[root], root):
            root = root[root]


def is_weakly_connected(g: DirectedGraph) -> bool:
    """True iff the underlying undirected graph is connected."""
    return not _component_labels(g.m, g.arc_ends).any()


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path."""
    if len(_reachable(g._out_neighbors, 1)) != g.m:
        return False
    return len(_reachable(g._in_neighbors, 1)) == g.m


def is_symmetric(g: DirectedGraph) -> bool:
    """True iff the arc set is closed under reversal."""
    return bool((g.reverse >= 0).all())


def is_directed_cycle(g: DirectedGraph) -> bool:
    """True iff g is a single directed cycle covering all vertices."""
    if g.m < 2 or g.d != g.m:
        return False
    if any(g.degree(v) != 1 or len(g.out_neighbors(v)) != 1 for v in range(1, g.m + 1)):
        return False
    return is_strongly_connected(g)


def is_2_connected(g: DirectedGraph) -> bool:
    """True iff removing any single two-length cycle leaves g strongly connected.

    Only defined for symmetric graphs; a two-length cycle is the arc pair
    (a, b), (b, a).  On a symmetric graph this means connected and
    bridgeless, which one depth-first search with low points decides in
    O(m + d) (Tarjan, 1974).  The search keeps an explicit stack, so long
    paths cannot exhaust the interpreter's recursion limit.
    """
    if not is_symmetric(g):
        raise ValueError("2-connectivity is defined for symmetric graphs only")
    adj = g._out_neighbors
    disc = {1: 0}  # discovery time
    low = {1: 0}  # earliest discovery time reachable via one back edge
    stack = [(1, 0, iter(adj[1]))]
    while stack:
        v, parent, nbrs = stack[-1]
        for w in nbrs:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                stack.append((w, v, iter(adj[w])))
                break
            if w != parent:
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if parent:
                if low[v] > disc[parent]:
                    return False  # the pair {parent, v} is a bridge
                low[parent] = min(low[parent], low[v])
    return len(disc) == g.m


def incidence_matrix(g: DirectedGraph) -> np.ndarray:
    """m x d matrix: column k of arc (j, i) has +1 at row i and -1 at row j."""
    out = np.zeros((g.m, g.d))
    out[g.arc_ends.T, np.arange(g.d)] = [[-1.0], [1.0]]  # the tails' row, then the heads'
    return out


@dataclass(frozen=True)
class Ear:
    """One ear: a directed cycle or path given as arcs in traversal order.

    For symmetric ears both arc directions are stored, paired along the
    traversal; pair_count then counts the two-length cycles in the ear.
    """

    kind: str  # "cycle" | "path"
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        if self.kind not in ("cycle", "path"):
            raise ValueError(f"unknown ear kind {self.kind!r}")
        if not self.arcs:
            raise ValueError("ear must contain at least one arc")

    @property
    def length(self) -> int:
        """Number of arcs."""
        return len(self.arcs)

    @property
    def pair_count(self) -> int:
        """Number of two-length cycles (symmetric ears only)."""
        return len(self.arcs) // 2


@dataclass(frozen=True)
class EarDecomposition:
    ears: tuple[Ear, ...]
    symmetric: bool = False

    def __len__(self) -> int:
        return len(self.ears)

    @property
    def max_length(self) -> int:
        return max(ear.length for ear in self.ears)

    def to_json(self) -> list[dict]:
        return [{"kind": e.kind, "arcs": [list(a) for a in e.arcs]} for e in self.ears]

    @classmethod
    def from_json(cls, data: list[dict]) -> "EarDecomposition":
        ears = []
        for entry in _list(data, "ear decomposition"):
            _check_keys(entry, "ear", required=("kind", "arcs"))
            pairs = _list(entry["arcs"], "ear arcs")
            if not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
                raise ValueError("ear arcs must be a list of [j, i] pairs")
            arcs = tuple((_integer(j, "ear arc"), _integer(i, "ear arc")) for j, i in pairs)
            ears.append(Ear(entry["kind"], arcs))
        # Symmetric ears pair each arc with its reverse along the traversal;
        # ordinary two-length cycle ears look the same, so additionally demand
        # a first cycle of >= 3 pairs, which only symmetric decompositions have.
        symmetric = bool(ears) and all(_is_paired(e) for e in ears) and ears[0].pair_count >= 3
        return cls(tuple(ears), symmetric=symmetric)


def _check_keys(obj: dict, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    """Raise ValueError unless obj is an object with every required key and no key beyond optional."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object, got {type(obj).__name__}")
    keys = set(required)
    for problem, found in (("unknown", set(obj) - keys - set(optional)), ("missing", keys - set(obj))):
        if found:
            raise ValueError(f"{where}: {problem} keys {sorted(found)}")


def _list(value, where: str) -> list:
    """value if it is a list, as a JSON array reads."""
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list, got {type(value).__name__}")
    return value


def _integer(value, where: str) -> int:
    """value as an int if it is one (numpy integers included); a float is
    refused, not truncated, and a boolean is no integer."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return operator.index(value)


def _is_paired(ear: Ear) -> bool:
    if len(ear.arcs) % 2:
        return False
    return all(ear.arcs[t + 1] == (ear.arcs[t][1], ear.arcs[t][0]) for t in range(0, len(ear.arcs), 2))


def _walk_vertices(arcs: tuple[Arc, ...]) -> list[int]:
    # Vertex sequence of a chained arc list (j0, i0)(i0, i1)...
    verts = [arcs[0][0]]
    for j, i in arcs:
        if j != verts[-1]:
            raise ValueError(f"arcs are not chained at vertex {verts[-1]}")
        verts.append(i)
    return verts


def _edge_walk(ear: Ear) -> tuple[Arc, ...]:
    # A symmetric ear walks its undirected edges, each stored as the arc along
    # the traversal followed by its reverse.
    if not _is_paired(ear):
        raise ValueError("symmetric ear arcs must come in forward/reverse pairs")
    return ear.arcs[::2]


def validate_ear_decomposition(g: DirectedGraph, dec: EarDecomposition) -> None:
    """Structural validity oracle; raises ValueError on any violation.

    Checks the arc partition, that ear 0 is a cycle, that each later cycle-ear
    shares exactly one vertex with the union of prior ears and each later
    path-ear exactly its two end-vertices, and the ear-count formula.  A
    symmetric decomposition is checked on the walk of undirected edges of each
    ear, and its cycles must span at least three pairs.
    """
    label = "symmetric " if dec.symmetric else ""
    seen_arcs: set[Arc] = set()
    covered: set[int] = set()
    for idx, ear in enumerate(dec.ears):
        walk = _edge_walk(ear) if dec.symmetric else ear.arcs
        if any(arc not in g.arc_index for arc in ear.arcs):
            raise ValueError(f"ear {idx} uses arcs not in the graph")
        if seen_arcs & set(ear.arcs):
            raise ValueError(f"ear {idx} reuses arcs of earlier ears")
        verts = _walk_vertices(walk)
        if ear.kind == "cycle":
            if verts[0] != verts[-1]:
                raise ValueError(f"{label}cycle ear {idx} does not close")
            if dec.symmetric and len(walk) < 3:
                raise ValueError(f"symmetric cycle ear {idx} must close over >= 3 pairs")
            interior = verts[:-1]
        else:
            if verts[0] == verts[-1]:
                raise ValueError(f"{label}path ear {idx} closes on itself")
            interior = verts
        if len(set(interior)) != len(interior):
            raise ValueError(f"ear {idx} revisits a vertex")
        shared = set(verts) & covered
        if idx == 0:
            if ear.kind != "cycle":
                raise ValueError(f"ear 0 must be a {label}cycle")
        elif ear.kind == "cycle":
            if shared != {verts[0]}:
                raise ValueError(f"{label}cycle ear {idx} must share exactly its anchor vertex, shares {sorted(shared)}")
        elif shared != {verts[0], verts[-1]}:
            raise ValueError(f"{label}path ear {idx} must share exactly its two end-vertices, shares {sorted(shared)}")
        seen_arcs |= set(ear.arcs)
        covered |= set(verts)
    if seen_arcs != set(g.arcs):
        raise ValueError(f"{label}ears do not partition the arc set")
    expected = (g.d // 2 if dec.symmetric else g.d) - g.m + 1
    if len(dec.ears) != expected:
        raise ValueError(f"expected {expected} {label}ears, found {len(dec.ears)}")


def _shortest_cycle_through(g: DirectedGraph, root: int) -> list[Arc]:
    # BFS tree from root in canonical arc order, closed by the best in-arc.
    parent: dict[int, int] = {root: 0}
    dist = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in g.out_neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                parent[w] = v
                queue.append(w)
    # the first best in-arc in canonical order, where arcs into root go by tail
    candidates = [(dist[j], j) for j in g.in_neighbors(root) if j in dist]
    if not candidates:
        raise ValueError(f"no directed cycle through vertex {root}")
    _, tail = min(candidates)
    path, v = [(tail, root)], tail
    while v != root:
        path.append((parent[v], v))
        v = parent[v]
    return path[::-1]


def _extend_to_visited(adj: dict[int, tuple[int, ...]], start: int, visited: set[int], back: int) -> list[Arc]:
    # Shortest continuation from an unvisited vertex into the visited set
    # through unvisited vertices, in sorted neighbor order, never stepping
    # from start straight to back (0 forbids nothing).
    parent: dict[int, int] = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w in visited:
                if v == start and w == back:
                    continue
                path = [(v, w)]
                u = v
                while u != start:
                    path.append((parent[u], u))
                    u = parent[u]
                path.reverse()
                return path
            if w not in parent:
                parent[w] = v
                queue.append(w)
    raise ValueError(f"vertex {start} cannot reach the visited set")


def _grow_ears(g: DirectedGraph, first: list[Arc], symmetric: bool) -> EarDecomposition:
    # Attach ears to the first cycle until every arc is used.  Each later ear
    # starts at the smallest unused edge leaving the covered vertices: by
    # canonical arc index, or for a symmetric ear by unordered pair and then
    # the covered end (the smaller if both are).  A symmetric ear walks
    # undirected edges, each lifted to its arc and the reverse, and may not
    # turn straight back along its first edge.
    adj = g._out_neighbors
    index = g.arc_index
    ears: list[Ear] = []
    used: set[Arc] = set()
    visited: set[int] = set()
    ready: list = []  # heap of (key, covered end, other end)

    def attach(kind, path):
        arcs = tuple(arc for j, i in path for arc in ((j, i), (i, j))) if symmetric else tuple(path)
        ears.append(Ear(kind, arcs))
        used.update(arcs)
        for v in {v for arc in arcs for v in arc} - visited:
            visited.add(v)
            for w in adj[v]:
                key = ((v, w) if v < w else (w, v)) if symmetric else index[(v, w)]
                heapq.heappush(ready, (key, v, w))

    attach("cycle", first)
    while len(used) < g.d:
        _, u, v = heapq.heappop(ready)
        if (u, v) in used:
            continue
        path = [(u, v)]
        if v not in visited:
            path += _extend_to_visited(adj, v, visited, u if symmetric else 0)
        attach("cycle" if path[-1][1] == u else "path", path)
    return EarDecomposition(tuple(ears), symmetric=symmetric)


def ear_decomposition(g: DirectedGraph) -> EarDecomposition:
    """One ear decomposition of a strongly connected graph.

    Starts from the shortest directed cycle through vertex 1, then repeatedly
    attaches the first unused arc (canonical order) whose tail is already
    covered, extended by a shortest route back into the covered set.  On
    symmetric graphs this yields only two-length cycles and single-arc paths.
    """
    if g.m < 2:
        raise ValueError("ear decomposition needs at least two vertices")
    if not is_strongly_connected(g):
        raise ValueError("ear decomposition exists iff the graph is strongly connected")
    return _grow_ears(g, _shortest_cycle_through(g, 1), symmetric=False)


def _shortest_undirected_cycle_through(adj: dict[int, tuple[int, ...]], root: int) -> list[tuple[int, int]]:
    # The first shortest cycle root -> ... -> root (>= 3 edges) in
    # lexicographic vertex order, from one BFS in sorted neighbor order.  A
    # shortest cycle of length L is two shortest paths from the root with
    # different first hops, joined at its turn: a vertex at level L // 2
    # followed by a neighbor at level L - L // 2 - 1.  BFS reaches every
    # vertex first along its lexicographically first shortest path, and
    # visits each level in that order, so the cycle leaves along the tree
    # path to the first turn vertex in BFS order, then takes its smallest
    # fitting neighbor and the smallest neighbor one level down from there.
    dist = {root: 0}
    parent: dict[int, int] = {}
    hop: dict[int, int] = {}  # first vertex after the root on the tree path
    order = [root]
    for v in order:
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                parent[w] = v
                hop[w] = hop.get(v, w)
                order.append(w)
    length = min(
        (dist[u] + dist[w] + 1 for u in order[1:] for w in adj[u] if w != root and hop[w] != hop[u]),
        default=0,
    )
    if not length:
        raise ValueError(f"no undirected cycle through vertex {root}")
    far, near = length // 2, length - length // 2 - 1
    turn, v = next(
        (u, w)
        for u in order
        if dist[u] == far
        for w in adj[u]
        if dist[w] == near and w != root and hop[w] != hop[u]
    )
    walk = [turn]
    while walk[-1] != root:
        walk.append(parent[walk[-1]])
    walk.reverse()
    while v != root:
        walk.append(v)
        v = next(w for w in adj[v] if dist[w] == dist[v] - 1)
    walk.append(root)
    return list(zip(walk, walk[1:]))


def symmetric_ear_decomposition(g: DirectedGraph) -> EarDecomposition:
    """A symmetric ear decomposition of a 2-connected symmetric graph.

    Works on the underlying undirected graph and lifts every traversed edge
    to its two arcs; pair_count per ear counts the two-length cycles.  The
    first ear is a shortest cycle through vertex 1; each later ear starts
    from the first unused pair (canonical order) that touches the covered
    vertices.
    """
    if not is_symmetric(g):
        raise ValueError("symmetric ear decomposition needs a symmetric graph")
    if g.m < 2 or not is_2_connected(g):
        raise ValueError("symmetric ear decomposition exists iff the graph is 2-connected")
    return _grow_ears(g, _shortest_undirected_cycle_through(g._out_neighbors, 1), symmetric=True)


def directed_cycle(m: int) -> DirectedGraph:
    """1 -> 2 -> ... -> m -> 1."""
    return DirectedGraph(m, tuple((v, v % m + 1) for v in range(1, m + 1)))


def directed_path(m: int) -> DirectedGraph:
    """1 -> 2 -> ... -> m."""
    return DirectedGraph(m, tuple((v, v + 1) for v in range(1, m)))


def symmetric_closure(g: DirectedGraph) -> DirectedGraph:
    arcs = set(g.arcs) | {(i, j) for j, i in g.arcs}
    return DirectedGraph(g.m, tuple(arcs))


def symmetric_cycle(m: int) -> DirectedGraph:
    return symmetric_closure(directed_cycle(m))


def symmetric_path(m: int) -> DirectedGraph:
    return symmetric_closure(directed_path(m))


def symmetric_star(m: int) -> DirectedGraph:
    """Center 1 exchanging with leaves 2..m."""
    arcs = []
    for leaf in range(2, m + 1):
        arcs += [(1, leaf), (leaf, 1)]
    return DirectedGraph(m, tuple(arcs))


def complete_symmetric(m: int) -> DirectedGraph:
    arcs = tuple((j, i) for j in range(1, m + 1) for i in range(1, m + 1) if j != i)
    return DirectedGraph(m, arcs)


def broadcast_pair_graph() -> DirectedGraph:
    """Two mutually-linked agents both fed by a third: rooted but not
    strongly connected, yet well-configurable with nonzero kernels."""
    return DirectedGraph(3, ((1, 2), (2, 1), (3, 1), (3, 2)))


def backlinked_cycle_graph() -> DirectedGraph:
    """Directed triangle plus the back arc (2, 1); the smallest strongly
    connected graph where the general projection iteration can stall."""
    return DirectedGraph(3, ((1, 2), (2, 3), (3, 1), (2, 1)))


def _candidate_ears(g: DirectedGraph, used: frozenset[Arc], visited: frozenset[int]):
    # All valid next ears: anchored walks from a covered vertex through
    # uncovered vertices, closing anywhere in the covered set.
    for anchor in sorted(visited):
        stack = [(anchor, [], set())]
        while stack:
            v, trail, interior = stack.pop()
            for w in g.out_neighbors(v):
                arc = (v, w)
                if arc in used:
                    continue
                if w in visited:
                    yield tuple(trail + [arc])
                elif w not in interior:
                    stack.append((w, trail + [arc], interior | {w}))


def chi(g: DirectedGraph, *, max_vertices: int = CHI_MAX_VERTICES, max_arcs: int = CHI_MAX_ARCS) -> int:
    """Exact min over all ear decompositions of the max ear length.

    Exhaustive backtracking over decompositions with memoized used-arc
    states; hard-capped because the decomposition count grows exponentially.
    """
    if g.m < 2 or not is_strongly_connected(g):
        raise ValueError("chi is defined for strongly connected graphs with >= 2 vertices")
    if g.m > max_vertices or g.d > max_arcs:
        raise ValueError(
            f"enumeration infeasible: graph has m={g.m}, d={g.d}, cap is "
            f"m<={max_vertices}, d<={max_arcs}"
        )
    all_arcs = frozenset(g.arcs)
    memo: dict[frozenset[Arc], float] = {}

    def best_completion(used: frozenset[Arc]) -> float:
        if used == all_arcs:
            return 0.0
        if used in memo:
            return memo[used]
        visited = frozenset(v for arc in used for v in arc)
        best = float("inf")
        for ear in _candidate_ears(g, used, visited):
            if len(ear) >= best:
                continue
            tail = best_completion(used | frozenset(ear))
            best = min(best, max(len(ear), tail))
        memo[used] = best
        return best

    # the first ear is a cycle: an ear anchored at v while only v is covered
    result = min(
        max(len(cycle), best_completion(frozenset(cycle)))
        for v in range(1, g.m + 1)
        for cycle in _candidate_ears(g, frozenset(), frozenset({v}))
    )
    assert result != float("inf"), "strongly connected graphs always decompose"
    return int(result)
