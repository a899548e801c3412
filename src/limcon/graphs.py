"""Directed graphs with a canonical arc ordering, connectivity predicates,
incidence matrices, and (symmetric) ear decompositions."""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

Arc = tuple[int, int]

# Hard cap for exhaustive ear-decomposition enumeration (desk scale only).
CHI_MAX_VERTICES = 8
CHI_MAX_ARCS = 16


@dataclass(frozen=True)
class DirectedGraph:
    """An m-vertex directed graph on vertices 1..m without self-arcs.

    Arcs are (tail j, head i) pairs: j sends to i.  The stored tuple is in
    canonical order: grouped by head ascending, then by tail ascending.  All
    matrix constructions index arcs in this order, so results are
    bit-reproducible.
    """

    m: int
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("vertex count must be >= 1")
        seen: set[Arc] = set()
        for raw in self.arcs:
            j, i = (int(v) for v in raw)
            if not (1 <= j <= self.m and 1 <= i <= self.m):
                raise ValueError(f"arc ({j}, {i}) out of range for m={self.m}")
            if j == i:
                raise ValueError(f"self-arc ({j}, {i}) not allowed")
            if (j, i) in seen:
                raise ValueError(f"duplicate arc ({j}, {i})")
            seen.add((j, i))
        canonical = tuple(sorted(seen, key=lambda a: (a[1], a[0])))
        object.__setattr__(self, "arcs", canonical)

    @property
    def d(self) -> int:
        return len(self.arcs)

    @cached_property
    def arc_index(self) -> dict[Arc, int]:
        return {arc: k for k, arc in enumerate(self.arcs)}

    @cached_property
    def _in_neighbors(self) -> dict[int, tuple[int, ...]]:
        nbrs: dict[int, list[int]] = {v: [] for v in range(1, self.m + 1)}
        for j, i in self.arcs:
            nbrs[i].append(j)
        return {v: tuple(sorted(js)) for v, js in nbrs.items()}

    @cached_property
    def _out_neighbors(self) -> dict[int, tuple[int, ...]]:
        nbrs: dict[int, list[int]] = {v: [] for v in range(1, self.m + 1)}
        for j, i in self.arcs:
            nbrs[j].append(i)
        return {v: tuple(sorted(heads)) for v, heads in nbrs.items()}

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

    def reverse(self) -> "DirectedGraph":
        return DirectedGraph(self.m, tuple((i, j) for j, i in self.arcs))

    @cached_property
    def undirected_pairs(self) -> tuple[tuple[int, int], ...]:
        """Unordered endpoint pairs (a, b), a < b, of the underlying graph."""
        pairs = {(min(j, i), max(j, i)) for j, i in self.arcs}
        return tuple(sorted(pairs))

    def is_spanning_subgraph_of(self, other: "DirectedGraph") -> bool:
        return self.m == other.m and set(self.arcs) <= set(other.arcs)

    def to_text(self) -> str:
        lines = [f"{self.m} {self.d}"]
        lines += [f"{j} {i}" for j, i in self.arcs]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DirectedGraph":
        """Parse the graph text format: first line "m d", then one "j i" per line."""
        rows = [line.split() for line in text.splitlines() if line.strip()]
        if not rows or len(rows[0]) != 2:
            raise ValueError("graph text must start with a header line 'm d'")
        m, d = (int(tok) for tok in rows[0])
        arcs = []
        for lineno, row in enumerate(rows[1:], start=2):
            if len(row) != 2:
                raise ValueError(f"line {lineno}: expected 'j i', got {' '.join(row)!r}")
            arcs.append((int(row[0]), int(row[1])))
        if len(arcs) != d:
            raise ValueError(f"header promises {d} arcs, found {len(arcs)}")
        return cls(m, tuple(arcs))


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


def is_weakly_connected(g: DirectedGraph) -> bool:
    """True iff the underlying undirected graph is connected."""
    adj: dict[int, set[int]] = {v: set() for v in range(1, g.m + 1)}
    for j, i in g.arcs:
        adj[j].add(i)
        adj[i].add(j)
    frozen = {v: tuple(ws) for v, ws in adj.items()}
    return len(_reachable(frozen, 1)) == g.m


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path."""
    if len(_reachable(g._out_neighbors, 1)) != g.m:
        return False
    return len(_reachable(g._in_neighbors, 1)) == g.m


def is_rooted(g: DirectedGraph) -> bool:
    """True iff some vertex reaches all others (a directed spanning tree exists)."""
    return any(len(_reachable(g._out_neighbors, r)) == g.m for r in range(1, g.m + 1))


def is_symmetric(g: DirectedGraph) -> bool:
    """True iff the arc set is closed under reversal."""
    arcs = set(g.arcs)
    return all((i, j) in arcs for j, i in arcs)


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
    for k, (j, i) in enumerate(g.arcs):
        out[i - 1, k] = 1.0
        out[j - 1, k] = -1.0
    return out


def spanning_incidence_matrix(g: DirectedGraph, sub: DirectedGraph) -> np.ndarray:
    """Incidence matrix of sub padded with zero columns, indexed by g's arcs."""
    if not sub.is_spanning_subgraph_of(g):
        raise ValueError("sub must be a spanning subgraph of g")
    out = np.zeros((g.m, g.d))
    for k, (j, i) in enumerate(g.arcs):
        if sub.has_arc((j, i)):
            out[i - 1, k] = 1.0
            out[j - 1, k] = -1.0
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

    def all_arcs(self) -> set[Arc]:
        return {arc for ear in self.ears for arc in ear.arcs}

    def to_json(self) -> list[dict]:
        return [{"kind": e.kind, "arcs": [list(a) for a in e.arcs]} for e in self.ears]

    @classmethod
    def from_json(cls, data: list[dict]) -> "EarDecomposition":
        ears = []
        for entry in data:
            unknown = set(entry) - {"kind", "arcs"}
            if unknown:
                raise ValueError(f"unknown ear keys: {sorted(unknown)}")
            ears.append(Ear(entry["kind"], tuple((int(j), int(i)) for j, i in entry["arcs"])))
        # Symmetric ears pair each arc with its reverse along the traversal;
        # ordinary two-length cycle ears look the same, so additionally demand
        # a first cycle of >= 3 pairs, which only symmetric decompositions have.
        symmetric = bool(ears) and all(_is_paired(e) for e in ears) and ears[0].pair_count >= 3
        return cls(tuple(ears), symmetric=symmetric)


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
    candidates = [(dist[j], k) for k, (j, i) in enumerate(g.arcs) if i == root and j in dist]
    if not candidates:
        raise ValueError(f"no directed cycle through vertex {root}")
    _, k = min(candidates)
    tail = g.arcs[k][0]
    path = []
    v = tail
    while v != root:
        path.append((parent[v], v))
        v = parent[v]
    path.reverse()
    return path + [(tail, root)]


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


def _simple_cycles(g: DirectedGraph):
    # Every simple directed cycle, once, anchored at its minimum vertex.
    for s in range(1, g.m + 1):
        stack = [(s, [], set())]
        while stack:
            v, trail, interior = stack.pop()
            for w in g.out_neighbors(v):
                if w == s and trail:
                    yield tuple(trail + [(v, w)])
                elif w > s and w not in interior:
                    stack.append((w, trail + [(v, w)], interior | {w}))
        # single-vertex anchors cannot close in one arc (no self-arcs)


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

    result = float("inf")
    for cycle in _simple_cycles(g):
        result = min(result, max(len(cycle), best_completion(frozenset(cycle))))
    assert result != float("inf"), "strongly connected graphs always decompose"
    return int(result)
