"""Directed graphs with a canonical arc ordering, connectivity predicates,
incidence matrices, and (symmetric) ear decompositions."""

from __future__ import annotations

import heapq
import itertools
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

    def arc_indices(self, ends) -> np.ndarray:
        """Canonical index of the arc of each zero-based (tail, head) row of
        ends, or -1 where the graph has no such arc.  An end outside 0..m-1
        has none: its key would alias another arc's."""
        ends = np.asarray(ends)
        keys = ends[:, 1] * self.m + ends[:, 0]
        at = np.searchsorted(self.arc_keys, keys)
        # a key past the last arc's finds the appended -1, which is no key
        found = (np.append(self.arc_keys, -1)[at] == keys) & ((0 <= ends) & (ends < self.m)).all(axis=1)
        return np.where(found, at, -1)

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
        return bool(self.arc_indices(np.subtract([arc], 1))[0] >= 0)

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


def _breadth_first(adj: dict[int, tuple[int, ...]], roots) -> tuple[list[int], list[int]]:
    """The vertices reached from roots over the neighbour mapping adj, in
    breadth-first order, each root not yet reached starting a new search,
    and the start of each level.  It holds only the vertices it reached, so
    a search that stops early costs nothing per vertex of the graph."""
    seen: set[int] = set()
    order, starts = [], []
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        level = [root]
        while level:
            starts.append(len(order))
            order += level
            after = []
            for v in level:
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        after.append(w)
            level = after
    return order, starts


def _bfs_levels(g: DirectedGraph) -> tuple[np.ndarray, np.ndarray]:
    """The zero-based agents in breadth-first order over g's undirected
    skeleton, and the start of each level, with m appended.  Each vertex's
    skeleton neighbours are its in-neighbours, then its out-neighbours; each
    component is searched from its first agent of least skeleton degree.
    These are the levels of Cuthill and McKee (1969): an edge joins a level to
    itself or to the next, so a matrix with g's sparsity is block tridiagonal
    over them, and a ring's levels hold two agents."""
    adj = {v: g.in_neighbors(v) + g.out_neighbors(v) for v in range(1, g.m + 1)}
    order, starts = _breadth_first(adj, sorted(adj, key=lambda v: len(adj[v])))
    return np.array(order) - 1, np.array(starts + [g.m])


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
            return (np.cumsum(root == np.arange(m)) - 1)[root]  # each root's rank among the roots
        np.minimum.at(root, np.maximum(a, b)[split], np.minimum(a, b)[split])
        while not ((jumped := root[root]) == root).all():
            root = jumped


def is_weakly_connected(g: DirectedGraph) -> bool:
    """True iff the underlying undirected graph is connected."""
    # fewer than m - 1 arcs cannot connect m vertices; refuse before paying O(m)
    return g.d >= g.m - 1 and not _component_labels(g.m, g.arc_ends).any()


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path: the
    breadth-first search from vertex 1 reaches all m vertices along the arcs
    and against them.  Cheaper than an ear growth for the callers that need
    no decomposition, it costs only the arcs it reached, not m."""
    return all(len(_breadth_first(adj, [1])[0]) == g.m for adj in (g._out_neighbors, g._in_neighbors))


def is_symmetric(g: DirectedGraph) -> bool:
    """True iff the arc set is closed under reversal."""
    return bool((g.reverse >= 0).all())


def is_directed_cycle(g: DirectedGraph) -> bool:
    """True iff g is a single directed cycle covering all vertices: strong
    connectivity with m arcs leaves every vertex one arc in and one out."""
    return g.m >= 2 and g.d == g.m and is_strongly_connected(g)


def is_2_connected(g: DirectedGraph) -> bool:
    """True iff removing any single two-length cycle leaves g strongly connected.

    Only defined for symmetric graphs; a two-length cycle is the arc pair
    (a, b), (b, a).  On a symmetric graph this means connected and
    bridgeless, which holds iff the graph has a symmetric ear decomposition
    (Robbins, 1939), so one symmetric ear growth decides it, in O(d log d).
    Standalone that is slower than a linear search, most on dense graphs
    (README), but no command calls it: the decompositions refuse by their
    own growth.
    """
    if not is_symmetric(g):
        raise ValueError("2-connectivity is defined for symmetric graphs only")
    return g.m == 1 or _ears(g, symmetric=True) is not None


def incidence_matrix(g: DirectedGraph) -> np.ndarray:
    """m x d matrix: column k of arc (j, i) has +1 at row i and -1 at row j."""
    return _incidence(g.m, g.arc_ends)


def _incidence(m: int, ends: np.ndarray) -> np.ndarray:
    """The incidence matrix of the (k, 2) zero-based (tail, head) ends on m
    vertices, a multigraph's too."""
    out = np.zeros((m, len(ends)))
    out[ends.T, np.arange(len(ends))] = [[-1.0], [1.0]]  # the tails' row, then the heads'
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
        for entry in _expect(data, "ear decomposition", list):
            _check_keys(entry, "ear", required=("kind", "arcs"))
            ears.append(Ear(entry["kind"], _arcs(entry["arcs"], "ear arcs")))
        # Symmetric ears pair each arc with its reverse along the traversal;
        # ordinary two-length cycle ears look the same, so additionally demand
        # a first cycle of >= 3 pairs, which only symmetric decompositions have.
        symmetric = bool(ears) and all(_is_paired(e) for e in ears) and ears[0].pair_count >= 3
        return cls(tuple(ears), symmetric=symmetric)


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
        raise ValueError(f"{where} must be {wanted}, got {_JSON_KINDS.get(type(value), 'a non-JSON value')}")
    return value


def _check_keys(obj: dict, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    """Raise ValueError unless obj is an object with every required key and no key beyond optional."""
    keys = set(required)
    if _expect(obj, where, dict).keys() == keys:
        return
    for problem, found in (("unknown", set(obj) - keys - set(optional)), ("missing", keys - set(obj))):
        if found:
            raise ValueError(f"{where}: {problem} keys {sorted(found)}")


def _number(value, where: str) -> float:
    """value, a JSON number (a boolean is none), as a float."""
    try:
        return float(_expect(value, where, int, float))
    except OverflowError:
        raise ValueError(f"{where} must be a number within the double range, got {value}") from None


def _array(value, where: str) -> np.ndarray:
    """value, a JSON array of numbers or of equally long arrays of them, as
    floats.  numpy alone would also read numeric strings and booleans."""
    leaves = _expect(value, where, list)
    try:
        out = np.array(leaves, dtype=float)
        for _ in range(out.ndim - 1):
            leaves = itertools.chain.from_iterable(leaves)
        if set(map(type, leaves)) <= {int, float}:
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{where} must be a rectangular array of numbers within the double range")


def _vertex(value, where: str) -> int:
    """value, a JSON integer that can number a vertex."""
    if type(value) is int and 0 < value <= MAX_VERTICES:
        return value
    _expect(value, where, int)
    raise ValueError(f"{where} must be a vertex number in 1..{MAX_VERTICES}, got {value}")


def _arcs(value, where: str) -> tuple[Arc, ...]:
    """value, a JSON array of [j, i] pairs of vertex numbers, as arcs."""
    pairs = _expect(value, where, list)
    ends = [v for pair in pairs if type(pair) is list and len(pair) == 2 for v in pair]
    integers = len(ends) == 2 * len(pairs) and set(map(type, ends)) <= {int}
    if not (integers and 0 < min(ends, default=1) and max(ends, default=1) <= MAX_VERTICES):
        raise ValueError(f"{where} must be an array of [j, i] pairs of vertex numbers in 1..{MAX_VERTICES}")
    return tuple(map(tuple, pairs))


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
        if (g.arc_indices(np.subtract(ear.arcs, 1)) < 0).any():
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


def _extend_to_visited(adj: dict[int, tuple[int, ...]], start: int, visited: set[int], back: int) -> list[Arc] | None:
    # Shortest continuation from an unvisited vertex into the visited set
    # through unvisited vertices, in sorted neighbor order, never stepping
    # from start straight to back (0 forbids nothing), or None if there is
    # none.  It grows every later ear, and closes the first ear from vertex 1
    # into a single vertex.
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
    return None


def _ears(g: DirectedGraph, symmetric: bool) -> EarDecomposition | None:
    # The first ear is the shortest route closed at vertex 1 (directed: from 1
    # to an in-neighbour, closed by its arc; symmetric: out along an edge and
    # back without retracing it).  Each later ear starts at the smallest unused
    # edge leaving the covered vertices: by arc key head * m + tail, or for a
    # symmetric ear by unordered pair, then the covered end (the smaller if
    # both are); it walks undirected edges, each lifted to both arcs, and may
    # not turn straight back.  None where the growth gets stuck: iff the graph
    # is not strongly connected (Whitney, 1932), or, symmetric, not connected
    # and bridgeless (Robbins, 1939).
    adj = g._out_neighbors
    ends = adj[1] if symmetric else g.in_neighbors(1)
    routes = [_extend_to_visited(adj, v, {1}, 1) if symmetric else _extend_to_visited(adj, 1, {v}, 0) for v in ends]
    if not routes or None in routes:
        return None
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
                key = ((v, w) if v < w else (w, v)) if symmetric else (w - 1) * g.m + v - 1
                heapq.heappush(ready, (key, v, w))

    attach("cycle", min(([(1, v)] + r if symmetric else r + [(v, 1)] for v, r in zip(ends, routes)), key=len))
    while len(used) < g.d and ready:
        _, u, v = heapq.heappop(ready)
        if (u, v) in used:
            continue
        path = [(u, v)]
        if v not in visited:
            route = _extend_to_visited(adj, v, visited, u if symmetric else 0)
            if route is None:
                return None
            path += route
        attach("cycle" if path[-1][1] == u else "path", path)
    if len(visited) < g.m:  # an arc the heap never held has an uncovered tail
        return None
    return EarDecomposition(tuple(ears), symmetric=symmetric)


def ear_decomposition(g: DirectedGraph) -> EarDecomposition:
    """One ear decomposition of a strongly connected graph.

    Starts from the shortest directed cycle through vertex 1, then repeatedly
    attaches the first unused arc (canonical order) whose tail is already
    covered, extended by a shortest route back into the covered set.  On
    symmetric graphs this yields only two-length cycles and single-arc paths.
    The growth itself refuses a graph that is not strongly connected.
    """
    if g.m < 2:
        raise ValueError("ear decomposition needs at least two vertices")
    if (dec := _ears(g, symmetric=False)) is None:
        raise ValueError("ear decomposition exists iff the graph is strongly connected")
    return dec


def symmetric_ear_decomposition(g: DirectedGraph) -> EarDecomposition:
    """A symmetric ear decomposition of a 2-connected symmetric graph.

    Works on the underlying undirected graph and lifts every traversed edge
    to its two arcs; pair_count per ear counts the two-length cycles.  The
    first ear is a shortest cycle through vertex 1; each later ear starts
    from the first unused pair (canonical order) that touches the covered
    vertices.  The growth itself refuses a graph that is not 2-connected.
    """
    if not is_symmetric(g):
        raise ValueError("symmetric ear decomposition needs a symmetric graph")
    if (dec := _ears(g, symmetric=True)) is None:
        raise ValueError("symmetric ear decomposition exists iff the graph is 2-connected")
    return dec


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
