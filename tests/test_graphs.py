import hashlib
import json
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limcon import (
    DirectedGraph,
    Ear,
    EarDecomposition,
    backlinked_cycle_graph,
    broadcast_pair_graph,
    chi,
    complete_symmetric,
    directed_cycle,
    directed_path,
    ear_decomposition,
    incidence_matrix,
    is_2_connected,
    is_directed_cycle,
    is_strongly_connected,
    is_symmetric,
    is_weakly_connected,
    symmetric_closure,
    symmetric_cycle,
    symmetric_ear_decomposition,
    symmetric_path,
    symmetric_star,
    validate_ear_decomposition,
)
from limcon.graphs import _bfs_levels, _component_labels

from oracles import canonical_arcs, is_symmetric_set, is_weakly_connected_bfs, pair_leads, reverse_positions


def test_canonical_ordering_is_agent_major():
    g = DirectedGraph(3, ((3, 2), (2, 1), (1, 2), (3, 1)))
    assert g.arcs == ((2, 1), (3, 1), (1, 2), (3, 2))
    assert g.arc_indices(np.array([[1, 0]])).tolist() == [0]


def test_arcs_with_an_end_outside_the_vertices_are_not_in_the_graph():
    # (5, 1) and (0, 2) would alias the keys of (1, 2) and (4, 1), which exist
    g = complete_symmetric(4)
    for arc in ((5, 1), (0, 1), (1, 5), (0, 2), (1, 0)):
        assert not g.has_arc(arc)
        with pytest.raises(ValueError, match="ear 0 uses arcs not in the graph"):
            validate_ear_decomposition(g, EarDecomposition((Ear("cycle", (arc,)),)))
    assert all(g.has_arc(arc) for arc in g.arcs)
    assert not DirectedGraph(2, ()).has_arc((0, 1))


def test_constructor_rejections():
    with pytest.raises(ValueError):
        DirectedGraph(2, ((1, 1),))
    with pytest.raises(ValueError):
        DirectedGraph(2, ((1, 2), (1, 2)))
    with pytest.raises(ValueError):
        DirectedGraph(2, ((1, 3),))
    with pytest.raises(ValueError):
        DirectedGraph(0, ())


@pytest.mark.parametrize(
    "m, arcs, message",
    [
        (3, ((1.9, 2), (2, 3)), r"end of arc \(1.9, 2\) must be an integer, got 1.9"),
        (2.5, ((1, 2),), "vertex count must be an integer, got 2.5"),
        (3, ((1, 2), (2, np.float64(3.0))), r"end of arc \(2, .*3.0\)\) must be an integer"),
        (3, [("1", "2")], "end of arc .* must be an integer, got '1'"),
    ],
)
def test_constructor_refuses_non_integers(m, arcs, message):
    with pytest.raises(ValueError, match=message):
        DirectedGraph(m, arcs)


@pytest.mark.parametrize("m", [10**30, 3_037_000_500, 0, True, np.True_])
def test_constructor_refuses_vertex_counts_whose_arc_keys_leave_int64(m):
    # head * m + tail must fit in an int64 for every arc; a boolean is no count
    with pytest.raises(ValueError, match="vertex count must be"):
        DirectedGraph(m, ((1, 2),))


def test_constructor_takes_numpy_integers():
    g = DirectedGraph(np.int64(3), ((np.int64(3), np.int32(1)), (np.uint8(1), 2)))
    assert g == DirectedGraph(3, ((3, 1), (1, 2)))
    # a boolean is no integer, even where numpy would read it as one
    with pytest.raises(ValueError, match=r"end of arc \(True, 3\) must be an integer, got True"):
        DirectedGraph(3, ((3, 1), (True, 3)))
    assert all(type(v) is int for arc in g.arcs for v in (g.m, *arc))
    assert DirectedGraph(3, np.array([[2, 1], [1, 2]])).arcs == ((2, 1), (1, 2))
    # ends beyond any fixed-width integer are out of range, not an overflow
    with pytest.raises(ValueError, match=r"arc \(1, 36893488147419103232\) out of range for m=3"):
        DirectedGraph(3, ((1, 2), (1, 2**65)))


@pytest.mark.parametrize("m", [1, 3])
def test_graph_without_arcs(m):
    g = DirectedGraph(m, ())
    assert g.arcs == () and g.arc_ends.shape == (0, 2) and g.reverse.shape == (0,)
    assert g.undirected_pairs == ()
    assert g.arc_indices(np.array([[0, 1]])).tolist() == [-1]
    assert is_symmetric(g)
    assert is_weakly_connected(g) == (m == 1)
    assert not g.arc_ends.flags.writeable and not g.reverse.flags.writeable


@st.composite
def arc_lists(draw):
    """Arc lists in any order, some given as sets, with out-of-range arcs,
    self-arcs and repeated arcs planted among valid ones."""
    m = draw(st.integers(1, 6))
    valid = st.tuples(st.integers(1, m), st.integers(1, m)).filter(lambda a: a[0] != a[1])
    arcs = draw(st.lists(valid, unique=True, max_size=m * (m - 1)))  # in any order
    if draw(st.booleans()):
        return m, set(arcs)
    outside = st.sampled_from([-1, 0, m + 1, 2 * m])
    faults = [
        st.tuples(outside, st.integers(1, m)),
        st.tuples(st.integers(1, m), outside),
        st.integers(1, m).map(lambda v: (v, v)),
    ]
    if arcs:
        faults.insert(0, st.sampled_from(arcs))  # a repeat of a valid arc
    for arc in draw(st.lists(st.one_of(faults), max_size=2)):
        arcs.insert(draw(st.integers(0, len(arcs))), arc)
    return m, tuple(arcs)


@settings(max_examples=500, deadline=None)
@given(arc_lists())
def test_constructor_matches_the_per_arc_oracle(case):
    m, arcs = case
    try:
        expected = canonical_arcs(m, arcs)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            DirectedGraph(m, arcs)
        assert str(got.value) == str(exc)
        return
    g = DirectedGraph(m, arcs)
    assert g.arcs == expected
    assert g.arc_ends.tolist() == [[j - 1, i - 1] for j, i in expected]
    assert g.reverse.tolist() == reverse_positions(expected)
    assert g.pair_lead.tolist() == pair_leads(expected)
    assert g.undirected_pairs == tuple(sorted({(min(arc), max(arc)) for arc in expected}))
    assert is_symmetric(g) == is_symmetric_set(expected)
    assert is_weakly_connected(g) == is_weakly_connected_bfs(m, expected)


def test_degree_sum_equals_arc_count(sc_corpus):
    for g in sc_corpus.values():
        assert sum(g.degree(v) for v in range(1, g.m + 1)) == g.d


def test_neighbors_are_sorted_and_a_vertex_without_arcs_has_none(sc_corpus):
    rng = np.random.default_rng(3)
    for g in sc_corpus.values():
        arcs = [g.arcs[k] for k in rng.permutation(g.d)]
        h = DirectedGraph(g.m + 1, tuple(arcs))  # vertex m + 1 has no arcs
        for v in range(1, h.m + 1):
            assert h.in_neighbors(v) == tuple(sorted(j for j, i in arcs if i == v))
            assert h.out_neighbors(v) == tuple(sorted(i for j, i in arcs if j == v))
        assert h.degree(h.m) == 0 and h.out_neighbors(h.m) == ()


def test_weak_connectivity():
    assert is_weakly_connected(directed_path(3))
    assert not is_weakly_connected(DirectedGraph(2, ()))
    assert is_weakly_connected(broadcast_pair_graph())


def test_strong_connectivity():
    assert is_strongly_connected(directed_cycle(3))
    assert not is_strongly_connected(directed_path(3))
    assert is_strongly_connected(backlinked_cycle_graph())
    assert not is_strongly_connected(broadcast_pair_graph())


def test_symmetry():
    assert is_symmetric(DirectedGraph(2, ((1, 2), (2, 1))))
    assert not is_symmetric(directed_cycle(3))
    for g in (symmetric_cycle(3), symmetric_star(4), complete_symmetric(4)):
        assert is_symmetric(g)
        assert g.d % 2 == 0  # symmetric arc counts are even


def test_two_connectivity():
    assert is_2_connected(symmetric_cycle(3))
    assert is_2_connected(symmetric_cycle(4))
    assert not is_2_connected(symmetric_path(3))
    assert not is_2_connected(DirectedGraph(2, ((1, 2), (2, 1))))
    with pytest.raises(ValueError):
        is_2_connected(directed_cycle(3))


def test_incidence_single_arc():
    g = DirectedGraph(2, ((1, 2),))
    col = incidence_matrix(g)[:, 0]
    assert np.array_equal(col, [-1.0, 1.0])


def test_incidence_matches_a_loop_over_the_arcs(sc_corpus):
    for g in [*sc_corpus.values(), DirectedGraph(3, ())]:
        loop = np.zeros((g.m, g.d))
        for k, (j, i) in enumerate(g.arcs):
            loop[i - 1, k], loop[j - 1, k] = 1.0, -1.0
        assert np.array_equal(incidence_matrix(g), loop)


def test_incidence_columns_sum_to_zero(sc_corpus):
    for g in sc_corpus.values():
        j = incidence_matrix(g)
        assert np.array_equal(j.sum(axis=0), np.zeros(g.d))


def test_incidence_rank_on_weakly_connected(sc_corpus):
    for g in sc_corpus.values():
        assert np.linalg.matrix_rank(incidence_matrix(g)) == g.m - 1
    # the path is weakly connected too
    assert np.linalg.matrix_rank(incidence_matrix(directed_path(4))) == 3


def test_graph_text_roundtrip():
    g = backlinked_cycle_graph()
    assert DirectedGraph.from_text("3 4\n1 2\n2 3\n3 1\n2 1\n") == g
    with pytest.raises(ValueError):
        DirectedGraph.from_text("3 2\n1 2\n")
    with pytest.raises(ValueError):
        DirectedGraph.from_text("not a header")


def test_ear_decomposition_on_cycles():
    for m in range(2, 7):
        dec = ear_decomposition(directed_cycle(m))
        assert len(dec) == 1
        assert dec.ears[0].kind == "cycle"
        assert dec.max_length == m


def test_ear_decomposition_backlinked_has_two_ears():
    dec = ear_decomposition(backlinked_cycle_graph())
    assert len(dec) == 2  # e - m + 1 = 4 - 3 + 1


def test_ear_decomposition_complete_symmetric_triangle():
    g = complete_symmetric(3)
    dec = ear_decomposition(g)
    assert len(dec) == g.d - g.m + 1 == 4


def test_ear_decomposition_validity_and_count(sc_corpus):
    for name, g in sc_corpus.items():
        dec = ear_decomposition(g)
        validate_ear_decomposition(g, dec)
        assert len(dec) == g.d - g.m + 1, name


def test_ear_decomposition_deterministic(sc_corpus):
    for g in sc_corpus.values():
        assert ear_decomposition(g) == ear_decomposition(g)


def test_ear_decomposition_rejects_non_strongly_connected():
    with pytest.raises(ValueError):
        ear_decomposition(directed_path(3))
    with pytest.raises(ValueError):
        ear_decomposition(DirectedGraph(1, ()))


def test_symmetric_graphs_decompose_into_short_ears(sc_corpus):
    # pair-cycles and single arcs only, which is what makes chi = 2 work
    for name, g in sc_corpus.items():
        if is_symmetric(g):
            assert ear_decomposition(g).max_length <= 2, name


def test_validity_oracle_catches_bad_decompositions():
    g = backlinked_cycle_graph()
    good = ear_decomposition(g)
    # drop an ear: no longer a partition
    with pytest.raises(ValueError):
        validate_ear_decomposition(g, EarDecomposition(good.ears[:1]))
    # first ear must be a cycle
    from limcon import Ear

    bad = EarDecomposition((Ear("path", ((1, 2), (2, 3))), Ear("cycle", ((3, 1), (1, 2)))))
    with pytest.raises(ValueError):
        validate_ear_decomposition(g, bad)


def test_symmetric_ear_decomposition_triangle():
    dec = symmetric_ear_decomposition(symmetric_cycle(3))
    assert dec.symmetric
    assert len(dec) == 1
    assert dec.ears[0].pair_count == 3
    assert dec.ears[0].length == 6


def test_symmetric_ear_decomposition_validity(sym_corpus):
    for name, g in sym_corpus.items():
        dec = symmetric_ear_decomposition(g)
        validate_ear_decomposition(g, dec)
        assert len(dec) == g.d // 2 - g.m + 1, name
        for ear in dec.ears:
            assert ear.length == 2 * ear.pair_count


def test_symmetric_ear_decomposition_rejections():
    with pytest.raises(ValueError):
        symmetric_ear_decomposition(symmetric_path(2))
    with pytest.raises(ValueError):
        symmetric_ear_decomposition(directed_cycle(3))


def test_chi_on_directed_cycles():
    for m in range(2, 7):
        assert chi(directed_cycle(m)) == m


def test_chi_symmetric_strongly_connected_is_two(sc_corpus):
    for name, g in sc_corpus.items():
        if is_symmetric(g):
            assert chi(g) == 2, name


def test_chi_backlinked_cycle():
    assert chi(backlinked_cycle_graph()) == 2


def test_chi_two_triangles_sharing_a_vertex():
    # every cycle has three arcs, so no decomposition beats max length 3
    g = DirectedGraph(5, ((1, 2), (2, 3), (3, 1), (1, 4), (4, 5), (5, 1)))
    assert chi(g) == 3


def test_chi_lower_bound(sc_corpus):
    for name, g in sc_corpus.items():
        if g.d <= 16 and g.m <= 8:
            assert chi(g) >= 2, name


def test_chi_cap_is_enforced():
    big = complete_symmetric(5)  # 20 arcs
    with pytest.raises(ValueError, match="enumeration infeasible"):
        chi(big)
    assert chi(big, max_arcs=20, max_vertices=8) == 2


def test_is_directed_cycle():
    assert is_directed_cycle(directed_cycle(4))
    assert not is_directed_cycle(directed_path(3))
    assert not is_directed_cycle(backlinked_cycle_graph())


def test_decomposition_json_roundtrip(sc_corpus):
    for g in sc_corpus.values():
        dec = ear_decomposition(g)
        again = EarDecomposition.from_json(dec.to_json())
        assert again.ears == dec.ears
    sym = symmetric_ear_decomposition(symmetric_cycle(4))
    again = EarDecomposition.from_json(sym.to_json())
    assert again.symmetric and again.ears == sym.ears


def test_decomposition_json_keeps_pair_cycle_decompositions_ordinary():
    # an all-pair-cycle decomposition of a symmetric tree is reversal-closed
    # yet must re-import as an ordinary decomposition, not a symmetric one
    tree = DirectedGraph(3, ((1, 2), (2, 1), (1, 3), (3, 1)))
    dec = ear_decomposition(tree)
    again = EarDecomposition.from_json(dec.to_json())
    assert not again.symmetric
    validate_ear_decomposition(tree, again)


@st.composite
def symmetric_graphs(draw, max_m=9):
    m = draw(st.integers(1, max_m))
    pairs = draw(st.sets(st.tuples(st.integers(1, m), st.integers(1, m)).filter(lambda e: e[0] < e[1])))
    return DirectedGraph(m, tuple(arc for a, b in pairs for arc in ((a, b), (b, a))))


def _undirected(g):
    graph = nx.Graph()
    graph.add_nodes_from(range(1, g.m + 1))
    graph.add_edges_from(g.undirected_pairs)
    return graph


def _shortest_cycle_length_through(graph, root):
    # close a shortest detour around each edge at the root
    lengths = []
    for w in list(graph.neighbors(root)):
        graph.remove_edge(root, w)
        if nx.has_path(graph, w, root):
            lengths.append(nx.shortest_path_length(graph, w, root) + 1)
        graph.add_edge(root, w)
    return min(lengths)


@settings(max_examples=300, deadline=None)
@given(symmetric_graphs())
def test_two_connectivity_is_connected_and_bridgeless(g):
    graph = _undirected(g)
    assert is_2_connected(g) == (nx.is_connected(graph) and not nx.has_bridges(graph))


@settings(max_examples=300, deadline=None)
@given(symmetric_graphs())
def test_symmetric_ear_decomposition_properties(g):
    if g.m < 2 or not is_2_connected(g):
        with pytest.raises(ValueError, match="2-connected"):
            symmetric_ear_decomposition(g)
        return
    dec = symmetric_ear_decomposition(g)
    validate_ear_decomposition(g, dec)
    first = dec.ears[0]
    assert first.arcs[0][0] == 1
    assert first.pair_count == _shortest_cycle_length_through(_undirected(g), 1)


@st.composite
def refusable_graphs(draw):
    """Digraphs on 1-8 vertices of any density, some around a Hamiltonian
    cycle 1 -> 2 -> ... -> m -> 1 and some shaped for refusal: a vertex
    without arcs, a vertex 1 without in-neighbours, two cycles joined
    by one arc pair away from vertex 1 (strongly connected, but its closure
    has a bridge), or m arcs forming two or more disjoint cycles."""
    m = draw(st.integers(1, 8))
    arcs = draw(st.sets(st.tuples(st.integers(1, m), st.integers(1, m)).filter(lambda a: a[0] != a[1])))
    shape = draw(st.sampled_from(["any", "hamiltonian", "isolated", "no arc into 1", "bridge", "cycles"]))
    if shape == "hamiltonian" and m >= 2:
        arcs |= {(v, v % m + 1) for v in range(1, m + 1)}
    elif shape == "isolated":
        v = draw(st.integers(1, m))
        arcs = {a for a in arcs if v not in a}
    elif shape == "no arc into 1":
        arcs = {(j, i) for j, i in arcs if i != 1}
    elif shape == "bridge" and m >= 6:
        cut = draw(st.integers(3, m - 3))  # the halves 1..cut and cut+1..m
        arcs = {(j, i) for j, i in arcs if (j <= cut) == (i <= cut)}
        arcs |= {(v, v % cut + 1) for v in range(1, cut + 1)}
        arcs |= {(v, v + 1 if v < m else cut + 1) for v in range(cut + 1, m + 1)}
        a, b = draw(st.integers(2, cut)), draw(st.integers(cut + 1, m))
        arcs |= {(a, b), (b, a)}
    elif shape == "cycles" and m >= 4:
        order = draw(st.permutations(range(1, m + 1)))
        cuts = [0] + sorted(draw(st.sets(st.sampled_from(range(2, m - 1, 2)), min_size=1))) + [m]
        arcs = set()
        for start, stop in zip(cuts, cuts[1:]):
            piece = order[start:stop]
            arcs |= {(v, piece[(k + 1) % len(piece)]) for k, v in enumerate(piece)}
    return DirectedGraph(m, tuple(arcs))


@settings(max_examples=500, deadline=None)
@given(refusable_graphs())
def test_the_growth_refuses_exactly_what_networkx_refuses(g):
    # the decompositions' own growth is their only connectivity check, so
    # networkx, not is_2_connected, says which graphs they must refuse
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(1, g.m + 1))
    digraph.add_edges_from(g.arcs)
    strong = nx.is_strongly_connected(digraph)
    if g.m < 2:
        with pytest.raises(ValueError, match="at least two vertices"):
            ear_decomposition(g)
    elif strong:
        validate_ear_decomposition(g, ear_decomposition(g))
    else:
        with pytest.raises(ValueError, match="iff the graph is strongly connected"):
            ear_decomposition(g)
    closure = symmetric_closure(g)
    graph = _undirected(closure)
    if g.m >= 2 and nx.is_connected(graph) and not nx.has_bridges(graph):
        validate_ear_decomposition(closure, symmetric_ear_decomposition(closure))
    else:
        with pytest.raises(ValueError, match="iff the graph is 2-connected"):
            symmetric_ear_decomposition(closure)
    one_in_one_out = all(digraph.in_degree(v) == 1 and digraph.out_degree(v) == 1 for v in digraph)
    assert is_directed_cycle(g) == (g.m >= 2 and one_in_one_out and strong)


@st.composite
def strongly_connected_graphs(draw):
    """A Hamiltonian cycle in random vertex order plus up to 12 random arcs."""
    m = draw(st.integers(2, 8))
    perm = draw(st.permutations(range(1, m + 1)))
    extra = draw(st.lists(st.tuples(st.integers(1, m), st.integers(1, m)), max_size=12))
    arcs = {(perm[k], perm[(k + 1) % m]) for k in range(m)} | {(j, i) for j, i in extra if j != i}
    return DirectedGraph(m, tuple(arcs))


@settings(max_examples=200, deadline=None)
@given(strongly_connected_graphs())
def test_ear_decomposition_validates_on_random_strongly_connected(g):
    validate_ear_decomposition(g, ear_decomposition(g))


@settings(max_examples=300, deadline=None)
@given(strongly_connected_graphs())
def test_later_ears_start_at_the_smallest_unused_arc_with_a_covered_tail(g):
    # pins the order of the ear heap: its keys must sort as the canonical index does
    used: set = set()
    covered: set = set()
    for idx, ear in enumerate(ear_decomposition(g).ears):
        if idx:
            first = min(k for k, (j, i) in enumerate(g.arcs) if (j, i) not in used and j in covered)
            assert ear.arcs[0] == g.arcs[first]
        used |= set(ear.arcs)
        covered |= {v for arc in ear.arcs for v in arc}


def test_long_cycle_decomposes_without_recursion():
    g = symmetric_cycle(5000)
    assert is_2_connected(g)
    dec = symmetric_ear_decomposition(g)
    assert len(dec) == 1 and dec.ears[0].pair_count == 5000
    validate_ear_decomposition(g, dec)
    assert not is_2_connected(symmetric_path(5000))


def test_shortest_first_ear_follows_lexicographic_order():
    # two triangles through vertex 1: (1, 2, 3) and (1, 4, 5); the ear takes
    # the smaller first hop, then the smaller way back
    g = symmetric_closure(DirectedGraph(5, ((1, 2), (2, 3), (3, 1), (1, 4), (4, 5), (5, 1))))
    assert symmetric_ear_decomposition(g).ears[0].arcs[::2] == ((1, 2), (2, 3), (3, 1))
    # even length: square 1-2-4-3-1 with the apex 4 reached from both sides
    square = symmetric_closure(DirectedGraph(4, ((1, 2), (1, 3), (2, 4), (3, 4))))
    assert symmetric_ear_decomposition(square).ears[0].arcs[::2] == ((1, 2), (2, 4), (4, 3), (3, 1))
    # directed: two triangles back into 1, through 5 and through 4; BFS from 1
    # reaches 5 first, but the ear closes through the smaller in-neighbour 4
    g = DirectedGraph(5, ((1, 2), (1, 3), (2, 5), (3, 4), (5, 1), (4, 1)))
    assert ear_decomposition(g).ears[0].arcs == ((1, 3), (3, 4), (4, 1))


def test_validator_rejects_bad_symmetric_decompositions():
    from limcon import Ear

    g = symmetric_cycle(4)
    good = symmetric_ear_decomposition(g)
    unpaired = Ear("cycle", good.ears[0].arcs[1:] + good.ears[0].arcs[:1])
    with pytest.raises(ValueError, match="forward/reverse pairs"):
        validate_ear_decomposition(g, EarDecomposition((unpaired,), symmetric=True))
    two_pairs = Ear("cycle", ((1, 2), (2, 1), (2, 1), (1, 2)))
    with pytest.raises(ValueError, match="must close over >= 3 pairs"):
        validate_ear_decomposition(g, EarDecomposition((two_pairs,), symmetric=True))
    with pytest.raises(ValueError, match="symmetric ears do not partition"):
        validate_ear_decomposition(complete_symmetric(4), good)


def _decomposition_corpus():
    # seeded random strongly connected graphs and their 2-connected symmetric
    # closures, plus a long ring and a dense complete graph
    from conftest import random_strongly_connected

    rng = np.random.default_rng(5150)
    directed, symmetric = [symmetric_cycle(100), complete_symmetric(16)], [symmetric_cycle(100), complete_symmetric(16)]
    for _ in range(300):
        m = int(rng.integers(2, 16))
        g = random_strongly_connected(rng, m, extra_arcs=int(rng.integers(0, 3 * m)))
        directed.append(g)
        closure = symmetric_closure(g)
        if m > 2 and is_2_connected(closure):
            directed.append(closure)
            symmetric.append(closure)
    return directed, symmetric


def test_decompositions_match_the_pinned_digest():
    # pins which later ears both decompositions choose, not just validity
    directed, symmetric = _decomposition_corpus()
    assert len(symmetric) > 150
    payload = json.dumps(
        [ear_decomposition(g).to_json() for g in directed] + [symmetric_ear_decomposition(g).to_json() for g in symmetric]
    )
    assert hashlib.sha256(payload.encode()).hexdigest() == "762a325e1448be91ee6e91a1b9cef5da269efcc31956021e480210c3ba1b13a5"


@st.composite
def searchable_graphs(draw):
    """Digraphs on 1-12 vertices: random arcs, some with vertices without
    arcs, some split into components with a directed cycle each, some two
    such parts joined by a one-way bridge, or by a bridge each way."""
    m = draw(st.integers(1, 12))
    arcs = draw(st.sets(st.tuples(st.integers(1, m), st.integers(1, m)).filter(lambda a: a[0] != a[1]), max_size=3 * m))
    shape = draw(st.sampled_from(["any", "isolated", "components", "one-way bridge", "two-way bridge"]))
    if shape == "isolated":
        gone = draw(st.sets(st.integers(1, m)))
        arcs = {a for a in arcs if not gone & set(a)}
    elif shape != "any":
        part = draw(st.lists(st.integers(0, 2 if shape == "components" else 1), min_size=m, max_size=m))
        arcs = {(j, i) for j, i in arcs if part[j - 1] == part[i - 1]}
        members = [[v for v in range(1, m + 1) if part[v - 1] == p] for p in sorted(set(part))]
        for piece in members:
            arcs |= {(v, piece[(k + 1) % len(piece)]) for k, v in enumerate(piece) if len(piece) > 1}
        if shape != "components" and len(members) == 2:
            a, b = draw(st.sampled_from(members[0])), draw(st.sampled_from(members[1]))
            arcs.add((a, b))
            if shape == "two-way bridge":
                arcs.add((draw(st.sampled_from(members[1])), draw(st.sampled_from(members[0]))))
    return DirectedGraph(m, tuple(arcs))


@settings(max_examples=500, deadline=None)
@given(searchable_graphs())
def test_strong_connectivity_and_levels_equal_networkx(g):
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(g.m))
    digraph.add_edges_from(g.arc_ends.tolist())
    assert is_strongly_connected(g) == nx.is_strongly_connected(digraph)
    # each component's layers from its first agent of least skeleton degree
    skeleton = digraph.to_undirected()
    expected, seen = [], set()
    for root in sorted(digraph, key=digraph.degree):
        if root not in seen:
            layers = list(nx.bfs_layers(skeleton, root))
            expected += map(set, layers)
            seen.update(*layers)
    order, starts = _bfs_levels(g)
    assert [set(order[a:b].tolist()) for a, b in zip(starts, starts[1:])] == expected
    assert starts[-1] == g.m


@settings(max_examples=300, deadline=None)
@given(m=st.integers(0, 30), data=st.data())
def test_component_labels_number_networkx_components_by_first_agent(m, data):
    # loops, repeated edges and isolated agents included
    agent = st.integers(0, m - 1)
    edges = data.draw(st.lists(st.tuples(agent, agent), max_size=3 * m)) if m else []
    edges = np.array(edges, dtype=np.intp).reshape(-1, 2)
    graph = nx.Graph()
    graph.add_nodes_from(range(m))
    graph.add_edges_from(edges.tolist())
    expected = np.zeros(m, dtype=np.intp)
    for label, component in enumerate(sorted(nx.connected_components(graph), key=min)):
        expected[sorted(component)] = label
    labels = _component_labels(m, edges)
    assert labels.dtype == np.intp
    assert labels.tolist() == expected.tolist()


def test_levels_match_the_pinned_digest():
    # pins the order within each level, which the networkx layers leave open
    rng = np.random.default_rng(3030)
    graphs = [symmetric_cycle(100), directed_cycle(100), complete_symmetric(16)]
    for _ in range(400):
        m = int(rng.integers(1, 31))
        arcs = {(int(j), int(i)) for j, i in rng.integers(1, m + 1, size=(int(rng.integers(0, 3 * m + 1)), 2)) if j != i}
        graphs.append(DirectedGraph(m, tuple(arcs)))
    payload = json.dumps([[part.tolist() for part in _bfs_levels(g)] for g in graphs])
    assert hashlib.sha256(payload.encode()).hexdigest() == "0b787aa8ef20c195ae433d0fb1bf882bf808d520cd595020675e82305c95561e"


def test_the_searches_hold_only_what_they_reach():
    # a billion vertices and one arc pair: no visited array of size m
    tracemalloc.start()
    try:
        g = DirectedGraph(10**9, ((1, 2), (2, 1)))
        assert not is_strongly_connected(g)
        with pytest.raises(ValueError, match="strongly connected"):
            chi(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
