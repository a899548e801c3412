import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limcon import (
    DirectedGraph,
    EarDecomposition,
    InfeasibleSynthesisError,
    WeightedNeighborGraph,
    backlinked_cycle_criterion,
    backlinked_cycle_graph,
    broadcast_pair_criterion,
    broadcast_pair_graph,
    complete_symmetric,
    consensus_error,
    cycle_criterion,
    directed_cycle,
    directed_path,
    disagreement_overlap_dim,
    ear_decomposition,
    identity_weights,
    incidence_matrix,
    is_well_configured,
    is_well_configured_via_overlap,
    local_agreement_residual,
    symmetric_closure,
    symmetric_cycle,
    symmetric_ear_decomposition,
    synthesize_symmetric_weights,
    synthesize_weights,
    weights_from_json,
    weights_to_json,
)
from limcon.linalg import kernel_basis
from limcon.wellconfig import (
    RANK_RTOL,
    SYNTHESIS_MODES,
    _kernels,
    _pair_stacks,
    _pair_values,
    _proves_by_ears,
    agreement_map,
)

from conftest import (
    random_strongly_connected,
    random_subspace,
    random_weakly_connected_wng,
    weight_with_kernel,
)
from oracles import (
    agreement_map_kron,
    agreement_nullity_dense,
    brute_force_independent,
    consensus_span,
    disagreement_overlap_dim_dense,
    exact_nullity,
    intersection_dense,
    row_space_basis,
    subspaces_equal,
)


def cycle_wng(kernels):
    """Cycle 1 -> 2 -> ... -> m -> 1 whose arc into vertex i+1 has kernels[i]."""
    m = len(kernels)
    n = kernels[0].shape[0]
    g = directed_cycle(m)
    weights = {(v, v % m + 1): weight_with_kernel(kernels[v - 1]) for v in range(1, m + 1)}
    return WeightedNeighborGraph(g, n, weights)


def test_wng_validation():
    g = directed_path(2)
    with pytest.raises(ValueError, match="columns"):
        WeightedNeighborGraph(g, 2, {(1, 2): np.eye(3)})
    with pytest.raises(ValueError, match="cover the arc set"):
        WeightedNeighborGraph(g, 2, {})
    with pytest.raises(ValueError, match="cover the arc set"):
        WeightedNeighborGraph(g, 2, {(1, 2): np.eye(2), (2, 1): np.eye(2)})
    with pytest.raises(ValueError, match=r"arc \(1, 2\) has non-finite entries"):
        WeightedNeighborGraph(g, 2, {(1, 2): [[1.0, np.nan]]})
    with pytest.raises(ValueError, match=r"arc \(1, 2\) must be a matrix, has shape \(1, 2, 2\)"):
        WeightedNeighborGraph(g, 2, {(1, 2): np.ones((1, 2, 2))})
    # canonical order (4, 1), (1, 2), (2, 3), (3, 4): the first bad arc is
    # named, past an arc without rows
    weights = {(4, 1): np.zeros((0, 2)), (1, 2): np.eye(2), (2, 3): [[np.inf, 0.0]], (3, 4): [[np.nan, 0.0]]}
    with pytest.raises(ValueError, match=r"arc \(2, 3\) has non-finite entries"):
        WeightedNeighborGraph(directed_cycle(4), 2, weights)


@pytest.mark.parametrize(
    "weight, columns",
    [(np.zeros((0, 4)), 4), (np.zeros((2, 0)), 0), ([[]], 0), ([[], []], 0)],
    ids=["zero-rows-of-4", "two-rows-of-0", "one-empty-row", "two-empty-rows"],
)
def test_empty_weights_with_the_wrong_column_count_are_refused(weight, columns):
    with pytest.raises(ValueError, match=rf"^weight for arc \(1, 2\) must have 3 columns, has {columns}$"):
        WeightedNeighborGraph(directed_cycle(2), 3, {(1, 2): weight, (2, 1): np.eye(3)})


def test_weights_are_read_only_views_of_one_buffer():
    w = synthesize_symmetric_weights(symmetric_cycle(4), 2)
    with pytest.raises(TypeError):
        w.weights[(1, 2)] = np.zeros((1, 2))
    with pytest.raises(ValueError, match="read-only"):
        w.weight((1, 2))[0, 0] = 0.0
    # disjoint views, so np.shares_memory between two of them is False; each
    # overlaps the one stacked buffer instead
    a, b = w.weight((1, 2)), w.weight((3, 4))
    assert a.base is b.base is w.rows
    assert all(np.shares_memory(w.weight(arc), w.rows) for arc in w.graph.arcs)


def test_normalized_has_orthonormal_rows_and_same_verdict():
    rng = np.random.default_rng(0)
    for _ in range(10):
        w = random_weakly_connected_wng(rng)
        wn = w.normalized()
        for arc in w.graph.arcs:
            c = wn.weight(arc)
            assert np.allclose(c @ c.T, np.eye(c.shape[0]), atol=1e-12)
            assert subspaces_equal(w.kernel(arc), wn.kernel(arc))
        assert bool(is_well_configured(w)) == bool(is_well_configured(wn))


def test_identity_weights_well_configured_on_weakly_connected():
    for g in (directed_path(4), broadcast_pair_graph(), symmetric_cycle(3)):
        for n in (1, 2, 3):
            report = is_well_configured(identity_weights(g, n))
            assert report.well_configured
            assert report.kernel_dim == n


def test_lossy_path_rejected_with_witness():
    g = directed_path(3)
    w = WeightedNeighborGraph(g, 2, {(1, 2): np.array([[1.0, 0.0]]), (2, 3): np.eye(2)})
    report = is_well_configured(w)
    assert not report.well_configured
    x = report.witness
    assert x.shape == (3, 2)
    assert local_agreement_residual(w, x) < 1e-9
    assert consensus_error(x) > 1e-3
    # the witness moves the downstream agents along the hidden direction
    assert abs(x[0, 1] - x[1, 1]) > 1e-3 or abs(x[1, 1] - x[2, 1]) > 1e-3


def test_path_well_configured_only_with_trivial_kernels():
    rng = np.random.default_rng(1)
    for m in (2, 3, 4, 5):
        g = directed_path(m)
        n = 3
        # any single nontrivial kernel breaks it
        for bad_pos in range(m - 1):
            weights = {}
            for k, arc in enumerate((v, v + 1) for v in range(1, m)):
                dim = 1 if k == bad_pos else 0
                weights[arc] = weight_with_kernel(random_subspace(rng, n, dim))
            w = WeightedNeighborGraph(g, n, weights)
            assert not is_well_configured(w)
        # all trivial kernels: fine
        w = identity_weights(g, n)
        assert is_well_configured(w)


def test_refuses_disconnected_graphs():
    g = DirectedGraph(4, ((1, 2), (3, 4)))
    w = identity_weights(g, 2)
    with pytest.raises(ValueError, match="weakly connected"):
        is_well_configured(w)
    with pytest.raises(ValueError, match="weakly connected"):
        is_well_configured_via_overlap(w)


def test_lifted_incidence_kernel_is_consensus_span():
    for g in (directed_path(4), broadcast_pair_graph(), symmetric_cycle(3)):
        for n in (1, 2, 3):
            kernel = kernel_basis(np.kron(incidence_matrix(g), np.eye(n)).T)
            assert kernel.shape[1] == n
            assert subspaces_equal(kernel, consensus_span(g.m, n))


def test_consensus_always_in_agreement_kernel():
    from limcon.wellconfig import agreement_map

    rng = np.random.default_rng(2)
    for _ in range(10):
        w = random_weakly_connected_wng(rng)
        kernel = kernel_basis(agreement_map(w))
        base = consensus_span(w.m, w.n)
        resid = base - kernel @ (kernel.T @ base)
        assert np.abs(resid).max() < 1e-9


def test_both_formulations_agree_randomized():
    rng = np.random.default_rng(3)
    for _ in range(80):
        w = random_weakly_connected_wng(rng)
        assert bool(is_well_configured(w)) == is_well_configured_via_overlap(w)


def test_verdict_invariant_under_arc_reordering():
    rng = np.random.default_rng(4)
    for _ in range(40):
        w = random_weakly_connected_wng(rng)
        base = bool(is_well_configured(w))
        perm = [w.graph.arcs[k] for k in rng.permutation(w.graph.d)]
        assert bool(is_well_configured(w, arc_order=perm)) == base


def test_arc_order_must_be_permutation():
    w = identity_weights(directed_path(3), 2)
    with pytest.raises(ValueError, match="permutation"):
        is_well_configured(w, arc_order=[(1, 2), (1, 2)])


def test_cycle_criterion_coordinate_kernels():
    for m in (2, 3, 4, 5):
        for n in (2, 3, 4):
            e = np.eye(n)
            kernels = [e[:, [k % n]] for k in range(m)]
            assert cycle_criterion(kernels) == (m <= n)


def test_cycle_criterion_trivial_kernels():
    assert cycle_criterion([np.zeros((3, 0))] * 4)


def test_cycle_criterion_matches_verifier():
    rng = np.random.default_rng(5)
    for _ in range(60):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 5))
        kernels = [random_subspace(rng, n, int(rng.integers(0, n))) for _ in range(m)]
        expected = cycle_criterion(kernels)
        assert bool(is_well_configured(cycle_wng(kernels))) == expected


def test_broadcast_pair_criterion_examples():
    e3 = np.eye(3)
    # distinct axes: independent even though every kernel is nonzero
    assert broadcast_pair_criterion(e3[:, [0]], e3[:, [0]], e3[:, [1]], e3[:, [2]])
    # repeated broadcast kernel: dependent
    assert not broadcast_pair_criterion(e3[:, [0]], e3[:, [0]], e3[:, [0]], e3[:, [0]])
    # trivial pair intersection with independent broadcast kernels
    assert broadcast_pair_criterion(e3[:, [0]], e3[:, [1]], e3[:, [1]], e3[:, [2]])


def test_broadcast_pair_criterion_matches_verifier():
    rng = np.random.default_rng(7)
    g = broadcast_pair_graph()
    for _ in range(60):
        n = int(rng.integers(2, 5))
        k12, k21, k31, k32 = (random_subspace(rng, n, int(rng.integers(0, n))) for _ in range(4))
        w = WeightedNeighborGraph(
            g,
            n,
            {
                (1, 2): weight_with_kernel(k12),
                (2, 1): weight_with_kernel(k21),
                (3, 1): weight_with_kernel(k31),
                (3, 2): weight_with_kernel(k32),
            },
        )
        assert bool(is_well_configured(w)) == broadcast_pair_criterion(k12, k21, k31, k32)


def test_backlinked_cycle_criterion_examples():
    e2 = np.eye(2)
    # equal pair kernels with trivial cross intersection: accepted
    assert backlinked_cycle_criterion(e2[:, [1]], e2[:, [1]], e2[:, [0]], e2[:, [0]])
    # repeated nonzero kernels on the cycle: rejected
    assert not backlinked_cycle_criterion(e2[:, [1]], e2[:, [0]], e2[:, [0]], e2[:, [1]])
    trivial = np.zeros((2, 0))
    assert backlinked_cycle_criterion(trivial, trivial, trivial, trivial)


def test_backlinked_cycle_criterion_matches_verifier():
    rng = np.random.default_rng(8)
    g = backlinked_cycle_graph()
    for _ in range(60):
        n = int(rng.integers(2, 5))
        k1, k2, k3, k4 = (random_subspace(rng, n, int(rng.integers(0, n))) for _ in range(4))
        w = WeightedNeighborGraph(
            g,
            n,
            {
                (1, 2): weight_with_kernel(k1),
                (2, 3): weight_with_kernel(k2),
                (3, 1): weight_with_kernel(k3),
                (2, 1): weight_with_kernel(k4),
            },
        )
        assert bool(is_well_configured(w)) == backlinked_cycle_criterion(k1, k2, k3, k4)


def test_trivial_kernels_never_break_independence():
    e, empty = np.eye(3), np.zeros((3, 0))
    assert cycle_criterion([e[:, [0]], empty, e[:, [1]]])
    assert cycle_criterion([empty, empty])
    assert broadcast_pair_criterion(empty, e[:, :2], e[:, [0]], e[:, [1, 2]])
    assert backlinked_cycle_criterion(e[:, :2], e[:, [2]], empty, e[:, 1:])


@pytest.mark.parametrize("criterion", [broadcast_pair_criterion, backlinked_cycle_criterion])
def test_pair_criteria_pin_the_pair_intersection(criterion):
    # k_a and k_b share `common` directions (plus one more when `meet` is 1),
    # and the two other kernels split the complement of the first `common`
    # exactly: independent iff the pair meets in those `common` alone
    rng = np.random.default_rng(16)
    for n, common, extra_a, extra_b in ((3, 1, 1, 1), (4, 0, 2, 2), (6, 2, 1, 3), (8, 0, 3, 4), (5, 3, 1, 0), (7, 2, 4, 1)):
        q = random_subspace(rng, n, common + extra_a + extra_b)
        rest = np.hstack([q[:, common:], kernel_basis(q.T)])  # the complement of the common span
        split = int(rng.integers(0, n - common + 1))
        others = rest[:, :split], rest[:, split:]
        for meet in (0, 1):
            a = q[:, : common + extra_a]
            b = np.hstack([q[:, : common + meet], q[:, common + extra_a :]])
            a, b = (x @ np.linalg.qr(rng.standard_normal((x.shape[1],) * 2))[0] for x in (a, b))
            assert intersection_dense(a, b).shape == (n, common + meet)
            for ka, kb in ((a, b), (b, a)):
                want = brute_force_independent([intersection_dense(ka, kb), *others])
                assert want == (meet == 0)
                if criterion is broadcast_pair_criterion:
                    assert criterion(ka, kb, *others) == want
                else:
                    assert criterion(ka, others[0], others[1], kb) == want


def test_backlinked_criterion_takes_rotated_bases_of_one_plane():
    # k1 and k4 span one plane: every sine between them is roundoff, and the
    # pair {1, 2} has the whole plane as its kernel
    rng = np.random.default_rng(13)
    for n in (2, 3, 5, 6):
        plane = random_subspace(rng, n, 2)
        rotated = plane @ np.linalg.qr(rng.standard_normal((2, 2)))[0]
        complement = kernel_basis(plane.T)
        assert backlinked_cycle_criterion(plane, complement[:, :1], complement[:, 1:], rotated)
        assert not backlinked_cycle_criterion(plane, complement, rotated[:, :1], rotated)
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    empty = np.zeros((3, 0))
    assert backlinked_cycle_criterion(q, empty, empty, q @ np.linalg.qr(rng.standard_normal((3, 3)))[0])


def test_criteria_refuse_malformed_kernels():
    e3, e4 = np.eye(3), np.eye(4)
    with pytest.raises(ValueError, match="ambient"):
        cycle_criterion([e3[:, [0]], e4[:, [0]]])
    with pytest.raises(ValueError, match="ambient"):
        broadcast_pair_criterion(e3, e4, e3[:, [0]], e3[:, [1]])
    with pytest.raises(ValueError, match="ambient"):
        backlinked_cycle_criterion(e3[:, [0]], e3[:, [1]], e3[:, [2]], e4)
    for few in ([], [e3[:, [0]]]):
        with pytest.raises(ValueError, match="a cycle needs two agents"):
            cycle_criterion(few)


def test_synthesize_cycle_with_nonzero_kernels():
    g = directed_cycle(3)
    w = synthesize_weights(g, 3, mode="nonzero-kernels")
    assert is_well_configured(w)
    for arc in g.arcs:
        assert w.kernel(arc).shape[1] >= 1
        assert w.weight(arc).shape == (2, 3)  # complement of one axis


def test_synthesize_refuses_long_ears_in_nonzero_mode():
    with pytest.raises(InfeasibleSynthesisError, match="max ear length"):
        synthesize_weights(directed_cycle(5), 2, mode="nonzero-kernels")


def test_synthesize_free_mode_pads_with_identity():
    w = synthesize_weights(directed_cycle(5), 2, mode="free")
    assert is_well_configured(w)
    dims = [w.kernel(arc).shape[1] for arc in w.graph.arcs]
    assert 0 in dims and 1 in dims


def test_synthesize_rejects_bad_mode_and_non_sc():
    with pytest.raises(ValueError, match="mode"):
        synthesize_weights(directed_cycle(3), 3, mode="lenient")
    with pytest.raises(ValueError):
        synthesize_weights(directed_path(3), 3)


def test_synthesize_all_corpus(sc_corpus):
    for name, g in sc_corpus.items():
        dec = ear_decomposition(g)
        for n in (2, 3, 4):
            if dec.max_length <= n:
                w = synthesize_weights(g, n, dec, mode="nonzero-kernels")
                assert is_well_configured(w), (name, n)
                assert all(w.kernel(a).shape[1] >= 1 for a in g.arcs), (name, n)
            else:
                with pytest.raises(InfeasibleSynthesisError):
                    synthesize_weights(g, n, dec, mode="nonzero-kernels")
            assert is_well_configured(synthesize_weights(g, n, dec, mode="free")), (name, n)


def test_symmetric_synthesis_emits_equal_pair_matrices(sym_corpus):
    for name, g in sym_corpus.items():
        for n in (2, 3):
            w = synthesize_symmetric_weights(g, n)
            assert is_well_configured(w), (name, n)
            for a, b in g.undirected_pairs:
                assert np.array_equal(w.weight((a, b)), w.weight((b, a))), (name, n)


def test_symmetric_synthesis_nonzero_mode():
    sq = symmetric_cycle(4)
    # the square's only symmetric decomposition is the 4-pair cycle
    with pytest.raises(InfeasibleSynthesisError):
        synthesize_symmetric_weights(sq, 3, mode="nonzero-kernels")
    w = synthesize_symmetric_weights(sq, 4, mode="nonzero-kernels")
    assert is_well_configured(w)
    assert all(w.kernel(a).shape[1] == 1 for a in sq.arcs)


def test_symmetric_synthesis_rejects_not_2_connected():
    from limcon import symmetric_path

    with pytest.raises(ValueError, match="2-connected"):
        synthesize_symmetric_weights(symmetric_path(3), 2)


def test_pair_cycle_route_gives_nonzero_kernels_on_symmetric_graphs(sym_corpus):
    # symmetric strongly connected graphs admit nonzero kernels as soon as
    # n >= 2 via the pair-cycle ears of the ordinary decomposition
    for name, g in sym_corpus.items():
        w = synthesize_weights(g, 2, mode="nonzero-kernels")
        assert is_well_configured(w), name
        assert all(w.kernel(a).shape[1] >= 1 for a in g.arcs), name


def test_zero_row_weight_roundtrips():
    # an arc that transmits nothing has the whole space as kernel
    g = directed_path(2)
    w = WeightedNeighborGraph(g, 2, {(1, 2): np.zeros((0, 2))})
    assert w.kernel((1, 2)).shape == (2, 2)
    assert not is_well_configured(w)
    again = weights_from_json(weights_to_json(w))
    assert again.weight((1, 2)).shape == (0, 2)
    # the empty list that the weight file holds for it
    assert WeightedNeighborGraph(g, 2, {(1, 2): []}).weight((1, 2)).shape == (0, 2)
    # a zero matrix normalizes to the empty row basis
    wz = WeightedNeighborGraph(g, 2, {(1, 2): np.zeros((1, 2))})
    assert wz.normalized().weight((1, 2)).shape == (0, 2)


def _uniform_weights(g, n, rows):
    return WeightedNeighborGraph(g, n, {arc: np.zeros((rows, n)) for arc in g.arcs})


@pytest.mark.parametrize(
    "w",
    [
        _uniform_weights(DirectedGraph(1, ()), 2, 0),
        _uniform_weights(directed_cycle(3), 2, 0),
        _uniform_weights(directed_cycle(3), 2, 1),
        _uniform_weights(symmetric_cycle(4), 1, 3),
        WeightedNeighborGraph(directed_path(3), 2, {(1, 2): np.zeros((0, 2)), (2, 3): np.eye(2)}),
    ],
    ids=["no-arcs", "no-rows", "zero-rows", "zero-tall", "one-empty-arc"],
)
def test_empty_and_zero_weights_take_the_general_path(w):
    # the verifiers read these from numpy's SVD of empty and all-zero stacks
    report = is_well_configured(w)
    nullity = agreement_nullity_dense(w)
    assert report.kernel_dim == nullity and report.well_configured == (nullity == w.n)
    assert disagreement_overlap_dim(w) == disagreement_overlap_dim_dense(w)
    assert is_well_configured_via_overlap(w) == report.well_configured
    if not report:
        assert np.linalg.norm(report.witness) == pytest.approx(1.0)
        assert consensus_error(report.witness) > 1e-3
        assert local_agreement_residual(w, report.witness) < 1e-12


def test_weights_json_roundtrip():
    w = synthesize_weights(backlinked_cycle_graph(), 2)
    data = weights_to_json(w)
    assert {type(v) for entry in data["arcs"] for row in entry["C"] for v in row} == {float}
    again = weights_from_json(data)
    assert again.graph == w.graph and again.n == w.n
    for arc in w.graph.arcs:
        assert np.array_equal(again.weight(arc), w.weight(arc))
    with pytest.raises(ValueError, match="unknown"):
        weights_from_json({**data, "extra": 1})


def test_weights_json_missing_keys_raise_value_error():
    data = weights_to_json(synthesize_weights(backlinked_cycle_graph(), 2))
    for key in ("m", "n", "arcs"):
        with pytest.raises(ValueError, match=f"weight-file: missing keys \\['{key}'\\]"):
            weights_from_json({k: v for k, v in data.items() if k != key})
    for key in ("j", "i", "C"):
        arcs = [{k: v for k, v in entry.items() if k != key} for entry in data["arcs"]]
        with pytest.raises(ValueError, match=f"weight-file arcs\\[\\]: missing keys \\['{key}'\\]"):
            weights_from_json({**data, "arcs": arcs})


@pytest.mark.parametrize(
    "field, value",
    [("m", 2.9), ("n", 1.5), ("j", 1.7), ("i", 2.0), ("n", True), ("j", True)],
    ids=["m", "n", "j", "i", "bool-n", "bool-j"],
)
def test_weights_json_refuses_non_integers(field, value):
    data = weights_to_json(synthesize_weights(backlinked_cycle_graph(), 2))
    if field in ("j", "i"):
        data["arcs"][0][field] = value
        where = f"weight-file arcs\\[\\].{field}"
    else:
        data[field] = value
        where = f"weight-file {field}"
    kind = "a boolean" if value is True else "a number"
    with pytest.raises(ValueError, match=f"^{where} must be an integer, got {kind}$"):
        weights_from_json(data)
    # json.loads gives no numpy integers, and the reader takes JSON values only
    data = weights_to_json(synthesize_weights(backlinked_cycle_graph(), 2))
    data["m"], data["arcs"][0]["j"] = np.int64(3), np.int32(data["arcs"][0]["j"])
    with pytest.raises(ValueError, match="must be an integer, got a non-JSON value"):
        weights_from_json(data)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda d: d.update(arcs=5), "weight-file arcs must be an array, got an integer"),
        (lambda d: d["arcs"][0].update(C={}), r"weight-file arcs\[\]\.C must be an array, got an object"),
        (lambda d: d["arcs"][0].update(C=5), r"weight-file arcs\[\]\.C must be an array, got an integer"),
        (lambda d: d["arcs"][0].update(C=[[1, {}]]), r"weight-file arcs\[\]\.C must be a rectangular array of numbers"),
        (lambda d: d["arcs"][0].update(C=[[1, "x"]]), r"weight-file arcs\[\]\.C must be a rectangular array of numbers"),
    ],
    ids=["arcs", "C-object", "C-number", "C-nested-object", "C-string"],
)
def test_weights_json_refuses_wrong_types(change, message):
    data = weights_to_json(synthesize_weights(backlinked_cycle_graph(), 2))
    change(data)
    with pytest.raises(ValueError, match=message):
        weights_from_json(data)


def test_weight_file_entries_convert_as_one_by_one():
    # row counts 0, 1 and 2, a one-dimensional C, and a row count shared by a
    # matrix and a vector, which cannot convert together
    g = DirectedGraph(4, ((1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (3, 1)))
    given = {(1, 2): [], (2, 3): [[1, 2]], (3, 4): [[3.5, 4], [5, 6]], (4, 1): [7, 8], (1, 3): [[0, 1]], (3, 1): []}
    data = {"m": 4, "n": 2, "arcs": [{"j": j, "i": i, "C": c} for (j, i), c in given.items()]}
    w = weights_from_json(data)
    for arc, c in given.items():
        assert w.weight(arc).tobytes() == np.array(c, dtype=float).reshape(-1, 2).tobytes()
    # the first malformed entry is named, also past one whose row count converted
    data["arcs"][2]["C"] = [[1, "x"], [2, 3]]
    data["arcs"][4].pop("j")
    with pytest.raises(ValueError, match=r"^weight-file arcs\[\]\.C must be a rectangular array of numbers"):
        weights_from_json(data)
    data["arcs"][2]["C"] = [[1, 2], [3, 4]]
    with pytest.raises(ValueError, match=r"^weight-file arcs\[\]: missing keys \['j'\]$"):
        weights_from_json(data)
    data["arcs"][4]["j"] = 2
    with pytest.raises(ValueError, match=r"^weight-file arcs: arc \(2, 3\) is listed twice$"):
        weights_from_json(data)


@pytest.mark.parametrize(
    "data, message",
    [
        ([{"kind": "cycle", "arcs": [[True, 2], [2, 3], [3, 1]]}], r"ear arcs must be an array of \[j, i\] pairs of vertex numbers"),
        ([{"kind": "cycle", "arcs": 3}], "ear arcs must be an array, got an integer"),
        ([{"kind": "cycle", "arcs": [[1, 2, 3]]}], r"ear arcs must be an array of \[j, i\] pairs"),
        ([{"kind": "cycle", "arcs": [5]}], r"ear arcs must be an array of \[j, i\] pairs"),
        ({"kind": "cycle"}, "ear decomposition must be an array, got an object"),
    ],
    ids=["bool-end", "arcs-number", "triple", "arc-number", "object"],
)
def test_ear_json_refuses_wrong_types(data, message):
    with pytest.raises(ValueError, match=message):
        EarDecomposition.from_json(data)


def test_ear_json_refuses_non_integer_arc_ends():
    ear = ear_decomposition(directed_cycle(3)).to_json()[0]
    ear["arcs"][0] = [1.9, ear["arcs"][0][1]]
    with pytest.raises(ValueError, match=r"ear arcs must be an array of \[j, i\] pairs of vertex numbers"):
        EarDecomposition.from_json([ear])


def test_ear_json_missing_keys_raise_value_error():
    ear = ear_decomposition(directed_cycle(3)).to_json()[0]
    for key in ("kind", "arcs"):
        with pytest.raises(ValueError, match=f"ear: missing keys \\['{key}'\\]"):
            EarDecomposition.from_json([{k: v for k, v in ear.items() if k != key}])
    for entry in (5, ["kind", "arcs"]):
        with pytest.raises(ValueError, match="ear must be an object"):
            EarDecomposition.from_json([entry])


def test_agreement_kernel_dim_matches_exact_arithmetic():
    # integer weights let an exact fraction-elimination oracle cross-check
    # the SVD-based kernel dimension, catching any tolerance drift
    from limcon.wellconfig import agreement_map
    from oracles import exact_nullity

    rng = np.random.default_rng(11)
    for _ in range(40):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        arcs = set()
        for v in range(2, m + 1):
            u = int(rng.integers(1, v))
            arcs.add((u, v) if rng.random() < 0.5 else (v, u))
        g = DirectedGraph(m, tuple(arcs))
        weights = {
            arc: rng.integers(-2, 3, size=(int(rng.integers(1, n + 1)), n)).astype(float)
            for arc in g.arcs
        }
        w = WeightedNeighborGraph(g, n, weights)
        amap = agreement_map(w)
        exact = exact_nullity(np.rint(amap).astype(int).tolist())
        report = is_well_configured(w)
        assert report.kernel_dim == exact
        assert report.well_configured == (exact == n)


def unimodular(rng, r):
    """A random r x r integer matrix of determinant +-1: unit lower
    triangular with entries in -1..1, rows permuted and signs flipped."""
    u = np.eye(r) + np.tril(rng.integers(-1, 2, size=(r, r)), -1)
    return u[rng.permutation(r)] * rng.choice([-1.0, 1.0], size=(r, 1))


# strict, so the fix of the defect has to remove the marks
SCALE_DEFECT = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 9, the per-arc scale defect: every rank is cut at rtol times the "
    "largest singular value over all arcs, so an arc much weaker than the strongest counts as absent",
)


@pytest.mark.parametrize("spread", [0, 10, pytest.param(20, marks=SCALE_DEFECT), pytest.param(30, marks=SCALE_DEFECT)])
def test_rank_decisions_match_exact_nullity_under_exact_rescaling(spread):
    # integer weights on strongly connected graphs, so with cycles; each arc
    # then scaled by 2^k, k in -spread..spread, and multiplied on the left by
    # an integer unimodular matrix.  Both keep every kernel and stay exact in
    # floating point, so the integer draw's fraction-exact nullity is the
    # truth for the transformed one.
    rng = np.random.default_rng(12 + spread)
    proved = 0
    for _ in range(150):
        m, n = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        g = random_strongly_connected(rng, m, extra_arcs=int(rng.integers(0, 3)))
        ints = {arc: rng.integers(-2, 3, size=(int(rng.integers(1, n + 2)), n)).astype(float) for arc in g.arcs}
        exact = exact_nullity(np.rint(agreement_map(WeightedNeighborGraph(g, n, ints))).astype(int).tolist())
        scaled = {
            arc: np.ldexp(unimodular(rng, len(c)) @ c, int(rng.integers(-spread, spread + 1)))
            for arc, c in ints.items()
        }
        w = WeightedNeighborGraph(g, n, scaled)
        report = is_well_configured(w)
        assert (report.well_configured, report.kernel_dim) == (exact == n, exact)
        assert disagreement_overlap_dim(w) == exact - n
        if _proves_by_ears(w, ear_decomposition(g)):
            assert exact == n
            proved += 1
    assert proved > 30


def test_overlap_dimension_counts_failures():
    g = directed_path(3)
    w = WeightedNeighborGraph(g, 2, {(1, 2): np.array([[1.0, 0.0]]), (2, 3): np.eye(2)})
    assert disagreement_overlap_dim(w) == 1
    assert disagreement_overlap_dim(identity_weights(g, 2)) == 0


def test_overlap_of_all_zero_weights_is_the_whole_image():
    # every sine is zero: the kernel of C is the whole signal space
    for g, n in ((symmetric_cycle(5), 2), (complete_symmetric(4), 3), (directed_path(4), 1)):
        w = WeightedNeighborGraph(g, n, {arc: np.zeros((2, n)) for arc in g.arcs})
        assert disagreement_overlap_dim(w) == n * (g.m - 1) == disagreement_overlap_dim_dense(w)
        assert disagreement_overlap_dim(identity_weights(g, n)) == 0


@pytest.mark.parametrize(
    "m, arcs, components",
    [
        (6, ((1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)), 2),  # two directed triangles
        (7, ((1, 2), (3, 4), (4, 5), (5, 3), (6, 7), (7, 6)), 3),  # a path, a triangle and a pair
        (6, ((2, 3), (3, 4), (4, 2), (3, 2)), 4),  # isolated agents 1, 5 and 6
        (3, (), 3),  # no arcs
        (1, (), 1),
    ],
    ids=["two-components", "three-components", "isolated-agents", "no-arcs", "m=1"],
)
def test_overlap_matches_dense_oracle_on_graphs_that_are_not_connected(m, arcs, components):
    # the cut space is m - c wide: all-zero weights meet all of it
    g, n = DirectedGraph(m, arcs), 2
    zero = WeightedNeighborGraph(g, n, {arc: np.zeros((1, n)) for arc in g.arcs})
    assert disagreement_overlap_dim(zero) == n * (m - components) == disagreement_overlap_dim_dense(zero)
    assert disagreement_overlap_dim(identity_weights(g, n)) == 0
    rng = np.random.default_rng(m)
    for _ in range(20):
        w = WeightedNeighborGraph(g, n, {arc: rng.standard_normal((int(rng.integers(0, 3)), n)) for arc in g.arcs})
        assert disagreement_overlap_dim(w) == disagreement_overlap_dim_dense(w)


def _overlap_widths(w):
    """(dim image, dim ker C) for weights whose per-arc ranks are exact."""
    image = w.n * np.linalg.matrix_rank(incidence_matrix(w.graph))
    return image, sum(w.kernel(arc).shape[1] for arc in w.graph.arcs)


def test_overlap_matches_dense_oracle_when_the_image_is_narrower():
    rng = np.random.default_rng(31)
    g, n = complete_symmetric(6), 3
    dims = set()
    for _ in range(10):
        # at most one row per arc, so ker C is at least 2 * 30 wide against an image of 15
        w = WeightedNeighborGraph(g, n, {arc: rng.standard_normal((int(rng.integers(0, 2)), n)) for arc in g.arcs})
        image, ker = _overlap_widths(w)
        assert image < ker
        dim = disagreement_overlap_dim(w)
        assert dim == disagreement_overlap_dim_dense(w)
        dims.add(dim)
    assert len(dims) > 1


def test_overlap_matches_dense_oracle_when_the_kernel_is_narrower():
    g, n = symmetric_cycle(40), 3
    w = synthesize_symmetric_weights(g, n)  # pairs {1,2}, {2,3}, {3,4} carry kernel axes 0, 1, 2
    # silencing {1, 2} leaves a path on which the other two axes are free
    cut = WeightedNeighborGraph(g, n, {**w.weights, (1, 2): np.zeros((1, n)), (2, 1): np.zeros((1, n))})
    for v, expected in ((w, 0), (cut, n - 1)):
        image, ker = _overlap_widths(v)
        assert ker < image
        assert disagreement_overlap_dim(v) == disagreement_overlap_dim_dense(v) == expected


def test_overlap_never_forms_the_lifted_image():
    # d = 600 arcs, n = 3: the dn x (m - 1)n Kronecker image alone is 12.3 MB
    w = synthesize_symmetric_weights(symmetric_cycle(300), 3)
    image_bytes = 600 * 3 * 299 * 3 * 8
    tracemalloc.start()
    try:
        assert disagreement_overlap_dim(w) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < image_bytes / 2


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_kernels_of_repeated_blocks_are_each_slots_own_bit_for_bit(seed):
    # equal blocks share one decomposition; 0.0 and -0.0 blocks are told
    # apart, and blocks without entries (r = 0 or n = 0) are shared too
    rng = np.random.default_rng(seed)
    r, n = (int(v) for v in rng.integers(0, 4, size=2))
    scale = 10.0 ** int(rng.integers(-8, 9))
    pool = [np.zeros((r, n)), -np.zeros((r, n)), np.eye(r, n), rng.standard_normal((r, n)) * scale]
    picks = rng.integers(len(pool), size=int(rng.integers(0, 12)))
    stacks = np.zeros((len(picks), r, n))
    for slot, k in enumerate(picks):
        stacks[slot] = pool[k]
    vh, in_kernel = _kernels(stacks)
    _, s, vh_each = np.linalg.svd(stacks)
    assert vh.shape == vh_each.shape and vh.tobytes() == vh_each.tobytes()
    assert np.array_equal(in_kernel, np.arange(n) >= np.sum(s > RANK_RTOL * s.max(initial=0.0), axis=1)[:, None])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pair_values_of_repeated_stacks_are_each_stacks_own_bit_for_bit(seed):
    # equal pair stacks share one decomposition; 0.0 and -0.0 weights are
    # told apart, and a graph without arcs or without rows has empty stacks
    rng = np.random.default_rng(seed)
    n, r = int(rng.integers(1, 4)), int(rng.integers(0, 4))
    m = int(rng.integers(2, 7))
    g = random_strongly_connected(rng, m, extra_arcs=int(rng.integers(0, 4)))
    g = (g, symmetric_closure(g), DirectedGraph(m, ()))[int(rng.integers(3))]
    scale = 10.0 ** int(rng.integers(-8, 9))
    pool = [np.zeros((r, n)), -np.zeros((r, n)), np.eye(r, n), rng.standard_normal((r, n)) * scale]
    w = WeightedNeighborGraph(g, n, {arc: pool[int(rng.integers(len(pool)))] for arc in g.arcs})
    pairs, smallest, sigma = _pair_values(w)
    # the reference: each stack's own SVD, nothing shared
    first, slot, stack = _pair_stacks(w)
    s = np.sqrt(2.0) * np.linalg.svd(stack, compute_uv=False)
    rows = np.bincount(slot, weights=w.row_counts, minlength=len(first))
    each = np.where(rows >= n, s[:, n - 1] if s.shape[1] >= n else 0.0, 0.0)
    assert np.array_equal(pairs, g.arc_ends[first])
    assert smallest.shape == each.shape and smallest.tobytes() == each.tobytes()
    assert np.float64(sigma).tobytes() == np.float64(s.max(initial=0.0)).tobytes()


def _generic_twin(rng, m, n, extra_arcs, cut):
    """A random strongly connected digraph with a generic rank-(n - 1) weight
    on every arc.  With cut, a planted cut as the benchmark's digraph family
    makes one: the arcs across (S, rest) annihilate one shared direction v,
    so "v on S, 0 elsewhere" agrees locally without being consensus."""
    g = random_strongly_connected(rng, m, extra_arcs=extra_arcs)
    weights = {arc: rng.standard_normal((n - 1, n)) for arc in g.arcs}
    if cut:
        side = set(rng.choice(np.arange(1, m + 1), size=int(rng.integers(1, m)), replace=False).tolist())
        v = random_subspace(rng, n, 1)
        weights.update((arc, c - c @ v @ v.T) for arc, c in weights.items() if (arc[0] in side) != (arc[1] in side))
    return WeightedNeighborGraph(g, n, weights)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["kernel", "image", "forest"]), cut=st.booleans())
def test_overlap_matches_dense_oracle_on_either_side(seed, shape, cut):
    # The overlap ranks a complement of the narrower basis: the cycle space
    # when the kernel is narrower, the arcs' row spaces when the image is.
    # Nothing contracts in the first two shapes, so the quotient is the graph
    # and _overlap_widths tells the side.
    rng = np.random.default_rng(seed)
    if shape == "kernel":
        # one kernel direction per arc on fewer than (m - 1)n arcs; a cycle
        # longer than n fails even without the cut
        m, n = int(rng.integers(3, 9)), int(rng.integers(2, 5))
        w = _generic_twin(rng, m, n, int(rng.integers(0, (m - 1) * n - m)), cut)
        image, ker = _overlap_widths(w)
        assert ker < image
        dim = disagreement_overlap_dim(w)
        assert dim >= 1 or not cut
    elif shape == "image":
        # symmetric synthesis on K_m, m >= n; with cut, every arc at agent 1
        # silenced by no rows or an all-zero row, so agent 1 is free
        n = int(rng.integers(3, 5))
        m = int(rng.integers(n, 8))
        w = synthesize_symmetric_weights(complete_symmetric(m), n)
        if cut:
            silent = (np.zeros((0, n)), np.zeros((1, n)))
            weights = {arc: silent[int(rng.integers(2))] if 1 in arc else c for arc, c in w.weights.items()}
            w = WeightedNeighborGraph(w.graph, n, weights)
        image, ker = _overlap_widths(w)
        assert image <= ker
        dim = disagreement_overlap_dim(w)
        assert dim >= n if cut else dim == 0
    else:
        # a random forest (two trees with cut): no cycle space, so the image
        # is the whole signal space and the overlap is the whole kernel; arcs
        # with n or more rows contract, which leaves a forest
        m, n = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        arcs = []
        for v in range(2, m + 1):
            if not (cut and v == m // 2 + 1):
                u = int(rng.integers(1, v))
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
        rows = {arc: int(rng.integers(0, n + 2)) for arc in arcs}
        weights = {arc: rng.standard_normal((k, n)) for arc, k in rows.items()}
        w = WeightedNeighborGraph(DirectedGraph(m, arcs), n, weights)
        dim = disagreement_overlap_dim(w)
        assert dim == sum(max(n - k, 0) for k in rows.values())
    assert dim == disagreement_overlap_dim_dense(w)


def test_overlap_ranks_the_complement(monkeypatch):
    # The ranked matrix has (d - m + 1)n rows when the kernel is narrower
    # and dn - kappa when the image is, where (I - bb')a has dn.  The first
    # graph has the benchmark digraph twin's shape: m = 60, d = 180, n = 4,
    # one kernel direction per arc.  The second is K16 with symmetric
    # synthesis, n = 3: one kernel direction on each of its 240 arcs.
    rng = np.random.default_rng(5)
    arcs = {(j, i % 60 + 1) for j, i in zip(range(1, 61), range(1, 61))}
    while len(arcs) < 180:
        j, i = (int(v) for v in rng.integers(1, 61, size=2))
        if j != i:
            arcs.add((j, i))
    g = DirectedGraph(60, tuple(arcs))
    twin = WeightedNeighborGraph(g, 4, {arc: rng.standard_normal((3, 4)) for arc in g.arcs})
    k16 = synthesize_symmetric_weights(complete_symmetric(16), 3)
    svd, ranked = np.linalg.svd, []

    def spy(a, *args, **kwargs):
        if np.ndim(a) == 2:
            ranked.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    # (180 - 59) * 4 rows by 180 kernel columns; 240 * 3 - 240 rows by 15 * 3 image columns
    for w, shape in ((twin, (484, 180)), (k16, (480, 45))):
        ranked.clear()
        assert disagreement_overlap_dim(w) == 0
        assert ranked == [shape]


def test_overlap_on_a_long_ring_contracts_in_linear_memory():
    # all but three pairs carry identity weights, so the quotient is a
    # triangle; the graph's own cut space alone would be 4000 x 1999 (64 MB)
    g, n = symmetric_cycle(2000), 3
    w = synthesize_symmetric_weights(g, n)
    cut = WeightedNeighborGraph(g, n, {**w.weights, (1, 2): np.zeros((1, n)), (2, 1): np.zeros((1, n))})
    for v, expected in ((w, 0), (cut, n - 1)):
        tracemalloc.start()
        try:
            assert disagreement_overlap_dim(v) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def _between_two_components(kernel_axes):
    """Agents {1, 2} and {3, 4}, each pair joined both ways by identity
    weights, so contracted; then arcs (1, 3) and (2, 4), parallel, and
    (4, 1), antiparallel to them, with kernels along the given axes of R^2."""
    g, n = DirectedGraph(4, ((1, 2), (2, 1), (3, 4), (4, 3), (1, 3), (2, 4), (4, 1))), 2
    weights = {arc: np.eye(n) for arc in g.arcs}
    between = zip(((1, 3), (2, 4), (4, 1)), kernel_axes)
    weights.update((arc, np.delete(np.eye(n), axis, axis=0)) for arc, axis in between)
    return WeightedNeighborGraph(g, n, weights)


def _two_weak_components_contracted():
    """Weak components {1, 2, 3, 4} and {5, 6}, n = 2: identity weights on
    (1, 2), (2, 1) and (2, 3), and all-zero weights on (3, 4) and (5, 6)."""
    g = DirectedGraph(6, ((1, 2), (2, 1), (2, 3), (3, 4), (5, 6)))
    weights = {arc: np.eye(2) for arc in ((1, 2), (2, 1), (2, 3))}
    return WeightedNeighborGraph(g, 2, {**weights, (3, 4): np.zeros((1, 2)), (5, 6): np.zeros((1, 2))})


@pytest.mark.parametrize(
    "w, expected",
    [
        (_between_two_components((0, 0, 0)), 1),  # the kernels share axis 0
        (_between_two_components((0, 1, 0)), 0),  # the parallel arcs meet only in 0
        (_between_two_components((1, 1, 0)), 0),  # the antiparallel arc does
        (identity_weights(complete_symmetric(4), 2), 0),  # every arc contracts
        (identity_weights(DirectedGraph(5, ((1, 2), (3, 4), (4, 5))), 3), 0),  # into one agent per weak component
        (_two_weak_components_contracted(), 2 * (4 - 2)),  # {1, 2, 3} contract: four agents in two weak components
    ],
    ids=[
        "shared-axis",
        "parallel-apart",
        "antiparallel-apart",
        "all-contract",
        "all-contract-disconnected",
        "some-contract-disconnected",
    ],
)
def test_overlap_keeps_parallel_and_antiparallel_arcs_of_the_quotient(w, expected):
    assert disagreement_overlap_dim(w) == disagreement_overlap_dim_dense(w) == expected


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), share=st.floats(0.0, 1.0))
def test_overlap_with_contracted_arcs_matches_dense_oracle(seed, share):
    # a share of the arcs get a trivial kernel, from an identity, a tall
    # Gaussian or a 10^k-scaled square Gaussian weight; a scale far below the
    # strongest arc's counts as rank deficient in both, by the same cut
    rng = np.random.default_rng(seed)
    w = random_weakly_connected_wng(rng, m=int(rng.integers(2, 8)))
    n, weights = w.n, dict(w.weights)
    for arc in w.graph.arcs:
        if rng.random() < share:
            weights[arc] = (
                np.eye(n),
                rng.standard_normal((n + int(rng.integers(1, 3)), n)),
                rng.standard_normal((n, n)) * 10.0 ** int(rng.integers(-6, 7)),
            )[int(rng.integers(3))]
    v = WeightedNeighborGraph(w.graph, n, weights)
    assert disagreement_overlap_dim(v) == disagreement_overlap_dim_dense(v)


def rescaled_wng(seed, exponents):
    """A random weakly connected configuration with arc k scaled by
    10 ** exponents[k mod len(exponents)]."""
    w = random_weakly_connected_wng(np.random.default_rng(seed))
    scaled = {arc: c * 10.0 ** exponents[k % len(exponents)] for k, (arc, c) in enumerate(w.weights.items())}
    return WeightedNeighborGraph(w.graph, w.n, scaled)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), exponents=st.lists(st.integers(-6, 6), min_size=1, max_size=8))
def test_overlap_dim_matches_dense_oracle_under_rescaling(seed, exponents):
    w = rescaled_wng(seed, exponents)
    assert disagreement_overlap_dim(w) == disagreement_overlap_dim_dense(w)


# The two formulations rank different matrices, so near the 1e-10 cut-off
# they can legitimately part; verify warns there, because the primary
# verdict's rank gap is then narrow.  The example is such a draw: one
# arc's smallest singular value is 1.1e-10 of the largest over all arcs.
@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), exponents=st.lists(st.integers(-6, 6), min_size=1, max_size=8))
@example(seed=1556871861, exponents=[-6, 0, -6, -6, -6])
def test_overlap_verdict_matches_primary_verifier_under_rescaling(seed, exponents):
    w = rescaled_wng(seed, exponents)
    report = is_well_configured(w)
    assert (disagreement_overlap_dim(w) == 0) == report.well_configured or report.rank_gap.narrow()


def test_normalized_equals_per_arc_row_space_basis():
    rng = np.random.default_rng(21)
    for _ in range(20):
        w = random_weakly_connected_wng(rng)
        weights = dict(w.weights)
        first, second = w.graph.arcs[0], w.graph.arcs[-1]
        weights[first] = np.zeros((2, w.n))
        weights[second] = np.vstack([weights[second], weights[second]])  # rank deficient
        w = WeightedNeighborGraph(w.graph, w.n, weights)
        normalized = w.normalized()
        for arc in w.graph.arcs:
            assert np.array_equal(normalized.weight(arc), row_space_basis(w.weight(arc)))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), permute=st.booleans())
def test_agreement_map_equals_kron_formula(seed, permute):
    # arcs drawn at random (d = 0 included), with zero-row, wide, tall and
    # all-zero weights, in canonical or a random order, and random labels
    from limcon.wellconfig import agreement_map

    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 4))
    pairs = rng.integers(1, m + 1, size=(int(rng.integers(0, 2 * m + 1)), 2))
    g = DirectedGraph(m, tuple({(int(j), int(i)) for j, i in pairs if j != i}))
    weights = {}
    for arc in g.arcs:
        c = rng.standard_normal((int(rng.integers(0, n + 3)), n))
        weights[arc] = 0.0 * c if rng.random() < 0.2 else c
    w = WeightedNeighborGraph(g, n, weights)
    order = [g.arcs[k] for k in rng.permutation(g.d)] if permute else None
    dense = agreement_map_kron(w, order)
    assert np.array_equal(agreement_map(w, order), dense)
    assert np.array_equal(agreement_map(w, order, np.arange(m)), dense)
    # the quotient map: the dense map on component states, less the arcs
    # inside one component
    labels = np.unique(rng.integers(0, m, size=m), return_inverse=True)[1]
    expand = np.kron(np.eye(labels.max() + 1)[labels], np.eye(n))
    arcs = order or g.arcs
    cross = np.array([labels[j - 1] != labels[i - 1] for j, i in arcs], dtype=bool)
    rows = np.repeat(cross, np.array([w.weight(arc).shape[0] for arc in arcs], dtype=int))
    assert np.array_equal(agreement_map(w, order, labels), (dense @ expand)[rows])
    # padded_weights against a plain loop over the arcs
    padded = np.zeros((g.d, max((c.shape[0] for c in weights.values()), default=0), n))
    for k, arc in enumerate(g.arcs):
        padded[k, : weights[arc].shape[0]] = weights[arc]
    assert np.array_equal(w.padded_weights(), padded)


# The verifier ranks the quotient map and the pair stacks at rtol times the
# largest pair singular value; the dense oracle ranks the whole map at rtol
# times its own largest.  Near that cut-off they can part, and then the
# verifier's rank gap is narrow.  The example is such a draw: kernel_dim 1
# against the oracle's 2, with a value 0.94 times the cut-off.
@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), exponents=st.lists(st.integers(-6, 6), min_size=1, max_size=8))
@example(seed=3322812902, exponents=[0, 0, 6, -6, -6])
def test_kernel_dim_matches_dense_nullity_under_rescaling(seed, exponents):
    w = rescaled_wng(seed, exponents)
    report = is_well_configured(w)
    assert report.kernel_dim == agreement_nullity_dense(w) or report.rank_gap.narrow()
    assert report.well_configured == (report.kernel_dim == w.n)


def contraction_wng(rng):
    """A random weakly connected configuration built to exercise the pair
    contraction: identity weights on random pairs (chains of forced-equal
    pairs along the spanning tree), extra arcs that may fall inside a merged
    component, pairs whose two arcs share one kernel (they do not contract),
    and m = 1 now and then."""
    m, n = int(rng.integers(1, 8)), int(rng.integers(1, 4))
    arcs = set()
    for v in range(2, m + 1):
        u = int(rng.integers(1, v))
        arcs.add((u, v) if rng.random() < 0.5 else (v, u))
    for _ in range(int(rng.integers(0, m + 1))):
        j, i = (int(v) for v in rng.integers(1, m + 1, size=2))
        if j != i:
            arcs.add((j, i))
    arcs |= {(i, j) for j, i in arcs if rng.random() < 0.5}
    g = DirectedGraph(m, tuple(arcs))
    weights = {}
    for a, b in g.undirected_pairs:
        both = [arc for arc in ((a, b), (b, a)) if arc in arcs]
        draw = rng.random()
        if draw < 0.4:
            weights.update((arc, np.eye(n)) for arc in both)
        elif draw < 0.7 and len(both) == 2 and n > 1:
            shared = weight_with_kernel(random_subspace(rng, n, 1))
            weights.update((arc, shared) for arc in both)
        else:
            weights.update((arc, rng.standard_normal((int(rng.integers(1, n + 2)), n))) for arc in both)
    return WeightedNeighborGraph(g, n, weights)


def test_contracted_verdict_matches_dense_nullity_at_unit_scale():
    from limcon.graphs import _component_labels
    from limcon.wellconfig import _pair_values

    rng = np.random.default_rng(51)
    seen = {"one agent": 0, "merged": 0, "kept kernel pair": 0, "arc inside a component": 0, "refused": 0}
    for _ in range(300):
        w = contraction_wng(rng)
        report = is_well_configured(w)
        dense = agreement_nullity_dense(w)
        assert report.kernel_dim == dense
        assert report.well_configured == (dense == w.n)
        if not report.well_configured:
            seen["refused"] += 1
            assert local_agreement_residual(w, report.witness) < 1e-9
            assert consensus_error(report.witness) > 1e-3
            assert np.linalg.norm(report.witness) == pytest.approx(1.0)
            assert np.abs(report.witness.sum(axis=0)).max() < 1e-12  # orthogonal to consensus
        pairs, smallest, sigma = _pair_values(w)
        forced = smallest > 1e-10 * sigma
        labels = _component_labels(w.m, pairs[forced])
        seen["one agent"] += w.m == 1
        seen["merged"] += labels.max() + 1 < w.m
        seen["kept kernel pair"] += any(
            np.array_equal(w.weight(arc), w.weight(arc[::-1])) and w.kernel(arc).shape[1]
            for arc in w.graph.arcs
            if arc[::-1] in w.weights
        )
        inside = labels[pairs[:, 0]] == labels[pairs[:, 1]]
        seen["arc inside a component"] += bool(np.any(inside & ~forced))
    assert min(seen.values()) >= 5, seen


def test_components_are_numbered_by_first_agent():
    from limcon.graphs import _component_labels

    edges = np.array([[4, 2], [5, 0], [3, 1], [1, 6]])
    assert _component_labels(7, edges).tolist() == [0, 1, 2, 1, 2, 0, 1]
    assert _component_labels(4, np.zeros((0, 2), dtype=int)).tolist() == [0, 1, 2, 3]
    # a chain given against its order still merges into one component
    chain = np.array([[k + 1, k] for k in range(30)][::-1])
    assert not _component_labels(31, chain).any()


def test_verifier_builds_the_quotient_map_through_the_module(monkeypatch):
    # perfbench traces wellconfig.agreement_map by replacing the module attribute
    import limcon.wellconfig

    calls = []
    real = limcon.wellconfig.agreement_map

    def recording(w, arc_order=None, labels=None):
        out = real(w, arc_order, labels)
        calls.append(out.shape)
        return out

    monkeypatch.setattr(limcon.wellconfig, "agreement_map", recording)
    # pairs {1,2}, {2,3}, {3,4} keep a kernel; the other 97 merge with agent 1
    assert is_well_configured(synthesize_symmetric_weights(symmetric_cycle(100), 3))
    assert calls == [(12, 9)]


@pytest.mark.parametrize("synthesize", [synthesize_symmetric_weights, synthesize_weights])
def test_verdict_memory_at_scale_stays_small(synthesize):
    # the dense agreement map of this ring would take 576 MB
    w = synthesize(symmetric_cycle(2000), 3)
    tracemalloc.start()
    try:
        report = is_well_configured(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.well_configured and report.kernel_dim == 3
    assert peak < 16 * 2**20


def test_verdict_takes_no_singular_vectors_when_well_configured(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert is_well_configured(synthesize_symmetric_weights(symmetric_cycle(6), 3))
    assert calls and not any(calls)  # the pair stacks and the quotient map, values only
    calls.clear()
    assert not is_well_configured(WeightedNeighborGraph(directed_path(2), 2, {(1, 2): np.array([[1.0, 0.0]])}))
    assert calls.count(True) == 1 and calls[-1]  # the witness needs the kernel vectors


def test_verdict_memory_is_about_one_agreement_map():
    import tracemalloc

    from limcon.wellconfig import agreement_map

    w = identity_weights(symmetric_cycle(300), 3)
    map_bytes = agreement_map(w).nbytes
    tracemalloc.start()
    try:
        report = is_well_configured(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.well_configured
    assert peak < 1.5 * map_bytes


def test_rank_gap_brackets_the_cutoff():
    w = WeightedNeighborGraph(directed_path(2), 2, {(1, 2): np.diag([1.0, 1e-11])})
    gap = is_well_configured(w).rank_gap
    assert gap.last_kept == pytest.approx(np.sqrt(2.0))
    assert gap.first_dropped == pytest.approx(np.sqrt(2.0) * 1e-11)
    assert gap.cutoff == pytest.approx(np.sqrt(2.0) * 1e-10)
    assert gap.narrow()
    # full row rank: nothing dropped; all zero: nothing kept
    assert is_well_configured(identity_weights(directed_path(2), 2)).rank_gap.first_dropped is None
    zero = is_well_configured(WeightedNeighborGraph(directed_path(2), 2, {(1, 2): np.zeros((1, 2))})).rank_gap
    assert zero.last_kept is None and zero.first_dropped == 0.0 and not zero.narrow()
    assert not is_well_configured(synthesize_symmetric_weights(symmetric_cycle(6), 3)).rank_gap.narrow()


def test_normalized_is_computed_once():
    rng = np.random.default_rng(41)
    w = random_weakly_connected_wng(rng)
    first = w.normalized()
    assert w.normalized() is first
    fresh = WeightedNeighborGraph(w.graph, w.n, w.weights).normalized()
    for arc in w.graph.arcs:
        assert np.array_equal(first.weight(arc), fresh.weight(arc))


def _weights_corpus():
    """Seeded random weights with empty, all-zero, wide and tall arcs, plus
    directed and symmetric synthesis on a long ring and a complete graph."""
    rng = np.random.default_rng(2211)
    out = []
    for _ in range(60):
        w = random_weakly_connected_wng(rng)
        weights = dict(w.weights)
        for arc in w.graph.arcs:
            kind = rng.integers(0, 5)
            if kind == 0:
                weights[arc] = np.zeros((0, w.n))  # transmits nothing
            elif kind == 1:
                weights[arc] = np.zeros((int(rng.integers(1, 3)), w.n))
            elif kind == 2:
                weights[arc] = rng.standard_normal((max(w.n - 1, 1), w.n))  # wide
            elif kind == 3:
                weights[arc] = np.vstack([weights[arc], weights[arc]])  # tall, rank deficient
        out.append(WeightedNeighborGraph(w.graph, w.n, weights))
    for g in (symmetric_cycle(100), complete_symmetric(16)):
        out += [synthesize_weights(g, 3), synthesize_symmetric_weights(g, 3)]
    return out


def test_weights_match_the_pinned_digest():
    # pins the weight file, the padded stack and the normalized rows bit for bit
    import hashlib
    import json

    digest = hashlib.sha256()
    for w in _weights_corpus():
        digest.update(json.dumps(weights_to_json(w)).encode())
        mats = [w.padded_weights()]
        mats += [w.normalized().weight(arc) for arc in w.graph.arcs]
        for c in mats:
            digest.update(repr(c.shape).encode() + c.tobytes())
    assert digest.hexdigest() == "2801267731854a90cff6462474853b4876520deb55fc22edbbc0c7f42d034082"


def ear_rule_draw(seed, symmetric):
    """Random kernels on a random strongly connected graph (m 2-7, n 1-4),
    or on its symmetric closure, which is 2-connected, with half the pairs
    sharing one weight; and the decomposition the synthesizers would use.
    Half the kernels are spanned by coordinate axes, so that the kernels
    within an ear can be dependent."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(3 if symmetric else 2, 8)), int(rng.integers(1, 5))
    g = random_strongly_connected(rng, m, extra_arcs=int(rng.integers(0, m + 1)))
    g = symmetric_closure(g) if symmetric else g
    weights = {}
    for j, i in g.arcs:
        if (i, j) in weights and symmetric and rng.random() < 0.5:
            weights[(j, i)] = weights[(i, j)]
        elif rng.random() < 0.5:
            weights[(j, i)] = weight_with_kernel(np.eye(n)[:, rng.random(n) < 0.3])
        else:
            weights[(j, i)] = weight_with_kernel(random_subspace(rng, n, int(rng.integers(0, n + 1))))
    w = WeightedNeighborGraph(g, n, weights)
    return w, symmetric_ear_decomposition(g) if symmetric else ear_decomposition(g)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), symmetric=st.booleans())
def test_ear_rule_is_sound_at_unit_scale(seed, symmetric):
    w, dec = ear_rule_draw(seed, symmetric)
    if _proves_by_ears(w, dec):
        assert agreement_nullity_dense(w) == w.n


def test_ear_rule_proves_a_share_of_random_draws():
    # sufficient, not necessary: it says yes less often than the verdict,
    # never where the verdict says no, and not never
    for symmetric in (False, True):
        draws = [ear_rule_draw(seed, symmetric) for seed in range(200)]
        rule = [_proves_by_ears(w, dec) for w, dec in draws]
        verdict = [is_well_configured(w).well_configured for w, _ in draws]
        assert all(v for r, v in zip(rule, verdict) if r)
        assert 30 <= sum(rule) < sum(verdict), symmetric


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    symmetric=st.booleans(),
    exponents=st.lists(st.integers(-6, 6), min_size=1, max_size=8),
)
def test_ear_rule_agrees_with_the_verdict_under_rescaling(seed, symmetric, exponents):
    w, dec = ear_rule_draw(seed, symmetric)
    scaled = {arc: c * 10.0 ** exponents[k % len(exponents)] for k, (arc, c) in enumerate(w.weights.items())}
    w = WeightedNeighborGraph(w.graph, w.n, scaled)
    if _proves_by_ears(w, dec):
        report = is_well_configured(w)
        assert report.well_configured or report.rank_gap.narrow()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ear_rule_proves_every_synthesized_weight_set(sc_corpus, sym_corpus, n):
    # both modes, directed synthesis on every strongly connected graph and
    # symmetric synthesis on every 2-connected one; "free" pads the ears
    # longer than n with identities, which the rule must see through
    longer = 0
    for name, g in {**sc_corpus, **sym_corpus}.items():
        decs = [ear_decomposition(g)] + ([symmetric_ear_decomposition(g)] if name in sym_corpus else [])
        for dec in decs:
            synthesize = synthesize_symmetric_weights if dec.symmetric else synthesize_weights
            slots = dec.max_length // (2 if dec.symmetric else 1)
            longer += slots > n
            for mode in SYNTHESIS_MODES if slots <= n else ["free"]:
                assert _proves_by_ears(synthesize(g, n, dec, mode), dec), (name, dec.symmetric, mode)
    assert longer


def test_ear_rule_takes_a_symmetric_ears_pair_kernels():
    # on the symmetric triangle, one ear of three pairs, each arc a -> b has
    # kernel e1 if a < b and e2 otherwise: every pair kernel is trivial,
    # although the forward arcs' kernels alone are dependent
    g = symmetric_cycle(3)
    w = WeightedNeighborGraph(g, 2, {(a, b): np.eye(2)[[1 if a < b else 0]] for a, b in g.arcs})
    assert _proves_by_ears(w, symmetric_ear_decomposition(g))


def test_ear_rule_fails_an_ear_with_too_many_or_dependent_kernels():
    # the triangle 1 -> 2 -> 3 -> 1 is one ear; its kernels decide
    e1, e2, trivial = np.eye(2)[:, :1], np.eye(2)[:, 1:], np.zeros((2, 0))
    w = cycle_wng([e1, e2, trivial])
    assert _proves_by_ears(w, ear_decomposition(w.graph))
    for kernels in ([e1, e1, trivial], [e1, e2, (e1 + e2) / np.sqrt(2)]):  # dependent; more vectors than n
        w = cycle_wng(kernels)
        assert not _proves_by_ears(w, ear_decomposition(w.graph))
        assert not is_well_configured(w)


def test_synthesizers_check_a_decomposition_they_are_given():
    # the triangle ear alone misses vertex 4 and the pair 3 <-> 4
    g = DirectedGraph(4, ((1, 2), (2, 3), (3, 1), (3, 4), (4, 3)))
    partial = EarDecomposition.from_json([{"kind": "cycle", "arcs": [[1, 2], [2, 3], [3, 1]]}])
    with pytest.raises(ValueError, match="ears do not partition the arc set"):
        synthesize_weights(g, 2, partial)
    with pytest.raises(ValueError, match="needs a symmetric decomposition"):
        synthesize_symmetric_weights(g, 2, partial)
    sym = symmetric_cycle(3)
    with pytest.raises(ValueError, match="use synthesize_symmetric_weights"):
        synthesize_weights(sym, 2, symmetric_ear_decomposition(sym))
