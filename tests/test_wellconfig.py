import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limcon import (
    DirectedGraph,
    InfeasibleSynthesisError,
    WeightedNeighborGraph,
    agreement_kernel,
    backlinked_cycle_criterion,
    backlinked_cycle_graph,
    broadcast_pair_criterion,
    broadcast_pair_graph,
    consensus_error,
    consensus_span,
    cycle_criterion,
    directed_cycle,
    directed_path,
    disagreement_overlap_dim,
    ear_decomposition,
    identity_weights,
    is_well_configured,
    is_well_configured_via_overlap,
    local_agreement_residual,
    reduced_cycle_criterion,
    stacked_weights,
    symmetric_cycle,
    synthesize_symmetric_weights,
    synthesize_weights,
    weights_from_json,
    weights_to_json,
)
from limcon.linalg import row_space_basis, subspaces_equal

from conftest import (
    random_subspace,
    random_weakly_connected_wng,
    weight_with_kernel,
)
from oracles import agreement_map_kron, agreement_nullity_dense, disagreement_overlap_dim_dense


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


def test_stacked_weights_single_arc():
    g = directed_path(2)
    w = WeightedNeighborGraph(g, 2, {(1, 2): np.array([[1.0, 0.0]])})
    assert np.array_equal(stacked_weights(w), [[1.0, 0.0]])


def test_stacked_weights_identity():
    g = symmetric_cycle(3)
    w = identity_weights(g, 2)
    assert np.array_equal(stacked_weights(w), np.eye(g.d * 2))


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
    from limcon.wellconfig import lifted_incidence
    from limcon.linalg import kernel_basis

    for g in (directed_path(4), broadcast_pair_graph(), symmetric_cycle(3)):
        for n in (1, 2, 3):
            kernel = kernel_basis(lifted_incidence(g, n).T)
            assert kernel.shape[1] == n
            assert subspaces_equal(kernel, consensus_span(g.m, n))


def test_consensus_always_in_agreement_kernel():
    rng = np.random.default_rng(2)
    for _ in range(10):
        w = random_weakly_connected_wng(rng)
        kernel = agreement_kernel(w)
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


def test_reduced_cycle_matches_full_cycle_with_pinning_weights():
    # pinned arcs get zero kernels, which forces equality across them; the
    # verdict must then match the criterion on the remaining kernels alone
    rng = np.random.default_rng(6)
    for _ in range(40):
        m = int(rng.integers(3, 6))
        n = int(rng.integers(2, 5))
        pinned = {int(k) for k in rng.choice(m, size=int(rng.integers(0, m)), replace=False)}
        kernels = [
            np.zeros((n, 0)) if k in pinned else random_subspace(rng, n, int(rng.integers(1, n)))
            for k in range(m)
        ]
        reduced = reduced_cycle_criterion(kernels, pinned)
        assert reduced == cycle_criterion(kernels)
        assert reduced == bool(is_well_configured(cycle_wng(kernels)))


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
    # a zero matrix normalizes to the empty row basis
    wz = WeightedNeighborGraph(g, 2, {(1, 2): np.zeros((1, 2))})
    assert wz.normalized().weight((1, 2)).shape == (0, 2)


def test_weights_json_roundtrip():
    w = synthesize_weights(backlinked_cycle_graph(), 2)
    data = weights_to_json(w)
    again = weights_from_json(data)
    assert again.graph == w.graph and again.n == w.n
    for arc in w.graph.arcs:
        assert np.array_equal(again.weight(arc), w.weight(arc))
    with pytest.raises(ValueError, match="unknown"):
        weights_from_json({**data, "extra": 1})


def test_weights_json_missing_keys_raise_value_error():
    data = weights_to_json(synthesize_weights(backlinked_cycle_graph(), 2))
    for key in ("m", "n", "arcs"):
        with pytest.raises(ValueError, match=f"missing weight-file keys: \\['{key}'\\]"):
            weights_from_json({k: v for k, v in data.items() if k != key})
    for key in ("j", "i", "C"):
        arcs = [{k: v for k, v in entry.items() if k != key} for entry in data["arcs"]]
        with pytest.raises(ValueError, match=f"missing arc keys: \\['{key}'\\]"):
            weights_from_json({**data, "arcs": arcs})


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


def test_overlap_dimension_counts_failures():
    g = directed_path(3)
    w = WeightedNeighborGraph(g, 2, {(1, 2): np.array([[1.0, 0.0]]), (2, 3): np.eye(2)})
    assert disagreement_overlap_dim(w) == 1
    assert disagreement_overlap_dim(identity_weights(g, 2)) == 0


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
        for rtol in (1e-10, 1e-3):
            normalized = w.normalized(rtol)
            for arc in w.graph.arcs:
                assert np.array_equal(normalized.weight(arc), row_space_basis(w.weight(arc), rtol))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), permute=st.booleans())
def test_agreement_map_equals_kron_formula(seed, permute):
    # arcs drawn at random (d = 0 included), with zero-row, wide, tall and
    # all-zero weights, in canonical or a random order
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
    assert np.array_equal(agreement_map(w, order), agreement_map_kron(w, order))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), exponents=st.lists(st.sampled_from([-6, 0, 6]), min_size=1, max_size=8))
def test_kernel_dim_matches_dense_nullity_under_rescaling(seed, exponents):
    w = rescaled_wng(seed, exponents)
    report = is_well_configured(w)
    assert report.kernel_dim == agreement_nullity_dense(w)
    assert report.well_configured == (report.kernel_dim == w.n)


def test_verdict_takes_no_singular_vectors_when_well_configured(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert is_well_configured(synthesize_symmetric_weights(symmetric_cycle(6), 3))
    assert calls == [False]
    calls.clear()
    assert not is_well_configured(WeightedNeighborGraph(directed_path(2), 2, {(1, 2): np.array([[1.0, 0.0]])}))
    assert calls == [False, True]  # the witness needs the kernel vectors


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


def test_overlap_image_equals_lifted_incidence_image():
    from limcon.linalg import column_space_basis
    from limcon.wellconfig import lifted_incidence, lifted_incidence_image

    rng = np.random.default_rng(31)
    for _ in range(30):
        w = random_weakly_connected_wng(rng)
        old = column_space_basis(lifted_incidence(w.graph, w.n).T)
        new = lifted_incidence_image(w.graph, w.n)
        assert np.allclose(new.T @ new, np.eye(new.shape[1]), atol=1e-12)
        assert subspaces_equal(new, old)


def test_normalized_is_computed_once_per_rtol():
    rng = np.random.default_rng(41)
    w = random_weakly_connected_wng(rng)
    first = w.normalized()
    assert w.normalized() is first
    assert w.normalized(1e-3) is not first
    fresh = WeightedNeighborGraph(w.graph, w.n, w.weights).normalized()
    for arc in w.graph.arcs:
        assert np.array_equal(first.weight(arc), fresh.weight(arc))
