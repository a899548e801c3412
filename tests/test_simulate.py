import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limcon import (
    RANK_RTOL,
    DirectedGraph,
    RankGap,
    Schedule,
    StepsizeSchedule,
    WeightedNeighborGraph,
    backlinked_cycle_graph,
    build_update_matrix,
    complete_symmetric,
    consensus_error,
    consensus_span,
    directed_cycle,
    directed_path,
    identity_weights,
    is_symmetric,
    is_well_configured,
    kernel_basis,
    local_agreement_residual,
    mixed_norm_2_inf,
    reported_matrix,
    run_cycle_projection,
    run_fixed_step,
    run_general_projection,
    run_gradient,
    run_metropolis_tv,
    spectral_counts,
    spectral_report,
    stacked_laplacian,
    symmetric_closure,
    symmetric_cycle,
    symmetric_path,
    symmetric_star,
    synthesize_weights,
    synthesize_symmetric_weights,
)
from limcon.graphs import _bfs_levels
from limcon.simulate import (
    CONSENSUS_STREAK,
    CONSENSUS_TOL,
    RoundOperator,
    _consensus_errors,
    _inertia_counts,
    _run,
)
from limcon.wellconfig import agreement_map

from conftest import weight_with_kernel
from oracles import (
    block_diag,
    central_difference_gradient,
    consensus_error_at_scale,
    consensus_error_exact,
    cycle_step_agents,
    fixed_step_agents,
    general_step_agents,
    gradient_step_agents,
    metropolis_arc_weights,
    metropolis_step_agents,
    one_eigenspace_dim_dense,
    run_per_round,
    spanning_incidence_matrix,
    spanning_weight_matrix,
    stacked_laplacian_kron,
    subspaces_equal,
    update_matrix_kron,
)


def counterexample_wng():
    g = backlinked_cycle_graph()
    return WeightedNeighborGraph(
        g,
        2,
        {
            (1, 2): np.array([[1.0, 0.0]]),
            (2, 3): np.array([[1.0, 0.0]]),
            (3, 1): np.array([[0.0, 1.0]]),
            (2, 1): np.array([[0.0, 1.0]]),
        },
    )


def two_subgraph_schedule(m=4):
    g1 = DirectedGraph(m, ((1, 2), (2, 1), (3, 4), (4, 3)))
    g2 = DirectedGraph(m, ((2, 3), (3, 2), (4, 1), (1, 4)))
    return Schedule.periodic([g1, g2])


# ---------------------------------------------------------------- weights


def test_damping_matches_per_agent_degrees(sc_corpus):
    from limcon.simulate import _damping

    for g in [*sc_corpus.values(), DirectedGraph(3, ((1, 2),))]:
        for half in (True, False):
            loop = [1.0 / ((2.0 if half else 1.0) * (g.degree(i) + 1)) for i in range(1, g.m + 1)]
            assert np.array_equal(_damping(g, half), loop)


def metropolis_weights(g):
    """The arc -> weight map of g's own Metropolis row."""
    return dict(zip(g.arcs, Schedule.fixed(g).arc_weights(g)[0].tolist()))


def test_metropolis_pair():
    w = metropolis_weights(DirectedGraph(2, ((1, 2), (2, 1))))
    assert w[(1, 2)] == w[(2, 1)] == pytest.approx(0.5)


def test_metropolis_triangle():
    w = metropolis_weights(symmetric_cycle(3))
    assert all(v == pytest.approx(1.0 / 3.0) for v in w.values())


def test_metropolis_star():
    w = metropolis_weights(symmetric_star(4))
    assert w[(1, 2)] == pytest.approx(0.25)
    assert w[(2, 1)] == pytest.approx(0.25)


def test_metropolis_symmetry_and_row_sums(sym_corpus):
    for g in sym_corpus.values():
        w = metropolis_weights(g)
        for j, i in g.arcs:
            assert w[(j, i)] == w[(i, j)]
        for i in range(1, g.m + 1):
            assert sum(w[(j, i)] for j in g.in_neighbors(i)) < 1.0


def test_metropolis_rejects_directed():
    with pytest.raises(ValueError, match="scheduled graph 0 is not symmetric"):
        Schedule.fixed(directed_cycle(3)).arc_weights(directed_cycle(3))


def random_symmetric_subgraph(g, rng):
    """A spanning subgraph of symmetric g that keeps each pair with probability 1/2, both arcs."""
    pairs = [pair for pair in g.undirected_pairs if rng.random() < 0.5]
    return DirectedGraph(g.m, tuple(arc for a, b in pairs for arc in ((a, b), (b, a))))


def test_arc_weights_match_the_per_arc_oracle_bit_for_bit(sym_corpus):
    rng = np.random.default_rng(11)
    for g in sym_corpus.values():
        subgraphs = [g, *(random_symmetric_subgraph(g, rng) for _ in range(4))]
        table = Schedule.periodic(subgraphs).arc_weights(g)
        assert np.array_equal(table, metropolis_arc_weights(g, subgraphs))


# ---------------------------------------------------------------- schedules


def test_stepsize_validation():
    with pytest.raises(ValueError):
        StepsizeSchedule.harmonic(a=0)
    with pytest.raises(ValueError, match=r"^value must be positive and finite, got -1.0$"):
        StepsizeSchedule.constant(-1.0)
    with pytest.raises(ValueError, match=r"^b must be >= 1 and finite, got 0.5$"):
        StepsizeSchedule.harmonic(b=0.5)
    with pytest.raises(ValueError, match=r"^values\[1\] must be positive and finite, got 0.0$"):
        StepsizeSchedule.scripted([0.1, 0])
    with pytest.raises(ValueError, match="^values must not be empty$"):
        StepsizeSchedule.scripted([])
    makers = (
        StepsizeSchedule.constant,
        lambda v: StepsizeSchedule.scripted([0.1, v]),
        lambda v: StepsizeSchedule.harmonic(a=v),
        lambda v: StepsizeSchedule.harmonic(b=v),
    )
    for make in makers:
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                make(bad)
    ss = StepsizeSchedule.harmonic()
    assert ss.alpha(0) == pytest.approx(0.5)
    scripted = StepsizeSchedule.scripted([0.1, 0.2])
    assert scripted.alpha(1) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        scripted.alpha(2)


def test_harmonic_stepsize_series_conditions():
    ss = StepsizeSchedule.harmonic(a=1, b=2)
    alphas = np.array([ss.alpha(t) for t in range(20000)])
    assert alphas.sum() > 5.0  # diverging partial sums keep growing
    assert np.sum(alphas**2) < np.pi**2 / 6 + 1.0  # square-summable


def test_schedule_validation():
    base = symmetric_cycle(4)
    sched = two_subgraph_schedule()
    assert sched.arc_weights(base).shape == (2, base.d)
    bad = Schedule.periodic([two_subgraph_schedule().subgraphs[0], directed_cycle(4)])
    with pytest.raises(ValueError, match="scheduled graph 1 is not symmetric"):
        bad.arc_weights(base)
    foreign = Schedule.periodic([DirectedGraph(4, ((1, 3), (3, 1)))])
    with pytest.raises(ValueError, match="scheduled graph 0 is not a spanning subgraph of the base graph"):
        foreign.arc_weights(base)
    with pytest.raises(ValueError, match="spanning"):
        Schedule.fixed(symmetric_cycle(5)).arc_weights(base)  # another vertex count
    with pytest.raises(ValueError, match="spanning"):
        Schedule.fixed(base).arc_weights(DirectedGraph(4, ()))  # a base without arcs
    assert Schedule.fixed(DirectedGraph(4, ())).arc_weights(base).tolist() == [[0.0] * base.d]
    with pytest.raises(ValueError):
        Schedule.scripted([base], [0, 1])


def test_scripted_schedule_refuses_non_integer_entries():
    base = symmetric_cycle(4)
    assert Schedule.scripted([base], [np.int64(0)]).script == (0,)
    with pytest.raises(ValueError, match="schedule script entry must be an integer, got 0.5"):
        Schedule.scripted([base], [0, 0.5])


def test_periodic_schedule_cycles():
    sched = two_subgraph_schedule()
    assert [sched.index_at(t) for t in range(3)] == [0, 1, 0]


# ------------------------------------------------- stacked vs per-agent


def rotated(w, rng):
    """w with every weight turned by one random orthogonal matrix: the same
    kernel dimensions, on rows that are not coordinate axes."""
    q = np.linalg.qr(rng.standard_normal((w.n, w.n)))[0]
    return WeightedNeighborGraph(w.graph, w.n, {arc: c @ q for arc, c in w.weights.items()})


def test_gradient_matches_per_agent_updates():
    rng = np.random.default_rng(0)
    g = symmetric_cycle(3)
    for w in (synthesize_weights(g, 2, mode="nonzero-kernels"), rotated(synthesize_weights(g, 3), rng)):
        x = rng.standard_normal((3, w.n))
        traj = run_gradient(w, x, 5)
        expect = x.copy()
        ss = StepsizeSchedule.harmonic()
        for t in range(5):
            expect = gradient_step_agents(w, expect, ss.alpha(t))
        assert np.abs(traj.states[-1] - expect).max() < 1e-12


def test_fixed_step_matches_per_agent_updates():
    rng = np.random.default_rng(1)
    cases = [synthesize_weights(g, 3, mode="nonzero-kernels") for g in (symmetric_cycle(3), symmetric_star(4), symmetric_cycle(4))]
    for w in cases + [rotated(synthesize_weights(complete_symmetric(5), 3), rng)]:
        x = rng.standard_normal((w.m, 3))
        traj = run_fixed_step(w, x, 4)
        expect = x.copy()
        wn = w.normalized()
        for _ in range(4):
            expect = fixed_step_agents(wn, expect)
        assert np.abs(traj.states[-1] - expect).max() < 1e-12


def test_metropolis_matches_per_agent_updates():
    rng = np.random.default_rng(2)
    sched = two_subgraph_schedule()
    g = symmetric_cycle(4)
    for w in (synthesize_weights(g, 2, mode="nonzero-kernels"), rotated(synthesize_weights(g, 3), rng)):
        x = rng.standard_normal((4, w.n))
        traj = run_metropolis_tv(w, x, sched, 4)
        expect = x.copy()
        wn = w.normalized()
        for t in range(4):
            expect = metropolis_step_agents(wn, expect, sched.subgraphs[sched.index_at(t)])
        assert np.abs(traj.states[-1] - expect).max() < 1e-12


def test_cycle_projection_matches_per_agent_updates():
    rng = np.random.default_rng(3)
    g = directed_cycle(4)
    for w in (synthesize_weights(g, 4, mode="nonzero-kernels"), rotated(synthesize_weights(g, 3), rng)):
        x = rng.standard_normal((4, w.n))
        traj = run_cycle_projection(w, x, 6)
        expect = x.copy()
        wn = w.normalized()
        for _ in range(6):
            expect = cycle_step_agents(wn, expect)
        assert np.abs(traj.states[-1] - expect).max() < 1e-12


def test_general_projection_matches_per_agent_updates():
    rng = np.random.default_rng(4)
    for w in (counterexample_wng(), rotated(synthesize_weights(backlinked_cycle_graph(), 3), rng)):
        x = rng.standard_normal((3, w.n))
        traj = run_general_projection(w, x, 6)
        expect = x.copy()
        wn = w.normalized()
        for _ in range(6):
            expect = general_step_agents(wn, expect)
        assert np.abs(traj.states[-1] - expect).max() < 1e-12


# --------------------------------------------------- update matrices


def test_update_matrix_agrees_with_runs():
    rng = np.random.default_rng(5)
    cases = [
        ("fixed_step", synthesize_weights(symmetric_cycle(3), 2, mode="nonzero-kernels"), run_fixed_step),
        ("general_projection", counterexample_wng(), run_general_projection),
        ("cycle_projection", synthesize_weights(directed_cycle(3), 3, mode="nonzero-kernels"), run_cycle_projection),
    ]
    for name, w, runner in cases:
        mat = build_update_matrix(name, w)
        x = rng.standard_normal((w.m, w.n))
        traj = runner(w, x, 1)
        assert np.abs(mat @ x.reshape(-1) - traj.states[-1].reshape(-1)).max() < 1e-12


def test_metropolis_update_matrix_agrees_with_run():
    rng = np.random.default_rng(6)
    w = synthesize_weights(symmetric_cycle(4), 2, mode="nonzero-kernels")
    sub = two_subgraph_schedule().subgraphs[0]
    mat = build_update_matrix("metropolis_tv", w, sub)
    x = rng.standard_normal((4, 2))
    traj = run_metropolis_tv(w, x, Schedule.fixed(sub), 1)
    assert np.abs(mat @ x.reshape(-1) - traj.states[-1].reshape(-1)).max() < 1e-12


def test_metropolis_update_matrix_refuses_a_foreign_subgraph():
    w = synthesize_weights(symmetric_cycle(4), 2, mode="nonzero-kernels")
    with pytest.raises(ValueError, match="spanning"):
        build_update_matrix("metropolis_tv", w, DirectedGraph(4, ((1, 3), (3, 1))))


def test_update_matrix_unknown_algorithm():
    w = identity_weights(symmetric_cycle(3), 2)
    for name in ("gradient", "general_projecton", "Fixed_step"):
        with pytest.raises(ValueError, match=f"no fixed round matrix for algorithm '{name}'"):
            build_update_matrix(name, w)


def test_counterexample_matrix_matches_block_form():
    w = counterexample_wng()
    wn = w.normalized()
    p1, p2, p3, p4 = (wn.weight(arc).T @ wn.weight(arc) for arc in ((1, 2), (2, 3), (3, 1), (2, 1)))
    eye = np.eye(2)
    expected = np.block(
        [
            [eye - p4 / 3 - p3 / 3, p4 / 3, p3 / 3],
            [p1 / 2, eye - p1 / 2, np.zeros((2, 2))],
            [np.zeros((2, 2)), p2 / 2, eye - p2 / 2],
        ]
    )
    got = build_update_matrix("general_projection", w)
    assert np.abs(got - expected).max() < 1e-12


def test_cycle_projection_is_general_projection_on_cycles():
    rng = np.random.default_rng(7)
    w = synthesize_weights(directed_cycle(4), 4, mode="nonzero-kernels")
    x = rng.standard_normal((4, 4))
    a = run_cycle_projection(w, x, 40)
    b = run_general_projection(w, x, 40)
    assert np.array_equal(a.states, b.states)  # bitwise identical


def test_cycle_projection_rejects_non_cycles():
    w = identity_weights(directed_path(3), 2)
    with pytest.raises(ValueError, match="directed cycle"):
        run_cycle_projection(w, np.zeros((3, 2)), 1)
    with pytest.raises(ValueError, match="directed cycle"):
        build_update_matrix("cycle_projection", identity_weights(backlinked_cycle_graph(), 2))


# --------------------------------------------------- fixed points and spectra


def test_consensus_initial_state_is_exact_fixed_point():
    value = np.array([0.7, -1.3])
    runs = [
        lambda w, x: run_gradient(w, x, 15),
        lambda w, x: run_fixed_step(w, x, 15),
        lambda w, x: run_metropolis_tv(w, x, Schedule.fixed(w.graph), 15),
    ]
    w = synthesize_weights(symmetric_cycle(3), 2, mode="nonzero-kernels")
    x0 = np.tile(value, (3, 1))
    for run in runs:
        traj = run(w, x0)
        assert np.array_equal(traj.states[-1], x0)
        assert traj.converged
    wc = synthesize_weights(directed_cycle(3), 2)
    traj = run_cycle_projection(wc, x0, 15)
    assert np.array_equal(traj.states[-1], x0)


def test_fixed_step_unit_eigenspace_is_consensus(sym_corpus):
    for name, g in sym_corpus.items():
        w = synthesize_symmetric_weights(g, 2)
        mat = build_update_matrix("fixed_step", w)
        fixed = kernel_basis(mat - np.eye(mat.shape[0]))
        assert fixed.shape[1] == 2, name
        assert subspaces_equal(fixed, consensus_span(g.m, 2)), name


def test_cycle_projection_unit_eigenspace_is_consensus():
    w = synthesize_weights(directed_cycle(3), 3, mode="nonzero-kernels")
    mat = build_update_matrix("cycle_projection", w)
    fixed = kernel_basis(mat - np.eye(9))
    assert fixed.shape[1] == 3
    assert subspaces_equal(fixed, consensus_span(3, 3))


def test_spectral_report_identity():
    rep = spectral_report(np.eye(6), 2)
    assert rep.ones == 6 and rep.zeros == 0 and rep.inside_unit == 0 and rep.outside == 0
    assert rep.paracontracting is True
    assert rep.degenerate


def test_quadratic_gram_has_n_zeros_rest_positive():
    for w in (
        synthesize_weights(symmetric_cycle(3), 2, mode="nonzero-kernels"),
        synthesize_weights(directed_cycle(4), 4, mode="nonzero-kernels"),
        identity_weights(backlinked_cycle_graph(), 3),
    ):
        gram = stacked_laplacian(w)
        lam = np.linalg.eigvalsh(gram)
        assert np.sum(np.abs(lam) <= 1e-8) == w.n
        assert np.all(lam[np.abs(lam) > 1e-8] > 0)


def test_scaled_gram_keeps_n_zeros():
    rng = np.random.default_rng(8)
    w = synthesize_weights(symmetric_cycle(3), 2, mode="nonzero-kernels")
    gram = stacked_laplacian(w)
    scale = np.kron(np.diag(rng.uniform(0.5, 2.0, size=3)), np.eye(2))
    lam = np.linalg.eigvals(scale @ gram)
    assert np.abs(np.imag(lam)).max() < 1e-8
    lam = np.real(lam)
    assert np.sum(np.abs(lam) <= 1e-8) == 2
    assert np.all(lam[np.abs(lam) > 1e-8] > 0)


def test_metropolis_round_matrices_paracontracting(sym_corpus):
    for name, g in sym_corpus.items():
        w = synthesize_symmetric_weights(g, 2)
        a, b = g.undirected_pairs[0]
        for sub in (g, DirectedGraph(g.m, ((a, b), (b, a)))):
            rep = spectral_report(build_update_matrix("metropolis_tv", w, sub), 2)
            assert rep.symmetric, name
            assert rep.paracontracting, name
        full = spectral_report(build_update_matrix("metropolis_tv", w, g), 2)
        assert full.ones == 2 and full.outside == 0, name


def test_damped_gram_mixed_norm_below_two(sym_corpus):
    for name, g in sym_corpus.items():
        w = synthesize_symmetric_weights(g, 2).normalized()
        eye = np.eye(g.m * 2)
        damped = eye - build_update_matrix("fixed_step", w)  # Dbar Jbar C'C Jbar'
        assert mixed_norm_2_inf(damped, 2) < 2.0, name


# --------------------------------------------------- convergence behavior


def test_fixed_step_converges_on_well_configured():
    rng = np.random.default_rng(9)
    w = synthesize_weights(symmetric_cycle(4), 2, mode="nonzero-kernels")
    traj = run_fixed_step(w, rng.standard_normal((4, 2)), 5000)
    assert traj.converged
    assert traj.final_consensus_error < 1e-9
    assert local_agreement_residual(w, traj.states[-1]) < 1e-8


def test_metropolis_tv_converges_with_recurring_subgraphs():
    rng = np.random.default_rng(10)
    w = synthesize_weights(symmetric_cycle(4), 2, mode="nonzero-kernels")
    traj = run_metropolis_tv(w, rng.standard_normal((4, 2)), two_subgraph_schedule(), 5000)
    assert traj.converged
    # the limit satisfies local agreement on the whole allowable graph
    assert local_agreement_residual(w, traj.states[-1]) < 1e-8


def test_fixed_schedule_equals_full_graph_metropolis_each_round():
    rng = np.random.default_rng(11)
    w = synthesize_weights(symmetric_cycle(3), 2, mode="nonzero-kernels")
    x = rng.standard_normal((3, 2))
    tv = run_metropolis_tv(w, x, Schedule.fixed(w.graph), 10)
    mat = build_update_matrix("metropolis_tv", w, w.graph)
    flat = x.reshape(-1)
    for t in range(1, 11):
        flat = mat @ flat
        assert np.abs(tv.states[t].reshape(-1) - flat).max() < 1e-12


def test_recurring_weighted_kernel_identity():
    # kernel C Jbar' equals kernel C (sum_i Wbar_i^(1/2) Jbar_i') when the
    # recurring subgraphs cover every arc
    w = synthesize_weights(symmetric_cycle(4), 2, mode="nonzero-kernels")
    g = w.graph
    sched = two_subgraph_schedule()
    c = block_diag([w.weight(arc) for arc in g.arcs])
    eye = np.eye(2)
    total = np.zeros((g.d * 2, g.m * 2))
    for sub in sched.subgraphs:
        jbar_t = np.kron(spanning_incidence_matrix(g, sub).T, eye)
        wbar_sqrt = np.kron(np.sqrt(spanning_weight_matrix(g, sub)), eye)
        total += wbar_sqrt @ jbar_t
    lhs = kernel_basis(agreement_map(w))
    rhs = kernel_basis(c @ total)
    assert subspaces_equal(lhs, rhs)


def test_scripted_schedule_runs_and_exhausts():
    w = synthesize_weights(symmetric_cycle(4), 2, mode="nonzero-kernels")
    sched = Schedule.scripted(two_subgraph_schedule().subgraphs, [0, 1, 0, 1])
    traj = run_metropolis_tv(w, np.zeros((4, 2)), sched, 4)
    assert traj.steps_run <= 4
    with pytest.raises(ValueError, match="script"):
        run_metropolis_tv(w, np.ones((4, 2)), sched, 5)


def test_scripted_schedule_shorter_than_steps_fails_only_at_its_end():
    rng = np.random.default_rng(13)
    w = synthesize_weights(symmetric_cycle(4), 2, mode="nonzero-kernels")
    x0 = rng.standard_normal((4, 2))
    subgraphs, script = two_subgraph_schedule().subgraphs, [0, 1] * 500
    long_run = run_metropolis_tv(w, x0, Schedule.scripted(subgraphs, script), 1000)
    rounds = long_run.steps_run
    assert long_run.converged and CONSENSUS_STREAK < rounds < 1000
    # a script that ends at the converging round is enough for any budget
    exact = run_metropolis_tv(w, x0, Schedule.scripted(subgraphs, script[:rounds]), 1000)
    assert exact.converged and exact.states.tobytes() == long_run.states.tobytes()
    # one round shorter, the run reaches the script's end and fails there
    with pytest.raises(ValueError) as short:
        run_metropolis_tv(w, x0, Schedule.scripted(subgraphs, script[: rounds - 1]), 1000)
    assert str(short.value) == f"schedule script of length {rounds - 1} exhausted at round {rounds - 1}"


def test_projected_init_reaches_consensus_even_when_not_well_configured():
    rng = np.random.default_rng(12)
    # coordinate kernels repeat: 4 nonzero kernels in R^2 are never independent
    e = np.eye(2)
    kernels = [e[:, [0]], e[:, [1]], e[:, [0]], e[:, [1]]]
    g = directed_cycle(4)
    weights = {(v, v % 4 + 1): weight_with_kernel(kernels[v - 1]) for v in range(1, 5)}
    w = WeightedNeighborGraph(g, 2, weights)
    assert not is_well_configured(w)
    x0 = rng.standard_normal((4, 2))
    stalled = run_cycle_projection(w, x0, 4000, project_init=False)
    assert not stalled.converged
    assert stalled.final_consensus_error > 1e-3
    projected = run_cycle_projection(w, x0, 4000, project_init=True)
    assert projected.converged


def test_projected_cycle_iteration_has_stochastic_mixing_form():
    # on states initialized inside the projection images, each round equals
    # blockdiag(P_i) times the self-weighted flocking average of the cycle
    rng = np.random.default_rng(16)
    w = synthesize_weights(directed_cycle(4), 3)
    wn = w.normalized()
    g = w.graph
    projections = {}
    x0 = rng.standard_normal((4, 3))
    for j, i in g.arcs:
        c = wn.weight((j, i))
        p = c.T @ c
        projections[i] = p
        x0[i - 1] = p @ x0[i - 1]
    mixing = np.zeros((4, 4))
    for i in range(1, 5):
        (pred,) = g.in_neighbors(i)
        mixing[i - 1, i - 1] = 0.5
        mixing[i - 1, pred - 1] = 0.5
    proj_block = block_diag([projections[i] for i in range(1, 5)])
    traj = run_cycle_projection(w, x0, 8)
    flat = x0.reshape(-1)
    for t in range(1, 9):
        flat = proj_block @ (np.kron(mixing, np.eye(3)) @ flat)
        assert np.abs(traj.states[t].reshape(-1) - flat).max() < 1e-12


def test_counterexample_stalls_at_fixed_point():
    w = counterexample_wng()
    assert is_well_configured(w)
    y = np.array([0.0, 1.0])
    x = np.vstack([np.zeros(2), y, -y])
    mat = build_update_matrix("general_projection", w)
    assert np.linalg.norm(mat @ x.reshape(-1) - x.reshape(-1)) < 1e-12
    traj = run_general_projection(w, x, 100)
    assert not traj.converged
    assert np.all(traj.consensus_errors >= 0.5 * np.linalg.norm(y))
    rep = spectral_report(mat, 2)
    assert rep.one_eigenspace_dim > 2


# --------------------------------------------------- gradient specifics


def test_gradient_requires_symmetric_graph():
    w = identity_weights(directed_cycle(3), 2)
    with pytest.raises(ValueError, match="symmetric"):
        run_gradient(w, np.zeros((3, 2)), 1)


def test_gradient_descends_squared_residual():
    rng = np.random.default_rng(13)
    w = synthesize_weights(symmetric_cycle(3), 2, mode="nonzero-kernels")
    amap = agreement_map(w)
    gram = stacked_laplacian(w)

    def objective(flat):
        return float(np.linalg.norm(amap @ flat) ** 2)

    for _ in range(5):
        x = rng.standard_normal(6)
        analytic = 2.0 * gram @ x
        numeric = central_difference_gradient(objective, x)
        denom = max(np.linalg.norm(analytic), 1.0)
        assert np.linalg.norm(analytic - numeric) / denom < 1e-6


def test_gradient_reduces_error_on_triangle():
    rng = np.random.default_rng(14)
    w = synthesize_weights(symmetric_cycle(3), 2, mode="nonzero-kernels")
    traj = run_gradient(w, rng.standard_normal((3, 2)), 2000)
    assert traj.final_consensus_error < 1e-3 * traj.consensus_errors[0]


# --------------------------------------------------- trajectory bookkeeping


def test_trajectory_records_initial_state_and_lengths():
    w = identity_weights(symmetric_cycle(3), 2)
    x0 = np.arange(6.0).reshape(3, 2)
    traj = run_fixed_step(w, x0, 7)
    assert np.array_equal(traj.states[0], x0)
    assert len(traj.states) == len(traj.consensus_errors) == len(traj.residuals)


def test_zero_steps_trajectory():
    w = identity_weights(symmetric_cycle(3), 2)
    traj = run_fixed_step(w, np.ones((3, 2)), 0)
    assert traj.states.shape == (1, 3, 2)
    assert traj.steps_run == 0


def test_initial_state_shape_checks():
    w = identity_weights(symmetric_cycle(3), 2)
    with pytest.raises(ValueError, match="shape"):
        run_fixed_step(w, np.ones((2, 2)), 1)
    traj = run_fixed_step(w, np.ones(6), 1)  # flat form accepted
    assert traj.states.shape[1:] == (3, 2)


def test_residuals_are_computed_on_first_read_per_state():
    rng = np.random.default_rng(23)
    g = symmetric_cycle(4)
    w = synthesize_weights(g, 3, mode="nonzero-kernels")
    x0 = rng.standard_normal((4, 3))
    runs = [
        run_fixed_step(w, x0, 40),
        run_gradient(w, x0, 40),
        run_metropolis_tv(w, x0, two_subgraph_schedule(), 40),
        run_general_projection(w, x0, 40),
        run_fixed_step(w, x0, 0),
    ]
    for traj in runs:
        assert "residuals" not in vars(traj)
        # final_residual reads the last state alone
        final = traj.final_residual
        assert "residuals" not in vars(traj)
        loop = np.array([local_agreement_residual(w, x) for x in traj.states])
        assert traj.residuals.tobytes() == loop.tobytes()
        assert final == traj.residuals[-1]


@pytest.mark.parametrize(
    "x, n",
    [
        (np.random.default_rng(3).standard_normal((7, 3)), None),
        (np.random.default_rng(4).standard_normal((40, 5)) * 1e-3 + 2.0, None),
        (np.random.default_rng(5).standard_normal((1, 4)), None),  # m = 1
        (np.random.default_rng(6).standard_normal(12), 3),  # a flat draw, taken as (4, 3)
        (np.random.default_rng(7).standard_normal(12), 1),  # n = 1
        (np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]]), None),
        (np.array([[5e-324, -5e-324], [2.2250738585072014e-308, 0.0], [-1e-310, 3e-320]]), None),
        (np.array([[1e300, 0.0], [-1e300, 1.0], [1e300, 2.0]]), None),  # d*d overflows: taken at scale
        (np.array([[1e308, 1e308], [1e308, -1e308]]), None),  # the sum overflows: taken at scale
        (np.array([[np.nan, 0.0], [1.0, 2.0]]), None),
        (np.array([[1.0, 2.0], [np.inf, 2.0]]), None),
    ],
)
def test_consensus_error_equals_the_norm_formula_bit_for_bit(x, n):
    if n is not None:
        x = x.reshape(-1, n)
    with np.errstate(all="ignore"):
        mine, reference = consensus_error(x), consensus_error_at_scale(x)
    assert isinstance(mine, float)
    assert np.array([mine]).tobytes() == np.array([reference]).tobytes()


def test_consensus_error_and_residual_are_silent_past_the_squares_overflow():
    # a finite state whose squared differences overflow is measured at scale,
    # without a RuntimeWarning (which the suite's filterwarnings turns into an error)
    x = np.array([[1e300, 0.0], [-1e300, 1.0]])
    assert consensus_error(x) == pytest.approx(1e300, rel=1e-15)
    w = identity_weights(directed_cycle(2), 2)
    assert local_agreement_residual(w, x) == pytest.approx(2.0 * np.sqrt(2.0) * 1e300, rel=1e-15)


def test_consensus_error_keeps_small_deviations_where_the_agent_sum_overflows():
    # the sum 2e308 overflows, while the deviations are 0 and 0.5: measuring
    # the whole state at a tiny scale would underflow their squares to 0
    assert consensus_error([[1e308, 0.0], [1e308, 1.0]]) == 0.5


def test_a_run_with_a_huge_agreed_component_converges_as_with_a_small_one():
    # identity weights keep the columns apart, so column 1 spreads alike in
    # both runs and column 0 stays agreed; the sum of column 0 overflows
    w = identity_weights(symmetric_cycle(8), 2)
    huge, small = (run_fixed_step(w, np.column_stack([np.full(8, c), np.arange(8.0)]), 500) for c in (1e308, 1.0))
    assert small.converged and small.steps_run == 109
    assert huge.steps_run == small.steps_run and huge.converged
    assert huge.consensus_errors.tobytes() == small.consensus_errors.tobytes()


def test_the_per_round_reference_stops_the_huge_agreed_run_where_the_engine_does():
    # the reference measures the overflowing agent sum of column 0 exactly,
    # not at a scale where column 1's squares underflow to 0
    w = identity_weights(symmetric_cycle(8), 2)
    x0 = np.column_stack([np.full(8, 1e308), np.arange(8.0)])
    wn = w.normalized()
    engine = run_fixed_step(w, x0, 500)
    per_round = run_per_round(x0, 500, lambda t, x: fixed_step_agents(wn, x), CONSENSUS_TOL, CONSENSUS_STREAK)
    assert per_round[2:] == (engine.steps_run, engine.converged) == (109, True)
    assert per_round[1][0] == engine.consensus_errors[0] == 3.5


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6), n=st.integers(1, 4))
def test_consensus_error_is_near_the_exact_error_where_the_formula_overflows(seed, m, n):
    # column 0 near the top of the double range, so its agent sum or its
    # squares overflow; the others at any magnitude from 1e-300.  A column is
    # agreed, at a value whose short significand keeps its float mean exact,
    # or takes both signs, so its deviations are as wide as its values: where
    # they are far narrower, the formula's rounded mean alone errs by about
    # eps |mean|, at any scale
    rng = np.random.default_rng(seed)
    columns = []
    for c in range(n):
        top = 1.79e308 if c == 0 else 10.0 ** rng.uniform(-300, 308)
        if rng.random() < 0.5:
            significand = int(rng.integers(2**19, 2**20)) * int(rng.choice([-1, 1]))
            columns.append(np.full(m, np.ldexp(float(significand), np.frexp(top)[1] - 20)))
        else:
            signs = rng.permutation(np.r_[1.0, -1.0, rng.choice([-1.0, 1.0], m - 2)])
            columns.append(signs * rng.uniform(0.5, 1.0, m) * top)
    x = np.column_stack(columns)
    with np.errstate(over="ignore"):  # the plain mean formula, which zeroes no agreed column
        assert not np.isfinite(np.linalg.norm(x - x.mean(axis=0), axis=1)).all()
    exact, mine = consensus_error_exact(x), consensus_error(x)
    assert abs(mine - exact) <= 4.5e-16 * exact or mine == exact == np.inf


def test_consensus_error_and_residual_on_consensus():
    w = identity_weights(symmetric_cycle(3), 2)
    x = np.tile([1.0, 2.0], (3, 1))
    assert consensus_error(x) == 0.0
    assert local_agreement_residual(w, x) == 0.0


def test_an_exactly_agreed_state_reads_consensus_error_zero():
    # the float mean of three copies of 123456789.1 rounds, so that every
    # deviation from it read 1.49e-8, above CONSENSUS_TOL
    x = np.full((3, 1), 123456789.1)
    assert consensus_error(x) == 0.0
    traj = run_fixed_step(identity_weights(symmetric_cycle(3), 1), x, 50)
    assert traj.converged and traj.steps_run < 50
    assert traj.states.tobytes() == np.broadcast_to(x, traj.states.shape).tobytes()
    assert not traj.consensus_errors.any()


@settings(max_examples=300, deadline=None)
@given(
    row=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
    m=st.integers(1, 9),
)
def test_a_state_with_every_column_agreed_reads_zero(row, m):
    # at any magnitude, also where the agent sum or the squares overflow
    x = np.tile(row, (m, 1))
    assert consensus_error(x) == 0.0
    assert _consensus_errors(np.stack([x, -x, np.ldexp(x, -1074)])) == [0.0, 0.0, 0.0]


def test_residual_zero_implies_consensus_on_well_configured():
    rng = np.random.default_rng(15)
    w = synthesize_weights(symmetric_cycle(4), 3, mode="nonzero-kernels")
    traj = run_fixed_step(w, rng.standard_normal((4, 3)), 4000)
    assert traj.final_residual < 1e-9
    assert traj.final_consensus_error < 1e-8


# ------------------------------------------- block loop vs a test every round

STATE_KINDS = ("far", "near", "consensus", "huge", "inf", "nan")


def scripted_state(kind, rng, m, n):
    """An (m, n) state whose consensus error is above the tolerance, below
    it, zero, finite past the squares' overflow, or not finite."""
    x = np.tile(rng.standard_normal(n), (m, 1))
    if kind == "far":
        x += rng.standard_normal((m, n))
    elif kind == "near":
        x += 1e-12 * rng.standard_normal((m, n))
    elif kind == "huge":
        x = 1e200 * rng.standard_normal((m, n))
    elif kind in ("inf", "nan"):
        x[rng.integers(m), rng.integers(n)] = np.inf if kind == "inf" else np.nan
    return x


def replayed(loop, script):
    """(the step calls, the result or ValueError message of loop(step)) for
    a step that replays script and raises a round past it."""
    calls = []

    def step(t, x):
        calls.append((t, x.tobytes()))
        if t >= len(script):
            raise ValueError(f"script of length {len(script)} exhausted at round {t}")
        return script[t].copy()

    try:
        return calls, loop(step)
    except ValueError as err:
        return calls, str(err)


def assert_block_loop_is_per_round(x0, script, steps):
    """_run and the per-round reference take the same rounds from the same
    states, then return the same trajectory bit for bit or raise the same
    message."""
    m, n = x0.shape

    def block_loop(step):
        traj = _run(SimpleNamespace(m=m, n=n), x0, steps, step)
        return traj.states, traj.consensus_errors, traj.steps_run, traj.converged

    calls, got = replayed(block_loop, script)
    ref_calls, expected = replayed(lambda step: run_per_round(x0, steps, step, CONSENSUS_TOL, CONSENSUS_STREAK), script)
    assert calls == ref_calls
    if isinstance(expected, str):
        assert got == expected
        return
    states, errors, steps_run, converged = got
    assert states.shape == expected[0].shape and states.tobytes() == expected[0].tobytes()
    assert errors.shape == expected[1].shape and errors.tobytes() == expected[1].tobytes()
    assert (steps_run, converged) == expected[2:]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 5),
    n=st.integers(1, 4),
    first=st.sampled_from(("far", "near", "consensus")),
    runs=st.lists(st.tuples(st.sampled_from(STATE_KINDS), st.integers(1, 2 * CONSENSUS_STREAK)), max_size=6),
    steps=st.integers(0, 60),
)
def test_block_loop_equals_the_per_round_loop(seed, m, n, first, runs, steps):
    rng = np.random.default_rng(seed)
    x0 = scripted_state(first, rng, m, n)
    script = [scripted_state(kind, rng, m, n) for kind, length in runs for _ in range(length)]
    assert_block_loop_is_per_round(x0, script, steps)


def test_block_loop_stops_at_every_offset_within_a_block():
    rng = np.random.default_rng(31)
    for first in ("far", "consensus"):
        x0 = scripted_state(first, rng, 3, 2)
        for far in range(2 * CONSENSUS_STREAK + 1):
            near = [scripted_state("near", rng, 3, 2) for _ in range(CONSENSUS_STREAK)]
            script = [scripted_state("far", rng, 3, 2) for _ in range(far)] + near
            # the last round the streak needs, one short of it, and a budget past it
            for steps in (len(script), len(script) - 1, 0, 3 * CONSENSUS_STREAK + 7):
                assert_block_loop_is_per_round(x0, script, steps)
            # a streak that breaks one round short, then completes
            broken = script[:-1] + [scripted_state("far", rng, 3, 2)] + near
            assert_block_loop_is_per_round(x0, broken, len(broken) + 5)


def test_scripted_stepsize_may_run_out_right_after_convergence():
    rng = np.random.default_rng(32)
    w = identity_weights(complete_symmetric(3), 2)
    x0 = rng.standard_normal((3, 2))
    long_run = run_gradient(w, x0, 200, StepsizeSchedule.scripted([0.1] * 200))
    rounds = long_run.steps_run
    assert long_run.converged and CONSENSUS_STREAK < rounds < 200
    exact = run_gradient(w, x0, 200, StepsizeSchedule.scripted([0.1] * rounds))
    assert exact.states.tobytes() == long_run.states.tobytes() and exact.converged
    short = StepsizeSchedule.scripted([0.1] * (rounds - 1))
    op = RoundOperator.from_weights(w, 1.0)
    with pytest.raises(ValueError) as per_round:
        run_per_round(x0, 200, lambda t, x: x - short.alpha(t) * op.delta(x), CONSENSUS_TOL, CONSENSUS_STREAK)
    assert str(per_round.value) == f"stepsize script of length {rounds - 1} exhausted at round {rounds - 1}"
    with pytest.raises(ValueError) as blocks:
        run_gradient(w, x0, 200, short)
    assert str(blocks.value) == str(per_round.value)


@pytest.mark.parametrize("m", [1, 2, 8, 9, 100, 2000])
@pytest.mark.parametrize("n", [1, 3, 9, 20])
def test_stacked_consensus_errors_equal_per_state_bit_for_bit(m, n):
    rng = np.random.default_rng([m, n])
    for scale in (1e-5, 1.0, 1e5):
        states = scale * (rng.standard_normal((4, m, n)) + 10.0 * rng.standard_normal((4, 1, n)))
        per_state = np.array([consensus_error(x) for x in states])
        assert np.array(_consensus_errors(states)).tobytes() == per_state.tobytes()


# --------------------------------------------------- round operator vs kron formulas


def random_weights(rng, g, n, symmetric_pairs=False):
    """Weights with 0..n+1 rows per arc: zero-row, wide and tall blocks, and
    now and then an all-zero block; equal in both directions on request."""
    weights = {}
    for j, i in g.arcs:
        if symmetric_pairs and (i, j) in weights:
            weights[(j, i)] = weights[(i, j)]
            continue
        c = rng.standard_normal((int(rng.integers(0, n + 2)), n))
        weights[(j, i)] = 0.0 * c if rng.random() < 0.1 else c
    return WeightedNeighborGraph(g, n, weights)


def random_graph(rng, m, symmetric):
    pairs = {(int(a), int(b)) for a, b in rng.integers(1, m + 1, size=(2 * m, 2)) if a != b}
    arcs = pairs | {(b, a) for a, b in pairs} if symmetric else pairs
    return DirectedGraph(m, tuple(sorted(arcs)))


@pytest.mark.parametrize("case", range(25))
def test_dense_round_map_matches_kron_formulas(case):
    rng = np.random.default_rng([17, case])
    m, n = int(rng.integers(2, 7)), int(rng.integers(1, 5))
    if case == 0:
        g = DirectedGraph(3, ())  # d = 0
    else:
        g = random_graph(rng, m, symmetric=case % 2 == 1)
    w = random_weights(rng, g, n, symmetric_pairs=case % 4 == 1)
    wn = w.normalized()
    x = rng.standard_normal((g.m, w.n))
    algorithms = {"general_projection": run_general_projection}
    if is_symmetric(g):
        algorithms["fixed_step"] = run_fixed_step
    for name, runner in algorithms.items():
        dense = build_update_matrix(name, w)
        assert np.abs(dense - update_matrix_kron(name, wn)).max(initial=0.0) < 1e-12
        one_round = runner(w, x, 1).states[-1].reshape(-1)
        assert np.abs(dense @ x.reshape(-1) - one_round).max(initial=0.0) < 1e-12
    if is_symmetric(g):
        pairs = [p for p in g.undirected_pairs if rng.random() < 0.5]
        sub = DirectedGraph(g.m, tuple(arc for a, b in pairs for arc in ((a, b), (b, a))))
        for s in (g, sub):
            dense = build_update_matrix("metropolis_tv", w, s)
            assert np.abs(dense - update_matrix_kron("metropolis_tv", wn, s)).max(initial=0.0) < 1e-12
            one_round = run_metropolis_tv(w, x, Schedule.fixed(s), 1).states[-1].reshape(-1)
            assert np.abs(dense @ x.reshape(-1) - one_round).max(initial=0.0) < 1e-12
    assert np.abs(stacked_laplacian(w) - stacked_laplacian_kron(w)).max(initial=0.0) < 1e-12


def test_dense_cycle_projection_matches_kron_formula():
    rng = np.random.default_rng(18)
    for m, n in ((2, 1), (3, 3), (5, 2)):
        w = random_weights(rng, directed_cycle(m), n)
        dense = build_update_matrix("cycle_projection", w)
        assert np.abs(dense - update_matrix_kron("cycle_projection", w.normalized())).max() < 1e-12


def test_residual_is_precise_at_a_planted_witness():
    # the Gram form sqrt(sum diff' C_k'C_k diff) reads about 1e-8 here
    rng = np.random.default_rng(19)
    m, n = 24, 4
    perm = rng.permutation(np.arange(1, m + 1))
    arcs = {(int(perm[k]), int(perm[(k + 1) % m])) for k in range(m)}
    arcs |= {(int(a), int(b)) for a, b in rng.integers(1, m + 1, size=(2 * m, 2)) if a != b}
    side = set(rng.choice(np.arange(1, m + 1), size=m // 2, replace=False).tolist())
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    cut = np.eye(n) - np.outer(v, v)
    weights = {}
    for j, i in arcs:
        c = rng.standard_normal((n - 1, n))
        weights[(j, i)] = c @ cut if (j in side) != (i in side) else c
    w = WeightedNeighborGraph(DirectedGraph(m, tuple(sorted(arcs))), n, weights)
    report = is_well_configured(w)
    assert not report
    assert local_agreement_residual(w, report.witness) <= 1e-12
    assert run_general_projection(w, report.witness, 0).residuals[0] <= 1e-12


def test_fixed_step_memory_is_linear_in_arcs():
    # one dense kron(incidence, I_n) factor would take 576 MB here
    rng = np.random.default_rng(20)
    w = synthesize_symmetric_weights(symmetric_cycle(2000), 3)
    x0 = rng.standard_normal((2000, 3))
    tracemalloc.start()
    try:
        traj = run_fixed_step(w, x0, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.steps_run == 200
    assert peak < 64 * 2**20


def test_one_eigenspace_dim_counts_the_fixed_space(sym_corpus):
    for name, g in sym_corpus.items():
        w = synthesize_symmetric_weights(g, 2)
        for mat in (build_update_matrix("fixed_step", w), build_update_matrix("general_projection", w)):
            expected = kernel_basis(mat - np.eye(mat.shape[0])).shape[1]
            assert spectral_report(mat, 2).one_eigenspace_dim == expected, name
    assert spectral_report(np.eye(4), 2).one_eigenspace_dim == 4


def planted_fixed_space(rng, ones, gaps):
    """A random orthogonal similarity of diag(1 x ones, 1 - gaps)."""
    lam = np.concatenate([np.ones(ones), 1.0 - np.asarray(gaps, dtype=float)])
    q = np.linalg.qr(rng.standard_normal((len(lam), len(lam))))[0]
    a = (q * lam) @ q.T
    return (a + a.T) / 2.0


def symmetric_fixed_space_corpus():
    """Named symmetric maps: fixed-step maps on uniform-degree graphs,
    Metropolis maps on random symmetric subgraphs, gradient stacked
    Laplacians, identities, planted eigenvalues at 1 and a near-identity."""
    rng = np.random.default_rng(71)
    maps = {}
    for g in (symmetric_cycle(3), symmetric_cycle(5), symmetric_cycle(8), complete_symmetric(4), complete_symmetric(5)):
        random = WeightedNeighborGraph(g, 3, {arc: rng.standard_normal((int(rng.integers(1, 4)), 3)) for arc in g.arcs})
        for label, w in (("synth", synthesize_symmetric_weights(g, 3)), ("identity", identity_weights(g, 3)), ("random", random)):
            maps[f"fixed_step m={g.m} {label}"] = build_update_matrix("fixed_step", w)
            maps[f"gradient m={g.m} {label}"] = stacked_laplacian(w)
            for k in range(3):
                pairs = [p for p in g.undirected_pairs if rng.random() < 0.5] or [g.undirected_pairs[0]]
                sub = DirectedGraph(g.m, tuple(arc for a, b in pairs for arc in ((a, b), (b, a))))
                maps[f"metropolis m={g.m} {label} {k}"] = build_update_matrix("metropolis_tv", w, sub)
    for size in range(1, 5):
        maps[f"eye {size}"] = np.eye(size)
    for ones in range(1, 5):
        maps[f"planted {ones}"] = planted_fixed_space(rng, ones, rng.uniform(0.1, 1.9, 6))
    s = rng.standard_normal((6, 6))
    maps["near identity"] = np.eye(6) + 1e-12 * (s + s.T)
    return maps


def test_symmetric_fixed_space_matches_dense_rank(monkeypatch):
    import limcon.simulate

    calls = []
    real = limcon.simulate.matrix_rank
    monkeypatch.setattr(limcon.simulate, "matrix_rank", lambda *a: calls.append(a) or real(*a))
    for name, mat in symmetric_fixed_space_corpus().items():
        rep = spectral_report(mat, 1)
        assert rep.symmetric, name
        assert rep.one_eigenspace_dim == one_eigenspace_dim_dense(mat), name
    assert calls == []
    # a projection map is not symmetric and keeps the dense rank of A - I
    mat = build_update_matrix("general_projection", counterexample_wng())
    rep = spectral_report(mat, 2)
    assert not rep.symmetric
    assert rep.one_eigenspace_dim == one_eigenspace_dim_dense(mat) > 2
    assert len(calls) == 1


# Eigenvalues and singular values of A - I are computed differently, so a
# distance from 1 near the cut-off may fall on different sides; the gap of
# the dense singular values is narrow then.  Near the identity the cut-off is
# A's own roundoff (seed=0, ones=2, exponents=[-9]: the dense SVD has two
# roundoff values of 5e-17 where eigvalsh returns 1 exactly, and both counts
# drop them).
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ones=st.integers(0, 4),
    exponents=st.lists(st.integers(-14, 0), min_size=1, max_size=8),
)
@example(seed=0, ones=2, exponents=[-9])
def test_symmetric_fixed_space_matches_dense_rank_under_rescaling(seed, ones, exponents):
    rng = np.random.default_rng(seed)
    # distances from 1 of either sign, scaled by 10 ** exponents
    gaps = rng.uniform(0.5, 1.5, len(exponents)) * rng.choice([-1.0, 1.0], len(exponents)) * 10.0 ** np.array(exponents)
    mat = planted_fixed_space(rng, ones, gaps)
    rep = spectral_report(mat, 1)
    assert rep.symmetric
    s = np.linalg.svd(mat - np.eye(len(mat)), compute_uv=False)
    cutoff = max(RANK_RTOL * s[0], len(mat) * np.finfo(float).eps * np.linalg.norm(mat, 2))
    dense = one_eigenspace_dim_dense(mat)
    assert rep.one_eigenspace_dim == dense or RankGap.at(s, cutoff).narrow()
    if (seed, ones, exponents) == (0, 2, [-9]):
        assert rep.one_eigenspace_dim == dense == 2


@pytest.mark.parametrize("seed", range(8))
def test_fixed_space_near_the_identity_is_counted_above_roundoff(seed):
    # two fixed directions beside ten eigenvalues 1e-9 from 1: a cut-off at
    # RANK_RTOL alone would be 1e-19, far below the roundoff of A - I.  At
    # 4 x 4 the floor, 4 eps ||A||, is no wider than eigvalsh's own error in
    # |lambda - 1| (seed 5 gives 4 eps there), so this runs at 12 x 12.
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.5, 1.5, 10) * 1e-9
    v = np.eye(12) + 0.1 * rng.standard_normal((12, 12))
    general = (v * np.concatenate([np.ones(2), 1.0 - gaps])) @ np.linalg.inv(v)
    for mat, symmetric in ((planted_fixed_space(rng, 2, gaps), True), (general, False)):
        rep = spectral_report(mat, 1)
        assert rep.symmetric is symmetric
        assert rep.one_eigenspace_dim == one_eigenspace_dim_dense(mat) == 2


@pytest.mark.parametrize(
    "upper, lower, symmetric",
    [
        (1e-12, 0.0, True),  # an asymmetry of exactly the tolerance
        (np.nextafter(1e-12, 1.0), 0.0, False),
        (0.5, 0.5 + 1e-13, True),
        (np.nan, 0.0, False),
        (np.nan, np.nan, False),
        (np.inf, 0.0, False),
        (-np.inf, 0.0, False),
        (np.inf, -np.inf, False),
    ],
)
def test_symmetry_verdict_equals_the_allclose_verdict(upper, lower, symmetric):
    mat = np.eye(3)
    mat[0, 2], mat[2, 0] = upper, lower
    assert bool(np.allclose(mat, mat.T, atol=1e-12, rtol=0.0)) is symmetric
    if np.isfinite(mat).all():
        assert spectral_report(mat, 1).symmetric is symmetric
    else:
        # called not symmetric, it goes to eigvals, which refuses non-finite
        # entries (eigvalsh would not)
        with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
            spectral_report(mat, 1)


def test_symmetry_verdict_on_empty_and_infinite_pairs():
    empty = np.zeros((0, 0))
    assert np.allclose(empty, empty.T, atol=1e-12, rtol=0.0)
    rep = spectral_report(empty, 1)
    assert rep.symmetric and rep.paracontracting and rep.one_eigenspace_dim == 0
    # allclose calls an inf facing an equal inf close and went on to report
    # NaN eigenvalues; the one-pass verdict sees inf - inf = NaN and refuses
    mat = np.eye(2)
    mat[0, 1] = mat[1, 0] = np.inf
    assert np.allclose(mat, mat.T, atol=1e-12, rtol=0.0)
    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
        spectral_report(mat, 1)


def grid_graph(rows, cols):
    """The symmetric rows x cols grid: corners have 2 neighbours, borders 3, inner agents 4."""
    right = [(v, v + 1) for v in range(1, rows * cols + 1) if v % cols]
    down = [(v, v + cols) for v in range(1, (rows - 1) * cols + 1)]
    return symmetric_closure(DirectedGraph(rows * cols, tuple(right + down)))


def dense_counts(name, w, sub=None):
    return spectral_report(reported_matrix(name, w, sub), w.n).summary_dict()


@st.composite
def unequal_degree_graphs(draw):
    kind = draw(st.sampled_from(["path", "star", "grid", "cycle"]))
    if kind == "grid":
        return grid_graph(draw(st.integers(2, 4)), draw(st.integers(2, 5)))
    return {"path": symmetric_path, "star": symmetric_star, "cycle": symmetric_cycle}[kind](draw(st.integers(3, 12)))


@settings(max_examples=150, deadline=None)
@given(g=unequal_degree_graphs(), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_inertia_counts_equal_the_dense_counts(g, n, seed):
    # random weights of 0..n rows, so some arcs transmit nothing
    rng = np.random.default_rng(seed)
    w = WeightedNeighborGraph(g, n, {arc: rng.standard_normal((int(rng.integers(0, n + 1)), n)) for arc in g.arcs})
    levels = _bfs_levels(g)
    order, starts = levels
    assert sorted(order.tolist()) == list(range(g.m))
    level = np.empty(g.m, int)
    level[order] = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    assert (np.abs(np.diff(level[g.arc_ends], axis=1)) <= 1).all()
    subgraphs = []
    for _ in range(2):
        pairs = [pair for pair in g.undirected_pairs if rng.random() < 0.5]
        subgraphs.append(DirectedGraph(g.m, tuple(arc for a, b in pairs for arc in ((a, b), (b, a)))))
    cases = [("fixed_step", None), ("gradient", None), ("metropolis_tv", None)]
    for name, sub in cases + [("metropolis_tv", sub) for sub in subgraphs]:
        dense = dense_counts(name, w, sub)
        inertia = _inertia_counts(name, w, sub, levels)
        # None: the factorization could not be trusted, and the dense counts are taken
        assert inertia is None or inertia == dense, (name, sub)
        assert spectral_counts(name, w, sub) == dense, (name, sub)


def pivots_spied(monkeypatch):
    """The results of every _pivot_eigenvalues call from here on."""
    import limcon.simulate

    results = []
    real = limcon.simulate._pivot_eigenvalues
    monkeypatch.setattr(limcon.simulate, "_pivot_eigenvalues", lambda *a: results.append(real(*a)) or results[-1])
    return results


def test_inertia_counts_where_levels_are_narrow_dense_counts_elsewhere(monkeypatch):
    rng = np.random.default_rng(28)
    pivots = pivots_spied(monkeypatch)
    for g, banded in ((symmetric_cycle(100), True), (grid_graph(12, 12), True), (complete_symmetric(16), False)):
        random = WeightedNeighborGraph(g, 3, {arc: rng.standard_normal((int(rng.integers(1, 4)), 3)) for arc in g.arcs})
        for w in (synthesize_symmetric_weights(g, 3), random):
            for name in ("fixed_step", "metropolis_tv", "gradient"):
                pivots.clear()
                assert spectral_counts(name, w) == dense_counts(name, w), (g.m, name)
                assert len(pivots) == banded and all(p is not None for p in pivots), (g.m, name)
    # the projection maps have no inertia form
    pivots.clear()
    w = synthesize_weights(symmetric_cycle(100), 3)
    assert spectral_counts("general_projection", w) == dense_counts("general_projection", w)
    assert pivots == []


def test_near_singular_pivot_falls_back_to_the_dense_counts(monkeypatch):
    # agent 1, the first level, hears agent 2 through a 1e-4 row and sends
    # nothing back, so the gradient's first pivot at the shift c = 1e-8,
    # c I - C'C, is singular to roundoff
    g = symmetric_path(200)
    weights = {arc: np.eye(2) for arc in g.arcs}
    weights[(2, 1)] = np.array([[1e-4, 0.0]])
    weights[(1, 2)] = np.zeros((0, 2))
    w = WeightedNeighborGraph(g, 2, weights)
    pivots = pivots_spied(monkeypatch)
    assert spectral_counts("gradient", w) == dense_counts("gradient", w)
    assert pivots == [None]
    # the same path with every weight the identity is factored
    pivots.clear()
    w = identity_weights(g, 2)
    assert spectral_counts("gradient", w) == dense_counts("gradient", w)
    assert len(pivots) == 1 and pivots[0] is not None
