import numpy as np
import pytest

from limcon import (
    DirectedGraph,
    WeightedNeighborGraph,
    backlinked_cycle_graph,
    complete_symmetric,
    directed_cycle,
    kernel_basis,
    symmetric_cycle,
    symmetric_closure,
    symmetric_path,
    symmetric_star,
)


def random_subspace(rng, n, dim):
    """Orthonormal basis of a random dim-dimensional subspace of R^n."""
    if dim == 0:
        return np.zeros((n, 0))
    # a Gaussian draw has full rank: the left singular vectors span it
    return np.linalg.svd(rng.standard_normal((n, dim)), full_matrices=False)[0]


def weight_with_kernel(kernel):
    """Orthonormal-row matrix whose kernel is exactly the given subspace."""
    comp = kernel_basis(kernel.T)  # columns span the orthogonal complement
    return comp.T


def random_strongly_connected(rng, m, extra_arcs=2):
    """A random Hamiltonian cycle plus a few extra arcs: always strongly
    connected, shape varies with the rng."""
    perm = list(rng.permutation(np.arange(1, m + 1)))
    arcs = {(int(perm[k]), int(perm[(k + 1) % m])) for k in range(m)}
    for _ in range(extra_arcs):
        j, i = int(rng.integers(1, m + 1)), int(rng.integers(1, m + 1))
        if j != i:
            arcs.add((j, i))
    return DirectedGraph(m, tuple(arcs))


def random_weakly_connected_wng(rng, m=None, n=None):
    """Random weakly connected graph with random transmit matrices; rows may
    exceed n occasionally, kernels vary from trivial to large."""
    m = int(m if m is not None else rng.integers(2, 6))
    n = int(n if n is not None else rng.integers(1, 5))
    arcs = set()
    for v in range(2, m + 1):
        u = int(rng.integers(1, v))
        arcs.add((u, v) if rng.random() < 0.5 else (v, u))
    for _ in range(int(rng.integers(0, m + 1))):
        j, i = int(rng.integers(1, m + 1)), int(rng.integers(1, m + 1))
        if j != i:
            arcs.add((j, i))
    g = DirectedGraph(m, tuple(arcs))
    weights = {}
    for arc in g.arcs:
        rows = int(rng.integers(1, n + 2))
        weights[arc] = rng.standard_normal((rows, n))
    return WeightedNeighborGraph(g, n, weights)


def strongly_connected_corpus():
    """Named strongly connected test graphs within the enumeration cap."""
    rng = np.random.default_rng(2024)
    graphs = {
        "cycle2": directed_cycle(2),
        "cycle3": directed_cycle(3),
        "cycle4": directed_cycle(4),
        "cycle5": directed_cycle(5),
        "cycle6": directed_cycle(6),
        "backlinked": backlinked_cycle_graph(),
        "sym_triangle": symmetric_cycle(3),
        "sym_square": symmetric_cycle(4),
        "sym_path3": symmetric_path(3),
        "sym_star4": symmetric_star(4),
        "complete_sym3": complete_symmetric(3),
        "complete_sym4": complete_symmetric(4),
        "random5a": random_strongly_connected(rng, 5),
        "random5b": random_strongly_connected(rng, 5, extra_arcs=4),
        "random6": random_strongly_connected(rng, 6),
    }
    return graphs


def symmetric_2connected_corpus():
    square_diag = symmetric_closure(
        DirectedGraph(4, ((1, 2), (2, 3), (3, 4), (4, 1), (1, 3)))
    )
    return {
        "sym_triangle": symmetric_cycle(3),
        "sym_square": symmetric_cycle(4),
        "sym_pentagon": symmetric_cycle(5),
        "complete_sym4": complete_symmetric(4),
        "square_diag": square_diag,
    }


@pytest.fixture(scope="session")
def sc_corpus():
    return strongly_connected_corpus()


@pytest.fixture(scope="session")
def sym_corpus():
    return symmetric_2connected_corpus()
