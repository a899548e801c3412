"""Independent reference implementations used as test oracles.

These stay deliberately naive: per-agent loops instead of stacked matrices,
textbook formulas instead of library calls, so they share no code path with
the implementations they check.
"""

import numpy as np


def gradient_step_agents(w, x, alpha):
    """One diminishing-step round, agent by agent, on the raw weights."""
    g = w.graph
    out = x.copy()
    for i in range(1, g.m + 1):
        acc = np.zeros(w.n)
        for j in g.in_neighbors(i):
            cij = w.weight((i, j))
            cji = w.weight((j, i))
            acc += (cij.T @ cij + cji.T @ cji) @ (x[i - 1] - x[j - 1])
        out[i - 1] = x[i - 1] - alpha * acc
    return out


def fixed_step_agents(w_norm, x):
    """One fixed-step round, agent by agent, on normalized weights."""
    g = w_norm.graph
    out = x.copy()
    for i in range(1, g.m + 1):
        acc = np.zeros(w_norm.n)
        for j in g.in_neighbors(i):
            cij = w_norm.weight((i, j))
            cji = w_norm.weight((j, i))
            acc += (cij.T @ cij + cji.T @ cji) @ (x[i - 1] - x[j - 1])
        out[i - 1] = x[i - 1] - acc / (2.0 * (g.degree(i) + 1))
    return out


def metropolis_step_agents(w_norm, x, sub):
    """One Metropolis round on the scheduled subgraph, agent by agent."""
    degrees = {v: sub.degree(v) for v in range(1, sub.m + 1)}
    out = x.copy()
    for i in range(1, sub.m + 1):
        acc = np.zeros(w_norm.n)
        for j in sub.in_neighbors(i):
            wij = 1.0 / (1.0 + max(degrees[i], degrees[j]))
            cij = w_norm.weight((i, j))
            cji = w_norm.weight((j, i))
            acc += wij * (cij.T @ cij + cji.T @ cji) @ (x[i - 1] - x[j - 1])
        out[i - 1] = x[i - 1] - 0.5 * acc
    return out


def cycle_step_agents(w_norm, x):
    """One directed-cycle projection round, agent by agent."""
    g = w_norm.graph
    out = x.copy()
    for i in range(1, g.m + 1):
        (pred,) = g.in_neighbors(i)
        c = w_norm.weight((pred, i))
        out[i - 1] = x[i - 1] - 0.5 * (c.T @ (c @ (x[i - 1] - x[pred - 1])))
    return out


def general_step_agents(w_norm, x):
    """One general projection round, agent by agent."""
    g = w_norm.graph
    out = x.copy()
    for i in range(1, g.m + 1):
        acc = np.zeros(w_norm.n)
        for j in g.in_neighbors(i):
            c = w_norm.weight((j, i))
            acc += c.T @ (c @ (x[i - 1] - x[j - 1]))
        out[i - 1] = x[i - 1] - acc / (g.degree(i) + 1.0)
    return out


def central_difference_gradient(f, x, h=1e-5):
    grad = np.zeros_like(x)
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        grad[k] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad


def symmetric_3x3_eigenvalues(a):
    """Closed-form spectrum of a real symmetric 3x3 matrix (trigonometric
    solution of the characteristic cubic), sorted ascending."""
    a = np.asarray(a, dtype=float)
    p1 = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
    if p1 == 0.0:
        return np.sort(np.diag(a))
    q = np.trace(a) / 3.0
    p2 = sum((a[k, k] - q) ** 2 for k in range(3)) + 2.0 * p1
    p = np.sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    r = np.clip(np.linalg.det(b) / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    lam1 = q + 2.0 * p * np.cos(phi)
    lam3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    lam2 = 3.0 * q - lam1 - lam3
    return np.sort([lam1, lam2, lam3])


def brute_force_independent(bases):
    """Independence via numpy's own rank of the horizontally stacked bases."""
    dims = sum(b.shape[1] for b in bases)
    if dims == 0:
        return True
    stacked = np.hstack(bases)
    return int(np.linalg.matrix_rank(stacked)) == dims


def exact_nullity(rows):
    """Nullity of an integer matrix by fraction-exact Gaussian elimination."""
    from fractions import Fraction

    mat = [[Fraction(int(v)) for v in row] for row in rows]
    if not mat:
        return len(rows[0]) if rows else 0
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    col = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col]
        mat[rank] = [v / inv for v in mat[rank]]
        for r in range(n_rows):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == n_rows:
            break
    return n_cols - rank


def mixed_norm_2_inf_loop(q, block):
    """Mixed (2, inf) norm with one spectral norm per block, in a plain loop."""
    m = q.shape[0] // block
    gauge = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            blk = q[i * block : (i + 1) * block, j * block : (j + 1) * block]
            gauge[i, j] = np.linalg.norm(blk, 2)
    return float(np.max(gauge.sum(axis=1)))


def _incidence(m, arcs):
    inc = np.zeros((m, len(arcs)))
    for k, (j, i) in enumerate(arcs):
        inc[i - 1, k] = 1.0
        inc[j - 1, k] = -1.0
    return inc


def _stacked(w, order=None):
    blocks = [w.weight(arc) for arc in (w.graph.arcs if order is None else order)]
    out = np.zeros((sum(b.shape[0] for b in blocks), w.n * len(blocks)))
    r = 0
    for k, b in enumerate(blocks):
        out[r : r + b.shape[0], k * w.n : (k + 1) * w.n] = b
        r += b.shape[0]
    return out


def stacked_laplacian_kron(w, sub=None, arc_weights=None):
    """Jbar C' W C Jbar' from Kronecker-lifted incidence matrices; arcs of g
    outside sub get a zero incidence column."""
    g = w.graph
    inc = _incidence(g.m, g.arcs)
    if sub is not None:
        inc[:, [not sub.has_arc(arc) for arc in g.arcs]] = 0.0
    jbar = np.kron(inc, np.eye(w.n))
    c = _stacked(w)
    scale = np.ones(g.d) if arc_weights is None else np.asarray(arc_weights, dtype=float)
    rows = [w.weight(arc).shape[0] for arc in g.arcs]
    return jbar @ c.T @ np.diag(np.repeat(scale, rows)) @ c @ jbar.T


def update_matrix_kron(algorithm, w_norm, sub=None):
    """Dense round map of a fixed-map algorithm on normalized weights, from
    the Kronecker formulas: I - Dbar Jbar C'C Jbar' (fixed step),
    I - 1/2 Jbar(S) C' Wbar(S) C Jbar(S)' (Metropolis on subgraph S) and
    I - Dbar Jbar+ C'C Jbar' (projections)."""
    g, n = w_norm.graph, w_norm.n
    eye = np.eye(g.m * n)
    degrees = np.array([g.degree(v) for v in range(1, g.m + 1)], dtype=float)
    if algorithm == "fixed_step":
        damp = np.diag(np.repeat(1.0 / (2.0 * (degrees + 1.0)), n))
        return eye - damp @ stacked_laplacian_kron(w_norm)
    if algorithm == "metropolis_tv":
        sub = g if sub is None else sub
        wts = [
            1.0 / (1.0 + max(sub.degree(i), sub.degree(j))) if sub.has_arc((j, i)) else 0.0 for j, i in g.arcs
        ]
        return eye - 0.5 * stacked_laplacian_kron(w_norm, sub, wts)
    inc = _incidence(g.m, g.arcs)
    c = _stacked(w_norm)
    damp = np.diag(np.repeat(1.0 / (degrees + 1.0), n))
    jplus_bar = np.kron(np.clip(inc, 0.0, None), np.eye(n))
    return eye - damp @ jplus_bar @ c.T @ c @ np.kron(inc, np.eye(n)).T


def disagreement_overlap_dim_dense(w, rtol=1e-10):
    """dim(image Jbar' meet kernel C) from full SVDs of the dense lifted
    incidence and the dense stacked weights."""
    g, n = w.graph, w.n
    jbar_t = np.kron(_incidence(g.m, g.arcs), np.eye(n)).T
    c = _stacked(w)

    def rank(s, top):
        return int(np.sum(s > rtol * top)) if s.size and top > 0 else 0

    if jbar_t.size and jbar_t.any():
        u, s, _ = np.linalg.svd(jbar_t)
        image = u[:, : rank(s, s[0])]
    else:
        image = np.zeros((jbar_t.shape[0], 0))
    if c.shape[0] and c.any():
        _, s, vh = np.linalg.svd(c)
        ker = vh[rank(s, s[0]) :].T
    else:
        ker = np.eye(c.shape[1])
    if image.shape[1] == 0 or ker.shape[1] == 0:
        return 0
    both = np.hstack([image, ker])
    s = np.linalg.svd(both, compute_uv=False)
    return image.shape[1] + ker.shape[1] - rank(s, s[0])


def agreement_map_kron(w, arc_order=None):
    """C Jbar': the block-diagonal stacked weights times the Kronecker-lifted
    incidence transpose, both with arcs in the given order."""
    order = list(w.graph.arcs if arc_order is None else arc_order)
    return _stacked(w, order) @ np.kron(_incidence(w.graph.m, order).T, np.eye(w.n))


def agreement_nullity_dense(w, rtol=1e-10):
    """Kernel dimension of the Kronecker-formula agreement map, from a full
    SVD with both singular-vector factors."""
    amap = agreement_map_kron(w)
    if amap.size == 0 or not amap.any():
        return amap.shape[1]
    _, s, _ = np.linalg.svd(amap)
    return amap.shape[1] - int(np.sum(s > rtol * s[0]))
