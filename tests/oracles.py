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
