"""Independent reference implementations used as test oracles.

These stay deliberately naive: per-agent loops instead of stacked matrices,
textbook formulas instead of library calls, so they share no code path with
the implementations they check.
"""

import math
from fractions import Fraction

import numpy as np


def canonical_arcs(m, arcs):
    """The canonical arc tuple, checked arc by arc in the given order (range,
    then self-arc, then repeat) with DirectedGraph's messages, then sorted by
    (head, tail)."""
    if m < 1:
        raise ValueError("vertex count must be >= 1")
    seen = set()
    for raw in arcs:
        j, i = (int(v) for v in raw)
        if not (1 <= j <= m and 1 <= i <= m):
            raise ValueError(f"arc ({j}, {i}) out of range for m={m}")
        if j == i:
            raise ValueError(f"self-arc ({j}, {i}) not allowed")
        if (j, i) in seen:
            raise ValueError(f"duplicate arc ({j}, {i})")
        seen.add((j, i))
    return tuple(sorted(seen, key=lambda a: (a[1], a[0])))


def reverse_positions(arcs):
    """Per arc (j, i), the position of (i, j) in arcs, or -1."""
    position = {arc: k for k, arc in enumerate(arcs)}
    return [position.get((i, j), -1) for j, i in arcs]


def pair_leads(arcs):
    """Per arc, the position in arcs of the arc that leads its unordered pair
    {a, b}: (a, b) with a < b if present, else the arc itself."""
    position = {arc: k for k, arc in enumerate(arcs)}
    return [position.get((min(arc), max(arc)), k) for k, arc in enumerate(arcs)]


def is_symmetric_set(arcs):
    """True iff the arc set is closed under reversal."""
    arcs = set(arcs)
    return all((i, j) in arcs for j, i in arcs)


def is_weakly_connected_bfs(m, arcs):
    """Breadth-first search from vertex 1 over the arcs taken both ways."""
    adj = {v: set() for v in range(1, m + 1)}
    for j, i in arcs:
        adj[j].add(i)
        adj[i].add(j)
    seen, queue = {1}, [1]
    for v in queue:
        for w in adj[v] - seen:
            seen.add(w)
            queue.append(w)
    return len(seen) == m


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


def metropolis_arc_weights(base, subgraphs):
    """Metropolis weights of each subgraph on base's arcs, arc by arc:
    1 / (1 + max(d_i, d_j)) with degrees counted from the subgraph's arc list,
    0 on an arc the subgraph lacks."""
    rows = []
    for sub in subgraphs:
        degree = {v: sum(1 for _, head in sub.arcs if head == v) for v in range(1, sub.m + 1)}
        arcs = set(sub.arcs)
        rows.append([1.0 / (1.0 + max(degree[i], degree[j])) if (j, i) in arcs else 0.0 for j, i in base.arcs])
    return np.array(rows).reshape(len(subgraphs), len(base.arcs))


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


def intersection_dense(a, b):
    """Basis of span(a) meet span(b), for bases a and b of full column rank:
    the null space of [a, -b] from numpy's SVD and rank, mapped back through a."""
    stacked = np.hstack([a, -b])
    null = np.linalg.svd(stacked)[2][np.linalg.matrix_rank(stacked) :].T
    return a @ null[: a.shape[1]]


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


def row_space_basis(a, rtol=1e-10):
    """Orthonormal rows spanning the row space of a, from one full SVD;
    (0, n) if a is zero."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] == 0 or not a.any():
        return np.zeros((0, a.shape[1]))
    _, s, vh = np.linalg.svd(a)
    return vh[: int(np.sum(s > rtol * s[0]))].copy()


def subspaces_equal(a, b, tol=1e-9):
    """Span equality via mutual projection residuals (bases are non-unique)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape[0] != b.shape[0]:
        raise ValueError("subspaces must share the ambient dimension")
    if a.shape[1] != b.shape[1]:
        return False
    if a.shape[1] == 0:
        return True
    res_a = a - b @ (b.T @ a)
    res_b = b - a @ (a.T @ b)
    return float(np.linalg.norm(res_a)) <= tol and float(np.linalg.norm(res_b)) <= tol


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


def block_diag(blocks):
    """Block-diagonal assembly; blocks may have zero rows or columns."""
    mats = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    out = np.zeros((sum(b.shape[0] for b in mats), sum(b.shape[1] for b in mats)))
    r = c = 0
    for b in mats:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def spanning_incidence_matrix(g, sub):
    """Incidence matrix of sub padded with zero columns, indexed by g's arcs."""
    inc = _incidence(g.m, g.arcs)
    inc[:, [not sub.has_arc(arc) for arc in g.arcs]] = 0.0
    return inc


def spanning_weight_matrix(g, sub):
    """d x d diagonal of sub's Metropolis weights 1 / (1 + max(d_i, d_j)),
    indexed by g's arcs; arcs of g absent from sub get zero."""
    return np.diag(
        [1.0 / (1.0 + max(sub.degree(i), sub.degree(j))) if sub.has_arc((j, i)) else 0.0 for j, i in g.arcs]
    )


def stacked_laplacian_kron(w, sub=None, arc_weights=None):
    """Jbar C' W C Jbar' from Kronecker-lifted incidence matrices; arcs of g
    outside sub get a zero incidence column."""
    g = w.graph
    inc = _incidence(g.m, g.arcs) if sub is None else spanning_incidence_matrix(g, sub)
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
        wts = np.diag(spanning_weight_matrix(g, sub))
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


def one_eigenspace_dim_dense(a, rtol=1e-10):
    """Fixed-space dimension mn - rank(A - I), from a full SVD of A - I cut
    at rtol times its largest singular value, but never below A's own
    roundoff, size * eps * ||A||_2."""
    a = np.asarray(a, dtype=float)
    diff = a - np.eye(a.shape[0])
    if diff.size == 0 or not diff.any():
        return a.shape[0]
    s = np.linalg.svd(diff, compute_uv=False)
    floor = a.shape[0] * np.finfo(float).eps * np.linalg.norm(a, 2)
    return a.shape[0] - int(np.sum(s > max(rtol * s[0], floor)))


def consensus_error_norm(x):
    """max_i ||x_i - mean||_2 from x.mean and np.linalg.norm.  A column whose
    entries all equal its first is agreed, and its mean is that entry: its
    deviations are exactly zero, not the roundoff of the float mean."""
    x = np.asarray(x, dtype=float)
    mean = np.where((x == x[0]).all(axis=0), x[0], x.mean(axis=0))
    return float(np.max(np.linalg.norm(x - mean, axis=1)))


def trajectory_csv_per_row(states):
    """The trajectory CSV text with one % per agent row."""
    rounds, m, n = states.shape
    row = "%d,%d," + ",".join(["%.17g"] * n) + "\n"
    text = "t,agent," + ",".join(f"comp_{c + 1}" for c in range(n)) + "\n"
    for t in range(rounds):
        text += "".join(row % (t, a, *x) for a, x in enumerate(states[t].tolist(), 1))
    return text


def consensus_error_exact(x):
    """max_i ||x_i - mean||_2 with the mean, the deviations and their squares
    in exact rational arithmetic, so none overflows or underflows, rounded by
    one float square root."""
    rows = [[Fraction(v) for v in row] for row in np.asarray(x, dtype=float).tolist()]
    mean = [sum(column) / len(rows) for column in zip(*rows)]
    top = max(sum((v - c) ** 2 for v, c in zip(row, mean)) for row in rows)
    if top == 0:
        return 0.0
    # top / 4^k lies in (1/2, 4), where its float and root are normal; 2^k scales back exactly
    k = (top.numerator.bit_length() - top.denominator.bit_length()) // 2
    with np.errstate(over="ignore"):  # past the double range the error is inf
        return float(np.ldexp(math.sqrt(top / Fraction(4) ** k), k))


def consensus_error_at_scale(x):
    """consensus_error_norm(x), also where a finite x's squares or agent sum
    overflow.  Where only the squares do, the largest deviation is past about
    1e154, and the formula taken at scale 2^-600 rounds as it would without
    an exponent limit.  Where the sum does, the deviations may be too small
    for any one scale, and the error is consensus_error_exact(x), which may
    differ from the formula's in the last bits."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        value = consensus_error_norm(x)
        if np.isfinite(value) or not np.isfinite(x).all():
            return value
        if np.isfinite(x.sum(axis=0)).all():
            return consensus_error_norm(x * 2.0**-600) * 2.0**600
    return consensus_error_exact(x)


def run_per_round(x0, steps, step, tol, streak_needed):
    """Rounds x <- step(t, x) from x0, testing for consensus after every
    round: stop after streak_needed consecutive errors below tol or after
    `steps` rounds.  Returns (states, errors, steps_run, converged)."""
    x = np.array(x0, dtype=float)
    states = [x]
    errors = [consensus_error_at_scale(x)]
    streak = 1 if errors[0] < tol else 0
    converged = streak >= streak_needed
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            if converged:
                break
            x = step(t, x)
            states.append(x)
            err = consensus_error_at_scale(x)
            errors.append(err)
            streak = streak + 1 if err < tol else 0
            converged = streak >= streak_needed
    return np.stack(states), np.array(errors), len(states) - 1, converged
