"""Dense linear-algebra kernel: kernels and images, orthogonal projections,
Kronecker/block-diagonal assembly, spectra, subspace independence, and the
(2, inf) mixed matrix norm.

Subspaces are plain ndarrays whose columns form an orthonormal basis; the
trivial subspace of R^n is an (n, 0) array.  All rank decisions flow through
one tolerance (RANK_RTOL), overridable per call: relative to the largest
singular value for general matrices, and absolute for the principal-angle
sines of subspace_intersection, whose orthonormal inputs fix the scale.
"""

from __future__ import annotations

import numpy as np

# Singular values below RANK_RTOL * sigma_max count as zero.
RANK_RTOL = 1e-10


def _as_matrix(a) -> np.ndarray:
    out = np.atleast_2d(np.asarray(a, dtype=float))
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix entries must be finite")
    return out


def kernel_with_values(a, rtol: float = RANK_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal kernel basis of a, as columns, and the singular values
    that decided it, largest first, from one SVD.

    Right singular vectors whose singular value falls below rtol * sigma_max
    span the numerical nullspace.  A tall or square a takes the thin SVD,
    whose Vh is already cols x cols, so no rows x rows U is ever formed; a
    wide a needs the full Vh, and its U is small.  An all-zero a has the
    whole space as kernel and zeros as singular values, without an SVD.
    """
    a = _as_matrix(a)
    rows, cols = a.shape
    if rows == 0 or not a.any():
        return np.eye(cols), np.zeros(min(rows, cols))
    _, s, vh = np.linalg.svd(a, full_matrices=rows < cols)
    return vh[numerical_rank(s, rtol) :].T.copy(), s


def kernel_basis(a, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of the kernel of a, as columns.  An (n, 0) result
    means the kernel is trivial."""
    return kernel_with_values(a, rtol)[0]


def row_space_basis(a, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal rows spanning the row space of a; (0, n) if a is zero."""
    a = _as_matrix(a)
    if a.shape[0] == 0 or not a.any():
        return np.zeros((0, a.shape[1]))
    _, s, vh = np.linalg.svd(a)
    rank = numerical_rank(s, rtol)
    return vh[:rank].copy()


def column_space_basis(a, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal columns spanning the column space of a."""
    a = _as_matrix(a)
    if a.shape[1] == 0 or not a.any():
        return np.zeros((a.shape[0], 0))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = numerical_rank(s, rtol)
    return u[:, :rank].copy()


def singular_values(a) -> np.ndarray:
    """Singular values of a, largest first, from an SVD without vectors;
    zeros, without an SVD, for an all-zero a."""
    a = _as_matrix(a)
    if a.size == 0 or not a.any():
        return np.zeros(min(a.shape))
    return np.linalg.svd(a, compute_uv=False)


def numerical_rank(s, rtol: float = RANK_RTOL) -> int:
    """Count of the singular values s (largest first) above rtol * s[0]."""
    return int(np.sum(s > rtol * s[0])) if len(s) else 0


def matrix_rank(a, rtol: float = RANK_RTOL) -> int:
    return numerical_rank(singular_values(a), rtol)


def orthonormalize_rows(c, rtol: float = RANK_RTOL) -> np.ndarray:
    """Replace c by a matrix with the same row span and orthonormal rows.

    Raises if the rows are linearly dependent at the given tolerance; drop
    the redundant rows (row_space_basis does) before calling.
    """
    c = _as_matrix(c)
    if c.shape[0] == 0:
        return c.copy()
    basis = row_space_basis(c, rtol)
    if basis.shape[0] != c.shape[0]:
        raise ValueError(
            f"rows are linearly dependent (rank {basis.shape[0]} < {c.shape[0]}); "
            "drop redundant rows first"
        )
    return basis


def projection_matrix(c, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthogonal projection c'(cc')^-1 c onto the row space of c.

    Requires full row rank (otherwise cc' is singular).  For c with
    orthonormal rows this equals c'c.
    """
    c = _as_matrix(c)
    n = c.shape[1]
    if c.shape[0] == 0:
        return np.zeros((n, n))
    q = orthonormalize_rows(c, rtol)
    return q.T @ q


def kronecker(a, b) -> np.ndarray:
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def block_diag(blocks) -> np.ndarray:
    """Block-diagonal assembly; blocks may have zero rows or columns."""
    mats = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    rows = sum(b.shape[0] for b in mats)
    cols = sum(b.shape[1] for b in mats)
    out = np.zeros((rows, cols))
    r = c = 0
    for b in mats:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def eigenvalues(a) -> np.ndarray:
    """Full spectrum with multiplicity.

    Symmetric input yields real eigenvalues sorted ascending; anything else
    yields the complex spectrum in no particular order.
    """
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("eigenvalues need a square matrix")
    if np.allclose(a, a.T, atol=1e-12, rtol=0.0):
        return np.linalg.eigvalsh(a)
    return np.linalg.eigvals(a)


def spectral_radius(a) -> float:
    return float(np.max(np.abs(eigenvalues(a)))) if np.size(a) else 0.0


def subspace_intersection(a, b, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of the intersection of two subspaces.

    The singular values of (I - bb')a are the sines of the principal angles
    between the spans, and its right singular vectors pick the matching
    principal vectors of a.  The intersection is spanned by the principal
    vectors at angle zero.  Orthonormal inputs fix the scale of the sines at
    one, so rtol bounds them absolutely: a relative cut-off would count
    roundoff as rank when the spans coincide and every sine is noise.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValueError("subspaces must share the ambient dimension")
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros((n, 0))
    _, sines, vh = np.linalg.svd(a - b @ (b.T @ a), full_matrices=False)
    return a @ vh[sines <= rtol].T


def subspaces_equal(a, b, tol: float = 1e-9) -> bool:
    """Span equality via mutual projection residuals (bases are non-unique)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[0] != b.shape[0]:
        raise ValueError("subspaces must share the ambient dimension")
    if a.shape[1] != b.shape[1]:
        return False
    if a.shape[1] == 0:
        return True
    res_a = a - b @ (b.T @ a)
    res_b = b - a @ (a.T @ b)
    return float(np.linalg.norm(res_a)) <= tol and float(np.linalg.norm(res_b)) <= tol


def subspace_family_independent(bases, rtol: float = RANK_RTOL) -> bool:
    """True iff dim of the sum equals the sum of dims.

    Equivalent to each subspace meeting the sum of the others only at zero;
    trivial subspaces never break independence.
    """
    bases = [np.asarray(b, dtype=float) for b in bases]
    if not bases:
        return True
    n = bases[0].shape[0]
    if any(b.shape[0] != n for b in bases):
        raise ValueError("subspaces must share the ambient dimension")
    total = sum(b.shape[1] for b in bases)
    if total == 0:
        return True
    if total > n:
        return False
    stacked = np.hstack(bases)
    return matrix_rank(stacked, rtol) == total


def mixed_norm_2_inf(q, block: int) -> float:
    """Mixed (2, inf) norm: the induced inf-norm of the matrix of blockwise
    spectral norms.  Submultiplicative, and bounds the spectral radius."""
    q = _as_matrix(q)
    if q.shape[0] != q.shape[1]:
        raise ValueError("mixed norm needs a square matrix")
    if block < 1 or q.shape[0] % block:
        raise ValueError(f"matrix of size {q.shape[0]} does not split into {block}-blocks")
    m = q.shape[0] // block
    blocks = q.reshape(m, block, m, block).transpose(0, 2, 1, 3)
    gauge = np.linalg.svd(blocks, compute_uv=False)[..., 0]
    return float(np.max(gauge.sum(axis=1)))
