"""Dense linear-algebra kernel: kernels, singular values and numerical rank,
and the (2, inf) mixed matrix norm.

A kernel is a plain ndarray whose columns form an orthonormal basis; the
trivial kernel in R^n is an (n, 0) array.  Rank decisions flow through one
tolerance (RANK_RTOL), relative to the largest singular value.  Only the
overlap verifier (wellconfig.disagreement_overlap_dim) applies it absolutely,
to principal-angle sines whose orthonormal inputs fix the scale.  One entry
point takes another tolerance: is_well_configured(rtol=), which
`verify --tol` sets.
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


def kernel_basis(a) -> np.ndarray:
    """Orthonormal basis of the kernel of a, as columns.  An (n, 0) result
    means the kernel is trivial.

    Right singular vectors whose singular value falls below RANK_RTOL * sigma_max
    span the numerical nullspace.  A tall or square a takes the thin SVD,
    whose Vh is already cols x cols, so no rows x rows U is ever formed; a
    wide a needs the full Vh, and its U is small.  An a without rows, or
    all zero, has no singular value above the cut-off, and its Vh is the
    identity: the whole space is the kernel.
    """
    a = _as_matrix(a)
    rows, cols = a.shape
    _, s, vh = np.linalg.svd(a, full_matrices=rows < cols)
    return vh[numerical_rank(s) :].T.copy()


def singular_values(a) -> np.ndarray:
    """The min(a.shape) singular values of a, largest first, from an SVD
    without vectors: all zero for an all-zero a, none for an empty one."""
    a = _as_matrix(a)
    return np.linalg.svd(a, compute_uv=False)


def numerical_rank(s, floor: float = 0.0) -> int:
    """Count of the singular values s (largest first) above RANK_RTOL * s[0] and floor."""
    return int(np.sum(s > max(RANK_RTOL * s[0], floor))) if len(s) else 0


def matrix_rank(a, floor: float = 0.0) -> int:
    return numerical_rank(singular_values(a), floor)


def mixed_norm_2_inf(q, block: int) -> float:
    """Mixed (2, inf) norm: the induced inf-norm of the matrix of blockwise
    spectral norms.  Submultiplicative, and bounds the spectral radius.

    Only the nonzero blocks go through the SVD; a zero block's norm is zero.
    """
    q = _as_matrix(q)
    if q.shape[0] != q.shape[1]:
        raise ValueError("mixed norm needs a square matrix")
    if block < 1 or q.shape[0] % block:
        raise ValueError(f"matrix of size {q.shape[0]} does not split into {block}-blocks")
    m = q.shape[0] // block
    blocks = q.reshape(m, block, m, block).transpose(0, 2, 1, 3)
    nonzero = blocks.any(axis=(2, 3))
    gauge = np.zeros((m, m))
    gauge[nonzero] = np.linalg.svd(blocks[nonzero], compute_uv=False)[:, 0]
    return float(np.max(gauge.sum(axis=1)))
